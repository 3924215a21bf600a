"""Seeded random many-to-one polygraphs for the ``roundtrip`` workload.

Polygraphs are grown through the public construction API
(``MtoPolygraph.add_*`` and the tree functions of ``opetopic.trees``) and
written out as text by a printer of this module's own, which follows the
file format in the README rather than ``opetopic.formats``.  That printer
also gives the canonical form the benchmark expects back from
``opetopic roundtrip``.

A new generator of dimension d is a random (d-1)-cell (a tree of
(d-1)-generators grown by grafting, or now and then an identity cell)
together with a target: an existing parallel (d-1)-generator, or a new
one minted with exactly the cell's boundary.  Both moves keep the
presentation valid by construction.
"""

from __future__ import annotations

import random

from opetopic.polygraph import Cell, MtoPolygraph
from opetopic.trees import Tree, corolla, edge_color, graft, leaf_addresses

MAX_DIM = 5
SIZE_RANGE = (55, 80)
MAX_CELL_SIZE = 3
IDENTITY_SOURCE_P = 0.1
REUSE_TARGET_P = 0.6


def print_address(address: tuple, sugar: bool = True) -> str:
    """The bracketed form; ``*`` for empty entries of base-level addresses
    when ``sugar`` is set, ``[]`` spelled out otherwise."""
    if not address:
        return "[]"
    if sugar and all(not entry for entry in address):
        return "[" + "*" * len(address) + "]"
    return "[" + "".join(print_address(entry, sugar) for entry in address) + "]"


def _address_key(address: tuple) -> tuple:
    return tuple(_address_key(entry) for entry in address)


def print_cell(tree: Tree, sugar: bool = True) -> str:
    if tree.is_unit:
        return f"id({tree.unit_color})"
    nodes = tree.nodes
    order = sorted(nodes, key=_address_key)
    return "{" + ", ".join(f"{print_address(a, sugar)} <- {nodes[a]}" for a in order) + "}"


def print_generator(dim: int, name: str, source, target, sugar: bool = True) -> str:
    if dim == 0:
        return f"gen 0 {name}"
    if dim == 1:
        return f"gen 1 {name} : {source} -> {target}"
    return f"gen {dim} {name} : {print_cell(source, sugar)} -> {target}"


class RandomPolygraph:
    """One seeded polygraph: its generators in the order they were made."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.polygraph = MtoPolygraph()
        self.records: list[tuple[int, str, object, object]] = []
        self.boundary: dict[tuple[int, str], tuple[object, str]] = {}
        self.minted = 0
        self._grow(rng.randint(*SIZE_RANGE))
        self.text = self._text()

    @property
    def size(self) -> int:
        return len(self.records)

    def _add(self, dim: int, name: str, source=None, target=None) -> None:
        P = self.polygraph
        if dim == 0:
            P.add_point(name)
        elif dim == 1:
            P.add_arrow(name, source, target)
            self.boundary[(1, name)] = (source, target)
        else:
            P.add_generator(dim, name, source, target)
            self.boundary[(dim, name)] = (Cell(dim - 1, source), target)
        self.records.append((dim, name, source, target))

    def _random_tree(self, dim: int) -> Tree:
        """A random composite of ``dim``-generators with at most
        MAX_CELL_SIZE occurrences, grafted one corolla at a time."""
        rng, P = self.rng, self.polygraph
        gens = P.generators(dim)
        sig = P.stage(dim)
        tree = corolla(rng.choice(gens))
        wanted = rng.randint(1, MAX_CELL_SIZE)
        while tree.size < wanted:
            options = []
            for leaf in leaf_addresses(sig, tree):
                color = edge_color(sig, tree, leaf)
                fits = [g for g in gens if sig.target_color(g) == color]
                if fits:
                    options.append((leaf, fits))
            if not options:
                break
            leaf, fits = rng.choice(options)
            tree = graft(sig, tree, leaf, corolla(rng.choice(fits)))
        return tree

    def _grow(self, size: int) -> None:
        rng, P = self.rng, self.polygraph
        for i in range(rng.randint(2, 3)):
            self._add(0, f"p{i}")
        points = P.generators(0)
        for i in range(rng.randint(6, 9)):
            self._add(1, f"a{i}", rng.choice(points), rng.choice(points))
        for dim in range(2, MAX_DIM + 1):
            quota = (size - self.size) // (MAX_DIM + 1 - dim)
            added = attempts = 0
            while added < quota and attempts < 4 * quota and self.size < size:
                attempts += 1
                below = dim - 1
                if rng.random() < IDENTITY_SOURCE_P:
                    tree = Tree.unit(rng.choice(P.generators(below - 1)))
                else:
                    tree = self._random_tree(below)
                cell = Cell(below, tree)
                key = (P.source_cell(cell), P.target_name(cell))
                parallel = [
                    g for g in P.generators(below) if self.boundary[(below, g)] == key
                ]
                if parallel and rng.random() < REUSE_TARGET_P:
                    target = rng.choice(parallel)
                else:
                    if self.size + 2 > size:
                        break
                    target = f"m{below}_{self.minted}"
                    self.minted += 1
                    source = key[0] if below == 1 else key[0].tree
                    self._add(below, target, source, key[1])
                self._add(dim, f"g{dim}_{added}", tree, target)
                added += 1

    def _text(self) -> str:
        """The file as written: generators in creation order, some base
        addresses spelled without the ``*`` sugar."""
        lines = [f"# random polygraph, {self.size} generators"]
        for dim, name, source, target in self.records:
            lines.append(print_generator(dim, name, source, target, self.rng.random() < 0.5))
        return "\n".join(lines) + "\n"

    def canonical(self) -> str:
        """The canonical print: by dimension, then by name."""
        lines = [
            print_generator(dim, name, source, target)
            for dim, name, source, target in sorted(self.records, key=lambda r: (r[0], r[1]))
        ]
        return "\n".join(lines) + "\n"
