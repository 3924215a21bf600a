"""Seeded random generators for polygraphs and cells.

Randomized sweeps in the test suite need arbitrary valid many-to-one
polygraphs and cells over them.  Everything here is driven by an explicit
``random.Random`` so runs are reproducible.

Higher-dimensional generators are grown by sampling a random cell one
dimension down and either reusing a parallel generator as its target or
minting one whose boundary is the sampled cell's boundary; both moves keep
the presentation valid by construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from opetopic.errors import CoherenceError
from opetopic.polygraph import Cell, MtoPolygraph
from opetopic.trees import Tree, corolla, edge_color, graft, leaf_addresses


@dataclass
class RandomPolygraphConfig:
    max_dim: int = 3
    points: tuple[int, int] = (1, 2)
    arrows: tuple[int, int] = (1, 3)
    generators_per_dim: tuple[int, int] = (1, 3)
    max_cell_size: int = 3
    max_generators: int = 20


def random_cell(
    rng: random.Random, P: MtoPolygraph, dim: int, max_size: int
) -> Cell | None:
    """A random dimension-``dim`` cell with at most ``max_size`` occurrences.

    Identity cells come out with positive probability; returns None when
    the polygraph has no material at this dimension.
    """
    gens = P.generators(dim)
    below = P.generators(dim - 1)
    if not gens or max_size == 0:
        if not below:
            return None
        return Cell(dim, Tree.unit(rng.choice(below)))
    if below and rng.random() < 0.2:
        return Cell(dim, Tree.unit(rng.choice(below)))
    sig = P.stage(dim)
    tree = corolla(rng.choice(gens))
    size = rng.randint(1, max_size)
    while tree.size < size:
        leaves = leaf_addresses(sig, tree)
        if not leaves:
            break
        leaf = rng.choice(leaves)
        color = edge_color(sig, tree, leaf)
        candidates = [g for g in gens if sig.target_color(g) == color]
        if not candidates:
            break
        tree = graft(sig, tree, leaf, corolla(rng.choice(candidates)))
    return Cell(dim, tree)


def random_polygraph(
    rng: random.Random, config: RandomPolygraphConfig | None = None
) -> MtoPolygraph:
    """A random valid many-to-one polygraph within the configured sizes."""
    config = config or RandomPolygraphConfig()
    P = MtoPolygraph()
    total = 0
    for i in range(rng.randint(*config.points)):
        P.add_point(f"p{i}")
        total += 1
    points = P.generators(0)
    for i in range(rng.randint(*config.arrows)):
        if total >= config.max_generators:
            break
        P.add_arrow(f"a{i}", rng.choice(points), rng.choice(points))
        total += 1
    minted = 0
    for dim in range(2, config.max_dim + 1):
        if not P.generators(dim - 1):
            break
        added = 0
        wanted = rng.randint(*config.generators_per_dim)
        attempts = 0
        while added < wanted and attempts < 20 and total < config.max_generators:
            attempts += 1
            cell = random_cell(rng, P, dim - 1, config.max_cell_size)
            if cell is None:
                break
            source = P.source_cell(cell)
            target_of = P.target_name(cell)
            # find an existing generator parallel to the sampled cell
            candidates = []
            for name in P.generators(dim - 1):
                gen_cell = P.generator_cell(dim - 1, name)
                if P.target_name(gen_cell) != target_of:
                    continue
                if P.source_cell(gen_cell) == source:
                    candidates.append(name)
            if candidates and rng.random() < 0.7:
                target = rng.choice(candidates)
            else:
                if total >= config.max_generators:
                    break
                target = f"m{dim - 1}_{minted}"
                minted += 1
                if dim - 1 == 1:
                    P.add_arrow(target, source, target_of)
                else:
                    P.add_generator(dim - 1, target, source.tree, target_of)
                total += 1
            if total >= config.max_generators:
                break
            P.add_generator(dim, f"g{dim}_{added}", cell.tree, target)
            total += 1
            added += 1
    report = P.validate()
    if not report.ok:
        raise CoherenceError(f"random polygraph failed validation:\n{report}")
    return P
