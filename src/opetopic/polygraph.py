"""Many-to-one polygraphs with cells kept in composition-tree normal form.

A presentation lists generator names per dimension: an n-generator for
n >= 1 carries the tree of (n-1)-generators composing its source together
with the single (n-1)-generator that is its target; the source tree of a
1-generator is the corolla on its source point.  A cell of dimension n is
nothing but a tree over the stage-n generator signature: the unit tree on
a generator is an identity cell, a node map is a composite, and the tree
is its own normal form, so there is no separate word problem to solve.

Sources of cells are computed by the same flattening algorithm that
computes opetope targets; partial composition is grafting.
"""

from __future__ import annotations

from typing import Mapping, Union

from .address import EMPTY, Address
from .errors import (
    AddressError,
    CoherenceError,
    CompositionError,
    GraftError,
    Report,
    UnknownNameError,
    Value,
)
from .trees import (
    FlattenResult,
    Signature,
    Tree,
    check_tree,
    corolla,
    edge_color,
    flatten,
    graft,
    total_graft,
)


class GenN(Value):
    """An n-generator, n >= 1: a source composition tree and a target name;
    a 1-generator's source tree is the corolla on its source point."""

    __slots__ = ("source_tree", "target")

    def __init__(self, source_tree: Tree, target: str):
        self.source_tree, self.target = source_tree, target


class Cell(Value):
    """A many-to-one cell: its dimension and its composition tree."""

    __slots__ = ("dim", "tree")

    def __init__(self, dim: int, tree: Tree):
        self.dim, self.tree = dim, tree

    @property
    def is_identity(self) -> bool:
        return self.tree.is_unit

    def __str__(self) -> str:
        return print_cell_tree(self.tree)


def print_cell_tree(tree: Tree) -> str:
    if tree.is_unit:
        return f"id({tree.unit_color})"
    bindings = ", ".join(f"{address} <- {op}" for address, op in tree.nodes.items())
    return "{" + bindings + "}"


class _Generators(dict):
    """The generators of one dimension by name; a name not there is an
    ``UnknownNameError``, also where a signature reads it directly."""

    __slots__ = ("dim",)

    def __init__(self, dim: int):
        super().__init__()
        self.dim = dim

    def __missing__(self, name: str):
        raise UnknownNameError(f"no {self.dim}-generator named {name!r}")


class StageSignature(Signature):
    """Signature of dimension-n cells of a polygraph.

    Colors are the (n-1)-generators, operations the n-generators; the
    inputs of an n-generator are the node addresses of its source tree
    (the root of the corolla for n = 1).  The gluing map needed by flatten
    reads an operation's source, flattened once over the stage below and
    kept, bottoming out at n = 1, where ``source_tree`` is None: a cell
    there is a chain.  A stage holds the namespace of dimension n, the
    stage below and that memo, and nothing that points back at the
    polygraph, which keeps it.
    """

    def __init__(self, gens: _Generators, below: "StageSignature | None"):
        self.dim, self.gens, self.below = gens.dim, gens, below
        self.flat_sources: dict[str, FlattenResult] = {}

    def inputs(self, op: str) -> tuple[Address, ...]:
        return self.gens[op].source_tree.node_addresses()

    def source_color(self, op: str, address: Address) -> str:
        return self.gens[op].source_tree.decoration(address)

    def target_color(self, op: str) -> str:
        return self.gens[op].target

    def source_tree(self, op: str) -> Tree | None:
        return self.gens[op].source_tree if self.dim > 1 else None

    def flat_source(self, op: str) -> FlattenResult:
        """The flattened source tree of an operation, computed once."""
        if op not in self.flat_sources:
            self.flat_sources[op] = flatten(self.below, self.gens[op].source_tree)
        return self.flat_sources[op]

    def sub_readdress(self, op: str) -> dict[Address, Address]:
        return self.flat_source(op).readdress

    def sub_signature(self) -> "StageSignature | None":
        return self.below


class MtoPolygraph:
    """A finite many-to-one polygraph presentation.

    Generator names live in per-dimension namespaces.  The representation
    makes many-to-one-ness structural: targets are generator names, never
    composites.
    """

    def __init__(self) -> None:
        self._dims: list[_Generators] = []
        self._stages: list[StageSignature | None] = [None]  # none at dimension 0

    # -- construction -------------------------------------------------

    def _declare(self, dim: int, gens: Mapping[str, GenN | None]) -> None:
        """Add generators to a dimension, none of them there already."""
        while len(self._dims) <= dim:
            self._dims.append(_Generators(len(self._dims)))
        space = self._dims[dim]
        for name in gens:
            if name in space:
                raise CoherenceError(f"duplicate {dim}-generator {name!r}")
        space.update(gens)

    def add_point(self, name: str) -> None:
        self._declare(0, {name: None})

    def add_arrow(self, name: str, source: str, target: str) -> None:
        self._declare(1, {name: GenN(corolla(source), target)})

    def add_generator(self, dim: int, name: str, source_tree: Tree, target: str) -> None:
        if dim < 2:
            raise ValueError("use add_point or add_arrow below dimension 2")
        self._declare(dim, {name: GenN(source_tree, target)})

    # -- lookups ------------------------------------------------------

    @property
    def max_dim(self) -> int:
        return len(self._dims) - 1

    def _generators(self, dim: int) -> _Generators:
        """The namespace of a dimension, or an empty one past them."""
        return self._dims[dim] if 0 <= dim < len(self._dims) else _Generators(dim)

    def generators(self, dim: int) -> tuple[str, ...]:
        return tuple(self._generators(dim))

    def has_generator(self, dim: int, name: str) -> bool:
        return name in self._generators(dim)

    def gen_data(self, dim: int, name: str):
        return self._generators(dim)[name]

    def stage(self, dim: int) -> StageSignature:
        """The signature of dimension-``dim`` cells, kept from its first use;
        past ``max_dim`` a new one, not kept, so a later declaration is seen."""
        if dim < 1:
            raise ValueError("cell signatures start at dimension 1")
        if dim < len(self._stages):
            return self._stages[dim]
        stage = StageSignature(self._generators(dim), self.stage(dim - 1) if dim > 1 else None)
        if dim <= self.max_dim:
            self._stages.append(stage)
        return stage

    def _flat_source(self, dim: int, op: str) -> FlattenResult:
        """The flattened source tree of a generator, kept by its stage."""
        return self.stage(dim).flat_source(op)

    # -- cells --------------------------------------------------------

    def identity_cell(self, gen_dim: int, name: str) -> Cell:
        """The identity on a generator, one dimension up."""
        self.gen_data(gen_dim, name)
        return Cell(gen_dim + 1, Tree.unit(name))

    def generator_cell(self, dim: int, name: str) -> Cell:
        self.gen_data(dim, name)
        return Cell(dim, corolla(name))

    def source_cell(self, cell: Cell) -> Union[Cell, str]:
        """The source boundary: a cell one dimension down (a 0-generator
        name for 1-dimensional cells)."""
        result = flatten(self.stage(cell.dim), cell.tree)
        if cell.dim == 1:
            return result.tree.nodes[EMPTY]
        return Cell(cell.dim - 1, result.tree)

    def target_name(self, cell: Cell) -> str:
        """The target boundary, always a single generator name."""
        if cell.tree.is_unit:
            return cell.tree.unit_color
        return self.gen_data(cell.dim, cell.tree.nodes[EMPTY]).target

    def compose_at(self, outer: Cell, leaf: Address, inner: Cell) -> Cell:
        """Placed composition: plug ``inner`` into one occurrence of its
        target inside the source of ``outer``."""
        if outer.dim != inner.dim:
            raise CompositionError(
                f"cannot compose cells of dimensions {outer.dim} and {inner.dim}"
            )
        sig = self.stage(outer.dim)
        expected = edge_color(sig, outer.tree, leaf)
        provided = self.target_name(inner)
        if expected != provided:
            raise CompositionError(
                f"leaf {leaf} expects a cell with target {expected!r}, "
                f"got target {provided!r}"
            )
        return Cell(outer.dim, graft(sig, outer.tree, leaf, inner.tree))

    def compose_total(self, base: Cell, assignment: Mapping[Address, Cell]) -> Cell:
        """Compose one cell into every leaf; order-independent."""
        for cell in assignment.values():
            if cell.dim != base.dim:
                raise CompositionError(
                    f"cannot compose cells of dimensions {base.dim} and {cell.dim}"
                )
        sig = self.stage(base.dim)
        trees = {leaf: cell.tree for leaf, cell in assignment.items()}
        try:
            tree = total_graft(sig, base.tree, trees)
        except GraftError as error:
            raise CompositionError(str(error)) from error
        return Cell(base.dim, tree)

    # -- validation ---------------------------------------------------

    def validate(self) -> Report:
        """Check reference integrity, source-tree coherence, and the
        parallelism of every generator's boundary pair.

        A generator's source composite is flattened once, into its stage's
        memo, which flattening higher cells reads its readdressing from, and is
        compared with the target generator's own source tree, a corolla in
        dimension 2; no target corolla is flattened."""
        report, dims = Report(), self._dims
        for name, data in dims[1].items() if len(dims) > 1 else ():
            for end in (data.source_tree.nodes[EMPTY], data.target):
                if end not in dims[0]:
                    report.fail(f"1-generator {name!r}: unknown endpoint {end!r}")
        for dim in range(2, len(dims)):
            sig, below = self.stage(dim - 1), dims[dim - 1]
            for name, data in dims[dim].items():
                if data.target not in below:
                    report.fail(f"{dim}-generator {name!r}: unknown target {data.target!r}")
                    continue
                tree = data.source_tree
                try:
                    if tree.is_unit:
                        dims[dim - 2][tree.unit_color]  # an unknown name raises
                    else:
                        for op in tree.nodes.values():
                            below[op]
                    check_tree(sig, tree)
                except (CoherenceError, UnknownNameError, AddressError) as error:
                    report.fail(f"{dim}-generator {name!r}: {error}")
                    continue
                # parallel(source, target corolla) without flattening the
                # corolla: its source is the target's own source tree, and
                # its target is the target's target
                target = below[data.target]
                try:
                    root = tree.unit_color if tree.is_unit else below[tree.nodes[EMPTY]].target
                    parallel = root == target.target and (
                        self._flat_source(dim, name).tree == target.source_tree
                    )
                    if not parallel:
                        report.fail(
                            f"{dim}-generator {name!r}: source composite and "
                            f"target {data.target!r} are not parallel"
                        )
                except (CoherenceError, AddressError, GraftError) as error:
                    report.fail(f"{dim}-generator {name!r}: {error}")
        return report


# -- cell-level helpers (no presentation needed) -----------------------


def count(cell: Cell) -> int:
    """Number of generator occurrences in a cell."""
    return cell.tree.size


class IdentityShape(Value):
    __slots__ = ("generator",)

    def __init__(self, generator: str):
        self.generator = generator


class GeneratorShape(Value):
    __slots__ = ("generator",)

    def __init__(self, generator: str):
        self.generator = generator


class CompositeShape(Value):
    __slots__ = ("rest", "leaf", "generator")

    def __init__(self, rest: Cell, leaf: Address, generator: str):
        self.rest, self.leaf, self.generator = rest, leaf, generator


Decomposition = Union[IdentityShape, GeneratorShape, CompositeShape]


def decompose(cell: Cell) -> Decomposition:
    """Peel one generator off a cell, or report it an identity/generator.

    The removed occurrence is the last node in address order, a fixed
    convention; it is childless, since a child sorts after its parent.
    Recomposing with ``compose_at`` restores the cell exactly.
    """
    if cell.tree.is_unit:
        return IdentityShape(cell.tree.unit_color)
    nodes = cell.tree.nodes
    if len(nodes) == 1:
        return GeneratorShape(nodes[EMPTY])
    rest = dict(nodes)
    address, generator = rest.popitem()
    return CompositeShape(Cell(cell.dim, Tree._wrap(rest)), address, generator)

