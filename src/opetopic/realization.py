"""The bridge between opetopes, opetopic sets, and many-to-one polygraphs.

Realizing an opetopic set produces the polygraph with one generator per
cell, named after the cell: the target of a generator is the cell's
target face, and its source tree redecorates the tree of the cell's shape
with the cell's source faces.  Cells are renamed first only where two
shapes of a dimension share a name.  An opetope is realized as its
representable, whose j-cells are the morphism classes from j-opetopes
into it, read off its slice table with no opetopic set in between.  In
the other direction the nerve of a polygraph collects its generators by
shape, where the shape of a generator replaces every generator in its
source tree by its shape, recursively.  The unit and counit checks
verify on finite instances that the two are mutually inverse.
"""

from __future__ import annotations

from collections import Counter

from .address import EMPTY
from .category import faces_of, slice_classes
from .errors import Report, UnknownNameError, Value
from .opetope import Opetope, arrow, degenerate, from_tree, point, print_key
from .oset import OpetopicSet, representable_cells
from .polygraph import GenN, MtoPolygraph, _Generators, print_cell_tree
from .trees import Tree, collector_paused, corolla, flatten, grow_trees


def realize_opetope(omega: Opetope) -> MtoPolygraph:
    """The polygraph freely implementing the face structure of an opetope:
    the realization of its representable, whose cells are read off the
    slice table in print order of shapes, as ``support`` has them."""
    cells = representable_cells(omega, print_key)
    return _realize_cells(cells, cells)


def boundary_polygraph(omega: Opetope) -> MtoPolygraph:
    """The realization of the representable without its top cell, the
    identity, which is its only cell of shape ``omega``."""
    cells = representable_cells(omega, print_key)
    return _realize_cells(cells, [shape for shape in cells if shape is not omega])


# -- the terminal many-to-one polygraph --------------------------------


@collector_paused()
def terminal_polygraph(max_dim: int, budget: int) -> MtoPolygraph:
    """The polygraph with one generator per parallel pair, truncated.

    Dimension n+1 generators are the pairs (u, v) with u an n-cell of at
    most ``budget`` occurrences and v a parallel n-generator; sources and
    targets are the projections.  Since parallel generators coincide here,
    v is determined by u, and generators are named ``x<dim>_<index>`` in a
    deterministic order.  The cells u are grown with at most ``budget``
    leaves, which is safe: a cell's flat source has one node per leaf and a
    generator's source tree at most ``budget`` nodes, so no other u has a v.
    The build pauses the cyclic collector, which is safe: it keeps the
    cells it grows and makes no reference cycle.
    """
    P = MtoPolygraph()
    P.add_point("o")
    if max_dim >= 1:
        P.add_arrow("x1_0", "o", "o")
    for dim in range(2, max_dim + 1):
        sig = P.stage(dim - 1)
        lookup = {(g.source_tree, g.target): v for v, g in sig.gens.items()}
        grown = grow_trees(sig, sig.gens, sig.gens, budget)
        # identities are looked up by their corolla, grown cells by flat
        # source, which the grower leaves to ``flatten`` for chains
        cells = [(Tree.unit(v), corolla(v), v) for v in P.generators(dim - 2)]
        cells += [(t, flat, sig.target_color(t.nodes[EMPTY])) for t, flat, *_ in grown]
        found = []
        for tree, flat, target in cells:
            v = lookup.get((flatten(sig, tree).tree if flat is None else flat, target))
            if v is not None:
                found.append((tree.size, print_cell_tree(tree), v, tree))
        for i, (_, _, v, tree) in enumerate(sorted(found)):
            P.add_generator(dim, f"x{dim}_{i}", tree, v)
    return P


# -- the shape of a generator ------------------------------------------


class ShapeResult(Value):
    """The opetope shape of a generator with the generator maps of the
    induced morphism from its realization, which sends the top generator
    to the generator itself: together, the generator's cell of the nerve."""

    __slots__ = ("shape", "induced")

    def __init__(self, shape: Opetope, induced: dict[int, dict[str, str]]):
        self.shape, self.induced = shape, induced


def shape_of(P: MtoPolygraph, dim: int, name: str) -> ShapeResult:
    """The unique pair of an opetope and a morphism from its realization
    hitting the generator, both read off the nerve: the morphism sends
    each class into the shape to the cell the class gives the generator.
    As for ``nerve``, P must be valid; on an invalid P the maps need not
    form a polygraph morphism."""
    P.gen_data(dim, name)  # an unknown name or dimension raises here
    X = nerve(P, dim)
    shape = _shape_in(X, dim, name)
    maps = {
        j: {str(cls): X.apply(cls, name) for cls in classes}
        for j, classes in slice_classes(shape).items()
    }
    return ShapeResult(shape, maps)


def _shape_in(X: OpetopicSet, dim: int, name: str) -> Opetope:
    """The shape of the ``dim``-cell ``name`` of a nerve, whose names are
    unique in each dimension."""
    return next(shape for shape, cells in X.cells.items() if shape.dim == dim and name in cells)


def cells_of_shape(P: MtoPolygraph, omega: Opetope) -> list[str]:
    """All generators whose shape is the given opetope, in generator order."""
    return nerve(P, omega.dim).cells_at(omega)


# -- realization of opetopic sets and the nerve -------------------------


def distinct_names(X: OpetopicSet) -> OpetopicSet:
    """X itself when no two shapes of a dimension share a cell name, else
    a copy renamed so that names are distinct within each dimension.

    A shared name becomes ``NAME@INDEX``, by the shape's print-key index
    in its dimension; a name so made that is another cell's verbatim name
    gets ``@`` appended until it is free.  Face values are renamed to match.
    """
    names: dict[int, set[str]] = {}
    for shape, cells in X.cells.items():
        names.setdefault(shape.dim, set()).update(cells)
    if sum(map(len, X.cells.values())) == sum(map(len, names.values())):
        return X
    support = X.support()
    counts = Counter((shape.dim, name) for shape in support for name in X.cells[shape])
    index: dict[int, int] = {}
    renamed: dict[tuple[Opetope, str], str] = {}
    for shape in support:
        i = index[shape.dim] = index.get(shape.dim, -1) + 1
        for name in X.cells[shape]:
            unique = name
            if counts[(shape.dim, name)] > 1:
                # ``NAME@INDEX`` ends in a digit: only a verbatim name can be it
                unique = f"{name}@{i}"
                while counts[(shape.dim, unique)] == 1:
                    unique += "@"
            renamed[(shape, name)] = unique
    Y = OpetopicSet(max_dim=X.max_dim)
    for shape in support:
        domains = [face.domain for face in faces_of(shape)]
        for name, values in X.cells[shape].items():
            try:
                faces = [renamed[(d, v)] for d, v in zip(domains, values)]
            except KeyError as missing:
                d, v = missing.args[0]
                raise UnknownNameError(f"cell {name!r} at {shape}: no cell {v!r} at {d}") from None
            Y.add_cell(shape, renamed[(shape, name)], faces)
    return Y


def realize_oset(X: OpetopicSet) -> MtoPolygraph:
    """One generator per cell, named after it unless names collide."""
    return _realize(distinct_names(X))


def _realize(X: OpetopicSet) -> MtoPolygraph:
    """``realize_oset`` of a set whose names are distinct in each dimension."""
    return _realize_cells(X.cells, X.support())


def _realize_cells(cells: dict, shapes) -> MtoPolygraph:
    """One generator per cell at each of ``shapes`` in turn, named after the
    cell and read off its face tuple; ``cells`` has the cells of every
    shape, their names distinct in each dimension."""
    P = MtoPolygraph()
    for shape in shapes:
        dim, at = shape.dim, cells[shape]
        if dim == 0:
            gens = dict.fromkeys(at)
        elif shape.is_degenerate:
            below, gens = cells.get(shape.target(), {}), {}
            for name, (target,) in at.items():
                if target not in below:
                    raise UnknownNameError(
                        f"cell {name!r} at {shape}: no cell {target!r} at {shape.target()}"
                    )
                gens[name] = GenN(Tree.unit(below[target][0]), target)
        elif dim == 1:
            # the arrow cells on one source point share its corolla
            corollas = {source: corolla(source) for source in {s for _, s in at.values()}}
            gens = {name: GenN(corollas[s], target) for name, (target, s) in at.items()}
        else:
            addresses = shape.node_addresses()
            gens = {
                name: GenN(Tree._wrap(dict(zip(addresses, sources))), target)
                for name, (target, *sources) in at.items()
            }
        P._declare(dim, gens)
    return P


def _shape(dim: int, data, memo: dict[int, _Generators]) -> Opetope:
    """The shape of a generator from its data: its source tree with each
    decoration replaced by its shape, read from the dimensions below in
    ``memo``, which ``nerve`` has finished; a name not there raises."""
    if dim < 2:
        return arrow() if dim else point()
    tree = data.source_tree
    if tree.is_unit:
        return degenerate(memo[dim - 2][tree.unit_color])
    below = memo[dim - 1]
    return from_tree(Tree._wrap({p: below[op] for p, op in tree.nodes.items()}), validate=True)


def nerve(P: MtoPolygraph, max_dim: int) -> OpetopicSet:
    """Generators collected by shape, a dimension at a time, bottom up: the
    one place shapes are computed.  Each generator's faces are its target,
    then its source decorations in address order, which is the shape's,
    since the shape has the source tree's node addresses, and names are
    unique: no cell needs ``add_cell``."""
    X = OpetopicSet(max_dim=max_dim)
    memo: dict[int, _Generators] = {}
    for dim in range(min(P.max_dim, max_dim) + 1):
        shapes = memo[dim] = _Generators(dim)
        for name, data in P._generators(dim).items():
            shape = shapes[name] = _shape(dim, data, memo)
            if dim:
                tree = data.source_tree
                faces = (data.target, *(() if tree.is_unit else tree.nodes.values()))
            else:
                faces = ()
            X.cells.setdefault(shape, {})[name] = faces
    return X


# -- unit and counit of the equivalence ---------------------------------


def unit_check(X: OpetopicSet) -> Report:
    """Cells correspond to same-shape generators of the realization,
    compatibly with every generating face: the realization's nerve is
    compared with X, shape for shape, then cell for cell where they differ."""
    report = Report()
    named = distinct_names(X)
    P = _realize(named)
    Y = nerve(P, max(P.max_dim, 0))
    if all(Y.cells.get(shape) == cells for shape, cells in named.cells.items() if cells):
        return report
    for shape in named.support():
        found = Y.cells.get(shape, {})
        for cell, (gen, values) in zip(X.cells[shape], named.cells[shape].items()):
            actual = found.get(gen)
            if actual is None:
                gen_shape = _shape_in(Y, shape.dim, gen)
                report.fail(f"cell {cell!r} at {shape}: generator has shape {gen_shape}")
            elif actual != values:
                for face, value, got in zip(faces_of(shape), values, actual):
                    if value != got:
                        report.fail(
                            f"cell {cell!r} at {shape}: face {face} gives "
                            f"{got!r}, expected {value!r}"
                        )
        image = [gen for gen in named.cells[shape] if gen in found]
        if len(image) != len(found):
            report.fail(f"shape {shape}: cells {sorted(image)} vs generators {sorted(found)}")
    return report


def counit_check(P: MtoPolygraph) -> Report:
    """Realizing the nerve gives back the polygraph, generator for
    generator.  The nerve's cells are named after the generators, so the
    two generator tables are compared a dimension at a time.  Where they
    differ, the report names each generator missing from the nerve, then
    each boundary that changed, then each generator the nerve added."""
    Q = _realize(nerve(P, max(P.max_dim, 0)))
    dims = range(max(P.max_dim, Q.max_dim) + 1)
    tables = [(P._generators(dim), Q._generators(dim)) for dim in dims]
    if all(p_gens == q_gens for p_gens, q_gens in tables):
        return Report()
    missing, changed, extra = [], [], []
    for dim, (p_gens, q_gens) in enumerate(tables):
        # a 1-generator's source, the point of its corolla, comes first
        sides = {"target": "target", "source tree": "source_tree"}
        if dim == 1:
            sides = {"source": "source_tree", "target": "target"}
        for gen, data in p_gens.items():
            if gen not in q_gens:
                missing.append(f"morphism undefined on {dim}-generator {gen!r}: not in the nerve")
            elif dim:
                changed += [
                    f"{dim}-generator {gen!r}: {side} not preserved"
                    for side, slot in sides.items()
                    if getattr(data, slot) != getattr(q_gens[gen], slot)
                ]
        extra += [
            f"morphism undefined on {dim}-generator {gen!r}" for gen in q_gens if gen not in p_gens
        ]
    report = Report(missing + changed + extra)
    if any(p_gens.keys() != q_gens.keys() for p_gens, q_gens in tables):
        report.fail("counit is not a generator-for-generator isomorphism")
    return report
