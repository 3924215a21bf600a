"""The bridge between opetopes, opetopic sets, and many-to-one polygraphs.

Realizing an opetopic set produces the polygraph with one generator per
cell, named after the cell: the target of a generator is the cell's
target face, and its source tree redecorates the tree of the cell's shape
with the cell's source faces.  Cells are renamed first only where two
shapes of a dimension share a name.  An opetope is realized as its
representable, whose j-cells are the morphism classes from j-opetopes
into it.  In the other direction the nerve of a polygraph collects its
generators by shape, where the shape of a generator replaces every
generator in its source tree by its shape, recursively.  The unit and
counit checks verify on finite instances that the two are mutually inverse.
"""

from __future__ import annotations

from collections import Counter

from .address import EMPTY
from .category import Word, faces_of, slice_classes
from .errors import CoherenceError, Report, Value
from .opetope import Opetope, arrow, collector_paused, degenerate, from_tree, point
from .oset import OpetopicSet, yoneda
from .polygraph import Cell, MtoPolygraph, PolygraphMorphism, print_cell_tree
from .trees import Tree, corolla, grow_trees


def realize_opetope(omega: Opetope) -> MtoPolygraph:
    """The polygraph freely implementing the face structure of an opetope:
    the realization of its representable."""
    return realize_oset(yoneda(omega, omega.dim))


def boundary_polygraph(omega: Opetope) -> MtoPolygraph:
    """The realization of the representable without its top cell, the
    identity, which is its only cell of shape ``omega``."""
    X = yoneda(omega, omega.dim)
    del X.cells[omega]
    return realize_oset(X)


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
        chains = dim == 2  # 1-cells are chains, with a point as source
        lookup: dict[tuple, str] = {}
        for name in P.generators(dim - 1):
            data = P.gen_data(dim - 1, name)
            lookup[(data.source if chains else data.source_tree, data.target)] = name
        sig, gens = P.stage(dim - 1), P.generators(dim - 1)
        grown = grow_trees(sig, gens, gens, budget, max_leaves=budget)
        # identities are looked up by their corolla, grown cells by flat source
        cells = [(Tree.unit(v), corolla(v), v) for v in P.generators(dim - 2)]
        cells += [(t, flat, sig.target_color(t.nodes[EMPTY])) for t, flat, *_ in grown]
        found = []
        for tree, flat, target in cells:
            source = P.source_cell(Cell(1, tree)) if chains else flat
            v = lookup.get((source, target))
            if v is not None:
                found.append((tree.size, print_cell_tree(tree), v, tree))
        for i, (_, _, v, tree) in enumerate(sorted(found)):
            P.add_generator(dim, f"x{dim}_{i}", tree, v)
    return P


# -- the shape of a generator ------------------------------------------


class ShapeResult(Value):
    """The opetope shape of a generator with the induced morphism from its
    realization, which sends the top generator to the generator itself."""

    __slots__ = ("shape", "induced")

    def __init__(self, shape: Opetope, induced: PolygraphMorphism):
        self.shape, self.induced = shape, induced


def shape_opetope(
    P: MtoPolygraph,
    dim: int,
    name: str,
    _memo: dict[tuple[int, str], Opetope] | None = None,
) -> Opetope:
    """Replace every generator in the source tree by its shape, recursively."""
    memo = _memo if _memo is not None else {}
    key = (dim, name)
    if key in memo:
        return memo[key]
    P.gen_data(dim, name)
    if dim == 0:
        result = point()
    elif dim == 1:
        result = arrow()
    else:
        tree = P.gen_data(dim, name).source_tree
        if tree.is_unit:
            result = degenerate(shape_opetope(P, dim - 2, tree.unit_color, memo))
        else:
            result = from_tree(
                Tree._wrap(
                    {
                        p: shape_opetope(P, dim - 1, op, memo)
                        for p, op in tree.nodes.items()
                    }
                ),
                validate=True,
            )
    memo[key] = result
    return result


def fold_faces(P: MtoPolygraph, dim: int, name: str, word: Word) -> str:
    """Follow a face word from a generator down through the presentation."""
    current, current_dim = name, dim
    for face in word:
        if current_dim == 1:
            data = P.gen_data(1, current)
            current = data.target if face.is_target else data.source
        else:
            data = P.gen_data(current_dim, current)
            if face.is_target:
                current = data.target
            else:
                current = data.source_tree.decoration(face.address)
        current_dim -= 1
    return current


def shape_of(P: MtoPolygraph, dim: int, name: str) -> ShapeResult:
    """The unique pair of an opetope and a morphism from its realization
    hitting the generator."""
    shape = shape_opetope(P, dim, name)
    realization = realize_opetope(shape)
    maps = {
        j: {str(cls): fold_faces(P, dim, name, cls.word) for cls in classes}
        for j, classes in slice_classes(shape).items()
    }
    induced = PolygraphMorphism(realization, P, maps)
    report = induced.validate()
    if not report.ok:
        raise CoherenceError(
            f"induced morphism of {dim}-generator {name!r} is not a "
            f"polygraph morphism:\n{report}"
        )
    return ShapeResult(shape, induced)


def cells_of_shape(P: MtoPolygraph, omega: Opetope) -> list[str]:
    """All generators whose shape is the given opetope."""
    memo: dict[tuple[int, str], Opetope] = {}
    return [
        name
        for name in P.generators(omega.dim)
        if shape_opetope(P, omega.dim, name, memo) == omega
    ]


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
            faces = [renamed[(d, v)] for d, v in zip(domains, values)]
            Y.add_cell(shape, renamed[(shape, name)], faces)
    return Y


def realize_oset(X: OpetopicSet) -> MtoPolygraph:
    """One generator per cell, named after it unless names collide."""
    return _realize(distinct_names(X))


def _realize(X: OpetopicSet) -> MtoPolygraph:
    """``realize_oset`` of a set whose names are distinct in each dimension:
    each generator is named after its cell and read off its face tuple."""
    P = MtoPolygraph()
    for shape in X.support():
        dim, cells = shape.dim, X.cells[shape]
        if dim == 0:
            for name in cells:
                P.add_point(name)
        elif dim == 1:
            for name, (target, source) in cells.items():
                P.add_arrow(name, source, target)
        elif shape.is_degenerate:
            below = X.cells[shape.target()]
            for name, (target,) in cells.items():
                P.add_generator(dim, name, Tree.unit(below[target][0]), target)
        else:
            addresses = shape.node_addresses()
            for name, (target, *sources) in cells.items():
                P.add_generator(dim, name, Tree._wrap(dict(zip(addresses, sources))), target)
    return P


def nerve(P: MtoPolygraph, max_dim: int) -> OpetopicSet:
    """Generators collected by shape; each generator's faces are its
    target, then its source decorations in the shape's address order."""
    X = OpetopicSet(max_dim=max_dim)
    memo: dict[tuple[int, str], Opetope] = {}
    for dim in range(min(P.max_dim, max_dim) + 1):
        for name in P.generators(dim):
            shape = shape_opetope(P, dim, name, memo)
            data, faces = P.gen_data(dim, name), ()
            if dim == 1:
                faces = (data.target, data.source)
            elif dim:
                tree = data.source_tree
                faces = (data.target, *map(tree.decoration, shape.node_addresses()))
            X.add_cell(shape, name, faces)
    return X


# -- unit and counit of the equivalence ---------------------------------


def unit_check(X: OpetopicSet) -> Report:
    """Cells correspond to same-shape generators of the realization,
    compatibly with every generating face: the realization's nerve is
    compared with X, cell for cell."""
    report = Report()
    named = distinct_names(X)
    P = _realize(named)
    Y = nerve(P, max(P.max_dim, 0))
    for shape in named.support():
        found = Y.cells.get(shape, {})
        for cell, (gen, values) in zip(X.cells[shape], named.cells[shape].items()):
            actual = found.get(gen)
            if actual is None:
                gen_shape = shape_opetope(P, shape.dim, gen)
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
    generator.  The nerve's cells are named after the generators, so each
    generator found in it maps to itself; one that the nerve lacks is
    reported as undefined."""
    report = Report()
    Q = _realize(nerve(P, max(P.max_dim, 0)))
    maps: dict[int, dict[str, str]] = {dim: {} for dim in range(P.max_dim + 1)}
    for dim in range(P.max_dim + 1):
        for gen in P.generators(dim):
            if Q.has_generator(dim, gen):
                maps[dim][gen] = gen
            else:
                report.fail(
                    f"morphism undefined on {dim}-generator {gen!r}: not in the nerve"
                )
    morphism = PolygraphMorphism(Q, P, maps)
    report.failures.extend(morphism.validate().failures)
    if not morphism.is_isomorphism():
        report.fail("counit is not a generator-for-generator isomorphism")
    return report
