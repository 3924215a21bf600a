import gc
import hashlib
import itertools
import os
import random
import subprocess
import sys
import weakref
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest

from opetopic import realization
from opetopic.address import EMPTY
from opetopic.category import (
    Face,
    MorphismClass,
    SliceTable,
    Word,
    compose,
    faces_of,
    hom,
    morphism,
    slice_classes,
    slice_table,
)
from opetopic.errors import CoherenceError, OpetopicError, Report, UnknownNameError
from opetopic.formats import parse_oset, parse_polygraph, print_oset, print_polygraph
from opetopic.opetope import (
    Opetope,
    arrow,
    degenerate,
    enumerate_opetopes,
    from_tree,
    iter_opetopes,
    opetopic_integer,
    point,
    print_key,
)
from opetopic.oset import OpetopicSet, validate_oset, yoneda
from opetopic.polygraph import Cell, MtoPolygraph
from opetopic.realization import (
    boundary_polygraph,
    cells_of_shape,
    counit_check,
    distinct_names,
    nerve,
    realize_opetope,
    realize_oset,
    shape_of,
    terminal_polygraph,
    unit_check,
)
from opetopic.trees import Tree, edge_color, leaf_addresses

from conftest import PolygraphMorphism, induced_morphism
from randomized import RandomPolygraphConfig, random_polygraph
from test_polygraph import enumerate_cells

O0 = opetopic_integer(0)
O2 = opetopic_integer(2)
INDUCED_NOT_A_MORPHISM = (
    "morphism undefined on 0-generator 's[].s[*]'\n"
    "morphism undefined on 1-generator 's[**]'"
)


def oracle_corpus():
    """Every opetope of dims 0-3 at bound 3 and of dims 4-5 at bound 2."""
    return [omega for dim in range(4) for omega in enumerate_opetopes(dim, 3)] + [
        omega for dim in (4, 5) for omega in enumerate_opetopes(dim, 2)
    ]


def order_corpus():
    """The oracle corpus, which holds every opetope of dims 0-4 at bound 2
    and of dim 5 at bound 2, with a seeded sample of the dim-4, bound-3
    opetopes that the ``slices`` benchmark queries, and the head of one
    shard at dim 5, bound 3."""
    sample = random.Random(30).sample(enumerate_opetopes(4, 3), 200)
    head = list(itertools.islice(iter_opetopes(5, 3, shard=(5, 16)), 60))
    return oracle_corpus() + sample + head


def generator_table(P: MtoPolygraph) -> list[list[tuple[str, str]]]:
    """Each dimension's generators, in order, as (name, repr of its data)."""
    return [
        [(name, repr(P.gen_data(dim, name))) for name in P.generators(dim)]
        for dim in range(P.max_dim + 1)
    ]


def filed_one_by_one(omega: Opetope) -> OpetopicSet:
    """The representable as ``yoneda`` filed it: one ``add_cell`` per class
    of the slice table, in class order sorted by dimension."""
    table = slice_table(omega)
    X = OpetopicSet(max_dim=omega.dim)
    for i in sorted(range(len(table.domains)), key=lambda i: table.domains[i].dim):
        X.add_cell(table.domains[i], table.names[i], [table.names[j] for j in table.action[i]])
    return X


def cell_table(X: OpetopicSet) -> list:
    """The cells of X, outer and inner dict order kept."""
    return [(shape, list(cells.items())) for shape, cells in X.cells.items()]


def generator_counts(P):
    return [len(P.generators(dim)) for dim in range(P.max_dim + 1)]


# -- independent oracles: realization built straight from slice classes,
# and the boundary glued from the realizations of the proper faces


def word_name(cls: MorphismClass) -> str:
    """A class's name spelled from its least word, not from the table."""
    return ".".join(str(face) for face in reversed(cls.word)) or "id"


def then_face(cls: MorphismClass, face: Face) -> MorphismClass:
    """Precompose a class with one more face, by composition."""
    return compose(cls, morphism(cls.domain, (face,)))


def direct_realization(omega: Opetope) -> MtoPolygraph:
    """The polygraph freely implementing the face structure of an opetope."""
    P = MtoPolygraph()
    classes = slice_classes(omega)
    for dim in sorted(classes):
        for cls in classes[dim]:
            name = word_name(cls)
            if dim == 0:
                P.add_point(name)
            elif dim == 1:
                source = word_name(then_face(cls, Face(cls.domain, EMPTY)))
                target = word_name(then_face(cls, Face(cls.domain)))
                P.add_arrow(name, source, target)
            else:
                phi = cls.domain
                target = then_face(cls, Face(phi))
                if phi.is_degenerate:
                    color = then_face(target, Face(target.domain))
                    tree: Tree = Tree.unit(word_name(color))
                else:
                    tree = Tree.of(
                        {
                            p: word_name(then_face(cls, Face(phi, p)))
                            for p in phi.node_addresses()
                        }
                    )
                P.add_generator(dim, name, tree, word_name(target))
    return P


def boundary_colimit_check(omega: Opetope) -> Report:
    """Cross-check the boundary against its gluing description.

    Glue the realizations of all proper faces over the slice: pairs
    (face class A, generator C of the realization of A's domain) are
    identified along every slice morphism.  The resulting classes must
    correspond one-to-one with the boundary generators, i.e. with the
    composite classes A after C.
    """
    report = Report()
    slice_objects = [
        cls
        for dim in range(omega.dim)
        for cls in slice_classes(omega).get(dim, [])
    ]
    pairs: list[tuple[MorphismClass, MorphismClass]] = []
    index: dict[tuple[str, str], int] = {}
    for A in slice_objects:
        for dim, inner_classes in slice_classes(A.domain).items():
            for C in inner_classes:
                key = (str(A), str(C))
                index[key] = len(pairs)
                pairs.append((A, C))
    parent = list(range(len(pairs)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        parent[find(i)] = find(j)

    for A in slice_objects:
        for B in slice_objects:
            for h in hom(B.domain, A.domain):
                if compose(A, h) != B:
                    continue
                # the slice morphism h : (B.domain, B) -> (A.domain, A)
                # identifies (B, C) with (A, h after C)
                for dim, inner_classes in slice_classes(B.domain).items():
                    for C in inner_classes:
                        i = index[(str(B), str(C))]
                        j = index[(str(A), str(compose(h, C)))]
                        union(i, j)
    glued: dict[int, set[str]] = {}
    for k, (A, C) in enumerate(pairs):
        glued.setdefault(find(k), set()).add(str(compose(A, C)))
    for root, composites in glued.items():
        if len(composites) != 1:
            report.fail(
                f"glued class maps to several boundary generators: "
                f"{sorted(composites)}"
            )
    boundary_names = {
        str(cls)
        for dim in range(omega.dim)
        for cls in slice_classes(omega).get(dim, [])
    }
    image = {next(iter(v)) for v in glued.values() if len(v) == 1}
    if image != boundary_names:
        report.fail(
            f"glued classes {sorted(image)} differ from boundary generators "
            f"{sorted(boundary_names)}"
        )
    if len(glued) != len(boundary_names):
        report.fail(
            f"{len(glued)} glued classes for {len(boundary_names)} boundary "
            "generators"
        )
    return report


# -- oracle: a face word followed through the presentation, not the nerve


def fold_faces(P: MtoPolygraph, dim: int, name: str, word: Word) -> str:
    """Follow a face word from a generator down through the presentation."""
    current, current_dim = name, dim
    for face in word:
        if current_dim == 1:
            data = P.gen_data(1, current)
            current = data.target if face.is_target else data.source_tree.nodes[EMPTY]
        else:
            data = P.gen_data(current_dim, current)
            if face.is_target:
                current = data.target
            else:
                current = data.source_tree.decoration(face.address)
        current_dim -= 1
    return current


class TestRealizeOpetope:
    def test_arrow(self):
        P = realize_opetope(arrow())
        assert generator_counts(P) == [2, 1]
        assert P.validate().ok

    def test_two_cell(self):
        P = realize_opetope(O2)
        assert generator_counts(P) == [3, 3, 1]
        assert P.validate().ok

    def test_degenerate(self):
        P = realize_opetope(O0)
        assert generator_counts(P) == [1, 1, 1]
        assert P.validate().ok
        top = P.generators(2)[0]
        assert P.gen_data(2, top).source_tree.is_unit

    def test_counts_match_hom_sets(self):
        for omega in enumerate_opetopes(3, 2):
            P = realize_opetope(omega)
            assert P.validate().ok
            for dim in range(omega.dim + 1):
                expected = sum(
                    len(classes)
                    for d, classes in slice_classes(omega).items()
                    if d == dim
                )
                assert len(P.generators(dim)) == expected

    def test_arrow_cells_on_one_point_share_its_corolla(self):
        for omega in [O2, *enumerate_opetopes(3, 2)]:
            P = realize_opetope(omega)
            corollas = {}
            for name in P.generators(1):
                tree = P.gen_data(1, name).source_tree
                assert corollas.setdefault(tree.nodes[EMPTY], tree) is tree
        # O2's target arrow starts where its first source arrow does
        P = realize_opetope(O2)
        sources = [P.gen_data(1, name).source_tree for name in P.generators(1)]
        assert len(sources) == 3 and len(set(map(id, sources))) == 2

    def test_boundary_omits_top(self):
        P = boundary_polygraph(O2)
        assert generator_counts(P) == [3, 3]
        assert P.validate().ok

    def test_colimit_cross_check(self):
        for omega in [arrow(), O0, opetopic_integer(1), O2]:
            assert boundary_colimit_check(omega).ok


def oracle_terminal_polygraph(max_dim: int, budget: int) -> MtoPolygraph:
    """The terminal polygraph by enumerate-then-flatten: every cell of at
    most ``budget`` occurrences, with no leaf bound, is flattened by
    ``source_cell`` and kept when a generator is parallel to it."""
    P = MtoPolygraph()
    P.add_point("o")
    if max_dim >= 1:
        P.add_arrow("x1_0", "o", "o")
    for dim in range(2, max_dim + 1):
        lookup: dict[tuple, str] = {}
        for name in P.generators(dim - 1):
            data = P.gen_data(dim - 1, name)
            if dim - 1 == 1:
                key = (data.source_tree.nodes[EMPTY], data.target)
            else:
                key = (Cell(dim - 2, data.source_tree), data.target)
            lookup[key] = name
        new_gens = []
        for u in enumerate_cells(P, dim - 1, budget):
            key = (P.source_cell(u), P.target_name(u))
            v = lookup.get(key)
            if v is None:
                continue
            new_gens.append((u, v))
        new_gens.sort(key=lambda uv: (uv[0].tree.size, str(uv[0]), uv[1]))
        for i, (u, v) in enumerate(new_gens):
            P.add_generator(dim, f"x{dim}_{i}", u.tree, v)
    return P


class TestTerminal:
    def test_dimension_one(self):
        P = terminal_polygraph(1, 3)
        assert generator_counts(P) == [1, 1]

    def test_dimension_two_budget_three(self):
        P = terminal_polygraph(2, 3)
        assert generator_counts(P) == [1, 1, 4]
        assert P.validate().ok

    @pytest.mark.parametrize(
        "max_dim, budget", [(1, 3), (2, 3), (3, 2), (3, 3), (4, 2), (2, 5), (5, 2)]
    )
    def test_matches_enumerate_then_flatten_oracle(self, max_dim, budget):
        assert print_polygraph(terminal_polygraph(max_dim, budget)) == print_polygraph(
            oracle_terminal_polygraph(max_dim, budget)
        )

    def test_print_digest_at_dim_four_bound_three(self):
        # computed once with the enumerate-then-flatten construction
        text = print_polygraph(terminal_polygraph(4, 3))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "536e84a7d09baca3768483962c1448fed08723e534d883ccc07392c277c388e0"
        )

    @pytest.mark.parametrize("enabled", [True, False])
    def test_the_build_pauses_and_restores_the_collector(self, monkeypatch, enabled):
        during = []
        grow_trees = realization.grow_trees

        def recording(*args, **kwargs):
            during.append(gc.isenabled())
            return grow_trees(*args, **kwargs)

        monkeypatch.setattr(realization, "grow_trees", recording)
        before = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            assert generator_counts(terminal_polygraph(3, 2)) == [1, 1, 3, 11]
            assert gc.isenabled() is enabled
            assert during == [False, False]
        finally:
            (gc.enable if before else gc.disable)()

    def test_the_build_leaves_no_cycle(self):
        # a fresh interpreter with the collector off, so that no pass after
        # the build can free a cycle before the count
        code = (
            "import gc\n"
            "from opetopic.realization import terminal_polygraph\n"
            "gc.collect(); gc.disable()\n"
            "P = terminal_polygraph(4, 3)\n"
            "assert len(P.generators(4)) == 4527\n"
            "del P\n"
            "print(gc.collect(), gc.isenabled())\n"
        )
        src = str(Path(realization.__file__).parents[1])
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "0 False\n"

    @pytest.mark.parametrize("max_dim, budget", [(3, 2), (4, 3)])
    def test_parallel_generators_coincide(self, max_dim, budget):
        P = terminal_polygraph(max_dim, budget)
        for dim in range(1, P.max_dim + 1):
            seen = {}
            for name in P.generators(dim):
                data = P.gen_data(dim, name)
                if dim == 1:
                    key = (data.source_tree.nodes[EMPTY], data.target)
                else:
                    key = (data.source_tree, data.target)
                assert key not in seen
                seen[key] = name

    @pytest.mark.parametrize("max_dim, budget", [(3, 2), (4, 3)])
    def test_bijection_with_enumeration(self, max_dim, budget):
        P = terminal_polygraph(max_dim, budget)
        X = nerve(P, max_dim)
        for dim in range(max_dim + 1):
            shapes = sorted(
                str(shape) for shape, cells in X.cells.items() if shape.dim == dim for _ in cells
            )
            expected = sorted(str(omega) for omega in enumerate_opetopes(dim, budget))
            assert shapes == expected


class TestShape:
    def test_points_and_arrows(self, path_polygraph):
        X = nerve(path_polygraph, 1)
        assert X.cells_at(point()) == ["a", "b", "c"]
        assert X.cells_at(arrow()) == ["f", "g", "h"]

    def test_path_generator(self, path_polygraph):
        result = shape_of(path_polygraph, 2, "m")
        assert result.shape == O2
        assert result.induced[2]["id"] == "m"
        assert induced_morphism(path_polygraph, result).validate().ok

    @pytest.mark.parametrize("dim", [5, -1])
    def test_an_unknown_dimension_is_an_unknown_name(self, dim):
        P = parse_polygraph((Path(__file__).parent / "golden" / "path.poly").read_text())
        with pytest.raises(UnknownNameError) as info:
            shape_of(P, dim, "a")
        assert str(info.value) == f"no {dim}-generator named 'a'"

    def test_the_oracle_rejects_induced_maps_from_a_larger_realization(self, path_polygraph):
        # a 3-gon realized in place of the 2-gon: the 2-gon's classes leave
        # two generators of that realization unmapped
        result = shape_of(path_polygraph, 2, "m")
        morphism = PolygraphMorphism(
            realize_opetope(opetopic_integer(3)), path_polygraph, result.induced
        )
        assert str(morphism.validate()) == INDUCED_NOT_A_MORPHISM

    def test_top_of_realization_has_identity_induced(self):
        for omega in enumerate_opetopes(3, 2):
            P = realize_opetope(omega)
            result = shape_of(P, omega.dim, "id")
            assert result.shape == omega
            assert induced_morphism(P, result).validate().ok
            for dim, mapping in result.induced.items():
                for name, image in mapping.items():
                    assert name == image

    def test_cells_of_shape_in_realization(self):
        for omega in enumerate_opetopes(2, 3):
            P = realize_opetope(omega)
            assert cells_of_shape(P, omega) == ["id"]

    def test_shape_counts_partition_generators(self, path_polygraph):
        P = path_polygraph
        for dim in range(P.max_dim + 1):
            total = sum(
                len(cells_of_shape(P, omega))
                for omega in enumerate_opetopes(dim, 3)
            )
            assert total == len(P.generators(dim))

    def test_every_induced_map_of_random_polygraphs_is_a_morphism(self):
        rng = random.Random(0)
        config = RandomPolygraphConfig(max_dim=5, max_generators=60)
        for _ in range(200):
            P = random_polygraph(rng, config)
            for dim in range(P.max_dim + 1):
                for name in P.generators(dim):
                    report = induced_morphism(P, shape_of(P, dim, name)).validate()
                    assert report.ok, f"{dim}-generator {name!r}:\n{report}"


@contextmanager
def tampered_table(omega: Opetope, tamper):
    """Swap the slice table of ``omega`` for a fresh one edited by
    ``tamper``, and put the kept table back on exit."""
    kept, table = omega._slices, SliceTable(omega)
    tamper(table)
    omega._slices = table
    try:
        yield
    finally:
        omega._slices = kept


def short_row(table: SliceTable) -> None:
    """The last class that has faces loses its last one."""
    i = max(i for i, row in enumerate(table.action) if row)
    table.action[i] = table.action[i][:-1]


def shared_name(table: SliceTable) -> None:
    """The second class of the first domain with two takes the first's name."""
    first, second = next(c for c in table.by_domain.values() if len(c) > 1)[:2]
    table.names[second] = table.names[first]


class TestTamperedTable:
    """``yoneda`` and the realizations read the slice table straight, and
    still raise what filing its classes one by one raises."""

    @pytest.mark.parametrize(
        "tamper, error, message",
        [
            (short_row, OpetopicError, "cell 's[*]' at arrow: 1 faces given, its shape has 2"),
            (shared_name, UnknownNameError, "duplicate cell 't' at shape arrow"),
        ],
    )
    def test_a_tampered_table_raises_what_filing_raises(self, tamper, error, message):
        omega = O2
        kept = slice_table(omega)
        with tampered_table(omega, tamper):
            with pytest.raises(OpetopicError) as filing:
                filed_one_by_one(omega)
            assert type(filing.value) is error and str(filing.value) == message
            for build in (
                lambda: yoneda(omega, omega.dim),
                lambda: realize_opetope(omega),
                lambda: boundary_polygraph(omega),
            ):
                with pytest.raises(error) as info:
                    build()
                assert type(info.value) is error and str(info.value) == message
        assert slice_table(omega) is kept and yoneda(omega, 2).cells

    @pytest.mark.parametrize("tamper", [short_row, shared_name])
    def test_every_tampered_representable_raises_what_filing_raises(self, tamper):
        for omega in enumerate_opetopes(3, 2) + enumerate_opetopes(4, 2):
            if tamper is shared_name and max(map(len, slice_table(omega).by_domain.values())) < 2:
                continue  # no two classes share a domain, so no name to share
            with tampered_table(omega, tamper):
                with pytest.raises(OpetopicError) as filing:
                    filed_one_by_one(omega)
                for build in (lambda o: yoneda(o, o.dim), realize_opetope, boundary_polygraph):
                    with pytest.raises(OpetopicError) as info:
                        build(omega)
                    assert type(info.value) is type(filing.value), omega
                    assert str(info.value) == str(filing.value), omega


class TestRealizeOSet:
    def test_yoneda_matches_realization(self):
        for omega in oracle_corpus():
            direct = print_polygraph(direct_realization(omega))
            via_oset = print_polygraph(realize_oset(yoneda(omega, omega.dim)))
            assert via_oset == direct, omega
            assert print_polygraph(realize_opetope(omega)) == direct, omega
            # the boundary is the oracle without its top generator
            top = f"gen {omega.dim} "
            boundary = "".join(
                line for line in direct.splitlines(True) if not line.startswith(top)
            )
            assert print_polygraph(boundary_polygraph(omega)) == boundary, omega

    def test_representables_match_their_oset_realization_in_order(self):
        # the print above sorts names; these compare generators in order
        for omega in order_corpus():
            X = yoneda(omega, omega.dim)
            assert cell_table(X) == cell_table(filed_one_by_one(omega)), omega
            via_oset = generator_table(realize_oset(X))
            assert generator_table(realize_opetope(omega)) == via_oset, omega
            del X.cells[omega]
            via_oset = generator_table(realize_oset(X))
            assert generator_table(boundary_polygraph(omega)) == via_oset, omega

    def test_empty(self):
        P = realize_oset(OpetopicSet(max_dim=2))
        assert P.max_dim <= 0 and not P.generators(0)

    def test_counts(self):
        X = yoneda(O2, 2)
        P = realize_oset(X)
        for dim in range(3):
            expected = sum(
                len(X.cells_at(shape))
                for shape in X.support()
                if shape.dim == dim
            )
            assert len(P.generators(dim)) == expected

    def test_generator_names_are_distinct_in_each_dimension(self):
        # ``c`` is shared by two shapes, and a cell is literally named ``c@0``
        X = parse_oset(COLLIDING_NAMES)
        assert validate_oset(X).ok
        Y = distinct_names(X)
        names = {
            (shape, cell): name
            for shape in X.support()
            for cell, name in zip(X.cells[shape], Y.cells[shape])
        }
        top = sorted(name for (shape, _), name in names.items() if shape.dim == 2)
        assert top == ["c@0", "c@0@", "c@1"]
        assert names[(opetopic_integer(1), "c@0")] == "c@0"
        assert names[(opetopic_integer(1), "c")] == "c@0@"
        assert names[(O2, "c")] == "c@1"
        P = realize_oset(X)
        assert P.validate().ok and len(P.generators(2)) == 3
        assert unit_check(X).ok

    @pytest.mark.parametrize("with_arrows", [False, True])
    def test_a_degenerate_cell_on_a_missing_face_is_named(self, with_arrows):
        # the target face 'x' names no cell: there is no arrow cell at all,
        # or only another one
        X = OpetopicSet(max_dim=2)
        X.add_cell(point(), "p")
        if with_arrows:
            X.add_cell(arrow(), "f", ("p", "p"))
        X.add_cell(degenerate(point()), "d", ("x",))
        with pytest.raises(UnknownNameError) as info:
            realize_oset(X)
        assert str(info.value) == "cell 'd' at <<point>>: no cell 'x' at arrow"

    def test_a_missing_face_among_colliding_names_is_named(self):
        # ``c`` is shared by two shapes, so the set is renamed first, and the
        # renaming meets the face 'x', which names no cell
        X = OpetopicSet(max_dim=2)
        X.add_cell(point(), "p")
        X.add_cell(arrow(), "f", ("p", "p"))
        X.add_cell(degenerate(point()), "c", ("x",))
        X.add_cell(opetopic_integer(1), "c", ("f", "f"))
        with pytest.raises(UnknownNameError) as info:
            realize_oset(X)
        assert str(info.value) == "cell 'c' at <<point>>: no cell 'x' at arrow"

    def test_distinct_names_keep_the_set_itself(self):
        X = yoneda(O2, 2)
        assert distinct_names(X) is X
        Y = nerve(realize_opetope(O2), 2)
        assert distinct_names(Y) is Y


COLLIDING_NAMES = """\
cell p : point
cell f : arrow { t <- p, s [] <- p }
cell c : {[] <- arrow} { t <- f, s [] <- f }
cell c@0 : {[] <- arrow} { t <- f, s [] <- f }
cell c : {[] <- arrow, [*] <- arrow} { t <- f, s [] <- f, s [*] <- f }
"""


# -- oracle: the realization through a (shape, cell) -> generator-name map
# that every face value is looked up in


def oracle_generator_names(X: OpetopicSet) -> dict[tuple[Opetope, str], str]:
    """Deterministic generator names for the realization of an opetopic set,
    distinct within each dimension.

    Cell names are kept verbatim unless two shapes of the same dimension
    share one, in which case the shape's index disambiguates; a name so
    made that is another cell's verbatim name gets ``@`` appended until
    it is free.
    """
    by_dim: dict[int, list[tuple[Opetope, str]]] = {}
    for shape in X.support():
        by_dim.setdefault(shape.dim, []).extend((shape, name) for name in X.cells[shape])
    out: dict[tuple[Opetope, str], str] = {}
    for entries in by_dim.values():
        counts = Counter(name for _, name in entries)
        shapes = sorted({shape for shape, _ in entries}, key=print_key)
        shape_index = {shape: i for i, shape in enumerate(shapes)}
        for shape, name in entries:
            unique = name
            if counts[name] > 1:
                # ``NAME@INDEX`` ends in a digit: only a verbatim name can be it
                unique = f"{name}@{shape_index[shape]}"
                while counts[unique] == 1:
                    unique += "@"
            out[(shape, name)] = unique
    return out


def oracle_realize_oset(X: OpetopicSet) -> MtoPolygraph:
    """One generator per cell, named by ``oracle_generator_names``."""
    names = oracle_generator_names(X)
    P = MtoPolygraph()
    for shape in X.support():
        dim = shape.dim
        sources = [(face.address, face.domain) for face in faces_of(shape)[1:]]
        for cell, values in X.cells[shape].items():
            name = names[(shape, cell)]
            if dim == 0:
                P.add_point(name)
                continue
            target = names[(shape.target(), values[0])]
            if dim == 1:
                P.add_arrow(name, names[(point(), values[1])], target)
                continue
            if shape.is_degenerate:
                below = shape.target()
                color = X.cells[below][values[0]][0]
                tree: Tree = Tree.unit(names[(below.target(), color)])
            else:
                pairs = zip(sources, values[1:])
                tree = Tree.of({a: names[(d, v)] for (a, d), v in pairs})
            P.add_generator(dim, name, tree, target)
    return P


def renamed_nerve(rng: random.Random) -> OpetopicSet:
    """A random nerve with every cell renamed to one of three names (more
    where a shape has more cells), which makes names collide across shapes
    and meet their own ``@`` suffixes."""
    P = random_polygraph(rng)
    X = nerve(P, max(P.max_dim, 0))
    renamed = {}
    for shape in X.support():
        cells = X.cells[shape]
        pool = ["c"] + [f"c@{i}" for i in range(max(2, len(cells) - 1))]
        for cell, name in zip(cells, rng.sample(pool, len(cells))):
            renamed[(shape, cell)] = name
    Y = OpetopicSet(max_dim=X.max_dim)
    for shape in X.support():
        domains = [face.domain for face in faces_of(shape)]
        for cell, values in X.cells[shape].items():
            faces = [renamed[(d, v)] for d, v in zip(domains, values)]
            Y.add_cell(shape, renamed[(shape, cell)], faces)
    return Y


class TestNamedOracle:
    """``realize_oset`` names each generator after its cell and renames only
    on a collision; it must print exactly as the named oracle does."""

    def check(self, X: OpetopicSet) -> None:
        assert validate_oset(X).ok
        expected = print_polygraph(oracle_realize_oset(X))
        assert print_polygraph(realize_oset(X)) == expected
        assert unit_check(X).ok

    def test_representables(self):
        for dim in range(5):
            for omega in enumerate_opetopes(dim, 2):
                self.check(yoneda(omega, omega.dim))

    def test_random_nerves(self):
        rng = random.Random(1806)
        for _ in range(20):
            P = random_polygraph(rng)
            self.check(nerve(P, max(P.max_dim, 0)))

    def test_colliding_names(self):
        self.check(parse_oset(COLLIDING_NAMES))

    def test_nerves_renamed_to_three_names(self):
        rng = random.Random(8645)
        suffixed = 0
        for _ in range(20):
            X = renamed_nerve(rng)
            self.check(X)
            P = realize_oset(X)
            suffixed += sum(
                name.endswith("@")
                for dim in range(P.max_dim + 1)
                for name in P.generators(dim)
            )
        assert suffixed  # the ``@`` rule was exercised

    def test_print_digest_of_realizations_and_nerves(self):
        # computed with the name-map realization of ``oracle_realize_oset``
        digest = hashlib.sha256()
        for dim in range(5):
            for omega in enumerate_opetopes(dim, 2):
                P = realize_opetope(omega)
                digest.update(print_polygraph(P).encode())
                digest.update(print_oset(nerve(P, max(P.max_dim, 0))).encode())
        assert digest.hexdigest() == (
            "532f3dfeb92fc5d2253e8c8a468493134aec15b3320b5f1a0673551f932b9fec"
        )


class TestNerve:
    def test_realized_arrow(self):
        X = nerve(realize_opetope(arrow()), 1)
        assert {str(s): len(X.cells_at(s)) for s in X.support()} == {
            "point": 2,
            "arrow": 1,
        }

    def test_terminal_has_one_cell_per_shape(self):
        X = nerve(terminal_polygraph(3, 2), 3)
        assert all(len(X.cells_at(shape)) == 1 for shape in X.support())
        assert len(X.support()) == sum(
            len(enumerate_opetopes(dim, 2)) for dim in range(4)
        )

    @pytest.mark.parametrize(
        "source, error, message",
        [
            ("{[] <- zz}", UnknownNameError, "no 1-generator named 'zz'"),
            ("id(zz)", UnknownNameError, "no 0-generator named 'zz'"),
            (
                "{[] <- f, [**] <- f}",
                CoherenceError,
                "orphan node at [**]: parent [*] is missing",
            ),
            (
                "{[] <- f, [[*]] <- f}",
                CoherenceError,
                "node at [[*]] sits on [*], not an input of the node at []",
            ),
        ],
    )
    def test_unvalidated_source_trees_fail_as_before(self, source, error, message):
        P = parse_polygraph(f"gen 0 a\ngen 1 f : a -> a\ngen 2 m : {source} -> f\n")
        for check in (lambda: nerve(P, 2), lambda: counit_check(P)):
            with pytest.raises(error) as info:
                check()
            assert str(info.value) == message

    def test_a_lower_nerve_is_the_restriction_of_the_whole(self):
        rng = random.Random(23)
        for _ in range(10):
            P = random_polygraph(rng)
            whole = nerve(P, P.max_dim)
            for k in range(P.max_dim + 1):
                X = nerve(P, k)
                assert X.max_dim == k
                assert X.cells == {
                    shape: cells for shape, cells in whole.cells.items() if shape.dim <= k
                }

    def test_shapes_agree_with_the_recursive_definition(self):
        def oracle_shape(P, dim, name):
            if dim < 2:
                return arrow() if dim else point()
            tree = P.gen_data(dim, name).source_tree
            if tree.is_unit:
                return degenerate(oracle_shape(P, dim - 2, tree.unit_color))
            nodes = {p: oracle_shape(P, dim - 1, op) for p, op in tree.nodes.items()}
            return from_tree(Tree.of(nodes), validate=True)

        rng = random.Random(29)
        for P in [random_polygraph(rng) for _ in range(5)]:
            for dim in range(P.max_dim + 1):
                shapes = {name: oracle_shape(P, dim, name) for name in P.generators(dim)}
                for omega in set(shapes.values()):
                    expected = [name for name, shape in shapes.items() if shape == omega]
                    assert cells_of_shape(P, omega) == expected
                X = nerve(P, dim)
                for name, shape in shapes.items():
                    assert name in X.cells_at(shape)
                    result = shape_of(P, dim, name)
                    assert result.shape == shape
                    assert result.induced[dim]["id"] == name
                    assert induced_morphism(P, result).validate().ok
                    assert result.induced == {
                        j: {str(cls): fold_faces(P, dim, name, cls.word) for cls in classes}
                        for j, classes in slice_classes(shape).items()
                    }

    def test_nerve_validates(self, path_polygraph, loop_polygraph):
        rng = random.Random(31)
        for P in [path_polygraph, loop_polygraph] + [
            random_polygraph(rng) for _ in range(5)
        ]:
            assert validate_oset(nerve(P, max(P.max_dim, 0))).ok


class TestUnitCounit:
    def test_unit_on_representable(self):
        assert unit_check(yoneda(O2, 2)).ok

    def test_counit_on_realizations(self):
        for omega in enumerate_opetopes(3, 2):
            assert counit_check(realize_opetope(omega)).ok

    def test_counit_on_random_polygraphs(self):
        rng = random.Random(5150)
        for _ in range(10):
            P = random_polygraph(rng)
            assert counit_check(P).ok

    def test_unit_on_nerves(self, path_polygraph):
        assert unit_check(nerve(path_polygraph, 2)).ok

    @pytest.mark.parametrize(
        "add_extra, message",
        [
            (
                lambda P: P.add_arrow("extra", "a", "b"),
                "shape arrow: cells ['f', 'g', 'h'] vs generators "
                "['extra', 'f', 'g', 'h']",
            ),
            (
                lambda P: P.add_generator(
                    2, "extra", P.gen_data(2, "m").source_tree, "h"
                ),
                "shape {[] <- arrow, [*] <- arrow}: cells ['m'] vs generators "
                "['extra', 'm']",
            ),
        ],
    )
    def test_unit_reports_an_extra_generator_of_an_existing_shape(
        self, monkeypatch, path_polygraph, add_extra, message
    ):
        X = nerve(path_polygraph, 2)
        realize = realization._realize

        def realize_with_extra(X):
            P = realize(X)
            add_extra(P)
            return P

        monkeypatch.setattr(realization, "_realize", realize_with_extra)
        assert unit_check(X).failures == [message]

    def test_unit_reports_a_changed_face(self, monkeypatch, path_polygraph):
        X = nerve(path_polygraph, 2)
        build = realization.nerve

        def nerve_with_faces(P, max_dim):
            Y = build(P, max_dim)
            Y.cells[arrow()]["f"] = ("a", "a")
            Y.cells[opetopic_integer(2)]["m"] = ("h", "f", "f")
            return Y

        monkeypatch.setattr(realization, "nerve", nerve_with_faces)
        assert unit_check(X).failures == [
            "cell 'f' at arrow: face t gives 'a', expected 'b'",
            "cell 'm' at {[] <- arrow, [*] <- arrow}: face s[] gives 'f', expected 'g'",
        ]

    def test_unit_reports_a_cell_whose_generator_has_another_shape(self):
        # an unvalidated set: c's source face names a 2-cell at the wrong shape
        X = OpetopicSet(max_dim=3)
        X.add_cell(point(), "p")
        X.add_cell(arrow(), "f", ("p", "p"))
        X.add_cell(opetopic_integer(1), "a", ("f", "f"))
        X.add_cell(O2, "b", ("f", "f", "f"))
        X.add_cell(from_tree(Tree.of({EMPTY: O2})), "c", ("b", "a"))
        assert unit_check(X).failures == [
            "cell 'c' at {[] <- {[] <- arrow, [*] <- arrow}}: "
            "generator has shape {[] <- {[] <- arrow}}"
        ]

    def test_every_representable_and_realization_up_to_dim_five(self):
        opetopes = enumerate_opetopes(5, 2)
        assert len(opetopes) == 191
        for omega in opetopes:
            P = realize_opetope(omega)
            assert P.validate().ok
            assert unit_check(yoneda(omega, omega.dim)).ok
            assert counit_check(P).ok

    def test_counit_reports_a_generator_the_nerve_dropped(
        self, monkeypatch, path_polygraph
    ):
        build = realization.nerve

        def nerve_without_m(P, max_dim):
            X = build(P, max_dim)
            for cells in X.cells.values():
                cells.pop("m", None)
            return X

        monkeypatch.setattr(realization, "nerve", nerve_without_m)
        assert counit_check(path_polygraph).failures == [
            "morphism undefined on 2-generator 'm': not in the nerve",
            "counit is not a generator-for-generator isomorphism",
        ]

    def test_counit_reports_a_dropped_generator_that_another_names(
        self, monkeypatch, path_polygraph
    ):
        build = realization.nerve

        def nerve_without_f(P, max_dim):
            X = build(P, max_dim)
            for cells in X.cells.values():
                cells.pop("f", None)
            return X

        monkeypatch.setattr(realization, "nerve", nerve_without_f)
        assert counit_check(path_polygraph).failures == [
            "morphism undefined on 1-generator 'f': not in the nerve",
            "counit is not a generator-for-generator isomorphism",
        ]

    @pytest.mark.parametrize(
        "cell, faces, message",
        [
            ("m", ("g", "g", "f"), "2-generator 'm': target not preserved"),
            ("m", ("h", "f", "f"), "2-generator 'm': source tree not preserved"),
            ("f", ("b", "b"), "1-generator 'f': source not preserved"),
            ("f", ("a", "a"), "1-generator 'f': target not preserved"),
        ],
    )
    def test_counit_reports_a_changed_face(
        self, monkeypatch, path_polygraph, cell, faces, message
    ):
        build = realization.nerve

        def nerve_with_faces(P, max_dim):
            X = build(P, max_dim)
            for cells in X.cells.values():
                if cell in cells:
                    cells[cell] = faces
            return X

        monkeypatch.setattr(realization, "nerve", nerve_with_faces)
        assert counit_check(path_polygraph).failures == [message]

    @pytest.mark.parametrize(
        "cell, faces, sides",
        [("m", ("g", "f", "f"), ["target", "source tree"]), ("f", ("c", "b"), ["source", "target"])],
    )
    def test_counit_orders_two_changed_faces(
        self, monkeypatch, path_polygraph, cell, faces, sides
    ):
        """A 1-generator's source comes before its target, and a higher
        generator's target before its source tree."""
        build = realization.nerve

        def nerve_with_faces(P, max_dim):
            X = build(P, max_dim)
            for cells in X.cells.values():
                if cell in cells:
                    cells[cell] = faces
            return X

        monkeypatch.setattr(realization, "nerve", nerve_with_faces)
        dim = 2 if cell == "m" else 1
        assert counit_check(path_polygraph).failures == [
            f"{dim}-generator {cell!r}: {side} not preserved" for side in sides
        ]


@contextmanager
def collector_off():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class TestLifetimes:
    """A polygraph holds no reference cycle: its stages, one per dimension,
    keep their namespace, the stage below and the flat-source memo, and
    none points back at it.  So it is freed by reference counting as soon
    as the last reference goes, with the cyclic collector off, whatever
    used its stages."""

    def test_parsed_and_validated_polygraph(self):
        text = print_polygraph(random_polygraph(random.Random(12)))
        with collector_off():
            P = parse_polygraph(text)
            assert P.validate().ok
            assert any(P.stage(dim).flat_sources for dim in range(2, P.max_dim + 1))
            alive = weakref.ref(P)
            del P
            assert alive() is None

    def test_after_source_cell(self):
        text = print_polygraph(random_polygraph(random.Random(19)))
        with collector_off():
            P = parse_polygraph(text)
            for dim in range(2, P.max_dim + 1):
                for name in P.generators(dim):
                    P.source_cell(Cell(dim - 1, P.gen_data(dim, name).source_tree))
            assert any(P.stage(dim).flat_sources for dim in range(2, P.max_dim + 1))
            alive = weakref.ref(P)
            del P
            assert alive() is None

    def test_after_compose_total(self):
        text = print_polygraph(random_polygraph(random.Random(15)))
        with collector_off():
            P = parse_polygraph(text)
            sig = P.stage(P.max_dim)
            for name in P.generators(P.max_dim):
                base = P.generator_cell(P.max_dim, name)
                assignment = {
                    leaf: P.identity_cell(P.max_dim - 1, edge_color(sig, base.tree, leaf))
                    for leaf in leaf_addresses(sig, base.tree)
                }
                assert P.compose_total(base, assignment) == base
            # a stage held on its own does not keep its polygraph alive
            alive = weakref.ref(P)
            del P
            assert alive() is None

    def test_after_counit_check(self, monkeypatch):
        text = print_polygraph(random_polygraph(random.Random(16)))
        built = []
        init = MtoPolygraph.__init__

        def recording_init(self):
            init(self)
            built.append(weakref.ref(self))

        monkeypatch.setattr(MtoPolygraph, "__init__", recording_init)
        with collector_off():
            P = parse_polygraph(text)
            assert counit_check(P).ok
            # the parsed one and the realization of its nerve
            assert len(built) == 2
            del P
            assert [ref() for ref in built] == [None] * 2

    def test_terminal_polygraph(self):
        with collector_off():
            P = terminal_polygraph(3, 2)
            assert P.generators(3)
            alive = weakref.ref(P)
            del P
            assert alive() is None

    def test_realization_after_validate(self):
        omega = max(enumerate_opetopes(4, 2), key=lambda o: len(str(o)))
        with collector_off():
            P = realize_opetope(omega)
            assert P.validate().ok
            alive = weakref.ref(P)
            del P
            assert alive() is None

    def test_polygraphs_built_by_the_checks(self, monkeypatch):
        text = print_polygraph(random_polygraph(random.Random(13)))
        built = []
        init = MtoPolygraph.__init__

        def recording_init(self):
            init(self)
            built.append(weakref.ref(self))

        monkeypatch.setattr(MtoPolygraph, "__init__", recording_init)
        with collector_off():
            P = parse_polygraph(text)
            assert P.validate().ok
            X = nerve(P, P.max_dim)
            assert unit_check(X).ok
            assert counit_check(P).ok
            # the parsed one and the realizations inside both checks
            assert len(built) == 3
            del P, X
            assert [ref() for ref in built] == [None] * 3
