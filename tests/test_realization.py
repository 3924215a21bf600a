import gc
import hashlib
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
    compose,
    faces_of,
    hom,
    morphism,
    slice_classes,
)
from opetopic.errors import Report
from opetopic.formats import parse_oset, parse_polygraph, print_oset, print_polygraph
from opetopic.opetope import (
    Opetope,
    arrow,
    enumerate_opetopes,
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
    shape_opetope,
    terminal_polygraph,
    unit_check,
)
from opetopic.trees import Tree

from randomized import random_polygraph
from test_polygraph import enumerate_cells

O0 = opetopic_integer(0)
O2 = opetopic_integer(2)


def oracle_corpus():
    """Every opetope of dims 0-3 at bound 3 and of dims 4-5 at bound 2."""
    return [omega for dim in range(4) for omega in enumerate_opetopes(dim, 3)] + [
        omega for dim in (4, 5) for omega in enumerate_opetopes(dim, 2)
    ]


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
                key = (data.source, data.target)
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
                    key = (data.source, data.target)
                else:
                    key = (data.source_tree, data.target)
                assert key not in seen
                seen[key] = name

    @pytest.mark.parametrize("max_dim, budget", [(3, 2), (4, 3)])
    def test_bijection_with_enumeration(self, max_dim, budget):
        P = terminal_polygraph(max_dim, budget)
        for dim in range(max_dim + 1):
            shapes = sorted(
                str(shape_opetope(P, dim, name)) for name in P.generators(dim)
            )
            expected = sorted(str(omega) for omega in enumerate_opetopes(dim, budget))
            assert shapes == expected


class TestShape:
    def test_points_and_arrows(self, path_polygraph):
        assert shape_opetope(path_polygraph, 0, "a") == point()
        assert shape_opetope(path_polygraph, 1, "f") == arrow()

    def test_path_generator(self, path_polygraph):
        result = shape_of(path_polygraph, 2, "m")
        assert result.shape == O2
        assert result.induced.apply(2, "id") == "m"
        assert result.induced.validate().ok

    def test_top_of_realization_has_identity_induced(self):
        for omega in enumerate_opetopes(3, 2):
            P = realize_opetope(omega)
            result = shape_of(P, omega.dim, "id")
            assert result.shape == omega
            for dim, mapping in result.induced.maps.items():
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
    """A polygraph holds no reference cycle, so it and its flatten memo
    are freed by reference counting as soon as the last reference goes,
    with the cyclic collector off."""

    def test_parsed_and_validated_polygraph(self):
        text = print_polygraph(random_polygraph(random.Random(12)))
        with collector_off():
            P = parse_polygraph(text)
            assert P.validate().ok
            assert P._flat_sources
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
