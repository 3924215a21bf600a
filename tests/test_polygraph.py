import itertools
import random

import pytest

from opetopic import polygraph
from opetopic.address import EMPTY, Address
from opetopic.errors import (
    AddressError,
    CoherenceError,
    CompositionError,
    GraftError,
    Report,
    UnknownNameError,
)
from opetopic.polygraph import (
    Cell,
    CompositeShape,
    GeneratorShape,
    GenN,
    IdentityShape,
    MtoPolygraph,
    count,
    decompose,
)
from opetopic.trees import (
    Tree,
    check_tree,
    corolla,
    edge_color,
    graft,
    grow_trees,
    leaf_addresses,
)

from conftest import PolygraphMorphism, flatten as oracle_flatten, substitute
from randomized import RandomPolygraphConfig, random_cell, random_polygraph


def count_generator(cell: Cell, name: str) -> int:
    if cell.tree.is_unit:
        return 0
    return sum(1 for op in cell.tree.nodes.values() if op == name)


def identity_morphism(polygraph: MtoPolygraph) -> PolygraphMorphism:
    maps = {
        dim: {name: name for name in polygraph.generators(dim)}
        for dim in range(polygraph.max_dim + 1)
    }
    return PolygraphMorphism(polygraph, polygraph, maps)


def map_cell(morphism: PolygraphMorphism, cell: Cell) -> Cell:
    return Cell(cell.dim, morphism.map_tree(cell.dim, cell.tree))


def leaf_contexts(P: MtoPolygraph, cell: Cell) -> list[Address]:
    """Leaf addresses; these index the occurrences in the source."""
    return list(leaf_addresses(P.stage(cell.dim), cell.tree))


STAR = Address((EMPTY,))


class TestValidation:
    def test_loop_polygraph(self, loop_polygraph):
        assert loop_polygraph.validate().ok

    def test_path_polygraph(self, path_polygraph):
        assert path_polygraph.validate().ok

    def test_add_generator_below_dimension_two(self):
        P = MtoPolygraph()
        P.add_point("a")
        with pytest.raises(ValueError) as info:
            P.add_generator(1, "f", corolla("a"), "a")
        assert str(info.value) == "use add_point or add_arrow below dimension 2"

    def test_parallelism_failure(self):
        P = MtoPolygraph()
        for name in "ab":
            P.add_point(name)
        P.add_arrow("f", "a", "b")
        P.add_arrow("k", "b", "a")
        P.add_generator(2, "m", Tree.of({EMPTY: "f"}), "k")
        report = P.validate()
        assert not report.ok
        assert any("not parallel" in failure for failure in report.failures)

    def test_unknown_target(self):
        P = MtoPolygraph()
        P.add_point("a")
        P.add_arrow("f", "a", "ghost")
        assert not P.validate().ok

    def test_unknown_target_of_a_two_generator(self):
        P = MtoPolygraph()
        P.add_point("a")
        P.add_arrow("f", "a", "a")
        P.add_generator(2, "m", Tree.of({EMPTY: "f"}), "zz")
        assert P.validate().failures == ["2-generator 'm': unknown target 'zz'"]

    def test_incoherent_source_tree(self):
        P = MtoPolygraph()
        for name in "ab":
            P.add_point(name)
        P.add_arrow("f", "a", "b")
        P.add_arrow("g", "a", "b")
        # f cannot follow f: endpoints do not chain
        P.add_generator(2, "m", Tree.of({EMPTY: "f", STAR: "f"}), "g")
        report = P.validate()
        assert any("edge mismatch" in failure for failure in report.failures)


def parallel(P: MtoPolygraph, left: Cell | str, right: Cell | str) -> bool:
    """Same source and same target; 0-cells are all parallel."""
    if isinstance(left, str) or isinstance(right, str):
        if isinstance(left, str) and isinstance(right, str):
            return True
        raise CompositionError("cannot compare cells of different dimensions")
    if left.dim != right.dim:
        raise CompositionError(
            f"parallel is defined for equidimensional cells, got "
            f"{left.dim} and {right.dim}"
        )
    if P.target_name(left) != P.target_name(right):
        return False
    return P.source_cell(left) == P.source_cell(right)


def oracle_validate(P):
    """The validate loop that compares every boundary pair with
    ``parallel``, flattening the source and the target's corolla."""
    report = Report()
    for name in P.generators(1):
        data = P.gen_data(1, name)
        for end in (data.source_tree.nodes[EMPTY], data.target):
            if not P.has_generator(0, end):
                report.fail(f"1-generator {name!r}: unknown endpoint {end!r}")
    for dim in range(2, P.max_dim + 1):
        sig = P.stage(dim - 1)
        for name in P.generators(dim):
            data = P.gen_data(dim, name)
            if not P.has_generator(dim - 1, data.target):
                report.fail(f"{dim}-generator {name!r}: unknown target {data.target!r}")
                continue
            tree = data.source_tree
            try:
                if tree.is_unit:
                    P.gen_data(dim - 2, tree.unit_color)
                else:
                    for address in tree.node_addresses():
                        P.gen_data(dim - 1, tree.nodes[address])
                check_tree(sig, tree)
            except (CoherenceError, UnknownNameError, AddressError) as error:
                report.fail(f"{dim}-generator {name!r}: {error}")
                continue
            source = Cell(dim - 1, tree)
            target = P.generator_cell(dim - 1, data.target)
            try:
                if not parallel(P, source, target):
                    report.fail(
                        f"{dim}-generator {name!r}: source composite and "
                        f"target {data.target!r} are not parallel"
                    )
            except (CoherenceError, AddressError) as error:
                report.fail(f"{dim}-generator {name!r}: {error}")
    return report


def copy_polygraph(P, retarget=None, resource=None):
    """A fresh copy of ``P``; ``retarget`` and ``resource`` map (dim, name)
    of generators of dimension 2 and up to a replacement target and source
    tree."""
    retarget = retarget or {}
    resource = resource or {}
    Q = MtoPolygraph()
    for dim in range(P.max_dim + 1):
        for name in P.generators(dim):
            data = P.gen_data(dim, name)
            if dim == 0:
                Q.add_point(name)
            elif dim == 1:
                Q.add_arrow(name, data.source_tree.nodes[EMPTY], data.target)
            else:
                target = retarget.get((dim, name), data.target)
                tree = resource.get((dim, name), data.source_tree)
                Q.add_generator(dim, name, tree, target)
    return Q


def outcome(check, P):
    try:
        return check(P).failures
    except Exception as error:  # both sides must fail the same way
        return repr(error)


def retargeted_copies(rng, P, count):
    """Copies of ``P`` with one generator's target swapped for another
    generator of the target's dimension."""
    swaps = [
        ((dim, name), other)
        for dim in range(2, P.max_dim + 1)
        for name in P.generators(dim)
        for other in P.generators(dim - 1)
        if other != P.gen_data(dim, name).target
    ]
    for key, other in rng.sample(swaps, min(count, len(swaps))):
        yield copy_polygraph(P, {key: other})


class TestValidateOracle:
    CONFIG = RandomPolygraphConfig(max_dim=5, max_generators=30)

    def test_same_failures_as_parallel_loop(self):
        rng = random.Random(5)
        broken = 0
        for _ in range(40):
            P = random_polygraph(rng, self.CONFIG)
            copies = [(copy_polygraph(P), copy_polygraph(P))]
            for Q in retargeted_copies(rng, P, 4):
                copies.append((Q, copy_polygraph(Q)))
            for left, right in copies:
                expected = outcome(oracle_validate, left)
                assert outcome(MtoPolygraph.validate, right) == expected
                broken += bool(expected)
        assert broken > 50

    def test_each_generator_flattened_once(self, monkeypatch):
        flattened = []
        original = polygraph.flatten

        def counting(sig, tree):
            flattened.append(tree)
            return original(sig, tree)

        monkeypatch.setattr(polygraph, "flatten", counting)
        rng = random.Random(6)
        for _ in range(20):
            P = copy_polygraph(random_polygraph(rng, self.CONFIG))
            flattened.clear()
            assert P.validate().ok
            generators = [
                (dim, name)
                for dim in range(2, P.max_dim + 1)
                for name in P.generators(dim)
            ]
            assert len(flattened) == len(generators)
            assert {id(tree) for tree in flattened} == {
                id(P.gen_data(dim, name).source_tree) for dim, name in generators
            }
            for dim, name in generators:
                P._flat_source(dim, name)
            assert len(flattened) == len(generators)


def redecorated_copy(rng, P):
    """A copy of ``P`` with one node of one generator's source tree
    decorated by another generator of that node's dimension, or None."""
    nodes = [
        ((dim, name), address)
        for dim in range(2, P.max_dim + 1)
        for name in P.generators(dim)
        for address in P.gen_data(dim, name).source_tree.node_addresses()
    ]
    if not nodes:
        return None
    (dim, name), address = rng.choice(nodes)
    tree = P.gen_data(dim, name).source_tree
    others = [g for g in P.generators(dim - 1) if g != tree.nodes[address]]
    if not others:
        return None
    changed = dict(tree.nodes)
    changed[address] = rng.choice(others)
    return copy_polygraph(P, resource={(dim, name): Tree.of(changed)})


class TestFlattenAgainstOracle:
    """``validate`` reports, or raises, the same with the library
    ``flatten`` as with the substitution oracle, also where flattening
    fails."""

    CONFIG = RandomPolygraphConfig(max_dim=5, max_generators=30)

    @staticmethod
    def outcomes(monkeypatch, Q):
        # fresh copies: the flatten memo must not carry over
        actual = outcome(MtoPolygraph.validate, copy_polygraph(Q))
        with monkeypatch.context() as patched:
            patched.setattr(polygraph, "flatten", oracle_flatten)
            expected = outcome(MtoPolygraph.validate, copy_polygraph(Q))
        return actual, expected

    def test_mutated_polygraphs(self, monkeypatch):
        rng = random.Random(13)
        mutated = broken = unflattened = 0
        while mutated < 300:
            P = random_polygraph(rng, self.CONFIG)
            for _ in range(4):
                if rng.random() < 0.5:
                    Q = next(retargeted_copies(rng, P, 1), None)
                else:
                    Q = redecorated_copy(rng, P)
                if Q is None:
                    continue
                actual, expected = self.outcomes(monkeypatch, Q)
                assert actual == expected
                mutated += 1
                broken += bool(expected)
                # validate reports a source it cannot flatten
                unflattened += any("gluing" in failure for failure in expected)
        assert broken > 100 and unflattened > 0

    def test_non_parallel_lower_generator(self, monkeypatch):
        """Y sources a unary composite but targets the binary mu, so W,
        which plugs Y where X's source holds mu, cannot be flattened."""
        star = EMPTY.child(EMPTY)
        P = MtoPolygraph()
        P.add_point("a")
        P.add_arrow("f", "a", "a")
        P.add_generator(2, "mu", Tree.of({EMPTY: "f", star: "f"}), "f")
        P.add_generator(2, "eps", corolla("f"), "f")
        P.add_generator(3, "X", corolla("mu"), "mu")
        P.add_generator(3, "Y", corolla("eps"), "mu")
        P.add_generator(4, "W", Tree.of({EMPTY: "X", star: "Y"}), "X")
        source = P.gen_data(4, "W").source_tree
        with pytest.raises(GraftError, match="gluing does not match") as info:
            polygraph.flatten(P.stage(3), source)
        with pytest.raises(GraftError) as oracle_info:
            oracle_flatten(P.stage(3), source)
        assert str(info.value) == str(oracle_info.value)
        actual, expected = self.outcomes(monkeypatch, P)
        assert actual == expected
        assert expected[-1] == f"4-generator 'W': {info.value}"

    def test_unreroutable_image(self):
        """X's source sets a node on an input that eps lacks, so flattening
        W reroutes an image through an input of Y's gluing that is not
        there: the library and the oracle raise the same ``GraftError``."""
        P = MtoPolygraph()
        P.add_point("a")
        P.add_arrow("f", "a", "a")
        P.add_generator(2, "eps", corolla("f"), "f")
        star = EMPTY.child(EMPTY)
        P.add_generator(3, "X", Tree.of({EMPTY: "eps", Address((star,)): "eps"}), "eps")
        P.add_generator(3, "Y", corolla("eps"), "eps")
        P.add_generator(4, "W", Tree.of({EMPTY: "X", star: "Y"}), "X")
        source = P.gen_data(4, "W").source_tree
        message = (
            "cannot reroute image [[*]] through the node at [*]: "
            "its gluing has no input [*]"
        )
        with pytest.raises(GraftError) as info:
            polygraph.flatten(P.stage(3), source)
        with pytest.raises(GraftError) as oracle_info:
            oracle_flatten(P.stage(3), source)
        assert str(info.value) == str(oracle_info.value) == message


class TestCells:
    def test_identity_cell(self, path_polygraph):
        cell = path_polygraph.identity_cell(1, "f")
        assert cell.dim == 2 and count(cell) == 0
        assert str(cell) == "id(f)"

    def test_generator_cell(self, path_polygraph):
        cell = path_polygraph.generator_cell(2, "m")
        assert count(cell) == 1
        assert cell.tree.nodes == {EMPTY: "m"}

    def test_source_of_identity_is_corolla(self, path_polygraph):
        cell = path_polygraph.identity_cell(1, "f")
        source = path_polygraph.source_cell(cell)
        assert source == path_polygraph.generator_cell(1, "f")

    def test_source_and_target_of_generator(self, path_polygraph):
        cell = path_polygraph.generator_cell(2, "m")
        assert path_polygraph.source_cell(cell) == Cell(
            1, Tree.of({EMPTY: "g", STAR: "f"})
        )
        assert path_polygraph.target_name(cell) == "h"

    def test_leaf_contexts_count(self, path_polygraph):
        cell = path_polygraph.generator_cell(2, "m")
        assert len(leaf_contexts(path_polygraph, cell)) == 2


class TestComposition:
    def test_path_composite(self, path_polygraph):
        composite = path_polygraph.compose_at(
            path_polygraph.generator_cell(1, "g"),
            STAR,
            path_polygraph.generator_cell(1, "f"),
        )
        assert composite == Cell(1, Tree.of({EMPTY: "g", STAR: "f"}))
        assert path_polygraph.source_cell(composite) == "a"
        assert path_polygraph.target_name(composite) == "c"

    def test_identity_is_neutral(self, path_polygraph):
        cell = path_polygraph.generator_cell(1, "g")
        glued = path_polygraph.compose_at(
            cell, STAR, path_polygraph.identity_cell(0, "b")
        )
        assert glued == cell

    def test_counting_additive(self, path_polygraph):
        left = path_polygraph.generator_cell(1, "g")
        right = path_polygraph.generator_cell(1, "f")
        composite = path_polygraph.compose_at(left, STAR, right)
        assert count(composite) == count(left) + count(right)
        assert count_generator(composite, "f") == 1

    def test_mismatch_names_generators(self, path_polygraph):
        with pytest.raises(CompositionError) as info:
            path_polygraph.compose_at(
                path_polygraph.generator_cell(1, "g"),
                STAR,
                path_polygraph.generator_cell(1, "g"),
            )
        assert "'b'" in str(info.value) and "'c'" in str(info.value)

    def test_total_composition_order_free(self, loop_polygraph):
        P = loop_polygraph
        base = P.generator_cell(2, "m")
        leaves = leaf_contexts(P, base)
        assignment = {leaves[0]: P.generator_cell(2, "m")}
        # extend the base so it has two leaves
        base = P.compose_at(base, leaves[0], P.generator_cell(2, "m"))
        leaves = leaf_contexts(P, base)
        assert len(leaves) >= 1
        assignment = {leaf: P.generator_cell(2, "m") for leaf in leaves}
        results = set()
        for order in itertools.permutations(assignment):
            cell = base
            for leaf in order:
                cell = P.compose_at(cell, leaf, assignment[leaf])
            results.add(cell)
        assert len(results) == 1
        assert P.compose_total(base, assignment) in results

    def test_total_composition_identities(self, path_polygraph):
        from opetopic.trees import edge_color

        P = path_polygraph
        base = P.generator_cell(2, "m")
        assignment = {}
        for leaf in leaf_contexts(P, base):
            color = edge_color(P.stage(2), base.tree, leaf)
            assignment[leaf] = P.identity_cell(1, color)
        assert P.compose_total(base, assignment) == base


    @pytest.mark.parametrize("total", [False, True])
    def test_cells_of_different_dimensions_do_not_compose(self, path_polygraph, total):
        P = path_polygraph
        base, inner = P.generator_cell(2, "m"), P.generator_cell(1, "f")
        with pytest.raises(CompositionError) as info:
            if total:
                P.compose_total(base, {STAR: inner})
            else:
                P.compose_at(base, EMPTY, inner)
        assert str(info.value) == "cannot compose cells of dimensions 2 and 1"

    def test_total_composition_names_spurious_leaves(self, path_polygraph):
        P = path_polygraph
        unit = P.identity_cell(0, "a")
        assignment = {STAR: unit, Address((EMPTY, EMPTY)): unit}
        with pytest.raises(CompositionError) as info:
            P.compose_total(P.generator_cell(1, "f"), assignment)
        assert str(info.value) == "total grafting: spurious leaves [**]"


class TestDecompose:
    def test_path_cell(self, path_polygraph):
        cell = Cell(1, Tree.of({EMPTY: "g", STAR: "f"}))
        shape = decompose(cell)
        assert isinstance(shape, CompositeShape)
        assert shape.rest == path_polygraph.generator_cell(1, "g")
        assert shape.leaf == STAR
        assert shape.generator == "f"

    def test_generator(self, path_polygraph):
        assert decompose(path_polygraph.generator_cell(2, "m")) == GeneratorShape("m")

    def test_identity(self, path_polygraph):
        assert decompose(path_polygraph.identity_cell(1, "f")) == IdentityShape("f")

    def test_reassembly_random(self):
        rng = random.Random(2024)
        checked = 0
        while checked < 300:
            P = random_polygraph(rng)
            for _ in range(5):
                dim = rng.randint(1, max(1, P.max_dim))
                cell = random_cell(rng, P, dim, 4)
                if cell is None or count(cell) < 2:
                    continue
                shape = decompose(cell)
                assert isinstance(shape, CompositeShape)
                rebuilt = P.compose_at(
                    shape.rest, shape.leaf, P.generator_cell(dim, shape.generator)
                )
                assert rebuilt == cell
                checked += 1


class TestParallel:
    def test_identities_parallel(self, path_polygraph):
        left = path_polygraph.identity_cell(1, "f")
        assert parallel(path_polygraph, left, left)

    def test_zero_cells(self, path_polygraph):
        assert parallel(path_polygraph, "a", "b")

    def test_non_parallel(self, path_polygraph):
        assert not parallel(
            path_polygraph,
            path_polygraph.generator_cell(1, "f"),
            path_polygraph.generator_cell(1, "g"),
        )


def source_by_induction(P, cell):
    """Clause-by-clause source computation, following the inductive
    definition of composition: identities and generators are base cases,
    and peeling one generator substitutes its source into the rest's
    source at the occurrence its attachment leaf points to.

    Returns (source tree, bijection from the cell's leaves to the source's
    occurrences); for 1-dimensional cells the source is an endpoint name.
    """
    if cell.dim == 1:
        if cell.tree.is_unit:
            return cell.tree.unit_color, {EMPTY: EMPTY}
        deepest = max(cell.tree.nodes)
        name = P.gen_data(1, cell.tree.nodes[deepest]).source_tree.nodes[EMPTY]
        return name, {deepest.child(EMPTY): EMPTY}
    shape = decompose(cell)
    if isinstance(shape, IdentityShape):
        from opetopic.trees import corolla

        return corolla(shape.generator), {EMPTY: EMPTY}
    if isinstance(shape, GeneratorShape):
        tree = P.gen_data(cell.dim, shape.generator).source_tree
        return tree, {
            EMPTY.child(slot): slot for slot in tree.node_addresses()
        }
    rest_source, rest_map = source_by_induction(P, shape.rest)
    gen_tree = P.gen_data(cell.dim, shape.generator).source_tree
    # gluing: leaves of the peeled generator's source tree to occurrences
    # in its target's source, computed by the same induction one dimension
    # down (the parallelism of the generator identifies the two sources)
    _, gen_map = source_by_induction(P, Cell(cell.dim - 1, gen_tree))
    result, moves = substitute(
        P.stage(cell.dim - 1),
        rest_source,
        rest_map[shape.leaf],
        gen_tree,
        gen_map,
    )
    out_map = {}
    for leaf, node in rest_map.items():
        if leaf == shape.leaf:
            continue
        out_map[leaf] = moves[node]
    anchor = rest_map[shape.leaf]
    for slot in gen_tree.node_addresses():
        out_map[shape.leaf.child(slot)] = anchor.concat(slot)
    return result, out_map


class TestDualityOracle:
    def test_sources_match_inductive_clauses(self):
        rng = random.Random(99)
        checked = 0
        while checked < 200:
            P = random_polygraph(rng)
            for dim in range(2, P.max_dim + 1):
                for _ in range(3):
                    cell = random_cell(rng, P, dim, 4)
                    if cell is None or cell.tree.is_unit:
                        continue
                    expected_tree, expected_map = source_by_induction(P, cell)
                    actual = P.source_cell(cell)
                    assert actual.tree == expected_tree
                    from opetopic.trees import flatten

                    rho = flatten(P.stage(dim), cell.tree).readdress
                    assert rho == expected_map
                    checked += 1

    def test_target_of_composite_is_target_of_outer(self):
        rng = random.Random(17)
        for _ in range(50):
            P = random_polygraph(rng)
            dim = P.max_dim
            cell = random_cell(rng, P, dim, 4)
            if cell is None or cell.tree.is_unit:
                continue
            shape = decompose(cell)
            if isinstance(shape, CompositeShape):
                assert P.target_name(cell) == P.target_name(shape.rest)


class TestMorphisms:
    def test_identity_morphism(self, path_polygraph):
        morphism = identity_morphism(path_polygraph)
        assert morphism.validate().ok
        cell = path_polygraph.generator_cell(2, "m")
        assert map_cell(morphism, cell) == cell

    def test_identity_on_identity_cell(self, path_polygraph):
        morphism = identity_morphism(path_polygraph)
        cell = path_polygraph.identity_cell(1, "f")
        assert map_cell(morphism, cell) == cell

    def test_collapse_is_not_a_morphism(self, path_polygraph, loop_polygraph):
        # the path 2-generator has a two-node source, the loop one a single
        # node, so collapsing everything cannot preserve source trees
        collapse = PolygraphMorphism(
            path_polygraph,
            loop_polygraph,
            {
                0: {"a": "a", "b": "a", "c": "a"},
                1: {"f": "f", "g": "f", "h": "f"},
                2: {"m": "m"},
            },
        )
        report = collapse.validate()
        assert any("source tree not preserved" in f for f in report.failures)

    def test_a_partial_map_is_reported_not_raised(self):
        # f's target b has no image, so its comparison is skipped and b is
        # reported once, as undefined
        P = MtoPolygraph()
        P.add_point("a")
        P.add_point("b")
        P.add_arrow("f", "a", "b")
        Q = MtoPolygraph()
        Q.add_point("x")
        Q.add_arrow("g", "x", "x")
        report = PolygraphMorphism(P, Q, {0: {"a": "x"}, 1: {"f": "g"}}).validate()
        assert report.failures == ["morphism undefined on 0-generator 'b'"]

    def test_a_partial_map_still_compares_what_it_defines(
        self, path_polygraph, loop_polygraph
    ):
        # m's target h and source g are mapped and compared; f, in m's
        # source tree, is not, so that tree is not compared
        partial = PolygraphMorphism(
            path_polygraph,
            loop_polygraph,
            {0: {"a": "a", "b": "a", "c": "a"}, 1: {"g": "f", "h": "f"}, 2: {"m": "m"}},
        )
        assert partial.validate().failures == [
            "morphism undefined on 1-generator 'f'"
        ]

    def test_validate_reports_every_kind_of_failure(self):
        P = MtoPolygraph()
        for name in "ab":
            P.add_point(name)
        P.add_arrow("f", "a", "b")
        P.add_arrow("g", "b", "a")
        P.add_generator(2, "m", Tree.of({EMPTY: "f"}), "f")
        Q = MtoPolygraph()
        for name in "xy":
            Q.add_point(name)
        Q.add_arrow("h", "x", "y")
        Q.add_arrow("k", "y", "x")
        Q.add_generator(2, "n", Tree.of({EMPTY: "h"}), "h")
        Q.add_generator(2, "n2", Tree.of({EMPTY: "k"}), "h")
        maps = {0: {"a": "x", "b": "y", "zz": "x"}, 1: {"f": "k", "g": "nope"}, 2: {"m": "n2"}}
        assert PolygraphMorphism(P, Q, maps).validate().failures == [
            "map names unknown 0-generator 'zz'",
            "1-generator 'f': source not preserved",
            "1-generator 'f': target not preserved",
            "1-generator 'g' maps to unknown 'nope'",
            "2-generator 'm': target not preserved",
        ]

    def test_naturality_on_random_cells(self, loop_polygraph):
        rng = random.Random(3)
        P = loop_polygraph
        morphism = identity_morphism(P)
        for _ in range(100):
            cell = random_cell(rng, P, 2, 4)
            if cell is None or cell.tree.is_unit:
                continue
            shape = decompose(cell)
            if not isinstance(shape, CompositeShape):
                continue
            lhs = map_cell(morphism, cell)
            rhs = P.compose_at(
                map_cell(morphism, shape.rest),
                shape.leaf,
                map_cell(morphism, P.generator_cell(2, shape.generator)),
            )
            assert lhs == rhs

    def test_renaming_morphism_preserves_boundaries(self, path_polygraph):
        renamed = MtoPolygraph()
        for name in "abc":
            renamed.add_point(name.upper())
        renamed.add_arrow("F", "A", "B")
        renamed.add_arrow("G", "B", "C")
        renamed.add_arrow("H", "A", "C")
        renamed.add_generator(
            2, "M", Tree.of({EMPTY: "G", STAR: "F"}), "H"
        )
        rename = PolygraphMorphism(
            path_polygraph,
            renamed,
            {
                0: {"a": "A", "b": "B", "c": "C"},
                1: {"f": "F", "g": "G", "h": "H"},
                2: {"m": "M"},
            },
        )
        assert rename.validate().ok
        rng = random.Random(8)
        for dim in (1, 2):
            for _ in range(30):
                cell = random_cell(rng, path_polygraph, dim, 4)
                if cell is None:
                    continue
                image = map_cell(rename, cell)
                assert count(image) == count(cell)
                assert count_generator(image, "F") == count_generator(cell, "f")
                assert renamed.target_name(image) == rename.apply(
                    dim - 1, path_polygraph.target_name(cell)
                )
                source = path_polygraph.source_cell(cell)
                image_source = renamed.source_cell(image)
                if dim == 1:
                    assert image_source == rename.apply(0, source)
                else:
                    assert image_source == map_cell(rename, source)

    def test_morphism_preserves_counts_and_boundaries(self):
        rng = random.Random(21)
        P = random_polygraph(rng)
        morphism = identity_morphism(P)
        for dim in range(1, P.max_dim + 1):
            cell = random_cell(rng, P, dim, 3)
            if cell is None:
                continue
            image = map_cell(morphism, cell)
            assert count(image) == count(cell)
            assert P.target_name(image) == P.target_name(cell)


def enumerate_cells(P, dim, budget):
    """All dimension-``dim`` cells with at most ``budget`` generator
    occurrences: identities first, then composites in growth order."""
    cells = [
        Cell(dim, Tree.unit(name)) for name in P.generators(dim - 1)
    ]
    gens = P.generators(dim)
    if gens:
        grown = grow_trees(P.stage(dim), gens, gens, budget)
        cells.extend(Cell(dim, tree) for tree, _, _, _ in grown)
    return cells


def oracle_enumerate_cells(P, dim, budget):
    """Generate-and-filter oracle, independent of the library's grower:
    identities, then the breadth-first closure of generator corollas under
    grafting a corolla at any leaf, keeping the cells with at most
    ``budget`` leaves."""
    sig = P.stage(dim)
    out = {Cell(dim, Tree.unit(name)) for name in P.generators(dim - 1)}
    if budget < 1:
        return out
    seen = {corolla(name) for name in P.generators(dim)}
    frontier = set(seen)
    while frontier:
        fresh = set()
        for tree in frontier:
            if tree.size >= budget:
                continue
            for leaf in leaf_addresses(sig, tree):
                color = edge_color(sig, tree, leaf)
                for name in P.generators(dim):
                    if sig.target_color(name) != color:
                        continue
                    bigger = graft(sig, tree, leaf, corolla(name))
                    if bigger not in seen:
                        fresh.add(bigger)
        seen |= fresh
        frontier = fresh
    return out | {
        Cell(dim, tree) for tree in seen if len(leaf_addresses(sig, tree)) <= budget
    }


class TestEnumerateCells:
    def test_matches_grafting_oracle(self):
        composites = 0
        for seed in range(12):
            P = random_polygraph(random.Random(seed))
            for dim in range(1, 4):
                for budget in range(4):
                    cells = enumerate_cells(P, dim, budget)
                    assert len(set(cells)) == len(cells)
                    assert set(cells) == oracle_enumerate_cells(P, dim, budget)
                    composites += sum(not cell.is_identity for cell in cells)
        assert composites > 0

    def test_zero_budget_gives_only_identities(self, path_polygraph):
        cells = enumerate_cells(path_polygraph, 2, 0)
        assert [cell.tree.unit_color for cell in cells] == ["f", "g", "h"]
        assert all(cell.is_identity for cell in cells)

    def test_loop_one_cells(self, loop_polygraph):
        cells = enumerate_cells(loop_polygraph, 1, 3)
        # the identity on a plus paths of length 1..3
        assert len(cells) == 4
        sizes = sorted(count(cell) for cell in cells)
        assert sizes == [0, 1, 2, 3]

    def test_stage_inputs_match_source_tree(self, path_polygraph):
        sig = path_polygraph.stage(2)
        assert sig.inputs("m") == path_polygraph.gen_data(
            2, "m"
        ).source_tree.node_addresses()


class TestStages:
    def test_a_one_generator_is_the_corolla_on_its_source(self, path_polygraph):
        P = path_polygraph
        assert P.gen_data(1, "f") == GenN(corolla("a"), "b")
        assert P.stage(1).inputs("f") == (EMPTY,)
        assert P.stage(1).source_color("f", EMPTY) == "a"
        assert P.stage(1).source_tree("f") is None
        with pytest.raises(AddressError, match=r"no node at address \[\*\]"):
            P.stage(1).source_color("f", STAR)

    def test_one_stage_per_dimension(self, path_polygraph):
        P = path_polygraph
        assert P.stage(1) is P.stage(1)
        assert P.stage(2) is P.stage(2)
        assert P.stage(2).sub_signature() is P.stage(1)
        with pytest.raises(ValueError):
            P.stage(0)

    def test_stage_above_max_dim_sees_a_later_declaration(self, path_polygraph):
        P = path_polygraph
        early = P.stage(3)
        assert P.max_dim == 2 and not early.gens
        assert early.sub_signature() is P.stage(2)
        P.add_generator(3, "A", corolla("m"), "m")
        assert "A" in P.stage(3).gens
        assert P.stage(3) is P.stage(3)
        assert P.stage(4).sub_signature() is P.stage(3)
        assert P.validate().ok
        assert P.source_cell(P.generator_cell(3, "A")) == Cell(2, corolla("m"))
        P.add_generator(3, "B", corolla("m"), "zz")
        assert P.validate().failures == ["3-generator 'B': unknown target 'zz'"]
