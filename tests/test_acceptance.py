"""Acceptance suite: one test per criterion, each printing a verdict line.

The heavy dimension-4 sweep is generated once in a session fixture and
shared by the first two criteria; everything else runs inline.  Randomized
criteria use fixed seeds so the suite is reproducible.
"""

import itertools
import json
import math
import random
import time
from multiprocessing import get_context
from pathlib import Path

import pytest

from opetopic.address import EMPTY
from opetopic.category import hom, slice_classes
from opetopic.opetope import (
    OPETOPE_SIG,
    arrow,
    check_identities,
    enumerate_opetopes,
    iter_opetopes,
    opetopic_integer,
    point,
)
from opetopic.oset import yoneda
from opetopic.polygraph import CompositeShape, count, decompose
from opetopic.realization import (
    counit_check,
    nerve,
    realize_opetope,
    shape_of,
    terminal_polygraph,
    unit_check,
)
from opetopic.trees import (
    corolla,
    edge_color,
    graft,
    leaf_addresses,
    total_graft,
)

from conftest import induced_morphism
from randomized import RandomPolygraphConfig, random_cell, random_polygraph

GOLDEN = Path(__file__).parent / "golden"
SWEEP_BOUND = 4


def _sweep_opetopes(args):
    """Check identities and the readdressing bijection over one shard."""
    import gc

    gc.disable()
    n, shard, shards = args
    checked = 0
    identity_failures = []
    readdress_failures = []
    for omega in iter_opetopes(n, SWEEP_BOUND, shard=(shard, shards)):
        checked += 1
        report = check_identities(omega)
        if not report.ok:
            identity_failures.append(f"{omega}: {report}")
        rho = omega.readdress()
        leaves = leaf_addresses(OPETOPE_SIG, omega.tree)
        targets = omega.target().node_addresses()
        values = sorted(rho.values())
        if (
            len(rho) != len(leaves)
            or sorted(rho) != sorted(leaves)
            or values != sorted(targets)
            or any(a == b for a, b in zip(values, values[1:]))
        ):
            readdress_failures.append(str(omega))
    gc.enable()
    return checked, identity_failures[:5], readdress_failures[:5]


@pytest.fixture(scope="session")
def identity_sweep():
    start = time.time()
    totals = {}
    identity_failures = []
    readdress_failures = []
    for n in (2, 3):
        checked, bad_ids, bad_rho = _sweep_opetopes((n, 0, 1))
        totals[n] = checked
        identity_failures += bad_ids
        readdress_failures += bad_rho
    shards = 8
    with get_context("fork").Pool(2) as pool:
        for checked, bad_ids, bad_rho in pool.imap_unordered(
            _sweep_opetopes, [(4, i, shards) for i in range(shards)]
        ):
            totals[4] = totals.get(4, 0) + checked
            identity_failures += bad_ids
            readdress_failures += bad_rho
    return {
        "totals": totals,
        "identity_failures": identity_failures,
        "readdress_failures": readdress_failures,
        "elapsed": time.time() - start,
    }


class TestCriterion01Identities:
    def test_every_enumerated_opetope_satisfies_the_identities(self, identity_sweep):
        assert identity_sweep["identity_failures"] == []
        assert identity_sweep["totals"][2] == SWEEP_BOUND + 1
        assert identity_sweep["totals"][3] == 1443
        assert identity_sweep["totals"][4] == 1453450
        elapsed = identity_sweep["elapsed"]
        assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"
        total = sum(identity_sweep["totals"].values())
        print(
            f"criterion 1: PASS - identities hold on {total} opetopes "
            f"(dims 2-4, bound 4) in {elapsed:.1f}s"
        )


class TestCriterion02Readdressing:
    def test_readdressing_is_a_bijection_everywhere(self, identity_sweep):
        assert identity_sweep["readdress_failures"] == []
        total = sum(identity_sweep["totals"].values())
        print(f"criterion 2: PASS - readdressing bijective on {total} opetopes")


class TestCriterion03GraftingFormulas:
    def test_randomized_graftings(self):
        rng = random.Random(1234)
        checked = 0
        # half over opetope trees, half over random polygraph stages
        ops2 = enumerate_opetopes(2, 3)
        ops3 = enumerate_opetopes(3, 2)
        while checked < 500:
            pool = rng.choice([ops2, ops3])
            base = corolla(rng.choice(pool))
            for _ in range(rng.randint(0, 3)):
                leaves = leaf_addresses(OPETOPE_SIG, base)
                if not leaves:
                    break
                leaf = rng.choice(leaves)
                color = edge_color(OPETOPE_SIG, base, leaf)
                options = [op for op in pool if op.target() == color]
                if not options:
                    break
                base = graft(OPETOPE_SIG, base, leaf, corolla(rng.choice(options)))
            leaves = leaf_addresses(OPETOPE_SIG, base)
            if not leaves:
                continue
            leaf = rng.choice(leaves)
            color = edge_color(OPETOPE_SIG, base, leaf)
            options = [op for op in pool if op.target() == color]
            if not options:
                continue
            scion = corolla(rng.choice(options))
            glued = graft(OPETOPE_SIG, base, leaf, scion)
            assert set(glued.node_addresses()) == set(base.node_addresses()) | {
                leaf.concat(p) for p in scion.node_addresses()
            }
            assert set(leaf_addresses(OPETOPE_SIG, glued)) == (
                set(leaves) - {leaf}
            ) | {leaf.concat(p) for p in leaf_addresses(OPETOPE_SIG, scion)}
            checked += 1
        while checked < 1000:
            P = random_polygraph(rng)
            for dim in range(1, P.max_dim + 1):
                sig = P.stage(dim)
                base_cell = random_cell(rng, P, dim, 4)
                if base_cell is None or base_cell.tree.is_unit:
                    continue
                base = base_cell.tree
                leaves = leaf_addresses(sig, base)
                if not leaves:
                    continue
                leaf = rng.choice(leaves)
                color = edge_color(sig, base, leaf)
                options = [g for g in P.generators(dim) if sig.target_color(g) == color]
                if not options:
                    continue
                scion_cell = random_cell(rng, P, dim, 3)
                scion = corolla(rng.choice(options))
                glued = graft(sig, base, leaf, scion)
                assert set(glued.node_addresses()) == set(base.node_addresses()) | {
                    leaf.concat(p) for p in scion.node_addresses()
                }
                assert set(leaf_addresses(sig, glued)) == (
                    set(leaves) - {leaf}
                ) | {leaf.concat(p) for p in leaf_addresses(sig, scion)}
                checked += 1
        print(f"criterion 3: PASS - grafting address formulas on {checked} instances")


def nth_order(keys: list, rank: int) -> tuple:
    """The permutation of ``keys`` at ``rank`` in the lexicographic order
    of ``itertools.permutations(keys)``."""
    keys, order = list(keys), []
    for position in range(len(keys), 0, -1):
        index, rank = divmod(rank, math.factorial(position - 1))
        order.append(keys.pop(index))
    return tuple(order)


def sampled_orders(rng: random.Random, keys: list) -> list[tuple]:
    """Every order of ``keys``, or 24 of them sampled by rank.  Sampling
    reads only the population's length, so this draws the same orders, and
    leaves ``rng`` in the same state, as sampling the list of all orders."""
    count = math.factorial(len(keys))
    if count <= 24:
        return list(itertools.permutations(keys))
    return [nth_order(keys, rank) for rank in rng.sample(range(count), 24)]


class TestCriterion04OrderIndependence:
    def test_total_grafting_and_composition(self):
        from test_polygraph import leaf_contexts

        rng = random.Random(4321)
        graft_cases = 0
        ops = enumerate_opetopes(2, 3)
        while graft_cases < 60:
            base = corolla(rng.choice([op for op in ops if not op.is_degenerate]))
            leaves = leaf_addresses(OPETOPE_SIG, base)
            if len(leaves) < 2:
                continue
            assignment = {}
            for leaf in leaves:
                color = edge_color(OPETOPE_SIG, base, leaf)
                options = [op for op in ops if op.target() == color]
                assignment[leaf] = corolla(rng.choice(options))
            reference = None
            for order in sampled_orders(rng, list(assignment)):
                tree = base
                for leaf in order:
                    tree = graft(OPETOPE_SIG, tree, leaf, assignment[leaf])
                if reference is None:
                    reference = tree
                assert tree == reference
            assert total_graft(OPETOPE_SIG, base, assignment) == reference
            graft_cases += 1
        compose_cases = 0
        while compose_cases < 60:
            P = random_polygraph(rng)
            for dim in range(1, P.max_dim + 1):
                base = random_cell(rng, P, dim, 3)
                if base is None or base.tree.is_unit:
                    continue
                leaves = leaf_contexts(P, base)
                if len(leaves) < 2:
                    continue
                sig = P.stage(dim)
                assignment = {}
                feasible = True
                for leaf in leaves:
                    color = edge_color(sig, base.tree, leaf)
                    options = [
                        g for g in P.generators(dim) if sig.target_color(g) == color
                    ]
                    if options and rng.random() < 0.7:
                        assignment[leaf] = P.generator_cell(dim, rng.choice(options))
                    else:
                        assignment[leaf] = P.identity_cell(dim - 1, color)
                if not feasible:
                    continue
                reference = None
                for order in sampled_orders(rng, list(assignment)):
                    cell = base
                    for leaf in order:
                        cell = P.compose_at(cell, leaf, assignment[leaf])
                    if reference is None:
                        reference = cell
                    assert cell == reference
                assert P.compose_total(base, assignment) == reference
                compose_cases += 1
        print(
            f"criterion 4: PASS - total grafting/composition order-free on "
            f"{graft_cases}+{compose_cases} instances"
        )


class TestCriterion05HomCounts:
    def test_pinned_counts_and_golden_table(self):
        from test_category import union_find_hom_counts

        assert len(hom(point(), arrow())) == 2
        assert len(hom(point(), opetopic_integer(0))) == 1
        for k in range(1, 6):
            omega = opetopic_integer(k)
            assert len(hom(point(), omega)) == k + 1
            assert len(hom(arrow(), omega)) == k + 1
        golden = json.loads((GOLDEN / "hom_counts.json").read_text())
        omegas = enumerate_opetopes(3, 3)
        assert set(golden) == {str(omega) for omega in omegas}
        for omega in omegas:
            oracle = union_find_hom_counts(omega)
            expected = golden[str(omega)]
            assert {str(d): c for d, c in oracle.items()} == expected
            for domain, expected_count in oracle.items():
                assert len(hom(domain, omega)) == expected_count
        print(
            f"criterion 5: PASS - hom counts match the union-find oracle and "
            f"the golden table on {len(omegas)} opetopes"
        )


class TestCriterion06Realization:
    def test_realizations_validate_with_slice_counts(self):
        from test_realization import boundary_colimit_check

        checked = 0
        for dim in range(4):
            for omega in enumerate_opetopes(dim, 3):
                P = realize_opetope(omega)
                assert P.validate().ok, f"realization of {omega} invalid"
                classes = slice_classes(omega)
                for j in range(omega.dim + 1):
                    assert len(P.generators(j)) == len(classes.get(j, []))
                checked += 1
        for omega in [arrow(), opetopic_integer(0), opetopic_integer(1), opetopic_integer(2)]:
            report = boundary_colimit_check(omega)
            assert report.ok, f"boundary gluing of {omega}: {report}"
        print(
            f"criterion 6: PASS - {checked} realizations validate with "
            f"slice-sized generator sets; boundary gluing agrees on 4 opetopes"
        )


class TestCriterion07ShapeTerminal:
    def test_terminal_bijection_and_top_shapes(self):
        budget = 2
        P = terminal_polygraph(3, budget)
        X = nerve(P, 3)
        shapes = {(shape.dim, name): shape for shape, cells in X.cells.items() for name in cells}
        for dim in range(4):
            images = {}
            for name in P.generators(dim):
                shape = shapes[dim, name]
                assert shape not in images, "two generators share a shape"
                images[shape] = name
            assert set(images) == set(enumerate_opetopes(dim, budget))
            if dim >= 1:
                for shape, name in images.items():
                    data = P.gen_data(dim, name)
                    target_name = data.target
                    target_dim = dim - 1
                    assert shapes[target_dim, target_name] == shape.target()
                    if dim >= 2 and not data.source_tree.is_unit:
                        for address in data.source_tree.node_addresses():
                            decoration = data.source_tree.decoration(address)
                            assert shapes[dim - 1, decoration] == shape.source_at(address)
        assert [len(terminal_polygraph(2, 3).generators(d)) for d in range(3)] == [1, 1, 4]
        checked = 0
        for dim in range(4):
            for omega in enumerate_opetopes(dim, budget):
                if omega.dim == 0:
                    continue
                P = realize_opetope(omega)
                result = shape_of(P, omega.dim, "id")
                assert result.shape == omega
                assert induced_morphism(P, result).validate().ok
                assert all(
                    name == image
                    for mapping in result.induced.values()
                    for name, image in mapping.items()
                )
                checked += 1
        print(
            "criterion 7: PASS - terminal generators biject with enumeration "
            f"(budget {budget}), faces commute, {checked} top shapes identical"
        )


class TestCriterion08Equivalence:
    def test_unit_and_counit(self):
        unit_checked = 0
        for dim in range(4):
            for omega in enumerate_opetopes(dim, 3):
                report = unit_check(yoneda(omega, omega.dim))
                assert report.ok, f"unit fails on the representable of {omega}: {report}"
                unit_checked += 1
        counit_checked = 0
        for dim in range(4):
            for omega in enumerate_opetopes(dim, 2):
                report = counit_check(realize_opetope(omega))
                assert report.ok, f"counit fails on realization of {omega}: {report}"
                counit_checked += 1
        rng = random.Random(20240817)
        config = RandomPolygraphConfig(max_generators=20, max_dim=3)
        randoms = 0
        while randoms < 50:
            P = random_polygraph(rng, config)
            total = sum(len(P.generators(d)) for d in range(P.max_dim + 1))
            assert total <= 20
            report = counit_check(P)
            assert report.ok, f"counit fails on a random polygraph: {report}"
            randoms += 1
        print(
            f"criterion 8: PASS - unit on {unit_checked} representables, counit "
            f"on {counit_checked} realizations and {randoms} random polygraphs"
        )


class TestCriterion09Duality:
    def test_inductive_clauses_and_reassembly(self):
        from test_polygraph import source_by_induction
        from opetopic.trees import flatten

        rng = random.Random(1789)
        source_checked = 0
        reassembled = 0
        while source_checked < 1000:
            P = random_polygraph(rng)
            for dim in range(1, P.max_dim + 1):
                for _ in range(4):
                    cell = random_cell(rng, P, dim, 4)
                    if cell is None:
                        continue
                    expected, expected_map = source_by_induction(P, cell)
                    if dim == 1:
                        assert P.source_cell(cell) == expected
                    else:
                        assert P.source_cell(cell).tree == expected
                        rho = flatten(P.stage(dim), cell.tree).readdress
                        assert rho == expected_map
                    assert P.target_name(cell) == (
                        cell.tree.unit_color
                        if cell.tree.is_unit
                        else P.stage(dim).target_color(cell.tree.nodes[EMPTY])
                    )
                    source_checked += 1
                    if count(cell) >= 2:
                        shape = decompose(cell)
                        assert isinstance(shape, CompositeShape)
                        rebuilt = P.compose_at(
                            shape.rest,
                            shape.leaf,
                            P.generator_cell(dim, shape.generator),
                        )
                        assert rebuilt == cell
                        reassembled += 1
        print(
            f"criterion 9: PASS - boundaries match the inductive clauses on "
            f"{source_checked} cells; {reassembled} decompositions reassemble"
        )


class TestCriterion10Roundtrip:
    def test_golden_corpus_and_variants(self, capsys):
        from opetopic.cli import main

        for name in ["path.poly", "loop.poly", "shapes.optp", "cells.oset"]:
            assert main(["roundtrip", str(GOLDEN / name)]) == 0
            out = capsys.readouterr().out
            assert out == (GOLDEN / f"{name}.canonical").read_text()
        pairs = [
            ("variants/shapes_variant.optp", "shapes.optp"),
            ("variants/path_variant.poly", "path.poly"),
            ("variants/cells_variant.oset", "cells.oset"),
        ]
        for variant, original in pairs:
            assert main(["roundtrip", str(GOLDEN / variant)]) == 0
            out = capsys.readouterr().out
            assert out == (GOLDEN / f"{original}.canonical").read_text()
        print(
            "criterion 10: PASS - canonical printing is byte-stable on the "
            "corpus and canonicalizes all hand-written variants"
        )
