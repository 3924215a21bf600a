import copy
import gc
import os
import pickle
import subprocess
import sys
import weakref
from itertools import islice
from pathlib import Path

import pytest

from opetopic import opetope
from opetopic.address import EMPTY, Address, parse_address
from opetopic.category import slice_table
from opetopic.errors import AddressError, CoherenceError, EnumerationLimit
from opetopic.formats import parse_opetope_file
from opetopic.opetope import (
    OPETOPE_SIG,
    Opetope,
    arrow,
    check_identities,
    degenerate,
    enumerate_opetopes,
    from_tree,
    iter_opetopes,
    node_map,
    opetopic_integer,
    point,
    print_key,
)
from opetopic.oset import yoneda
from opetopic.realization import unit_check
from opetopic.trees import (
    Tree,
    corolla,
    edge_color,
    flatten,
    graft,
    grow_trees,
    leaf_addresses,
)

from conftest import flatten as oracle_flatten

STAR = Address((EMPTY,))
O1, O2, O3 = (opetopic_integer(k) for k in (1, 2, 3))
A = from_tree(corolla(O2))


def corrupted(omega: Opetope, tree=None, target=None, rho=None) -> Opetope:
    """A private twin of ``omega``, built with the constructor so that the
    intern table never sees it, whose tree, cached target or readdressing
    is replaced; what is not replaced is ``omega``'s own."""
    known_target, known_rho = omega._flatten()
    twin = Opetope(omega.dim, omega.tree if tree is None else tree)
    twin._leaves = omega.leaf_addresses()
    twin._boundary = (
        known_target if target is None else target,
        known_rho if rho is None else rho,
    )
    return twin


def rebuild_from_corollas(omega: Opetope) -> Opetope:
    """Reassemble a non-degenerate opetope by grafting corollas of its
    decorations in address order; used as a reconstruction check."""
    from opetopic.trees import graft

    if omega.dim < 2 or omega.is_degenerate:
        raise AddressError("reconstruction applies to non-degenerate dim >= 2")
    items = sorted(omega.tree.nodes.items(), key=lambda kv: kv[0])
    tree = corolla(items[0][1])
    for address, decoration in items[1:]:
        tree = graft(OPETOPE_SIG, tree, address, corolla(decoration))
    return from_tree(tree)


def addr(text):
    return parse_address(text)


class TestLowDimensional:
    def test_point_and_arrow(self):
        assert point().dim == 0
        assert arrow().dim == 1
        assert arrow().target() == point()
        assert arrow().source_at(EMPTY) == point()

    def test_opetopic_integer_zero_is_degenerate(self):
        assert opetopic_integer(0) == degenerate(point())

    def test_opetopic_integer_one(self):
        assert opetopic_integer(1) == node_map({EMPTY: arrow()})

    def test_opetopic_integer_nodes(self):
        assert opetopic_integer(3).node_addresses() == (
            EMPTY,
            addr("[*]"),
            addr("[**]"),
        )

    def test_degenerate_of_arrow(self):
        omega = degenerate(arrow())
        assert omega.dim == 3
        assert omega.is_degenerate
        assert omega.shell == arrow()


class TestConstruction:
    def test_valid_three_dimensional(self):
        omega = node_map({EMPTY: O2, EMPTY.child(EMPTY): O2})
        assert omega.dim == 3

    def test_inner_coherence_violation(self):
        # at dimension 4 the colors are 2-opetopes, so mismatches exist:
        # the child targets o1 but sits on a slot colored o2
        psi = from_tree(corolla(O2))
        phi = from_tree(corolla(opetopic_integer(1)))
        with pytest.raises(CoherenceError) as info:
            node_map({EMPTY: psi, EMPTY.child(EMPTY): phi})
        message = str(info.value)
        assert "edge mismatch" in message

    def test_orphan_address_rejected(self):
        with pytest.raises(CoherenceError):
            node_map({EMPTY: O2, addr("[[*][]]"): O2})

    def test_empty_bindings_rejected(self):
        with pytest.raises(CoherenceError):
            node_map({})


class TestFaces:
    def test_source_of_integer(self):
        assert opetopic_integer(2).source_at(addr("[*]")) == arrow()

    def test_source_of_degenerate_fails(self):
        with pytest.raises(AddressError):
            opetopic_integer(0).source_at(EMPTY)

    def test_targets_of_integers(self):
        for k in range(7):
            assert opetopic_integer(k).target() == arrow()

    def test_target_of_degenerate_arrow(self):
        assert degenerate(arrow()).target() == opetopic_integer(1)
        assert degenerate(arrow()).readdress() == {EMPTY: EMPTY}

    def test_target_of_corolla(self):
        omega = from_tree(corolla(O2))
        assert omega.target() == O2
        assert omega.readdress() == {
            EMPTY.child(EMPTY): EMPTY,
            EMPTY.child(STAR): STAR,
        }

    def test_target_of_two_node_tree(self):
        omega = node_map({EMPTY: O2, EMPTY.child(EMPTY): O2})
        assert omega.target() == opetopic_integer(3)
        assert omega.readdress() == {
            addr("[[][]]"): EMPTY,
            addr("[[][*]]"): STAR,
            addr("[[*]]"): addr("[**]"),
        }

    def test_dimension_drops_by_one(self):
        for omega in enumerate_opetopes(3, 2):
            assert omega.target().dim == 2

    @pytest.mark.parametrize(
        "build",
        [
            # grown: four nodes, so in no enumeration another test keeps
            lambda: next(
                o for o in iter_opetopes(4, 4, shard=(5, 64)) if o.tree.size == 4
            ),
            lambda: parse_opetope_file(
                "opetope w = {[] <- {[] <- arrow, [*] <- arrow}, "
                "[[]] <- {[] <- arrow, [*] <- arrow}}"
            )["w"],
            lambda: degenerate(O2),
        ],
        ids=["grown", "parsed", "degenerate"],
    )
    def test_readdress_is_a_fresh_dict_on_every_call(self, build):
        omega = build()
        first = omega.readdress()
        second = omega.readdress()
        assert first == second and first is not second
        assert first == flatten(OPETOPE_SIG, omega.tree).readdress
        first.clear()
        first[EMPTY] = STAR
        assert omega.readdress() == second


class TestIdentities:
    def test_integer(self):
        assert check_identities(opetopic_integer(5)).ok

    def test_degenerate_branch(self):
        assert check_identities(degenerate(arrow())).ok

    def test_enumerated_four_dimensional(self):
        for omega in enumerate_opetopes(4, 2):
            assert check_identities(omega).ok

    def test_below_dimension_two(self):
        assert check_identities(point()).failures == [
            "identities need dimension >= 2, got 0"
        ]

    def test_degeneracy_failure(self):
        omega = degenerate(O2)
        B = node_map({EMPTY: O1, STAR: O2})
        assert check_identities(corrupted(omega, target=B)).failures == [
            "degeneracy: s[[]] t = {[] <- arrow} "
            "but t t = {[] <- arrow, [*] <- arrow}"
        ]
        assert opetope._interned(omega.tree) is omega
        assert check_identities(omega).ok

    def test_root_globularity_failure(self):
        # the target keeps its nodes, so only its own target is wrong
        omega = from_tree(corolla(A))
        target = corrupted(A, target=O3)
        assert check_identities(corrupted(omega, target=target)).failures == [
            "globularity (root): t s[[]] = {[] <- arrow, [*] <- arrow} "
            "but t t = {[] <- arrow, [*] <- arrow, [**] <- arrow}"
        ]
        assert opetope._interned(omega.tree) is omega
        assert check_identities(omega).ok and A.target() is O2

    def test_leaf_globularity_failure(self):
        # swapping the images of leaves of different colors
        omega = from_tree(corolla(node_map({EMPTY: O1, STAR: degenerate(point())})))
        rho = omega._flatten()[1]
        assert check_identities(corrupted(omega, rho=rho[::-1])).failures == [
            "globularity (leaf [*]): s[[]] s[[]] = {[] <- arrow} "
            "but s[[*]] t = <<point>>",
            "globularity (leaf [[*]]): s[[*]] s[[]] = <<point>> "
            "but s[[]] t = {[] <- arrow}",
        ]
        assert opetope._interned(omega.tree) is omega
        assert check_identities(omega).ok

    def test_inner_edge_failure_comes_before_root_globularity(self):
        omega = node_map({EMPTY: A, STAR: A})
        tree = Tree.of({EMPTY: A, STAR: corrupted(A, target=O3)})
        target = corrupted(omega.target(), target=O3)
        assert check_identities(corrupted(omega, tree, target)).failures == [
            "inner edge [*]: t s[[*]] = {[] <- arrow, [*] <- arrow, [**] <- arrow} "
            "but s[[]] s[[]] = {[] <- arrow, [*] <- arrow}",
            "globularity (root): t s[[]] = {[] <- arrow, [*] <- arrow} "
            "but t t = {[] <- arrow, [*] <- arrow, [**] <- arrow}",
        ]
        assert opetope._interned(omega.tree) is omega
        assert check_identities(omega).ok

    def test_readdress_is_bijective(self):
        for omega in enumerate_opetopes(3, 3):
            rho = omega.readdress()
            assert set(rho) == set(omega.leaf_addresses())
            assert sorted(rho.values()) == sorted(
                omega.target().node_addresses()
            )


def oracle_enumerate(n, max_nodes):
    """Generate-and-filter oracle, independent of the library's growth
    order: breadth-first closure under grafting corollas at any leaf."""
    if n == 0:
        return {point()}
    if n == 1:
        return {arrow()}
    previous = sorted(oracle_enumerate(n - 1, max_nodes), key=str)
    if n == 2:
        return {opetopic_integer(k) for k in range(max_nodes + 1)}
    allowed = set(previous)
    seen = {from_tree(corolla(op)) for op in previous} if max_nodes >= 1 else set()
    frontier = set(seen)
    while frontier:
        fresh = set()
        for omega in frontier:
            if omega.tree.size >= max_nodes:
                continue
            for leaf in leaf_addresses(OPETOPE_SIG, omega.tree):
                color = edge_color(OPETOPE_SIG, omega.tree, leaf)
                for op in previous:
                    if op.target() != color:
                        continue
                    bigger = from_tree(
                        graft(OPETOPE_SIG, omega.tree, leaf, corolla(op))
                    )
                    if bigger not in seen:
                        fresh.add(bigger)
        seen |= fresh
        frontier = fresh
    out = {
        omega
        for omega in seen
        if len(leaf_addresses(OPETOPE_SIG, omega.tree)) <= max_nodes
        and omega.target() in allowed
    }
    for shell in oracle_enumerate(n - 2, max_nodes):
        candidate = degenerate(shell)
        if candidate.target() in allowed:
            out.add(candidate)
    return out


class TestEnumerate:
    def test_dimension_one(self):
        assert enumerate_opetopes(1, 5) == [arrow()]

    def test_zero_nodes_leaves_only_the_nodeless_opetopes(self):
        found = [str(omega) for n in range(6) for omega in enumerate_opetopes(n, 0)]
        assert found == ["point", "arrow", "<<point>>"]
        for n in range(3, 6):
            assert list(iter_opetopes(n, 0)) == []
            assert oracle_enumerate(n, 0) == set()

    def test_opetopic_integers(self):
        assert enumerate_opetopes(2, 3) == [
            opetopic_integer(0),
            opetopic_integer(1),
            opetopic_integer(2),
            opetopic_integer(3),
        ]

    def test_three_dimensional_count_matches_oracle(self):
        generated = set(enumerate_opetopes(3, 2))
        assert generated == oracle_enumerate(3, 2)
        assert len(generated) == 11

    def test_three_dimensional_bound_three_matches_oracle(self):
        assert set(enumerate_opetopes(3, 3)) == oracle_enumerate(3, 3)

    def test_four_dimensional_matches_oracle(self):
        assert set(enumerate_opetopes(4, 2)) == oracle_enumerate(4, 2)

    def test_deterministic_sorted_output(self):
        first = enumerate_opetopes(3, 3)
        second = enumerate_opetopes(3, 3)
        assert first == second
        keys = [(len(str(w)), str(w)) for w in first]
        assert keys == sorted(keys)
        assert len(set(first)) == len(first)

    def test_face_closure(self):
        allowed = set(enumerate_opetopes(2, 3))
        for omega in enumerate_opetopes(3, 3):
            assert omega.target() in allowed

    def test_cap(self):
        with pytest.raises(EnumerationLimit):
            enumerate_opetopes(3, 3, cap=10)

    def test_cap_covers_every_dimension_built(self, monkeypatch):
        built = []
        original = opetope.iter_opetopes

        def recording(n, *args, **kwargs):
            built.append(n)
            return original(n, *args, **kwargs)

        monkeypatch.setattr(opetope, "iter_opetopes", recording)
        with pytest.raises(EnumerationLimit, match="dimension 4"):
            enumerate_opetopes(6, 3, cap=1000)
        assert 5 not in built and 6 not in built
        # a dimension already built counts against a smaller cap too
        enumerate_opetopes(2, 3)
        with pytest.raises(EnumerationLimit, match="dimension 2"):
            enumerate_opetopes(3, 3, cap=3)

    def test_shards_partition(self):
        whole = set(iter_opetopes(3, 3))
        pieces = [set(iter_opetopes(3, 3, shard=(i, 3))) for i in range(3)]
        assert set().union(*pieces) == whole
        assert sum(len(p) for p in pieces) == len(whole)


class TestStructure:
    def test_reconstruction_from_corollas(self):
        for omega in enumerate_opetopes(3, 3):
            if omega.is_degenerate:
                continue
            assert rebuild_from_corollas(omega) == omega

    def test_equality_agrees_with_canonical_print(self):
        seen = {}
        for omega in enumerate_opetopes(3, 3):
            text = str(omega)
            assert text not in seen
            seen[text] = omega
        rebuilt = node_map({EMPTY: O2, EMPTY.child(EMPTY): O2})
        other = node_map({EMPTY: O2, EMPTY.child(EMPTY): O2})
        assert rebuilt == other and str(rebuilt) == str(other)

    def test_leaf_count_matches_target_nodes(self):
        for omega in enumerate_opetopes(4, 2):
            assert len(omega.leaf_addresses()) == len(
                omega.target().node_addresses()
            )


def with_faces(opetopes):
    """The given opetopes and all their iterated sources and targets."""
    seen = set()
    stack = list(opetopes)
    while stack:
        omega = stack.pop()
        if omega in seen:
            continue
        seen.add(omega)
        if omega.dim >= 1:
            stack.append(omega.target())
        if omega.is_degenerate:
            stack.append(omega.shell)
        elif omega.dim >= 2:
            stack.extend(omega.tree.nodes.values())
    return seen


def interned(omega):
    """The instance the intern table holds under this opetope's key."""
    return opetope._interned(omega.dim if omega._tree is None else omega._tree)


def is_interned(omega) -> bool:
    """Whether the intern table holds this very instance under its key."""
    return interned(omega) is omega


class TestHashConsing:
    """Equality is identity, so every way of building an opetope must
    give back its one interned instance."""

    @pytest.mark.parametrize("dim, bound", [(0, 3), (1, 3), (2, 3), (3, 3), (4, 3), (5, 2)])
    def test_canonical_instances(self, dim, bound):
        for omega in with_faces(enumerate_opetopes(dim, bound)):
            assert is_interned(omega)
            if omega.dim >= 1:
                assert is_interned(omega.target())
            if omega.is_degenerate:
                assert degenerate(omega.shell) is omega
                assert from_tree(Tree.unit(omega.shell)) is omega
            elif omega.dim >= 2:
                # a fresh node map with a different insertion order
                reversed_nodes = dict(reversed(omega.tree.nodes.items()))
                assert from_tree(Tree.of(reversed_nodes)) is omega
                assert node_map(reversed_nodes) is omega

    @pytest.mark.parametrize("dim", range(5))
    def test_pickle_and_deepcopy_give_the_interned_instance(self, dim):
        for omega in enumerate_opetopes(dim, 2):
            assert pickle.loads(pickle.dumps(omega)) is omega
            assert copy.deepcopy(omega) is omega
            assert copy.copy(omega) is omega

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_grower_leaves_match_the_tree(self, dim):
        for omega in enumerate_opetopes(dim, 3):
            if omega.dim >= 2:
                assert omega.leaf_addresses() == leaf_addresses(OPETOPE_SIG, omega.tree)

    def test_grower_leaves_on_a_full_sweep_shard(self):
        enumerate_opetopes(3, 4)
        size = len(opetope._INTERN)
        degenerate_count = grown = 0
        for omega in iter_opetopes(4, 4, shard=(5, 64)):
            if omega.is_degenerate:
                degenerate_count += 1
                continue
            grown += 1
            # handed over by the grower, not computed from the tree
            assert omega._leaves is not None
            assert omega.leaf_addresses() == leaf_addresses(OPETOPE_SIG, omega.tree)
        assert grown > 10_000
        del omega
        # the yielded opetopes that nothing holds have left the table
        assert len(opetope._INTERN) - size <= degenerate_count

    def test_uninterned_results_intern_to_the_enumerated_instances(self):
        enumerate_opetopes(3, 3)
        fresh = list(iter_opetopes(4, 3))
        canonical = enumerate_opetopes(4, 3)
        assert len(fresh) == len(canonical)
        assert {id(interned(omega)) for omega in fresh} == set(map(id, canonical))
        # once interned, the interned instances are what is yielded
        size = len(opetope._INTERN)
        again = list(iter_opetopes(4, 3))
        assert set(map(id, again)) == set(map(id, canonical))
        assert len(opetope._INTERN) == size

    # the benchmark's sweep still passes intern_results=False, which is now
    # accepted and ignored; it used to yield instances that were not
    # interned.  No test enumerates dim 4 at bound 4, so the shard's
    # opetopes are new to the table whatever ran before.
    @pytest.mark.parametrize("kwargs", [{"intern_results": False}, {}])
    @pytest.mark.parametrize("bound, shard, count", [(2, None, 45), (4, (5, 64), 300)])
    def test_every_yielded_opetope_is_the_canonical_instance(
        self, kwargs, bound, shard, count
    ):
        checked = 0
        for omega in islice(iter_opetopes(4, bound, shard=shard, **kwargs), count):
            assert unit_check(yoneda(omega, omega.dim)).ok, str(omega)
            assert pickle.loads(pickle.dumps(omega)) is omega
            if not omega.is_degenerate:
                reversed_nodes = dict(reversed(omega.tree.nodes.items()))
                assert from_tree(Tree.of(reversed_nodes)) is omega
            checked += 1
        assert checked == count

    def test_an_opetope_and_its_caches_die_together(self):
        # every dim-4, bound-3 opetope may be kept in _ENUMERATED by other
        # tests; a grown one with four nodes is in no enumeration
        enumerate_opetopes(3, 4)
        # an opetope left in a garbage cycle by an earlier test can release
        # another one collections later, through its intern key; freezing
        # keeps that garbage out of the count
        gc.collect()
        gc.freeze()
        try:
            size = len(opetope._INTERN)
            omega = next(o for o in iter_opetopes(4, 4, shard=(5, 64)) if o.tree.size == 4)
            assert not any(omega in kept for kept in opetope._ENUMERATED.values())
            assert slice_table(omega) is omega._slices
            alive = weakref.ref(omega)
            del omega
            gc.collect()
            assert alive() is None
            assert len(opetope._INTERN) == size
        finally:
            gc.unfreeze()


class TestGrowerAgainstFlatten:
    """The grower reads each target off its leaf colors and readdressing,
    which makes leaf globularity true by construction; the substitution
    flatten stays the independent oracle for the targets and readdressings
    it hands over, and for the library ``flatten``, which reroutes leaf
    images by the grower's rule."""

    @staticmethod
    def check_against_flatten(opetopes) -> int:
        checked = 0
        for omega in opetopes:
            if omega.is_degenerate:
                continue
            result = oracle_flatten(OPETOPE_SIG, omega.tree)
            expected = from_tree(result.tree) if omega.dim > 2 else arrow()
            assert expected is omega.target(), str(omega)
            assert result.readdress == omega.readdress(), str(omega)
            assert flatten(OPETOPE_SIG, omega.tree) == result, str(omega)
            checked += 1
        return checked

    @pytest.mark.parametrize("dim, bound", [(2, 3), (3, 3), (4, 3), (5, 2), (6, 2)])
    def test_small_bounds(self, dim, bound):
        fresh = iter_opetopes(dim, bound)
        assert self.check_against_flatten(fresh) > 0

    def test_full_sweep_shard(self):
        shard = iter_opetopes(4, 4, shard=(5, 64))
        assert self.check_against_flatten(shard) > 10_000

    def test_shards_in_reverse_then_with_warm_tables(self):
        # the address tables of (4, 3) live across calls: every pass over
        # the shards, the first in whatever state earlier calls left them
        # and the second with them warm, gives the whole enumeration
        expected = enumerate_opetopes(4, 3)
        previous = enumerate_opetopes(3, 3)
        for _ in range(2):
            got = []
            for i in reversed(range(8)):
                got += iter_opetopes(4, 3, shard=(i, 8))
                tables = opetope._ADDRESSES[4, 3]
                # the grower's own results, through the same tables
                grown = grow_trees(
                    OPETOPE_SIG,
                    previous,
                    previous[i::8],
                    3,
                    max_leaves=3,
                    tables=tables,
                )
                for tree, flat, rho, leaves in grown:
                    result = oracle_flatten(OPETOPE_SIG, tree)
                    assert leaves == tuple(sorted(result.readdress)), str(tree)
                    assert rho == tuple(map(result.readdress.get, leaves)), str(tree)
                    assert flat == result.tree, str(tree)
            assert sorted(got, key=print_key) == expected
            assert self.check_against_flatten(got) > 0
            for omega in got:
                if not omega.is_degenerate:
                    assert omega._leaves == leaf_addresses(OPETOPE_SIG, omega.tree)
            children_of, images_of = tables
            for leaf, by_slots in children_of.items():
                for slots, children in by_slots.items():
                    assert children == tuple(leaf.child(slot) for slot in slots)
            for anchor, by_slots in images_of.items():
                for slots, images in by_slots.items():
                    assert images == tuple(anchor.concat(slot) for slot in slots)


class TestGrowerLifetime:
    """A grower is freed by reference counting, whether it ran to the end
    or was closed early: it leaves nothing for the cyclic collector."""

    @pytest.mark.parametrize("taken", [None, 5])
    def test_a_grower_leaves_no_cycle(self, taken):
        enumerate_opetopes(3, 3)
        # garbage that earlier tests left can release more of it
        # collections later; freezing keeps it out of the count
        gc.collect()
        gc.freeze()
        gc.disable()
        try:
            opetopes = iter_opetopes(4, 3, shard=(1, 8))
            for _ in islice(opetopes, taken):
                pass
            opetopes.close()
            del opetopes, _
            assert gc.collect() == 0
        finally:
            gc.enable()
            gc.unfreeze()


def collector(enabled: bool) -> None:
    (gc.enable if enabled else gc.disable)()


class TestCollectorPause:
    """An enumeration is built with the cyclic collector paused, and leaves
    it as the caller had it, also when the cap is passed."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_the_build_pauses_and_restores_the_collector(self, monkeypatch, enabled):
        # an empty cache, so that every dimension is built
        monkeypatch.setattr(opetope, "_ENUMERATED", {})
        during = []
        original = opetope.iter_opetopes

        def recording(n, *args, **kwargs):
            during.append(gc.isenabled())
            return original(n, *args, **kwargs)

        monkeypatch.setattr(opetope, "iter_opetopes", recording)
        before = gc.isenabled()
        try:
            collector(enabled)
            assert len(enumerate_opetopes(4, 2)) == 45
            assert gc.isenabled() is enabled
            assert during == [False] * 5
        finally:
            collector(before)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_the_cap_restores_the_collector(self, monkeypatch, enabled):
        monkeypatch.setattr(opetope, "_ENUMERATED", {})
        before = gc.isenabled()
        try:
            collector(enabled)
            with pytest.raises(EnumerationLimit):
                enumerate_opetopes(3, 4, cap=10)
            assert gc.isenabled() is enabled
        finally:
            collector(before)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_running_out_of_memory_restores_the_collector(self, monkeypatch, enabled):
        monkeypatch.setattr(opetope, "_ENUMERATED", {})

        def exhausted(n, *args, **kwargs):
            raise MemoryError
            yield

        monkeypatch.setattr(opetope, "iter_opetopes", exhausted)
        before = gc.isenabled()
        try:
            collector(enabled)
            with pytest.raises(MemoryError):
                enumerate_opetopes(3, 2)
            assert gc.isenabled() is enabled
            assert opetope._ENUMERATED == {}
        finally:
            collector(before)

    def test_a_cold_enumeration_leaves_no_cycle(self):
        # a fresh interpreter, so that no kept enumeration hides the build;
        # the collector stays off, so that no pass after the build can free
        # a cycle before the count
        code = (
            "import gc\n"
            "from opetopic.opetope import enumerate_opetopes\n"
            "gc.collect(); gc.disable()\n"
            "assert len(enumerate_opetopes(5, 2)) == 191\n"
            "print(gc.collect(), gc.isenabled())\n"
        )
        src = str(Path(opetope.__file__).parents[1])
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "0 False\n"
