import itertools
import random
from dataclasses import dataclass

import pytest

from opetopic.address import EMPTY, Address
from opetopic.errors import CoherenceError, GraftError
from opetopic.trees import (
    Operation,
    Signature,
    Tree,
    check_tree,
    corolla,
    edge_color,
    graft,
    grow_trees,
    leaf_addresses,
    total_graft,
)

from conftest import ToySignature, random_toy_tree, substitute


# subtree decomposition: nothing in the library uses it, so it lives here


def subtree_at(sig: Signature, tree: Tree, edge: Address) -> Tree:
    """The full subtree hanging at an edge, translated to root position."""
    color = edge_color(sig, tree, edge)
    if tree.is_unit:
        return tree
    k = len(edge)
    picked = {
        Address(p[k:]): op
        for p, op in tree.nodes.items()
        if p[:k] == edge
    }
    if not picked:
        return Tree.unit(color)
    return Tree.of(picked)


@dataclass(frozen=True)
class SubtreeDecomposition:
    """A tree cut as outer part, inner subtree, and one branch per inner leaf."""

    outer: Tree
    hole: Address
    branches: dict[Address, Tree]

    def reassemble(self, sig: Signature, inner: Tree) -> Tree:
        glued = graft(sig, self.outer, self.hole, inner)
        result = glued
        for leaf in sorted(self.branches, reverse=True):
            result = graft(sig, result, self.hole.concat(leaf), self.branches[leaf])
        return result


def subtree_decomposition(
    sig: Signature, whole: Tree, root_edge: Address, inner: Tree
) -> SubtreeDecomposition:
    """Exhibit ``inner`` (translated by ``root_edge``) as a subtree of ``whole``.

    Raises GraftError naming the first mismatching address when the inner
    tree does not embed there.
    """
    if inner.is_unit:
        expected = edge_color(sig, whole, root_edge)
        if inner.unit_color != expected:
            raise GraftError(
                f"not a subtree: unit color {inner.unit_color!r} vs edge "
                f"{root_edge} colored {expected!r}"
            )
        inner_nodes: dict[Address, Operation] = {}
    else:
        if whole.is_unit:
            raise GraftError("not a subtree: the outer tree has no nodes")
        inner_nodes = inner.nodes
        for p in sorted(inner_nodes):
            translated = root_edge.concat(p)
            if translated not in whole.nodes:
                raise GraftError(f"not a subtree: no node at {translated}")
            if whole.nodes[translated] != inner_nodes[p]:
                raise GraftError(f"not a subtree: decoration differs at {translated}")
    if whole.is_unit:
        outer: Tree = whole
    else:
        k = len(root_edge)
        outer_nodes = {
            p: op
            for p, op in whole.nodes.items()
            if p[:k] != root_edge
        }
        if outer_nodes:
            outer = Tree.of(outer_nodes)
        else:
            outer = Tree.unit(edge_color(sig, whole, root_edge))
    branches: dict[Address, Tree] = {}
    if not inner.is_unit:
        for leaf in leaf_addresses(sig, inner):
            branches[leaf] = subtree_at(sig, whole, root_edge.concat(leaf))
    else:
        branches[EMPTY] = subtree_at(sig, whole, root_edge)
    return SubtreeDecomposition(outer=outer, hole=root_edge, branches=branches)


S0 = ToySignature.SLOT0
S1 = ToySignature.SLOT1


class TestElementary:
    def test_unit_tree(self, toy_sig):
        tree = Tree.unit("e")
        assert tree.node_addresses() == ()
        assert leaf_addresses(toy_sig, tree) == (EMPTY,)
        assert edge_color(toy_sig, tree, EMPTY) == "e"

    def test_corolla(self, toy_sig):
        tree = corolla("u")
        assert tree.node_addresses() == (EMPTY,)
        assert leaf_addresses(toy_sig, tree) == (EMPTY.child(S0),)

    def test_corolla_of_nullary_op_has_no_leaves(self, toy_sig):
        assert leaf_addresses(toy_sig, corolla("z")) == ()

    def test_root_required(self):
        with pytest.raises(CoherenceError):
            Tree.of({Address((EMPTY,)): "u"})


class TestGraft:
    def test_linear_graft(self, toy_sig):
        chain = graft(toy_sig, corolla("u"), EMPTY.child(S0), corolla("u"))
        assert set(chain.nodes) == {EMPTY, EMPTY.child(S0)}

    def test_unit_graft_left(self, toy_sig):
        tree = corolla("b")
        assert graft(toy_sig, Tree.unit("e"), EMPTY, tree) == tree

    def test_unit_graft_right(self, toy_sig):
        tree = corolla("b")
        leaf = leaf_addresses(toy_sig, tree)[0]
        assert graft(toy_sig, tree, leaf, Tree.unit("e")) == tree

    def test_not_a_leaf(self, toy_sig):
        with pytest.raises(GraftError):
            graft(toy_sig, corolla("u"), EMPTY, corolla("u"))

    def test_color_mismatch_names_both_colors(self, toy_sig):
        base = corolla("u")
        leaf = leaf_addresses(toy_sig, base)[0]
        with pytest.raises(GraftError) as info:
            graft(toy_sig, base, leaf, corolla("w"))
        assert "'e'" in str(info.value) and "'d'" in str(info.value)

    def test_address_formulas_random(self, toy_sig):
        rng = random.Random(42)
        for _ in range(300):
            base = random_toy_tree(rng, toy_sig, rng.randint(1, 5))
            leaves = leaf_addresses(toy_sig, base)
            if not leaves:
                continue
            leaf = rng.choice(leaves)
            scion = random_toy_tree(rng, toy_sig, rng.randint(1, 4))
            glued = graft(toy_sig, base, leaf, scion)
            assert set(glued.node_addresses()) == set(base.node_addresses()) | {
                leaf.concat(p) for p in scion.node_addresses()
            }
            assert set(leaf_addresses(toy_sig, glued)) == (
                set(leaves) - {leaf}
            ) | {leaf.concat(p) for p in leaf_addresses(toy_sig, scion)}


class TestTotalGraft:
    def test_order_invariance(self, toy_sig):
        base = corolla("b")
        assignment = {
            EMPTY.child(S0): corolla("u"),
            EMPTY.child(S1): corolla("z"),
        }
        results = set()
        for order in itertools.permutations(assignment):
            tree = base
            for leaf in order:
                tree = graft(toy_sig, tree, leaf, assignment[leaf])
            results.add(tree)
        assert len(results) == 1
        assert total_graft(toy_sig, base, assignment) in results

    def test_unit_assignment_is_identity(self, toy_sig):
        base = corolla("b")
        assignment = {
            leaf: Tree.unit("e") for leaf in leaf_addresses(toy_sig, base)
        }
        assert total_graft(toy_sig, base, assignment) == base

    def test_partial_assignment_rejected(self, toy_sig):
        with pytest.raises(GraftError) as info:
            total_graft(toy_sig, corolla("b"), {EMPTY.child(S0): corolla("u")})
        assert "missing" in str(info.value)


class TestSubtreeDecomposition:
    def test_chain_example(self, toy_sig):
        chain = Tree.of(
            {
                EMPTY: "u",
                EMPTY.child(S0): "u",
                EMPTY.child(S0).child(S0): "u",
            }
        )
        inner = corolla("u")
        dec = subtree_decomposition(toy_sig, chain, EMPTY.child(S0), inner)
        assert set(dec.outer.nodes) == {EMPTY}
        assert dec.reassemble(toy_sig, inner) == chain

    def test_whole_tree_at_root(self, toy_sig):
        tree = corolla("b")
        dec = subtree_decomposition(toy_sig, tree, EMPTY, tree)
        assert dec.outer.is_unit
        assert all(branch.is_unit for branch in dec.branches.values())
        assert dec.reassemble(toy_sig, tree) == tree

    def test_unit_at_leaf(self, toy_sig):
        tree = corolla("u")
        leaf = leaf_addresses(toy_sig, tree)[0]
        dec = subtree_decomposition(toy_sig, tree, leaf, Tree.unit("e"))
        assert dec.outer == tree
        assert dec.reassemble(toy_sig, Tree.unit("e")) == tree

    def test_not_a_subtree_reports_address(self, toy_sig):
        chain = graft(toy_sig, corolla("u"), EMPTY.child(S0), corolla("z"))
        with pytest.raises(GraftError) as info:
            subtree_decomposition(toy_sig, chain, EMPTY.child(S0), corolla("u"))
        assert "decoration differs" in str(info.value)

    def test_random_reassembly(self, toy_sig):
        rng = random.Random(5)
        for _ in range(200):
            whole = random_toy_tree(rng, toy_sig, rng.randint(1, 6))
            edges = [EMPTY] + [
                p for p in whole.node_addresses() if p != EMPTY
            ] + list(leaf_addresses(toy_sig, whole))
            edge = rng.choice(edges)
            inner = subtree_at(toy_sig, whole, edge)
            dec = subtree_decomposition(toy_sig, whole, edge, inner)
            assert dec.reassemble(toy_sig, inner) == whole


class TestSubstitute:
    def test_node_count(self, toy_sig):
        rng = random.Random(11)
        for _ in range(200):
            outer = random_toy_tree(rng, toy_sig, rng.randint(1, 5))
            at = rng.choice(outer.node_addresses())
            arity = len(toy_sig.inputs(outer.nodes[at]))
            # build a replacement with exactly `arity` leaves
            if arity == 0:
                inner = corolla("z")
            elif arity == 1:
                inner = corolla("u")
            else:
                inner = corolla("b")
            glue = dict(
                zip(leaf_addresses(toy_sig, inner), toy_sig.inputs(outer.nodes[at]))
            )
            result, moves = substitute(toy_sig, outer, at, inner, glue)
            assert result.size == outer.size - 1 + inner.size
            assert set(moves) == set(outer.node_addresses()) - {at}

    def test_unit_substitution_splices(self, toy_sig):
        chain = Tree.of({EMPTY: "u", EMPTY.child(S0): "u"})
        result, moves = substitute(
            toy_sig, chain, EMPTY, Tree.unit("e"), {EMPTY: S0}
        )
        assert set(result.nodes) == {EMPTY}
        assert moves[EMPTY.child(S0)] == EMPTY

    def test_unit_into_corolla_gives_unit(self, toy_sig):
        result, moves = substitute(
            toy_sig, corolla("u"), EMPTY, Tree.unit("e"), {EMPTY: S0}
        )
        assert result.is_unit and result.unit_color == "e"
        assert moves == {}


class TestValidation:
    def test_orphan_detected(self, toy_sig):
        broken = Tree.of({EMPTY: "u", EMPTY.child(S0).child(S0): "u"})
        with pytest.raises(CoherenceError) as info:
            check_tree(toy_sig, broken)
        assert "orphan" in str(info.value)

    def test_wrong_slot_detected(self, toy_sig):
        broken = Tree.of({EMPTY: "u", EMPTY.child(S1): "u"})
        with pytest.raises(CoherenceError):
            check_tree(toy_sig, broken)

    def test_color_coherence_detected(self, toy_sig):
        broken = Tree.of({EMPTY: "u", EMPTY.child(S0): "w"})
        with pytest.raises(CoherenceError) as info:
            check_tree(toy_sig, broken)
        assert "edge mismatch" in str(info.value)


def grown(sig, ops, bound):
    return [tree for tree, _, _, _ in grow_trees(sig, ops, ops, bound)]


class TestEnumerateTrees:
    def test_hand_count_small(self, toy_sig):
        ops = ["z", "u", "b"]
        # the b corolla has 2 leaves, so bound 1 keeps only z and u
        trees = grown(toy_sig, ops, 1)
        assert len(trees) == 2
        trees = grown(toy_sig, ops, 2)
        # 3 corollas, 3 one-child chains under u, 2 slots x 2 ops under b:
        # b grafted on b has 3 leaves
        assert len(trees) == 3 + 3 + 4

    def test_zero_nodes_grows_nothing(self, toy_sig):
        assert grown(toy_sig, ["z", "u", "b"], 0) == []

    def test_deterministic_and_duplicate_free(self, toy_sig):
        ops = ["z", "u", "b"]
        first = grown(toy_sig, ops, 3)
        second = grown(toy_sig, ops, 3)
        assert first == second
        assert len(set(first)) == len(first)

    def test_leaf_bound(self, toy_sig):
        # every tree within the bound is grown from a tree within 2b + 2,
        # whichever order the nodes and leaves were added in
        ops = ["z", "u", "b"]
        for bound, count in [(1, 2), (2, 10), (3, 43)]:
            bounded = grown(toy_sig, ops, bound)
            wider = grown(toy_sig, ops, 2 * bound + 2)
            expected = {
                tree
                for tree in wider
                if tree.size <= bound
                and len(leaf_addresses(toy_sig, tree)) <= bound
            }
            assert len(bounded) == count
            assert set(bounded) == expected
