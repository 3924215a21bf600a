import random
from typing import Mapping

import pytest
from hypothesis import strategies as st

from opetopic.address import EMPTY, Address, _trusted
from opetopic.errors import (
    AddressError,
    CoherenceError,
    GraftError,
    Report,
    UnknownNameError,
    Value,
)
from opetopic.polygraph import MtoPolygraph
from opetopic.realization import ShapeResult, realize_opetope
from opetopic.trees import FlattenResult, Operation, Signature, Tree, corolla


def addresses(max_entries: int = 3, max_leaves: int = 8):
    return st.recursive(
        st.just(EMPTY),
        lambda inner: st.lists(inner, max_size=max_entries).map(
            lambda entries: Address(tuple(entries))
        ),
        max_leaves=max_leaves,
    )


class ToySignature(Signature):
    """Two colors and a handful of operations, enough to exercise trees.

    ``z`` has no inputs, ``u`` one, ``b`` two; ``w`` crosses from color d
    back to e so color mismatches are constructible.
    """

    SLOT0 = EMPTY
    SLOT1 = Address((EMPTY,))

    TABLE = {
        # op: (input slots, input colors, target color)
        "z": ((), (), "e"),
        "u": ((SLOT0,), ("e",), "e"),
        "b": ((SLOT0, SLOT1), ("e", "e"), "e"),
        "w": ((SLOT0,), ("e",), "d"),
    }

    def inputs(self, op):
        return self.TABLE[op][0]

    def source_color(self, op, address):
        slots, colors, _ = self.TABLE[op]
        return colors[slots.index(address)]

    def target_color(self, op):
        return self.TABLE[op][2]


@pytest.fixture
def toy_sig():
    return ToySignature()


def random_toy_tree(rng: random.Random, sig: ToySignature, size: int) -> Tree:
    """Random tree over the toy signature with exactly ``size`` nodes when
    possible (growth stops early if no leaf remains)."""
    from opetopic.trees import corolla, edge_color, graft, leaf_addresses

    ops = [op for op in sig.TABLE if sig.target_color(op) == "e"]
    tree = corolla(rng.choice(ops))
    while tree.size < size:
        leaves = leaf_addresses(sig, tree)
        if not leaves:
            break
        leaf = rng.choice(leaves)
        color = edge_color(sig, tree, leaf)
        choices = [op for op in sig.TABLE if sig.target_color(op) == color]
        tree = graft(sig, tree, leaf, corolla(rng.choice(choices)))
    return tree


@pytest.fixture
def path_polygraph():
    P = MtoPolygraph()
    for name in "abc":
        P.add_point(name)
    P.add_arrow("f", "a", "b")
    P.add_arrow("g", "b", "c")
    P.add_arrow("h", "a", "c")
    P.add_generator(2, "m", Tree.of({EMPTY: "g", Address((EMPTY,)): "f"}), "h")
    return P


@pytest.fixture
def loop_polygraph():
    P = MtoPolygraph()
    P.add_point("a")
    P.add_arrow("f", "a", "a")
    P.add_generator(2, "m", Tree.of({EMPTY: "f"}), "f")
    return P


# substitution and the flatten built on it: the library grows only the
# readdressing, and these stay its independent oracle


def substitute(
    sig: Signature,
    outer: Tree,
    at: Address,
    inner: Tree,
    glue: Mapping[Address, Address],
    node: Address | None = None,
) -> tuple[Tree, dict[Address, Address]]:
    """Replace the node of ``outer`` at ``at`` by the whole tree ``inner``.

    ``glue`` matches each leaf address of ``inner`` with an input of the
    removed operation; nodes of ``outer`` that sat above the removed node
    through input ``q`` are rerouted through the leaf ``glue^-1(q)``.
    Returns the new tree and the map sending each surviving node of
    ``outer`` to its new address.  Substituting a unit splices the removed
    node out entirely.  A node sitting above an input that ``glue`` lacks
    is a ``GraftError``, whose message names the removed node by ``node``
    (``at`` if not given).
    """
    if outer.is_unit:
        raise AddressError("cannot substitute into a unit tree")
    nodes = outer.nodes
    if at not in nodes:
        raise AddressError(f"no node at address {at}")
    removed = nodes[at]
    slots = sig.inputs(removed)
    inverse: dict[Address, Address] = {}
    for leaf, slot in glue.items():
        if slot in inverse:
            raise GraftError(f"gluing is not injective at input {slot}")
        inverse[slot] = leaf
    if set(inverse) != set(slots):
        raise GraftError(
            "gluing does not match the inputs of the removed node: "
            f"{sorted(map(str, inverse))} vs {sorted(map(str, slots))}"
        )
    moves: dict[Address, Address] = {}
    out: dict[Address, Operation] = {}
    k = len(at)
    for p, op in nodes.items():
        if len(p) > k and p[:k] == at:
            if p[k] not in inverse:
                raise GraftError(
                    f"cannot reroute image {p} through the node at "
                    f"{at if node is None else node}: its gluing has no input {p[k]}"
                )
            # the glued leaf's entries are spliced in, not nested
            q = _trusted(at + inverse[p[k]] + p[k + 1 :])
            moves[p] = q
            out[q] = op
        elif p != at:
            moves[p] = p
            out[p] = op
    if not inner.is_unit:
        for v, op in inner.nodes.items():
            out[_trusted(at + v)] = op
    if not out:
        return Tree.unit(inner.unit_color), moves
    return Tree.of(out), moves



def flatten(sig: Signature, tree: Tree) -> FlattenResult:
    """Contract a tree of operations into one composite a level down.

    The unit on a color becomes the corolla at that color.  Operations
    without a source tree (arrows, 1-generators) have one input each, so
    their trees are chains; this is the base case, and a chain also
    becomes the corolla on the color of its only leaf.  Otherwise a corolla
    becomes its operation's source tree, and each further node substitutes
    its source tree into the partial result at the node its attachment
    leaf readdresses to.  The returned map is a bijection from the leaves
    of the input onto the nodes of the result.
    """
    if tree.is_unit:
        return FlattenResult(corolla(tree.unit_color), {EMPTY: EMPTY})
    nodes = tree.nodes
    if EMPTY not in nodes:
        raise CoherenceError("node map does not contain the root address")
    root_op = nodes[EMPTY]
    result = sig.source_tree(root_op)
    if result is None:
        # a chain: the deepest node, the greatest address, holds the leaf
        deepest = max(nodes)
        op = nodes[deepest]
        (slot,) = sig.inputs(op)
        leaf = deepest.child(slot)
        return FlattenResult(corolla(sig.source_color(op, slot)), {leaf: EMPTY})
    sub = sig.sub_signature()
    rho = {EMPTY.child(e): e for e in sig.inputs(root_op)}
    for p, op in sorted(nodes.items(), key=lambda kv: kv[0])[1:]:
        if p not in rho:
            raise CoherenceError(f"node at {p} is not attached to a leaf")
        r = rho.pop(p)
        inner = sig.source_tree(op)
        glue = sig.sub_readdress(op)
        result, moves = substitute(sub, result, r, inner, glue, node=p)
        rho = {leaf: moves[node] for leaf, node in rho.items()}
        for e in sig.inputs(op):
            rho[p.child(e)] = r.concat(e)
    result_nodes = set(result.nodes) if not result.is_unit else set()
    if set(rho.values()) != result_nodes or len(rho) != len(result_nodes):
        raise CoherenceError("flatten readdressing failed to be a bijection")
    return FlattenResult(result, rho)


# polygraph morphisms: the library reads a generator's induced map off
# the nerve, and this validator stays its independent oracle


class PolygraphMorphism(Value):
    """Dimension-indexed generator maps preserving boundaries."""

    __slots__ = ("source", "target", "maps")

    def __init__(
        self, source: MtoPolygraph, target: MtoPolygraph, maps: dict[int, dict[str, str]]
    ):
        self.source, self.target, self.maps = source, target, maps

    def apply(self, dim: int, name: str) -> str:
        try:
            return self.maps[dim][name]
        except KeyError:
            raise UnknownNameError(f"morphism undefined on {dim}-generator {name!r}")

    def map_tree(self, dim: int, tree: Tree) -> Tree:
        """Relabel decorations; addresses carry over unchanged."""
        if tree.is_unit:
            return Tree.unit(self.apply(dim - 1, tree.unit_color))
        return Tree._wrap({p: self.apply(dim, op) for p, op in tree.nodes.items()})

    def validate(self) -> Report:
        report = Report()
        for dim, mapping in sorted(self.maps.items()):
            sources, targets = self.source._generators(dim), self.target._generators(dim)
            # a boundary name the map lacks is reported below, not compared
            lower = self.maps.get(dim - 1, {})
            for name, image in mapping.items():
                if name not in sources:
                    report.fail(f"map names unknown {dim}-generator {name!r}")
                elif image not in targets:
                    report.fail(f"{dim}-generator {name!r} maps to unknown {image!r}")
                elif dim:
                    data, image_data = sources[name], targets[image]
                    try:
                        tree = self.map_tree(dim - 1, data.source_tree)
                    except UnknownNameError:
                        tree = image_data.source_tree
                    # a 1-generator's source, the point of its corolla, comes first
                    end, kept = image_data.target, tree == image_data.source_tree
                    if dim == 1 and not kept:
                        report.fail(f"1-generator {name!r}: source not preserved")
                    if lower.get(data.target, end) != end:
                        report.fail(f"{dim}-generator {name!r}: target not preserved")
                    if dim > 1 and not kept:
                        report.fail(f"{dim}-generator {name!r}: source tree not preserved")
        for dim in range(0, self.source.max_dim + 1):
            for name in self.source.generators(dim):
                if dim not in self.maps or name not in self.maps[dim]:
                    report.fail(f"morphism undefined on {dim}-generator {name!r}")
        return report


def induced_morphism(P: MtoPolygraph, result: ShapeResult) -> PolygraphMorphism:
    """The morphism from the realization of the shape that ``shape_of``
    found to P, under the generator maps it read off the nerve."""
    return PolygraphMorphism(realize_opetope(result.shape), P, result.induced)
