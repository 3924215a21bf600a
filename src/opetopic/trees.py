"""Decorated trees over a graded signature.

This is the shared kernel behind opetopes (signature = opetopes one
dimension down) and polygraph cells (signature = the generator signature of
a stage).  A tree is either a bare edge carrying a color, or a finite map
from node addresses to operations, kept in address order: ``Tree.of`` and
``flatten`` sort maps, and the rest derive them from ordered ones.  The map
encoding makes grafting and readdressing pure address bookkeeping:

* grafting attaches a tree to a leaf, prefixing its addresses by the leaf;
* ``flatten`` contracts a tree of operations into a single composite one
  level down, keeping track of where each leaf ends up (the readdressing
  map).  Only that map is grown: node by node, a leaf's image gives way
  to the images of the node's children, and the images above it are
  rerouted through the node's gluing.  The flat tree carries each leaf's
  color at its image.  This is the structure map that computes opetope
  targets and polygraph cell sources;
* ``grow_trees`` grows every tree by grafting corollas at leaves; it
  builds both opetopes and the cells of the terminal polygraph.  Above
  the arrow level, where trees are chains, it grows the readdressing
  alongside, one graft at a time by the same rerouting rule, and reads
  each flat tree off the leaf colors.
"""

from __future__ import annotations

import gc
from abc import ABC, abstractmethod
from contextlib import contextmanager
from typing import Hashable, Iterable, Iterator, Mapping

from .address import EMPTY, Address, _trusted
from .errors import (
    AddressError,
    CoherenceError,
    GraftError,
    Value,
)

Color = Hashable
Operation = Hashable


@contextmanager
def collector_paused():
    """Pause the cyclic collector around a bulk build that keeps what it
    makes and makes no reference cycle, where a collection frees nothing.
    The state on entry comes back on exit, also on an error, so nested
    builds leave it as the caller had it.  When the outermost pause ends
    normally and nothing is frozen, ``gc.freeze`` then ``gc.unfreeze``
    promote every tracked object to the oldest generation in constant
    time, so no young pass rescans the build; objects the caller made
    earlier are promoted too.  Never wrap a generator that yields to
    caller code."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
        # ``unfreeze`` would release what the caller froze
        if enabled and not gc.get_freeze_count():
            gc.freeze()
            gc.unfreeze()
    finally:
        if enabled:
            gc.enable()


class Signature(ABC):
    """What trees need to know about their node decorations.

    ``inputs`` lists the slots of an operation as addresses in ascending
    order, ``source_color`` and ``target_color`` give the edge colors around
    it.  Signatures whose operations are themselves built from trees one
    level down override ``source_tree`` and provide ``sub_readdress`` (a
    bijection from the leaves of that tree to the inputs of the operation's
    target) and the ``sub_signature`` those trees live over; this is what
    ``flatten`` needs.  ``source_tree`` is None by default, which marks the
    bottom level, where every operation has one input (arrows, 1-generators).
    ``grower_entry`` gathers from these what ``grow_trees`` needs of an op.
    """

    @abstractmethod
    def inputs(self, op: Operation) -> tuple[Address, ...]: ...

    @abstractmethod
    def source_color(self, op: Operation, address: Address) -> Color: ...

    @abstractmethod
    def target_color(self, op: Operation) -> Color: ...

    def source_tree(self, op: Operation) -> "Tree | None":
        return None

    def grower_entry(self, op: Operation) -> tuple:
        """``(slots, colors, inverse, source, target)``: the input slots in
        ascending order and their colors, the gluing inverted from inputs
        of the target to leaves of the source tree, the source tree, and
        the target color."""
        slots, source = self.inputs(op), self.source_tree(op)
        glue = () if source is None else self.sub_readdress(op).items()
        colors = tuple(self.source_color(op, slot) for slot in slots)
        return slots, colors, {s: leaf for leaf, s in glue}, source, self.target_color(op)


class Tree:
    """An immutable decorated tree: a bare edge or a node-address map.

    A node map always contains the root address ``[]``; every other key is
    parent-address plus one input of the parent's decoration.  The map is
    kept in address order: the constructor and ``Tree.of`` sort it, and
    ``Tree._wrap`` takes a map that its caller built in order.
    """

    __slots__ = ("_unit", "_nodes", "_hash")

    def __init__(self, unit: Color | None, nodes: Mapping[Address, Operation] | None):
        if (unit is None) == (nodes is None):
            raise ValueError("a tree is either a unit edge or a node map")
        if nodes is not None and EMPTY not in nodes:
            raise CoherenceError("a node map must contain the root address []")
        self._unit = unit
        self._nodes = dict(sorted(nodes.items())) if nodes is not None else None
        self._hash: int | None = None

    @staticmethod
    def unit(color: Color) -> "Tree":
        return Tree(color, None)

    @staticmethod
    def of(nodes: Mapping[Address, Operation]) -> "Tree":
        return Tree(None, nodes)

    @staticmethod
    def _wrap(nodes: dict) -> "Tree":
        """Adopt a fresh dict built in address order as is; internal fast path."""
        tree = object.__new__(Tree)
        tree._unit = None
        tree._nodes = nodes
        tree._hash = None
        return tree

    @property
    def is_unit(self) -> bool:
        return self._nodes is None

    @property
    def unit_color(self) -> Color:
        if self._nodes is not None:
            raise AddressError("not a unit tree")
        return self._unit

    @property
    def nodes(self) -> dict[Address, Operation]:
        if self._nodes is None:
            raise AddressError("a unit tree has no nodes")
        return self._nodes

    def node_addresses(self) -> tuple[Address, ...]:
        return () if self._nodes is None else tuple(self._nodes)

    def decoration(self, address: Address) -> Operation:
        if self._nodes is None or address not in self._nodes:
            raise AddressError(f"no node at address {address}")
        return self._nodes[address]

    @property
    def size(self) -> int:
        return 0 if self._nodes is None else len(self._nodes)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Tree):
            return NotImplemented
        return self._unit == other._unit and self._nodes == other._nodes

    def __hash__(self) -> int:
        if self._hash is None:
            if self._nodes is None:
                self._hash = hash(("unit", self._unit))
            else:
                self._hash = hash(frozenset(self._nodes.items()))
        return self._hash

    def __reduce__(self):
        # without the cached hash, which is of this process's identities
        return Tree, (self._unit, self._nodes)

    def __repr__(self) -> str:
        if self._nodes is None:
            return f"Tree.unit({self._unit!r})"
        items = ", ".join(f"{a}: {op!r}" for a, op in self._nodes.items())
        return "Tree.of({" + items + "})"


def corolla(op: Operation) -> Tree:
    """The one-node tree decorated by ``op``."""
    return Tree._wrap({EMPTY: op})


def leaf_addresses(sig: Signature, tree: Tree) -> tuple[Address, ...]:
    """Addresses of input slots not occupied by a node; ``([],)`` for a unit."""
    if tree.is_unit:
        return (EMPTY,)
    nodes = tree.nodes
    leaves = []
    for p, op in nodes.items():
        for q in sig.inputs(op):
            a = _trusted(p + (q,))
            if a not in nodes:
                leaves.append(a)
    return tuple(sorted(leaves))


def edge_color(sig: Signature, tree: Tree, address: Address) -> Color:
    """Color of the edge at ``address``: the root edge or an input slot."""
    if tree.is_unit:
        if address == EMPTY:
            return tree.unit_color
        raise AddressError(f"a unit tree has no edge at {address}")
    if address == EMPTY:
        return sig.target_color(tree.nodes[EMPTY])
    p, q = address.parent, address.last
    if p not in tree.nodes:
        raise AddressError(f"no node at address {p}")
    op = tree.nodes[p]
    if q not in sig.inputs(op):
        raise AddressError(f"{q} is not an input of the node at {p}")
    return sig.source_color(op, q)


def check_tree(sig: Signature, tree: Tree) -> None:
    """Raise CoherenceError unless the tree condition and coherence hold."""
    if tree.is_unit:
        return
    nodes = tree.nodes
    for p, op in nodes.items():
        if p == EMPTY:
            continue
        parent, slot = p.parent, p.last
        if parent not in nodes:
            raise CoherenceError(f"orphan node at {p}: parent {parent} is missing")
        parent_op = nodes[parent]
        if slot not in sig.inputs(parent_op):
            raise CoherenceError(
                f"node at {p} sits on {slot}, not an input of the node at {parent}"
            )
        got = sig.target_color(op)
        wanted = sig.source_color(parent_op, slot)
        if got != wanted:
            raise CoherenceError(
                f"edge mismatch at {p}: decoration targets {got!r} "
                f"but the slot expects {wanted!r}"
            )


def graft(sig: Signature, base: Tree, leaf: Address, scion: Tree) -> Tree:
    """Attach ``scion`` onto the leaf of ``base`` at ``leaf``.

    New node addresses are ``leaf`` followed by the scion address; grafting
    a unit returns the other tree unchanged.
    """
    if base.is_unit:
        if leaf != EMPTY:
            raise GraftError(f"a unit tree has no leaf at {leaf}")
        _check_graft_colors(sig, base, leaf, scion)
        return scion
    if leaf not in set(leaf_addresses(sig, base)):
        raise GraftError(f"{leaf} is not a leaf of the base tree")
    _check_graft_colors(sig, base, leaf, scion)
    if scion.is_unit:
        return base
    merged = dict(base.nodes)
    for p, op in scion.nodes.items():
        merged[leaf.concat(p)] = op
    return Tree.of(merged)


def _check_graft_colors(sig: Signature, base: Tree, leaf: Address, scion: Tree) -> None:
    base_color = edge_color(sig, base, leaf)
    scion_color = edge_color(sig, scion, EMPTY)
    if base_color != scion_color:
        raise GraftError(
            f"cannot graft at {leaf}: leaf color {base_color!r} "
            f"!= root color {scion_color!r}"
        )


def total_graft(sig: Signature, base: Tree, assignment: Mapping[Address, Tree]) -> Tree:
    """Graft one tree onto every leaf; the order is immaterial."""
    leaves = set(leaf_addresses(sig, base))
    if set(assignment) != leaves:
        missing = sorted(leaves - set(assignment))
        extra = sorted(set(assignment) - leaves)
        parts = []
        if missing:
            parts.append("missing leaves " + ", ".join(map(str, missing)))
        if extra:
            parts.append("spurious leaves " + ", ".join(map(str, extra)))
        raise GraftError("total grafting: " + "; ".join(parts))
    result = base
    for leaf in sorted(assignment, reverse=True):
        result = graft(sig, result, leaf, assignment[leaf])
    return result


class FlattenResult(Value):
    __slots__ = ("tree", "readdress")

    def __init__(self, tree: Tree, readdress: dict[Address, Address]):
        self.tree, self.readdress = tree, readdress


def flatten(sig: Signature, tree: Tree) -> FlattenResult:
    """Contract a tree of operations into one composite a level down.

    The unit on a color becomes the corolla at that color.  Operations
    without a source tree (arrows, 1-generators) have one input each, so
    their trees are chains; this is the base case, and a chain also
    becomes the corolla on the color of its only leaf.  Otherwise the
    readdressing, a bijection from the leaves of the input onto the nodes
    of the result, starts from the root's source tree and grows node by
    node by the rule of ``grow_trees``; the result carries each leaf's
    color at its image, sorted by address, or is the last node's unit tree.
    """
    if tree.is_unit:
        return FlattenResult(corolla(tree.unit_color), {EMPTY: EMPTY})
    nodes = tree.nodes
    if EMPTY not in nodes:
        raise CoherenceError("node map does not contain the root address")
    root_op = nodes[EMPTY]
    source = sig.source_tree(root_op)
    if source is None:
        # a chain: the deepest node, the last address, holds the leaf
        deepest, op = next(reversed(nodes.items()))
        (slot,) = sig.inputs(op)
        leaf = _trusted(deepest + (slot,))
        return FlattenResult(corolla(sig.source_color(op, slot)), {leaf: EMPTY})
    sub = sig.sub_signature()
    # leaf to image, and leaf to its color, which decorates the image; an
    # operation's source tree is a unit exactly where it has no inputs
    rho, colors = {}, {}
    for e in sig.inputs(root_op):
        leaf = _trusted((e,))
        rho[leaf], colors[leaf] = e, source._nodes[e]
    for p, op in list(nodes.items())[1:]:
        if p not in rho:
            raise CoherenceError(f"node at {p} is not attached to a leaf")
        r = rho.pop(p)
        source = sig.source_tree(op)
        glue = sig.sub_readdress(op)
        slots = sub.inputs(colors.pop(p))
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
        # the leaf's image gives way to its children's, and the images
        # strictly above it are rerouted through the inverted gluing
        k = len(r)
        try:
            for leaf, image in rho.items():
                if len(image) > k and image[:k] == r:
                    rho[leaf] = _trusted(r + inverse[image[k]] + image[k + 1 :])
        except KeyError:
            raise GraftError(
                f"cannot reroute image {image} through the node at {p}: "
                f"its gluing has no input {image[k]}"
            ) from None
        for e in sig.inputs(op):
            leaf = _trusted(p + (e,))
            rho[leaf], colors[leaf] = _trusted(r + e), source._nodes[e]
    if not rho:
        return FlattenResult(source, rho)
    flat = {image: colors[leaf] for leaf, image in rho.items()}
    if len(flat) != len(rho):
        raise CoherenceError("flatten readdressing failed to be a bijection")
    return FlattenResult(Tree._wrap(dict(sorted(flat.items()))), rho)


# the grower's address tables, shared by every grower: a graft's new
# leaves ``leaf + (slot,)`` and images ``anchor + slot`` depend only on
# that address and the operation's input slots, so each tuple of them is
# built once, and the trees grown share their address objects
_CHILDREN: dict[Address, dict[tuple[Address, ...], tuple[Address, ...]]] = {}
_IMAGES: dict[Address, dict[tuple[Address, ...], tuple[Address, ...]]] = {}


def grow_trees(
    sig: Signature,
    operations: Iterable[Operation],
    roots: Iterable[Operation],
    bound: int,
) -> Iterator[
    tuple[Tree, Tree | None, tuple[Address, ...] | None, tuple[Address, ...]]
]:
    """The node-map trees with a root from ``roots`` and further nodes from
    ``operations`` (which contains the roots), with at most ``bound``
    nodes and at most ``bound`` leaves.

    Corollas are grafted at leaves in strictly ascending address order,
    which reaches every tree exactly once, root by root in the given order,
    and each in address order, since a new node sorts after every old one.
    Yields ``(tree, flat, rho, leaves)``: when the operations have source
    trees, ``flatten``'s result tree and its readdressing as a tuple aligned
    with ``leaves``, otherwise ``None, None``; and the tree's leaf addresses
    in ascending order, as ``leaf_addresses`` gives them.  Only the readdressing is grown:
    grafting ``op`` at a leaf with image ``a`` gives its new leaves ``a``
    plus their slot and reroutes each image strictly above ``a`` through
    ``op``'s gluing, the rule ``flatten`` applies node by node.  By leaf
    globularity the flat tree is read off the leaf colors.

    New leaves and images come from the module's shared address tables,
    ``{leaf: {slots: new leaves}}`` and ``{anchor: {slots: new images}}``,
    which hold only addresses.  The operation table, one
    ``sig.grower_entry`` per operation, is built with the collector
    paused; the yields are not.  A finished or closed grower leaves no
    reference cycle.
    """
    if bound < 1:
        return
    children_of, images_of = _CHILDREN, _IMAGES
    # per operation its grower entry, whose source tree is the flat tree
    # of its corolla and of any tree left without leaves by grafting it;
    # operations are bucketed by (target color, arity) so that the leaf
    # bound picks a prefix
    info = {}
    by_target: dict[Color, list[list[Operation]]] = {}
    with collector_paused():
        for op in operations:
            entry = info[op] = sig.grower_entry(op)
            arity = len(entry[0])
            buckets = by_target.setdefault(entry[4], [])
            while len(buckets) <= arity:
                buckets.append([])
            buckets[arity].append(op)
        readdress = any(source is not None for _, _, _, source, _ in info.values())
        # per leaf color, admissible[color][s] lists the operations of arity
        # below s by arity; the last entry lists them all
        width = max(map(len, by_target.values()), default=0) + 1
        admissible = {
            color: [tuple(op for ops in buckets[:s] for op in ops) for s in range(width)]
            for color, buckets in by_target.items()
        }

    # ``grow`` is handed itself: a closure over its own name would make
    # every grower a reference cycle, keeping ``info`` and ``admissible``
    # alive until a cyclic collection
    def grow(grow, nodes, leaves, colors, rho, start):
        # ``leaves`` is sorted and ``colors`` and ``rho`` run alongside it;
        # leaves are an antichain, so the children of a grafted leaf take
        # its place in the order, and grafting goes on from there
        budget = bound - len(nodes)
        # adding a node with a inputs leaves at least
        # len(leaves) - 1 + a - (budget - 1) leaves in any completion
        cut = min(max(bound + budget - len(leaves) + 1, 0), width - 1)
        for i in range(start, len(leaves)):
            prefixes = admissible.get(colors[i])
            if prefixes is None or not (ops := prefixes[cut]):
                continue
            leaf = leaves[i]
            before, after = leaves[:i], leaves[i + 1 :]
            colors_before, colors_after = colors[:i], colors[i + 1 :]
            # the tables are read by subscript, which makes no call on a
            # hit; a miss, which raises, comes once per entry
            try:
                children = children_of[leaf]
            except KeyError:
                children = children_of[leaf] = {}
            if readdress:
                anchor = rho[i]
                k = len(anchor)
                # the leaves other than leaf i whose images lie strictly above the anchor
                above = [j for j, r in enumerate(rho) if r[:k] == anchor and j != i]
                try:
                    images = images_of[anchor]
                except KeyError:
                    images = images_of[anchor] = {}
            for op in ops:
                slots, op_colors, inverse, source, _ = info[op]
                new_nodes = {**nodes, leaf: op}
                try:
                    new = children[slots]
                except KeyError:
                    new = children[slots] = tuple([_trusted(leaf + (s,)) for s in slots])
                new_leaves = before + new + after
                new_colors = colors_before + op_colors + colors_after
                new_rho = None
                if readdress:
                    new_rho = list(rho)
                    for j in above:
                        r = rho[j]
                        new_rho[j] = _trusted(anchor + inverse[r[k]] + r[k + 1 :])
                    try:
                        new = images[slots]
                    except KeyError:
                        new = images[slots] = tuple([_trusted(anchor + s) for s in slots])
                    new_rho[i : i + 1] = new
                    new_rho = tuple(new_rho)
                if len(new_leaves) <= bound:
                    flat = source
                    if nodes and new_rho:
                        # leaf globularity: a leaf's image is decorated by its color;
                        # unsorted, as it is only a lookup key and ``Tree.__eq__``
                        # and ``__hash__`` ignore order
                        flat = Tree._wrap(dict(zip(new_rho, new_colors)))
                    yield Tree._wrap(new_nodes), flat, new_rho, new_leaves
                if budget > 1:
                    yield from grow(grow, new_nodes, new_leaves, new_colors, new_rho, i)

    # the unit edge's one leaf, colored by a fresh key, takes the roots
    root = object()
    admissible[root] = [tuple(roots)] * width
    yield from grow(grow, {}, (EMPTY,), (root,), (EMPTY,) if readdress else None, 0)
