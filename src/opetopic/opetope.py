"""Opetopes of every dimension as decorated trees, with faces and targets.

An n-opetope for n >= 2 is a tree whose nodes are (n-1)-opetopes and whose
edges are (n-2)-opetopes; dimensions 0 and 1 are the point and the arrow.
A unit tree is a degenerate opetope.  The target of an opetope and the
readdressing bijection from its leaves onto the target's nodes are computed
by flattening the tree one dimension down.

Opetopes are hash-consed: the factory functions here return one instance
per opetope, so equality and hashing are the object defaults, identity.
The intern table holds each live opetope weakly, keyed by its tree (the
point and the arrow by their dimension).  A tree's node decorations are
interned opetopes one dimension down, so hashing or comparing keys stops
one level down.  An opetope that nothing else holds leaves the table when
it dies, and a later build makes a new canonical instance.  What is
computed about an opetope is kept on it and dies with it: its target and
readdressing, its leaves, and the faces, relation squares and slice table
that ``category`` builds.  The readdressing is kept as the tuple of leaf
images aligned with the sorted leaves, as the grower hands it over, and
``readdress`` builds a fresh dict from the two on each call.
"""

from __future__ import annotations

import gc
import weakref
from contextlib import contextmanager
from itertools import islice

from .address import EMPTY, Address
from .errors import AddressError, CoherenceError, EnumerationLimit, Report
from .trees import (
    Signature,
    Tree,
    check_tree,
    flatten,
    grow_trees,
    leaf_addresses,
)

DEFAULT_ENUMERATION_CAP = 500_000


@contextmanager
def collector_paused():
    """Pause the cyclic collector around a bulk build that keeps what it
    makes and makes no reference cycle, where a collection frees nothing.
    The state on entry comes back on exit, also on an error, so nested
    builds leave it as the caller had it.  Never wrap a generator that
    yields to caller code."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class Opetope:
    """An opetope; use the factory functions, not the constructor."""

    __slots__ = (
        "_dim", "_tree", "_boundary", "_str", "_leaves",
        "_faces", "_relations", "_slices", "__weakref__",
    )

    def __init__(self, dim: int, tree: Tree | None):
        self._dim = dim
        self._tree = tree
        # the target, and the readdressing as leaf images in ``_leaves`` order
        self._boundary: tuple["Opetope", tuple[Address, ...]] | None = None
        self._str: str | None = None
        self._leaves: tuple[Address, ...] | None = None
        # kept by ``category``: faces_of, relation_instances, slice_table
        self._faces: tuple | None = None
        self._relations: tuple | None = None
        self._slices = None

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def tree(self) -> Tree:
        if self._tree is None:
            raise AddressError(f"a {self._dim}-opetope has no underlying tree")
        return self._tree

    @property
    def is_degenerate(self) -> bool:
        return self._tree is not None and self._tree.is_unit

    @property
    def shell(self) -> "Opetope":
        """The opetope decorating the unique edge of a degenerate opetope."""
        if not self.is_degenerate:
            raise AddressError("only degenerate opetopes have a shell")
        return self._tree.unit_color

    def node_addresses(self) -> tuple[Address, ...]:
        """Source addresses: empty in dimension 0, the root alone for the arrow."""
        if self._dim == 0:
            return ()
        if self._dim == 1:
            return (EMPTY,)
        return self._tree.node_addresses()

    def leaf_addresses(self) -> tuple[Address, ...]:
        if self._dim < 2:
            raise AddressError("leaf addresses need dimension >= 2")
        if self._leaves is None:
            self._leaves = leaf_addresses(OPETOPE_SIG, self._tree)
        return self._leaves

    def source_at(self, address: Address) -> "Opetope":
        if self._dim == 1:
            if address == EMPTY:
                return point()
            raise AddressError(f"the arrow has no source at {address}")
        if self._dim < 1:
            raise AddressError("the point has no sources")
        return self._tree.decoration(address)

    def target(self) -> "Opetope":
        if self._dim == 0:
            raise AddressError("the point has no target")
        return self._flatten()[0]

    def readdress(self) -> dict[Address, Address]:
        """Bijection from leaf addresses onto the target's node addresses,
        as a fresh dict on each call."""
        if self._dim < 2:
            raise AddressError("readdressing needs dimension >= 2")
        rho = self._flatten()[1]
        return dict(zip(self._leaves, rho))

    def _flatten(self) -> tuple["Opetope", tuple[Address, ...]]:
        if self._boundary is None:
            if self._dim == 1:
                self._boundary = (point(), ())
            else:
                # flattening arrows gives the corolla on the point, which
                # is the arrow; the arrow is stored without a tree
                result = flatten(OPETOPE_SIG, self._tree)
                target = from_tree(result.tree) if self._dim > 2 else arrow()
                rho = result.readdress  # keyed by the leaves
                if self._leaves is None:
                    self._leaves = tuple(sorted(rho))
                self._boundary = (target, tuple([rho[leaf] for leaf in self._leaves]))
        return self._boundary

    def __reduce__(self):
        # rebuild through the factories, so a copy is the interned instance
        if self._dim == 0:
            return point, ()
        if self._dim == 1:
            return arrow, ()
        if self.is_degenerate:
            return degenerate, (self.shell,)
        return from_tree, (self._tree,)

    def __str__(self) -> str:
        if self._str is None:
            if self._dim == 0:
                self._str = "point"
            elif self._dim == 1:
                self._str = "arrow"
            elif self._tree._nodes is None:
                shell = self._tree._unit
                self._str = f"<<{shell._str or shell}>>"
            else:
                parts = ["{"]
                for address, op in self._tree._nodes.items():
                    parts += (str(address), " <- ", op._str or str(op), ", ")
                parts[-1] = "}"
                self._str = "".join(parts)
        return self._str

    def __repr__(self) -> str:
        return f"Opetope({self})"


class _Entry(weakref.ref):
    """An intern-table entry: a weak reference to an opetope and its key."""

    __slots__ = ("key",)


# the live opetopes, weakly, by their tree, or by their dimension for the
# point and the arrow; an entry leaves the table when its opetope dies
_INTERN: dict[Tree | int, _Entry] = {}


def _forget(entry: _Entry, table: dict = _INTERN) -> None:
    # a rebuilt twin may have replaced the entry of a dead opetope already
    if table.get(entry.key) is entry:
        del table[entry.key]


def _interned(key: Tree | int) -> Opetope | None:
    entry = _INTERN.get(key)
    return None if entry is None else entry()


def _intern(omega: Opetope) -> Opetope:
    key = omega._dim if omega._tree is None else omega._tree
    entry = _INTERN[key] = _Entry(omega, _forget)
    entry.key = key
    return omega


_POINT = _intern(Opetope(0, None))
_ARROW = _intern(Opetope(1, None))


def point() -> Opetope:
    return _POINT


def arrow() -> Opetope:
    return _ARROW


def degenerate(shell: Opetope) -> Opetope:
    """The opetope two dimensions above ``shell`` with a bare-edge tree."""
    return from_tree(Tree.unit(shell))


def from_tree(tree: Tree, validate: bool = False) -> Opetope:
    """Wrap a tree of (n-1)-opetopes as an n-opetope."""
    if tree.is_unit:
        dim = tree.unit_color.dim + 2
    else:
        dims = {op.dim for op in tree.nodes.values()}
        if len(dims) != 1:
            raise CoherenceError(f"node decorations mix dimensions {sorted(dims)}")
        dim = dims.pop() + 1
        if dim < 2:
            raise CoherenceError("node decorations must have dimension >= 1")
    found = _interned(tree)
    if found is None:
        if validate:
            check_tree(OPETOPE_SIG, tree)
        found = _intern(Opetope(dim, tree))
    return found


def node_map(bindings: dict[Address, Opetope]) -> Opetope:
    """Validated opetope from explicit node bindings (must include the root),
    checked before ``Tree.of`` sorts them, since deep orphans overflow a sort."""
    if not bindings:
        raise CoherenceError("a node map must be non-empty; use degenerate() instead")
    if EMPTY in bindings:
        check_tree(OPETOPE_SIG, Tree._wrap(bindings))
    return from_tree(Tree.of(bindings))


def opetopic_integer(k: int) -> Opetope:
    """The 2-opetope with k source arrows; k = 0 is the degenerate one."""
    if k < 0:
        raise ValueError("opetopic integers are indexed by naturals")
    if k == 0:
        return degenerate(point())
    bindings: dict[Address, Opetope] = {}
    address = EMPTY
    for _ in range(k):
        bindings[address] = arrow()
        address = address.child(EMPTY)
    return from_tree(Tree._wrap(bindings))


class OpetopeSignature(Signature):
    """Signature whose operations are opetopes one dimension down.

    Works uniformly at every level: inputs of an opetope are its node
    addresses, colors are sources and targets.  The arrow has no source
    tree; flattening a tree of arrows is the base case of ``flatten``.
    """

    def inputs(self, op: Opetope) -> tuple[Address, ...]:
        return op.node_addresses()

    def source_color(self, op: Opetope, address: Address) -> Opetope:
        return op.source_at(address)

    def target_color(self, op: Opetope) -> Opetope:
        return op.target()

    def source_tree(self, op: Opetope) -> Tree | None:
        return op.tree if op.dim >= 2 else None

    def sub_readdress(self, op: Opetope) -> dict[Address, Address]:
        return op.readdress()

    def sub_signature(self) -> "OpetopeSignature":
        return self


OPETOPE_SIG = OpetopeSignature()


def print_key(value) -> tuple[int, str]:
    """Shortlex key on canonical prints; the deterministic output order."""
    text = str(value)
    return (len(text), text)


def check_identities(omega: Opetope) -> Report:
    """Verify the four face identities pointwise on one opetope.

    Inner: the target of the node above an inner edge is the matching
    source of the node below it.  Globularity relates the root and leaf
    faces to the faces of the target; degenerate opetopes satisfy the loop
    identity instead.  This is the master oracle for flatten.

    It reads cached slots rather than calling accessors per node: a target
    is slot 0 of ``_boundary`` (``_flatten`` fills it when empty), a source
    is a node of its tree or the point below an arrow, and opetopes
    compare with ``is``, since equality is identity.  Of what the grower
    caches it reads only the target and readdressing under check, and the
    leaves they are aligned with, and it checks them against the faces of
    the node decorations; ``tests/test_opetope.py::TestGrowerAgainstFlatten``
    remains the grower's independent oracle.
    """
    report = Report()
    if omega._dim < 2:
        report.fail(f"identities need dimension >= 2, got {omega._dim}")
        return report
    target, rho = omega._boundary or omega._flatten()
    right = (target._boundary or target._flatten())[0]
    # the target's nodes, or None for the arrow, which has no tree
    target_nodes = None if target._tree is None else target._tree._nodes
    nodes = omega._tree._nodes
    if nodes is None:
        left = _POINT if target_nodes is None else target_nodes[EMPTY]
        if left is not right:
            report.fail(f"degeneracy: s[[]] t = {left} but t t = {right}")
        return report
    # the sources of a decoration are its nodes, or the point below an
    # arrow, which has no tree; parent addresses are tuple slices, valid as
    # dict keys
    for address, op in nodes.items():
        if not address:
            continue
        above = (op._boundary or op._flatten())[0]
        parent = nodes[address[:-1]]._tree
        source = _POINT if parent is None else parent._nodes[address[-1]]
        if above is not source:
            report.fail(
                f"inner edge {address}: t s[{address}] = {above} "
                f"but s[{address[-1]}] s[{Address(address[:-1])}] = {source}"
            )
    root = nodes[EMPTY]
    left = (root._boundary or root._flatten())[0]
    if left is not right:
        report.fail(f"globularity (root): t s[[]] = {left} but t t = {right}")
    for leaf, image in zip(omega._leaves, rho):
        parent = nodes[leaf[:-1]]._tree
        source = _POINT if parent is None else parent._nodes[leaf[-1]]
        via_target = _POINT if target_nodes is None else target_nodes[image]
        if source is not via_target:
            report.fail(
                f"globularity (leaf {leaf}): s[{leaf[-1]}] "
                f"s[{Address(leaf[:-1])}] = {source} "
                f"but s[{image}] t = {via_target}"
            )
    return report


def iter_opetopes(
    n: int,
    max_nodes: int,
    shard: tuple[int, int] | None = None,
    intern_results: bool = True,
):
    """Generate the n-opetopes all of whose iterated faces have at most
    ``max_nodes`` nodes, in a deterministic but unsorted order.

    The degenerate ones come first; the others are the trees that
    ``trees.grow_trees`` grows from the (n-1)-opetopes with ``max_nodes``
    as both node and leaf bound, sharing the address tables of every
    grower of this dimension and bound.  The grower hands over each tree's
    sorted leaves and readdressing, grown graft by graft, and its target
    tree, read off the leaf colors; an opetope built here keeps them, and
    one already interned keeps what it has.  A tree whose target tree is
    not that of an allowed (n-1)-opetope is skipped before any opetope is
    built.
    ``shard = (i, k)`` restricts to every k-th degenerate or root choice,
    for splitting sweeps across processes.

    Every opetope yielded is the interned instance.  The intern table
    holds it weakly, so one that the caller drops leaves the table and a
    long sweep does not grow it.  ``intern_results`` is accepted and
    ignored.
    """
    if n < 0:
        raise ValueError("dimension must be a natural number")

    def sharded(index: int) -> bool:
        return shard is None or index % shard[1] == shard[0]

    if n < 2:
        if sharded(0):
            yield point() if n == 0 else arrow()
        return
    if n == 2:
        for k in range(max_nodes + 1):
            if sharded(k):
                yield opetopic_integer(k)
        return

    previous = _enumerated(n - 1, max_nodes, None)
    allowed = {op._tree: op for op in previous}
    shells = _enumerated(n - 2, max_nodes, None)
    for index, shell in enumerate(shells):
        if sharded(index):
            omega = degenerate(shell)
            if omega.target()._tree in allowed:
                yield omega
    # root choices are numbered after the degenerate ones, skipping one
    roots = [root for i, root in enumerate(previous, len(shells) + 1) if sharded(i)]

    grown = grow_trees(
        OPETOPE_SIG,
        previous,
        roots,
        max_nodes,
        max_leaves=max_nodes,
        tables=_ADDRESSES.setdefault((n, max_nodes), ({}, {})),
    )
    for tree, result, rho, leaves in grown:
        target = allowed.get(result)
        if target is None:
            continue
        entry = _INTERN.get(tree)
        omega = None if entry is None else entry()
        if omega is None:
            omega = _intern(Opetope(n, tree))
            omega._leaves = leaves
            omega._boundary = (target, rho)
        yield omega


# the grower's address tables (see ``trees.grow_trees``) per dimension and
# bound, shared by every grower of that dimension and bound, so the
# opetopes they build share their leaf addresses and readdressings
_ADDRESSES: dict[tuple[int, int], tuple[dict, dict]] = {}


_ENUMERATED: dict[tuple[int, int], tuple[Opetope, ...]] = {}


def _enumerated(n: int, max_nodes: int, cap: int | None) -> tuple[Opetope, ...]:
    """The sorted n-opetopes, built and kept once per bound; raises
    EnumerationLimit past ``cap``, before keeping any of them."""
    kept = _ENUMERATED.get((n, max_nodes))
    if kept is None:
        limit = None if cap is None else cap + 1
        with collector_paused():
            kept = list(islice(iter_opetopes(n, max_nodes), limit))
            if cap is None or len(kept) <= cap:
                kept.sort(key=print_key)
                kept = _ENUMERATED[n, max_nodes] = tuple(kept)
    if cap is not None and len(kept) > cap:
        raise EnumerationLimit(f"more than {cap} opetopes of dimension {n}")
    return kept


def enumerate_opetopes(
    n: int, max_nodes: int, cap: int | None = DEFAULT_ENUMERATION_CAP
) -> list[Opetope]:
    """All n-opetopes every one of whose iterated faces has at most
    ``max_nodes`` nodes, sorted by canonical print, without duplicates.
    The dimensions below n are built first, and ``cap`` bounds every
    dimension that is built, not only n.  Each dimension is built with
    the cyclic collector paused, which is safe: the build keeps every
    opetope it makes and makes no reference cycle, so a collection
    would free nothing.  The collector is left as it was found."""
    if n < 0:
        raise ValueError("dimension must be a natural number")
    for dim in range(n):
        _enumerated(dim, max_nodes, cap)
    return list(_enumerated(n, max_nodes, cap))
