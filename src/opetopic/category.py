"""The category of opetopes, presented by face embeddings and four relations.

Objects are opetopes; generating morphisms are the target embedding ``t``
into each positive-dimensional opetope and one source embedding ``s[p]``
per node address.  Morphisms are words of generators modulo the relation
squares (inner edge, the two globularity squares, and the degeneracy
square).  Words are kept outermost-first.

The morphisms into an opetope form a class table, built once by dynamic
programming over its generating faces: the identity, plus each face f
followed by a class from the table of the domain of f, glued by a
union-find along the relation squares.  The squares preserve length, so a
class is named by its least member (target before sources, then by
address).  The same pass fills in each class's name, its precomposition
with every face of its domain, and ``by_domain``, the classes grouped by
domain in class order.  So a hom-set is one lookup in ``by_domain``, the
representable and its realization are read off the table, and
composition is a lookup in the tables.
"""

from __future__ import annotations

from itertools import accumulate
from operator import attrgetter, indexOf

from .address import EMPTY, Address
from .errors import CompositionError, OpetopicError, Value

from .opetope import Opetope


class Face(Value):
    """A single face embedding into ``codomain``; address None means target."""

    __slots__ = ("codomain", "address")

    def __init__(self, codomain: Opetope, address: Address | None = None):
        if address is None:
            if codomain.dim < 1:
                raise CompositionError("the point has no target embedding")
        elif address not in _node_addresses(codomain):
            raise CompositionError(f"{address} is not a node address of {codomain}")
        self.codomain, self.address = codomain, address

    @property
    def is_target(self) -> bool:
        return self.address is None

    @property
    def domain(self) -> Opetope:
        if self.address is None:
            return self.codomain.target()
        return self.codomain.source_at(self.address)

    def __str__(self) -> str:
        return "t" if self.address is None else f"s{self.address}"


Word = tuple[Face, ...]


def _node_addresses(omega: Opetope):
    """The node addresses of ``omega``: its tree's node dict itself, not a
    copy, or none for the point, which has no tree."""
    return () if omega._tree is None else omega._tree._nodes or ()


def source_index(omega: Opetope, address: Address) -> int:
    """The position in ``faces_of(omega)`` of the source embedding at
    ``address``, counted off the node addresses without copying them."""
    try:
        return indexOf(_node_addresses(omega), address) + 1
    except ValueError:
        raise CompositionError(f"{address} is not a node address of {omega}") from None


def face_index(face: Face) -> int:
    """The position of ``face`` in ``faces_of`` of its codomain."""
    return 0 if face.address is None else source_index(face.codomain, face.address)


def faces_of(omega: Opetope) -> tuple[Face, ...]:
    """Target embedding first, then source embeddings in address order;
    built once per opetope and kept on it, so callers share its faces."""
    faces = omega._faces
    if faces is None:
        sources = tuple(Face(omega, p) for p in omega.node_addresses())
        faces = omega._faces = (Face(omega),) + sources if omega.dim else ()
    return faces


class RelationInstance(Value):
    """One commuting square: two equal two-step words into the same opetope."""

    __slots__ = ("kind", "left", "right")

    def __init__(self, kind: str, left: tuple[Face, Face], right: tuple[Face, Face]):
        if left[1].domain != right[1].domain:
            raise OpetopicError(
                f"relation {kind} of {left[0].codomain} has unequal "
                f"domains; the face identities are broken"
            )
        self.kind, self.left, self.right = kind, left, right


def relation_instances(omega: Opetope) -> tuple[RelationInstance, ...]:
    """All relation squares whose outer faces land in ``omega``; built once
    per opetope and kept on it."""
    if omega._relations is None:
        omega._relations = tuple(_squares(omega)) if omega.dim >= 2 else ()
    return omega._relations


def _source_face(omega: Opetope, address: Address) -> Face:
    """The shared source embedding of ``omega`` at ``address``."""
    return faces_of(omega)[source_index(omega, address)]


def _squares(omega: Opetope):
    # every face is the shared instance from ``faces_of``; a target
    # embedding is the first face of its codomain
    faces = faces_of(omega)
    target = omega.target()
    if omega.is_degenerate:
        yield RelationInstance(
            "degen",
            (faces[0], faces_of(target)[0]),
            (faces[0], _source_face(target, EMPTY)),
        )
        return
    yield RelationInstance(
        "glob1",
        (faces[0], faces_of(target)[0]),
        (faces[1], faces_of(omega.source_at(EMPTY))[0]),
    )
    for address, face in zip(omega.node_addresses()[1:], faces[2:]):
        p, q = address.parent, address.last
        yield RelationInstance(
            "inner",
            (_source_face(omega, p), _source_face(omega.source_at(p), q)),
            (face, faces_of(omega.source_at(address))[0]),
        )
    readdress = omega.readdress()
    for leaf in omega.leaf_addresses():
        p, q = leaf.parent, leaf.last
        yield RelationInstance(
            "glob2",
            (_source_face(omega, p), _source_face(omega.source_at(p), q)),
            (faces[0], _source_face(target, readdress[leaf])),
        )


class SliceTable:
    """Every morphism into an opetope, one entry per class, in name order.

    Class 0 is the identity.  Class i > 0 is named by its least member:
    ``faces[k]`` followed by class c of ``subtables[k]``, where
    ``k = first_face[i]`` and ``c = first_class[i]``.  ``through[k][c]``
    is the class of the pair (k, c) for every c, least or not.
    ``names[i]`` is the printed least word, innermost face first, and
    ``action[i][j]`` is the class of class i followed by face j of its
    domain.  ``by_domain[phi]`` lists the classes with domain ``phi`` in
    class order, domains in order of their first class.
    """

    def __init__(self, omega: Opetope) -> None:
        self.faces = faces_of(omega)
        self.subtables = [slice_table(face.domain) for face in self.faces]
        offsets = list(accumulate((len(t.domains) for t in self.subtables), initial=0))
        parent = list(range(offsets[-1]))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        # a square (f1, g1) ~ (f2, g2) identifies (f1, g1.c) with (f2, g2.c)
        # for every class c into its common domain
        for square in relation_instances(omega):
            (f1, g1), (f2, g2) = square.left, square.right
            k1, k2 = face_index(f1), face_index(f2)
            left, right = self.subtables[k1].lift(g1), self.subtables[k2].lift(g2)
            for a, b in zip(left, right):
                parent[find(offsets[k1] + a)] = find(offsets[k2] + b)

        # the squares preserve length, so the least member of a class starts
        # with its least pair (face, subclass): visit pairs in that order
        # the identity has no first pair: its entries are never read
        self.first_face, self.first_class = [0], [0]
        self.lengths, self.domains = [0], [omega]
        classes: dict[Opetope, list[int]] = {omega: [0]}
        number: dict[int, int] = {}
        pairs = (
            (length + 1, k, c)
            for k, table in enumerate(self.subtables)
            for c, length in enumerate(table.lengths)
        )
        for length, k, c in sorted(pairs):
            root = find(offsets[k] + c)
            if root not in number:
                i = number[root] = len(self.domains)
                self.first_face.append(k)
                self.first_class.append(c)
                self.lengths.append(length)
                domain = self.subtables[k].domains[c]
                self.domains.append(domain)
                classes.setdefault(domain, []).append(i)
        self.by_domain = {domain: tuple(found) for domain, found in classes.items()}
        self.through = [
            tuple([number[find(offsets[k] + c)] for c in range(len(table.domains))])
            for k, table in enumerate(self.subtables)
        ]
        self.names = ["id"]
        self.action = [tuple([row[0] for row in self.through])]
        for k, c in zip(self.first_face[1:], self.first_class[1:]):
            table, through = self.subtables[k], self.through[k]
            face = str(self.faces[k])
            self.names.append(f"{table.names[c]}.{face}" if c else face)
            self.action.append(tuple([through[x] for x in table.action[c]]))

    def lift(self, face: Face) -> tuple[int, ...]:
        """For each class c into the domain of ``face``, the class of
        ``face`` followed by c."""
        return self.through[face_index(face)]


def slice_table(omega: Opetope) -> SliceTable:
    """The slice table of ``omega``, built once and kept on it.  The
    missing tables of its face closure are collected, each once, and built
    by ascending dimension, so a table never waits on another: no recursion."""
    if omega._slices is None:
        missing, stack = {omega}, [omega]
        while stack:
            for face in faces_of(stack.pop()):
                domain = face.domain
                if domain._slices is None and domain not in missing:
                    missing.add(domain)
                    stack.append(domain)
        for shape in sorted(missing, key=attrgetter("dim")):
            shape._slices = SliceTable(shape)
    return omega._slices


def _least_path(cls: MorphismClass):
    """The tables and face positions along the least word of a class."""
    table, index = slice_table(cls.codomain), cls.index
    while index:
        k, index = table.first_face[index], table.first_class[index]
        yield table, k
        table = table.subtables[k]


class MorphismClass(Value):
    """A morphism of the category: a class in the slice table of its
    codomain, carried by its index there."""

    __slots__ = ("codomain", "index")

    def __init__(self, codomain: Opetope, index: int):
        self.codomain, self.index = codomain, index

    @property
    def domain(self) -> Opetope:
        return slice_table(self.codomain).domains[self.index]

    @property
    def word(self) -> Word:
        """The least face word of the class, outermost face first."""
        return tuple(table.faces[k] for table, k in _least_path(self))

    @property
    def is_identity(self) -> bool:
        return self.index == 0

    def __str__(self) -> str:
        return slice_table(self.codomain).names[self.index]


def morphism(codomain: Opetope, word: Word) -> MorphismClass:
    """The class of a face word into ``codomain``, outermost face first."""
    current = codomain
    for face in word:
        if face.codomain != current:
            raise CompositionError(
                f"face into {face.codomain} cannot follow a face onto {current}"
            )
        current = face.domain
    index = 0
    for face in reversed(word):
        index = slice_table(face.codomain).lift(face)[index]
    return MorphismClass(codomain, index)


def identity(omega: Opetope) -> MorphismClass:
    return MorphismClass(omega, 0)


def compose(outer: MorphismClass, inner: MorphismClass) -> MorphismClass:
    """Composite of ``inner`` followed by ``outer`` (outer is closest to the
    common codomain)."""
    if outer.domain != inner.codomain:
        raise CompositionError(
            f"cannot compose: domain {outer.domain} != codomain {inner.codomain}"
        )
    index = inner.index
    for table, k in reversed(list(_least_path(outer))):
        index = table.through[k][index]
    return MorphismClass(outer.codomain, index)


def slice_classes(omega: Opetope) -> dict[int, list[MorphismClass]]:
    """Every morphism into ``omega``, grouped by domain dimension.

    This is the slice of the category over ``omega``; it lists the iterated
    faces of the opetope with their identifications already performed.
    """
    grouped: dict[int, list[MorphismClass]] = {}
    for index, domain in enumerate(slice_table(omega).domains):
        grouped.setdefault(domain.dim, []).append(MorphismClass(omega, index))
    return grouped


def hom(phi: Opetope, omega: Opetope) -> list[MorphismClass]:
    """All morphisms from ``phi`` to ``omega``, in class order."""
    return [MorphismClass(omega, i) for i in slice_table(omega).by_domain.get(phi, ())]
