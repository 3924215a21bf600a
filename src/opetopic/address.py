"""Hereditary addresses naming nodes, edges, and leaves of decorated trees.

An address is a finite sequence whose entries are themselves addresses one
level down.  The empty address doubles as the unique input slot of an
arrow-like operation, so a single type serves every dimension.

Text form: ``[]`` is the empty address, ``[e1 e2 ...]`` lists the entries,
and ``*`` is sugar for an empty entry.  Canonical printing uses the sugar
only inside base-level addresses (those whose entries are all empty), so a
word over the arrow input prints ``[**]`` while deeper addresses spell
empty entries out, e.g. ``[[*][]]``.

Entries are validated at parse time and in public construction
``Address(...)``; addresses built from addresses (``child``, ``concat``,
``parent``, substitution in ``trees``) skip the check via ``_trusted``.
"""

from __future__ import annotations

from functools import partial

from .errors import ParseError


class Address(tuple):
    """An address: a tuple of sub-addresses, ordered prefix-first.

    Being a tuple subclass gives structural equality, hashing, and the
    canonical total order for free: entries compare recursively and a
    proper prefix sorts before any of its extensions.
    """

    __slots__ = ()

    def __new__(cls, entries: tuple = ()) -> "Address":
        entries = tuple(entries)
        for entry in entries:
            if not isinstance(entry, Address):
                raise TypeError(f"address entries must be addresses, got {entry!r}")
        return super().__new__(cls, entries)

    def concat(self, other: "Address") -> "Address":
        return _trusted(self + other)

    def child(self, entry: "Address") -> "Address":
        """Extend by a single entry, i.e. concat(self, [entry])."""
        return _trusted(self + (entry,))

    @property
    def parent(self) -> "Address":
        if not self:
            raise ValueError("the empty address has no parent")
        return _trusted(self[:-1])

    @property
    def last(self) -> "Address":
        if not self:
            raise ValueError("the empty address has no last entry")
        return self[-1]

    def is_prefix_of(self, other: "Address") -> bool:
        return len(self) <= len(other) and tuple(other[: len(self)]) == tuple(self)

    def depth(self) -> int:
        if not self:
            return 0
        return 1 + max(entry.depth() for entry in self)

    def __str__(self) -> str:
        if not self:
            return "[]"
        if all(not entry for entry in self):
            return "[" + "*" * len(self) + "]"
        return "[" + "".join(str(entry) for entry in self) + "]"

    def __repr__(self) -> str:
        return f"Address({str(self)!r})"


# an address from a tuple whose entries are already addresses, unchecked
_trusted = partial(tuple.__new__, Address)

EMPTY = Address()


def compare(p: Address, q: Address) -> int:
    """Total order as an explicit three-way comparison: -1, 0, or 1."""
    if p == q:
        return 0
    return -1 if tuple(p) < tuple(q) else 1


def parse_address(text: str) -> Address:
    """Parse the bracketed form; ``*`` is accepted for ``[]`` in entry position."""
    address, index = _parse_at(text, _skip_ws(text, 0))
    index = _skip_ws(text, index)
    if index != len(text):
        raise _error(text, index, "end of input")
    return address


def _skip_ws(text: str, index: int) -> int:
    while index < len(text) and text[index].isspace():
        index += 1
    return index


def _error(text: str, index: int, expected: str) -> ParseError:
    line = text.count("\n", 0, index) + 1
    column = index - (text.rfind("\n", 0, index) + 1) + 1
    found = text[index] if index < len(text) else "end of input"
    return ParseError(f"expected {expected}, found {found!r}", line, column)


def _parse_at(text: str, index: int) -> tuple[Address, int]:
    if index >= len(text) or text[index] != "[":
        raise _error(text, index, "'['")
    index += 1
    entries = []
    while True:
        index = _skip_ws(text, index)
        if index >= len(text):
            raise _error(text, index, "']', '[' or '*'")
        char = text[index]
        if char == "]":
            return Address(tuple(entries)), index + 1
        if char == "*":
            entries.append(EMPTY)
            index += 1
        elif char == "[":
            entry, index = _parse_at(text, index)
            entries.append(entry)
        else:
            raise _error(text, index, "']', '[' or '*'")
