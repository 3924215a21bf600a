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
``parent``, readdressing in ``trees``) skip the check via ``_trusted``.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

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

    def __str__(self) -> str:
        # base-level addresses print their empty entries as '*', deeper ones
        # spell them out; a stack of entry iterators stands in for recursion
        if not any(self):
            return "[" + "*" * len(self) + "]" if self else "[]"
        parts = ["["]
        stack = [iter(self)]
        while stack:
            for entry in stack[-1]:
                if any(entry):
                    parts.append("[")
                    stack.append(iter(entry))
                    break
                parts.append("[" + "*" * len(entry) + "]" if entry else "[]")
            else:
                stack.pop()
                parts.append("]")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Address({str(self)!r})"


# an address from a tuple whose entries are already addresses, unchecked
_trusted = partial(tuple.__new__, Address)

EMPTY = Address()
MAX_ADDRESS_DEPTH = 10_000  # hashing recurses in C as deep as this, unchecked


def parse_address(text: str) -> Address:
    """Parse the bracketed form; ``*`` is accepted for ``[]`` in entry position."""
    address, index = read_address(text, _skip_ws(text, 0), partial(_error, text))
    index = _skip_ws(text, index)
    if index != len(text):
        raise _error(text, index, "end of input")
    return address


def read_address(
    text: str,
    index: int,
    error: Callable[[int, str], ParseError],
    interned: dict[tuple[int, ...], Address] | None = None,
) -> tuple[Address, int]:
    """Read the address that opens at ``text[index]``; return it and the
    index just past it.  ``error(index, expected)`` builds the exception
    for malformed text or nesting past ``MAX_ADDRESS_DEPTH``.  Iterative.

    Each address is built bottom-up and looked up in ``interned`` by the
    identities of its entries, so equal addresses read through one table
    are one object.  Comparing them is then an identity test, which does
    not recurse however deep they are nested."""
    if interned is None:
        interned = {}
    if index >= len(text) or text[index] != "[":
        raise error(index, "'['")
    index += 1
    open_entries: list[list[Address]] = [[]]
    while True:
        index = _skip_ws(text, index)
        char = text[index] if index < len(text) else ""
        if char == "]":
            index += 1
            entries = open_entries.pop()
            key = tuple(map(id, entries))
            address = interned.get(key)
            if address is None:
                address = interned[key] = _trusted(entries) if entries else EMPTY
            if not open_entries:
                return address, index
            open_entries[-1].append(address)
        elif char == "*":
            open_entries[-1].append(EMPTY)
            index += 1
        elif char == "[":
            if len(open_entries) == MAX_ADDRESS_DEPTH:
                raise error(index, f"an address nested at most {MAX_ADDRESS_DEPTH} deep")
            open_entries.append([])
            index += 1
        else:
            raise error(index, "']', '[' or '*'")


def _skip_ws(text: str, index: int) -> int:
    while index < len(text) and text[index].isspace():
        index += 1
    return index


def _error(text: str, index: int, expected: str) -> ParseError:
    line = text.count("\n", 0, index) + 1
    column = index - (text.rfind("\n", 0, index) + 1) + 1
    found = text[index] if index < len(text) else "end of input"
    return ParseError(f"expected {expected}, found {found!r}", line, column)
