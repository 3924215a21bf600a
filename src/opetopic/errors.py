"""Exception types, validation reports and the base of the package's records.

Construction functions raise; validators collect failures into a Report so
callers can see every violation at once.
"""

from __future__ import annotations

from operator import attrgetter


class OpetopicError(Exception):
    """Base class for all errors raised by this package."""


class AddressError(OpetopicError):
    """An address does not name a node, edge, or leaf where one is required."""


class GraftError(OpetopicError):
    """Illegal grafting or gluing: wrong leaf, color mismatch, bad gluing map."""


class CoherenceError(OpetopicError):
    """A tree or opetope violates the tree condition or edge-color coherence."""


class CompositionError(OpetopicError):
    """Morphisms or cells that do not compose."""


class UnknownNameError(OpetopicError):
    """A generator or cell name is not declared."""


class EnumerationLimit(OpetopicError):
    """An enumeration exceeded its configured result cap."""


class ParseError(OpetopicError):
    """Malformed textual input; carries position information."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class Value:
    """Equality within one class, hashing and a ``Name(field=value, ...)`` repr
    over ``__slots__``, for records that are immutable by convention."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._key = attrgetter(*cls.__slots__)

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__name__}({fields})"


class Report(Value):
    """Accumulated validation failures; empty means the check passed."""

    __slots__ = ("failures",)
    __hash__ = None

    def __init__(self, failures: list[str] | None = None):
        self.failures = [] if failures is None else failures

    def fail(self, message: str) -> None:
        self.failures.append(message)

    @property
    def ok(self) -> bool:
        return not self.failures

    def __str__(self) -> str:
        if self.ok:
            return "pass"
        return "\n".join(self.failures)
