"""Exception types and validation reports shared across the package.

Construction functions raise; validators collect failures into a Report so
callers can see every violation at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field


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


@dataclass
class Report:
    """Accumulated validation failures; empty means the check passed."""

    failures: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failures.append(message)

    @property
    def ok(self) -> bool:
        return not self.failures

    def __str__(self) -> str:
        if self.ok:
            return "pass"
        return "\n".join(self.failures)
