"""Parsers and canonical printers for the three file formats.

Opetope definitions::

    opetope NAME = EXPR
    EXPR ::= "point" | "arrow" | "<<" EXPR ">>"
           | "{" ADDRESS "<-" EXPR ("," ADDRESS "<-" EXPR)* "}" | NAME

Polygraph files are ``gen`` lines (one polygraph per file)::

    gen 0 NAME
    gen 1 NAME : NAME -> NAME
    gen n NAME : CELL -> NAME          (n >= 2)
    CELL ::= "{" ADDRESS "<-" NAME ("," ADDRESS "<-" NAME)* "}" | "id" "(" NAME ")"

Opetopic-set files are ``cell`` lines; the face block is omitted in
dimension 0 and may rely on opetope definitions earlier in the file::

    cell NAME : EXPR { t <- NAME, s ADDRESS <- NAME, ... }

``#`` starts a comment; printing is canonical and idempotent.
"""

from __future__ import annotations

import functools
import re
from typing import Callable, TypeVar

from .address import Address, read_address
from .category import Face, faces_of
from .errors import CompositionError, ParseError
from .opetope import Opetope, arrow, degenerate, node_map, point
from .oset import OpetopicSet
from .polygraph import MtoPolygraph, print_cell_tree
from .trees import Tree

# whitespace (``\s`` is ``str.isspace``) and comments; a comment only ends
# at a newline or the end of the text, so a failed match cannot backtrack
# into one
_SKIP = r"(?:\s|#[^\n]*(?![^\n]))*"
_SKIP_RE = re.compile(_SKIP)
_NAME = re.compile(_SKIP + r"([A-Za-z_][A-Za-z0-9_.\[\]*@]*)")
_NUMBER = re.compile(_SKIP + r"([0-9]+)")
# the longest run of address characters: a key into the address memo
_ADDRESS_RUN = re.compile(_SKIP + r"(\[[\[\]*]*)")


@functools.cache
def _symbol(symbol: str) -> re.Pattern[str]:
    return re.compile(_SKIP + re.escape(symbol))


T = TypeVar("T")


class Scanner:
    """Expectation-driven scanner: the parser says what it expects next,
    since addresses and names share characters.

    Every read skips whitespace and ``#`` comments first.  A name, an ASCII
    number or a symbol is read with one precompiled regular-expression
    match.  Addresses are read by ``address.read_address`` through one
    intern table per text, so equal addresses in one text are one object,
    and memoized by their source text.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self._addresses: dict[str, Address] = {}
        self._interned: dict[tuple[int, ...], Address] = {}

    def _skip(self) -> None:
        self.pos = _SKIP_RE.match(self.text, self.pos).end()

    def line_at(self, pos: int) -> int:
        """The line of the first token at or after ``pos``."""
        return self.text.count("\n", 0, _SKIP_RE.match(self.text, pos).end()) + 1

    def position(self) -> tuple[int, int]:
        self._skip()
        line = self.text.count("\n", 0, self.pos) + 1
        column = self.pos - (self.text.rfind("\n", 0, self.pos) + 1) + 1
        return line, column

    def error(self, expected: str) -> ParseError:
        line, column = self.position()
        found = self.text[self.pos] if self.pos < len(self.text) else "end of input"
        return ParseError(f"expected {expected}, found {found!r}", line, column)

    def at_end(self) -> bool:
        self._skip()
        return self.pos >= len(self.text)

    def try_symbol(self, symbol: str) -> bool:
        match = _symbol(symbol).match(self.text, self.pos)
        if match is None:
            return False
        self.pos = match.end()
        return True

    def expect_symbol(self, symbol: str) -> None:
        if not self.try_symbol(symbol):
            raise self.error(repr(symbol))

    def name(self) -> str:
        match = _NAME.match(self.text, self.pos)
        if match is None:
            raise self.error("a name")
        self.pos = match.end()
        return match.group(1)

    def number(self) -> int:
        match = _NUMBER.match(self.text, self.pos)
        if match is None:
            raise self.error("a number")
        self.pos = match.end()
        return int(match.group(1))

    def address(self) -> Address:
        match = _ADDRESS_RUN.match(self.text, self.pos)
        if match is None:
            raise self.error("an address")
        # a memoized text was read whole by read_address, which stops where
        # the address closes, so the same run of characters reads the same
        known = self._addresses.get(match.group(1))
        if known is not None:
            self.pos = match.end()
            return known
        start = match.start(1)
        address, self.pos = read_address(
            self.text, start, self._error_at, self._interned
        )
        return self._addresses.setdefault(self.text[start : self.pos], address)

    def _error_at(self, pos: int, expected: str) -> ParseError:
        self.pos = pos
        return self.error(expected)


def _bindings(scanner: Scanner, value: Callable[[], T]) -> dict[Address, T]:
    """The ``ADDRESS <- VALUE`` pairs of a braced block, after its ``{``;
    an address bound twice is an error naming the lines of both."""
    bindings: dict[Address, T] = {}
    starts: dict[Address, int] = {}
    while True:
        start = scanner.pos
        address = scanner.address()
        scanner.expect_symbol("<-")
        bound = value()
        if address in bindings:
            first, second = scanner.line_at(starts[address]), scanner.line_at(start)
            raise ParseError(
                f"address {address} bound twice (lines {first} and {second})",
                *scanner.position(),
            )
        bindings[address] = bound
        starts[address] = start
        if not scanner.try_symbol(","):
            scanner.expect_symbol("}")
            return bindings


# -- opetope expressions ------------------------------------------------


def parse_opetope_expr(scanner: Scanner, env: dict[str, Opetope]) -> Opetope:
    if scanner.try_symbol("<<"):
        inner = parse_opetope_expr(scanner, env)
        scanner.expect_symbol(">>")
        return degenerate(inner)
    if scanner.try_symbol("{"):
        return node_map(_bindings(scanner, lambda: parse_opetope_expr(scanner, env)))
    word = scanner.name()
    if word == "point":
        return point()
    if word == "arrow":
        return arrow()
    if word in env:
        return env[word]
    raise ParseError(f"unknown opetope name {word!r}", *scanner.position())


def parse_opetope_file(text: str) -> dict[str, Opetope]:
    """A sequence of ``opetope NAME = EXPR`` definitions."""
    scanner = Scanner(text)
    env: dict[str, Opetope] = {}
    while not scanner.at_end():
        keyword = scanner.name()
        if keyword != "opetope":
            raise ParseError(f"expected 'opetope', found {keyword!r}", *scanner.position())
        name = scanner.name()
        if name in env:
            raise ParseError(f"redefinition of {name!r}", *scanner.position())
        scanner.expect_symbol("=")
        env[name] = parse_opetope_expr(scanner, env)
    return env


def print_opetope_file(env: dict[str, Opetope]) -> str:
    lines = [f"opetope {name} = {omega}" for name, omega in env.items()]
    return "\n".join(lines) + ("\n" if lines else "")


# -- cells and polygraph files -------------------------------------------


def parse_cell_tree(scanner: Scanner) -> Tree:
    if scanner.try_symbol("id"):
        scanner.expect_symbol("(")
        name = scanner.name()
        scanner.expect_symbol(")")
        return Tree.unit(name)
    scanner.expect_symbol("{")
    return Tree.of(_bindings(scanner, scanner.name))


def parse_polygraph(text: str) -> MtoPolygraph:
    scanner = Scanner(text)
    P = MtoPolygraph()
    while not scanner.at_end():
        keyword = scanner.name()
        if keyword != "gen":
            raise ParseError(f"expected 'gen', found {keyword!r}", *scanner.position())
        dim = scanner.number()
        name = scanner.name()
        if dim == 0:
            P.add_point(name)
            continue
        scanner.expect_symbol(":")
        if dim == 1:
            source = scanner.name()
            scanner.expect_symbol("->")
            target = scanner.name()
            P.add_arrow(name, source, target)
        else:
            tree = parse_cell_tree(scanner)
            scanner.expect_symbol("->")
            target = scanner.name()
            P.add_generator(dim, name, tree, target)
    return P


def print_polygraph(P: MtoPolygraph) -> str:
    lines = []
    for dim in range(P.max_dim + 1):
        for name in sorted(P.generators(dim)):
            if dim == 0:
                lines.append(f"gen 0 {name}")
            elif dim == 1:
                data = P.gen_data(1, name)
                lines.append(f"gen 1 {name} : {data.source} -> {data.target}")
            else:
                data = P.gen_data(dim, name)
                lines.append(
                    f"gen {dim} {name} : {print_cell_tree(data.source_tree)} "
                    f"-> {data.target}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


# -- opetopic-set files ---------------------------------------------------


def parse_oset(text: str) -> OpetopicSet:
    scanner = Scanner(text)
    env: dict[str, Opetope] = {}
    entries: list[tuple[Opetope, str, dict[Face, str]]] = []
    max_dim = 0
    while not scanner.at_end():
        keyword = scanner.name()
        if keyword == "opetope":
            name = scanner.name()
            if name in env:
                raise ParseError(f"redefinition of {name!r}", *scanner.position())
            scanner.expect_symbol("=")
            env[name] = parse_opetope_expr(scanner, env)
            continue
        if keyword != "cell":
            raise ParseError(
                f"expected 'cell' or 'opetope', found {keyword!r}", *scanner.position()
            )
        name = scanner.name()
        scanner.expect_symbol(":")
        shape = parse_opetope_expr(scanner, env)
        max_dim = max(max_dim, shape.dim)
        assignments: dict[Face, str] = {}
        if scanner.try_symbol("{"):
            while True:
                try:
                    if scanner.try_symbol("t"):
                        face = Face(shape)
                    elif scanner.try_symbol("s"):
                        face = Face(shape, scanner.address())
                    else:
                        raise scanner.error("'t' or 's'")
                except CompositionError as error:
                    raise ParseError(str(error), *scanner.position())
                scanner.expect_symbol("<-")
                value = scanner.name()
                if face in assignments:
                    raise ParseError(
                        f"face {face} assigned twice", *scanner.position()
                    )
                assignments[face] = value
                if scanner.try_symbol(","):
                    continue
                scanner.expect_symbol("}")
                break
        expected = set(faces_of(shape))
        given = set(assignments)
        if expected != given:
            missing = ", ".join(str(f) for f in sorted(expected - given, key=Face.sort_key))
            spurious = ", ".join(str(f) for f in sorted(given - expected, key=Face.sort_key))
            parts = []
            if missing:
                parts.append(f"missing faces: {missing}")
            if spurious:
                parts.append(f"spurious faces: {spurious}")
            raise ParseError(
                f"cell {name!r} at {shape}: " + "; ".join(parts), *scanner.position()
            )
        entries.append((shape, name, assignments))
    X = OpetopicSet(max_dim=max_dim)
    for shape, name, assignments in entries:
        X.add_cell(shape, name)
        for face, value in assignments.items():
            X.set_face(shape, name, face, value)
    return X


def print_oset(X: OpetopicSet) -> str:
    lines = []
    for shape in X.support():
        for name in X.cells_at(shape):
            if shape.dim == 0:
                lines.append(f"cell {name} : {shape}")
                continue
            parts = []
            for face in faces_of(shape):
                label = "t" if face.is_target else f"s {face.address}"
                parts.append(f"{label} <- {X.face(shape, name, face)}")
            lines.append(f"cell {name} : {shape} {{ " + ", ".join(parts) + " }")
    return "\n".join(lines) + ("\n" if lines else "")
