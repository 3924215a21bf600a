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

from .address import Address, read_address
from .category import Face, faces_of
from .errors import CompositionError, ParseError
from .opetope import Opetope, arrow, degenerate, node_map, point
from .oset import OpetopicSet
from .polygraph import MtoPolygraph, print_cell_tree
from .trees import Tree

_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_CHARS = _NAME_START | set("0123456789.[]*@")


class Scanner:
    """Character scanner with expectation-driven tokenization.

    Addresses and names share characters, so the parser says what it
    expects and the scanner reads exactly that.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip(self) -> None:
        text, n = self.text, len(self.text)
        while self.pos < n:
            char = text[self.pos]
            if char.isspace():
                self.pos += 1
            elif char == "#":
                while self.pos < n and text[self.pos] != "\n":
                    self.pos += 1
            else:
                return

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

    def peek(self) -> str:
        self._skip()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def try_symbol(self, symbol: str) -> bool:
        self._skip()
        if self.text.startswith(symbol, self.pos):
            self.pos += len(symbol)
            return True
        return False

    def expect_symbol(self, symbol: str) -> None:
        if not self.try_symbol(symbol):
            raise self.error(repr(symbol))

    def name(self) -> str:
        self._skip()
        start = self.pos
        if self.pos >= len(self.text) or self.text[self.pos] not in _NAME_START:
            raise self.error("a name")
        while self.pos < len(self.text) and self.text[self.pos] in _NAME_CHARS:
            self.pos += 1
        return self.text[start : self.pos]

    def number(self) -> int:
        self._skip()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            raise self.error("a number")
        return int(self.text[start : self.pos])

    def address(self) -> Address:
        self._skip()
        if self.peek() != "[":
            raise self.error("an address")
        address, self.pos = read_address(self.text, self.pos, self._error_at)
        return address

    def _error_at(self, pos: int, expected: str) -> ParseError:
        self.pos = pos
        return self.error(expected)


# -- opetope expressions ------------------------------------------------


def parse_opetope_expr(scanner: Scanner, env: dict[str, Opetope]) -> Opetope:
    if scanner.try_symbol("<<"):
        inner = parse_opetope_expr(scanner, env)
        scanner.expect_symbol(">>")
        return degenerate(inner)
    if scanner.peek() == "{":
        scanner.expect_symbol("{")
        bindings: dict[Address, Opetope] = {}
        lines: dict[Address, int] = {}
        while True:
            line, _ = scanner.position()
            address = scanner.address()
            scanner.expect_symbol("<-")
            value = parse_opetope_expr(scanner, env)
            if address in bindings:
                raise ParseError(
                    f"address {address} bound twice (lines {lines[address]} and {line})",
                    *scanner.position(),
                )
            bindings[address] = value
            lines[address] = line
            if scanner.try_symbol(","):
                continue
            scanner.expect_symbol("}")
            break
        return node_map(bindings)
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
    bindings: dict[Address, str] = {}
    lines: dict[Address, int] = {}
    while True:
        line, _ = scanner.position()
        address = scanner.address()
        scanner.expect_symbol("<-")
        value = scanner.name()
        if address in bindings:
            raise ParseError(
                f"address {address} bound twice (lines {lines[address]} and {line})",
                *scanner.position(),
            )
        bindings[address] = value
        lines[address] = line
        if scanner.try_symbol(","):
            continue
        scanner.expect_symbol("}")
        break
    return Tree.of(bindings)


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
        if scanner.peek() == "{":
            scanner.expect_symbol("{")
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
