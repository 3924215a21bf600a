"""Parsers and canonical printers for the three file formats.

Opetope definitions (``<<`` and ``{`` nest at most ``MAX_NESTING`` deep)::

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

Expressions are read by recursive descent, one call per bracket, so the
nesting bound also keeps the reader within the recursion limit.  A whole
``gen`` item as ``print_polygraph`` writes it (single-spaced, with no
comment inside; its bindings are then read with one ``findall``), the
separator after a bound value, the start of an expression and a face entry
are each read with one match of a pattern; where it fails, the token
methods of ``Scanner`` read on from the same position and report every
error.  A ``{…}`` or ``<<…>>`` expression, or a subexpression, whose text
was read as a whole expression earlier in the text is not parsed again.
"""

from __future__ import annotations

import functools
import re

from .address import EMPTY, Address, read_address
from .category import Face, faces_of
from .errors import CoherenceError, CompositionError, ParseError
from .opetope import Opetope, arrow, degenerate, node_map, point
from .oset import OpetopicSet
from .polygraph import GenN, MtoPolygraph, print_cell_tree
from .trees import Tree, corolla

# whitespace (``\s`` is ``str.isspace``) and comments; a comment only ends
# at a newline or the end of the text, so a failed match cannot backtrack
# into one
_SKIP = r"(?:\s|#[^\n]*(?![^\n]))*"
_SKIP_RE = re.compile(_SKIP)
_WORD = r"[A-Za-z_][A-Za-z0-9_.\[\]*@]*"
_NAME = re.compile(f"{_SKIP}({_WORD})")
_NUMBER = re.compile(_SKIP + r"([0-9]+)")
# the longest run of address characters: a key into the address memo
_RUN_CHARS = r"\[[\[\]*]*"
_RUN = f"({_RUN_CHARS})"
_ADDRESS_RUN = re.compile(_SKIP + _RUN)
# one pattern per production; a fast path takes only memoized address runs,
# except that of a whole ``gen`` item as ``print_polygraph`` writes it, which
# takes any run that ``read_address`` reads whole.  Its groups: the dimension
# and the name, then a 1-source, an identity's color or the bindings, and
# the target
_BOUND = re.compile(f"{_RUN} <- ({_WORD})")
_BOUNDS = f"{_RUN_CHARS} <- {_WORD}(?:, {_RUN_CHARS} <- {_WORD})*"
_GEN = re.compile(
    f"gen ([0-9]+) ({_WORD})"
    f"(?: : (?:({_WORD})|id\\(({_WORD})\\)|\\{{({_BOUNDS})\\}}) -> ({_WORD}))?"
)
_SEPARATOR = re.compile(_SKIP + "([,}])")
_EXPR_START = re.compile(f"{_SKIP}(?:(<<|{{)|({_WORD}))")
_FACE = re.compile(f"{_SKIP}(?:(t)|s{_SKIP}{_RUN}){_SKIP}<-{_SKIP}({_WORD}){_SKIP}([,}}])")
_BRACKET = re.compile(r"(\{|<<)|(\}|>>)|#[^\n]*")


@functools.cache
def _symbol(symbol: str) -> re.Pattern[str]:
    return re.compile(_SKIP + re.escape(symbol))


def _no_address(pos: int, expected: str) -> ParseError:
    return ParseError(f"expected {expected}")


class Scanner:
    """Expectation-driven scanner: the parser says what it expects next,
    since addresses and names share characters.

    Every read skips whitespace and ``#`` comments first.  A name, an ASCII
    number or a symbol is read with one precompiled regular-expression
    match; the parsers try a whole production's pattern before these.
    Addresses are read by ``address.read_address`` through one intern
    table per text, so equal addresses in one text are one object, and
    memoized by their source text.  ``spans`` maps the text of each whole
    ``{…}`` or ``<<…>>`` expression parsed (one copy each) to its opetope
    and the height of the brackets it nests, and every subexpression is
    looked up there too, where that height stays within ``MAX_NESTING``:
    such a parse reads nothing past its closing symbol and names are never
    redefined, so a text reads the same wherever it recurs.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self._addresses: dict[str, Address] = {}
        self._interned: dict[tuple[int, ...], Address] = {}
        self.spans: dict[str, tuple[Opetope, int]] = {}
        self._closes: dict[int, int | None] = {}

    def span_end(self, start: int) -> int | None:
        """The end of the bracket balancing the one at ``start``, or None;
        the table is filled an outermost span at a time, past comments."""
        closes = self._closes
        if start not in closes:
            opens = []
            for bracket in _BRACKET.finditer(self.text, start):
                if bracket[1]:
                    opens.append(bracket.start())
                elif bracket[2]:
                    closes[opens.pop()] = bracket.end()
                    if not opens:
                        break
            closes.update(dict.fromkeys(opens))
        return closes[start]

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
        known = self._addresses.get(match[1])
        if known is not None:
            self.pos = match.end()
            return known
        start = match.start(1)
        address, self.pos = read_address(
            self.text, start, self._error_at, self._interned
        )
        return self._addresses.setdefault(self.text[start : self.pos], address)

    def whole_address(self, run: str) -> Address | None:
        """The address that a run of address characters spells whole, or
        None.  A memoized text was read whole by ``read_address``, which
        stops where the address closes, so the same run reads the same."""
        address = self._addresses.get(run)
        if address is None:
            try:
                address, stop = read_address(run, 0, _no_address, self._interned)
            except ParseError:
                return None
            if stop != len(run):
                return None
            self._addresses[run] = address
        return address

    def _error_at(self, pos: int, expected: str) -> ParseError:
        self.pos = pos
        return self.error(expected)


def _block(scanner: Scanner, read) -> dict:
    """The ``ADDRESS <- VALUE`` pairs of a braced block after its ``{``, each
    value read by ``read``; an address bound twice is an error naming the
    lines of both."""
    bindings, starts = {}, {}
    while True:
        start = scanner.pos
        address = scanner.address()
        scanner.expect_symbol("<-")
        value = read()
        if address in bindings:
            first, second = scanner.line_at(starts[address]), scanner.line_at(start)
            raise ParseError(
                f"address {address} bound twice (lines {first} and {second})",
                *scanner.position(),
            )
        bindings[address], starts[address] = value, start
        match = _SEPARATOR.match(scanner.text, scanner.pos)
        if match is None:
            raise scanner.error("'}'")
        scanner.pos = match.end()
        if match[1] == "}":
            return bindings


# -- opetope expressions ------------------------------------------------

# printing an opetope and its target recurse per level or dimension, and
# so does the expression reader, at two frames per ``{`` and one per
# ``<<``; at this depth all of them stay within the default recursion
# limit.  ``<<`` adds two dimensions, so one expression reaches at
# most MAX_DIM; a chain of definitions could go on, and is cut off there too.
MAX_NESTING = 64
MAX_DIM = 2 * MAX_NESTING + 1


def parse_opetope_expr(scanner: Scanner, env: dict[str, Opetope]) -> Opetope:
    """One opetope expression; a bracketed one is kept in ``scanner.spans``."""
    scanner._skip()
    start = scanner.pos
    value, height = _expression(scanner, env, 0)
    if value.dim > MAX_DIM:
        scanner.pos = start
        message = f"opetope of dimension {value.dim} is above {MAX_DIM}"
        raise ParseError(message, *scanner.position())
    if height:
        scanner.spans[scanner.text[start : scanner.pos]] = value, height
    return value


def _expression(scanner: Scanner, env: dict[str, Opetope], nesting: int) -> tuple[Opetope, int]:
    """An expression inside ``nesting`` brackets, and the height of the
    brackets it nests.  A span read whole before is taken from
    ``scanner.spans`` where its height stays within the bound."""
    if nesting > MAX_NESTING:
        message = f"opetope expression nested more than {MAX_NESTING} deep"
        raise ParseError(message, *scanner.position())
    text = scanner.text
    match = _EXPR_START.match(text, scanner.pos)
    if match is None:
        raise scanner.error("a name")
    scanner.pos = match.end()
    word = match[2]
    if word is not None:
        if word in ("point", "arrow"):
            return (point() if word == "point" else arrow()), 0
        if word in env:
            return env[word], 0
        raise ParseError(f"unknown opetope name {word!r}", *scanner.position())
    opened = match.start(1)
    end = scanner.span_end(opened)
    known = scanner.spans.get(text[opened:end]) if end else None
    if known is not None and nesting + known[1] <= MAX_NESTING:
        scanner.pos = end
        return known
    if match[1] == "<<":
        value, height = _expression(scanner, env, nesting + 1)
        scanner.expect_symbol(">>")
        return degenerate(value), height + 1
    pairs = _block(scanner, functools.partial(_expression, scanner, env, nesting + 1))
    height = max(height for _, height in pairs.values())
    return node_map({address: pair[0] for address, pair in pairs.items()}), height + 1


def parse_opetope_file(text: str) -> dict[str, Opetope]:
    """A sequence of ``opetope NAME = EXPR`` definitions."""
    scanner = Scanner(text)
    env: dict[str, Opetope] = {}
    while not scanner.at_end():
        keyword = scanner.name()
        if keyword != "opetope":
            raise ParseError(f"expected 'opetope', found {keyword!r}", *scanner.position())
        _define(scanner, env)
    return env


def _define(scanner: Scanner, env: dict[str, Opetope]) -> None:
    """Bind the ``NAME = EXPR`` of an ``opetope`` definition in ``env``."""
    name = scanner.name()
    if name in env:
        raise ParseError(f"redefinition of {name!r}", *scanner.position())
    scanner.expect_symbol("=")
    env[name] = parse_opetope_expr(scanner, env)


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
    return Tree.of(_block(scanner, scanner.name))


def parse_polygraph(text: str) -> MtoPolygraph:
    scanner = Scanner(text)
    P = MtoPolygraph()
    corollas: dict[str, Tree] = {}  # the arrows on one source point share its corolla
    while not scanner.at_end():
        dim, at, name, source, target = _canonical_gen(scanner) or _gen(scanner)
        try:
            if dim == 0:
                P.add_point(name)
            elif dim == 1:
                tree = corollas[source] = corollas.get(source) or corolla(source)
                P._declare(1, {name: GenN(tree, target)})
            else:
                P.add_generator(dim, name, source, target)
        except CoherenceError as error:  # a name declared twice
            scanner.pos = at
            raise ParseError(str(error), *scanner.position()) from None
    return P


def _canonical_gen(scanner: Scanner) -> tuple | None:
    """A ``gen`` item as ``print_polygraph`` writes it, read with one match:
    dimension, position of the name, name, source and target; None, and
    the scanner unmoved, for any other text."""
    text = scanner.text
    match = _GEN.match(text, scanner.pos)
    if match is None:
        return None
    dim, name, source, color, bound, target = match.groups()
    dim = int(dim)
    if dim > 1 and color:
        source = Tree.unit(color)
    elif dim > 1 and bound:
        pairs = _BOUND.findall(text, match.start(5), match.end(5))
        bindings = {scanner.whole_address(run): value for run, value in pairs}
        if None in bindings or len(bindings) < len(pairs):
            return None  # a malformed address, or one bound twice
        source = Tree.of(bindings)
    elif not (target is None if dim == 0 else dim == 1 and source):
        return None  # a body in dimension 0, or the wrong body above it
    scanner.pos = match.end()
    return dim, match.start(2), name, source, target


def _gen(scanner: Scanner) -> tuple:
    """A ``gen`` item read token by token, as ``_canonical_gen`` returns it."""
    keyword = scanner.name()
    if keyword != "gen":
        raise ParseError(f"expected 'gen', found {keyword!r}", *scanner.position())
    dim, at = scanner.number(), scanner.pos
    name = scanner.name()
    if dim == 0:
        return dim, at, name, None, None
    scanner.expect_symbol(":")
    source = scanner.name() if dim == 1 else parse_cell_tree(scanner)
    scanner.expect_symbol("->")
    return dim, at, name, source, scanner.name()


def print_polygraph(P: MtoPolygraph) -> str:
    lines = []
    for dim in range(P.max_dim + 1):
        for name in sorted(P.generators(dim)):
            if dim == 0:
                lines.append(f"gen 0 {name}")
                continue
            data = P.gen_data(dim, name)
            tree = data.source_tree
            source = tree.nodes[EMPTY] if dim == 1 else print_cell_tree(tree)
            lines.append(f"gen {dim} {name} : {source} -> {data.target}")
    return "\n".join(lines) + ("\n" if lines else "")


# -- opetopic-set files ---------------------------------------------------


def parse_oset(text: str) -> OpetopicSet:
    """An opetopic-set file; each cell's faces are put in ``faces_of`` order."""
    scanner = Scanner(text)
    env: dict[str, Opetope] = {}
    tables: dict[Opetope, dict[Address | None, int]] = {}
    X = OpetopicSet(max_dim=0)
    while not scanner.at_end():
        keyword = scanner.name()
        if keyword == "opetope":
            _define(scanner, env)
            continue
        if keyword != "cell":
            message = f"expected 'cell' or 'opetope', found {keyword!r}"
            raise ParseError(message, *scanner.position())
        start, name = scanner.pos, scanner.name()
        scanner.expect_symbol(":")
        shape = parse_opetope_expr(scanner, env)
        if name in X.cells.get(shape, ()):
            scanner.pos = start
            message = f"duplicate cell {name!r} at shape {shape}"
            raise ParseError(message, *scanner.position())
        X.max_dim = max(X.max_dim, shape.dim)
        if shape not in tables:
            tables[shape] = {face.address: k for k, face in enumerate(faces_of(shape))}
        positions = tables[shape]
        values: list[str | None] = [None] * len(positions)
        if scanner.try_symbol("{"):
            while not _face_entry(scanner, shape, positions, values):
                pass
        if None in values:
            missing = ", ".join(
                str(face) for face, value in zip(faces_of(shape), values) if value is None
            )
            raise ParseError(
                f"cell {name!r} at {shape}: missing faces: {missing}",
                *scanner.position(),
            )
        X.add_cell(shape, name, values)
    return X


def _face_entry(scanner: Scanner, shape: Opetope, positions: dict, values: list) -> bool:
    """Assign one entry of a face block; True once the block has closed."""
    match = _FACE.match(scanner.text, scanner.pos)
    # ``t`` looks up None, and a run not in the address memo a str: no face
    run = match and match[2]
    k = match and positions.get(run and scanner._addresses.get(run, run))
    if k is not None and values[k] is None:
        values[k], scanner.pos = match[3], match.end()
        return match[4] == "}"
    if scanner.try_symbol("t"):
        address = None
    elif scanner.try_symbol("s"):
        address = scanner.address()
    else:
        raise scanner.error("'t' or 's'")
    k = positions.get(address)
    if k is None:
        try:
            Face(shape, address)  # a face the shape lacks fails Face's own check
        except CompositionError as error:
            raise ParseError(str(error), *scanner.position())
    scanner.expect_symbol("<-")
    value = scanner.name()
    if values[k] is not None:
        raise ParseError(f"face {faces_of(shape)[k]} assigned twice", *scanner.position())
    values[k] = value
    if scanner.try_symbol(","):
        return False
    scanner.expect_symbol("}")
    return True


def print_oset(X: OpetopicSet) -> str:
    lines = []
    for shape in X.support():
        faces = faces_of(shape)
        labels = ["t" if face.is_target else f"s {face.address}" for face in faces]
        for name, values in X.cells[shape].items():
            if shape.dim == 0:
                lines.append(f"cell {name} : {shape}")
                continue
            parts = ", ".join(f"{label} <- {value}" for label, value in zip(labels, values))
            lines.append(f"cell {name} : {shape} {{ {parts} }}")
    return "\n".join(lines) + ("\n" if lines else "")
