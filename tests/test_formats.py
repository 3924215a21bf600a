import json
import random
import re
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opetopic.address import parse_address
from opetopic.errors import ParseError
from opetopic import formats
from opetopic.formats import (
    parse_opetope_expr,
    parse_opetope_file,
    parse_oset,
    parse_polygraph,
    print_opetope_file,
    print_oset,
    print_polygraph,
    Scanner,
)
from opetopic.opetope import (
    arrow,
    degenerate,
    enumerate_opetopes,
    opetopic_integer,
    point,
)
from opetopic.oset import validate_oset
from opetopic.realization import nerve
from opetopic.trees import corolla

from randomized import random_polygraph

GOLDEN = Path(__file__).parent / "golden"

PARSERS = {
    "polygraph": parse_polygraph,
    "oset": parse_oset,
    "opetope": parse_opetope_file,
}

# malformed texts of all three formats with their exact error messages:
# names, numbers, symbols, t/s faces, id(, unbalanced and wrong-character
# addresses, duplicate bindings, comments between tokens
ERROR_CORPUS = json.loads((GOLDEN / "parse_errors.json").read_text(encoding="utf-8"))


def expr(text):
    scanner = Scanner(text)
    result = parse_opetope_expr(scanner, {})
    assert scanner.at_end()
    return result


class TestOpetopeExpressions:
    def test_constants(self):
        assert expr("point") == point()
        assert expr("arrow") == arrow()

    def test_degenerate(self):
        assert expr("<<point>>") == opetopic_integer(0)
        assert expr("<< arrow >>") == degenerate(arrow())

    def test_node_map(self):
        assert expr("{[] <- arrow, [*] <- arrow}") == opetopic_integer(2)

    def test_star_sugar_accepted(self):
        assert expr("{[] <- arrow, [[]] <- arrow}") == opetopic_integer(2)

    def test_roundtrip_canonical(self):
        for omega in [
            point(),
            arrow(),
            opetopic_integer(0),
            opetopic_integer(3),
            degenerate(arrow()),
        ]:
            assert expr(str(omega)) == omega

    def test_duplicate_binding_reports_both_lines(self):
        text = "{[] <- arrow,\n[] <- arrow}"
        with pytest.raises(ParseError) as info:
            expr(text)
        assert "lines 1 and 2" in str(info.value)

    def test_unknown_name(self):
        with pytest.raises(ParseError) as info:
            expr("mystery")
        assert "mystery" in str(info.value)

    def test_incoherent_expression_rejected(self):
        from opetopic.errors import CoherenceError

        with pytest.raises(CoherenceError):
            expr("{[] <- {[] <- {[] <- arrow, [*] <- arrow}}, [[]] <- {[] <- {[] <- arrow}}}")

    def test_nesting_bound_holds_for_a_repeated_subexpression(self):
        """A subexpression parsed once at a shallow depth is as deep where
        it recurs under 60 more blocks."""
        inner = "{[] <- " * 10 + "arrow" + "}" * 10
        text = (
            f"opetope a = {inner}\n"
            "opetope b = " + "{[] <- " * 60 + inner + "}" * 60 + "\n"
        )
        with pytest.raises(ParseError) as info:
            parse_opetope_file(text)
        assert str(info.value) == (
            "line 2, column 468: opetope expression nested more than 64 deep"
        )

    def test_nesting_bound_holds_for_a_repeated_degenerate_span(self):
        """The same rule for ``<<``: a span read whole at depth 40 is too
        deep where it recurs under 30 more brackets."""
        inner = "<<" * 40 + "point" + ">>" * 40
        text = f"opetope a = {inner}\nopetope b = " + "<<" * 30 + inner + ">>" * 30 + "\n"
        with pytest.raises(ParseError) as info:
            parse_opetope_file(text)
        assert str(info.value) == (
            "line 2, column 143: opetope expression nested more than 64 deep"
        )

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "<<" * 40 + "point" + ">>" * 39,
                "line 1, column 164: expected '>>', found 'end of input'",
            ),
            (
                "{[] <- " * 40 + "arrow" + "}" * 39,
                "line 1, column 325: expected '}', found 'end of input'",
            ),
            (
                "{[] <- " * 20 + "<<" * 20 + "nope" + ">>" * 20 + "}" * 20,
                "line 1, column 185: unknown opetope name 'nope'",
            ),
            (
                "{[] <- " * 30 + "arrow, [] <- arrow" + "}" * 30,
                "line 1, column 229: address [] bound twice (lines 1 and 1)",
            ),
            (
                "{[] <- " * 30 + "arrow ; [] <- arrow" + "}" * 30,
                "line 1, column 217: expected '}', found ';'",
            ),
        ],
    )
    def test_errors_deep_inside_an_expression_keep_their_positions(self, text, message):
        with pytest.raises(ParseError) as info:
            expr(text)
        assert str(info.value) == message

    def test_the_deepest_expression_parses_within_a_small_recursion_budget(self):
        """Braces cost the reader the most frames per level; 64 of them
        parse with 250 frames to spare above the caller."""
        text = "{[] <- " * 64 + "arrow" + "}" * 64
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 250)
        try:
            omega = expr(text)
        finally:
            sys.setrecursionlimit(limit)
        assert omega.dim == 65

    def test_memo_keeps_one_text_per_whole_expression(self):
        """The span memo keeps whole expressions only, so a deep expression
        is kept once, not once per level of nesting."""
        inner = "{[] <- " * 10 + "arrow" + "}" * 10
        outer = "{[] <- " + inner + "}"
        scanner = Scanner(f"{inner}\n{outer}\n{outer}")
        first = parse_opetope_expr(scanner, {})
        second = parse_opetope_expr(scanner, {})
        assert parse_opetope_expr(scanner, {}) is second
        assert second.source_at(second.node_addresses()[0]) is first
        assert list(scanner.spans) == [inner, outer]
        assert [depth for _, depth in scanner.spans.values()] == [10, 11]


class TestOpetopeFiles:
    def test_definitions_see_earlier_names(self):
        from opetopic.address import EMPTY

        env = parse_opetope_file(
            "opetope two = {[] <- arrow, [*] <- arrow}\n"
            "opetope tower = {[] <- two, [[]] <- two}\n"
        )
        assert list(env) == ["two", "tower"]
        assert env["tower"].dim == 3
        assert env["tower"].source_at(EMPTY) == env["two"]

    def test_redefinition_rejected(self):
        with pytest.raises(ParseError):
            parse_opetope_file("opetope x = point\nopetope x = arrow\n")

    def test_print_parse_identity(self):
        env = parse_opetope_file((GOLDEN / "shapes.optp").read_text())
        canonical = print_opetope_file(env)
        assert parse_opetope_file(canonical) == env
        assert print_opetope_file(parse_opetope_file(canonical)) == canonical


class TestPolygraphFiles:
    def test_parse_and_validate(self):
        P = parse_polygraph((GOLDEN / "path.poly").read_text())
        assert P.validate().ok
        assert P.generators(2) == ("m",)

    def test_identity_source_form(self):
        P = parse_polygraph((GOLDEN / "loop.poly").read_text())
        assert P.validate().ok
        assert P.gen_data(2, "u").source_tree.is_unit

    def test_duplicate_generator_rejected(self):
        with pytest.raises(ParseError) as info:
            parse_polygraph("gen 0 p\ngen 0 p\n")
        assert str(info.value) == "line 2, column 7: duplicate 0-generator 'p'"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("gen 0 p\n gen  0\n  p\n", "line 3, column 3: duplicate 0-generator 'p'"),
            (
                "gen 0 a\ngen 1 f : a -> a\ngen 1 f : a -> a\n",
                "line 3, column 7: duplicate 1-generator 'f'",
            ),
            (
                "gen 2 m : id(a) -> f\ngen 2 m : {[] <- f} -> f\n",
                "line 2, column 7: duplicate 2-generator 'm'",
            ),
        ],
    )
    def test_duplicate_generator_at_its_name_on_either_path(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_polygraph(text)
        assert str(info.value) == message

    def test_arrows_on_one_point_share_its_corolla(self):
        # h is read token by token, f and g with one match each
        P = parse_polygraph(
            "gen 0 a\ngen 0 b\ngen 1 f : a -> b\ngen 1 g : b -> a\ngen 1 h :\n a -> a\n"
        )
        f, g, h = (P.gen_data(1, name).source_tree for name in "fgh")
        assert f is h and f is not g
        assert (f, g) == (corolla("a"), corolla("b"))

    def test_parse_error_position(self):
        with pytest.raises(ParseError) as info:
            parse_polygraph("gen 1 f : a\n")
        assert info.value.line is not None
        assert "'->'" in str(info.value)


class TestOSetFiles:
    def test_parse_and_validate(self):
        X = parse_oset((GOLDEN / "cells.oset").read_text())
        assert validate_oset(X).ok

    def test_face_block_must_be_complete(self):
        with pytest.raises(ParseError) as info:
            parse_oset("cell f : arrow { t <- x }\n")
        assert "missing faces" in str(info.value)

    def test_spurious_face_rejected(self):
        text = "cell p : point\ncell q : point\ncell f : arrow { t <- p, s [] <- q, s [*] <- q }\n"
        with pytest.raises(ParseError) as info:
            parse_oset(text)
        assert "not a node address" in str(info.value)

    def test_duplicate_face_rejected(self):
        text = "cell p : point\ncell f : arrow { t <- p, s [] <- p, t <- p }\n"
        with pytest.raises(ParseError) as info:
            parse_oset(text)
        assert "assigned twice" in str(info.value)

    def test_dim_zero_cells_have_no_block(self):
        X = parse_oset("cell p : point\n")
        assert X.cells_at(point()) == ["p"]

    def test_same_shape_text_around_a_definition(self):
        cells = "{ t <- f, s [] <- f }\n"
        text = (
            "cell p : point\ncell f : arrow { t <- p, s [] <- p }\n"
            "opetope A = arrow\n"
            f"cell u : {{[] <- A}} {cells}"
            "opetope B = <<point>>\n"
            f"cell v : {{[] <- A}} {cells}"
            f"cell w :  # the same text after a comment\n {{[] <- A}} {cells}"
            "cell z : <<point>> { t <- f }\ncell y : <<point>>{ t <- f }\n"
        )
        X = parse_oset(text)
        assert X.cells_at(opetopic_integer(1)) == ["u", "v", "w"]
        assert X.cells_at(opetopic_integer(0)) == ["z", "y"]
        assert validate_oset(X).ok

    def test_repeated_malformed_shape_reports_its_first_occurrence(self):
        text = (
            "cell p : point\ncell f : arrow { t <- p, s [] <- p }\n"
            "cell u : {[] <- Q} { t <- f, s [] <- f }\n"
            "opetope Q = arrow\n"
            "cell v : {[] <- Q} { t <- f, s [] <- f }\n"
        )
        with pytest.raises(ParseError) as info:
            parse_oset(text)
        assert str(info.value) == "line 3, column 18: unknown opetope name 'Q'"


class TestGoldenCorpus:
    @pytest.mark.parametrize(
        "name", ["path.poly", "loop.poly", "shapes.optp", "cells.oset"]
    )
    def test_canonical_files_are_stable(self, name):
        source = (GOLDEN / name).read_text()
        canonical = (GOLDEN / f"{name}.canonical").read_text()
        if name.endswith(".poly"):
            printed = print_polygraph(parse_polygraph(source))
            again = print_polygraph(parse_polygraph(canonical))
        elif name.endswith(".oset"):
            printed = print_oset(parse_oset(source))
            again = print_oset(parse_oset(canonical))
        else:
            printed = print_opetope_file(parse_opetope_file(source))
            again = print_opetope_file(parse_opetope_file(canonical))
        assert printed == canonical
        assert again == canonical


class TestParseErrors:
    @pytest.mark.parametrize(
        "kind, text, message",
        ERROR_CORPUS,
        ids=[f"{kind}-{i}" for i, (kind, _, _) in enumerate(ERROR_CORPUS)],
    )
    def test_exact_message(self, kind, text, message):
        with pytest.raises(ParseError) as info:
            PARSERS[kind](text)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "parse, text",
        [
            (expr, "{[] <- arrow, D <- arrow, D <- arrow}"),
            (parse_polygraph, "gen 2 m : {[] <- f, D <- f, D <- f} -> g"),
        ],
    )
    def test_deep_address_bound_twice(self, parse, text):
        deep = "[" * 1200 + "]" * 1200
        with pytest.raises(ParseError) as info:
            parse(text.replace("D", deep))
        printed = str(parse_address(deep))
        assert f"address {printed} bound twice (lines 1 and 1)" in str(info.value)


# separators that may stand wherever a canonical print has a space
SEPARATORS = st.lists(
    st.sampled_from(
        [
            " ", "   ", "\t", "\n", "\u00a0", " # <- [*] }\n", "\n# gen 0 x\n\n",
            " # { << >> {\n",
        ]
    ),
    min_size=1,
    max_size=6,
)


def respaced(text, separators):
    parts = text.split(" ")
    out = [parts[0]]
    for i, part in enumerate(parts[1:]):
        out.append(separators[i % len(separators)])
        out.append(part)
    return "".join(out)


def generators(P):
    return [
        {name: P.gen_data(dim, name) for name in P.generators(dim)}
        for dim in range(P.max_dim + 1)
    ]


class TestRoundTrip:
    """parse, print, parse is the identity on random polygraphs, their
    nerves and opetope files, and whitespace and comments between tokens
    change nothing."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), SEPARATORS)
    def test_polygraphs(self, seed, separators):
        P = random_polygraph(random.Random(seed))
        text = print_polygraph(P)
        Q = parse_polygraph(text)
        assert generators(Q) == generators(P)
        assert print_polygraph(Q) == text
        assert print_polygraph(parse_polygraph(respaced(text, separators))) == text

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), SEPARATORS)
    def test_opetope_files(self, seed, separators):
        rng = random.Random(seed)
        shapes = enumerate_opetopes(rng.randint(0, 4), 2)
        env = {f"o{i}": rng.choice(shapes) for i in range(rng.randint(1, 5))}
        text = print_opetope_file(env)
        assert parse_opetope_file(text) == env
        assert print_opetope_file(parse_opetope_file(text)) == text
        noisy = respaced(text, separators)
        assert print_opetope_file(parse_opetope_file(noisy)) == text

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), SEPARATORS)
    def test_nerves(self, seed, separators):
        P = random_polygraph(random.Random(seed))
        X = nerve(P, P.max_dim)
        text = print_oset(X)
        Y = parse_oset(text)
        assert Y.cells == X.cells
        assert print_oset(Y) == text
        assert print_oset(parse_oset(respaced(text, separators))) == text


# the tokens of a canonical ``gen`` line: a whole address, a symbol, a name
# or a number
GEN_TOKEN = re.compile(r"\[[\[\]*]*|<-|->|[{}(),:]|[A-Za-z0-9_]+")


class TestOneMatchPath:
    """A canonical ``gen`` item is read with one match; any other spacing
    goes to the token path, which reads the same polygraph and gives every
    error message."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), SEPARATORS)
    def test_separators_between_any_tokens(self, seed, separators):
        text = print_polygraph(random_polygraph(random.Random(seed)))
        with mock.patch.object(formats, "_gen", wraps=formats._gen) as token_path:
            assert print_polygraph(parse_polygraph(text)) == text
            assert token_path.call_count == 0
            # a doubled separator after each ``gen`` keeps every item off
            # the one-match path
            noisy = "".join(
                token + separators[i % len(separators)] * (1 + (token == "gen"))
                for i, token in enumerate(GEN_TOKEN.findall(text))
            )
            assert print_polygraph(parse_polygraph(noisy)) == text
            assert token_path.call_count == text.count("\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "gen 2 m : {[] <- f, [*] <- g, [*] <- h} -> k",
                "line 1, column 39: address [*] bound twice (lines 1 and 1)",
            ),
            (
                "gen 2 m : {[] <- f, [[]] <- g, [*] <- h} -> k",
                "line 1, column 40: address [*] bound twice (lines 1 and 1)",
            ),
            ("gen 0 p : q -> r", "line 1, column 9: expected a name, found ':'"),
            ("gen 0 p : id(q) -> r", "line 1, column 9: expected a name, found ':'"),
            ("gen 1 f : id(a) -> b", "line 1, column 13: expected '->', found '('"),
            ("gen 2 m : f -> g", "line 1, column 11: expected '{', found 'f'"),
            (
                "gen 2 m : {[[] <- f} -> g",
                "line 1, column 16: expected ']', '[' or '*', found '<'",
            ),
            ("gen 2 m : {[]] <- f} -> g", "line 1, column 14: expected '<-', found ']'"),
            ("gen 2 m : {[]* <- f} -> g", "line 1, column 14: expected '<-', found '*'"),
        ],
    )
    def test_canonical_spacing_gives_the_token_path_message(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_polygraph(text)
        assert str(info.value) == message
        with mock.patch.object(formats, "_canonical_gen", return_value=None):
            with pytest.raises(ParseError) as info:
                parse_polygraph(text)
        assert str(info.value) == message
