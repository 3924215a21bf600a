import hashlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opetopic
from opetopic import cli
from opetopic.address import MAX_ADDRESS_DEPTH, parse_address
from opetopic.cli import main
from opetopic.errors import ParseError
from opetopic.formats import parse_polygraph, print_polygraph
from opetopic.opetope import enumerate_opetopes
from opetopic.realization import nerve
from randomized import RandomPolygraphConfig, random_polygraph
from test_realization import COLLIDING_NAMES

GOLDEN = Path(__file__).parent / "golden"
BENCH_REFERENCE = Path(__file__).parents[1] / "bench" / "reference"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCommands:
    def test_enumerate_matches_bench_reference(self, capsys):
        """``enumerate --dim 8 --max-nodes 2`` prints the 14,907 lines
        whose SHA-256 the benchmark pins."""
        reference = json.loads((BENCH_REFERENCE / "enumerate.json").read_text())
        code, out, _ = run(capsys, "enumerate", "--dim", "8", "--max-nodes", "2")
        assert code == 0
        assert len(out.splitlines()) == reference["count"] == 14_907
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == reference["sha256"]

    def test_target(self, capsys, tmp_path):
        path = tmp_path / "two.optp"
        path.write_text("opetope two = {[] <- arrow, [*] <- arrow}\n")
        code, out, _ = run(capsys, "target", str(path))
        assert code == 0 and out.strip() == "arrow"

    def test_target_expr(self, capsys):
        code, out, _ = run(capsys, "target", "--expr", "<<arrow>>")
        assert code == 0 and out.strip() == "{[] <- arrow}"

    def test_source(self, capsys):
        code, out, _ = run(
            capsys, "source", "--addr", "[*]", "--expr",
            "{[] <- arrow, [*] <- arrow}",
        )
        assert code == 0 and out.strip() == "arrow"

    def test_leaves_and_readdress(self, capsys):
        code, out, _ = run(capsys, "leaves", "--expr", "{[] <- arrow, [*] <- arrow}")
        assert code == 0 and out.split() == ["[**]"]
        code, out, _ = run(
            capsys, "readdress", "--expr", "{[] <- arrow, [*] <- arrow}"
        )
        assert code == 0 and out.strip() == "[**] -> []"

    def test_readdress_prints_the_leaves_in_address_order(self, capsys):
        expr = (
            "{[] <- {[] <- arrow, [*] <- arrow}, [[]] <- {[] <- arrow}, "
            "[[*]] <- {[] <- arrow, [*] <- arrow}}"
        )
        code, out, _ = run(capsys, "readdress", "--expr", expr)
        assert code == 0
        assert out == "[**] -> []\n[[*][]] -> [*]\n[[*][*]] -> [**]\n"
        code, out, _ = run(capsys, "readdress", "--json", "--expr", expr)
        assert code == 0
        assert out == (
            '{\n  "[**]": "[]",\n  "[[*][]]": "[*]",\n  "[[*][*]]": "[**]"\n}\n'
        )

    def test_a_closed_pipe_ends_quietly(self):
        # the output (156 kB) is larger than a pipe holds, so the command is
        # still writing when the reader closes its end
        env = {**os.environ, "PYTHONPATH": str(Path(opetopic.__file__).parents[1])}
        process = subprocess.Popen(
            [sys.executable, "-m", "opetopic", "enumerate", "--dim", "6", "--max-nodes", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert process.stdout.readline() == b"<<<<<<point>>>>>>\n"
        process.stdout.close()
        err = process.stderr.read()
        process.stderr.close()
        assert process.wait(timeout=120) == 1
        assert err == b""

    def test_running_out_of_memory_is_an_error_not_a_traceback(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "enumerate_opetopes", exhausted)
        code, out, err = run(capsys, "enumerate", "--dim", "3", "--max-nodes", "99")
        assert (code, out, err) == (1, "", "error: out of memory\n")

    def test_enumerate_matches_pinned_output(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--dim", "2", "--max-nodes", "3")
        assert code == 0
        assert out.splitlines() == [
            "<<point>>",
            "{[] <- arrow}",
            "{[] <- arrow, [*] <- arrow}",
            "{[] <- arrow, [*] <- arrow, [**] <- arrow}",
        ]

    @pytest.mark.parametrize("dim, bound", [(2, 3), (4, 2), (3, 0)])
    def test_enumerate_writes_the_joined_listing(self, capsys, dim, bound):
        """Written line by line, the listing is the joined one, and an
        empty enumeration is one empty line."""
        lines = [str(omega) for omega in enumerate_opetopes(dim, bound)]
        argv = ("enumerate", "--dim", str(dim), "--max-nodes", str(bound))
        assert run(capsys, *argv) == (0, "\n".join(lines) + "\n", "")
        assert run(capsys, *argv, "--json") == (0, json.dumps(lines, indent=2) + "\n", "")
        assert bool(lines) == (bound > 0)

    def test_enumerate_writes_each_cached_print_itself(self):
        """No copy of the listing is made: every part written is an
        opetope's cached print, the very string, or a line break."""

        class Parts:
            def __init__(self):
                self.parts = []

            def write(self, text):
                self.parts.append(text)
                return len(text)

            def flush(self):
                pass

        out = Parts()
        with redirect_stdout(out):
            assert main(["enumerate", "--dim", "4", "--max-nodes", "2"]) == 0
        opetopes = enumerate_opetopes(4, 2)
        assert len(out.parts) == 2 * len(opetopes) > 2
        assert all(part is omega._str for part, omega in zip(out.parts[::2], opetopes))
        assert all(part == "\n" for part in out.parts[1::2])

    def test_hom_three_classes(self, capsys):
        code, out, _ = run(
            capsys, "hom", "--from", "point", "--to", "{[] <- arrow, [*] <- arrow}"
        )
        assert code == 0 and len(out.splitlines()) == 3

    @pytest.mark.parametrize(
        "source, target", [("point garbage", "arrow"), ("point", "arrow garbage")]
    )
    def test_hom_rejects_trailing_text(self, capsys, source, target):
        code, out, err = run(capsys, "hom", "--from", source, "--to", target)
        assert code == 2 and out == "" and "end of input" in err

    def test_validate_polygraph(self, capsys):
        code, out, _ = run(capsys, "validate", str(GOLDEN / "path.poly"))
        assert code == 0 and out.strip() == "pass"

    def test_validate_opetope_file(self, capsys):
        path = str(GOLDEN / "shapes.optp")
        assert run(capsys, "validate", path) == (0, "pass\n", "")
        code, out, err = run(capsys, "validate", "--json", path)
        assert (code, err) == (0, "")
        assert json.loads(out) == {"ok": True, "failures": []}

    def test_validate_a_missing_file_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "missing.poly"
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1

    def test_validate_failure_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.poly"
        path.write_text("gen 0 a\ngen 1 f : a -> ghost\n")
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 1 and "ghost" in out

    def test_validate_reports_an_unreroutable_image(self, capsys, tmp_path):
        """X's source tree sets a node on a slot that eps lacks, so
        flattening W reroutes an image through an input that Y's gluing
        does not have: a ``GraftError``, not a bare ``KeyError``, reported
        along with the failure found before it."""
        path = tmp_path / "reroute.poly"
        path.write_text(
            "gen 0 a\n"
            "gen 1 f : a -> a\n"
            "gen 2 eps : {[] <- f} -> f\n"
            "gen 3 X : {[] <- eps, [[*]] <- eps} -> eps\n"
            "gen 3 Y : {[] <- eps} -> eps\n"
            "gen 4 W : {[] <- X, [*] <- Y} -> X\n"
        )
        report = (
            "3-generator 'X': node at [[*]] sits on [*], not an input of the "
            "node at []\n"
            "4-generator 'W': cannot reroute image [[*]] through the node at "
            "[*]: its gluing has no input [*]\n"
        )
        # validate prints its report; nerve and roundtrip refuse with it
        assert run(capsys, "validate", str(path)) == (1, report, "")
        assert run(capsys, "nerve", str(path)) == (1, "", report)
        code, _, err = run(capsys, "roundtrip", str(path))
        assert (code, err) == (1, report)

    def test_parse_error_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.optp"
        path.write_text("opetope x = {[] <- }\n")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2 and "expected" in err

    @pytest.mark.parametrize("command", ["validate", "roundtrip", "nerve"])
    def test_generator_declared_twice_is_a_parse_error(self, capsys, tmp_path, command):
        path = tmp_path / "twice.poly"
        path.write_text("gen 0 p\ngen 0 p\n")
        assert run(capsys, command, str(path)) == (
            2, "", "error: line 2, column 7: duplicate 0-generator 'p'\n"
        )

    def test_realize_and_boundary(self, capsys):
        code, out, _ = run(capsys, "realize", "--expr", "{[] <- arrow, [*] <- arrow}")
        assert code == 0
        assert sum(1 for line in out.splitlines() if line.startswith("gen 2")) == 1
        code, out, _ = run(capsys, "boundary", "--expr", "{[] <- arrow, [*] <- arrow}")
        assert code == 0
        assert not any(line.startswith("gen 2") for line in out.splitlines())

    def test_shape(self, capsys):
        code, out, _ = run(capsys, "shape", "--gen", "m", str(GOLDEN / "path.poly"))
        assert code == 0 and out.strip() == "{[] <- arrow, [*] <- arrow}"

    @pytest.mark.parametrize("dim", ["5", "-1"])
    def test_shape_in_an_empty_dimension_is_an_unknown_name(self, capsys, dim):
        code, out, err = run(
            capsys, "shape", "--gen", "a", "--dim", dim, str(GOLDEN / "path.poly")
        )
        assert (code, out, err) == (2, "", f"error: no {dim}-generator named 'a'\n")

    def test_shape_of_a_name_in_two_dimensions_needs_a_dimension(self, capsys, tmp_path):
        path = tmp_path / "loop.poly"
        path.write_text("gen 0 a\ngen 1 a : a -> a\n")
        code, out, err = run(capsys, "shape", "--gen", "a", str(path))
        assert (code, out, err) == (2, "", "error: 'a' exists in dimensions [0, 1]; pass --dim\n")

    def test_nerve_and_yoneda(self, capsys):
        code, out, _ = run(capsys, "nerve", str(GOLDEN / "path.poly"))
        assert code == 0 and "cell m :" in out
        code, out, _ = run(
            capsys, "yoneda", "--expr", "{[] <- arrow, [*] <- arrow}"
        )
        assert code == 0 and "cell id :" in out

    def test_roundtrip_runs_equivalence_checks(self, capsys, tmp_path):
        # mutilate the path polygraph so validation fails: exit code 1,
        # canonical text still printed
        path = tmp_path / "bad.poly"
        path.write_text(
            "gen 0 a\ngen 0 b\ngen 1 f : a -> b\ngen 1 k : b -> a\n"
            "gen 2 m : {[] <- f} -> k\n"
        )
        code, out, err = run(capsys, "roundtrip", str(path))
        assert code == 1
        assert out.startswith("gen 0 a")
        assert "not parallel" in err

    def test_roundtrip_with_a_cell_named_like_a_disambiguated_one(
        self, capsys, tmp_path
    ):
        # ``c`` at two shapes would be ``c@0`` and ``c@1``, but ``c@0`` is taken
        path = tmp_path / "names.oset"
        path.write_text(COLLIDING_NAMES)
        assert run(capsys, "validate", str(path)) == (0, "pass\n", "")
        code, out, err = run(capsys, "roundtrip", str(path))
        assert (code, err) == (0, "")
        assert out.splitlines()[2:] == COLLIDING_NAMES.splitlines()[2:]

    def test_identities_json(self, capsys):
        code, out, _ = run(
            capsys, "identities", "--json", "--expr", "{[] <- arrow}"
        )
        assert code == 0
        assert json.loads(out) == {"ok": True, "failures": []}

    def test_json_outputs_are_valid(self, capsys):
        for argv in [
            ("enumerate", "--dim", "2", "--max-nodes", "2", "--json"),
            ("target", "--expr", "<<point>>", "--json"),
            ("realize", "--expr", "arrow", "--json"),
            ("readdress", "--expr", "{[] <- arrow}", "--json"),
        ]:
            code, out, _ = run(capsys, *argv)
            assert code == 0
            json.loads(out)

    def test_deep_address_is_an_error_not_a_crash(self, capsys):
        deep = "[" * 3000 + "]" * 3000
        code, out, err = run(
            capsys, "source", "--expr", "{[] <- arrow}", "--addr", deep
        )
        assert code in (1, 2) and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_deep_address_bound_twice_is_an_error_not_a_crash(self, capsys):
        deep = "[" * 1200 + "]" * 1200
        code, out, err = run(
            capsys, "target", "--expr", f"{{[] <- arrow, {deep} <- arrow, {deep} <- arrow}}"
        )
        assert code == 2 and out == ""
        assert err.startswith("error: line 1, column ") and "Traceback" not in err
        assert f"address {parse_address(deep)} bound twice (lines 1 and 1)" in err

    def test_deep_address_spelled_twice_is_an_error_not_a_crash(self, capsys):
        # the two spellings differ in text, so only interning the parsed
        # addresses keeps the duplicate test from comparing them entry by entry
        deep = "[" * 1200 + "]" * 1200
        spaced = "[" * 1200 + " " + "]" * 1200
        code, out, err = run(
            capsys, "target", "--expr", f"{{[] <- arrow, {deep} <- arrow, {spaced} <- arrow}}"
        )
        assert code == 2 and out == ""
        assert err.startswith("error: line 1, column ") and "Traceback" not in err
        assert f"address {parse_address(deep)} bound twice (lines 1 and 1)" in err

    def test_address_past_the_depth_bound_is_refused_before_hashing(self, tmp_path):
        # hashing an address this deep overflows the C stack, so the run is
        # a subprocess, where a crash shows as its exit code
        deep = "[" * 150_000 + "]" * 150_000
        path = tmp_path / "deep.optp"
        path.write_text(f"opetope x = {{[] <- arrow, {deep} <- arrow}}\n")
        env = {**os.environ, "PYTHONPATH": str(Path(opetopic.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "opetopic", "target", str(path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr == (
            f"error: line 1, column {27 + MAX_ADDRESS_DEPTH}: expected an address "
            f"nested at most {MAX_ADDRESS_DEPTH} deep, found '['\n"
        )

    def test_address_at_the_depth_bound_is_read(self):
        deep = "[" * MAX_ADDRESS_DEPTH + "]" * MAX_ADDRESS_DEPTH
        assert str(parse_address(deep)) == "[" * (MAX_ADDRESS_DEPTH - 1) + "*" + "]" * (
            MAX_ADDRESS_DEPTH - 1
        )
        with pytest.raises(ParseError, match=f"nested at most {MAX_ADDRESS_DEPTH} deep"):
            parse_address("[" + deep + "]")

    def test_deep_orphans_that_differ_at_the_bottom_are_checked_before_sorting(
        self, capsys
    ):
        # sorting would compare the two entry by entry, past the recursion limit
        deep = "[" * 3000 + "]" * 3000
        other = "[" * 2999 + "**" + "]" * 2999
        code, out, err = run(
            capsys, "target", "--expr", f"{{[] <- arrow, {deep} <- arrow, {other} <- arrow}}"
        )
        address = parse_address(deep)
        assert code == 1 and out == ""
        assert err == (
            f"error: node at {address} sits on {address.last}, "
            "not an input of the node at []\n"
        )

    @pytest.mark.parametrize("command", ["validate", "roundtrip"])
    def test_cell_tree_too_deep_to_sort_is_an_error_not_a_crash(
        self, capsys, tmp_path, command
    ):
        deep = "[" * 1200 + "]" * 1200
        other = "[" * 1199 + "**" + "]" * 1199
        path = tmp_path / "deep.poly"
        path.write_text(
            "gen 0 o\ngen 1 f : o -> o\n"
            f"gen 2 a : {{[] <- f, {deep} <- f, {other} <- f}} -> f\n"
        )
        code, out, err = run(capsys, command, str(path))
        assert code == 2 and out == ""
        assert err == "error: maximum recursion depth exceeded in comparison\n"

    @pytest.mark.parametrize("digit", ["\u00b2", "\u0663"])
    def test_only_ascii_digits_are_numbers(self, capsys, tmp_path, digit):
        path = tmp_path / "bad.poly"
        path.write_text(f"gen {digit} x\n", encoding="utf-8")
        code, out, err = run(capsys, "roundtrip", str(path))
        assert code == 2 and out == ""
        assert err == f"error: line 1, column 5: expected a number, found {digit!r}\n"

    @pytest.mark.parametrize("depth", [1000, 2000])
    @pytest.mark.parametrize("opening, closing", [("<<", ">>"), ("{[] <- ", "}")])
    def test_deep_expression_is_an_error_not_a_crash(
        self, capsys, depth, opening, closing
    ):
        expr = opening * depth + "arrow" + closing * depth
        code, out, err = run(capsys, "target", "--expr", expr)
        assert code == 2 and out == ""
        assert err.startswith("error: line 1, column ") and "Traceback" not in err
        assert "nested more than 64 deep" in err

    @pytest.mark.parametrize("command", ["target", "realize", "yoneda", "identities"])
    def test_expression_at_the_nesting_bound_still_works(self, capsys, command):
        code, out, _ = run(capsys, command, "--expr", "<<" * 64 + "point" + ">>" * 64)
        assert code == 0 and out

    @pytest.mark.parametrize(
        "command, size",
        [("target", 510), ("realize", 28_685), ("yoneda", 62_920), ("identities", 5)],
    )
    def test_braces_at_the_nesting_bound_still_work(self, capsys, command, size):
        # braces cost the reader the most frames per level
        expr = "{[] <- " * 64 + "arrow" + "}" * 64
        code, out, _ = run(capsys, command, "--expr", expr)
        assert code == 0 and len(out.encode()) == size

    def test_braces_past_the_nesting_bound_are_an_error(self, capsys):
        expr = "{[] <- " * 65 + "arrow" + "}" * 65
        code, out, err = run(capsys, "target", "--expr", expr)
        assert code == 2 and out == ""
        assert err == "error: line 1, column 456: opetope expression nested more than 64 deep\n"

    @pytest.mark.parametrize("command", ["target", "realize", "yoneda"])
    def test_deep_chain_of_definitions_is_an_error_not_a_crash(
        self, capsys, tmp_path, command
    ):
        # each line adds two dimensions; a0..a64 reach 128, a65 is 130
        lines = ["opetope a0 = point"]
        lines += [f"opetope a{i} = <<a{i - 1}>>" for i in range(1, 400)]
        path = tmp_path / "chain.optp"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, command, str(path))
        assert code == 2 and out == ""
        assert err == "error: line 66, column 15: opetope of dimension 130 is above 129\n"

    def test_a_polygraph_four_hundred_dimensions_deep(self, capsys, tmp_path):
        lines = ["gen 0 a", "gen 1 e1 : a -> a"]
        lines += [f"gen {n} e{n} : {{[] <- e{n - 1}}} -> e{n - 1}" for n in range(2, 401)]
        path = tmp_path / "chain.poly"
        path.write_text("\n".join(lines) + "\n")
        P = parse_polygraph(path.read_text())
        assert P.validate().ok
        assert len(nerve(P, P.max_dim).cells) == 401
        commands = [["validate"], ["nerve"], ["roundtrip"], ["shape", "--gen", "e200"]]
        commands += [["shape", "--gen", "e400"], ["shape", "--gen", "e400", "--json"]]
        for argv in commands:
            code, out, err = run(capsys, *argv, str(path))
            assert (code, err) == (0, "") and out

    @pytest.mark.parametrize(
        "command", ["target", "realize", "yoneda", "boundary", "identities"]
    )
    def test_dimension_at_the_bound_still_works(self, capsys, command):
        code, out, _ = run(capsys, command, "--expr", "<<" * 64 + "arrow" + ">>" * 64)
        assert code == 0 and out

    def test_usage_error_exit_code(self, capsys):
        assert main(["enumerate"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("yoneda", "--expr", "arrow", "--max-dim", "0"),
            ("yoneda", "--expr", "{[] <- arrow}", "--max-dim", "-1"),
            ("enumerate", "--dim", "-1", "--max-nodes", "2"),
            ("enumerate", "--dim", "2", "--max-nodes", "-1"),
            ("nerve", "--max-dim", "-1", str(GOLDEN / "path.poly")),
        ],
    )
    def test_out_of_range_integers_are_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "error:" in err


class TestRoundtripCommand:
    @pytest.mark.parametrize(
        "name", ["path.poly", "loop.poly", "shapes.optp", "cells.oset"]
    )
    def test_golden_corpus_byte_identical(self, capsys, name):
        code, out, _ = run(capsys, "roundtrip", str(GOLDEN / name))
        assert code == 0
        assert out == (GOLDEN / f"{name}.canonical").read_text()

    @pytest.mark.parametrize(
        "variant,original",
        [
            ("variants/shapes_variant.optp", "shapes.optp"),
            ("variants/path_variant.poly", "path.poly"),
            ("variants/cells_variant.oset", "cells.oset"),
        ],
    )
    def test_variants_canonicalize_to_same_form(self, capsys, variant, original):
        code, out, _ = run(capsys, "roundtrip", str(GOLDEN / variant))
        assert code == 0
        assert out == (GOLDEN / f"{original}.canonical").read_text()

    @pytest.mark.parametrize(
        "name, parses",
        [("path.poly.canonical", 1), ("path.poly", 2), ("cells.oset.canonical", 1)],
    )
    def test_canonical_input_is_parsed_once(self, capsys, monkeypatch, name, parses):
        kind = "oset" if ".oset" in name else "polygraph"
        parse, show = cli._FORMATS[kind]
        calls = []

        def counting(text):
            calls.append(text)
            return parse(text)

        monkeypatch.setitem(cli._FORMATS, kind, (counting, show))
        code, out, _ = run(capsys, "roundtrip", str(GOLDEN / name))
        assert code == 0
        canonical = name if name.endswith(".canonical") else f"{name}.canonical"
        assert out == (GOLDEN / canonical).read_text()
        assert len(calls) == parses


# the opetope commands on the low dimensions, where the point and the arrow
# show, and on a dim-3 and a dim-4 opetope built on ``shapes.optp``
TRANSCRIPT_COMMANDS = [
    ["target"], ["source", "--addr", "[]"], ["leaves"], ["readdress"],
    ["identities"], ["yoneda"], ["realize"], ["boundary"],
]
TRANSCRIPT_EXPRS = [
    "point", "arrow", "<<point>>", "<<arrow>>", "{[] <- arrow}",
    "{[] <- arrow, [*] <- arrow}",
]
TRANSCRIPT_FOUR = "opetope four = {[] <- tower, [*] <- {[] <- two}, [[*]] <- {[] <- two}}\n"
TRANSCRIPT_SHA256 = "b821cef408b2843308fffd8c0990c86a3eb541359994eeac9c1c537ba641be18"


class TestTranscript:
    def test_low_dimensional_transcript_is_pinned(self, capsys, tmp_path):
        """Text and ``--json`` output, errors and exit codes, hashed."""
        path = tmp_path / "shapes.optp"
        path.write_text((GOLDEN / "shapes.optp").read_text() + TRANSCRIPT_FOUR)
        inputs = [["--expr", expr] for expr in TRANSCRIPT_EXPRS]
        inputs += [[str(path), "--name", "tower"], [str(path), "--name", "four"]]
        digest = hashlib.sha256()
        for given_input in inputs:
            for command in TRANSCRIPT_COMMANDS:
                for flags in ([], ["--json"]):
                    code, out, err = run(capsys, *command, *given_input, *flags)
                    label = " ".join(command + given_input[-1:] + flags)
                    digest.update(f"{label}\n{code}\n{out}\n{err}\n".encode("utf-8"))
        assert digest.hexdigest() == TRANSCRIPT_SHA256

    def test_a_degenerate_target_in_json(self, capsys):
        code, out, err = run(capsys, "target", "--json", "--expr", "{[] <- <<point>>}")
        assert (code, err) == (0, "")
        assert out == (
            '{\n  "dim": 2,\n  "kind": "degenerate",\n'
            '  "shell": {\n    "dim": 0,\n    "kind": "point"\n  }\n}\n'
        )

    def test_the_parser_refuses_a_corolla_on_the_point(self, capsys):
        code, out, err = run(capsys, "target", "--expr", "{[] <- point}")
        assert (code, out) == (1, "")
        assert err == "error: node decorations must have dimension >= 1\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["source", "--expr", "arrow", "--addr", "[*]"], "the arrow has no source at [*]"),
            (["leaves", "--expr", "arrow"], "leaf addresses need dimension >= 2"),
            (["readdress", "--expr", "arrow"], "readdressing needs dimension >= 2"),
        ],
    )
    def test_the_arrow_has_no_leaves_or_other_sources(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"


# the polygraph commands on the golden polygraphs, on seeded random ones and
# on one that fails validation in dimensions 1, 2 and 3; ``shape`` runs on
# every generator
POLY_TRANSCRIPT_SEEDS = range(20)
POLY_TRANSCRIPT_CONFIG = RandomPolygraphConfig(max_dim=4)
POLY_TRANSCRIPT_BROKEN = """gen 0 a
gen 0 b
gen 1 f : a -> b
gen 1 g : a -> zz
gen 1 h : b -> b
gen 2 m : {[] <- h, [*] <- f} -> f
gen 2 n : id(a) -> f
gen 2 k : {[] <- f} -> h
gen 2 q : {[] <- h} -> f
gen 3 t : {[] <- m} -> n
"""
POLY_TRANSCRIPT_SHA256 = "4ac5ca6b71638a4d333c8d76ba05f64282b6809d4a43f9a0374c2c81e40412a2"


class TestPolygraphTranscript:
    def test_polygraph_transcript_is_pinned(self, capsys, tmp_path):
        """Exit codes, stdout and stderr of the polygraph commands, hashed."""
        inputs = [(name, (GOLDEN / name).read_text()) for name in ("loop.poly", "path.poly")]
        for seed in POLY_TRANSCRIPT_SEEDS:
            P = random_polygraph(random.Random(seed), POLY_TRANSCRIPT_CONFIG)
            inputs.append((f"seed {seed}", print_polygraph(P)))
        inputs.append(("broken", POLY_TRANSCRIPT_BROKEN))
        path = tmp_path / "input.poly"
        digest = hashlib.sha256()
        for label, text in inputs:
            path.write_text(text)
            commands = [["validate"], ["roundtrip"], ["nerve"], ["nerve", "--json"]]
            P = parse_polygraph(text)
            for dim in range(P.max_dim + 1):
                for name in sorted(P.generators(dim)):
                    shape = ["shape", "--gen", name, "--dim", str(dim)]
                    commands += [shape, shape + ["--json"]]
            for command in commands:
                code, out, err = run(capsys, *command, str(path))
                label_line = f"{label}: {' '.join(command)}"
                digest.update(f"{label_line}\n{code}\n{out}\n{err}\n".encode("utf-8"))
        assert digest.hexdigest() == POLY_TRANSCRIPT_SHA256


# -- fuzzing: random and mutated text through every command ----------------

FUZZ_CORPUS = sorted(
    path.read_text(encoding="utf-8")
    for path in GOLDEN.rglob("*")
    if path.suffix in (".poly", ".oset", ".optp", ".canonical")
) + ["point", "arrow", "<<point>>", "{[] <- arrow, [*] <- arrow}", "{[] <- <<point>>}"]
FUZZ_TOKENS = [
    "gen", "cell", "opetope", "point", "arrow", "id", "(", ")", "<<", ">>", "{",
    "}", "[", "]", "*", "<-", "->", ",", ":", "=", "t", "s", "#", "\n", " ",
    "0", "1", "2", "3", "a", "f", "m", "x", "two", "٣", "é",
]
# small enough that ``enumerate`` stays quick; a --max-dim may be huge
FUZZ_NUMBERS = ["0", "1", "2", "3", "-1", "", "x", " 2", "٢"]
FUZZ_MAX_DIMS = FUZZ_NUMBERS + ["10", "99999999999999999999"]
FUZZ_OPETOPE_COMMANDS = [
    "target", "leaves", "readdress", "identities", "realize", "boundary", "yoneda"
]


def mutated(text, edits):
    """Delete, duplicate or insert at relative positions of ``text``."""
    for kind, where, length, token in edits:
        i = int(where * len(text))
        j = min(len(text), i + length)
        if kind == "delete":
            text = text[:i] + text[j:]
        elif kind == "duplicate":
            text = text[:j] + text[i:j] + text[j:]
        else:
            text = text[:i] + token + text[i:]
    return text


FUZZ_TEXTS = st.one_of(
    st.text(alphabet=sorted(set("".join(FUZZ_TOKENS))), max_size=40),
    st.lists(st.sampled_from(FUZZ_TOKENS), max_size=30).map(" ".join),
    st.builds(
        mutated,
        st.sampled_from(FUZZ_CORPUS),
        st.lists(
            st.tuples(
                st.sampled_from(["delete", "duplicate", "insert"]),
                st.floats(0, 1),
                st.integers(1, 12),
                st.sampled_from(FUZZ_TOKENS),
            ),
            min_size=1,
            max_size=4,
        ),
    ),
)


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


class TestFuzz:
    """Whatever the text, every command and every format ends in exit 0, 1
    or 2, and no exception escapes ``main``."""

    @settings(max_examples=120, deadline=None)
    @given(
        FUZZ_TEXTS,
        FUZZ_TEXTS,
        st.sampled_from(FUZZ_NUMBERS),
        st.sampled_from(FUZZ_NUMBERS),
        st.sampled_from(FUZZ_MAX_DIMS),
        st.sampled_from(["a", "f", "m", "x"]),
    )
    def test_every_command_exits_cleanly(
        self, fuzz_file, text, other, n, m, max_dim, gen
    ):
        fuzz_file.write_text(text, encoding="utf-8")
        path = str(fuzz_file)
        argvs = [
            ["validate", path],
            ["roundtrip", path],
            ["nerve", path],
            ["nerve", path, "--json", "--max-dim", max_dim],
            ["shape", "--gen", gen, path],
            ["shape", "--gen", gen, "--dim", n, path, "--json"],
            ["enumerate", "--dim", n, "--max-nodes", m],
            ["hom", "--from", other, "--to", text],
            ["source", path, "--addr", other],
            ["source", "--expr", text, "--addr", other, "--json"],
            ["yoneda", "--expr", text, "--max-dim", max_dim],
        ]
        for command in FUZZ_OPETOPE_COMMANDS:
            argvs.append([command, path, "--name", gen])
            argvs.append([command, "--expr", text, "--json"])
        for argv in argvs:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 1, 2), argv
