"""Command-line front end.

Every command is a thin wrapper over the library: output is the canonical
text rendering (or JSON under ``--json``), and exit codes are 0 for
success, 1 for a validation failure, 2 for parse or usage errors.
Listings (``enumerate``, ``hom``, ``leaves``) and JSON are written as they
are produced, so the output is never held a second time as one string.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path
from typing import Callable

from .address import EMPTY, parse_address
from .category import faces_of, hom
from .errors import OpetopicError, ParseError, Report, UnknownNameError
from .formats import (
    Scanner,
    parse_opetope_expr,
    parse_opetope_file,
    parse_oset,
    parse_polygraph,
    print_opetope_file,
    print_oset,
    print_polygraph,
)
from .opetope import Opetope, check_identities, enumerate_opetopes
from .oset import validate_oset, yoneda
from .polygraph import MtoPolygraph
from .realization import (
    boundary_polygraph,
    nerve,
    realize_opetope,
    shape_of,
    unit_check,
    counit_check,
)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as error:
        raise ParseError(f"cannot read {path}: {error}")


def _file_kind(text: str) -> str:
    """Classify a file by the keywords opening its lines."""
    kind = "opetope"
    for line in text.splitlines():
        word = line.split("#", 1)[0].split(None, 1)
        if not word:
            continue
        if word[0] == "gen":
            return "polygraph"
        if word[0] == "cell":
            kind = "oset"
    return kind


def _parse_expr(text: str) -> Opetope:
    """One whole opetope expression; trailing text is an error."""
    scanner = Scanner(text)
    omega = parse_opetope_expr(scanner, {})
    if not scanner.at_end():
        raise scanner.error("end of input")
    return omega


def _load_opetope(args) -> Opetope:
    if getattr(args, "expr", None):
        return _parse_expr(args.expr)
    if not getattr(args, "file", None):
        raise ParseError("an opetope is required: pass a file or --expr")
    env = parse_opetope_file(_read(args.file))
    if not env:
        raise ParseError(f"{args.file} defines no opetopes")
    if getattr(args, "name", None):
        if args.name not in env:
            raise ParseError(f"{args.file} does not define {args.name!r}")
        return env[args.name]
    return env[next(reversed(env))]


def _opetope_json(omega: Opetope):
    if omega.dim == 0:
        return {"dim": 0, "kind": "point"}
    if omega.dim == 1:
        return {"dim": 1, "kind": "arrow"}
    if omega.is_degenerate:
        return {
            "dim": omega.dim,
            "kind": "degenerate",
            "shell": _opetope_json(omega.shell),
        }
    return {
        "dim": omega.dim,
        "kind": "nodes",
        "nodes": {
            str(p): _opetope_json(omega.source_at(p))
            for p in omega.node_addresses()
        },
    }


def _polygraph_json(P: MtoPolygraph):
    out = []
    for dim in range(P.max_dim + 1):
        for name in sorted(P.generators(dim)):
            entry: dict = {"dim": dim, "name": name}
            if dim:
                data = P.gen_data(dim, name)
                tree = data.source_tree
                if dim == 1:
                    entry["source"] = tree.nodes[EMPTY]
                elif tree.is_unit:
                    entry["source"] = {"identity": tree.unit_color}
                else:
                    entry["source"] = {str(p): op for p, op in tree.nodes.items()}
                entry["target"] = data.target
            out.append(entry)
    return {"generators": out}


def _write_json(payload) -> int:
    """Write ``payload`` as indented JSON, as it is encoded."""
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def _report_exit(report: Report, as_json: bool) -> int:
    if as_json:
        _write_json({"ok": report.ok, "failures": report.failures})
    else:
        print(report)
    return 0 if report.ok else 1


def _emit(text: Callable[[], str], payload: Callable[[], object], as_json: bool) -> int:
    """Print the JSON payload under ``--json``, else the text; only the
    one printed is built."""
    if as_json:
        return _write_json(payload())
    print(text())
    return 0


def _emit_lines(lines: list[str], as_json: bool) -> int:
    """Write a listing one line at a time, each line the string given, or
    as a JSON list under ``--json``; no joined copy of it is made.  An
    empty listing is one empty line."""
    if as_json:
        return _write_json(lines)
    write = sys.stdout.write
    for line in lines:
        write(line)
        write("\n")
    if not lines:
        write("\n")
    return 0


def cmd_validate(args) -> int:
    text = _read(args.file)
    kind = _file_kind(text)
    if kind == "polygraph":
        return _report_exit(parse_polygraph(text).validate(), args.json)
    if kind == "oset":
        return _report_exit(validate_oset(parse_oset(text)), args.json)
    env = parse_opetope_file(text)
    report = Report()
    for name, omega in env.items():
        if omega.dim >= 2:
            sub = check_identities(omega)
            for failure in sub.failures:
                report.fail(f"{name}: {failure}")
    return _report_exit(report, args.json)


def cmd_target(args) -> int:
    omega = _load_opetope(args)
    result = omega.target()
    return _emit(lambda: str(result), lambda: _opetope_json(result), args.json)


def cmd_source(args) -> int:
    omega = _load_opetope(args)
    result = omega.source_at(parse_address(args.addr))
    return _emit(lambda: str(result), lambda: _opetope_json(result), args.json)


def cmd_leaves(args) -> int:
    omega = _load_opetope(args)
    return _emit_lines([str(leaf) for leaf in omega.leaf_addresses()], args.json)


def cmd_readdress(args) -> int:
    omega = _load_opetope(args)
    rho = omega.readdress()
    lines = [f"{leaf} -> {image}" for leaf, image in rho.items()]
    payload = {str(leaf): str(image) for leaf, image in rho.items()}
    return _emit(lambda: "\n".join(lines), lambda: payload, args.json)


def cmd_identities(args) -> int:
    omega = _load_opetope(args)
    return _report_exit(check_identities(omega), args.json)


def cmd_enumerate(args) -> int:
    # each line is the opetope's cached print itself
    out = enumerate_opetopes(args.dim, args.max_nodes)
    return _emit_lines([str(omega) for omega in out], args.json)


def cmd_hom(args) -> int:
    source = _parse_expr(getattr(args, "from"))
    target = _parse_expr(args.to)
    return _emit_lines([str(cls) for cls in hom(source, target)], args.json)


def cmd_realize(args) -> int:
    P = realize_opetope(_load_opetope(args))
    return _emit(
        lambda: print_polygraph(P).rstrip("\n"), lambda: _polygraph_json(P), args.json
    )


def cmd_boundary(args) -> int:
    P = boundary_polygraph(_load_opetope(args))
    return _emit(
        lambda: print_polygraph(P).rstrip("\n"), lambda: _polygraph_json(P), args.json
    )


def _oset_json(X) -> dict:
    return {
        str(shape): {
            name: dict(zip(map(str, faces_of(shape)), values))
            for name, values in X.cells[shape].items()
        }
        for shape in X.support()
    }


def cmd_yoneda(args) -> int:
    omega = _load_opetope(args)
    max_dim = args.max_dim if args.max_dim is not None else omega.dim
    if max_dim < omega.dim:
        raise ParseError(
            f"--max-dim {max_dim} is below the dimension {omega.dim} of the opetope"
        )
    X = yoneda(omega, max_dim)
    return _emit(lambda: print_oset(X).rstrip("\n"), lambda: _oset_json(X), args.json)


def cmd_shape(args) -> int:
    P = parse_polygraph(_read(args.file))
    report = P.validate()
    if not report.ok:
        print(report, file=sys.stderr)
        return 1
    dims = [d for d in range(P.max_dim + 1) if P.has_generator(d, args.gen)]
    if not dims:
        raise UnknownNameError(f"no generator named {args.gen!r}")
    if len(dims) > 1 and args.dim is None:
        raise ParseError(
            f"{args.gen!r} exists in dimensions {dims}; pass --dim"
        )
    dim = args.dim if args.dim is not None else dims[0]
    result = shape_of(P, dim, args.gen)

    def payload():
        return {
            "shape": _opetope_json(result.shape),
            "induced": {
                str(d): dict(sorted(mapping.items()))
                for d, mapping in result.induced.items()
            },
        }

    return _emit(lambda: str(result.shape), payload, args.json)


def cmd_nerve(args) -> int:
    P = parse_polygraph(_read(args.file))
    report = P.validate()
    if not report.ok:
        print(report, file=sys.stderr)
        return 1
    X = nerve(P, args.max_dim if args.max_dim is not None else P.max_dim)
    return _emit(lambda: print_oset(X).rstrip("\n"), lambda: _oset_json(X), args.json)


# file kind -> (parser, canonical printer)
_FORMATS = {
    "polygraph": (parse_polygraph, print_polygraph),
    "oset": (parse_oset, print_oset),
    "opetope": (parse_opetope_file, print_opetope_file),
}


def cmd_roundtrip(args) -> int:
    """Canonical re-print plus the unit/counit checks where they apply.

    Prints the canonical form of the file and checks that it is stable
    under reparsing; a file that already is its canonical form is not
    parsed again, since parsing is deterministic.  For polygraph and
    opetopic-set files it additionally verifies the realization/nerve
    round trip (counit resp. unit).  Failures go to stderr and the exit
    code.
    """
    text = _read(args.file)
    kind = _file_kind(text)
    parse, show = _FORMATS[kind]
    parsed = parse(text)
    canonical = show(parsed)
    stable = text == canonical or show(parse(canonical)) == canonical
    report = Report()
    if kind == "polygraph":
        report = parsed.validate()
        if report.ok:
            report = counit_check(parsed)
    elif kind == "oset":
        report = validate_oset(parsed)
        if report.ok:
            report = unit_check(parsed)
    print(canonical, end="")
    if not stable:
        print("canonical form is not stable under reparsing", file=sys.stderr)
    if not report.ok:
        print(report, file=sys.stderr)
    return 0 if stable and report.ok else 1


def _natural(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected a natural number, got {text!r}")
    return int(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared: callers
    must not change it."""
    parser = argparse.ArgumentParser(
        prog="opetopic",
        description="opetopes, their category, many-to-one polygraphs, and the "
        "nerve/realization equivalence on finite data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", nargs="?", help="input file")
        p.add_argument("--expr", help="inline opetope expression")
        p.add_argument("--name", help="definition to use from the file")
        p.add_argument("--json", action="store_true", help="structured output")

    p = sub.add_parser("validate", help="validate a file of any kind")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_validate)

    for name, fn in [
        ("target", cmd_target),
        ("leaves", cmd_leaves),
        ("readdress", cmd_readdress),
        ("identities", cmd_identities),
        ("realize", cmd_realize),
        ("boundary", cmd_boundary),
    ]:
        p = sub.add_parser(name)
        common(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("source", help="source face at an address")
    p.add_argument("--addr", required=True)
    common(p)
    p.set_defaults(fn=cmd_source)

    p = sub.add_parser("enumerate")
    p.add_argument("--dim", type=_natural, required=True)
    p.add_argument("--max-nodes", type=_natural, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("hom")
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_hom)

    p = sub.add_parser("yoneda")
    p.add_argument("--max-dim", type=int)
    common(p)
    p.set_defaults(fn=cmd_yoneda)

    p = sub.add_parser("shape")
    p.add_argument("--gen", required=True)
    p.add_argument("--dim", type=int)
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_shape)

    p = sub.add_parser("nerve")
    p.add_argument("--max-dim", type=_natural)
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_nerve)

    p = sub.add_parser(
        "roundtrip",
        help="canonical re-print, plus unit/counit checks for polygraphs "
        "and opetopic sets",
    )
    p.add_argument("file")
    p.set_defaults(fn=cmd_roundtrip, json=False)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return 2 if exit_.code not in (0, None) else 0
    try:
        return args.fn(args)
    except BrokenPipeError:
        # the reader closed the pipe; stdout goes to devnull so that the
        # flush at exit is quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ParseError, UnknownNameError, RecursionError) as error:
        # a RecursionError: sorting a cell tree whose addresses nest deep alike
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OpetopicError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
