#!/usr/bin/env python3
"""Regenerate the pinned references in bench/reference/.

    python3 bench/make_reference.py [sweep|enumerate|slices ...]

Run it only when the benchmark's inputs change, never to make a failing
run pass.  The references come from sources other than the code paths
the workloads time:

* sweep.json: opetopes per shard of the 64-way split of the dim-4,
  bound-4 sweep; they must add up to the acceptance suite's 1,453,450.
* enumerate.json: line count and SHA-256 of ``opetopic enumerate --dim 8
  --max-nodes 2``, recorded once.
* slices.json: for every dim-4, bound-3 opetope, a digest of its morphism
  counts per domain and their total, from the union-find oracle
  ``tests/test_category.py::union_find_hom_counts`` rather than the
  library's slice search.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]

from opetopic.opetope import enumerate_opetopes, iter_opetopes  # noqa: E402

import workloads  # noqa: E402
from workloads import REFERENCE, parts_digest, run_cli, short_digest  # noqa: E402


def write(name: str, payload: dict) -> None:
    """JSON with one line per top-level entry, or per row of a table."""
    rows = []
    for key, value in sorted(payload.items()):
        if isinstance(value, dict):
            inner = ",\n".join(
                f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(value.items())
            )
            rows.append(f" {json.dumps(key)}: {{\n{inner}\n }}")
        else:
            rows.append(f" {json.dumps(key)}: {json.dumps(value)}")
    path = REFERENCE / name
    path.write_text("{\n" + ",\n".join(rows) + "\n}\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")


def sweep() -> None:
    counts = [
        sum(1 for _ in iter_opetopes(
            workloads.SWEEP_DIM, workloads.SWEEP_BOUND,
            shard=(shard, workloads.SWEEP_SHARDS), intern_results=False,
        ))
        for shard in range(workloads.SWEEP_SHARDS)
    ]
    if sum(counts) != workloads.SWEEP_TOTAL:
        raise SystemExit(f"shards add up to {sum(counts)}, not {workloads.SWEEP_TOTAL}")
    write("sweep.json", {"shard_counts": counts})


def enumerate_() -> None:
    code, out, _ = run_cli([
        "enumerate", "--dim", str(workloads.ENUMERATE_DIM),
        "--max-nodes", str(workloads.ENUMERATE_BOUND),
    ])
    if code != 0:
        raise SystemExit(f"enumerate exited with {code}")
    write("enumerate.json", {
        "count": sum(1 for _ in workloads.lines_of(out.parts)),
        "sha256": parts_digest(out.parts),
    })


def slices() -> None:
    from test_category import union_find_hom_counts

    table = {}
    for omega in enumerate_opetopes(workloads.SLICES_DIM, workloads.SLICES_BOUND):
        counts = {str(domain): n for domain, n in union_find_hom_counts(omega).items()}
        table[short_digest(str(omega))] = [workloads.hom_table(counts), sum(counts.values())]
    write("slices.json", {"opetopes": table})


def main(argv: list[str]) -> None:
    makers = {"sweep": sweep, "enumerate": enumerate_, "slices": slices}
    for name in argv or list(makers):
        makers[name]()


if __name__ == "__main__":
    main(sys.argv[1:])
