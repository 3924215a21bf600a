#!/usr/bin/env python3
"""Record one point of the performance trajectory as ``BENCH_<n>.json``.

    python3 scripts/record_bench.py --out BENCH_<n>.json

Run from the root of a checkout.  It runs, one after another:

* ``bench/run.py`` on each of the four workloads, seed 1, at the
  benchmark's 20 seconds, with ``--trace 0`` and then ``--trace 1``;
* the tier-1 suite once with ``-s``, for its wall time, its pass count and
  the set-up time of the criterion-1 sweep fixture, which the fixture
  prints;
* ``python3 -m opetopic target --expr arrow`` in fresh interpreters, for
  the CLI cold start.

The file records the commit, whether the sources differ from it, a digest
of ``src/opetopic`` computed as ``bench/run.py`` computes it, the line
count of ``src/opetopic``, ``nproc``, the CPU model and the Python version.  Nothing here runs in parallel.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "opetopic"
WORKLOADS = ("sweep", "enumerate", "slices", "roundtrip")
SEED = 1
SECONDS = 20
COLD_START_REPEATS = 7
CRITERION_1 = re.compile(r"criterion 1: PASS .* in ([0-9.]+)s")


def git(*args: str) -> str:
    done = subprocess.run(["git", *args], cwd=ROOT, stdout=subprocess.PIPE, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def source_lines() -> int:
    """The line count of ``src/opetopic``, as ``wc -l src/opetopic/*.py`` gives it."""
    return sum(path.read_bytes().count(b"\n") for path in SRC.glob("*.py"))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def library_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


def bench(workload: str, trace: int) -> dict:
    """One ``bench/run.py`` run: its info line and its result line."""
    argv = [
        sys.executable, "bench/run.py", "--workload", workload,
        "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace),
    ]
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        return {"exit_code": done.returncode}
    lines = done.stdout.strip().splitlines()
    return {"info": json.loads(lines[-2])["info"], "result": json.loads(lines[-1])}


def tier1() -> dict:
    """Tier-1 wall time and pass count, and the criterion-1 fixture time."""
    argv = [
        sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
        "--continue-on-collection-errors",
    ]
    start = time.monotonic()
    done = subprocess.run(
        argv, cwd=ROOT, env=library_env(), stdout=subprocess.PIPE, text=True
    )
    wall = time.monotonic() - start
    summary = done.stdout.strip().splitlines()[-1]
    counts = {
        outcome: int(found.group(1)) if (found := re.search(rf"(\d+) {outcome}", summary)) else 0
        for outcome in ("passed", "failed", "error")
    }
    fixture = CRITERION_1.search(done.stdout)
    return {
        "exit_code": done.returncode,
        **counts,
        "wall_s": round(wall, 2),
        "criterion1_fixture_s": float(fixture.group(1)) if fixture else None,
    }


def cold_start() -> dict:
    """Wall time of one CLI call in a fresh interpreter, several times."""
    argv = [sys.executable, "-m", "opetopic", "target", "--expr", "arrow"]
    samples = []
    for _ in range(COLD_START_REPEATS):
        start = time.monotonic()
        subprocess.run(argv, cwd=ROOT, env=library_env(), stdout=subprocess.DEVNULL, check=True)
        samples.append(round(time.monotonic() - start, 4))
    return {"median_s": statistics.median(samples), "samples_s": samples}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    record = {
        "commit": git("rev-parse", "HEAD"),
        "sources_differ_from_commit": bool(git("status", "--porcelain", "--", "src")),
        "src_opetopic_sha256": source_digest(),
        "src_opetopic_lines": source_lines(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "recorded_at": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "seed": SEED,
        "seconds": SECONDS,
        "workloads": {},
    }
    for workload in WORKLOADS:
        print(f"bench {workload}", file=sys.stderr)
        record["workloads"][workload] = {
            "end_to_end": bench(workload, 0),
            "per_layer": bench(workload, 1),
        }
    print("tier-1", file=sys.stderr)
    record["tier1"] = tier1()
    print("cold start", file=sys.stderr)
    record["cli_cold_start"] = cold_start()
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
