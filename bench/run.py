#!/usr/bin/env python3
"""The benchmark of the opetopic kernel.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  NAME is one of

  sweep      identity and readdressing checks streamed over a fixed eighth
             of the dim-4, bound-4 sweep (address, trees, opetope);
  enumerate  cold ``opetopic enumerate --dim 8 --max-nodes 2``, one fresh
             interpreter per call (opetope: materialize, intern, sort, print);
  slices     hom-sets, realization and the unit check for seeded dim-4,
             bound-3 opetopes (category, realization, oset);
  roundtrip  ``opetopic roundtrip`` on seeded random polygraphs, then on
             their nerves (formats, polygraph, oset, realization).

Every workload runs in fresh interpreters with PYTHONHASHSEED=0, one at a
time (closed loop, no worker pool), against this checkout's ``src/``.
With ``--trace 0`` it measures for S seconds and prints the end-to-end
metrics; with ``--trace 1`` it runs a fixed share of the workload once
untraced and once under cProfile and prints the per-layer metrics.  The
last line of standard output is the result, as JSON; the line before it
records the machine, the commit and the sample counts.  Every output is
checked against the references in ``bench/reference`` (and the golden
hom table of the tests); a request that raises, exits nonzero or
disagrees counts as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import quantiles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src" / "opetopic"
WORKLOADS = ("sweep", "enumerate", "slices", "roundtrip")
HASH_SEED = "0"
SETUP_REPEATS = 3
IMPORT_REPEATS = 7
CHILD_TIMEOUT_S = 170


class WorkerFailed(RuntimeError):
    pass


def spawn(mode: str, workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    """Run one fresh worker interpreter to completion; its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    env.pop("PYTHONPATH", None)
    argv = [
        sys.executable, str(BENCH / "worker.py"),
        mode, workload, str(seed), str(seconds), repr(time.monotonic()), str(workdir),
    ]
    done = subprocess.run(
        argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
    )
    if done.returncode != 0:
        raise WorkerFailed(f"{mode} worker for {workload} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, workdir: Path) -> tuple[dict, dict]:
    """The untraced run: end-to-end metrics and what they were made from."""
    setups = [spawn("setup", workload, seed, seconds, workdir) for _ in range(SETUP_REPEATS - 1)]
    if workload == "enumerate":
        # a call is cold only in a fresh interpreter: one worker per call
        runs = []
        start = time.monotonic()
        while not runs or time.monotonic() - start < seconds:
            runs.append(spawn("timed", workload, seed, 0, workdir))
        main = {
            key: sum(run[key] for run in runs) for key in ("requests", "items", "failed")
        }
        for key in ("items_per_s", "raw_items_per_s", "slowdown_median"):
            main[key] = statistics.median(run[key] for run in runs)
        # each run made one call: its p50 is that call's latency
        main["p50_ms"], main["p95_ms"] = quantiles([run["p50_ms"] for run in runs])
        main["raw_p50_ms"], main["raw_p95_ms"] = quantiles([run["raw_p50_ms"] for run in runs])
        main["peak_rss_mb"] = max(run["peak_rss_mb"] for run in runs)
        main["windows"] = len(runs)
        main["errors"] = [error for run in runs for error in run["errors"]]
        main["cycled"] = False
        setups += runs
    else:
        main = spawn("timed", workload, seed, seconds, workdir)
        setups.append(main)
    metrics = {
        "setup_s": (statistics.median(run["setup_s"] for run in setups), "s"),
        "items_per_s": (main["items_per_s"], "1/s"),
        "item_p50_ms": (main["p50_ms"], "ms"),
        "item_p95_ms": (main["p95_ms"], "ms"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }
    info = {
        "requests": main["requests"],
        "items": main["items"],
        "failed_frac": main["failed"] / main["requests"],
        "setup_samples": len(setups),
        "windows": main["windows"],
        "slowdown_median": main["slowdown_median"],
        "raw_setup_s": statistics.median(run["raw_setup_s"] for run in setups),
        "raw_items_per_s": main["raw_items_per_s"],
        "raw_p50_ms": main["raw_p50_ms"],
        "raw_p95_ms": main["raw_p95_ms"],
        "inputs_reused": main["cycled"],
    }
    return result(main, metrics), info


def trace(workload: str, seed: int, workdir: Path) -> tuple[dict, dict]:
    """The traced run: per-layer metrics of the workload's fixed share."""
    imports = [
        spawn("import", workload, seed, 0, workdir)["import_s"] for _ in range(IMPORT_REPEATS)
    ]
    plain = spawn("fixed", workload, seed, 0, workdir)
    traced = spawn("traced", workload, seed, 0, workdir)
    units = {
        "_s": "s", "_calls": "count", "_entries": "count",
        "_rate": "ratio", "_item": "count/item",
    }
    metrics = {}
    for name, value in traced["per_layer"].items():
        unit = next(u for suffix, u in units.items() if name.endswith(suffix))
        metrics[name] = (value, unit)
    metrics["cli.import_s"] = (statistics.median(imports), "s")
    metrics["trace.overhead_x"] = (traced["elapsed_s"] / plain["elapsed_s"], "x")
    info = {
        "requests": traced["requests"],
        "items": traced["items"],
        "failed_frac": traced["failed"] / traced["requests"],
        "untraced_s": plain["elapsed_s"],
        "traced_s": traced["elapsed_s"],
        "absent": traced["absent"],
        "self_s_by_module": traced["self_s_by_module"],
    }
    traced["errors"] += plain["errors"]
    traced["failed"] += plain["failed"]
    return result(traced, metrics), info


def result(run: dict, metrics: dict) -> dict:
    for error in run["errors"]:
        print(f"error: {error}", file=sys.stderr)
    return {
        "correct": run["failed"] == 0 and not run["errors"],
        "attempted": run["requests"],
        "failed": run["failed"],
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def commit() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "__init__.py").is_file():
        print(f"error: no opetopic sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            outcome, info = trace(args.workload, args.seed, workdir)
        else:
            outcome, info = measure(args.workload, args.seed, args.seconds, workdir)
    except (WorkerFailed, subprocess.TimeoutExpired) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    info.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        commit=commit(),
        src_sha256=source_digest(),
        python=platform.python_version(),
        nproc=os.cpu_count(),
        cpu_affinity=len(os.sched_getaffinity(0)),
        cpu_model=cpu_model(),
        hash_seed=HASH_SEED,
    )
    print(json.dumps({"info": info}))
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
