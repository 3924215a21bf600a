"""One fresh interpreter of a benchmark run; started by run.py only.

    worker.py MODE WORKLOAD SEED SECONDS SPAWNED WORKDIR

MODE is ``setup`` (set up, report the set-up time), ``timed`` (set up,
then make requests for SECONDS and at least the workload's minimum),
``fixed`` (the workload's first ``trace_requests`` requests, untimed per
request), ``traced`` (the same requests under cProfile) or ``import``
(time ``import opetopic.cli`` alone).  SPAWNED is the monotonic clock
reading just before the runner started this process, so set-up time
covers interpreter start, imports and building the inputs.  The result
is one JSON line on standard output.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WINDOW_S = 0.25
# calibrate() on an undisturbed 2.1 GHz Xeon vCPU under CPython 3.11
CALIBRATION_REF_S = 0.00115


def import_library() -> None:
    """Put this checkout's src/ first on the path; refuse any other copy."""
    sys.path[:0] = [str(SRC), str(BENCH)]
    import opetopic

    if Path(opetopic.__file__).resolve().parent != SRC / "opetopic":
        raise SystemExit(f"imported opetopic from {opetopic.__file__}, not from {SRC}")


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def calibrate() -> float:
    """Best of three timings of a fixed interpreter loop, in seconds."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def quantiles(values) -> tuple[float, float]:
    """Median and 95th percentile."""
    if len(values) == 1:
        return values[0], values[0]
    return statistics.median(values), statistics.quantiles(values, n=20, method="inclusive")[18]


def timed(workload, seconds: float, before: float) -> dict:
    """Requests for ``seconds`` of request time and at least ``min_requests``.

    The host is shared: while other tenants load it, the interpreter runs
    up to 1.6 times slower for seconds at a time.  So the requests are cut
    into windows of at least WINDOW_S, ``calibrate()`` runs between
    windows (``before`` is its time at the start), and each window's
    latencies and throughput are scaled by how much slower it ran, on
    average at the window's two ends, than CALIBRATION_REF_S.  Throughput
    is the median of the scaled window rates.  The unscaled figures are
    returned too, as ``raw_*``.

    Peak memory is read once ``min_requests`` are done, so that a faster
    program, which gets further in the same time, is not charged for the
    extra inputs.
    """
    requests = items = failed = window_items = 0
    measured = 0.0
    raw, scaled, window = array("d"), array("d"), array("d")
    rates, raw_rates, slowdowns = [], [], []
    window_start = last = time.perf_counter()
    for ok, count in workload.stream():
        now = time.perf_counter()
        window.append(now - last)
        last = now
        requests += 1
        items += count
        failed += not ok
        window_items += count
        if requests == workload.min_requests:
            rss = peak_rss_mb()
        duration = now - window_start
        done = measured + duration >= seconds and requests >= workload.min_requests
        if duration >= WINDOW_S or done:
            after = calibrate()
            slowdown = (before + after) / 2 / CALIBRATION_REF_S
            if duration >= WINDOW_S or not rates:
                raw_rates.append(window_items / duration)
                rates.append(window_items / duration * slowdown)
            raw.extend(window)
            scaled.extend(latency / slowdown for latency in window)
            slowdowns.append(slowdown)
            measured += duration
            before, window, window_items = after, array("d"), 0
            window_start = last = time.perf_counter()
        if done:
            break
    p50, p95 = quantiles(scaled)
    raw_p50, raw_p95 = quantiles(raw)
    return {
        "requests": requests,
        "items": items,
        "failed": failed,
        "elapsed_s": measured,
        "items_per_s": statistics.median(rates),
        "p50_ms": p50 * 1000,
        "p95_ms": p95 * 1000,
        "peak_rss_mb": rss,
        "windows": len(rates),
        "slowdown_median": statistics.median(slowdowns),
        "raw_items_per_s": statistics.median(raw_rates),
        "raw_p50_ms": raw_p50 * 1000,
        "raw_p95_ms": raw_p95 * 1000,
    }


def fixed(workload) -> dict:
    requests = items = failed = 0
    start = time.perf_counter()
    for ok, count in workload.stream():
        requests += 1
        items += count
        failed += not ok
        if requests >= workload.trace_requests:
            break
    return {
        "requests": requests,
        "items": items,
        "failed": failed,
        "elapsed_s": time.perf_counter() - start,
    }


def traced(workload) -> dict:
    import cProfile
    import pstats

    import layers

    state = layers.ModuleState()
    profile = cProfile.Profile()
    profile.enable()
    result = fixed(workload)
    profile.disable()
    values, absent, by_module = layers.aggregate(pstats.Stats(profile).stats, result["items"])
    state_values, state_absent = state.metrics()
    values.update(state_values)
    result.update(per_layer=values, absent=absent + state_absent, self_s_by_module=by_module)
    return result


def main(argv: list[str]) -> int:
    mode, name, seed, seconds, spawned, workdir = argv
    if mode == "import":
        sys.path.insert(0, str(SRC))
        start = time.perf_counter()
        import opetopic.cli  # noqa: F401

        print(json.dumps({"import_s": time.perf_counter() - start}))
        return 0
    # set-up time is scaled like the timed phase; the first calibration
    # is not part of it
    started = time.monotonic()
    before = calibrate()
    calibration_s = time.monotonic() - started
    import_library()
    from workloads import WORKLOADS

    workload = WORKLOADS[name](int(seed), Path(workdir))
    setup_s = time.monotonic() - float(spawned) - calibration_s
    after = calibrate()
    slowdown = (before + after) / 2 / CALIBRATION_REF_S
    result = {"setup_s": setup_s / slowdown, "raw_setup_s": setup_s}
    if mode == "timed":
        result.update(timed(workload, float(seconds), after))
    elif mode == "fixed":
        result.update(fixed(workload))
    elif mode == "traced":
        result.update(traced(workload))
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    result["errors"] = workload.errors
    result["cycled"] = workload.cycled
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
