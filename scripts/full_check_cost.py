#!/usr/bin/env python3
"""Cost of the full check per opetope, phase by phase, in one cold pass.

The full check of an n-opetope ω runs five phases once each:
``check_identities(ω)`` from dimension 2 on, ``P = realize_opetope(ω)``, ``P.validate()``,
``unit_check(yoneda(ω, n))`` and ``counit_check(P)``.  The script streams
a shard of the opetopes of the given dimensions at a bound and times each
phase with ``time.perf_counter``; the enumeration is not timed.  The
cyclic collector's passes are timed through ``gc.callbacks``: those that
fall in a phase are taken out of it and reported as a row of their own,
``collector``, since where a pass lands depends on allocation, not on the
phase's code.  The total counts them, as a wall clock would.  Every
cache starts cold, so each measurement needs a fresh interpreter: run the
script once per number.  A failed check prints its report and exits 1.

    PYTHONPATH=src python scripts/full_check_cost.py --dims 0-5 --bound 2
    PYTHONPATH=src python scripts/full_check_cost.py --dims 5 --bound 3 --shard 5/16 --limit 1500
"""

import argparse
import gc
import itertools
import sys
import time

from opetopic.opetope import check_identities, iter_opetopes
from opetopic.oset import yoneda
from opetopic.polygraph import MtoPolygraph
from opetopic.realization import counit_check, realize_opetope, unit_check

PHASES = ("check_identities", "realize_opetope", "validate", "unit_check", "counit_check")


def dims_arg(text: str) -> range:
    low, _, high = text.partition("-")
    return range(int(low), int(high or low) + 1)


def shard_arg(text: str) -> tuple[int, int]:
    index, _, count = text.partition("/")
    return int(index), int(count)


class CollectorClock:
    """The running time of the cyclic collector's passes, a ``gc.callbacks``
    entry."""

    def __init__(self) -> None:
        self.total = self.start = 0.0

    def __call__(self, event: str, info: dict) -> None:
        if event == "start":
            self.start = time.perf_counter()
        else:
            self.total += time.perf_counter() - self.start


COLLECTOR = CollectorClock()


def timed(spent: dict[str, float], phase: str, check, arg):
    """``check(arg)``, with its time added to ``spent[phase]``, less the
    collector passes in it, which are added to ``spent["collector"]``."""
    collected, start = COLLECTOR.total, time.perf_counter()
    result = check(arg)
    elapsed, passes = time.perf_counter() - start, COLLECTOR.total - collected
    spent[phase] += elapsed - passes
    spent["collector"] += passes
    return result


def full_check(omega, spent: dict[str, float]):
    """Run the five phases on ``omega``, adding each one's time to
    ``spent``; the first failed phase and its report, or None."""
    # the face identities start in dimension 2
    if omega.dim >= 2:
        report = timed(spent, "check_identities", check_identities, omega)
        if not report.ok:
            return "check_identities", report
    P = timed(spent, "realize_opetope", realize_opetope, omega)
    for phase, check, arg in (
        ("validate", MtoPolygraph.validate, P),
        ("unit_check", lambda o: unit_check(yoneda(o, o.dim)), omega),
        ("counit_check", counit_check, P),
    ):
        report = timed(spent, phase, check, arg)
        if not report.ok:
            return phase, report
    return None


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--dims", type=dims_arg, required=True, help="N or LOW-HIGH")
    parser.add_argument("--bound", type=int, required=True, help="nodes per face")
    parser.add_argument("--shard", type=shard_arg, default=None, help="I/K, as iter_opetopes")
    parser.add_argument("--limit", type=int, default=None, help="opetopes per dimension")
    args = parser.parse_args()

    spent = dict.fromkeys(PHASES + ("collector",), 0.0)
    gc.callbacks.append(COLLECTOR)
    checked = 0
    for n in args.dims:
        for omega in itertools.islice(iter_opetopes(n, args.bound, shard=args.shard), args.limit):
            failed = full_check(omega, spent)
            if failed is not None:
                phase, report = failed
                print(f"{omega}: {phase} FAILED\n{report}")
                return 1
            checked += 1
    total = sum(spent.values())
    per = max(checked, 1)
    print(f"{checked} opetopes, full check {total / per * 1e3:.3f} ms per opetope")
    for phase in spent:
        print(f"  {phase:<17} {spent[phase] / per * 1e6:9.1f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())
