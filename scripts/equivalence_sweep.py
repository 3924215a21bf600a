#!/usr/bin/env python3
"""Randomized sweep of the realization/nerve round trip.

Generates seeded random many-to-one polygraphs, runs the counit check on
each, and runs the unit check on the nerves.  For every generator it also
validates the induced map that ``shape_of`` reads off the nerve with the
polygraph-morphism oracle of ``tests/conftest.py``.  Any failure prints
the full report and exits nonzero.
"""

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from conftest import induced_morphism
from randomized import RandomPolygraphConfig, random_polygraph

from opetopic.realization import counit_check, nerve, shape_of, unit_check


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-dim", type=int, default=3)
    parser.add_argument("--max-generators", type=int, default=20)
    args = parser.parse_args()

    config = RandomPolygraphConfig(
        max_dim=args.max_dim, max_generators=args.max_generators
    )
    rng = random.Random(args.seed)
    start = time.time()
    sizes = []
    for run in range(args.runs):
        P = random_polygraph(rng, config)
        sizes.append(sum(len(P.generators(d)) for d in range(P.max_dim + 1)))
        report = counit_check(P)
        if not report.ok:
            print(f"run {run}: counit FAILED\n{report}")
            return 1
        report = unit_check(nerve(P, P.max_dim))
        if not report.ok:
            print(f"run {run}: unit FAILED\n{report}")
            return 1
        for dim in range(P.max_dim + 1):
            for name in P.generators(dim):
                report = induced_morphism(P, shape_of(P, dim, name)).validate()
                if not report.ok:
                    print(f"run {run}: induced map of {dim}-generator {name!r} FAILED\n{report}")
                    return 1
    elapsed = time.time() - start
    print(
        f"{args.runs} random polygraphs (avg {sum(sizes) / len(sizes):.1f} "
        f"generators): unit and counit pass in {elapsed:.1f}s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
