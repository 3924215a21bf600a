#!/usr/bin/env python3
"""Tabulate opetope counts per dimension and node bound, with timings.

Counts are face-closed: every iterated source and target stays within the
bound.  Large cells stream without being materialized.
"""

import argparse
import time

from opetopic.opetope import iter_opetopes


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-dim", type=int, default=4)
    parser.add_argument("--max-nodes", type=int, default=3)
    args = parser.parse_args()

    header = ["dim \\ bound"] + [str(m) for m in range(1, args.max_nodes + 1)]
    print("\t".join(header))
    for n in range(args.max_dim + 1):
        row = [str(n)]
        for m in range(1, args.max_nodes + 1):
            start = time.time()
            count = sum(1 for _ in iter_opetopes(n, m))
            elapsed = time.time() - start
            cell = f"{count}" if elapsed < 0.1 else f"{count} ({elapsed:.1f}s)"
            row.append(cell)
        print("\t".join(row))


if __name__ == "__main__":
    main()
