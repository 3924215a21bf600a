#!/usr/bin/env python3
"""Regenerate the golden morphism-count table.

Counts morphisms into every 3-opetope with at most 3 nodes per level with
a global union-find over all face words, merging along every relation
square; this is deliberately not the library's slice tables.  The
output is committed at tests/golden/hom_counts.json and the acceptance
suite compares both the library and a fresh oracle run against it.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from test_category import union_find_hom_counts

from opetopic.opetope import enumerate_opetopes


def main() -> None:
    table = {}
    for omega in enumerate_opetopes(3, 3):
        counts = union_find_hom_counts(omega)
        table[str(omega)] = {
            str(domain): count
            for domain, count in sorted(counts.items(), key=lambda kv: str(kv[0]))
        }
    out = Path(__file__).resolve().parent.parent / "tests" / "golden" / "hom_counts.json"
    out.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out} ({len(table)} opetopes)")


if __name__ == "__main__":
    main()
