#!/usr/bin/env python3
"""Cross-check the enumerator against the brute-force oracle everywhere.

Runs every catalog symbol, both groups, every index the oracle reaches
(1 through ORACLE_MAX_DEGREE), and compares labeled / class / subgroup
counts from the two independent implementations, then confirms each class
with coset enumeration.  Exits nonzero on any disagreement.
"""

from __future__ import annotations

import sys
import time

from tetgroups import (brute_force_classes, catalog, count_distinct_subgroups,
                       enumerate_candidates, enumerate_classes,
                       presentation_for, verify_class)
from tetgroups.perms import ORACLE_MAX_DEGREE


def main() -> int:
    t0 = time.perf_counter()
    bad = []
    total_classes = 0
    unverified = 0
    for entry in catalog():
        for group in ("full", "kleinian"):
            pres = presentation_for(entry.symbol, group)
            for n in range(1, ORACLE_MAX_DEGREE + 1):
                classes = enumerate_classes(pres, n)
                labeled = len(enumerate_candidates(pres, n))
                subgroups = count_distinct_subgroups(pres, n)
                oracle = brute_force_classes(pres, n)
                mine = (labeled, len(classes), subgroups)
                if mine != tuple(oracle):
                    bad.append((entry.id, group, n, mine, tuple(oracle)))
                total_classes += len(classes)
                for cls in classes:
                    verdict = verify_class(cls.rep)
                    if verdict is not True:
                        unverified += 1
                        bad.append((entry.id, group, n, "verify",
                                    "failed" if verdict is False else "inconclusive"))
    dt = time.perf_counter() - t0
    for row in bad:
        print("DISAGREE", *row)
    print(f"{len(catalog())} symbols, 2 groups, indices 1..{ORACLE_MAX_DEGREE}: "
          f"{total_classes} classes, {len(bad)} disagreements, "
          f"{unverified} unverified, {dt:.1f}s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
