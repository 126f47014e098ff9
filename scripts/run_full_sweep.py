#!/usr/bin/env python3
"""Cross-check the enumerator against the brute-force oracle everywhere.

Runs every catalog symbol, both groups, every index 1 through MAX_DEGREE,
and compares labeled / class / subgroup counts from the two independent
implementations, then confirms each class with coset enumeration.  Before
the summary line it prints, per index, the seconds spent in
enumerate_classes, brute_force_classes and verify_class; the enumerator's
and the recount's tables for each degree are built once before the first
cell, and the summary line ends with their build time.  The summary counts
disagreements (cells whose counts differ from the oracle's) apart from
unverified classes, and the script exits nonzero on either.
"""

from __future__ import annotations

import resource
import sys
import time
from math import factorial

from tetgroups import catalog, enumerate_classes, presentation_for, verify_class
from tetgroups.enumerator import _search_rows, perm_tables
from tetgroups.oracle import _recount_rows, _symmetric_tables, brute_force_classes
from tetgroups.perms import MAX_DEGREE


def unconfirmed(classes, cell) -> list[tuple]:
    """A row for each class that coset enumeration does not confirm."""
    return [(*cell, "verify", "failed" if verdict is False else "inconclusive")
            for verdict in (verify_class(cls.rep) for cls in classes)
            if verdict is not True]


def build_tables(presentations) -> float:
    """Build the enumerator's and the recount's cached tables for every
    degree, and each presentation's rows at every degree, so that no
    cell's enumerate_classes or brute_force_classes time includes them;
    returns the seconds spent."""
    t0 = time.perf_counter()
    for n in range(1, MAX_DEGREE + 1):
        perm_tables(n)
        _symmetric_tables(n)
        for pres in presentations:
            _search_rows(pres, n)  # builds its order_masks rows too
            _recount_rows(pres, n)  # and its order columns
    return time.perf_counter() - t0


def main() -> int:
    t0 = time.perf_counter()
    cells = [(entry.id, group, presentation_for(entry.symbol, group))
             for entry in catalog() for group in ("full", "kleinian")]
    tables_s = build_tables([pres for _, _, pres in cells])
    bad, unverified = [], []
    total_classes = 0
    stages = ("enumerate_classes", "brute_force_classes", "verify_class")
    spent = {n: [0.0] * len(stages) for n in range(1, MAX_DEGREE + 1)}
    for entry_id, group, pres in cells:
        for n in range(1, MAX_DEGREE + 1):
            clock = [time.perf_counter()]
            classes = enumerate_classes(pres, n)
            clock.append(time.perf_counter())
            oracle = brute_force_classes(pres, n)
            clock.append(time.perf_counter())
            unverified += unconfirmed(classes, (entry_id, group, n))
            clock.append(time.perf_counter())
            spent[n] = [s + b - a for s, a, b in zip(spent[n], clock, clock[1:])]
            # The (n-1)! relabelings fixing point 1 act freely on the
            # labeled reps, with one orbit per subgroup; a remainder
            # stays in the row as a fraction, which matches no count.
            labeled = sum(cls.labeled_orbit_size for cls in classes)
            subgroups, rest = divmod(labeled, factorial(n - 1))
            mine = (labeled, len(classes), f"{labeled}/{n - 1}!" if rest else subgroups)
            if mine != tuple(oracle):
                bad.append((entry_id, group, n, mine, tuple(oracle)))
            total_classes += len(classes)
    dt = time.perf_counter() - t0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    for row in bad + unverified:
        print("DISAGREE", *row)
    for n, seconds in spent.items():
        print(f"index {n}: " + ", ".join(f"{stage} {s:.2f}s"
                                         for stage, s in zip(stages, seconds)))
    print(f"{len(catalog())} symbols, 2 groups, indices 1..{MAX_DEGREE}: "
          f"{total_classes} classes, {len(bad)} disagreements, "
          f"{len(unverified)} unverified, {dt:.1f}s, peak RSS {peak_mb:.0f} MB, "
          f"tables {tables_s:.2f}s")
    return 1 if bad or unverified else 0


if __name__ == "__main__":
    sys.exit(main())
