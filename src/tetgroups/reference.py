"""Published reference data embedded for cross-checking.

The counts below were transcribed from a published reference table of
subgroup counts for the hyperbolic tetrahedra.  They are reference
material, not ground truth: transcription noise happens, so the diff
command reports disagreements and settles them with the built-in oracle
rather than trusting either side blindly.  The table's worked-example rows,
which only the tests read, are in tests/published_rows.py.
"""

from __future__ import annotations

from typing import NamedTuple


class ReferenceCounts(NamedTuple):
    """Expected class counts: full group at index 2,3,4, then kleinian."""

    id: str
    full: tuple[int, int, int]
    kleinian: tuple[int, int, int]


REFERENCE_COUNTS: tuple[ReferenceCounts, ...] = (
    ReferenceCounts("t1", (3, 1, 1), (1, 1, 0)),
    ReferenceCounts("t2", (1, 0, 0), (0, 0, 0)),
    ReferenceCounts("t3", (1, 0, 0), (0, 0, 0)),
    ReferenceCounts("t4", (1, 0, 0), (0, 0, 0)),
    ReferenceCounts("t5", (1, 0, 0), (0, 0, 0)),
    ReferenceCounts("t6", (1, 0, 0), (0, 0, 0)),
    ReferenceCounts("t7", (3, 0, 1), (1, 0, 0)),
    ReferenceCounts("t8", (3, 1, 4), (1, 1, 3)),
    ReferenceCounts("t9", (1, 0, 0), (0, 0, 0)),
    ReferenceCounts("t10", (3, 1, 2), (1, 1, 1)),
    ReferenceCounts("t11", (7, 1, 8), (2, 1, 4)),
    ReferenceCounts("t12", (1, 1, 5), (0, 1, 1)),
    ReferenceCounts("t13", (7, 2, 9), (3, 2, 4)),
    ReferenceCounts("t14", (7, 1, 10), (3, 1, 6)),
    ReferenceCounts("t15", (3, 2, 5), (1, 3, 0)),
    ReferenceCounts("t16", (3, 0, 1), (1, 0, 0)),
    ReferenceCounts("t17", (1, 1, 3), (0, 1, 4)),
    ReferenceCounts("t18", (3, 4, 3), (1, 4, 2)),
    ReferenceCounts("t19", (15, 0, 35), (7, 0, 29)),
    ReferenceCounts("t20", (7, 3, 49), (3, 3, 3)),
    ReferenceCounts("t21", (3, 1, 4), (1, 1, 5)),
    ReferenceCounts("t22", (1, 1, 1), (0, 1, 1)),
    ReferenceCounts("t23", (1, 1, 3), (0, 1, 4)),
    ReferenceCounts("t24", (1, 4, 4), (0, 4, 5)),
    ReferenceCounts("t25", (15, 0, 35), (7, 0, 31)),
    ReferenceCounts("t26", (1, 1, 51), (0, 1, 4)),
    ReferenceCounts("t27", (3, 4, 5), (1, 4, 5)),
    ReferenceCounts("t28", (7, 1, 14), (3, 1, 2)),
    ReferenceCounts("t29", (1, 0, 0), (0, 0, 0)),
    ReferenceCounts("t30", (3, 5, 6), (1, 5, 6)),
    ReferenceCounts("t31", (15, 0, 35), (7, 0, 49)),
    ReferenceCounts("t32", (1, 13, 86), (0, 13, 6)),
)
