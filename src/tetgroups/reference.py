"""Published reference data embedded for cross-checking.

The counts and sample rows below were transcribed from a published
reference table of subgroup counts for the hyperbolic tetrahedra.  They
are reference material, not ground truth: transcription noise happens, so
the diff command reports disagreements and settles them with the built-in
oracle rather than trusting either side blindly.
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

# Rows the reference prints in full elsewhere as worked examples; on these
# the computed counts are expected to agree exactly.
CORROBORATED_IDS = ("t1", "t10", "t19", "t25", "t31", "t32")


class Degree2Row(NamedTuple):
    """One index-2 row for the full group: which generators act as (12),
    the six derived pair columns, and the printed stabilizer words."""

    moved: tuple[str, ...]  # generators sent to (12); the rest act trivially
    pair_columns: tuple[str, str, str, str, str, str]  # PQ QR RS PR PS QS
    stabilizer_words: tuple[str, ...]


# All 15 nontrivial assignments of {identity, (12)} to P, Q, R, S, in the
# reference's print order, with its printed stabilizer generators.
DEGREE2_ROWS: tuple[Degree2Row, ...] = (
    Degree2Row(("P",), ("(12)", "(1)", "(1)", "(12)", "(12)", "(1)"),
               ("Q", "R", "S", "PQP", "PRP", "PSP")),
    Degree2Row(("Q",), ("(12)", "(12)", "(1)", "(1)", "(1)", "(12)"),
               ("P", "R", "S", "QPQ", "QRQ", "QSQ")),
    Degree2Row(("R",), ("(1)", "(12)", "(12)", "(12)", "(1)", "(1)"),
               ("P", "Q", "S", "RPR", "RQR", "RSR")),
    Degree2Row(("S",), ("(1)", "(1)", "(12)", "(1)", "(12)", "(12)"),
               ("P", "Q", "R", "SPS", "SQS", "SRS")),
    Degree2Row(("R", "S"), ("(1)", "(12)", "(1)", "(12)", "(12)", "(12)"),
               ("P", "Q", "SR", "RPR", "RQR")),
    Degree2Row(("Q", "S"), ("(12)", "(12)", "(12)", "(1)", "(12)", "(1)"),
               ("P", "R", "SQ", "QPQ", "QRQ")),
    Degree2Row(("Q", "R"), ("(12)", "(1)", "(12)", "(12)", "(1)", "(12)"),
               ("P", "RQ", "S", "QPQ", "QSQ")),
    Degree2Row(("P", "Q"), ("(1)", "(12)", "(1)", "(12)", "(12)", "(12)"),
               ("QP", "R", "S", "PRP", "PSP")),
    Degree2Row(("P", "R"), ("(12)", "(12)", "(12)", "(1)", "(12)", "(1)"),
               ("Q", "RP", "S", "PQP", "PSP")),
    Degree2Row(("P", "S"), ("(12)", "(1)", "(12)", "(12)", "(1)", "(12)"),
               ("Q", "R", "SP", "PQP", "PRP")),
    Degree2Row(("Q", "R", "S"), ("(12)", "(1)", "(1)", "(12)", "(12)", "(1)"),
               ("P", "RQ", "SQ", "QPQ")),
    Degree2Row(("P", "R", "S"), ("(12)", "(12)", "(1)", "(1)", "(1)", "(12)"),
               ("Q", "RP", "SP", "PQP")),
    Degree2Row(("P", "Q", "S"), ("(1)", "(12)", "(12)", "(12)", "(1)", "(1)"),
               ("QP", "R", "SP", "PRP")),
    Degree2Row(("P", "Q", "R"), ("(1)", "(1)", "(12)", "(1)", "(12)", "(12)"),
               ("QP", "RP", "S", "PSP")),
    Degree2Row(("P", "Q", "R", "S"), ("(1)", "(1)", "(1)", "(1)", "(1)", "(1)"),
               ("PQ", "QR", "RS")),
)


class KleinianRow(NamedTuple):
    """A reference row for the t10 kleinian group: images of a, b, c, the
    derived columns ab, abc, bc, and printed stabilizer words (written in
    the reflection generators)."""

    index: int
    images: tuple[str, str, str]
    derived: tuple[str, str, str]
    stabilizer_words: tuple[str, ...]


T10_KLEINIAN_ROWS: tuple[KleinianRow, ...] = (
    KleinianRow(2, ("(1)", "(1)", "(12)"), ("(1)", "(12)", "(12)"),
                ("QP", "RP", "SRSP")),
    KleinianRow(3, ("(123)", "(132)", "(23)"), ("(1)", "(23)", "(13)"),
                ("RP", "SP", "QRQP")),
    # As printed; the ab column of this row has order 3, which no valid
    # assignment allows here (ab must square to the identity), so the row
    # carries a misprint.  Tests pin down the defect and check the repaired
    # row instead.
    KleinianRow(4, ("(234)", "(143)", "(13)"), ("(123)", "(23)", "(34)"),
                ("QP", "SP", "RSRP")),
)

T10_KLEINIAN_ROW4_REPAIRED: tuple[str, str, str] = ("(243)", "(143)", "(13)")

