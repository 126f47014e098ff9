"""Rows of the published reference table that only the tests read.

Transcribed, like reference.REFERENCE_COUNTS, from a published reference
table of subgroup counts for the hyperbolic tetrahedra: the worked-example
ids, the index-2 table of the full group and the worked t10 kleinian rows.
"""

from __future__ import annotations

from typing import NamedTuple

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

