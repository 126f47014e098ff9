"""Checks on the embedded reference tables themselves: internal coherence,
and how the worked-example rows line up with computed output."""

import pytest

from tetgroups import (Assignment, CoxeterSymbol, Perm, TransitiveRep,
                       canonical_form, catalog, enumerate_classes,
                       evaluate_word, kleinian_presentation,
                       presentation_for)
from tetgroups.reference import REFERENCE_COUNTS

from conftest import parse_cycles
from published_rows import (CORROBORATED_IDS, DEGREE2_ROWS,
                            T10_KLEINIAN_ROW4_REPAIRED, T10_KLEINIAN_ROWS)

T10 = CoxeterSymbol(3, 3, 6, 2, 2, 2)
NAMES = ("P", "Q", "R", "S")


def test_reference_ids_match_the_hyperbolic_catalog():
    hyper = [e.id for e in catalog() if e.geometry.startswith("hyperbolic")]
    assert [row.id for row in REFERENCE_COUNTS] == hyper
    assert set(CORROBORATED_IDS) <= set(hyper)


def test_degree2_rows_cover_all_nontrivial_assignments():
    moved_sets = [frozenset(row.moved) for row in DEGREE2_ROWS]
    assert len(moved_sets) == 15
    assert len(set(moved_sets)) == 15
    assert frozenset() not in moved_sets
    assert all(set(m) <= set(NAMES) for m in moved_sets)


def test_degree2_pair_columns_are_the_pair_products():
    # the printed pair columns follow from the assignment alone
    pres = presentation_for(CoxeterSymbol(2, 2, 2, 2, 2, 2), "full")
    for row in DEGREE2_ROWS:
        perms = tuple(Perm((2, 1)) if name in row.moved else Perm.identity(2)
                      for name in NAMES)
        assignment = Assignment(NAMES, perms)
        derived = tuple(evaluate_word(base, assignment).cycle_string()
                        for base in pres.pair_bases)
        assert derived == row.pair_columns, row.moved


def kleinian_assignment(images, n):
    return Assignment(("a", "b", "c"),
                      tuple(parse_cycles(text, n) for text in images))


def test_t10_kleinian_rows_2_and_3_match_computed_classes():
    pres = kleinian_presentation(T10)
    for row in T10_KLEINIAN_ROWS[:2]:
        rep = TransitiveRep(pres, kleinian_assignment(row.images, row.index))
        derived = tuple(evaluate_word(base, rep.assignment).cycle_string()
                        for base in pres.pair_bases)
        assert derived == row.derived
        classes = enumerate_classes(pres, row.index)
        assert len(classes) == 1
        assert (canonical_form(rep.assignment).key()
                == classes[0].rep.assignment.key())


def test_t10_kleinian_row_4_as_printed_is_impossible():
    # its ab column has order 3, but ab must square to the identity, so the
    # printed images cannot satisfy the relators
    pres = kleinian_presentation(T10)
    row = T10_KLEINIAN_ROWS[2]
    assignment = kleinian_assignment(row.images, 4)
    ab = pres.pair_bases[0]
    assert evaluate_word(ab, assignment).order() == 3
    with pytest.raises(ValueError, match="ab"):
        TransitiveRep(pres, assignment)


def test_t10_kleinian_row_4_repaired_matches_the_computed_class():
    pres = kleinian_presentation(T10)
    rep = TransitiveRep(pres, kleinian_assignment(T10_KLEINIAN_ROW4_REPAIRED, 4))
    classes = enumerate_classes(pres, 4)
    assert len(classes) == 1
    assert (canonical_form(rep.assignment).key()
            == classes[0].rep.assignment.key())
    # the repaired row is one relabeling away from the printed one: only
    # the a column changes, and only in the order of its 3-cycle
    printed = T10_KLEINIAN_ROWS[2]
    assert printed.images[1:] == T10_KLEINIAN_ROW4_REPAIRED[1:]
