import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetgroups import (CoxeterSymbol, TransitiveRep, Word,
                       brute_force_classes, canonical_form,
                       count_distinct_subgroups, default_coset_budget,
                       enumerate_candidates, enumerate_classes,
                       presentation_for, same_subgroup, todd_coxeter,
                       verify_class)

S1 = CoxeterSymbol(3, 3, 3, 2, 2, 2)


def test_brute_force_golden_triples(t10_full, t10_kleinian):
    full = [tuple(brute_force_classes(t10_full, n)) for n in (1, 2, 3, 4)]
    assert full == [(1, 1, 1), (3, 3, 3), (6, 1, 3), (30, 2, 5)]
    klein = [tuple(brute_force_classes(t10_kleinian, n)) for n in (1, 2, 3, 4)]
    assert klein == [(1, 1, 1), (1, 1, 1), (6, 1, 3), (24, 1, 4)]


def test_brute_force_index_bounds(t10_full):
    with pytest.raises(ValueError):
        brute_force_classes(t10_full, 0)
    with pytest.raises(ValueError, match="1..5"):
        brute_force_classes(t10_full, 6)


@pytest.mark.parametrize("group", ["full", "kleinian"])
@pytest.mark.parametrize("sym_entries", [(3, 3, 3, 2, 2, 2), (3, 3, 6, 2, 2, 2),
                                         (3, 6, 3, 2, 2, 2), (4, 4, 3, 2, 2, 2),
                                         (3, 3, 3, 3, 3, 3)])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_brute_force_agrees_with_enumerator(sym_entries, group, n):
    pres = presentation_for(CoxeterSymbol(*sym_entries), group)
    counts = brute_force_classes(pres, n)
    assert counts.labeled == len(enumerate_candidates(pres, n))
    assert counts.classes == len(enumerate_classes(pres, n))
    assert counts.subgroups == count_distinct_subgroups(pres, n)


def test_coset_enumeration_of_finite_groups():
    # [3,3,3,2,2,2] is the symmetry group of the 4-simplex, order 120,
    # and its rotation subgroup has order 60
    full = presentation_for(S1, "full")
    klein = presentation_for(S1, "kleinian")
    assert todd_coxeter(full, [], 400).index == 120
    assert todd_coxeter(klein, [], 400).index == 60
    assert todd_coxeter(full, [Word.gen(0)], 400).index == 60
    # P, Q, R generate the stabilizer of a vertex, index 5
    res = todd_coxeter(full, [Word.gen(0), Word.gen(1), Word.gen(2)], 400)
    assert res.status == "closed"
    assert res.index == 5
    assert TransitiveRep(full, res.action).degree == 5


def test_coset_enumeration_overflow(t10_kleinian):
    # the whole group is infinite, so enumerating cosets of the trivial
    # subgroup must exhaust any budget
    res = todd_coxeter(t10_kleinian, [], 50)
    assert res.status == "overflow"
    assert res.index is None and res.action is None


def test_coset_enumeration_rejects_foreign_generators(t10_kleinian):
    with pytest.raises(ValueError):
        todd_coxeter(t10_kleinian, [Word.gen(3)], 50)


def test_coset_enumeration_is_deterministic(t10_full):
    words = [t10_full.parse(w) for w in ("P", "Q", "R", "SRS")]
    first = todd_coxeter(t10_full, words, 100)
    second = todd_coxeter(t10_full, words, 100)
    assert first.status == second.status == "closed"
    assert first.index == second.index == 2
    assert first.action.key() == second.action.key()


def test_coset_enumeration_recovers_each_class(t10_full, t10_kleinian):
    from tetgroups import build_coset_table, schreier_generators

    for pres in (t10_full, t10_kleinian):
        for n in (2, 3, 4):
            for cls in enumerate_classes(pres, n):
                gens = schreier_generators(build_coset_table(cls.rep))
                res = todd_coxeter(pres, gens.simplified,
                                   default_coset_budget(n, pres))
                assert res.status == "closed" and res.index == n
                action = TransitiveRep(pres, res.action)
                assert same_subgroup(action, cls.rep)
                assert (canonical_form(action.assignment).key()
                        == cls.rep.assignment.key())


def test_index_two_words_close_at_two_not_four(t10_full):
    # feeding a smaller subgroup's generators must close at that subgroup's
    # index; this is the disagreement verify_class watches for
    words = [t10_full.parse(w) for w in ("P", "Q", "R", "SRS")]
    res = todd_coxeter(t10_full, words, 200)
    assert res.index == 2
    four = enumerate_classes(t10_full, 4)[0]
    assert res.index != four.rep.degree


def test_verify_class_outcomes(t10_kleinian):
    cls = enumerate_classes(t10_kleinian, 4)[0]
    assert verify_class(cls.rep) is True
    assert verify_class(cls.rep, max_cosets=1) is None


@given(st.tuples(*[st.integers(min_value=2, max_value=8)] * 6),
       st.sampled_from(["full", "kleinian"]), st.integers(min_value=1, max_value=4))
@settings(max_examples=100, deadline=None)
def test_every_class_closes_on_random_symbols(entries, group, n):
    pres = presentation_for(CoxeterSymbol(*entries), group)
    for cls in enumerate_classes(pres, n):
        assert verify_class(cls.rep) is True


def test_default_budget_scales_with_index(t10_full):
    assert default_coset_budget(4, t10_full) == 160
