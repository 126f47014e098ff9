import dataclasses
import gc
import hashlib
import itertools
import warnings
from collections import Counter
from fractions import Fraction
from math import factorial, gcd, lcm

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tetgroups import (MAX_DEGREE, Assignment, CoxeterSymbol, Perm,
                       Presentation, SubgroupClass, TransitiveRep, Word, all_perms,
                       canonical_form, catalog, catalog_by_id, classify_image,
                       conjugate_assignment, count_distinct_subgroups,
                       enumerate_candidates, enumerate_classes, evaluate_word,
                       is_transitive, kleinian_presentation, presentation_for,
                       verify_class, word_order)
from tetgroups import enumerator
from tetgroups.enumerator import (_contains_alternating, _search, _search_rows, order_masks,
                                  perm_tables)
from tetgroups.oracle import _recount_rows, _symmetric_tables, brute_force_classes

from conftest import T10, random_presentations


def asg(names, *cycle_maps):
    n = max((max(pt for cyc in cycles for pt in cyc) for cycles in cycle_maps
             if cycles), default=1)
    perms = []
    for cycles in cycle_maps:
        images = list(range(1, n + 1))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a - 1] = b
        perms.append(Perm(tuple(images)))
    return Assignment(tuple(names), tuple(perms))


def product_space(pres, n):
    """Every assignment of S_n elements to the generators, in lexicographic
    order: the reference the search is checked against, sharing no code
    with it."""
    return [Assignment(pres.generator_names, perms) for perms in
            itertools.product(all_perms(n), repeat=len(pres.generator_names))]


def satisfies_relators(pres, a):
    return all(evaluate_word(Word(base.letters * k), a).is_identity()
               for base, k in pres.relator_powers)


def test_transitive_rep_validation(t10_full):
    good = asg("PQRS", [], [], [], [(1, 2)])
    TransitiveRep(t10_full, good)
    with pytest.raises(ValueError, match="names"):
        TransitiveRep(t10_full, Assignment(("a", "b", "c", "d"), good.perms))
    # P and Q differing in S_2 gives PQ the order 2, which 3 does not allow
    with pytest.raises(ValueError, match="PQ"):
        TransitiveRep(t10_full, asg("PQRS", [(1, 2)], [], [], [(1, 2)]))
    with pytest.raises(ValueError, match="transitive"):
        TransitiveRep(t10_full, Assignment(("P", "Q", "R", "S"),
                                           (Perm.identity(2),) * 4))
    # degree 0 has no point 1, so no orbit: refused, not an IndexError
    with pytest.raises(ValueError, match="transitive"):
        TransitiveRep(t10_full, Assignment(("P", "Q", "R", "S"), (Perm(()),) * 4))


def test_candidate_stages_nest(t10_full):
    raw = product_space(t10_full, 2)
    filtered = [a for a in raw if satisfies_relators(t10_full, a)]
    transitive = enumerate_candidates(t10_full, 2)
    assert len(raw) == 16
    assert sum(not all(p.is_identity() for p in a.perms) for a in raw) == 15
    # the three sixfold relators force P = Q = R, leaving S free
    assert len(filtered) == 4
    assert len(transitive) == 3
    assert ([a.key() for a in transitive]
            == [a.key() for a in filtered if is_transitive(a)])
    with pytest.raises(ValueError):
        enumerate_candidates(t10_full, 0)


def test_candidates_come_out_in_lex_order(t10_kleinian):
    cands = enumerate_candidates(t10_kleinian, 3)
    keys = [a.key() for a in cands]
    assert keys == sorted(keys)


def test_enumerate_classes_golden_counts():
    # corroborated published counts for [3,3,6,2,2,2]
    sym = CoxeterSymbol(3, 3, 6, 2, 2, 2)
    full = presentation_for(sym, "full")
    klein = presentation_for(sym, "kleinian")
    assert [len(enumerate_classes(full, n)) for n in (2, 3, 4)] == [3, 1, 2]
    assert [len(enumerate_classes(klein, n)) for n in (2, 3, 4)] == [1, 1, 1]


def general_presentation():
    """The Coxeter presentations use each generator once per base and never
    inverted; these relators put the deepest generator inverted (abc^-1),
    inside the base (acb), twice (cacb^-1) and alone (b^-3), and leave c
    without a relator of its own."""
    a, b, c = (Word.gen(i) for i in range(3))
    return Presentation("test", CoxeterSymbol(2, 2, 2, 2, 2, 2), ("a", "b", "c"),
                        ((a, 4), (~b, 3), (a * b * ~c, 2), (a * c * b, 4),
                         (c * a * c * ~b, 2)))


def test_search_matches_the_product_space_on_a_general_presentation():
    pres = general_presentation()
    for n in (3, 4):
        raw = product_space(pres, n)
        expected = [x for x in raw if satisfies_relators(pres, x)]
        assert 0 < len(expected) < len(raw)
        assert ([x.key() for x in enumerate_candidates(pres, n)]
                == [x.key() for x in expected if is_transitive(x)])


def row_expansion(pres, n):
    """enumerate_candidates' combos as first built: every rep conjugated by
    every row of the conjugation table, collected in a set and sorted."""
    combos = [combo for combo, _ in _search(pres, n)]
    return sorted({tuple(map(row.__getitem__, combo))
                   for row in zip(*perm_tables(n).conj) for combo in combos})


def test_candidates_match_the_row_expansion():
    cells = [(presentation_for(entry.symbol, group), n) for entry in catalog()
             for group in ("full", "kleinian") for n in (1, 2, 3, 4)]
    cells += [(presentation_for(catalog_by_id("t31").symbol, "kleinian"), 5),
              (presentation_for(catalog_by_id("t10").symbol, "full"), 5)]
    cells += [(general_presentation(), n) for n in (3, 4)]
    for pres, n in cells:
        perms = all_perms(n)
        candidates = enumerate_candidates(pres, n)
        assert ([a.key() for a in candidates]
                == [tuple(perms[i].images for i in combo) for combo in row_expansion(pres, n)])
        # the trusted build gives what the checked constructor would
        assert all(a.names == pres.generator_names and a == Assignment(a.names, a.perms)
                   for a in candidates)


# sha256 of repr(list(_search(p, n))), chained over all 80 catalog groups
# (catalog order, full before kleinian) at indices 1-6 and then over
# general_presentation() at indices 3-4, recorded from the list-based search
# the bitset one replaced; only general_presentation reaches the fold path
SEARCH_SHA256 = "d17f9626b8ea6797a59f2b710c677c831c2b6bcba902e837991107209a0a2abb"


def test_search_output_is_pinned():
    digest = hashlib.sha256()
    for entry in catalog():
        for group in ("full", "kleinian"):
            pres = presentation_for(entry.symbol, group)
            for n in range(1, 7):
                digest.update(repr(list(_search(pres, n))).encode())
    for n in (3, 4):
        digest.update(repr(list(_search(general_presentation(), n))).encode())
    assert digest.hexdigest() == SEARCH_SHA256


def product_space_counts(reps, n):
    """(labeled, classes, subgroups) of the reference's transitive reps:
    grouping them by canonical form gives the classes, and by the least
    conjugate under relabelings fixing 1 the subgroups."""
    fix1 = [s for s in all_perms(n) if s.apply(1) == 1]
    subgroups = {min(conjugate_assignment(x, s).key() for s in fix1) for x in reps}
    classes = {canonical_form(x).key() for x in reps}
    assert len(classes) < len(subgroups) < len(reps)
    return len(reps), len(classes), len(subgroups)


def test_oracle_matches_the_product_space_on_a_general_presentation():
    # The oracle cuts b's range by its own relator b^-3 and leaves c's whole.
    pres = general_presentation()
    for n in (3, 4):
        reps = [x for x in product_space(pres, n)
                if satisfies_relators(pres, x) and is_transitive(x)]
        assert tuple(brute_force_classes(pres, n)) == product_space_counts(reps, n)


def two_cut_presentation():
    """a carries two one-letter relators, a^4 and a^-6, so it ranges over
    the elements whose order divides 2; c, the deepest generator of bc^-1a,
    is inverted there; b has no relator of its own (none is placed at b)."""
    a, b, c = (Word.gen(i) for i in range(3))
    return Presentation("test", CoxeterSymbol(2, 2, 2, 2, 2, 2), ("a", "b", "c"),
                        ((a, 4), (~a, 6), (b * ~c * a, 3), (c * a * c * b, 2)))


def test_two_cuts_on_one_generator_match_the_product_space():
    pres = two_cut_presentation()
    for n in (3, 4):
        # both methods cut a to the elements whose order divides 2, the
        # recount to one per class, and leave b whole with nothing to test
        everything = (1 << factorial(n)) - 1
        order_two = order_masks(n, 4)[0] & order_masks(n, 6)[0]
        assert order_two == order_masks(n, 2)[0]
        assert _search_rows(pres, n)[0] == (order_two, (), (), ())
        assert _search_rows(pres, n)[1] == (everything, (), (), ())
        (a_choices, a_joint), (b_choices, b_joint), _ = _recount_rows(pres, n)
        t = _symmetric_tables(n)
        assert a_choices.tolist() == np.flatnonzero((2 % t.order == 0) & t.class_rep).tolist()
        assert b_choices.tolist() == list(range(factorial(n)))
        assert a_joint == b_joint == ()
        expected = [x for x in product_space(pres, n) if satisfies_relators(pres, x)]
        assert {x.perms[0].order() for x in expected} == {1, 2}
        reps = [x for x in expected if is_transitive(x)]
        assert [x.key() for x in enumerate_candidates(pres, n)] == [x.key() for x in reps]
        assert tuple(brute_force_classes(pres, n)) == product_space_counts(reps, n)


def test_exponents_past_the_degree_and_64_bits_count_as_their_reduction():
    # A hand-built presentation takes any int exponent: here two of 2^64
    # and more, which numpy cannot hold, and the prime 61, which makes
    # [a, b] trivial at every degree here.  An order in S_n divides exp
    # exactly when it divides gcd(exp, lcm(1..n)), so every count equals
    # that of the copy with each exponent so reduced.  The reference tests
    # a relator by its base's order and never writes it out k times.
    a, b, c = (Word.gen(i) for i in range(3))
    wide, wider = 2 ** 64 * 7, 2 ** 70 + 12
    pres = Presentation("test", CoxeterSymbol(2, 2, 2, 2, 2, 2), ("a", "b", "c"),
                        ((a, wider), (b, wide), (a * b * ~a * ~b, 61), (c * a, wider),
                         (b * c, 2 ** 64 * 3)))
    for n in (3, 4, 5):
        span = lcm(*range(1, n + 1))
        reduced = dataclasses.replace(pres, relator_powers=tuple(
            (base, gcd(k, span)) for base, k in pres.relator_powers))
        triples = []
        for p in (pres, reduced):
            classes = enumerate_classes(p, n)
            labeled = sum(cls.labeled_orbit_size for cls in classes)
            triples.append((labeled, len(classes), labeled // factorial(n - 1)))
            assert all(verify_class(cls.rep) is True for cls in classes)
        counts = tuple(brute_force_classes(pres, n))
        assert counts == tuple(brute_force_classes(reduced, n)) == triples[0] == triples[1]
        if n <= 4:
            reps = [x for x in product_space(pres, n)
                    if all(k % word_order(base, x) == 0 for base, k in pres.relator_powers)
                    and is_transitive(x)]
            assert counts == product_space_counts(reps, n)


def test_each_plan_is_built_once_per_presentation(t10_full):
    # Out-of-range degrees are refused before any rows are built; then each
    # method's rows are built once per presentation and degree, and an
    # equal presentation built afresh looks up the same rows.
    caches = (_search_rows, _recount_rows)
    for cache in caches:
        cache.cache_clear()
    for n in (0, MAX_DEGREE + 1):
        for run in (enumerate_classes, enumerate_candidates,
                    count_distinct_subgroups, brute_force_classes):
            with pytest.raises(ValueError):
                run(t10_full, n)
    assert all(cache.cache_info().currsize == 0 for cache in caches)
    fresh = presentation_for(T10, "full")
    assert fresh == t10_full and fresh is not t10_full
    for n in range(1, MAX_DEGREE + 1):
        for pres in (t10_full, fresh):
            enumerate_classes(pres, n)
            brute_force_classes(pres, n)
        assert all(cache.cache_info().misses == cache.cache_info().currsize == n
                   for cache in caches)
        assert all(cache(fresh, n) is cache(t10_full, n) for cache in caches)


def test_order_tables_are_keyed_by_the_reduced_exponent():
    # An order in S_6 divides exp exactly when it divides gcd(exp, 60),
    # 60 = lcm(1..6), so exponents 7..100 share the tables of 60's twelve
    # divisors, and each method's rows are those of the reduced exponent.
    order_masks.cache_clear()
    for exp in range(7, 101):
        pres = kleinian_presentation(CoxeterSymbol(exp, 3, 3, 2, 2, 2))
        (a, _), *rest = pres.relator_powers
        reduced = Presentation("test", pres.symbol, pres.generator_names,
                               ((a, gcd(exp, 60)), *rest))
        assert _search_rows(pres, 6) == _search_rows(reduced, 6), exp
        for (choices, joint), (want, want_joint) in zip(_recount_rows(pres, 6),
                                                        _recount_rows(reduced, 6)):
            assert np.array_equal(choices, want), exp
            assert [(letters, column.tolist()) for letters, column in joint] == [
                (letters, column.tolist()) for letters, column in want_joint], exp
    assert order_masks.cache_info().currsize <= 12


def test_a_plan_that_drops_a_relator_is_caught(t10_full, monkeypatch):
    # The unpatched rows are cached by the first search, and a second
    # search at the same degree builds none.  Q's rows without (PQ)^3's
    # single: the search then yields combos that break it, and the
    # per-class check, which reads relator_powers, refuses them.
    assert len(enumerate_classes(t10_full, 4)) == 2
    rows_built = []

    def counting(n, exp):
        rows_built.append((n, exp))
        return order_masks(n, exp)

    monkeypatch.setattr(enumerator, "order_masks", counting)
    assert len(enumerate_classes(t10_full, 4)) == 2
    assert rows_built == []
    p_step, (allowed, singles, checks, folds), *tail = _search_rows(t10_full, 4)
    assert singles == ((0, order_masks(4, 3)),) and checks == folds == ()
    broken = (p_step, (allowed, (), checks, folds), *tail)
    monkeypatch.setattr(enumerator, "_search_rows",
                        lambda pres, n: broken if (pres, n) == (t10_full, 4)
                        else _search_rows(pres, n))
    with pytest.raises(RuntimeError, match="not a transitive rep"):
        enumerate_classes(t10_full, 4)


def test_a_search_leaves_no_cyclic_garbage(t10_full):
    # the walk keeps its state in one frame with no reference to itself, so
    # what a call builds is freed by reference counting alone
    for run in (enumerate_classes, enumerate_candidates, count_distinct_subgroups):
        gc.collect()
        gc.disable()
        try:
            run(t10_full, 4)
            assert gc.collect() == 0, run.__name__
        finally:
            gc.enable()


def test_class_reps_are_canonical_and_sorted(t10_kleinian):
    classes = enumerate_classes(t10_kleinian, 4)
    keys = [c.rep.assignment.key() for c in classes]
    assert keys == sorted(keys)
    for c in classes:
        assert canonical_form(c.rep.assignment).key() == c.rep.assignment.key()


def reference_candidates(pres, n):
    """The transitive relator-satisfying assignments by brute force, sharing
    no code with the search: each generator ranges over the elements its
    one-letter relators allow (P over the involutions), and the product of
    those ranges is filtered by every relator and by transitivity."""
    ranges = [all_perms(n)] * len(pres.generator_names)
    for base, exp in pres.relator_powers:
        if len(base) == 1:
            (gen, _), = base
            ranges[gen] = [p for p in ranges[gen] if exp % p.order() == 0]
    return [a for a in (Assignment(pres.generator_names, perms)
                        for perms in itertools.product(*ranges))
            if satisfies_relators(pres, a) and is_transitive(a)]


def canonical_grouping(pres, candidates):
    """(rep key, orbit size, image type) per class, grouping the candidates
    by canonical form: the class grouping the search replaced."""
    orbits = Counter(canonical_form(a).key() for a in candidates)
    return [(key, orbits[key], classify_image(Assignment(
        pres.generator_names, tuple(Perm(im) for im in key))))
        for key in sorted(orbits)]


def class_triples(classes):
    return [(c.rep.assignment.key(), c.labeled_orbit_size, c.image_type)
            for c in classes]


def conjugation_orbit(assignment):
    return {conjugate_assignment(assignment, s).key()
            for s in all_perms(assignment.degree)}


@pytest.mark.parametrize("id_, group, n", [("t10", "kleinian", 5),
                                           ("t32", "kleinian", 5),
                                           ("t32", "full", 4)])
def test_orbit_marking_matches_canonical_form_grouping(id_, group, n):
    # Checked against references that share no code with the search.  At
    # index 4 the brute-force candidates are grouped by canonical form.  At
    # index 5, where that grouping is slow, each rep is conjugated by all of
    # S_5: it must be its orbit's least member, its orbit must have the
    # reported size, and the orbits must add up to the oracle's labeled count.
    pres = presentation_for(catalog_by_id(id_).symbol, group)
    classes = enumerate_classes(pres, n)
    assert classes
    if n == 4:
        assert class_triples(classes) == canonical_grouping(
            pres, reference_candidates(pres, n))
        return
    for c in classes:
        orbit = conjugation_orbit(c.rep.assignment)
        assert min(orbit) == c.rep.assignment.key()
        assert len(orbit) == c.labeled_orbit_size
    assert (sum(c.labeled_orbit_size for c in classes)
            == brute_force_classes(pres, n).labeled)


def test_classes_match_canonical_form_grouping_on_a_general_presentation():
    pres = general_presentation()
    for n in (3, 4):
        candidates = [x for x in product_space(pres, n)
                      if satisfies_relators(pres, x) and is_transitive(x)]
        grouped = canonical_grouping(pres, candidates)
        assert 1 < len(grouped) < len(candidates)
        assert class_triples(enumerate_classes(pres, n)) == grouped


@given(st.tuples(*[st.integers(min_value=2, max_value=6)] * 6),
       st.sampled_from(["full", "kleinian"]), st.integers(min_value=1, max_value=5))
@settings(max_examples=60, deadline=None)
def test_each_class_is_one_whole_orbit_on_random_symbols(entries, group, n):
    pres = presentation_for(CoxeterSymbol(*entries), group)
    classes = enumerate_classes(pres, n)
    for c in classes:
        a = c.rep.assignment
        assert canonical_form(a) == a
        assert c.labeled_orbit_size == len(conjugation_orbit(a))
    assert (sum(c.labeled_orbit_size for c in classes)
            == brute_force_classes(pres, n).labeled)


def test_labeled_orbits_partition_the_candidates(t10_kleinian):
    classes = enumerate_classes(t10_kleinian, 3)
    candidates = enumerate_candidates(t10_kleinian, 3)
    assert sum(c.labeled_orbit_size for c in classes) == len(candidates)


@pytest.mark.parametrize("group", ["full", "kleinian"])
@pytest.mark.parametrize("sym_entries", [(3, 3, 6, 2, 2, 2), (3, 5, 2, 3, 2, 2),
                                         (4, 4, 4, 2, 2, 2)])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_labeled_count_is_factorial_times_subgroups(sym_entries, group, n):
    pres = presentation_for(CoxeterSymbol(*sym_entries), group)
    labeled = len(enumerate_candidates(pres, n))
    assert labeled == factorial(n - 1) * count_distinct_subgroups(pres, n)


@given(st.tuples(*[st.integers(min_value=2, max_value=6)] * 6),
       st.sampled_from(["full", "kleinian"]), st.integers(min_value=1, max_value=4))
@settings(max_examples=30, deadline=None)
def test_counts_match_the_oracle_on_random_symbols(entries, group, n):
    pres = presentation_for(CoxeterSymbol(*entries), group)
    counts = (len(enumerate_candidates(pres, n)), len(enumerate_classes(pres, n)),
              count_distinct_subgroups(pres, n))
    assert counts == tuple(brute_force_classes(pres, n))


@given(random_presentations(), st.sampled_from([1, 2, 3, 4]))
@example(Presentation("test", CoxeterSymbol(2, 2, 2, 2, 2, 2), ("a",),
                      ((Word(((0, -1), (0, -1))), 2),)), 4)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_counts_match_the_oracle_on_random_presentations(pres, n):
    # Past the catalog's shape (four generators, each once per base and
    # never inverted): inverses, repeated generators, fewer generators.
    # With one generator the transitivity mask is cut at depth 0, from the
    # finest partition; the explicit example, a^-2 of order 2, keeps the
    # six 4-cycles, one class.
    classes = enumerate_classes(pres, n)
    labeled = sum(c.labeled_orbit_size for c in classes)
    assert ((labeled, len(classes), Fraction(labeled, factorial(n - 1)))
            == tuple(brute_force_classes(pres, n)))
    assert all(verify_class(c.rep) is not False for c in classes)


# Generator pairs in symbol order: PQ=p, QR=q, RS=r, PR=s, PS=t, QS=u.
PAIRS = ((0, 1), (1, 2), (2, 3), (0, 2), (0, 3), (1, 3))


def class_profile(pres, n):
    classes = enumerate_classes(pres, n)
    return (len(enumerate_candidates(pres, n)), len(classes),
            count_distinct_subgroups(pres, n),
            sorted((c.image_type, c.labeled_orbit_size) for c in classes))


@given(st.tuples(*[st.integers(min_value=2, max_value=8)] * 6),
       st.permutations(range(4)), st.sampled_from(["full", "kleinian"]),
       st.integers(min_value=1, max_value=4))
@settings(max_examples=100, deadline=None)
def test_counts_do_not_change_when_the_generators_are_relabeled(entries, pi, group, n):
    # Relabeling P, Q, R, S by pi gives an isomorphic group (and rotation
    # subgroup): the pair {X, Y} takes the old label of {pi(X), pi(Y)}.
    label = {frozenset(pair): e for pair, e in zip(PAIRS, entries)}
    relabeled = tuple(label[frozenset((pi[x], pi[y]))] for x, y in PAIRS)
    pres = presentation_for(CoxeterSymbol(*entries), group)
    moved = presentation_for(CoxeterSymbol(*relabeled), group)
    assert class_profile(moved, n) == class_profile(pres, n)


def test_index_one_is_the_trivial_class(t10_full):
    classes = enumerate_classes(t10_full, 1)
    assert len(classes) == 1
    assert classes[0].image_type == "1"
    assert classes[0].labeled_orbit_size == 1


def test_degree_bounds(t10_full):
    with pytest.raises(ValueError):
        enumerate_classes(t10_full, 0)
    with pytest.raises(ValueError):
        enumerate_classes(t10_full, 13)


def test_index_6_has_a_cross_check_and_no_warning():
    # the oracle reaches MAX_DEGREE, so no index is enumerator-only
    pres = kleinian_presentation(CoxeterSymbol(2, 2, 2, 2, 2, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        classes = enumerate_classes(pres, 6)
    assert tuple(brute_force_classes(pres, 6)) == (0, 0, 0)
    # a transitive abelian group acts regularly, and an abelian 2-group
    # has no order 6
    assert classes == []


def test_classify_image_names():
    assert classify_image(asg("g", [])) == "1"
    assert classify_image(asg("g", [(1, 2)])) == "S2"
    assert classify_image(asg("g", [(1, 2, 3)])) == "Z3"
    assert classify_image(asg("gh", [(1, 2, 3)], [(1, 2)])) == "S3"
    assert classify_image(asg("gh", [(1, 2), (3, 4)], [(1, 3), (2, 4)])) == "V"
    assert classify_image(asg("g", [(1, 2, 3, 4)])) == "Z4"
    assert classify_image(asg("gh", [(1, 2, 3, 4)], [(1, 3)])) == "D4"
    assert classify_image(asg("gh", [(1, 2, 3)], [(1, 2), (3, 4)])) == "A4"
    assert classify_image(asg("gh", [(1, 2, 3, 4)], [(1, 2)])) == "S4"
    assert classify_image(asg("g", [(1, 2, 3, 4, 5)])) == "G5"
    assert classify_image(asg("gh", [(1, 2, 3, 4, 5)], [(1, 2)])) == "G120"
    assert classify_image(asg("gh", [(1, 2, 3, 4, 5)], [(1, 2, 3)])) == "G60"
    assert classify_image(asg("gh", [(1, 2, 3, 4, 5, 6)], [(1, 2)])) == "G720"
    # transitive images that Jordan's theorem leaves open (no generator or
    # pairwise product has a transposition or 3-cycle power): the listing
    # stops past 5! elements and parity names them
    for a, name in ((asg("gh", [(1, 4, 5, 2, 6, 3)], [(1, 5, 6, 3, 2)]), "G720"),
                    (asg("gh", [(1, 6), (2, 3, 4, 5)], [(1, 5, 2, 4, 3)]), "G360")):
        combo = [all_perms(6).index(p) for p in a.perms]
        assert _contains_alternating(combo, perm_tables(6)) is False
        assert classify_image(a) == name
    # S_5 on the points 2-6 has exactly 5! elements and is listed in full
    assert classify_image(asg("gh", [(2, 3, 4, 5, 6)], [(2, 3)])) == "G120"


def test_classify_image_tries_jordan_only_on_a_transitive_image():
    # <(12), (345)> holds a transposition and a 3-cycle, but has two orbits:
    # read as primitive it would be S_5
    assert classify_image(asg("gh", [(1, 2)], [(3, 4, 5)])) == "G6"
    assert classify_image(asg("gh", [(1, 2)], [(3, 4, 5, 6)])) == "G8"


def closure_order(combo, n):
    """The order of the group the indices generate, listed breadth first."""
    comp = perm_tables(n).comp
    elements, frontier = {0}, [0]
    while frontier:
        frontier = [y for y in {comp[g][x] for x in frontier for g in combo}
                    if y not in elements]
        elements.update(frontier)
    return len(elements)


@given(st.sampled_from([5, 6]).flatmap(
    lambda n: st.lists(st.sampled_from(range(factorial(n))), min_size=1, max_size=3)
    .map(lambda combo: (n, combo))))
@settings(max_examples=200)
def test_classify_image_names_the_listed_order(n_combo):
    n, combo = n_combo
    a = Assignment(tuple("xyz"[:len(combo)]), tuple(all_perms(n)[i] for i in combo))
    order = closure_order(combo, n)
    assert classify_image(a) == ("1" if order == 1 else f"G{order}")


@pytest.mark.parametrize("n, fired, classes", [(5, 62, 70), (6, 92, 931)])
def test_jordan_names_the_image_the_closure_lists(n, fired, classes):
    # Every catalog class at the index; Jordan's theorem must settle the
    # counted number of them (a path that never fires fails), and wherever
    # it does the listed group is A_n or S_n and named by its order.
    at = {p.images: i for i, p in enumerate(all_perms(n))}
    tables = perm_tables(n)
    seen = settled = 0
    for entry in catalog():
        for group in ("full", "kleinian"):
            for c in enumerate_classes(presentation_for(entry.symbol, group), n):
                seen += 1
                combo = [at[p.images] for p in c.rep.assignment.perms]
                if _contains_alternating(combo, tables):
                    settled += 1
                    order = closure_order(combo, n)
                    assert order in (factorial(n), factorial(n) // 2), c
                    assert c.image_type == f"G{order}"
    assert (settled, seen) == (fired, classes)


@pytest.mark.parametrize("combo", [(1, 0, 0, 1), (0, 0, 0, 0)])
def test_enumerate_classes_checks_what_the_search_yields(t10_full, monkeypatch, combo):
    # P = S = (12) with Q = 1 gives PQ the order 2, which (PQ)^3 forbids;
    # all four trivial satisfy every relator but leave two orbits
    monkeypatch.setattr(enumerator, "_search", lambda pres, n: iter([(combo, 1)]))
    with pytest.raises(RuntimeError, match=r"full group \[3,3,6,2,2,2\] at index 2"):
        enumerate_classes(t10_full, 2)


def test_count_distinct_subgroups_checks_the_stabilizer_sizes(t10_full, monkeypatch):
    # a stabilizer of order 5 at index 4 gives 24 // 5 = 4 labeled
    # assignments, no multiple of 3! = 6
    monkeypatch.setattr(enumerator, "_search", lambda pres, n: iter([((0, 0, 0, 0), 5)]))
    with pytest.raises(RuntimeError, match=r"4 labeled assignments at index 4 are not a multiple"):
        count_distinct_subgroups(t10_full, 4)


def test_a_class_index_is_its_rep_degree(t10_full):
    cls = enumerate_classes(t10_full, 4)[0]
    with pytest.raises(ValueError, match="index 5 differs from the rep's degree 4"):
        SubgroupClass(rep=cls.rep, index=5, labeled_orbit_size=1)
    with pytest.raises(ValueError, match="index 3 differs from the rep's degree 4"):
        dataclasses.replace(cls, index=3, image_type=None)


def test_trusted_classes_match_checked_ones():
    # enumerate_classes builds its reps, assignments and classes through
    # _unchecked; each equals, hashes and prints like the same class built
    # through the checked constructors, and dataclasses.replace rebuilds it
    cells = [(presentation_for(entry.symbol, group), n) for entry in catalog()
             for group in ("full", "kleinian") for n in (1, 2, 3, 4)]
    cells.append((presentation_for(catalog_by_id("t31").symbol, "kleinian"), 5))
    for pres, n in cells:
        for c in enumerate_classes(pres, n):
            assignment = Assignment(c.rep.assignment.names, c.rep.assignment.perms)
            checked = SubgroupClass(rep=TransitiveRep(pres, assignment), index=n,
                                    labeled_orbit_size=c.labeled_orbit_size)
            assert c == checked and hash(c) == hash(checked)
            assert repr(c) == repr(checked)
            assert dataclasses.replace(c) == checked


def test_enumerate_classes_tests_transitivity_once_per_class(monkeypatch):
    # enumerate_classes' own check tests each combo once; a name read later
    # is computed with _image_type told the rep is transitive, so the Jordan
    # path at index 5 does not test it again
    calls = []
    is_transitive_ = enumerator._is_transitive

    def counting(combo, n):
        calls.append(combo)
        return is_transitive_(combo, n)

    monkeypatch.setattr(enumerator, "_is_transitive", counting)
    classes = enumerate_classes(presentation_for(catalog_by_id("t31").symbol, "kleinian"), 5)
    assert len(classes) == 12
    assert {c.image_type for c in classes} == {"G20", "G120"}
    assert len(calls) == len(classes)


def test_image_types_are_named_when_read(monkeypatch):
    def refuse(combo, n, transitive):
        raise AssertionError("an image was named")

    t31 = presentation_for(catalog_by_id("t31").symbol, "kleinian")
    t10 = presentation_for(T10, "full")
    with monkeypatch.context() as patch:
        patch.setattr(enumerator, "_image_type", refuse)
        cells = [enumerate_classes(t31, 5), enumerate_classes(t10, 4)]
        assert [len(classes) for classes in cells] == [12, 2]
        assert [sum(c.labeled_orbit_size for c in classes) for classes in cells] == [1440, 30]
        assert all(verify_class(c.rep) for classes in cells for c in classes)
    # the names recorded when enumerate_classes still named every class
    assert [[c.image_type for c in classes] for classes in cells] == [
        ["G120", "G120", "G20", "G20", "G20", "G120", "G20", "G120", "G20", "G20",
         "G120", "G120"],
        ["S4", "V"]]
    named = cells[1][1]
    with monkeypatch.context() as patch:
        patch.setattr(enumerator, "_image_type", refuse)
        stored = SubgroupClass(rep=named.rep, index=4, labeled_orbit_size=24, image_type="X")
        assert stored.image_type == "X"
        moved = dataclasses.replace(named, labeled_orbit_size=7)
        assert (moved.image_type, moved.labeled_orbit_size) == ("V", 7)
        assert moved != named and moved == dataclasses.replace(moved)
        assert repr(named).endswith("labeled_orbit_size=6, image_type='V')")


def test_stress_cell_image_types():
    # Kleinian [6,6,6,6,6,6] at index 6: the histogram was recorded by
    # listing every image; Jordan's theorem now names most of the S_6 ones
    classes = enumerate_classes(kleinian_presentation(CoxeterSymbol(6, 6, 6, 6, 6, 6)), 6)
    assert len(classes) == 14274
    assert sum(c.labeled_orbit_size for c in classes) == 9737400
    assert Counter(c.image_type for c in classes) == {
        "G6": 119, "G12": 233, "G18": 364, "G24": 487, "G36": 336, "G48": 96,
        "G60": 25, "G120": 202, "G720": 12412}


# sha256 of repr((rep key, image type)) for every class, chained over all 80
# catalog groups (catalog order, full before kleinian) at indices 1-6,
# recorded when enumerate_classes named every class as it built it
IMAGE_TYPES_SHA256 = "920f587481ca28263f5495fb98156cc988255eda9d16c995f57224450c941e98"


def test_image_types_are_pinned():
    digest = hashlib.sha256()
    for entry in catalog():
        for group in ("full", "kleinian"):
            pres = presentation_for(entry.symbol, group)
            for n in range(1, 7):
                for c in enumerate_classes(pres, n):
                    digest.update(repr((c.rep.assignment.key(), c.image_type)).encode())
    assert digest.hexdigest() == IMAGE_TYPES_SHA256


canonical_seeds = st.tuples(st.sampled_from(all_perms(3)),
                            st.sampled_from(all_perms(3)),
                            st.sampled_from(all_perms(3)))


@given(canonical_seeds, st.sampled_from(all_perms(3)))
@settings(max_examples=60)
def test_canonical_form_is_orbit_constant(seed, sigma):
    a = Assignment(("x", "y", "z"), tuple(seed))
    canon = canonical_form(a)
    assert canonical_form(conjugate_assignment(a, sigma)) == canon
    assert canonical_form(canon) == canon
    assert canon.key() <= a.key()
