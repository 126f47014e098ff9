import itertools
import warnings
from collections import Counter
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetgroups import (Assignment, CoxeterSymbol, Perm, Presentation,
                       TransitiveRep, Word, all_perms, brute_force_classes,
                       canonical_form, catalog_by_id, classify_image,
                       conjugate_assignment, count_distinct_subgroups,
                       enumerate_candidates, enumerate_classes, evaluate_word,
                       is_transitive, kleinian_presentation,
                       presentation_for)


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


def test_oracle_matches_the_product_space_on_a_general_presentation():
    # The oracle cuts b's range by its own relator b^-3 and leaves c's whole;
    # grouping the reference by canonical form gives the classes, and by the
    # least conjugate under relabelings fixing 1 the subgroups.
    pres = general_presentation()
    for n in (3, 4):
        reps = [x for x in product_space(pres, n)
                if satisfies_relators(pres, x) and is_transitive(x)]
        fix1 = [s for s in all_perms(n) if s.apply(1) == 1]
        subgroups = {min(conjugate_assignment(x, s).key() for s in fix1) for x in reps}
        classes = {canonical_form(x).key() for x in reps}
        assert len(classes) < len(subgroups) < len(reps)
        assert (tuple(brute_force_classes(pres, n))
                == (len(reps), len(classes), len(subgroups)))


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
