from functools import lru_cache

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tetgroups import (Assignment, CoxeterSymbol, Perm, Presentation, TransitiveRep, Word,
                       all_perms, build_coset_table, catalog, catalog_by_id,
                       conjugate_assignment, enumerate_classes, evaluate_word,
                       full_presentation, kleinian_presentation,
                       presentation_for, raw_schreier_words,
                       schreier_generators, simplify_word, todd_coxeter, verify_class)
from tetgroups.presentations import MAX_ENTRY
from tetgroups.stabilizer import _braid_rewrite, _coset_layout, _dedup, schreier_scans

from conftest import (T10, parse_cycles, parse_word, random_presentations,
                      same_subgroup)
from published_rows import DEGREE2_ROWS

ALL_TWOS = full_presentation(CoxeterSymbol(2, 2, 2, 2, 2, 2))
T10_FULL = full_presentation(CoxeterSymbol(3, 3, 6, 2, 2, 2))
T10_ACTIONS = tuple(cls.rep.assignment for cls in enumerate_classes(T10_FULL, 4))
NAMES = ("P", "Q", "R", "S")


def rep_with_moved(pres, moved):
    perms = tuple(Perm((2, 1)) if name in moved else Perm.identity(2)
                  for name in NAMES)
    return TransitiveRep(pres, Assignment(NAMES, perms))


def words4():
    return st.lists(
        st.tuples(st.integers(min_value=0, max_value=3), st.sampled_from([1, -1])),
        max_size=16,
    ).map(Word)


def test_coset_columns(t10_full, t10_kleinian):
    # One self-inverse column per involution; the squares are not scanned,
    # and each relator keeps its base's columns, rightmost letter first,
    # and its exponent.
    full = _coset_layout(t10_full)
    assert full.inverse == (0, 1, 2, 3)
    assert full.of_letter[(3, 1)] == full.of_letter[(3, -1)] == 3
    assert full.powers[0] == ((1, 0), 3)
    assert len(full.powers) == 6
    klein = _coset_layout(t10_kleinian)
    assert klein.inverse == (1, 0, 3, 2, 5, 4)
    assert [klein.of_letter[(g, s)] for g in range(3) for s in (1, -1)] == list(range(6))
    assert klein.powers[0] == ((0,), 3)
    assert klein.powers[4] == ((4, 2, 0), 2)
    assert len(klein.powers) == 6
    # a = PQ with p = 2 is an involution: one column, and a^2 is dropped
    mixed = _coset_layout(kleinian_presentation(CoxeterSymbol(2, 3, 3, 2, 2, 2)))
    assert mixed.inverse == (0, 2, 1, 4, 3)
    # letter_of reads a column back, an involution's with sign +1
    assert mixed.letter_of == ((0, 1), (1, 1), (1, -1), (2, 1), (2, -1))
    assert all(mixed.of_letter[letter] == x for x, letter in enumerate(mixed.letter_of))
    assert len(mixed.powers) == 5
    inverted = Presentation("test", T10, ("x", "y"), ((Word.gen(0) * Word.gen(1, -1), 3),))
    assert _coset_layout(inverted).powers == (((3, 0), 3),)


def test_coset_columns_do_not_grow_with_the_entries():
    # The layout stores no relator written out, so the Kleinian layouts at
    # [6]*6 and at [MAX_ENTRY]*6 differ only in their exponents.
    small = _coset_layout(kleinian_presentation(CoxeterSymbol(*[6] * 6)))
    large = _coset_layout(kleinian_presentation(CoxeterSymbol(*[MAX_ENTRY] * 6)))
    for field in small._fields:
        if field != "powers":
            assert getattr(small, field) == getattr(large, field), field
    assert [base for base, _ in small.powers] == [base for base, _ in large.powers]
    assert [k for _, k in small.powers] != [k for _, k in large.powers]


def test_the_layout_is_read_once_per_presentation(t10_full):
    # Every entry point reads the layout through one cache: it misses once
    # per presentation, and an equal presentation built afresh looks up
    # the same layout.
    _coset_layout.cache_clear()
    fresh = full_presentation(T10)
    assert fresh == t10_full and fresh is not t10_full
    for pres in (t10_full, fresh):
        for cls in enumerate_classes(pres, 2) + enumerate_classes(pres, 4):
            gens = schreier_generators(build_coset_table(cls.rep))
            assert verify_class(cls.rep) is True
            assert todd_coxeter(pres, gens.words, 40).index == cls.index
            assert all(len(simplify_word(w, pres)) <= len(w) for w in gens.words)
    assert _coset_layout.cache_info().misses == _coset_layout.cache_info().currsize == 1
    assert _coset_layout(fresh) is _coset_layout(t10_full)


def test_transversal_of_single_moved_generator(t10_full):
    rep = rep_with_moved(t10_full, ("S",))
    table = build_coset_table(rep)
    assert [t10_full.render(w) for w in table.transversal] == ["", "S"]


def test_transversal_words_reach_their_points(t10_kleinian):
    for n in (2, 3, 4):
        for cls in enumerate_classes(t10_kleinian, n):
            table = build_coset_table(cls.rep)
            for point, word in enumerate(table.transversal, start=1):
                assert evaluate_word(word, cls.rep.assignment).apply(1) == point


def test_transversal_words_are_shortest_then_lex_least(t10_kleinian):
    # brute force over all positive words, shortest first and in generator
    # order within a length, must reach each point at the transversal word
    for cls in enumerate_classes(t10_kleinian, 4):
        table = build_coset_table(cls.rep)
        firsts = {}
        queue = [(Word.empty(), 1)]
        while len(firsts) < 4:
            next_queue = []
            for prefix, point in queue:
                if point not in firsts:
                    firsts[point] = prefix
                    next_queue.append((prefix, point))
            queue = [(Word.gen(g) * prefix, cls.rep.assignment.perms[g].apply(point))
                     for g in range(3) for prefix, point in next_queue]
        assert tuple(firsts[i] for i in range(1, 5)) == table.transversal


def test_raw_schreier_word_counts():
    # n*k words in all, and exactly n-1 cancel freely: the tree edges
    for moved in [("S",), ("R", "S"), ("P", "Q", "R", "S")]:
        table = build_coset_table(rep_with_moved(ALL_TWOS, moved))
        raw = raw_schreier_words(table)
        assert len(raw) == 2 * 4
        assert sum(w.is_empty() for w in raw) == 1


def test_schreier_scans_cancel_a_column_against_its_inverse():
    # All generators are involutions, one column each: coset 2's S^-1 S^-1
    # is a column followed by itself and cancels, though free reduction
    # keeps it in the raw words.
    table = build_coset_table(rep_with_moved(ALL_TWOS, ("S",)))
    assert raw_schreier_words(table)[-1] == Word(((3, -1), (3, -1)))
    assert schreier_scans(table.rep) == [(0,), (1,), (2,), (3, 0, 3), (3, 1, 3), (3, 2, 3)]
    # t10's rotations have columns c = 4 and c^-1 = 5: the tree edge
    # c^-1 c cancels, and c^-1 c^-1 stays as (5, 5).
    pres = kleinian_presentation(CoxeterSymbol(3, 3, 6, 2, 2, 2))
    moved_c = Assignment(("a", "b", "c"), (Perm((1, 2)), Perm((1, 2)), Perm((2, 1))))
    table = build_coset_table(TransitiveRep(pres, moved_c))
    assert schreier_scans(table.rep) == [(1,), (3,), (4, 1, 5), (4, 3, 5), (5, 5)]
    assert [pres.render(w) for w in schreier_generators(table).words] == [
        "a^-1", "b^-1", "c^-1a^-1c", "c^-1b^-1c", "c^-2"]


def test_schreier_words_match_published_degree2_rows():
    # the mechanical output reproduces the published stabilizer words for
    # fourteen of the fifteen rows; the last row is printed in a prettied
    # form and is pinned separately
    for row in DEGREE2_ROWS[:14]:
        table = build_coset_table(rep_with_moved(ALL_TWOS, row.moved))
        gens = schreier_generators(table)
        assert tuple(ALL_TWOS.render(w) for w in gens.words) == row.stabilizer_words


def test_last_degree2_row_is_the_same_subgroup_prettied():
    row = DEGREE2_ROWS[14]
    assert row.moved == ("P", "Q", "R", "S")
    rep = rep_with_moved(ALL_TWOS, row.moved)
    gens = schreier_generators(build_coset_table(rep))
    assert tuple(ALL_TWOS.render(w) for w in gens.words) == ("QP", "RP", "SP")
    # the printed words generate the same point-1 stabilizer: each one
    # evaluates into it, and together they reach both mechanical generators
    for text in row.stabilizer_words:
        word = parse_word(text, NAMES)
        assert evaluate_word(word, rep.assignment).apply(1) == 1


def reference_dedup(words, pres):
    """Drop empty words and repeats of a kept word or its inverse, with the
    inverse reduced by the presentation."""
    kept, seen = [], set()
    for w in words:
        if not w.is_empty() and w not in seen:
            kept.append(w)
            seen.update((w, pres.reduce(~w)))
    return tuple(kept)


@given(st.tuples(*[st.integers(min_value=2, max_value=4)] * 6),
       st.sampled_from(["full", "kleinian"]), st.integers(min_value=2, max_value=4))
@settings(max_examples=60, deadline=None)
def test_schreier_generators_match_reduction_after_free_reduction(entries, group, n):
    # One involution-aware reduction of the raw letters gives the same words
    # as free reduction followed by the presentation's reduce; entries of 2
    # make some Kleinian generators involutions and others not.
    pres = presentation_for(CoxeterSymbol(*entries), group)
    for cls in enumerate_classes(pres, n):
        table = build_coset_table(cls.rep)
        gens = schreier_generators(table)
        words = reference_dedup([pres.reduce(w) for w in raw_schreier_words(table)], pres)
        assert gens.words == words
        assert gens.simplified == reference_dedup(
            [simplify_word(w, pres) for w in words], pres)


@given(random_presentations(), st.sampled_from([1, 2, 3, 4]))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_schreier_scans_are_the_reduced_raw_words_on_random_presentations(pres, n):
    # The scans are written from the transversal with no reduction and
    # no check for repeats, so on inverted letters, repeated generators
    # and any mix of involutions they must still be the raw words reduced
    # with the involutions and deduplicated up to inverses, in columns.
    layout = _coset_layout(pres)
    of_letter = layout.of_letter
    for cls in enumerate_classes(pres, n):
        raw = raw_schreier_words(build_coset_table(cls.rep))
        words = _dedup((pres.reduce(w).letters for w in raw), layout.inverse_letter)
        assert schreier_scans(cls.rep) == [
            tuple(of_letter[letter] for letter in reversed(w.letters)) for w in words]


def with_commuting_involutions(pres: Presentation) -> Presentation:
    """pres with a^2, b^2 and (ab)^2 added, which gives it the braid rules
    aba -> b and bab -> a."""
    a, b = Word.gen(0), Word.gen(1)
    return Presentation(pres.kind, pres.symbol, pres.generator_names,
                        pres.relator_powers + ((a, 2), (b, 2), (a * b, 2)))


@given(random_presentations(), st.booleans(), st.sampled_from([1, 2, 3, 4]))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_simplified_words_are_the_deduplicated_rewrites_on_random_presentations(
        pres, braids, n):
    # schreier_generators keeps the words as their simplified forms when no
    # braid rule fires on any of them, and deduplicates the rewrites only
    # when one does.  Both must give _dedup of every word's rewrite, with
    # braid rules and without; the examples reach all three cases.
    if braids and len(pres.generator_names) > 1:
        pres = with_commuting_involutions(pres)
    layout = _coset_layout(pres)
    for cls in enumerate_classes(pres, n):
        gens = schreier_generators(build_coset_table(cls.rep))
        assert gens.simplified == _dedup(
            (_braid_rewrite(w.letters, layout.braid_rules, pres.involutions)
             for w in gens.words), layout.inverse_letter)


def test_simplify_word_golden_rewrites(t10_full):
    cases = {"SPS": "P", "SQS": "Q", "SRS": "SRS", "PQP": "PQP",
             "RPR": "P", "PSP": "S", "QSQ": "S"}
    for text, expected in cases.items():
        word = parse_word(text, t10_full.generator_names)
        got = t10_full.render(simplify_word(word, t10_full))
        assert got == expected, text
    # b and c are involutions with (bc)^2 here; written with negative signs
    # they must still rewrite, since reduce flattens involution signs first
    klein = kleinian_presentation(CoxeterSymbol(3, 2, 2, 2, 2, 2))
    cases = {"b^-1c^-1b^-1": "c", "a^-1b^-1c^-1b^-1a": "a^-1ca",
             "c^-1bc^-1": "b", "ab^-1a^-1": "aba^-1"}
    for text, expected in cases.items():
        word = parse_word(text, klein.generator_names)
        got = klein.render(simplify_word(word, klein))
        assert got == expected, text


def test_simplified_generators_for_t10_index2(t10_full):
    rep = rep_with_moved(t10_full, ("S",))
    gens = schreier_generators(build_coset_table(rep))
    assert tuple(t10_full.render(w) for w in gens.words) == (
        "P", "Q", "R", "SPS", "SQS", "SRS")
    assert tuple(t10_full.render(w) for w in gens.simplified) == (
        "P", "Q", "R", "SRS")


@given(words4())
@settings(max_examples=150)
def test_simplify_preserves_the_element_and_never_lengthens(w):
    simplified = simplify_word(w, T10_FULL)
    assert len(simplified) <= len(w)
    assert simplify_word(simplified, T10_FULL) == simplified
    # same element in every degree-4 permutation image of the group
    for a in T10_ACTIONS:
        assert evaluate_word(w, a) == evaluate_word(simplified, a)


def test_same_subgroup_distinguishes_the_index2_classes(t10_full):
    reps = [cls.rep for cls in enumerate_classes(t10_full, 2)]
    for i, rep1 in enumerate(reps):
        for j, rep2 in enumerate(reps):
            assert same_subgroup(rep1, rep2) == (i == j)


def test_same_subgroup_ignores_relabeling_of_other_points(t10_kleinian):
    cls = enumerate_classes(t10_kleinian, 4)[0]
    a = cls.rep.assignment
    sigma = parse_cycles("(234)", 4)
    relabeled = TransitiveRep(
        t10_kleinian,
        Assignment(a.names, tuple(sigma * p * sigma.inverse() for p in a.perms)))
    assert same_subgroup(cls.rep, relabeled)
    assert relabeled.assignment.key() != a.key()


def test_same_subgroup_degree_and_names_must_match(t10_full, t10_kleinian):
    rep2 = rep_with_moved(t10_full, ("S",))
    rep4 = enumerate_classes(t10_full, 4)[0].rep
    assert not same_subgroup(rep2, rep4)
    krep = enumerate_classes(t10_kleinian, 2)[0].rep
    assert not same_subgroup(rep2, krep)
    # the same action on the same names, but t10's group and t11's differ
    every = ("P", "Q", "R", "S")
    t11_full = full_presentation(catalog_by_id("t11").symbol)
    assert same_subgroup(rep_with_moved(t10_full, every), rep_with_moved(t10_full, every))
    assert not same_subgroup(rep_with_moved(t10_full, every), rep_with_moved(t11_full, every))


@lru_cache(maxsize=None)
def cell_reps(entry_id, group, n):
    pres = presentation_for(catalog_by_id(entry_id).symbol, group)
    return tuple(cls.rep for cls in enumerate_classes(pres, n))


def swept_same_subgroup(rep1, rep2):
    """same_subgroup by trying every relabeling that fixes point 1."""
    target = rep2.assignment.key()
    return any(conjugate_assignment(rep1.assignment, tau).key() == target
               for tau in all_perms(rep1.degree) if tau.apply(1) == 1)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_same_subgroup_agrees_with_the_sweep(data):
    # two class reps of one cell, the second relabeled by any sigma; a sigma
    # that moves point 1 gives a conjugate subgroup, the same one only when
    # it is normal
    entry = data.draw(st.sampled_from(catalog()))
    group = data.draw(st.sampled_from(("full", "kleinian")))
    n = data.draw(st.integers(min_value=2, max_value=5))
    reps = cell_reps(entry.id, group, n)
    assume(reps)
    rep1 = data.draw(st.sampled_from(reps))
    rep2 = data.draw(st.sampled_from(reps))
    sigma = Perm(tuple(data.draw(st.permutations(range(1, n + 1)))))
    moved = TransitiveRep(rep2.presentation,
                          conjugate_assignment(rep2.assignment, sigma))
    assert same_subgroup(rep1, moved) == swept_same_subgroup(rep1, moved)
