import ast
import hashlib
import itertools
import random
from collections import Counter
from math import factorial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetgroups import (Assignment, CoxeterSymbol, Perm, Presentation, TransitiveRep, Word,
                       build_coset_table, canonical_form, catalog, catalog_by_id,
                       count_distinct_subgroups, default_coset_budget,
                       enumerate_candidates, enumerate_classes, presentation_for,
                       raw_schreier_words, schreier_generators, todd_coxeter,
                       verify_class)
from tetgroups import enumerator, oracle, stabilizer
from tetgroups.oracle import _recount_rows, _symmetric_tables, brute_force_classes
from tetgroups.presentations import MAX_ENTRY
from tetgroups.stabilizer import (TCResult, _closes_by_cycles, _coset_layout, _dedup,
                                  _enumerate, schreier_scans)
from tetgroups.words import reduce_letters

from conftest import parse_word, same_subgroup

S1 = CoxeterSymbol(3, 3, 3, 2, 2, 2)


def test_brute_force_golden_triples(t10_full, t10_kleinian):
    full = [tuple(brute_force_classes(t10_full, n)) for n in (1, 2, 3, 4)]
    assert full == [(1, 1, 1), (3, 3, 3), (6, 1, 3), (30, 2, 5)]
    klein = [tuple(brute_force_classes(t10_kleinian, n)) for n in (1, 2, 3, 4)]
    assert klein == [(1, 1, 1), (1, 1, 1), (6, 1, 3), (24, 1, 4)]


def test_brute_force_index_bounds(t10_full):
    with pytest.raises(ValueError):
        brute_force_classes(t10_full, 0)
    with pytest.raises(ValueError, match="1..6"):
        brute_force_classes(t10_full, 7)


@pytest.mark.parametrize("n, p_n, p_n_minus_1", [(1, 1, 1), (2, 2, 1), (3, 3, 2),
                                                 (4, 5, 3), (5, 7, 5), (6, 11, 7)])
def test_conjugacy_classes_are_cycle_types(n, p_n, p_n_minus_1):
    # S_n has one class per partition of n (its cycle types).  Grouping by
    # element order instead would merge (12) with (12)(34).  Each class is
    # flagged at its least member, and every member carries its class's size.
    t = _symmetric_tables(n)
    perms = list(itertools.permutations(range(n)))  # in index order
    types = []
    for p in perms:
        lengths = sorted(map(len, Perm(tuple(x + 1 for x in p)).cycles()))
        types.append((1,) * (n - sum(lengths)) + tuple(lengths))
    sizes = Counter(types)
    assert len(sizes) == np.count_nonzero(t.class_rep) == p_n
    assert t.class_size[t.class_rep].sum() == factorial(n)
    assert t.class_size.tolist() == [sizes[c] for c in types]
    assert np.flatnonzero(t.class_rep).tolist() == sorted(types.index(c) for c in sizes)
    # The first (n-1)! indices fix point 1, a copy of S_(n-1); a class with
    # a fixed point has its least member there, so p(n-1) flags fall there.
    assert np.count_nonzero(t.class_rep[:factorial(n - 1)]) == p_n_minus_1
    # The semiregular elements have all their cycles of one length; commute
    # has a column for each, in index order, True where an element commutes
    # with it.
    regular = [s for s, c in zip(perms, types) if len(set(c)) == 1]
    assert len(regular) == {1: 1, 2: 2, 3: 3, 4: 10, 5: 25, 6: 176}[n]

    def after(a, b):
        return tuple(a[x] for x in b)

    assert t.commute.tolist() == [[after(a, s) == after(s, a) for s in regular]
                                  for a in perms]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cached_tables_are_read_only(n):
    # every recount shares the cached arrays, so a write into one would
    # change every later count without an error
    # a^exp and b^-exp cut a's and b's choices, a's to class reps; c has no
    # relator of its own, so it ranges over all of S_n, and (bc)^exp is
    # tested where c is joined
    t = _symmetric_tables(n)
    a, b, c = (Word.gen(i) for i in range(3))
    arrays = [*t]
    for exp in range(1, 7):
        divides = [exp % o == 0 for o in t.order.tolist()]
        pres = Presentation(("a", "b", "c"), ((a, exp), (~b, exp), (b * c, exp)))
        (a_choices, a_joint), (b_choices, b_joint), (c_choices, c_joint) = _recount_rows(pres, n)
        assert a_choices.tolist() == [x for x, d in enumerate(divides) if d and t.class_rep[x]]
        assert b_choices.tolist() == [x for x, d in enumerate(divides) if d]
        assert c_choices.tolist() == list(range(factorial(n)))
        assert a_joint == b_joint == ()
        (letters, column), = c_joint
        assert letters == (b * c).letters
        assert column.tolist() == divides
        arrays += [a_choices, b_choices, c_choices, column]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = array[(0,) * array.ndim]


# sha256 of the repr of each brute_force_classes triple, chained over the
# catalog's entries, full then kleinian, and indices 1..6; recorded from the
# recount that summed Burnside's lemma over one element per class of S_n
RECOUNT_SHA256 = "58ead9fe2d270f54deae8a5d05e81f45d43198d3ccdb589f5c76261e3be51dd9"


def test_recount_is_pinned():
    digest = hashlib.sha256()
    for entry in catalog():
        for group in ("full", "kleinian"):
            pres = presentation_for(entry.symbol, group)
            for n in range(1, 7):
                digest.update(repr(tuple(brute_force_classes(pres, n))).encode())
    assert digest.hexdigest() == RECOUNT_SHA256


def test_recount_of_the_index_6_stress_cell():
    # [6,6,6,6,6,6] Kleinian at index 6 joins more rows than any catalog
    # cell; CI also coset-verifies its 14274 classes.
    pres = presentation_for(CoxeterSymbol(6, 6, 6, 6, 6, 6), "kleinian")
    assert tuple(brute_force_classes(pres, 6)) == (9737400, 14274, 81145)


def test_the_recount_checks_its_orbit_counts(t10_full, monkeypatch):
    # class sizes one too large weight every row wrongly, so Burnside's sum
    # is no multiple of the group order
    tables = oracle._symmetric_tables
    monkeypatch.setattr(oracle, "_symmetric_tables",
                        lambda n: tables(n)._replace(class_size=tables(n).class_size + 1))
    with pytest.raises(RuntimeError, match="60 fixed points at index 4 are not a multiple "
                                           "of the group order 24"):
        brute_force_classes(t10_full, 4)


# What oracle.py imports: the recount builds its own tables, so nothing of
# the enumerator's search (perm_tables, order_masks, _search, _fold) may be
# added here, and of the stabilizer it takes only the coset check, which it
# re-exports under its old names for the benchmark.  The recount, the
# search and the coset check each read the relators themselves
# (_recount_rows, _search_rows, _coset_layout), so no module may name
# another's.  The stabilizer holds the coset check and writes its scans
# (schreier_scans), so neither it nor the oracle may import the enumerator
# at all, and only the oracle imports numpy.
ORACLE_IMPORTS = {
    "__future__": {"annotations"},
    "itertools": {"itertools"},
    "functools": {"lru_cache"},
    "math": {"factorial", "gcd"},
    "typing": {"NamedTuple"},
    "numpy": {"numpy"},
    ".perms": {"MAX_DEGREE"},
    ".presentations": {"Presentation"},
    ".stabilizer": {"todd_coxeter", "verify_class"},
    ".words": {"Letter"},
}


def imports_of(module):
    """(module, name) for each name a module's source imports."""
    imported = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported |= {(alias.name, alias.name) for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            module_name = "." * node.level + (node.module or "")
            imported |= {(module_name, alias.name) for alias in node.names}
    return imported


def test_the_recount_imports_nothing_of_the_search():
    imported = imports_of(oracle)
    allowed = {(module, name) for module, names in ORACLE_IMPORTS.items() for name in names}
    assert imported <= allowed
    assert not {name for _, name in imported} & {"perm_tables", "order_masks", "_search", "_fold"}
    coset_check = imports_of(stabilizer)
    assert not {module for module, _ in imported | coset_check} & {
        ".enumerator", "tetgroups.enumerator"}
    assert not {module.split(".")[0] for module, _ in coset_check} & {"numpy"}
    assert "_search_rows" not in names_in(oracle)
    assert "_recount_rows" not in names_in(enumerator)
    # The coset check reads its own layout of a presentation too: neither
    # the search nor the recount may build on the reading of its checker.
    assert not {"_coset_layout", "CosetLayout"} & (names_in(enumerator) | names_in(oracle))


def names_in(module):
    """Every name, attribute and imported name in a module's source."""
    names = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.name for alias in node.names}
    return names


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


@pytest.mark.parametrize("entry_id, group", [("t10", "full"), ("t31", "full"),
                                             ("t31", "kleinian"), ("t32", "full")])
def test_brute_force_agrees_with_enumerator_at_index_6(entry_id, group):
    # t31 kleinian has the most classes at index 6 (46) and is the
    # oracle's slowest catalog cell there.
    pres = presentation_for(catalog_by_id(entry_id).symbol, group)
    counts = brute_force_classes(pres, 6)
    classes = enumerate_classes(pres, 6)
    assert counts.labeled == sum(cls.labeled_orbit_size for cls in classes)
    assert counts.classes == len(classes)
    assert counts.subgroups == count_distinct_subgroups(pres, 6)


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


# Orders of the four finite catalog groups, full and rotation subgroup.  At
# the budget below the most live cosets at once are 122 / 61, 384 / 194,
# 1155 / 580 and 14404 / 7201, so s4's full group has 596 cosets of headroom.
FINITE_ORDER_BUDGET = 15000


@pytest.mark.parametrize("entries,full_order,kleinian_order", [
    ((3, 3, 3, 2, 2, 2), 120, 60),
    ((4, 3, 3, 2, 2, 2), 384, 192),
    ((3, 4, 3, 2, 2, 2), 1152, 576),
    ((5, 3, 3, 2, 2, 2), 14400, 7200),
])
def test_coset_enumeration_finds_finite_group_orders(entries, full_order,
                                                     kleinian_order):
    for group, order in (("full", full_order), ("kleinian", kleinian_order)):
        pres = presentation_for(CoxeterSymbol(*entries), group)
        res = todd_coxeter(pres, [], FINITE_ORDER_BUDGET)
        assert res.status == "closed" and res.index == order
        assert TransitiveRep(pres, res.action).degree == order


def two_generator_presentation(*relator_powers):
    return Presentation(("x", "y"), relator_powers)


X, Y = Word.gen(0), Word.gen(1)


def test_coset_enumeration_defines_generators_no_relator_uses():
    # <x, y | x^2> is Z_2 * Z, where <x> and the trivial group have
    # infinite index: y's column must be filled even though no relator
    # scans it, so neither may close
    pres = two_generator_presentation((X, 2))
    for words in ([X], []):
        res = todd_coxeter(pres, words, 200)
        assert res.status == "overflow"


def test_coset_enumeration_closes_where_every_column_is_filled():
    # <x, y | x^2, y^3, (xy)^2> is S_3, where <x> has index 3
    s3 = two_generator_presentation((X, 2), (Y, 3), (X * Y, 2))
    res = todd_coxeter(s3, [X], 200)
    assert res.status == "closed" and res.index == 3
    assert TransitiveRep(s3, res.action).degree == 3
    # each scan that ends one letter short is a deduction: no coset is
    # defined only to be merged away again
    assert (res.defined, res.coincidences) == (3, 0)
    # <x, y | x^2, y^3> is Z_2 * Z_3: <x> alone has infinite index, and the
    # normal closure of x, the kernel of the map onto Z_3, has index 3
    z2_z3 = two_generator_presentation((X, 2), (Y, 3))
    assert todd_coxeter(z2_z3, [X], 200).status == "overflow"
    res = todd_coxeter(z2_z3, [X, Y * X * ~Y, ~Y * X * Y], 200)
    assert res.status == "closed" and res.index == 3
    assert not res.action.perms[0].cycles()


def test_coset_enumeration_of_a_dihedral_group_of_order_400():
    # <x, y | x^2, y^2, (xy)^200> is the dihedral group of order 400.  Its
    # trivial subgroup runs the relator loop, scanning (xy)^200 at every
    # coset: each coset is defined once, with none merged away.
    pres = two_generator_presentation((X, 2), (Y, 2), (X * Y, 200))
    res = todd_coxeter(pres, [], 400)
    assert (res.status, res.index, res.defined, res.peak_live, res.coincidences) == (
        "closed", 400, 400, 400, 0)
    assert TransitiveRep(pres, res.action).degree == 400


def test_coset_enumeration_counters(t10_kleinian):
    # Every coincidence kills one defined coset, so the survivors number
    # defined - coincidences; the budget bounds the live cosets.
    full = presentation_for(S1, "full")
    res = todd_coxeter(full, [], 400)
    assert res.defined - res.coincidences == res.index == 120
    assert res.index <= res.peak_live <= 400
    # on overflow the counters are set too: the budget was reached
    res = todd_coxeter(t10_kleinian, [], 50)
    assert res.status == "overflow"
    assert res.peak_live == 50
    assert res.defined - res.coincidences == 50


def test_coset_enumeration_overflow(t10_kleinian):
    # the whole group is infinite, so enumerating cosets of the trivial
    # subgroup must exhaust any budget
    res = todd_coxeter(t10_kleinian, [], 50)
    assert res.status == "overflow"
    assert res.index is None and res.action is None


def test_coset_enumeration_budget_below_one_overflows_at_once(t10_kleinian):
    res = todd_coxeter(t10_kleinian, [], 0)
    assert res.status == "overflow"
    assert (res.defined, res.peak_live, res.coincidences) == (0, 0, 0)


@pytest.mark.parametrize("names, relator_powers, subgroup, index, defined", [
    # <a, b, c | (ba^-1)^2, (b^-1c^-1)^4, c^-1b^-1, c^-1a^-1> is Z_2, and
    # <a> is all of it: the cascade of merges walks a union-find chain, so
    # find compresses its path
    (("a", "b", "c"),
     lambda a, b, c: ((b * ~a, 2), (~b * ~c, 4), (~c * ~b, 1), (~c * ~a, 1)),
     lambda a, b, c: [a], 1, 9),
    # <a, b | b^5, b> is Z, where <a^2> has index 2: a dead coset's
    # neighbour already has an inverse entry of its own, which is merged
    # with the surviving coset
    (("a", "b"), lambda a, b: ((b, 5), (b, 1)), lambda a, b: [a * a], 2, 10),
])
def test_coset_enumeration_cascading_coincidences(names, relator_powers, subgroup,
                                                   index, defined):
    # peak_live is read just before cosets merge, so it is pinned too
    peak_live = {1: 9, 2: 6}[index]
    gens = [Word.gen(i) for i in range(len(names))]
    pres = Presentation(names, relator_powers(*gens))
    res = todd_coxeter(pres, subgroup(*gens), 100)
    assert res.status == "closed" and res.index == index
    assert (res.defined, res.peak_live, res.coincidences) == (defined, peak_live, 8)
    assert res.defined - res.coincidences == res.index
    assert TransitiveRep(pres, res.action).degree == index
    # the budget edge: peak_live cosets close, one fewer overflows before
    # any merge
    assert todd_coxeter(pres, subgroup(*gens), peak_live).index == index
    res = todd_coxeter(pres, subgroup(*gens), peak_live - 1)
    assert res.status == "overflow"
    assert (res.defined, res.peak_live, res.coincidences) == (peak_live - 1, peak_live - 1, 0)


def test_tc_results_are_immutable_and_gain_an_action_by_replace(t10_kleinian):
    # A result prints its six fields by name, _enumerate's carry no action,
    # _replace adds one as todd_coxeter does, and a field cannot be set
    assert repr(TCResult("closed", 4, None, 4, 4, 0)) == (
        "TCResult(status='closed', index=4, action=None, defined=4, peak_live=4, "
        "coincidences=0)")
    res = todd_coxeter(t10_kleinian, [], 50)
    assert res == TCResult("overflow", None, None, res.defined, 50, res.coincidences)
    bare = _enumerate(_coset_layout(t10_kleinian), [], 0)[0]
    assert bare == TCResult("overflow", None, None, 0, 0, 0)
    action = enumerate_classes(t10_kleinian, 4)[0].rep.assignment
    added = bare._replace(action=action)
    assert added.action == action and added.status == bare.status
    assert added == TCResult("overflow", None, action, 0, 0, 0)
    for result in (res, bare, added):
        with pytest.raises(AttributeError):
            result.peak_live = 0


def test_coset_enumeration_rejects_foreign_generators(t10_kleinian):
    with pytest.raises(ValueError):
        todd_coxeter(t10_kleinian, [Word.gen(3)], 50)


def test_coset_enumeration_is_deterministic(t10_full):
    words = [parse_word(w, t10_full.generator_names) for w in ("P", "Q", "R", "SRS")]
    first = todd_coxeter(t10_full, words, 100)
    second = todd_coxeter(t10_full, words, 100)
    assert first.status == second.status == "closed"
    assert first.index == second.index == 2
    assert first.action.key() == second.action.key()


def test_coset_enumeration_recovers_each_class(t10_full, t10_kleinian):
    for pres in (t10_full, t10_kleinian):
        for n in (2, 3, 4):
            budget = default_coset_budget(n, pres)
            for cls in enumerate_classes(pres, n):
                gens = schreier_generators(build_coset_table(cls.rep))
                res = todd_coxeter(pres, gens.simplified, budget)
                assert res.status == "closed" and res.index == n
                assert res.defined - res.coincidences == n
                assert res.peak_live <= budget
                action = TransitiveRep(pres, res.action)
                assert same_subgroup(action, cls.rep)
                assert (canonical_form(action.assignment).key()
                        == cls.rep.assignment.key())


def test_index_two_words_close_at_two_not_four(t10_full):
    # feeding a smaller subgroup's generators must close at that subgroup's
    # index; this is the disagreement verify_class watches for
    words = [parse_word(w, t10_full.generator_names) for w in ("P", "Q", "R", "SRS")]
    res = todd_coxeter(t10_full, words, 200)
    assert res.index == 2
    four = enumerate_classes(t10_full, 4)[0]
    assert res.index != four.rep.degree


def test_verify_class_outcomes(t10_kleinian):
    cls = enumerate_classes(t10_kleinian, 4)[0]
    assert verify_class(cls.rep) is True
    assert verify_class(cls.rep, max_cosets=1) is None


def test_verify_class_fails_a_class_whose_enumeration_closes_elsewhere(monkeypatch):
    # With no subgroup scans the enumeration counts the cosets of the
    # trivial subgroup: all 120 elements of s1's full group, not 2.
    cls = enumerate_classes(presentation_for(S1, "full"), 2)[0]
    assert verify_class(cls.rep, max_cosets=400) is True
    monkeypatch.setattr(stabilizer, "schreier_scans", lambda table: [])
    assert verify_class(cls.rep, max_cosets=400) is False
    assert verify_class(cls.rep, max_cosets=119) is None


def test_a_complete_table_the_relators_do_not_close_runs_the_relator_loop(t10_full):
    # P -> (12) and Q = R = S -> identity violate (PQ)^3, so only the
    # unchecked constructor builds the rep.  Its scans leave a complete
    # table of 2 cosets with no coincidence, on which PQ swaps the two:
    # the early close refuses it, and the relator loop merges them.
    assignment = Assignment(t10_full.generator_names, (Perm((2, 1)),) + (Perm((1, 2)),) * 3)
    with pytest.raises(ValueError, match="PQ"):
        TransitiveRep(t10_full, assignment)
    rep = TransitiveRep._unchecked(t10_full, assignment)
    layout = _coset_layout(t10_full)
    powers = layout.powers
    assert _closes_by_cycles([[1, 0, 0, 0], [0, 1, 1, 1]], powers) is False
    assert _closes_by_cycles([[0, 0, 0, 0]], powers) is True
    assert _closes_by_cycles([[1, 0, 0, -1], [0, 1, 1, 1]], powers) is False
    assert _enumerate(layout, schreier_scans(rep), 80)[0] == TCResult("closed", 1, None, 2, 2, 1)
    assert verify_class(rep) is False


def test_exponents_at_max_entry_close_at_exactly_the_index():
    # Relators at exponent 10000: every class still closes at a budget of
    # exactly its index, with no coset defined past it.
    pres = presentation_for(CoxeterSymbol(*[MAX_ENTRY] * 6), "kleinian")
    classes = enumerate_classes(pres, 4)
    assert len(classes) == 119
    for cls in classes:
        assert_exactly_the_index_cosets(pres, cls, cls.rep)


def test_schreier_scans_are_the_words_in_columns(catalog_table):
    # verify_class hands the scans straight to the enumeration: they are
    # StabilizerGens.words in columns, rightmost letter first, and give the
    # same enumeration, counter for counter, as todd_coxeter on the words.  The
    # scans write the transversal in columns from the one-line images, so
    # their words must also be the raw words on build_coset_table's Word
    # transversal, reduced by the presentation and deduplicated.
    for cell in catalog_table.cells:
        pres = cell.presentation
        layout = _coset_layout(pres)
        of_letter = layout.of_letter
        budget = default_coset_budget(cell.n, pres)
        for cls in cell.classes:
            table = build_coset_table(cls.rep)
            words = schreier_generators(table).words
            scans = schreier_scans(cls.rep)
            where = (cell.id, cell.group, cell.n)
            assert words == _dedup((pres.reduce(w).letters for w in raw_schreier_words(table)),
                                   layout.inverse_letter), where
            assert scans == [tuple(of_letter[letter] for letter in reversed(w.letters))
                             for w in words], where
            core = _enumerate(layout, scans, budget)[0]
            res = todd_coxeter(pres, words, budget)
            assert core == res._replace(action=None), where


def assert_exactly_the_index_cosets(pres, cls, where):
    n = cls.index
    res = todd_coxeter(pres, schreier_generators(build_coset_table(cls.rep)).words, 10 * n)
    assert res.status == "closed", where
    assert res.defined == res.peak_live == res.index == n, where
    assert res.coincidences == 0, where
    assert verify_class(cls.rep, max_cosets=n) is True, where
    if n >= 2:
        assert verify_class(cls.rep, max_cosets=n - 1) is None, where


def test_schreier_words_define_exactly_the_index_cosets(catalog_table):
    # verify_class scans the raw Schreier words: on every catalog class at
    # indices 1-4 they define the n cosets and no more, so a budget of n
    # closes and a budget of n - 1 runs out.
    for cell in catalog_table.cells:
        for cls in cell.classes:
            assert_exactly_the_index_cosets(cell.presentation, cls,
                                            (cell.id, cell.group, cell.n))


def test_schreier_words_define_exactly_the_index_cosets_at_indices_5_and_6():
    # the same for the 80 catalog groups at indices 5 and 6
    classes = 0
    for entry in catalog():
        for group in ("full", "kleinian"):
            pres = presentation_for(entry.symbol, group)
            for n in (5, 6):
                for cls in enumerate_classes(pres, n):
                    assert_exactly_the_index_cosets(pres, cls, (entry.id, group, n))
                    classes += 1
    assert classes == 1001


# sha256 of the Schreier path of all 2012 catalog classes at indices 1-6
# (catalog order, full before kleinian, classes in enumerate_classes order):
# each class's raw and simplified Schreier words, rendered, then _enumerate's
# counters on its scans at the default budget, at n and at n - 1; recorded
# from the path that reduced every scan column by column
SCHREIER_SHA256 = "3a45a42e6a3b30cb87d8365ac73f28b82831c546282e320e81c6727899c12809"


def test_schreier_path_is_pinned():
    digest = hashlib.sha256()
    classes = 0
    for entry in catalog():
        for group in ("full", "kleinian"):
            pres = presentation_for(entry.symbol, group)
            for n in range(1, 7):
                budgets = (default_coset_budget(n, pres), n, n - 1)
                layout = _coset_layout(pres)
                for cls in enumerate_classes(pres, n):
                    gens = schreier_generators(build_coset_table(cls.rep))
                    scans = schreier_scans(cls.rep)
                    results = [_enumerate(layout, scans, b)[0] for b in budgets]
                    digest.update(repr((
                        [pres.render(w) for w in gens.words],
                        [pres.render(w) for w in gens.simplified],
                        [(r.status, r.index, r.defined, r.peak_live, r.coincidences)
                         for r in results])).encode())
                    classes += 1
    assert classes == 2012
    assert digest.hexdigest() == SCHREIER_SHA256


def random_enumeration(rng):
    """A (presentation, subgroup words, budget) triple.  The presentation
    is drawn as conftest.random_presentations draws it (1-3 generators,
    1-4 relators, each a nonempty freely reduced base of 1-4 signed
    letters with an exponent of 1-5), then 0-3 subgroup words of 0-6
    letters and a budget of 1-40 cosets."""
    k = rng.randint(1, 3)

    def letters(low, high):
        return reduce_letters((rng.randrange(k), rng.choice((1, -1)))
                              for _ in range(rng.randint(low, high)))

    relators = []
    count = rng.randint(1, 4)
    while len(relators) < count:
        base = letters(1, 4)
        if base:
            relators.append((Word(base), rng.randint(1, 5)))
    pres = Presentation(("a", "b", "c")[:k], tuple(relators))
    words = [Word(letters(0, 6)) for _ in range(rng.randint(0, 3))]
    return pres, words, rng.randint(1, 40)


# sha256 of todd_coxeter's results on the first 3000 random_enumeration
# triples of random.Random(18), recorded from the enumeration that scanned
# every relator at every live coset
RANDOM_TC_SHA256 = "488e1c8b8e7602eafdf65a824b53fcc212e84cb4c41c609f3c904d620dde8507"


def test_todd_coxeter_is_pinned_on_random_presentations():
    # The catalog's classes never coincide; of these triples 896 close
    # after a coincidence and 1474 overflow.
    rng = random.Random(18)
    digest = hashlib.sha256()
    outcomes = Counter()
    for _ in range(3000):
        pres, words, budget = random_enumeration(rng)
        res = todd_coxeter(pres, words, budget)
        key = res.action.key() if res.action is not None else None
        digest.update(repr((res.status, res.index, res.defined, res.peak_live,
                            res.coincidences, key)).encode())
        outcomes[res.status, res.coincidences > 0] += 1
    assert outcomes["closed", True] == 896
    assert outcomes["overflow", False] + outcomes["overflow", True] == 1474
    assert digest.hexdigest() == RANDOM_TC_SHA256


@given(st.tuples(*[st.integers(min_value=2, max_value=8)] * 6),
       st.sampled_from(["full", "kleinian"]), st.integers(min_value=1, max_value=5))
@settings(max_examples=100, deadline=None)
def test_every_class_closes_on_random_symbols(entries, group, n):
    # The simplified Schreier words close at the class's index, and the
    # coset action they give is the class's own (same point-1 stabilizer).
    pres = presentation_for(CoxeterSymbol(*entries), group)
    budget = default_coset_budget(n, pres)
    for cls in enumerate_classes(pres, n):
        assert verify_class(cls.rep) is True
        gens = schreier_generators(build_coset_table(cls.rep))
        res = todd_coxeter(pres, gens.simplified, budget)
        assert res.status == "closed" and res.index == n
        assert same_subgroup(TransitiveRep(pres, res.action), cls.rep)


def test_default_budget_scales_with_index(t10_full):
    assert default_coset_budget(4, t10_full) == 160
