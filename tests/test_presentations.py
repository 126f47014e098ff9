import pytest

from tetgroups import (CATALOG, CoxeterSymbol, Presentation, Word, catalog,
                       catalog_by_id, enumerate_classes, parse_symbol,
                       presentation_for,
                       verify_class)
from tetgroups.enumerator import _search_rows
from tetgroups.presentations import MAX_ENTRY
from tetgroups.stabilizer import _coset_layout

from conftest import parse_word

T10 = CoxeterSymbol(3, 3, 6, 2, 2, 2)


def test_symbol_validation():
    with pytest.raises(ValueError):
        CoxeterSymbol(1, 3, 3, 2, 2, 2)
    with pytest.raises(ValueError):
        CoxeterSymbol(3, 3, 3, 2, 2, 2.0)
    with pytest.raises(ValueError, match=f"integers 2 to {MAX_ENTRY}, got {MAX_ENTRY + 1}"):
        CoxeterSymbol(3, 3, 3, 2, MAX_ENTRY + 1, 2)
    for text in ["6,6,6,6,6,6", f"2,2,2,2,{MAX_ENTRY},2"] + [
            e.symbol.as_text() for e in catalog()]:
        assert parse_symbol(text).as_text() == text
    s = CoxeterSymbol(3, 3, 6, 2, 2, 2)
    assert s.as_tuple() == (3, 3, 6, 2, 2, 2)
    assert s.as_text() == "3,3,6,2,2,2"
    assert str(s) == "[3,3,6,2,2,2]"


def test_parse_symbol_forms():
    assert parse_symbol("3,3,6,2,2,2") == T10
    assert parse_symbol("[3,3,6,2,2,2]") == T10
    assert parse_symbol(" 3 , 3 , 6 , 2 , 2 , 2 ") == T10
    with pytest.raises(ValueError):
        parse_symbol("3,3,6,2,2")
    with pytest.raises(ValueError):
        parse_symbol("3,3,6,2,2,x")


def test_full_presentation_shape(t10_full):
    assert t10_full.generator_names == ("P", "Q", "R", "S")
    assert len(t10_full.relator_powers) == 10
    assert not hasattr(t10_full, "relators")  # one stored form, the pairs
    assert t10_full.involutions == frozenset({0, 1, 2, 3})
    rendered = [t10_full.render(Word(base.letters * k))
                for base, k in t10_full.relator_powers]
    assert rendered == ["P^2", "Q^2", "R^2", "S^2", "PQPQPQ", "QRQRQR",
                        "RSRSRSRSRSRS", "PRPR", "PSPS", "QSQS"]


def test_full_relator_powers_factor_back(t10_full):
    powers = [(t10_full.render(base), k) for base, k in t10_full.relator_powers]
    assert powers == [("P", 2), ("Q", 2), ("R", 2), ("S", 2),
                      ("PQ", 3), ("QR", 3), ("RS", 6),
                      ("PR", 2), ("PS", 2), ("QS", 2)]
    assert [t10_full.render(b) for b in t10_full.pair_bases] == [
        "PQ", "QR", "RS", "PR", "PS", "QS"]


def test_kleinian_presentation_shape(t10_kleinian):
    assert t10_kleinian.generator_names == ("a", "b", "c")
    powers = [(t10_kleinian.render(base), k)
              for base, k in t10_kleinian.relator_powers]
    assert powers == [("a", 3), ("b", 3), ("c", 6),
                      ("ab", 2), ("abc", 2), ("bc", 2)]
    assert t10_kleinian.involutions == frozenset()


def test_malformed_relators_rejected():
    # a base on an unnamed generator would make both counters raise
    # IndexError and todd_coxeter skip it as an involution square; an empty
    # base would make both counters call max() on nothing; with a^-3 the
    # counters would require a's order to divide 3 while todd_coxeter
    # scanned nothing
    a = Word.gen(0)
    for relator in ((Word.gen(2), 2), (Word(), 2), (a, -3), (a, 0), (a, 3.0)):
        with pytest.raises(ValueError, match=r"relator \(.*\) needs"):
            Presentation(("a", "b"), (relator,))


def test_list_built_presentations_equal_tuple_built_ones():
    # names and relators given as lists are stored as tuples, each relator
    # a pair, so the presentation equals its tuple-built twin, hashes like
    # it, and finds the same classes in the search's cache keyed by it
    pres = presentation_for(T10, "full")
    listed = Presentation(list(pres.generator_names), [list(pair) for pair in pres.relator_powers])
    assert listed == pres and hash(listed) == hash(pres)
    assert type(listed.generator_names) is type(listed.relator_powers) is tuple
    assert all(type(pair) is tuple for pair in listed.relator_powers)
    assert enumerate_classes(listed, 4) == enumerate_classes(pres, 4)


def test_presentation_for_gives_one_object_per_symbol_and_group(monkeypatch):
    # A second presentation_for call returns the first one's object, so the
    # search's and the coset check's caches find it by identity and never
    # run the dataclass __eq__, which costs far more than the identity test.
    def no_eq(self, other):
        raise AssertionError("Presentation.__eq__ ran on a cache lookup")

    for per_presentation in (_search_rows, _coset_layout):
        per_presentation.cache_clear()
    monkeypatch.setattr(Presentation, "__eq__", no_eq)
    symbol = catalog_by_id("t19").symbol
    for group in ("full", "kleinian"):
        for _ in range(2):
            classes = enumerate_classes(presentation_for(symbol, group), 4)
            assert classes and all(verify_class(cls.rep) for cls in classes)
        assert presentation_for(symbol, group) is presentation_for(symbol, group)


def test_a_presentation_is_its_names_and_relators():
    # the exponents carry the symbol and the names the group, so the 80
    # catalog presentations are 80 distinct ones, and a copy built from a
    # presentation's two fields is equal to it
    built = [presentation_for(entry.symbol, group)
             for entry in catalog() for group in ("full", "kleinian")]
    assert len(set(built)) == 80
    for pres in built:
        copy = Presentation(pres.generator_names, pres.relator_powers)
        assert copy == pres and hash(copy) == hash(pres) and copy is not pres


def test_presentation_without_generators_rejected():
    # with no generator both counters raised IndexError at index 1
    with pytest.raises(ValueError, match="at least one generator name"):
        Presentation((), ())


@pytest.mark.parametrize("names, relator, message", [
    # a base of bare letters made the check raise AttributeError
    (("a",), (((0, 1),), 2), r"relator \(\(\(0, 1\),\), 2\) needs a non-empty Word"),
    (("a",), ("a", 2), r"relator \('a', 2\) needs a non-empty Word"),
    # names that are not str were accepted, and render then raised TypeError
    ((1, 2), (Word.gen(0), 2), r"generator names must be str, got \(1, 2\)"),
    (("a", None), (Word.gen(0), 2), "generator names must be str"),
], ids=["letters-base", "str-base", "int-names", "none-name"])
def test_presentation_parts_of_the_wrong_type_rejected(names, relator, message):
    with pytest.raises(ValueError, match=message):
        Presentation(names, (relator,))


def test_repeated_generator_names_rejected():
    # with ("a", "a") Assignment.as_dict() kept only the second image
    a, b = Word.gen(0), Word.gen(1)
    with pytest.raises(ValueError, match="distinct, repeated: 'a'"):
        Presentation(("a", "a"), ((a, 2), (b, 3)))


def test_kleinian_involutions_from_order_two_entries():
    # with r = 2 the generator c itself squares to the identity
    pres = presentation_for(CoxeterSymbol(3, 5, 2, 3, 2, 2), "kleinian")
    assert pres.involutions == frozenset({2})


def test_reduce_uses_involutions(t10_full, t10_kleinian):
    w = ~Word.gen(2) * Word.gen(1)
    assert t10_full.render(t10_full.reduce(w)) == "RQ"
    assert t10_kleinian.render(t10_kleinian.reduce(w)) == "c^-1b"
    # P S S Q^-1: the reflection S cancels against itself, Q^-1 becomes Q
    w = Word([(0, 1), (3, 1), (3, 1), (1, -1)])
    assert t10_full.render(t10_full.reduce(w)) == "PQ"


def test_parse_render_round_trip(t10_full):
    for text in ["SRS", "QP", "PQPQPQ", ""]:
        assert t10_full.render(parse_word(text, t10_full.generator_names)) == text


def test_relator_powers_give_the_forced_orders(t10_full):
    orders = {t10_full.render(base): k
              for base, k in t10_full.relator_powers}
    assert orders["RS"] == 6 and orders["P"] == 2


def test_presentation_for_dispatch():
    assert presentation_for(T10, "full").generator_names == ("P", "Q", "R", "S")
    assert presentation_for(T10, "kleinian").generator_names == ("a", "b", "c")
    with pytest.raises(ValueError):
        presentation_for(T10, "rotation")


def test_catalog_shape():
    entries = catalog()
    assert entries is CATALOG
    assert len(entries) == 40
    ids = [e.id for e in entries]
    assert len(set(ids)) == 40
    by_geometry = {}
    for e in entries:
        by_geometry.setdefault(e.geometry, []).append(e)
    assert len(by_geometry["spherical"]) == 5
    assert len(by_geometry["euclidean"]) == 3
    assert len(by_geometry["hyperbolic-compact"]) == 9
    assert len(by_geometry["hyperbolic-noncompact"]) == 23
    for e in entries:
        compact = e.geometry != "hyperbolic-noncompact"
        assert (e.ideal_vertices == 0) == compact
        assert 0 <= e.ideal_vertices <= 4


def test_catalog_by_id():
    assert catalog_by_id("t10").symbol == T10
    with pytest.raises(ValueError):
        catalog_by_id("t99")
