import pytest

from tetgroups import (CATALOG, CoxeterSymbol, Presentation, Word, catalog,
                       catalog_by_id, full_presentation, kleinian_presentation,
                       parse_symbol, presentation_for)

T10 = CoxeterSymbol(3, 3, 6, 2, 2, 2)


def test_symbol_validation():
    with pytest.raises(ValueError):
        CoxeterSymbol(1, 3, 3, 2, 2, 2)
    with pytest.raises(ValueError):
        CoxeterSymbol(3, 3, 3, 2, 2, 2.0)
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
    assert t10_full.kind == "full"
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
    assert t10_kleinian.kind == "kleinian"
    assert t10_kleinian.generator_names == ("a", "b", "c")
    powers = [(t10_kleinian.render(base), k)
              for base, k in t10_kleinian.relator_powers]
    assert powers == [("a", 3), ("b", 3), ("c", 6),
                      ("ab", 2), ("abc", 2), ("bc", 2)]
    assert t10_kleinian.involutions == frozenset()


def test_coset_columns(t10_full, t10_kleinian):
    # One self-inverse column per involution; the squares are not scanned,
    # and each relator lists its columns rightmost letter first.
    full = t10_full.coset_columns
    assert full.inverse == (0, 1, 2, 3)
    assert full.of_letter[(3, 1)] == full.of_letter[(3, -1)] == 3
    assert full.relators[0] == (1, 0) * 3
    assert len(full.relators) == 6
    klein = t10_kleinian.coset_columns
    assert klein.inverse == (1, 0, 3, 2, 5, 4)
    assert [klein.of_letter[(g, s)] for g in range(3) for s in (1, -1)] == list(range(6))
    assert klein.relators[0] == (0, 0, 0)
    assert klein.relators[4] == (4, 2, 0) * 2
    # a = PQ with p = 2 is an involution: one column, and a^2 is dropped
    mixed = kleinian_presentation(CoxeterSymbol(2, 3, 3, 2, 2, 2)).coset_columns
    assert mixed.inverse == (0, 2, 1, 4, 3)
    assert len(mixed.relators) == 5
    inverted = Presentation("test", T10, ("x", "y"), ((Word.gen(0) * Word.gen(1, -1), 3),))
    assert inverted.coset_columns.relators == ((3, 0) * 3,)


def test_malformed_relators_rejected():
    # a base on an unnamed generator would make both counters raise
    # IndexError and todd_coxeter skip it as an involution square; an empty
    # base would make both counters call max() on nothing; with a^-3 the
    # counters would require a's order to divide 3 while todd_coxeter
    # scanned nothing
    a = Word.gen(0)
    for relator in ((Word.gen(2), 2), (Word.empty(), 2), (a, -3), (a, 0), (a, 3.0)):
        with pytest.raises(ValueError, match=r"relator \(.*\) needs"):
            Presentation("t", CoxeterSymbol(2, 2, 2, 2, 2, 2), ("a", "b"), (relator,))


def test_presentation_without_generators_rejected():
    # with no generator both counters raised IndexError at index 1
    with pytest.raises(ValueError, match="at least one generator name"):
        Presentation("x", parse_symbol("3,3,3,3,3,3"), (), ())


def test_repeated_generator_names_rejected():
    # with ("a", "a") Assignment.image_of("a") returned the first image
    a, b = Word.gen(0), Word.gen(1)
    with pytest.raises(ValueError, match="distinct, repeated: 'a'"):
        Presentation("x", T10, ("a", "a"), ((a, 2), (b, 3)))


def test_kleinian_involutions_from_order_two_entries():
    # with r = 2 the generator c itself squares to the identity
    pres = kleinian_presentation(CoxeterSymbol(3, 5, 2, 3, 2, 2))
    assert pres.involutions == frozenset({2})


def test_reduce_uses_involutions(t10_full, t10_kleinian):
    w = Word.gen(2, -1) * Word.gen(1)
    assert t10_full.render(t10_full.reduce(w)) == "RQ"
    assert t10_kleinian.render(t10_kleinian.reduce(w)) == "c^-1b"
    # P S S Q^-1: the reflection S cancels against itself, Q^-1 becomes Q
    w = Word([(0, 1), (3, 1), (3, 1), (1, -1)])
    assert t10_full.render(t10_full.reduce(w)) == "PQ"


def test_parse_render_round_trip(t10_full):
    for text in ["SRS", "QP", "PQPQPQ", ""]:
        assert t10_full.render(t10_full.parse(text)) == text


def test_relator_powers_give_the_forced_orders(t10_full):
    orders = {t10_full.render(base): k
              for base, k in t10_full.relator_powers}
    assert orders["RS"] == 6 and orders["P"] == 2


def test_presentation_for_dispatch():
    assert presentation_for(T10, "full").kind == "full"
    assert presentation_for(T10, "kleinian").kind == "kleinian"
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
