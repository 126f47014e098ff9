import pytest
from hypothesis import given
from hypothesis import strategies as st

from tetgroups import Word
from tetgroups.words import reduce_letters

from conftest import parse_word

NAMES = ("P", "Q", "R", "S")

letters = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3), st.sampled_from([1, -1])),
    max_size=30,
)
words = letters.map(Word)


def test_empty_word_basics():
    w = Word.empty()
    assert len(w) == 0
    assert w.is_empty()
    assert w.render(NAMES) == ""
    assert list(w) == []


def test_gen_builds_single_letter():
    assert Word.gen(2).letters == ((2, 1),)
    assert Word.gen(0, -1).letters == ((0, -1),)


def test_constructor_cancels_adjacent_inverses():
    assert Word([(0, 1), (0, -1)]).is_empty()
    # cancellation cascades through the middle
    w = Word([(1, 1), (0, 1), (0, -1), (1, -1)])
    assert w.is_empty()


def test_bad_sign_rejected():
    with pytest.raises(ValueError):
        Word([(0, 2)])
    with pytest.raises(ValueError):
        Word.gen(0, 2)
    # a negative generator index would otherwise index the names from the end
    with pytest.raises(ValueError):
        Word.gen(-1)
    with pytest.raises(ValueError):
        Word([(0, 1), (-1, 1)])
    # entries that only compare equal to ints: a float sign would render as
    # P^2.0, and a float generator index would make render raise TypeError
    for letters in (((0, 1.0), (0, 1.0)), ((0.0, 1),), ((0, True),)):
        with pytest.raises(ValueError, match="int"):
            Word(letters)


def test_constructor_checks_and_reduces():
    assert Word(((0, 1), (0, -1))) == Word.empty()
    assert Word([(1, 1), (2, -1), (2, 1)]).letters == ((1, 1),)
    with pytest.raises(ValueError):
        Word(((-1, 1),))
    with pytest.raises(ValueError):
        Word(((0, 0),))


def test_concatenation_reduces_at_the_seam():
    left = Word([(0, 1), (1, 1)])
    right = Word([(1, -1), (2, 1)])
    assert (left * right).letters == ((0, 1), (2, 1))


def test_power_and_inverse():
    w = Word([(0, 1), (1, 1)])
    assert (~w).letters == ((1, -1), (0, -1))


def test_reduce_involutions_flattens_and_cancels():
    inv = frozenset({0, 3})
    assert reduce_letters([(3, -1)], inv) == ((3, 1),)
    assert reduce_letters([(3, 1), (3, 1)], inv) == ()
    # P S S Q with S an involution collapses to P Q
    assert reduce_letters([(0, 1), (3, 1), (3, 1), (1, 1)], inv) == ((0, 1), (1, 1))
    # non-involutions keep their signs and never cancel against equals
    assert reduce_letters([(1, 1), (1, 1)], inv) == ((1, 1), (1, 1))


def test_render_folds_exponents():
    assert Word([(3, 1), (2, 1), (3, 1)]).render(NAMES) == "SRS"
    w = Word([(0, -1), (1, 1), (1, 1)])
    assert w.render(("a", "b", "c")) == "a^-1b^2"


@given(letters)
def test_constructor_output_is_freely_reduced(raw):
    out = Word(raw).letters
    assert all(not (a[0] == b[0] and a[1] == -b[1]) for a, b in zip(out, out[1:]))
    assert reduce_letters(out) == out


@given(words, words, words)
def test_concatenation_is_associative(u, v, w):
    assert (u * v) * w == u * (v * w)


@given(words)
def test_word_times_inverse_is_empty(w):
    assert (w * ~w).is_empty()
    assert (~w * w).is_empty()


@given(words)
def test_render_parse_round_trip(w):
    assert parse_word(w.render(NAMES), NAMES) == w


@given(words)
def test_involution_reduction_is_idempotent(w):
    inv = frozenset({0, 2})
    once = reduce_letters(w.letters, inv)
    assert reduce_letters(once, inv) == once
