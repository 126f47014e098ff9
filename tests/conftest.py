import re
import time
from typing import NamedTuple

import pytest
from hypothesis import strategies as st

from tetgroups import (Assignment, CoxeterSymbol, Perm, Presentation,
                       SubgroupClass, TransitiveRep, Word, catalog,
                       enumerate_candidates, enumerate_classes,
                       presentation_for)
from tetgroups.stabilizer import _transversal

T10 = CoxeterSymbol(3, 3, 6, 2, 2, 2)


def parse_cycles(text: str, degree: int) -> Perm:
    """Cycle notation with one digit per point, as in (12)(34); (1) is the
    identity."""
    if not re.fullmatch(r"(\(\d+\))*", text):
        raise ValueError(f"not one-digit cycle notation: {text!r}")
    images = list(range(1, degree + 1))
    for cycle in re.findall(r"\d+", text):
        points = [int(c) for c in cycle]
        for a, b in zip(points, points[1:] + points[:1]):
            images[a - 1] = b
    return Perm(tuple(images))


def perm_order(perm: Perm) -> int:
    """The least k >= 1 with perm^k the identity, found by composing perm
    with itself; nothing is read off its cycles."""
    identity = tuple(range(1, perm.degree + 1))
    power, k = perm, 1
    while power.images != identity:
        power, k = power * perm, k + 1
    return k


def parse_word(text: str, names) -> Word:
    """A word on one-character generator names, each with an optional
    exponent ^k or ^-k, as in SRS or a^-1b^2."""
    if not re.fullmatch(r"(\w(\^-?\d+)?)*", text):
        raise ValueError(f"not a word on one-character names: {text!r}")
    letters = []
    for name, exp in re.findall(r"(\w)(?:\^(-?\d+))?", text):
        k = int(exp or 1)
        letters += [(names.index(name), 1 if k > 0 else -1)] * abs(k)
    return Word(tuple(letters))


class Cell(NamedTuple):
    id: str
    group: str
    n: int
    presentation: Presentation
    classes: list[SubgroupClass]
    candidates: list[Assignment]


class CatalogTable(NamedTuple):
    cells: list[Cell]
    build_s: float  # wall time spent computing the cells


@pytest.fixture
def t10_full():
    return presentation_for(T10, "full")


@pytest.fixture
def t10_kleinian():
    return presentation_for(T10, "kleinian")


@pytest.fixture(scope="session")
def catalog_table():
    """Classes and candidates of all 320 cells (40 symbols x 2 groups x
    index 1-4), computed once for the whole session."""
    t0 = time.perf_counter()
    cells = []
    for entry in catalog():
        for group in ("full", "kleinian"):
            pres = presentation_for(entry.symbol, group)
            for n in (1, 2, 3, 4):
                cells.append(Cell(entry.id, group, n, pres,
                                  enumerate_classes(pres, n),
                                  enumerate_candidates(pres, n)))
    return CatalogTable(cells, time.perf_counter() - t0)


@st.composite
def random_presentations(draw):
    """1-3 generators and 1-4 relators, each a base of 1-4 signed letters
    (freely reduced, not empty) with an exponent of 1-5."""
    k = draw(st.sampled_from([1, 2, 3]))
    letter = st.tuples(st.integers(min_value=0, max_value=k - 1), st.sampled_from([1, -1]))
    base = st.lists(letter, min_size=1, max_size=4).map(Word).filter(bool)
    relators = draw(st.lists(st.tuples(base, st.integers(min_value=1, max_value=5)),
                             min_size=1, max_size=4))
    return Presentation(("a", "b", "c")[:k], tuple(relators))


def same_subgroup(rep1: TransitiveRep, rep2: TransitiveRep) -> bool:
    """Do the two reps have the same point-1 stabilizer?

    They do exactly when a relabeling sigma fixing point 1 carries rep1's
    action to rep2's, and only one sigma can: rep1's transversal word t_i
    carries 1 to i, so sigma(i) = sigma(t_i(1)) = t_i'(sigma(1)) = t_i'(1),
    with t_i' the image of t_i under rep2: rep1's transversal lists t_i's
    generators in the order they act, and rep2's images of them carry 1
    to sigma(i).
    So the answer is whether that sigma commutes with every generator.  It
    is then a bijection for free: its image is closed under rep2's
    generators, and rep2 is transitive.
    Reps of different groups (other generators or relators) never match.
    """
    if rep1.degree != rep2.degree:
        return False
    pres1, pres2 = rep1.presentation, rep2.presentation
    if (pres1.generator_names != pres2.generator_names
            or pres1.relator_powers != pres2.relator_powers):
        return False
    perms1, perms2 = rep1.assignment.perms, rep2.assignment.perms
    gens = range(len(perms1))
    sigma = []  # sigma(i) at i - 1
    for t_i in _transversal(perms1, gens, gens)[0]:
        point = 1
        for g in t_i:
            point = perms2[g].apply(point)
        sigma.append(point)
    return all(sigma[g1.apply(i) - 1] == g2.apply(sigma_i)
               for g1, g2 in zip(perms1, perms2)
               for i, sigma_i in enumerate(sigma, start=1))
