import time
from typing import NamedTuple

import pytest
from hypothesis import strategies as st

from tetgroups import (Assignment, CoxeterSymbol, Presentation, SubgroupClass,
                       Word, catalog, enumerate_candidates, enumerate_classes,
                       full_presentation, kleinian_presentation,
                       presentation_for)

T10 = CoxeterSymbol(3, 3, 6, 2, 2, 2)


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
    return full_presentation(T10)


@pytest.fixture
def t10_kleinian():
    return kleinian_presentation(T10)


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
    base = st.lists(letter, min_size=1, max_size=4).map(Word).filter(
        lambda w: not w.is_empty())
    relators = draw(st.lists(st.tuples(base, st.integers(min_value=1, max_value=5)),
                             min_size=1, max_size=4))
    return Presentation("test", CoxeterSymbol(2, 2, 2, 2, 2, 2), ("a", "b", "c")[:k],
                        tuple(relators))
