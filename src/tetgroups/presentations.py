"""Coxeter tetrahedron symbols and the two group presentations per symbol.

A symbol [p,q,r,s,t,u] labels the tetrahedron whose reflection group is

    H = < P,Q,R,S | P^2, Q^2, R^2, S^2,
                    (PQ)^p, (QR)^q, (RS)^r, (PR)^s, (PS)^t, (QS)^u >

and whose orientation-preserving (Kleinian, in the hyperbolic case) group
is generated by a = PQ, b = QR, c = RS with

    K = < a,b,c | a^p, b^q, c^r, (ab)^s, (abc)^t, (bc)^u >

since ab = PR, abc = PS and bc = QS once the reflections square away.
presentation_for builds either, as its generator names and relators alone.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache, cached_property

from .words import Word, reduce_letters


# Symbol entries above this are refused before anything is built: coset
# enumeration's relator loop writes each relator out exponent times and
# scans it at every coset, so its memory and time grow linearly in an
# entry.  verify_class skips that loop on a rep that satisfies the
# relators (stabilizer._enumerate closes the table by the bases' cycles).
MAX_ENTRY = 10_000


@dataclass(frozen=True)
class CoxeterSymbol:
    """The six edge labels [p,q,r,s,t,u], each an integer 2 to MAX_ENTRY."""

    p: int
    q: int
    r: int
    s: int
    t: int
    u: int

    def __post_init__(self) -> None:
        for value in self.as_tuple():
            if not isinstance(value, int) or not 2 <= value <= MAX_ENTRY:
                raise ValueError(f"symbol entries must be integers 2 to {MAX_ENTRY}, got {value!r}")

    def as_tuple(self) -> tuple[int, int, int, int, int, int]:
        return (self.p, self.q, self.r, self.s, self.t, self.u)

    def as_text(self) -> str:
        return ",".join(str(v) for v in self.as_tuple())

    def __str__(self) -> str:
        return "[" + self.as_text() + "]"


def parse_symbol(text: str) -> CoxeterSymbol:
    """Parse '3,3,6,2,2,2' or '[3,3,6,2,2,2]' (whitespace tolerated)."""
    cleaned = text.strip()
    if cleaned.startswith("[") and cleaned.endswith("]"):
        cleaned = cleaned[1:-1]
    parts = [tok.strip() for tok in cleaned.split(",")]
    if len(parts) != 6:
        raise ValueError(f"symbol needs exactly 6 entries, got {len(parts)}: {text!r}")
    # ASCII digits only: int() would also take "1_0", "+3" and other scripts' digits
    if not all(re.fullmatch("[0-9]+", tok) for tok in parts):
        raise ValueError(f"symbol entries must be integers: {text!r}")
    return CoxeterSymbol(*map(int, parts))


@dataclass(frozen=True)
class Presentation:
    """Generator names plus relators, and no more: the exponents carry the
    symbol.  Each method reads the relators in a cache of its own, keyed by
    the presentation: the search in enumerator._search_rows, the recount in
    oracle._recount_rows and the coset check in stabilizer._coset_layout.
    presentation_for gives one object per symbol and group, so a lookup
    finds it by identity.

    Each relator is stored as (base word, exponent): (PQ)^3 is (PQ, 3).
    Satisfying it is exactly requiring the order of the base's image to
    divide the exponent.  A base must be a non-empty Word on the named
    generators, and an exponent is an int >= 1.  There is at least one
    generator name, each a str, and no name is repeated.  Names and
    relators given as any other sequence are stored as tuples, each relator
    a pair, so equal presentations are equal and hash alike however they
    were built; the hash is computed once, since every cache is keyed by it.
    """

    generator_names: tuple[str, ...]
    relator_powers: tuple[tuple[Word, int], ...]

    def __post_init__(self) -> None:
        if type(self.generator_names) is not tuple:
            object.__setattr__(self, "generator_names", tuple(self.generator_names))
        if (type(self.relator_powers) is not tuple
                or any(type(pair) is not tuple for pair in self.relator_powers)):
            object.__setattr__(self, "relator_powers", tuple(map(tuple, self.relator_powers)))
        names = self.generator_names
        if not names:
            raise ValueError("a presentation needs at least one generator name")
        if not all(isinstance(name, str) for name in names):
            raise ValueError(f"generator names must be str, got {names!r}")
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            raise ValueError(f"generator names must be distinct, repeated: "
                             f"{', '.join(map(repr, repeated))}")
        k = len(names)
        for base, exp in self.relator_powers:
            if (not isinstance(base, Word) or not base or any(g >= k for g, _ in base)
                    or type(exp) is not int or exp < 1):
                shown = base.letters if isinstance(base, Word) else base
                raise ValueError(f"relator ({shown!r}, {exp!r}) needs a non-empty Word "
                                 f"base on generators 0..{k - 1} and an int exponent >= 1")

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.generator_names, self.relator_powers))

    @cached_property
    def involutions(self) -> frozenset[int]:
        """Generators g with a relator g^2."""
        return frozenset(base.letters[0][0] for base, k in self.relator_powers
                         if len(base) == 1 and k == 2)

    @cached_property
    def pair_bases(self) -> tuple[Word, ...]:
        """Bases of relators of length >= 2 words, in relator order.

        For the full presentation these are PQ, QR, RS, PR, PS, QS.
        """
        return tuple(base for base, _ in self.relator_powers if len(base) >= 2)

    def reduce(self, word: Word) -> Word:
        """Involution-aware free reduction (SS cancels, S^-1 becomes S)."""
        return Word._unchecked(reduce_letters(word.letters, self.involutions))

    def render(self, word: Word) -> str:
        return word.render(self.generator_names)


@cache
def presentation_for(symbol: CoxeterSymbol, group: str) -> Presentation:
    """The reflection group ("full") on P, Q, R, S, or its rotation subgroup
    ("kleinian") on a = PQ, b = QR, c = RS; one object per symbol and group."""
    p, q, r, s, t, u = symbol.as_tuple()
    if group == "full":
        P, Q, R, S = (Word.gen(i) for i in range(4))
        return Presentation(("P", "Q", "R", "S"), (
            (P, 2), (Q, 2), (R, 2), (S, 2),
            (P * Q, p), (Q * R, q), (R * S, r),
            (P * R, s), (P * S, t), (Q * S, u)))
    if group == "kleinian":
        a, b, c = (Word.gen(i) for i in range(3))
        return Presentation(("a", "b", "c"), (
            (a, p), (b, q), (c, r),
            (a * b, s), (a * b * c, t), (b * c, u)))
    raise ValueError(f"group must be 'full' or 'kleinian', got {group!r}")


@dataclass(frozen=True)
class CatalogEntry:
    """One tetrahedron: stable id, symbol, geometry, ideal vertex count."""

    id: str
    symbol: CoxeterSymbol
    geometry: str  # spherical | euclidean | hyperbolic-compact | hyperbolic-noncompact
    ideal_vertices: int


def _entry(id_: str, entries: tuple[int, ...], geometry: str, ideal: int) -> CatalogEntry:
    return CatalogEntry(id_, CoxeterSymbol(*entries), geometry, ideal)


# The 40 tetrahedra whose symbols have all entries >= 2: five spherical,
# three Euclidean, and the 32 hyperbolic ones (t1-t9 compact, t10-t32 with
# ideal vertices).
CATALOG: tuple[CatalogEntry, ...] = (
    _entry("s1", (3, 3, 3, 2, 2, 2), "spherical", 0),
    _entry("s2", (4, 3, 3, 2, 2, 2), "spherical", 0),
    _entry("s3", (3, 4, 3, 2, 2, 2), "spherical", 0),
    _entry("s4", (5, 3, 3, 2, 2, 2), "spherical", 0),
    _entry("s5", (3, 3, 2, 3, 2, 2), "spherical", 0),
    _entry("e1", (4, 3, 4, 2, 2, 2), "euclidean", 0),
    _entry("e2", (3, 4, 2, 3, 2, 2), "euclidean", 0),
    _entry("e3", (3, 3, 3, 2, 2, 3), "euclidean", 0),
    _entry("t1", (3, 5, 2, 3, 2, 2), "hyperbolic-compact", 0),
    _entry("t2", (5, 3, 5, 2, 2, 2), "hyperbolic-compact", 0),
    _entry("t3", (3, 5, 3, 2, 2, 3), "hyperbolic-compact", 0),
    _entry("t4", (3, 5, 3, 2, 2, 2), "hyperbolic-compact", 0),
    _entry("t5", (3, 4, 3, 2, 2, 3), "hyperbolic-compact", 0),
    _entry("t6", (3, 5, 3, 2, 2, 4), "hyperbolic-compact", 0),
    _entry("t7", (4, 3, 5, 2, 2, 2), "hyperbolic-compact", 0),
    _entry("t8", (4, 3, 4, 2, 2, 3), "hyperbolic-compact", 0),
    _entry("t9", (5, 3, 5, 2, 2, 3), "hyperbolic-compact", 0),
    _entry("t10", (3, 3, 6, 2, 2, 2), "hyperbolic-noncompact", 1),
    _entry("t11", (4, 4, 3, 2, 2, 2), "hyperbolic-noncompact", 1),
    _entry("t12", (3, 3, 3, 3, 2, 2), "hyperbolic-noncompact", 1),
    _entry("t13", (4, 3, 6, 2, 2, 2), "hyperbolic-noncompact", 1),
    _entry("t14", (3, 4, 2, 4, 2, 2), "hyperbolic-noncompact", 1),
    _entry("t15", (3, 6, 3, 2, 2, 2), "hyperbolic-noncompact", 2),
    _entry("t16", (5, 3, 6, 2, 2, 2), "hyperbolic-noncompact", 1),
    _entry("t17", (4, 3, 3, 3, 2, 2), "hyperbolic-noncompact", 1),
    _entry("t18", (3, 6, 2, 3, 2, 2), "hyperbolic-noncompact", 2),
    _entry("t19", (4, 4, 4, 2, 2, 2), "hyperbolic-noncompact", 3),
    _entry("t20", (6, 3, 6, 2, 2, 2), "hyperbolic-noncompact", 2),
    _entry("t21", (3, 4, 4, 2, 2, 3), "hyperbolic-noncompact", 1),
    _entry("t22", (5, 3, 3, 3, 2, 2), "hyperbolic-noncompact", 1),
    _entry("t23", (3, 3, 6, 2, 2, 3), "hyperbolic-noncompact", 2),
    _entry("t24", (3, 3, 3, 3, 2, 3), "hyperbolic-noncompact", 2),
    _entry("t25", (4, 4, 2, 4, 2, 2), "hyperbolic-noncompact", 2),
    _entry("t26", (6, 3, 3, 3, 2, 2), "hyperbolic-noncompact", 3),
    _entry("t27", (4, 3, 6, 2, 2, 3), "hyperbolic-noncompact", 2),
    _entry("t28", (4, 4, 4, 2, 2, 3), "hyperbolic-noncompact", 2),
    _entry("t29", (5, 3, 6, 2, 2, 3), "hyperbolic-noncompact", 2),
    _entry("t30", (6, 3, 6, 2, 2, 3), "hyperbolic-noncompact", 4),
    _entry("t31", (4, 4, 4, 2, 2, 4), "hyperbolic-noncompact", 4),
    _entry("t32", (3, 3, 3, 3, 3, 3), "hyperbolic-noncompact", 4),
)


def catalog() -> tuple[CatalogEntry, ...]:
    return CATALOG


def catalog_by_id(id_: str) -> CatalogEntry:
    for entry in CATALOG:
        if entry.id == id_:
            return entry
    raise ValueError(f"no catalog entry with id {id_!r}")
