"""Permutations of {1..n} and assignments of permutations to generators.

Convention: permutations act on the left, (f*g)(x) = f(g(x)), so in a
product the rightmost factor acts first.  A word evaluates to the product
of its generator images in word order; for the word PR the image of R is
applied first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import lcm
from typing import NamedTuple, Sequence

from .words import Word

# Enumeration beyond this degree is refused before anything is allocated.
# The composition and conjugation tables hold n!^2 entries each: 518k at 6
# (built in about 0.1 s), 25M at 7, which no longer fits a
# laptop-scale job.  The search's bitsets are n! ints of n! bits per table,
# under 100 kB each at 6.  The numpy recount (oracle.brute_force_classes)
# has the same limit, so raising it needs a second method at the new index
# first.
MAX_DEGREE = 6


@dataclass(frozen=True)
class Perm:
    """Permutation of {1..n}, stored in one-line notation.

    images[i-1] is the image of i, an int.  Instances are immutable and
    hashable; the one-line tuple doubles as the lexicographic sort key.
    """

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if (sorted(self.images) != list(range(1, n + 1))
                or any(type(x) is not int for x in self.images)):
            raise ValueError(f"not a permutation of 1..{n} in ints: {self.images}")

    @staticmethod
    def identity(n: int) -> "Perm":
        return Perm(tuple(range(1, n + 1)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def apply(self, point: int) -> int:
        return self.images[point - 1]

    def __mul__(self, other: "Perm") -> "Perm":
        if other.degree != self.degree:
            raise ValueError("degree mismatch")
        return Perm(tuple(self.images[j - 1] for j in other.images))

    def inverse(self) -> "Perm":
        inv = [0] * self.degree
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return Perm(tuple(inv))

    def is_identity(self) -> bool:
        return all(j == i + 1 for i, j in enumerate(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles of length >= 2, each starting at its least point."""
        seen = [False] * self.degree
        out = []
        for start in range(1, self.degree + 1):
            if seen[start - 1]:
                continue
            cyc = [start]
            seen[start - 1] = True
            j = self.apply(start)
            while j != start:
                cyc.append(j)
                seen[j - 1] = True
                j = self.apply(j)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def order(self) -> int:
        return lcm(1, *(len(c) for c in self.cycles()))

    def cycle_string(self) -> str:
        """Cycle notation; identity prints as (1).

        Points are juxtaposed, (12)(34), while every point is a single
        digit; with points past 9 they are space separated.
        """
        cycs = self.cycles()
        if not cycs:
            return "(1)"
        sep = " " if self.degree > 9 else ""
        return "".join("(" + sep.join(str(p) for p in c) + ")" for c in cycs)

    def __str__(self) -> str:
        return self.cycle_string()


def parse_cycles(text: str, degree: int) -> Perm:
    """Parse cycle notation, e.g. (12)(34), (1 10 2), (132).  (1) or () is
    the identity.  Without separators each character is one point."""
    text = text.strip()
    mapping = dict()
    depth = 0
    chunks: list[str] = []
    cur = ""
    for ch in text:
        if ch == "(":
            if depth:
                raise ValueError(f"nested parenthesis in {text!r}")
            depth = 1
            cur = ""
        elif ch == ")":
            if not depth:
                raise ValueError(f"unbalanced parenthesis in {text!r}")
            depth = 0
            chunks.append(cur)
        elif depth:
            cur += ch
        elif not ch.isspace():
            raise ValueError(f"unexpected character {ch!r} in {text!r}")
    if depth:
        raise ValueError(f"unbalanced parenthesis in {text!r}")
    for chunk in chunks:
        if any(c in chunk for c in " ,"):
            points = [int(tok) for tok in chunk.replace(",", " ").split()]
        else:
            points = [int(c) for c in chunk]
        if not points:
            continue
        for p in points:
            if not 1 <= p <= degree:
                raise ValueError(f"point {p} out of range for degree {degree}")
        for a, b in zip(points, points[1:] + points[:1]):
            if a in mapping:
                raise ValueError(f"point {a} repeated in {text!r}")
            mapping[a] = b
    images = tuple(mapping.get(i, i) for i in range(1, degree + 1))
    return Perm(images)


@lru_cache(maxsize=None)
def all_perms(n: int) -> tuple[Perm, ...]:
    """All of S_n sorted by one-line notation; the identity comes first."""
    if not 1 <= n <= MAX_DEGREE:
        raise ValueError(f"degree must be between 1 and {MAX_DEGREE} "
                         f"(the enumerator's index limit), got {n}")
    return tuple(Perm(p) for p in itertools.permutations(range(1, n + 1)))


class PermTables(NamedTuple):
    """Lookup tables of S_n over the indices of all_perms(n).

    Index 0 is the identity.  comp[a][b] is the index of a * b, inv[a] of
    a's inverse, order[a] is a's order, and conj[s][p] is the index of
    s * p * s^-1.  The search's bitsets over the same indices are
    orbit_masks and order_masks, built apart on the first search at a
    degree.
    """

    comp: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    order: tuple[int, ...]
    conj: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def perm_tables(n: int) -> PermTables:
    """The tables for degree n, built on first use (n!^2 entries each).

    Only the rows of S_n's generators, the transposition (1 2) and the
    n-cycle, are looked up; every other row of comp is a product's,
    comp[t * a][b] = comp[t][comp[a][b]], one map over a known row.
    """
    perms = all_perms(n)
    index = {p.images: i for i, p in enumerate(perms)}
    zero_based = [tuple(j - 1 for j in p.images) for p in perms]
    cycle = (*range(2, n + 1), 1)
    swap = (2, 1, *range(3, n + 1)) if n > 1 else cycle
    gen_rows = [tuple(index[tuple(map(t.__getitem__, b))] for b in zero_based)
                for t in {cycle, swap}]
    rows: list[tuple[int, ...] | None] = [None] * len(perms)
    rows[0] = tuple(range(len(perms)))
    reached = [0]
    for a in reached:  # grows until every element is reached
        for t in gen_rows:
            ta = t[a]
            if rows[ta] is None:
                rows[ta] = tuple(map(t.__getitem__, rows[a]))
                reached.append(ta)
    comp = tuple(rows)
    inv = tuple(row.index(0) for row in comp)
    order = tuple(p.order() for p in perms)
    columns = tuple(zip(*comp))  # columns[x][y] = comp[y][x]
    conj = tuple(tuple(map(columns[inv[s]].__getitem__, comp[s])) for s in range(len(perms)))
    return PermTables(comp, inv, order, conj)


class OrbitMasks(NamedTuple):
    """Bitsets of relabelings for the orderly search: bit s stands for the
    relabeling all_perms(n)[s].

    below[i] holds the s with s * i * s^-1 earlier than i in all_perms(n),
    and cent[i] those with s * i * s^-1 == i, the centralizer of i.
    """

    below: tuple[int, ...]
    cent: tuple[int, ...]


@lru_cache(maxsize=None)
def orbit_masks(n: int) -> OrbitMasks:
    """The masks for degree n, built on first use (n!^2 bits each)."""
    columns = list(enumerate(zip(*perm_tables(n).conj)))  # column i: i's conjugates
    return OrbitMasks(
        tuple(sum(1 << s for s, c in enumerate(col) if c < i) for i, col in columns),
        tuple(sum(1 << s for s, c in enumerate(col) if c == i) for i, col in columns))


@lru_cache(maxsize=None)
def order_masks(n: int, exp: int) -> tuple[int, ...]:
    """Row w holds bit i when the order of w * i divides exp.

    Row w is the set w^-1 * A for A the elements whose order divides exp,
    so row 0, the identity's, is A itself.
    """
    comp, inv, order, _ = perm_tables(n)
    allowed = [j for j, o in enumerate(order) if exp % o == 0]
    return tuple(sum(1 << row[j] for j in allowed)
                 for row in (comp[inv[w]] for w in range(len(order))))


@dataclass(frozen=True)
class Assignment:
    """Images of the generators, one permutation per generator name."""

    names: tuple[str, ...]
    perms: tuple[Perm, ...]

    def __post_init__(self) -> None:
        if len(self.names) != len(self.perms):
            raise ValueError("one permutation per generator name required")
        if not self.perms:
            raise ValueError("assignment needs at least one generator")
        if len({p.degree for p in self.perms}) != 1:
            raise ValueError("all images must have the same degree")

    @property
    def degree(self) -> int:
        return self.perms[0].degree

    def image_of(self, name: str) -> Perm:
        try:
            return self.perms[self.names.index(name)]
        except ValueError:
            raise KeyError(f"unknown generator {name!r}") from None

    def key(self) -> tuple[tuple[int, ...], ...]:
        return tuple(p.images for p in self.perms)

    def as_dict(self) -> dict[str, str]:
        return {name: p.cycle_string() for name, p in zip(self.names, self.perms)}


def _word_images(word: Word, assignment: Assignment) -> tuple[int, ...]:
    """One-line form of a word's image, padded in front: entry x is the
    image of x, entry 0 is 0.  The rightmost letter acts first."""
    perms = assignment.perms
    res = tuple(range(assignment.degree + 1))
    for gen, sign in word:
        if not 0 <= gen < len(perms):
            raise KeyError(f"word uses generator index {gen}, assignment has "
                           f"{len(perms)}")
        images = perms[gen].images
        if sign > 0:
            res = (0, *map(res.__getitem__, images))
        else:  # the product so far after g^-1 sends g(x) to res[x]
            after = list(res)
            for x, y in enumerate(images, start=1):
                after[y] = res[x]
            res = tuple(after)
    return res


def _cycle_order(images: Sequence[int]) -> int:
    """Order of a permutation in padded one-line form: the lcm of its
    cycle lengths."""
    seen = [False] * len(images)
    order = 1
    for start in range(1, len(images)):
        length, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = images[x]
            length += 1
        if length > 1:
            order = lcm(order, length)
    return order


def evaluate_word(word: Word, assignment: Assignment) -> Perm:
    """Image of a word: product of generator images in word order.

    The rightmost letter acts first, matching the left-action convention.
    """
    return Perm(_word_images(word, assignment)[1:])


def word_order(word: Word, assignment: Assignment) -> int:
    """Order of a word's image, read off one-line tuples with no Perm built;
    a bad generator index raises KeyError as in evaluate_word."""
    return _cycle_order(_word_images(word, assignment))


def is_transitive(assignment: Assignment) -> bool:
    """True when the generated group has a single orbit on {1..n}; degree 0
    has no orbit."""
    return assignment.degree > 0 and images_transitive(
        [p.images for p in assignment.perms], assignment.degree)


def images_transitive(images: Sequence[tuple[int, ...]], n: int) -> bool:
    """is_transitive on one-line tuples of degree n.

    Forward closure suffices: the reachable set from 1 is closed under each
    image, and an injective self-map of a finite set closed on it is a
    bijection of it, so it is closed under inverses too.
    """
    seen = [False] * (n + 1)
    seen[1] = True
    stack = [1]
    count = 1
    while stack:
        x = stack.pop()
        for img in images:
            y = img[x - 1]
            if not seen[y]:
                seen[y] = True
                count += 1
                stack.append(y)
    return count == n


def conjugate_assignment(assignment: Assignment, sigma: Perm) -> Assignment:
    """Relabel points by sigma: each image g becomes sigma * g * sigma^-1."""
    inv = sigma.inverse()
    return Assignment(assignment.names,
                      tuple(sigma * p * inv for p in assignment.perms))
