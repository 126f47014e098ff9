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
from typing import Sequence

from .presentations import Presentation
from .words import Word

# Enumeration beyond this degree is refused before anything is allocated;
# the enumerator's per-degree tables (enumerator.perm_tables) set the limit.
# The numpy recount (oracle.brute_force_classes) has the same limit, so
# raising it needs a second method at the new index first.
MAX_DEGREE = 6


@dataclass(frozen=True)
class Perm:
    """Permutation of {1..n}, stored in one-line notation.

    images[i-1] is the image of i, an int.  Instances are immutable and
    hashable; the one-line tuple doubles as the lexicographic sort key.
    Images given as any other sequence are stored as a tuple.
    """

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if type(self.images) is not tuple:
            object.__setattr__(self, "images", tuple(self.images))
        images = self.images
        n = len(images)
        # the type test runs first, so sorted never compares a non-int
        if (any(type(x) is not int for x in images)
                or sorted(images) != list(range(1, n + 1))):
            raise ValueError(f"not a permutation of 1..{n} in ints: {images}")

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
        return _cycles(self.images)

    def order(self) -> int:
        return lcm(1, *(len(c) for c in self.cycles()))

    def cycle_string(self) -> str:
        """Cycle notation; identity prints as (1).

        Points are juxtaposed, (12)(34), while every point is a single
        digit; with points past 9 they are space separated.
        """
        return _cycle_string(self.images)

    def __str__(self) -> str:
        return self.cycle_string()


def _cycles(images: tuple[int, ...]) -> list[tuple[int, ...]]:
    seen = [False] * (len(images) + 1)
    out = []
    for start, j in enumerate(images, start=1):
        if seen[start] or j == start:
            continue
        cyc = [start]
        while j != start:
            cyc.append(j)
            seen[j] = True
            j = images[j - 1]
        out.append(tuple(cyc))
    return out


# Keyed by the one-line tuple; all 873 permutations of degree 1 to
# MAX_DEGREE fit, so a report prints each of them from its cycles once.
@lru_cache(maxsize=1024)
def _cycle_string(images: tuple[int, ...]) -> str:
    cycs = _cycles(images)
    if not cycs:
        return "(1)"
    sep = " " if len(images) > 9 else ""
    return "".join("(" + sep.join(str(p) for p in c) + ")" for c in cycs)


@lru_cache(maxsize=None)
def all_perms(n: int) -> tuple[Perm, ...]:
    """All of S_n sorted by one-line notation; the identity comes first."""
    if not 1 <= n <= MAX_DEGREE:
        raise ValueError(f"degree must be between 1 and {MAX_DEGREE} "
                         f"(the enumerator's index limit), got {n}")
    return tuple(Perm(p) for p in itertools.permutations(range(1, n + 1)))


@dataclass(frozen=True)
class Assignment:
    """Images of the generators, one permutation per generator name.

    Names and images given as any other sequence are stored as tuples.
    The enumerator builds its outputs, one element of all_perms(n) per
    generator name, through _unchecked, as words are built through
    Word._unchecked.
    """

    names: tuple[str, ...]
    perms: tuple[Perm, ...]

    def __post_init__(self) -> None:
        if type(self.names) is not tuple:
            object.__setattr__(self, "names", tuple(self.names))
        if type(self.perms) is not tuple:
            object.__setattr__(self, "perms", tuple(self.perms))
        if len(self.names) != len(self.perms):
            raise ValueError("one permutation per generator name required")
        if not self.perms:
            raise ValueError("assignment needs at least one generator")
        if len({p.degree for p in self.perms}) != 1:
            raise ValueError("all images must have the same degree")

    @classmethod
    def _unchecked(cls, names: tuple[str, ...], perms: tuple[Perm, ...]) -> "Assignment":
        """An assignment of one image per name, all of one degree, known already."""
        assignment = object.__new__(cls)
        fields = assignment.__dict__  # frozen: filled directly, not set
        fields["names"] = names
        fields["perms"] = perms
        return assignment

    @property
    def degree(self) -> int:
        return self.perms[0].degree

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
    has no orbit.

    Forward closure suffices: the reachable set from 1 is closed under each
    image, and an injective self-map of a finite set closed on it is a
    bijection of it, so it is closed under inverses too.
    """
    n = assignment.degree
    if n == 0:
        return False
    seen = {1}
    stack = [1]
    while stack:
        x = stack.pop()
        for p in assignment.perms:
            y = p.images[x - 1]
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == n


@dataclass(frozen=True)
class TransitiveRep:
    """A transitive assignment that satisfies every relator (checked).

    enumerate_classes checks its reps on the search's index tables and
    builds them through _unchecked, as words are built through
    Word._unchecked.
    """

    presentation: Presentation
    assignment: Assignment

    def __post_init__(self) -> None:
        if self.assignment.names != self.presentation.generator_names:
            raise ValueError("assignment names do not match the presentation")
        bad = [base for base, k in self.presentation.relator_powers
               if k % word_order(base, self.assignment) != 0]
        if bad:
            shown = ", ".join(self.presentation.render(w) for w in bad)
            raise ValueError(f"relators violated (base words: {shown})")
        if not is_transitive(self.assignment):
            raise ValueError("assignment is not transitive")

    @classmethod
    def _unchecked(cls, presentation: Presentation, assignment: Assignment) -> "TransitiveRep":
        """A rep whose names, relators and transitivity are checked already."""
        rep = object.__new__(cls)
        fields = rep.__dict__
        fields["presentation"] = presentation
        fields["assignment"] = assignment
        return rep

    @property
    def degree(self) -> int:
        return self.assignment.degree


def conjugate_assignment(assignment: Assignment, sigma: Perm) -> Assignment:
    """Relabel points by sigma: each image g becomes sigma * g * sigma^-1."""
    inv = sigma.inverse()
    return Assignment(assignment.names,
                      tuple(sigma * p * inv for p in assignment.perms))
