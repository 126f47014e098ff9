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
from operator import getitem
from typing import NamedTuple, Sequence

from .words import Word

# Enumeration beyond this degree is refused before anything is allocated.
# perm_tables(n) holds two tables of n!^2 entries, the composition and the
# conjugation table: 518k each at 6, where the whole table builds in
# 0.2-0.3 s, and 25M at 7, which no longer fits a laptop-scale job.  Its
# other parts are smaller: the search's bitsets are n! ints of n! bits
# each, under 100 kB at 6, and the partition joins number Bell(n)^2, 41k
# at 6 (Bell(6) = 203) and 769k at 7 (Bell(7) = 877).  The numpy recount
# (oracle.brute_force_classes) has the same limit, so raising it needs a
# second method at the new index first.
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
        images = self.images
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


@lru_cache(maxsize=None)
def all_perms(n: int) -> tuple[Perm, ...]:
    """All of S_n sorted by one-line notation; the identity comes first."""
    if not 1 <= n <= MAX_DEGREE:
        raise ValueError(f"degree must be between 1 and {MAX_DEGREE} "
                         f"(the enumerator's index limit), got {n}")
    return tuple(Perm(p) for p in itertools.permutations(range(1, n + 1)))


# PermTables.power's values; a power that is a transposition outranks one
# that is a 3-cycle, so the strongest of several elements is their max.
THREE_CYCLE = 1
TRANSPOSITION = 2


class PermTables(NamedTuple):
    """The enumerator's tables of S_n over the indices of all_perms(n).

    Index 0 is the identity.  comp[a][b] is the index of a * b, inv[a] of
    a's inverse, order[a] is a's order, and conj[i][s] is the index of
    s * i * s^-1, so conj[i] lists i's conjugates.

    The orderly search's bitsets, bit s standing for the relabeling
    all_perms(n)[s]: below[i] holds the s with s * i * s^-1 earlier than i,
    and cent[i] those with s * i * s^-1 == i, the centralizer of i.

    Set partitions of the points, for the transitivity mask: partitions[p]
    labels points 0..n-1 by block, the blocks numbered in order of their
    least point.  Index 0 is the finest partition and the last the
    one-block partition.  cycles[i] is the index of element i's cycle
    partition, join[p][c] that of the finest partition coarser than both p
    and c, and connecting[p] the bitset of the elements i for which
    join[p][cycles[i]] is the one-block partition.  The orbits of a group
    are the join of its generators' cycle partitions.

    What Jordan's theorem needs: systems are the block systems a transitive
    group of degree n can preserve, the uniform partitions into 2..n-1
    blocks, as labels from partitions (none at a prime degree).  blocks[i]
    has bit b when element i maps each block of systems[b] onto a block.
    power[i] is TRANSPOSITION when some power of i is a transposition (one
    2-cycle, every other cycle odd), else THREE_CYCLE when some power is a
    3-cycle (one 3-cycle, every other cycle length prime to 3), else 0;
    odd[i] is i's parity.
    """

    comp: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    order: tuple[int, ...]
    conj: tuple[tuple[int, ...], ...]
    below: tuple[int, ...]
    cent: tuple[int, ...]
    partitions: tuple[tuple[int, ...], ...]
    cycles: tuple[int, ...]
    join: tuple[tuple[int, ...], ...]
    connecting: tuple[int, ...]
    systems: tuple[tuple[int, ...], ...]
    blocks: tuple[int, ...]
    power: tuple[int, ...]
    odd: tuple[bool, ...]


@lru_cache(maxsize=None)
def perm_tables(n: int) -> PermTables:
    """The table for degree n, built on first use.  comp's columns, which
    conj is read off, are deleted once conj is built, so the build peaks
    at comp, its columns and conj.

    Only the rows of S_n's generators, the transposition (1 2) and the
    n-cycle, are looked up; every other row of comp is a product's,
    comp[t * a][b] = comp[t][comp[a][b]], one map over a known row.

    The partitions are reached from the finest one breadth first, each by
    merging the blocks of one pair of points in an earlier one, its parent.
    merge[p][a * n + b] is p with the blocks of a and b merged, so a join
    row is filled in that order: join(p, c) = merge(join(p, parent), pair).

    An element keeps a partition's blocks exactly when the pairs (block of
    x, block of its image) number the blocks, each block going to one.
    """
    perms = all_perms(n)  # refuses a degree outside 1..MAX_DEGREE
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
    columns = tuple(zip(*comp))  # columns[x][y] = comp[y][x]
    # conj[i][s] = (s * i) * s^-1 = columns[inv[s]][columns[i][s]]
    inverse_columns = list(map(columns.__getitem__, inv))
    conj = tuple(tuple(map(getitem, inverse_columns, column)) for column in columns)
    del index, zero_based, gen_rows, rows, columns, inverse_columns

    below = tuple(sum(1 << s for s, c in enumerate(col) if c < i) for i, col in enumerate(conj))
    cent = tuple(sum(1 << s for s, c in enumerate(col) if c == i) for i, col in enumerate(conj))

    partitions = [tuple(range(n))]
    index = {partitions[0]: 0}
    parent = [(0, 0)]  # (parent, merged pair); pair 0 is (0, 0), a no-op
    merge = []
    for at, p in enumerate(partitions):  # grows until every partition is reached
        row = [at] * (n * n)
        for a, b in itertools.combinations(range(n), 2):
            lo, hi = sorted((p[a], p[b]))
            if lo == hi:
                continue
            q = tuple(lo if x == hi else x - (x > hi) for x in p)
            if q not in index:
                index[q] = len(partitions)
                partitions.append(q)
                parent.append((at, a * n + b))
            row[a * n + b] = row[b * n + a] = index[q]
        merge.append(row)
    join = []
    for p in range(len(partitions)):
        row = [p]
        for up, pair in parent[1:]:
            row.append(merge[row[up]][pair])
        join.append(tuple(row))
    cycles = []
    for perm in perms:
        c = 0
        for a, b in enumerate(perm.images):
            c = merge[c][a * n + b - 1]
        cycles.append(c)
    masks = [0] * len(partitions)
    for i, c in enumerate(cycles):
        masks[c] |= 1 << i
    top = len(partitions) - 1
    connecting = tuple(sum(m for m, j in zip(masks, row) if j == top) for row in join)

    systems = tuple(p for p in partitions
                    if 1 < max(p) + 1 < n and len(set(map(p.count, p))) == 1)
    counts = [max(p) + 1 for p in systems]
    order, blocks, power, odd = [], [], [], []
    for perm in perms:  # each element's cycles are read once
        moves = list(enumerate(y - 1 for y in perm.images))
        blocks.append(sum(1 << b for b, (p, count) in enumerate(zip(systems, counts))
                          if len({(p[x], p[y]) for x, y in moves}) == count))
        lengths = [len(c) for c in perm.cycles()]
        order.append(lcm(1, *lengths))
        if lengths.count(2) == 1 and all(length % 2 for length in lengths if length != 2):
            power.append(TRANSPOSITION)
        elif lengths.count(3) == 1 and all(length % 3 for length in lengths if length != 3):
            power.append(THREE_CYCLE)
        else:
            power.append(0)
        odd.append(sum(length - 1 for length in lengths) % 2 == 1)
    return PermTables(comp, inv, tuple(order), conj, below, cent, tuple(partitions),
                      tuple(cycles), tuple(join), connecting, systems, tuple(blocks),
                      tuple(power), tuple(odd))


@lru_cache(maxsize=None)
def order_masks(n: int, exp: int) -> tuple[int, ...]:
    """Row w holds bit i when the order of w * i divides exp.

    Row w is the set w^-1 * A for A the elements whose order divides exp,
    so row 0, the identity's, is A itself.
    """
    tables = perm_tables(n)
    comp, inv, order = tables.comp, tables.inv, tables.order
    allowed = [j for j, o in enumerate(order) if exp % o == 0]
    return tuple(sum(1 << row[j] for j in allowed)
                 for row in (comp[inv[w]] for w in range(len(order))))


@dataclass(frozen=True)
class Assignment:
    """Images of the generators, one permutation per generator name.

    The enumerator builds its outputs, one element of all_perms(n) per
    generator name, through _unchecked, as words are built through
    Word._unchecked.
    """

    names: tuple[str, ...]
    perms: tuple[Perm, ...]

    def __post_init__(self) -> None:
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
        object.__setattr__(assignment, "names", names)
        object.__setattr__(assignment, "perms", perms)
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


def conjugate_assignment(assignment: Assignment, sigma: Perm) -> Assignment:
    """Relabel points by sigma: each image g becomes sigma * g * sigma^-1."""
    inv = sigma.inverse()
    return Assignment(assignment.names,
                      tuple(sigma * p * inv for p in assignment.perms))
