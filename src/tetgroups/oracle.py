"""The numpy recount, an independent cross-check of the enumerator.

brute_force_classes recounts subgroup classes from scratch with numpy.  It
does not materialize the product space S_n^k: a relator holds when the
order of its base divides its exponent, read from an order column that is
computed once per (degree, exponent) and cached; each relator on a single
generator (P^2, a^p) first cuts that generator's range, then the
generators are joined one at a time and every other relator keeps only
the rows where it holds once its last generator is placed.  The first
generator takes one element per conjugacy class of its range, each row
standing for its class.  Transitivity is tested on the survivors, and the
orbits are counted by Burnside's lemma over the semiregular elements of
S_n, the only ones that can centralize a transitive group.  It builds its
own permutation tables and shares nothing with the enumerator's search
except the convention (rightmost letter acts first).  It is the only
module that imports numpy; coset enumeration is in stabilizer.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import factorial, gcd
from typing import NamedTuple

import numpy as np

from .perms import MAX_DEGREE
from .presentations import Presentation
# perfbench reads these as tetgroups.oracle.* until it names them in stabilizer
from .stabilizer import todd_coxeter, verify_class
from .words import Letter


class BruteForceCounts(NamedTuple):
    labeled: int
    classes: int
    subgroups: int


class _SymmetricTables(NamedTuple):
    """S_n as indices into its 0-based one-line codes in lex order, so
    index 0 is the identity, with each element's conjugacy class and which
    elements commute with each semiregular one."""

    comp: np.ndarray  # comp[a, b]: a after b
    inv: np.ndarray
    order: np.ndarray  # order[a]: the lcm of a's cycle lengths
    set_image: np.ndarray  # set_image[a, m]: a's image of the point-set bitmask m
    class_rep: np.ndarray  # class_rep[a]: a is the least index of its cycle type
    class_size: np.ndarray  # class_size[a]: how many elements share a's cycle type
    # commute[a, j]: a commutes with the j-th semiregular element (all its
    # cycles of one length) in index order.
    commute: np.ndarray


@lru_cache(maxsize=None)
def _symmetric_tables(n: int) -> _SymmetricTables:
    one_line = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    # A dense table over the base-n codes of one-line forms (n^n entries)
    # turns a permutation back into its index without a sort or a search.
    place = n ** np.arange(n)
    index_of = np.zeros(n ** n, dtype=np.int64)
    index_of[(one_line * place).sum(axis=1)] = np.arange(len(one_line))
    comp = index_of[(one_line[:, one_line] * place).sum(axis=2)]  # [a, b, x] = a[b[x]]
    inv = np.nonzero(comp == 0)[1]  # each row of comp holds the identity once
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    set_image = (bits[None] << one_line[:, None]).sum(axis=2)

    # Each point's cycle length under each element; their lcm is the
    # element's order, and sorted along the row they spell its cycle type.
    rows = np.arange(len(one_line))[:, None]
    power, length = one_line, np.zeros_like(one_line)
    for m in range(1, n + 1):
        length[(length == 0) & (power == np.arange(n))] = m
        power = one_line[rows, power]
    class_rep = np.zeros(len(one_line), dtype=bool)
    class_rep[np.unique(np.sort(length, axis=1), axis=0, return_index=True)[1]] = True
    # A class's size is n! over one member's centralizer (orbit-stabilizer).
    class_size = factorial(n) // np.count_nonzero(comp == comp.T, axis=1)
    semiregular = np.flatnonzero((length == length[:, :1]).all(axis=1))
    tables = _SymmetricTables(comp, inv, np.lcm.reduce(length, axis=1), set_image,
                              class_rep, class_size,
                              comp[:, semiregular] == comp[semiregular].T)  # a s == s a
    for table in tables:
        table.flags.writeable = False  # one cached copy serves every caller
    return tables


@lru_cache(maxsize=None)
def _order_divides(n: int, exp: int) -> np.ndarray:
    """The column over S_n (as _symmetric_tables(n) indexes it) that is True
    where the element's order divides exp, read-only like the tables.
    Exponent 0 allows every element, since every order divides 0."""
    column = exp % _symmetric_tables(n).order == 0
    column.flags.writeable = False
    return column


@lru_cache(maxsize=None)
def _recount_rows(presentation: Presentation, n: int) -> tuple[tuple[np.ndarray, tuple], ...]:
    """brute_force_classes's relators read at degree n, one (choices,
    joint) per generator, built once per presentation and degree.

    Each relator is tested once the last generator g of its base is
    joined.  Every relator in g alone is g^m or g^-m (bases are freely
    reduced) to some exponent k, which holds exactly when g's order
    divides m * k, so together they keep the elements whose order divides
    the gcd of those products (0 when there are none: every order divides
    0).  choices are those elements as ascending indices into S_n, and for
    generator 0 only the least element of each conjugacy class among
    them: order is a class function, so they are a union of classes.
    joint are (letters, _order_divides column) for each relator that uses
    an earlier generator too.  The arrays are read-only like the tables.
    Each column is that of gcd(exp, lcm(1..n)), which the same orders in
    S_n divide: one column per divisor of lcm(1..n), lcm(1..n)'s for 0.
    """
    span = int(np.lcm.reduce(_symmetric_tables(n).order))  # lcm(1..n): every order divides it
    alone = [0] * len(presentation.generator_names)
    joint: list[list] = [[] for _ in alone]
    for base, exp in presentation.relator_powers:
        g = max(h for h, _ in base)
        if all(h == g for h, _ in base):
            alone[g] = gcd(alone[g], len(base) * exp)
        else:
            joint[g].append((base.letters, _order_divides(n, gcd(exp, span))))
    steps = []
    for g, exp in enumerate(alone):
        allowed = _order_divides(n, gcd(exp, span))
        choices = np.flatnonzero(allowed & _symmetric_tables(n).class_rep if g == 0 else allowed)
        choices.flags.writeable = False
        steps.append((choices, tuple(joint[g])))
    return tuple(steps)


def brute_force_classes(presentation: Presentation, n: int) -> BruteForceCounts:
    """Count (labeled reps, conjugacy classes, subgroups) at index n, up to
    MAX_DEGREE.

    Labeled: transitive assignments satisfying all relators.  Classes: their
    orbits under conjugation by all of S_n.  Subgroups: orbits under the
    point-1 stabilizer of S_n, i.e. index-n subgroups counted plainly.

    Nothing of size (n!)^k is built.  A relator (base, exp) holds when the
    base's order divides exp, which _order_divides(n, exp) holds as a
    column over S_n, built on first use and then shared by every call.  A
    relator in one generator only restricts that generator's range: its
    base is g^m or g^-m, whose order divides exp exactly when g's order
    divides m * exp (P^2 leaves P 26 of the 120 elements of S_5), and
    several such relators restrict it to the gcd of those products.  The
    generators are then placed in order, each joined to the rows that
    survive so far, and a relator is tested as soon as its last generator
    is placed, so it only sees rows that every earlier relator kept.  Its
    fold starts from its first letter's images, and the join's mask is the
    first such relator's result, the later ones ANDed into it in place.
    Which relators are tested where, each generator's range and the
    columns they read are worked out once per presentation and degree
    (_recount_rows).

    Generator 0 takes only the least element of each conjugacy class in its
    range.  Every relator placed there is a word in
    generator 0 alone, a power of it, so the range is a union of classes;
    relabeling the points keeps the relators and transitivity, so the rows
    with generator 0 = c stand for |class of c| times as many labeled reps,
    and each surviving row is weighted by that size.

    Orbits are counted by Burnside's lemma, so no survivor is conjugated by
    the whole group: the classes number the sum over labeled reps x of
    |Z(x)|, x's centralizer in S_n, over n!.  Conjugating x moves its first
    image within its class and keeps |Z(x)|, so each row adds its weight
    times |Z(x)|.  The centralizer of a transitive group is semiregular
    (Dixon & Mortimer, *Permutation Groups*, 1996, Thm 4.2A): every element
    of it has all its cycles of one length, so |Z(x)| counts only those
    elements (10 of the 24 in S_4, 176 of the 720 in S_6) that commute with
    every generator's image.  A semiregular group meets the point-1
    stabilizer in the identity alone, so that stabilizer acts freely on the
    labeled reps and the subgroups number labeled / (n-1)!.  Either
    quotient leaving a remainder raises RuntimeError.
    """
    if not 1 <= n <= MAX_DEGREE:
        raise ValueError(f"oracle only runs for index 1..{MAX_DEGREE}, got {n}")
    t = _symmetric_tables(n)

    def holds(letters: tuple[Letter, ...], divides: np.ndarray, images) -> np.ndarray:
        # Fold the base letter by letter through the composition table
        # (rightmost letter acts first), starting from its first letter's
        # images; images[g] holds generator g's images, shaped to
        # broadcast against the others.
        res = None
        for g, sign in letters:
            image = images[g] if sign > 0 else t.inv[images[g]]
            res = image if res is None else t.comp[res, image]
        return divides[res]

    # columns[g][row]: generator g's image in each surviving row.
    columns: list[np.ndarray] = []
    rows = 1
    for choices, joint in _recount_rows(presentation, n):
        # The join: one axis for the rows so far, one for g's choices.  Each
        # joint relator uses g and an earlier generator, so its mask has the
        # join's full shape.
        grid = [c[:, None] for c in columns] + [choices[None, :]]
        if joint:
            mask = holds(*joint[0], grid)
            for letters, divides in joint[1:]:
                mask &= holds(letters, divides, grid)
        else:
            mask = np.ones((rows, len(choices)), dtype=bool)
        row, choice = np.nonzero(mask)
        columns = [c[row] for c in columns] + [choices[choice]]
        rows = len(row)

    # Transitive exactly when point 1's orbit is everything; each round
    # applies every generator, and n - 1 rounds cover the longest path.
    reach = np.ones(len(columns[0]), dtype=np.int64)
    for _ in range(n - 1):
        for c in columns:
            reach |= t.set_image[c, reach]
    kept = reach == (1 << n) - 1
    columns = [c[kept] for c in columns]

    # A semiregular element is in Z(x) when it commutes with every image.
    fixes = t.commute[columns[0]]
    for c in columns[1:]:
        fixes &= t.commute[c]
    weights = t.class_size[columns[0]]
    labeled = int(weights.sum())

    def orbits(total: int, order: int) -> int:
        quotient, rest = divmod(total, order)
        if rest:
            raise RuntimeError(f"{total} fixed points at index {n} are not a "
                               f"multiple of the group order {order}")
        return quotient

    return BruteForceCounts(labeled,
                            orbits(int(np.count_nonzero(fixes, axis=1) @ weights), factorial(n)),
                            orbits(labeled, factorial(n - 1)))
