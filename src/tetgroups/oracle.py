"""Independent cross-checks for the enumerator.

brute_force_classes recounts subgroup classes from scratch with numpy.  It
does not materialize the product space S_n^k: a relator holds when the
order of its base divides its exponent, read from an order column; each
relator on a single generator (P^2, a^p) first cuts that generator's range,
then the generators are joined one at a time and every other relator
keeps only the rows where it holds once its last generator is placed.
Transitivity is tested on the survivors, and the orbits are counted by
Burnside's lemma, once per conjugacy class of S_n for both counts.  It
builds its own permutation tables and shares nothing with the enumerator's
search except the convention (rightmost letter acts first).

todd_coxeter independently confirms that a claimed stabilizer really has
the claimed index, by coset enumeration over the presentation; verify_class
runs its enumeration on a class's raw Schreier words, given as scans.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .enumerator import TransitiveRep
from .perms import MAX_DEGREE, Assignment, Perm
from .presentations import Presentation
from .stabilizer import build_coset_table, schreier_scans
from .words import Word


class BruteForceCounts(NamedTuple):
    labeled: int
    classes: int
    subgroups: int


class _SymmetricTables(NamedTuple):
    """S_n as indices into its 0-based one-line codes in lex order, so
    index 0 is the identity, and one table of its conjugacy classes that
    serves the Burnside sums over S_n and over its point-1 stabilizer."""

    comp: np.ndarray  # comp[a, b]: a after b
    inv: np.ndarray
    order: np.ndarray  # order[a]: the lcm of a's cycle lengths
    set_image: np.ndarray  # set_image[a, m]: a's image of the point-set bitmask m
    # One row per conjugacy class (cycle type) of S_n: which elements commute
    # with one element of the class, the class's size, and how many of its
    # members fix point 1 (its weight in the point-1 stabilizer's sum).
    class_centralizers: np.ndarray
    class_sizes: np.ndarray
    class_weights: np.ndarray


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
    _, reps, sizes = np.unique(np.sort(length, axis=1), axis=0,
                               return_index=True, return_counts=True)
    # A class of size |C| whose members fix f points has |C| f / n members
    # fixing point 1: conjugating by (1 x) swaps those fixing 1 and x.
    weights = sizes * (length[reps] == 1).sum(axis=1) // n
    tables = _SymmetricTables(comp, inv, np.lcm.reduce(length, axis=1), set_image,
                              comp[reps] == comp[:, reps].T,  # s x == x s
                              sizes, weights)
    for table in tables:
        table.flags.writeable = False  # one cached copy serves every caller
    return tables


def brute_force_classes(presentation: Presentation, n: int) -> BruteForceCounts:
    """Count (labeled reps, conjugacy classes, subgroups) at index n, up to
    MAX_DEGREE.

    Labeled: transitive assignments satisfying all relators.  Classes: their
    orbits under conjugation by all of S_n.  Subgroups: orbits under the
    point-1 stabilizer of S_n, i.e. index-n subgroups counted plainly.

    Nothing of size (n!)^k is built.  A relator (base, exp) holds when the
    base's order divides exp.  A relator on one generator only restricts
    that generator's range (P^2 leaves P 26 of the 120 elements of S_5).
    The generators are then placed in order, each joined to the rows that
    survive so far, and a relator is tested as soon as its last generator
    is placed, so it only sees rows that every earlier relator kept.
    Orbits are counted by Burnside's lemma over the conjugacy classes of
    S_n, so no survivor is conjugated by the whole group: the survivors
    each class fixes, weighted by the class sizes over n! for the classes
    and by the members fixing point 1 over (n-1)! for the subgroups.
    """
    if not 1 <= n <= MAX_DEGREE:
        raise ValueError(f"oracle only runs for index 1..{MAX_DEGREE}, got {n}")
    t = _symmetric_tables(n)
    k = len(presentation.generator_names)

    def holds(base: Word, exp: int, images) -> np.ndarray:
        # Fold the base letter by letter through the composition table
        # (rightmost letter acts first); images[g] holds generator g's
        # images, shaped to broadcast against the others.
        res = 0  # the identity
        for g, sign in base:
            res = t.comp[res, images[g] if sign > 0 else t.inv[images[g]]]
        return (exp % t.order == 0)[res]

    placed_last = [[] for _ in range(k)]
    for base, exp in presentation.relator_powers:
        placed_last[max(g for g, _ in base)].append((base, exp))
    # columns[g][row]: generator g's image in each surviving row.
    columns: list[np.ndarray] = []
    rows = 1
    for g, relators in enumerate(placed_last):
        choices = np.arange(len(t.inv))
        joint = []
        for base, exp in relators:
            if all(h == g for h, _ in base):
                choices = choices[holds(base, exp, {g: choices})]
            else:
                joint.append((base, exp))
        # The join: one axis for the rows so far, one for g's choices.
        grid = [c[:, None] for c in columns] + [choices[None, :]]
        mask = np.ones((rows, len(choices)), dtype=bool)
        for base, exp in joint:
            mask &= holds(base, exp, grid)
        row, choice = np.divmod(np.flatnonzero(mask), len(choices))
        columns = [c[row] for c in columns] + [choices[choice]]
        rows = len(row)

    # Transitive exactly when point 1's orbit is everything; each round
    # applies every generator, and n - 1 rounds cover the longest path.
    reach = np.ones(len(columns[0]), dtype=np.int64)
    for _ in range(n - 1):
        for c in columns:
            reach |= t.set_image[c, reach]
    kept = np.flatnonzero(reach == (1 << n) - 1)
    columns = [c[kept] for c in columns]

    # Burnside's lemma: the orbits number the mean, over the acting group,
    # of the survivors each element fixes.  Conjugate elements fix equally
    # many (relabeling keeps the relators and transitivity), so one element
    # per class of S_n stands for the class in both sums, and it fixes a
    # survivor when it commutes with every generator's image.
    fixes = t.class_centralizers[:, columns[0]]
    for c in columns[1:]:
        fixes &= t.class_centralizers[:, c]
    fixed = np.count_nonzero(fixes, axis=1)

    def orbits(weights: np.ndarray) -> int:
        total, order = int(fixed @ weights), int(weights.sum())
        quotient, rest = divmod(total, order)
        if rest:
            raise RuntimeError(f"{total} fixed points at index {n} are not a "
                               f"multiple of the group order {order}")
        return quotient

    return BruteForceCounts(len(kept), orbits(t.class_sizes), orbits(t.class_weights))


@dataclass(frozen=True)
class TCResult:
    """Outcome of a coset enumeration.

    status 'closed' means the table completed with `index` live cosets and
    `action` is the generators' assignment on them (coset 1 is the
    subgroup); wrap it in a TransitiveRep to check it.  status 'overflow'
    means the coset budget ran out first, which says nothing about the true
    index.  Either way the counters tell how much work was done: cosets
    defined, the most live at once, and cosets killed by coincidences.
    """

    status: str
    index: int | None = None
    action: Assignment | None = None
    defined: int = 0
    peak_live: int = 0
    coincidences: int = 0


class _Overflow(Exception):
    pass


def todd_coxeter(presentation: Presentation, subgroup_words: list[Word] | tuple[Word, ...],
                 max_cosets: int) -> TCResult:
    """Enumerate cosets of the subgroup generated by the given words.

    HLT scan-and-fill (Holt, Eick & O'Brien, *Handbook of Computational
    Group Theory*, 2005, sec. 5.1-5.2): each subgroup word is scanned at
    coset 1, then every relator at every live coset in numbering order.  A
    scan runs forward and backward as far as the table is defined; a gap
    of one letter is a deduction, ends that meet at different cosets are a
    coincidence, and only a longer gap defines a new coset.  After its
    scans every undefined entry of the coset's row is defined, so a closed
    table is complete.  Involutions have one self-inverse column (see
    Presentation.coset_columns), so their squares are never scanned.

    Deterministic: cosets are numbered by first definition, and merging
    keeps the smaller number.  max_cosets bounds the live cosets.  Words
    act on the left, so scans walk letters right to left.  The
    enumeration itself is _enumerate, on the words' scans.
    """
    k = len(presentation.generator_names)
    for w in subgroup_words:
        for gen, _ in w:
            if not 0 <= gen < k:
                raise ValueError(f"subgroup word uses generator index {gen}")
    of_letter = presentation.coset_columns.of_letter
    result, table, live = _enumerate(
        presentation, [tuple(of_letter[letter] for letter in reversed(w.letters))
                       for w in subgroup_words], max_cosets)
    if result.status == "overflow":
        return result
    renumber = {root: i + 1 for i, root in enumerate(live)}
    images = tuple(Perm(tuple(renumber[table[root][of_letter[(g, 1)]]] for root in live))
                   for g in range(k))
    return replace(result, action=Assignment(presentation.generator_names, images))


def _enumerate(presentation: Presentation, scans: list[tuple[int, ...]], max_cosets: int,
               ) -> tuple[TCResult, list[list[int]], list[int]]:
    """todd_coxeter's enumeration, on the subgroup words' scans: their
    columns (Presentation.coset_columns), rightmost letter first.  Returns
    the result without its action, the table and its live cosets."""
    if max_cosets < 1:
        return TCResult("overflow"), [], []
    _, inverse, relators, _ = presentation.coset_columns
    width = len(inverse)
    # table[c][x]: coset c acted on by column x, or -1 while undefined.
    # parent is a union-find forest over the cosets; a live coset is a root.
    table = [[-1] * width]
    parent = [0]
    peak_live = 1
    coincidences = 0  # each kills one coset, so len(table) - coincidences are live

    def define(c: int, x: int) -> None:
        nonlocal peak_live
        live = len(table) - coincidences
        if live >= max_cosets:
            raise _Overflow
        d = len(table)
        table.append([-1] * width)
        parent.append(d)
        table[c][x] = d
        table[d][inverse[x]] = c
        peak_live = max(peak_live, live + 1)

    def find(c: int) -> int:
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def merge(a: int, b: int, dead: list[int]) -> None:
        nonlocal coincidences
        a, b = find(a), find(b)
        if a != b:
            if b < a:
                a, b = b, a
            parent[b] = a
            dead.append(b)
            coincidences += 1

    def coincidence(a: int, b: int) -> None:
        # Each dead coset's row is moved onto its root, and the entries
        # that pointed at it are cleared, so live rows name live cosets.
        dead: list[int] = []
        merge(a, b, dead)
        for y in dead:  # grows as merges cascade
            for x, d in enumerate(table[y]):
                if d < 0:
                    continue
                xi = inverse[x]
                table[d][xi] = -1
                mu, nu = find(y), find(d)
                if table[mu][x] >= 0:
                    merge(nu, table[mu][x], dead)
                elif table[nu][xi] >= 0:
                    merge(mu, table[nu][xi], dead)
                else:
                    table[mu][x] = nu
                    table[nu][xi] = mu

    def scan_and_fill(c: int, word: tuple[int, ...]) -> None:
        f, i = c, 0
        b, j = c, len(word) - 1
        while True:
            while i <= j and table[f][word[i]] >= 0:
                f = table[f][word[i]]
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and table[b][inverse[word[j]]] >= 0:
                b = table[b][inverse[word[j]]]
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:  # a deduction
                table[f][word[i]] = b
                table[b][inverse[word[i]]] = f
                return
            define(f, word[i])

    try:
        for scan in scans:
            scan_and_fill(0, scan)
        c = 0
        while c < len(table):
            for rel in relators:
                if parent[c] != c:
                    break
                scan_and_fill(c, rel)
            if parent[c] == c:
                for x in range(width):
                    if table[c][x] < 0:
                        define(c, x)
            c += 1
    except _Overflow:
        return TCResult("overflow", None, None, len(table), peak_live, coincidences), table, []
    live = [c for c in range(len(table)) if parent[c] == c]
    return TCResult("closed", len(live), None, len(table), peak_live, coincidences), table, live


def default_coset_budget(index: int, presentation: Presentation) -> int:
    return 10 * index * len(presentation.generator_names)


def verify_class(rep: TransitiveRep, max_cosets: int | None = None) -> bool | None:
    """Confirm a class's stabilizer has the class's index, by coset count.

    The subgroup is given by its Schreier words as scans (schreier_scans),
    not the simplified words: both generate it, and each raw word walks
    out along the transversal and back.  The scans go straight to the
    enumeration, with no Word and no action built.  On every catalog class
    at indices 1-6 it then defines exactly rep.degree cosets with no
    coincidence, so a budget of rep.degree closes it.

    Returns True when the enumeration closes at the rep's degree, False
    when it closes elsewhere, None when the coset budget overflowed (which
    is inconclusive, not a failure).
    """
    pres = rep.presentation
    budget = max_cosets if max_cosets is not None else default_coset_budget(rep.degree, pres)
    result = _enumerate(pres, schreier_scans(build_coset_table(rep)), budget)[0]
    if result.status == "overflow":
        return None
    return result.index == rep.degree
