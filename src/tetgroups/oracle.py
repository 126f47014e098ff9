"""Independent cross-checks for the enumerator.

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
except the convention (rightmost letter acts first).

todd_coxeter independently confirms that a claimed stabilizer really has
the claimed index, by coset enumeration over the presentation; verify_class
runs its enumeration on a class's raw Schreier words, given as scans.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import lru_cache
from math import factorial
from typing import NamedTuple

import numpy as np

from .perms import MAX_DEGREE, Assignment, Perm, TransitiveRep
from .presentations import Presentation
from .stabilizer import schreier_scans
from .words import Letter, Word


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
def _allowed(n: int, exp: int) -> np.ndarray:
    """The elements of S_n whose order divides exp, as ascending indices."""
    elements = np.flatnonzero(_order_divides(n, exp))
    elements.flags.writeable = False
    return elements


@lru_cache(maxsize=None)
def _allowed_reps(n: int, exp: int) -> np.ndarray:
    """_allowed(n, exp), one element per conjugacy class: order is a class
    function, so the range is a union of classes."""
    elements = _allowed(n, exp)
    reps = elements[_symmetric_tables(n).class_rep[elements]]
    reps.flags.writeable = False
    return reps


def brute_force_classes(presentation: Presentation, n: int) -> BruteForceCounts:
    """Count (labeled reps, conjugacy classes, subgroups) at index n, up to
    MAX_DEGREE.

    Labeled: transitive assignments satisfying all relators.  Classes: their
    orbits under conjugation by all of S_n.  Subgroups: orbits under the
    point-1 stabilizer of S_n, i.e. index-n subgroups counted plainly.

    Nothing of size (n!)^k is built.  A relator (base, exp) holds when the
    base's order divides exp, which _order_divides(n, exp) holds as a
    column over S_n, built on first use and then shared by every call.  A
    relator on one letter only restricts that generator's range (P^2 leaves
    P 26 of the 120 elements of S_5; g and g^-1 have one order), and several
    such relators restrict it to the gcd of their exponents, a range cached
    as an index array by _allowed.  The generators are then placed in order,
    each joined to the rows that survive so far, and a relator is tested as
    soon as its last generator is placed, so it only sees rows that every
    earlier relator kept.  Its fold starts from its first letter's images,
    and the join's mask is the first such relator's result, the later ones
    ANDed into it in place.  Which relators are tested where, and each
    generator's gcd, hold no degree: they are worked out once per
    presentation (Presentation.recount_plan), and a call only looks up the
    columns and ranges cached for its degree.

    Generator 0 takes only the least element of each conjugacy class in its
    range (_allowed_reps).  Every relator placed there is a word in
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

    def holds(letters: tuple[Letter, ...], exp: int, images) -> np.ndarray:
        # Fold the base letter by letter through the composition table
        # (rightmost letter acts first), starting from its first letter's
        # images; images[g] holds generator g's images, shaped to
        # broadcast against the others.
        res = None
        for g, sign in letters:
            image = images[g] if sign > 0 else t.inv[images[g]]
            res = image if res is None else t.comp[res, image]
        return _order_divides(n, exp)[res]

    # columns[g][row]: generator g's image in each surviving row.
    columns: list[np.ndarray] = []
    rows = 1
    for g, (exp, own, joint) in enumerate(presentation.recount_plan):
        choices = (_allowed_reps if g == 0 else _allowed)(n, exp)
        for letters, exp in own:
            choices = choices[holds(letters, exp, {g: choices})]
        # The join: one axis for the rows so far, one for g's choices.  Each
        # joint relator uses g and an earlier generator, so its mask has the
        # join's full shape.
        grid = [c[:, None] for c in columns] + [choices[None, :]]
        if joint:
            mask = holds(*joint[0], grid)
            for base, exp in joint[1:]:
                mask &= holds(base, exp, grid)
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
    the result without its action, the table and its live cosets.

    When the subgroup scans leave a complete table with no coincidence,
    and every relator closes on it by its base's cycles (_closes_by_cycles),
    the relator loop is skipped: each of its scans would walk back to its
    start and change nothing, so the result is the one it would return.
    Otherwise the loop runs: a relator is walked on the table from coset c
    before it is scanned there; a walk on defined entries back to c is
    skipped, since scan_and_fill would repeat it and change nothing."""
    if max_cosets < 1:
        return TCResult("overflow"), [], []
    _, inverse, relators, powers, _ = presentation.coset_columns
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
        # a table that every relator already closes skips the relator loop
        c = len(table) if not coincidences and _closes_by_cycles(table, powers) else 0
        while c < len(table):
            for rel in relators:
                if parent[c] != c:
                    break
                f = c
                for x in rel:
                    f = table[f][x]
                    if f < 0:
                        break
                if f != c:
                    scan_and_fill(c, rel)
            if parent[c] == c and -1 in table[c]:
                for x in range(width):
                    if table[c][x] < 0:
                        define(c, x)
            c += 1
    except _Overflow:
        return TCResult("overflow", None, None, len(table), peak_live, coincidences), table, []
    live = [c for c in range(len(table)) if parent[c] == c]
    return TCResult("closed", len(live), None, len(table), peak_live, coincidences), table, live


def _closes_by_cycles(table: list[list[int]],
                      powers: tuple[tuple[tuple[int, ...], int], ...]) -> bool:
    """Does every relator base^k hold at every coset of a table with no dead
    coset?  False when an entry is undefined.  On a complete table each
    column permutes the cosets, and base^k closes at every coset exactly
    when every cycle of the base's permutation has a length dividing k.
    Each cycle is walked once, a base at a time, from its least coset."""
    if any(-1 in row for row in table):
        return False
    for base, exp in powers:
        seen = [False] * len(table)
        for start in range(len(table)):
            if seen[start]:
                continue
            c, length = start, 0
            while True:
                for x in base:
                    c = table[c][x]
                length += 1
                if c == start:
                    break
                seen[c] = True
            if exp % length:
                return False
    return True


def default_coset_budget(index: int, presentation: Presentation) -> int:
    return 10 * index * len(presentation.generator_names)


def verify_class(rep: TransitiveRep, max_cosets: int | None = None) -> bool | None:
    """Confirm a class's stabilizer has the class's index, by coset count.

    The subgroup is given by its Schreier words as scans (schreier_scans),
    not the simplified words: both generate it, and each raw word walks
    out along the transversal and back.  schreier_scans writes them from
    the rep's one-line images, and they go straight to the enumeration,
    with no coset table, Word or action built.  On every catalog class
    at indices 1-6 it then defines exactly rep.degree cosets with no
    coincidence, so a budget of rep.degree closes it.  The scans leave a
    complete table, on which every relator of a rep that satisfies them
    closes by its base's cycles, so no relator is walked out exponent
    times and the time does not grow with the exponents.

    Returns True when the enumeration closes at the rep's degree, False
    when it closes elsewhere, None when the coset budget overflowed (which
    is inconclusive, not a failure).
    """
    pres = rep.presentation
    budget = max_cosets if max_cosets is not None else default_coset_budget(rep.degree, pres)
    result = _enumerate(pres, schreier_scans(rep), budget)[0]
    if result.status == "overflow":
        return None
    return result.index == rep.degree
