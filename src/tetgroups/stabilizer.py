"""Stabilizer of point 1: transversal, Schreier words and their coset check.

For a transitive rep the stabilizer L of point 1 is the subgroup the class
stands for.  A transversal word t_i carries point 1 to i; the Schreier
generator attached to coset i and generator g is

    w = t_i^-1 g^-1 t_{g(i)}

which fixes point 1 by construction, and the tree edges used to build the
transversal give the trivial word.  These words generate L.

todd_coxeter independently confirms that a claimed stabilizer really has
the claimed index, by coset enumeration over the presentation; verify_class
runs its enumeration on a class's raw Schreier words, as schreier_scans
writes them.  Each presentation is read once, by _coset_layout, and
nothing here imports the enumerator or numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, cached_property
from typing import Iterable, NamedTuple, Sequence, TypeVar

from .perms import Assignment, Perm, TransitiveRep
from .presentations import Presentation
from .words import Letter, Word, reduce_letters

T = TypeVar("T")


@dataclass(frozen=True)
class CosetTable:
    """A class's coset table, which is also its coloring.

    Color i is the coset at point i of rep.  transversal[i-1] names it by
    the shortest (then lexicographically least) word carrying point 1 to i,
    so transversal[0] is the empty word; it is walked on first read.  The
    generators permute the colors as rep.assignment permutes the points.
    """

    rep: TransitiveRep

    @cached_property
    def transversal(self) -> tuple[Word, ...]:
        """Transversal words use positive generator letters only; for
        groups whose generators are involutions that loses nothing.
        Positive words never cancel, so prepending a letter needs no
        reduction."""
        perms = self.rep.assignment.perms
        letters = [(g, 1) for g in range(len(perms))]
        _, written = _transversal(perms, letters, letters)
        return tuple(map(Word._unchecked, written))

    def as_json_dict(self) -> dict:
        action = self.rep.assignment
        return {
            "index": self.rep.degree,
            "coset_words": [w.render(action.names) for w in self.transversal],
            "action": action.as_dict(),
        }

    def as_csv_rows(self) -> list[tuple[str, int, int]]:
        """One row per (generator, color, image color)."""
        action = self.rep.assignment
        return [(name, color, perm.apply(color))
                for name, perm in zip(action.names, action.perms)
                for color in range(1, self.rep.degree + 1)]


def _transversal(perms: Sequence[Perm], ahead: Sequence[T],
                 back: Sequence[T]) -> tuple[list[tuple[T, ...]], list[tuple[T, ...]]]:
    """The transversal words t_i, each spelled two ways, by point (t_i at
    i - 1): forward[j] is forward[i] then ahead[g], and backward[j] is
    back[g] then backward[i], for the tree edge t_j = g t_i.  t_1 is
    empty.

    Breadth-first, new words by prepending a generator: t_j = g t_i gives
    evaluate(t_j)(1) = g(t_i(1)) = g(i) = j.  Scanning generators in the
    outer loop makes each level come out in word order, so the first word
    reaching a point is its lexicographic minimum among shortest positive
    words.
    """
    forward: list[tuple[T, ...] | None] = [None] * len(perms[0].images)
    backward: list[tuple[T, ...]] = [()] * len(forward)
    forward[0] = ()
    frontier = [0]
    while frontier:
        next_frontier = []
        for g, perm in enumerate(perms):
            images = perm.images
            for i in frontier:
                j = images[i] - 1
                if forward[j] is None:
                    forward[j] = forward[i] + (ahead[g],)
                    backward[j] = (back[g],) + backward[i]
                    next_frontier.append(j)
        frontier = next_frontier
    return forward, backward


class CosetLayout(NamedTuple):
    """A presentation as the coset check reads it (_coset_layout).

    of_letter maps each letter (g, +1 or -1) to its column: one
    self-inverse column per involution, a pair (g, g^-1) per other
    generator.  inverse[x] is the column of x's inverse.  powers lists
    each relator base^k but an involution's square, which holds in every
    table, as (its base's columns, rightmost letter first, k), so the
    layout does not grow with the exponents.  letter_of[x] is column x's
    letter, (g, +1) for an involution's, and inverse_letter each letter's
    inverse in that form.  braid_rules map xyx to y and yxy to x for each
    relator (xy)^2 with x, y distinct involutions.
    """

    of_letter: dict[Letter, int]
    inverse: tuple[int, ...]
    powers: tuple[tuple[tuple[int, ...], int], ...]
    letter_of: tuple[Letter, ...]
    inverse_letter: dict[Letter, Letter]
    braid_rules: dict[tuple[int, int, int], int]


@cache
def _coset_layout(presentation: Presentation) -> CosetLayout:
    """presentation's CosetLayout, built once per presentation."""
    involutions = presentation.involutions
    of_letter: dict[Letter, int] = {}
    inverse: list[int] = []
    letter_of: list[Letter] = []
    for g in range(len(presentation.generator_names)):
        col = len(inverse)
        if g in involutions:
            of_letter[(g, 1)] = of_letter[(g, -1)] = col
            inverse.append(col)
            letter_of.append((g, 1))
        else:
            of_letter[(g, 1)], of_letter[(g, -1)] = col, col + 1
            inverse += [col + 1, col]
            letter_of += [(g, 1), (g, -1)]
    powers, braid_rules = [], {}
    for base, k in presentation.relator_powers:
        if len(base) == 1 and k == 2:
            continue  # an involution's g^2 holds in every table
        powers.append((tuple(of_letter[letter] for letter in reversed(base.letters)), k))
        if k == 2 and len(base) == 2:
            x, y = base.letters[0][0], base.letters[1][0]
            if x != y and x in involutions and y in involutions:
                braid_rules[(x, y, x)] = y
                braid_rules[(y, x, y)] = x
    inverse_letter = {letter: letter_of[inverse[x]] for letter, x in of_letter.items()}
    return CosetLayout(of_letter, tuple(inverse), tuple(powers), tuple(letter_of),
                       inverse_letter, braid_rules)


def build_coset_table(rep: TransitiveRep) -> CosetTable:
    """rep's coset table; nothing is walked until its transversal is read."""
    return CosetTable(rep)


@dataclass(frozen=True)
class StabilizerGens:
    """Schreier generators before and after rewriting.

    words: the letter view of schreier_scans, one word per non-tree table
    entry, involution-normalized, with later duplicates of an earlier word
    or its inverse dropped.
    simplified: the same list pushed through simplify_word and deduplicated
    again; the words themselves when no braid rule fires on them.  Both
    lists generate the stabilizer of point 1.
    """

    words: tuple[Word, ...]
    simplified: tuple[Word, ...]


def raw_schreier_words(table: CosetTable) -> list[Word]:
    """All n*k formal words t_i^-1 g^-1 t_{g(i)}, freely reduced only.

    Exactly n-1 of them are trivial: the tree edges of the transversal.
    """
    perms = table.rep.assignment.perms
    return [Word._unchecked(reduce_letters((~t_i).letters + ((g, -1),)
                                           + table.transversal[perm.apply(i) - 1].letters))
            for i, t_i in enumerate(table.transversal, start=1)
            for g, perm in enumerate(perms)]


def _dedup(words: Iterable[tuple[Letter, ...]],
           inverse_letter: dict[Letter, Letter]) -> tuple[Word, ...]:
    """Drop the empty words and later repeats of a word or its inverse,
    given as letter tuples reduced with the presentation's involutions.

    A reduced word's inverse is reduced too, so it is written down
    directly: letters reversed, each through inverse_letter, which flips
    signs except on involutions, kept at +1 by reduction."""
    inverse = inverse_letter.__getitem__
    kept: list[Word] = []
    seen: set[tuple] = set()
    for letters in words:
        if not letters or letters in seen:
            continue
        kept.append(Word._unchecked(letters))
        seen.add(letters)
        seen.add(tuple(map(inverse, reversed(letters))))
    return tuple(kept)


def schreier_scans(rep: TransitiveRep) -> list[tuple[int, ...]]:
    """The Schreier words t_i^-1 g^-1 t_{g(i)} as Todd-Coxeter scans: the
    columns (CosetLayout.of_letter) of their letters, rightmost
    first, in (i, g) order, without the empty ones and later repeats of a
    scan or its inverse.  No column x sits next to inverse[x]: free
    reduction that also cancels g g for an involution g, whose one column
    is its own inverse.  Read back as letters they are
    StabilizerGens.words.

    The transversal is CosetTable.transversal's, written in columns by
    _transversal: forward[i] holds t_i's columns in the order they act,
    and backward[i] t_i^-1's.  A scan is forward[g(i)], x = g^-1's column
    and backward[i], joined as they are.  forward[i] is reduced (positive
    columns, and an involution's column twice in a row would make a point
    its own grandparent), so a scan can only cancel at a join, and a join
    cancels only when (i, g) is a tree edge, or the reverse of one through
    a self-inverse column: then the whole scan cancels.  Any other scan
    walks from coset 1 to g(i), across one edge outside the tree to i and
    home, so two scans are equal or mutually inverse only when they cross
    the same edge: an involution's (i, g) and (g(i), g), of which the one
    with g(i) < i comes second.
    """
    layout = _coset_layout(rep.presentation)
    of_letter, inverse = layout.of_letter, layout.inverse
    perms = rep.assignment.perms
    columns = [of_letter[(g, 1)] for g in range(len(perms))]
    forward, backward = _transversal(perms, columns, [inverse[x] for x in columns])
    steps = [(of_letter[(g, -1)], perm.images) for g, perm in enumerate(perms)]
    scans: list[tuple[int, ...]] = []
    for i, t_i_inverse in enumerate(backward):
        for x, images in steps:
            t_gi = forward[images[i] - 1]
            x_inverse = inverse[x]
            if ((t_gi and t_gi[-1] == x_inverse)
                    or (t_i_inverse and t_i_inverse[0] == x_inverse)
                    or (x == x_inverse and images[i] - 1 < i)):
                continue
            scans.append(t_gi + (x,) + t_i_inverse)
    return scans


def schreier_generators(table: CosetTable) -> StabilizerGens:
    """The Schreier words and their simplified forms.  The words are
    schreier_scans read back left to right as letters, an involution's
    with sign +1, so they are reduced with the involutions already and go
    straight to simplify_word's braid rewriting.  When no braid rule fires
    on any of them, the simplified words are the words themselves:
    schreier_scans has already dropped the empty scans and later repeats
    of a scan or its inverse, so _dedup would keep every word as it is."""
    pres = table.rep.presentation
    layout = _coset_layout(pres)
    letter = layout.letter_of.__getitem__
    letters = [tuple(map(letter, reversed(scan))) for scan in schreier_scans(table.rep)]
    words = tuple(map(Word._unchecked, letters))
    rules, involutions = layout.braid_rules, pres.involutions
    rewritten = [_braid_rewrite(w, rules, involutions) for w in letters]
    simplified = words if rewritten == letters else _dedup(rewritten, layout.inverse_letter)
    return StabilizerGens(words, simplified)


def simplify_word(word: Word, presentation: Presentation) -> Word:
    """Shorten a word without changing the group element it names.

    Rules, applied at the leftmost match until none fires: involution-aware
    free reduction, and the braid rules (CosetLayout.braid_rules: xyx -> y
    and yxy -> x for each relator (xy)^2 with x, y involutions).  Never
    lengthens, and a second pass is a no-op.
    """
    involutions = presentation.involutions
    return Word._unchecked(_braid_rewrite(reduce_letters(word.letters, involutions),
                                          _coset_layout(presentation).braid_rules,
                                          involutions))


def _braid_rewrite(letters: tuple[Letter, ...], rules: dict[tuple[int, int, int], int],
                   involutions: frozenset[int]) -> tuple[Letter, ...]:
    """simplify_word on letters already reduced with the involutions: the
    leftmost braid rule fires and the result is reduced again, until no
    rule matches.  With no braid rules it returns at once."""
    if not rules:
        return letters
    # Reduction gives every involution letter the sign +1, so a window of
    # rule letters never needs its signs checked.
    while True:
        for pos in range(len(letters) - 2):
            replacement = rules.get((letters[pos][0], letters[pos + 1][0],
                                     letters[pos + 2][0]))
            if replacement is not None:
                break
        else:
            return letters
        letters = reduce_letters(letters[:pos] + ((replacement, 1),) + letters[pos + 3:],
                                 involutions)


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
    CosetLayout), so their squares are never scanned.

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
    layout = _coset_layout(presentation)
    of_letter = layout.of_letter
    result, table, live = _enumerate(
        layout, [tuple(of_letter[letter] for letter in reversed(w.letters))
                 for w in subgroup_words], max_cosets)
    if result.status == "overflow":
        return result
    renumber = {root: i + 1 for i, root in enumerate(live)}
    images = tuple(Perm(tuple(renumber[table[root][of_letter[(g, 1)]]] for root in live))
                   for g in range(k))
    return replace(result, action=Assignment(presentation.generator_names, images))


def _enumerate(layout: CosetLayout, scans: list[tuple[int, ...]], max_cosets: int,
               ) -> tuple[TCResult, list[list[int]], list[int]]:
    """todd_coxeter's enumeration, on the subgroup words' scans: their
    columns (layout.of_letter), rightmost letter first.  Returns
    the result without its action, the table and its live cosets.

    When the subgroup scans leave a complete table with no coincidence,
    and every relator closes on it by its base's cycles (_closes_by_cycles),
    the relator loop is skipped: each of its scans would walk back to its
    start and change nothing, so the result is the one it would return.
    Only when the loop runs is each relator written out, base * k, for
    scan_and_fill; a scan that walks back to its start changes nothing."""
    if max_cosets < 1:
        return TCResult("overflow"), [], []
    inverse, powers = layout.inverse, layout.powers
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
            while i <= j and (d := table[f][word[i]]) >= 0:
                f = d
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and (d := table[b][inverse[word[j]]]) >= 0:
                b = d
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
        if coincidences or not _closes_by_cycles(table, powers):
            relators = [base * k for base, k in powers]
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
    closes by its base's cycles, so no relator is written out exponent
    times and the time does not grow with the exponents.

    Returns True when the enumeration closes at the rep's degree, False
    when it closes elsewhere, None when the coset budget overflowed (which
    is inconclusive, not a failure).
    """
    pres = rep.presentation
    budget = max_cosets if max_cosets is not None else default_coset_budget(rep.degree, pres)
    result = _enumerate(_coset_layout(pres), schreier_scans(rep), budget)[0]
    if result.status == "overflow":
        return None
    return result.index == rep.degree
