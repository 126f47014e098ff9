"""Stabilizer of point 1: transversal, Schreier generators, simplification.

For a transitive rep the stabilizer L of point 1 is the subgroup the class
stands for.  A transversal word t_i carries point 1 to i; the Schreier
generator attached to coset i and generator g is

    w = t_i^-1 g^-1 t_{g(i)}

which fixes point 1 by construction, and the tree edges used to build the
transversal give the trivial word.  These words generate L.
"""

from __future__ import annotations

from dataclasses import dataclass

from .enumerator import TransitiveRep
from .perms import Assignment, all_perms, conjugate_assignment, evaluate_word
from .presentations import Presentation
from .words import Word


@dataclass(frozen=True)
class CosetTable:
    """Action table and transversal of a transitive rep.

    table[i-1][g] is the image of point i under generator g.  transversal
    words are the shortest (then lexicographically least) words carrying
    point 1 to each point; transversal[0] is the empty word.
    """

    rep: TransitiveRep
    table: tuple[tuple[int, ...], ...]
    transversal: tuple[Word, ...]


def build_coset_table(rep: TransitiveRep) -> CosetTable:
    """Transversal words use positive generator letters only; for groups
    whose generators are involutions that loses nothing."""
    n = rep.degree
    perms = rep.assignment.perms
    k = len(perms)
    table = tuple(tuple(perms[g].apply(i) for g in range(k))
                  for i in range(1, n + 1))

    # Breadth-first, new words by prepending a generator: t_j = g t_i gives
    # evaluate(t_j)(1) = g(t_i(1)) = g(i) = j.  Scanning generators in the
    # outer loop makes each level come out in word order, so the first word
    # reaching a point is its lexicographic minimum among shortest words.
    transversal: dict[int, Word] = {1: Word.empty()}
    frontier = [1]
    while len(transversal) < n:
        next_frontier = []
        for g in range(k):
            for i in frontier:
                j = perms[g].apply(i)
                if j not in transversal:
                    transversal[j] = Word.gen(g) * transversal[i]
                    next_frontier.append(j)
        frontier = next_frontier
    return CosetTable(rep, table, tuple(transversal[i] for i in range(1, n + 1)))


@dataclass(frozen=True)
class StabilizerGens:
    """Schreier generators before and after rewriting.

    words: one word per non-tree table entry, involution-normalized, with
    later duplicates of an earlier word or its inverse dropped.
    simplified: the same list pushed through simplify_word and deduplicated
    again.  Both lists generate the stabilizer of point 1.
    """

    rep: TransitiveRep
    words: tuple[Word, ...]
    simplified: tuple[Word, ...]


def raw_schreier_words(table: CosetTable) -> list[Word]:
    """All n*k formal words t_i^-1 g^-1 t_{g(i)}, freely reduced only.

    Exactly n-1 of them are trivial: the tree edges of the transversal.
    """
    rep = table.rep
    n = rep.degree
    out = []
    for i in range(1, n + 1):
        for g in range(len(rep.assignment.perms)):
            j = table.table[i - 1][g]
            word = (~table.transversal[i - 1]) * Word.gen(g, -1) * table.transversal[j - 1]
            out.append(word)
    return out


def _dedup(words: list[Word], pres: Presentation) -> tuple[Word, ...]:
    kept: list[Word] = []
    seen: set[tuple] = set()
    for w in words:
        r = pres.reduce(w)
        if r.is_empty() or r.letters in seen:
            continue
        kept.append(r)
        seen.add(r.letters)
        seen.add(pres.reduce(~r).letters)
    return tuple(kept)


def schreier_generators(table: CosetTable) -> StabilizerGens:
    pres = table.rep.presentation
    words = _dedup(raw_schreier_words(table), pres)
    simplified = _dedup([simplify_word(w, pres) for w in words], pres)
    return StabilizerGens(table.rep, words, simplified)


def simplify_word(word: Word, presentation: Presentation) -> Word:
    """Shorten a word without changing the group element it names.

    Rules, applied at the leftmost match until none fires: involution-aware
    free reduction, and for each relator (xy)^2 with x, y involutions the
    rewrites xyx -> y and yxy -> x.  Never lengthens, and a second pass is
    a no-op.
    """
    rules: dict[tuple[int, int, int], int] = {}
    for base, k in presentation.relator_powers:
        if k == 2 and len(base) == 2:
            x, y = base.letters[0][0], base.letters[1][0]
            if x != y and x in presentation.involutions and y in presentation.involutions:
                rules[(x, y, x)] = y
                rules[(y, x, y)] = x

    # reduce gives every involution letter the sign +1, so a window of
    # rule letters never needs its signs checked.
    current = presentation.reduce(word)
    while True:
        letters = current.letters
        for pos in range(len(letters) - 2):
            replacement = rules.get((letters[pos][0], letters[pos + 1][0],
                                     letters[pos + 2][0]))
            if replacement is not None:
                break
        else:
            return current
        current = presentation.reduce(
            Word(letters[:pos] + ((replacement, 1),) + letters[pos + 3:]))


def same_subgroup(rep1: TransitiveRep, rep2: TransitiveRep) -> bool:
    """Do the two reps have the same point-1 stabilizer?

    True when some relabeling fixing point 1 carries one assignment to the
    other; conjugating by such a sigma leaves the stabilizer untouched.
    """
    if rep1.degree != rep2.degree:
        return False
    if rep1.presentation.generator_names != rep2.presentation.generator_names:
        return False
    target = rep2.assignment.key()
    for sigma in all_perms(rep1.degree):
        if sigma.apply(1) != 1:
            continue
        if conjugate_assignment(rep1.assignment, sigma).key() == target:
            return True
    return False


def stabilizer_words_check(table: CosetTable) -> bool:
    """Every deduplicated Schreier word really fixes point 1."""
    gens = schreier_generators(table)
    a: Assignment = table.rep.assignment
    return all(evaluate_word(w, a).apply(1) == 1
               for w in gens.words + gens.simplified)
