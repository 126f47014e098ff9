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
from typing import Iterable

from .enumerator import TransitiveRep
from .perms import evaluate_word
from .presentations import Presentation
from .words import Letter, Word, reduce_letters


@dataclass(frozen=True)
class CosetTable:
    """A class's coset table, which is also its coloring.

    Color i is the coset at point i of rep.  transversal[i-1] names it by
    the shortest (then lexicographically least) word carrying point 1 to i,
    so transversal[0] is the empty word.  The generators permute the colors
    as rep.assignment permutes the points.
    """

    rep: TransitiveRep
    transversal: tuple[Word, ...]

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


def build_coset_table(rep: TransitiveRep) -> CosetTable:
    """Transversal words use positive generator letters only; for groups
    whose generators are involutions that loses nothing."""
    n = rep.degree
    perms = rep.assignment.perms

    # Breadth-first, new words by prepending a generator: t_j = g t_i gives
    # evaluate(t_j)(1) = g(t_i(1)) = g(i) = j.  Scanning generators in the
    # outer loop makes each level come out in word order, so the first word
    # reaching a point is its lexicographic minimum among shortest words.
    # Positive words never cancel, so prepending needs no reduction.
    transversal: dict[int, Word] = {1: Word.empty()}
    frontier = [1]
    while len(transversal) < n:
        next_frontier = []
        for g, perm in enumerate(perms):
            for i in frontier:
                j = perm.apply(i)
                if j not in transversal:
                    transversal[j] = Word._unchecked(((g, 1),) + transversal[i].letters)
                    next_frontier.append(j)
        frontier = next_frontier
    return CosetTable(rep, tuple(transversal[i] for i in range(1, n + 1)))


@dataclass(frozen=True)
class StabilizerGens:
    """Schreier generators before and after rewriting.

    words: schreier_words, one word per non-tree table entry,
    involution-normalized, with later duplicates of an earlier word or its
    inverse dropped.
    simplified: the same list pushed through simplify_word and deduplicated
    again.  Both lists generate the stabilizer of point 1.
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
           involutions: frozenset[int]) -> tuple[Word, ...]:
    """Drop the empty words and later repeats of a word or its inverse,
    given as letter tuples reduced with the involutions.

    A reduced word's inverse is reduced too, so it is written down
    directly: letters reversed, and signs flipped except on involutions,
    which reduction keeps at +1."""
    kept: list[Word] = []
    seen: set[tuple] = set()
    for letters in words:
        if not letters or letters in seen:
            continue
        kept.append(Word._unchecked(letters))
        seen.add(letters)
        seen.add(tuple((g, s if g in involutions else -s)
                       for g, s in reversed(letters)))
    return tuple(kept)


def schreier_scans(table: CosetTable) -> list[tuple[int, ...]]:
    """The Schreier words t_i^-1 g^-1 t_{g(i)} as Todd-Coxeter scans: the
    columns (Presentation.coset_columns) of their letters, rightmost
    first, in (i, g) order, without the empty ones and later repeats of a
    scan or its inverse.  Adjacent columns x and inverse[x] cancel: free
    reduction that also cancels g g for an involution g, whose one column
    is its own inverse.
    """
    of_letter, inverse, _, _ = table.rep.presentation.coset_columns
    forward = [tuple(of_letter[letter] for letter in reversed(t.letters))
               for t in table.transversal]
    scans: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for i, t_i in enumerate(forward):
        t_i_inverse = tuple(map(inverse.__getitem__, t_i[::-1]))
        for g, perm in enumerate(table.rep.assignment.perms):
            reduced: list[int] = []
            for x in forward[perm.images[i] - 1] + (of_letter[(g, -1)],) + t_i_inverse:
                if reduced and reduced[-1] == inverse[x]:
                    reduced.pop()
                else:
                    reduced.append(x)
            scan = tuple(reduced)
            if scan and scan not in seen:
                scans.append(scan)
                seen.add(scan)
                seen.add(tuple(map(inverse.__getitem__, scan[::-1])))
    return scans


def schreier_words(table: CosetTable) -> tuple[Word, ...]:
    """The letter view of schreier_scans: each scan read back left to
    right as letters, an involution's with sign +1.  They generate the
    stabilizer of point 1."""
    letter_of = table.rep.presentation.coset_columns.letter_of
    return tuple(Word._unchecked(tuple(letter_of[x] for x in reversed(scan)))
                 for scan in schreier_scans(table))


def schreier_generators(table: CosetTable) -> StabilizerGens:
    pres = table.rep.presentation
    words = schreier_words(table)
    simplified = _dedup((simplify_word(w, pres).letters for w in words),
                        pres.involutions)
    return StabilizerGens(words, simplified)


def simplify_word(word: Word, presentation: Presentation) -> Word:
    """Shorten a word without changing the group element it names.

    Rules, applied at the leftmost match until none fires: involution-aware
    free reduction, and the presentation's braid_rules (xyx -> y and
    yxy -> x for each relator (xy)^2 with x, y involutions).  Never
    lengthens, and a second pass is a no-op.
    """
    rules = presentation.braid_rules
    involutions = presentation.involutions
    # Reduction gives every involution letter the sign +1, so a window of
    # rule letters never needs its signs checked.
    letters = reduce_letters(word.letters, involutions)
    while True:
        for pos in range(len(letters) - 2):
            replacement = rules.get((letters[pos][0], letters[pos + 1][0],
                                     letters[pos + 2][0]))
            if replacement is not None:
                break
        else:
            return Word._unchecked(letters)
        letters = reduce_letters(letters[:pos] + ((replacement, 1),) + letters[pos + 3:],
                                 involutions)


def same_subgroup(rep1: TransitiveRep, rep2: TransitiveRep) -> bool:
    """Do the two reps have the same point-1 stabilizer?

    They do exactly when a relabeling sigma fixing point 1 carries rep1's
    action to rep2's, and only one sigma can: rep1's transversal word t_i
    carries 1 to i, so sigma(i) = sigma(t_i(1)) = t_i'(sigma(1)) = t_i'(1),
    with t_i' the image of t_i under rep2.  So the answer is whether that
    sigma commutes with every generator.  It is then a bijection for free:
    its image is closed under rep2's generators, and rep2 is transitive.
    Reps of different groups (other generators or relators) never match.
    """
    if rep1.degree != rep2.degree:
        return False
    pres1, pres2 = rep1.presentation, rep2.presentation
    if (pres1.generator_names != pres2.generator_names
            or pres1.relator_powers != pres2.relator_powers):
        return False
    a2 = rep2.assignment
    sigma = [evaluate_word(t, a2).apply(1)
             for t in build_coset_table(rep1).transversal]
    return all(sigma[g1.apply(i) - 1] == g2.apply(sigma_i)
               for g1, g2 in zip(rep1.assignment.perms, a2.perms)
               for i, sigma_i in enumerate(sigma, start=1))
