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
from typing import Iterable, Sequence, TypeVar

from .perms import Perm, TransitiveRep
from .presentations import Presentation
from .words import Letter, Word, reduce_letters

T = TypeVar("T")


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


def build_coset_table(rep: TransitiveRep) -> CosetTable:
    """Transversal words use positive generator letters only; for groups
    whose generators are involutions that loses nothing.  Positive words
    never cancel, so prepending a letter needs no reduction."""
    letters = [(g, 1) for g in range(len(rep.assignment.perms))]
    _, written = _transversal(rep.assignment.perms, letters, letters)
    return CosetTable(rep, tuple(map(Word._unchecked, written)))


@dataclass(frozen=True)
class StabilizerGens:
    """Schreier generators before and after rewriting.

    words: the letter view of schreier_scans, one word per non-tree table
    entry, involution-normalized, with later duplicates of an earlier word
    or its inverse dropped.
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


def schreier_scans(rep: TransitiveRep) -> list[tuple[int, ...]]:
    """The Schreier words t_i^-1 g^-1 t_{g(i)} as Todd-Coxeter scans: the
    columns (Presentation.coset_columns) of their letters, rightmost
    first, in (i, g) order, without the empty ones and later repeats of a
    scan or its inverse.  No column x sits next to inverse[x]: free
    reduction that also cancels g g for an involution g, whose one column
    is its own inverse.  Read back as letters they are
    StabilizerGens.words.

    The transversal is build_coset_table's, written in columns by
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
    of_letter, inverse, _, _, _ = rep.presentation.coset_columns
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
    straight to simplify_word's braid rewriting."""
    pres = table.rep.presentation
    letter_of = pres.coset_columns.letter_of
    words = tuple(Word._unchecked(tuple(letter_of[x] for x in reversed(scan)))
                  for scan in schreier_scans(table.rep))
    simplified = _dedup((_braid_rewrite(w.letters, pres) for w in words),
                        pres.involutions)
    return StabilizerGens(words, simplified)


def simplify_word(word: Word, presentation: Presentation) -> Word:
    """Shorten a word without changing the group element it names.

    Rules, applied at the leftmost match until none fires: involution-aware
    free reduction, and the presentation's braid_rules (xyx -> y and
    yxy -> x for each relator (xy)^2 with x, y involutions).  Never
    lengthens, and a second pass is a no-op.
    """
    return Word._unchecked(_braid_rewrite(
        reduce_letters(word.letters, presentation.involutions), presentation))


def _braid_rewrite(letters: tuple[Letter, ...],
                   presentation: Presentation) -> tuple[Letter, ...]:
    """simplify_word on letters already reduced with the involutions: the
    leftmost braid rule fires and the result is reduced again, until no
    rule matches.  A presentation with no braid rules returns at once."""
    rules = presentation.braid_rules
    if not rules:
        return letters
    involutions = presentation.involutions
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

