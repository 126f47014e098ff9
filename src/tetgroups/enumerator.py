"""Enumerate transitive permutation representations up to conjugacy.

An index-n subgroup of a group G corresponds to the transitive action of G
on its n cosets; two subgroups are conjugate in G exactly when the actions
differ by a relabeling of {1..n}.  So the classes enumerated here are
S_n-conjugation orbits of transitive, relator-satisfying assignments, and
each class is the conjugacy class of the stabilizer of point 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import chain, combinations
from math import factorial
from typing import Iterable, Iterator, Sequence

from .perms import (THREE_CYCLE, TRANSPOSITION, Assignment, all_perms,
                    conjugate_assignment, is_transitive, order_masks, perm_tables,
                    word_order)
from .presentations import Presentation
from .words import Letter


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
        object.__setattr__(rep, "presentation", presentation)
        object.__setattr__(rep, "assignment", assignment)
        return rep

    @property
    def degree(self) -> int:
        return self.assignment.degree


class _ImageType:
    """SubgroupClass.image_type: a name given to the constructor, or one
    computed from the rep on first read and kept.

    A dataclass reads a descriptor field's default from __get__ on the class
    (None here: name on read) and sets the field through __set__, so the
    constructor, dataclasses.replace, ==, hash and repr all see the name.
    """

    def __get__(self, instance: SubgroupClass | None, owner: type | None = None) -> str | None:
        if instance is None:
            return None
        name = instance.__dict__["image_type"]
        if name is None:
            n = instance.index
            name = _image_type(_indices(instance.rep.assignment, n), n, transitive=True)
            instance.__dict__["image_type"] = name
        return name

    def __set__(self, instance: SubgroupClass, name: str | None) -> None:
        instance.__dict__["image_type"] = name


@dataclass(frozen=True)
class SubgroupClass:
    """One conjugacy class of index-n subgroups.

    rep is the canonical (lexicographically least) representative of the
    S_n-conjugation orbit; labeled_orbit_size is the orbit's size, i.e. the
    number of labeled transitive homomorphisms in the class.  image_type
    names the rep's image in S_n (classify_image); enumerate_classes leaves
    it to be computed on first read, so a caller that only counts names
    nothing.
    """

    rep: TransitiveRep
    index: int
    labeled_orbit_size: int
    image_type: _ImageType = _ImageType()


def _search(presentation: Presentation, n: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """One (combo, |Stab(combo)|) per S_n-orbit of transitive assignments.

    combo indexes all_perms(n) and is its orbit's least member; the reps come
    out in lexicographic order.  Sets of elements and of relabelings are int
    bitsets over those indices, and a generator's choices are walked in
    ascending bit order.

    A relator is tested once the deepest generator x it uses is placed.  When
    x occurs once in its base, the base is rewritten as w * x with the same
    order (order(u x v) = order(v u x) and order(g) = order(g^-1)), so one
    AND with the row order_masks(n, exp)[w] cuts x's choices; with w the
    identity (a relator on x alone, such as P^2) it cuts them up front.
    Other bases are folded in full for each choice.  That analysis holds no
    degree, so it is made once per presentation (Presentation.search_plan),
    and a call only looks up the rows of order_masks for its degree.

    Transitivity is a mask on the last generator.  The orbits of the placed
    generators are the join of their cycle partitions, carried down as part
    (perm_tables(n).join), so one AND with connecting[part] keeps exactly the
    last choices that make the action transitive, and a leaf is never
    tested.  A choice's orderly test below depends on that choice alone, so
    the cut changes neither the combos nor their order.

    Orderly generation (Read 1978; McKay 1998): a choice i is dropped when a
    relabeling in stab, those fixing the prefix, maps it lower (stab &
    below[i]).  An orbit's least member passes (relabeling keeps relators
    and transitivity); any other is mapped lower where it first differs from
    it.  The next stab is stab & cent[i], so at a leaf stab is the combo's
    stabilizer.
    """
    tables = perm_tables(n)
    comp, inv, below, cent = tables.comp, tables.inv, tables.below, tables.cent
    cycles, join, connecting = tables.cycles, tables.join, tables.connecting
    everything = (1 << len(comp)) - 1
    ranges: list[int] = []
    checks: list[list] = []  # (prefix, order_masks row table) per generator
    folds: list[list] = []  # (letters, allowed orders mask) per generator
    for cuts, at_checks, at_folds in presentation.search_plan:
        allowed = everything
        for exp in cuts:
            allowed &= order_masks(n, exp)[0]
        ranges.append(allowed)
        checks.append([(prefix, order_masks(n, exp)) for prefix, exp in at_checks])
        folds.append([(letters, order_masks(n, exp)[0]) for letters, exp in at_folds])

    chosen = [0] * len(ranges)
    last = len(ranges) - 1

    def extend(depth: int, stab: int, part: int) -> Iterator[tuple[tuple[int, ...], int]]:
        choices = ranges[depth] if depth < last else ranges[depth] & connecting[part]
        for prefix, rows in checks[depth]:
            choices &= rows[_fold(prefix, chosen, comp, inv)]
        for letters, allowed in folds[depth]:
            rest = choices
            while rest:
                bit = rest & -rest
                rest ^= bit
                chosen[depth] = bit.bit_length() - 1
                if not allowed >> _fold(letters, chosen, comp, inv) & 1:
                    choices ^= bit
        while choices:
            bit = choices & -choices
            choices ^= bit
            i = bit.bit_length() - 1
            if stab & below[i]:
                continue
            fixing = stab & cent[i]
            chosen[depth] = i
            if depth < last:
                yield from extend(depth + 1, fixing, join[part][cycles[i]])
            else:
                yield tuple(chosen), fixing.bit_count()

    return extend(0, everything, 0)


def _fold(letters: Iterable[Letter], chosen: Sequence[int],
          comp: tuple[tuple[int, ...], ...], inv: tuple[int, ...]) -> int:
    """Index of the image of a word's letters, the rightmost acting first."""
    res = 0
    for gen, sign in letters:
        img = chosen[gen]
        res = comp[res][inv[img] if sign < 0 else img]
    return res


def enumerate_candidates(presentation: Presentation, n: int) -> list[Assignment]:
    """Transitive, relator-satisfying assignments in lexicographic order: the
    union of the class reps' orbits.

    A rep's orbit is read off its elements' columns of perm_tables(n).conj,
    zipped: row s of the zip is the rep conjugated by relabeling s.
    """
    names = presentation.generator_names
    perms = all_perms(n)  # refuses an index outside 1..MAX_DEGREE
    conj = perm_tables(n).conj
    combos: set[tuple[int, ...]] = set()
    for combo, _ in _search(presentation, n):
        combos.update(zip(*map(conj.__getitem__, combo)))
    return [Assignment._unchecked(names, tuple(map(perms.__getitem__, combo)))
            for combo in sorted(combos)]


def canonical_form(assignment: Assignment) -> Assignment:
    """Lexicographically least S_n-conjugate (one-line tuples, generator order)."""
    return min((conjugate_assignment(assignment, sigma)
                for sigma in all_perms(assignment.degree)), key=Assignment.key)


def _is_transitive(combo: Sequence[int], n: int) -> bool:
    """Do the elements combo indexes have one orbit?  Their orbits are the
    join of their cycle partitions (perm_tables(n).join)."""
    tables = perm_tables(n)
    part = 0
    for i in combo:
        part = tables.join[part][tables.cycles[i]]
    return part == len(tables.join) - 1


def _jordan_order(combo: Sequence[int], n: int) -> int | None:
    """The order of the transitive group combo generates, by Jordan's
    theorem, or None where the theorem does not settle it.

    The group is primitive when no generator keeps the blocks of a block
    system, which every generator must keep (perm_tables(n).blocks).  A primitive
    group with a transposition is S_n, and one with a 3-cycle contains A_n,
    all of S_n exactly when a generator is odd (Dixon-Mortimer, *Permutation
    Groups*, 1996, sec. 3.3).  The elements searched for such a power are
    the generators and their pairwise products.
    """
    tables = perm_tables(n)
    kept = -1
    for i in combo:
        kept &= tables.blocks[i]
    if kept:
        return None
    comp, power = tables.comp, tables.power
    kind = max(power[x] for x in chain(combo, (comp[a][b] for a, b in combinations(combo, 2))))
    if kind == TRANSPOSITION:
        return factorial(n)
    if kind == THREE_CYCLE:
        return _alternating_or_symmetric(combo, n)
    return None


def _alternating_or_symmetric(combo: Sequence[int], n: int) -> int:
    """The order of the group combo generates, given that it contains A_n:
    n! when a generator is odd, else n!/2."""
    odd = perm_tables(n).odd
    return factorial(n) // (1 if any(odd[i] for i in combo) else 2)


def _image_type(combo: Sequence[int], n: int, transitive: bool) -> str:
    """classify_image on indices of all_perms(n), told whether the image is
    transitive.

    At degree 5 and up a transitive image is named by _jordan_order where it
    applies.  Otherwise the image is closed breadth first from the
    generators, and at degrees up to 4 its elements tell Z4 from V.  At
    degree 5 and up, A_n and S_n are the only subgroups of index below n
    (Dixon-Mortimer, sec. 5.2), so the closure stops once it has listed more
    than (n-1)! elements, and the image is A_n or S_n by parity.
    """
    size = _jordan_order(combo, n) if n >= 5 and transitive else None
    if size is None:
        tables = perm_tables(n)
        rows, order = [tables.comp[x] for x in combo], tables.order
        most = factorial(n - 1) if n >= 5 else factorial(n)
        elements, frontier = {0}, {0}
        while frontier and len(elements) <= most:
            frontier = {row[g] for g in frontier for row in rows} - elements
            elements |= frontier
        size = len(elements) if len(elements) <= most else _alternating_or_symmetric(combo, n)
    if size == 1:
        return "1"
    if n == 2:
        return "S2"
    if n == 3:
        return {3: "Z3", 6: "S3"}.get(size, f"G{size}")
    if n == 4:
        if size == 4:
            has_4cycle = any(order[g] == 4 for g in elements)
            return "Z4" if has_4cycle else "V"
        return {8: "D4", 12: "A4", 24: "S4"}.get(size, f"G{size}")
    return f"G{size}"


@cache
def _perm_index(n: int) -> dict[tuple[int, ...], int]:
    """Index in all_perms(n) of each one-line tuple."""
    return {p.images: i for i, p in enumerate(all_perms(n))}


def _indices(assignment: Assignment, n: int) -> list[int]:
    """The indices in all_perms(n) of a degree-n assignment's images."""
    index = _perm_index(n)
    return [index[p.images] for p in assignment.perms]


def classify_image(assignment: Assignment) -> str:
    """Name the subgroup of S_n generated by the images.

    Degrees up to 4 get the usual names (1, S2, Z3, S3, V, Z4, D4, A4, S4);
    past that the label just records the order.  Any assignment is named:
    Jordan's theorem, which names most transitive images of degree 5 and up
    without listing them, is only tried on a transitive one, and every
    other image is listed from its generators.
    """
    n = assignment.degree
    combo = _indices(assignment, n)
    return _image_type(combo, n, _is_transitive(combo, n))


def enumerate_classes(presentation: Presentation, n: int) -> list[SubgroupClass]:
    """Conjugacy classes of index-n subgroups, sorted by canonical rep.

    The search yields each S_n-orbit once, at its least member, with the
    member's stabilizer, so the orbit has n!/|Stab| labeled members.  Each
    combo is checked on the search's tables before its rep is built: every
    relator's base folds to an element whose order divides the exponent,
    and the generators' cycle partitions join to one block.  A combo that
    fails raises RuntimeError.  No image is named here: a class's
    image_type is computed when it is first read, from the rep's indices
    (_image_type, told the rep is transitive), by Jordan's theorem where it
    applies.
    """
    perms = all_perms(n)  # refuses an index outside 1..MAX_DEGREE
    tables = perm_tables(n)
    comp, inv, order = tables.comp, tables.inv, tables.order
    names = presentation.generator_names
    classes = []
    for combo, stab in _search(presentation, n):
        if (not _is_transitive(combo, n)
                or any(exp % order[_fold(base.letters, combo, comp, inv)]
                       for base, exp in presentation.relator_powers)):
            raise RuntimeError(f"the search yielded {combo}, not a transitive rep of "
                               f"the {presentation.kind} group {presentation.symbol} "
                               f"at index {n}")
        rep = TransitiveRep._unchecked(
            presentation, Assignment._unchecked(names, tuple(map(perms.__getitem__, combo))))
        classes.append(SubgroupClass(rep=rep, index=n,
                                     labeled_orbit_size=factorial(n) // stab))
    return classes


def count_distinct_subgroups(presentation: Presentation, n: int) -> int:
    """Index-n subgroups counted plainly, not up to conjugacy.

    Subgroups are stabilizers of point 1.  The (n-1)! relabelings fixing 1
    permute the transitive assignments with a given stabilizer transitively,
    and freely (only the identity fixes a point and commutes with a
    transitive group), so the labeled count, the sum of the orbit sizes
    n!/|Stab|, is (n-1)! times the subgroup count.
    """
    labeled = sum(factorial(n) // stab for _, stab in _search(presentation, n))
    subgroups, rest = divmod(labeled, factorial(n - 1))
    if rest:
        raise RuntimeError(f"{labeled} labeled assignments at index {n} "
                           f"are not a multiple of {n - 1}!")
    return subgroups
