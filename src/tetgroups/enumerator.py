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
from math import factorial, gcd, lcm
from operator import getitem
from typing import Iterable, Iterator, NamedTuple, Sequence

from .perms import Assignment, TransitiveRep, all_perms, conjugate_assignment
from .presentations import Presentation
from .words import Letter

# PermTables.power's values; a power that is a transposition outranks one
# that is a 3-cycle, so the strongest of several elements is their max.
THREE_CYCLE = 1
TRANSPOSITION = 2


# perm_tables(n) is what bounds the degree (perms.MAX_DEGREE).  It holds
# two tables of n!^2 entries, the composition and the conjugation table:
# 518k each at 6, where the whole table builds in 0.2-0.3 s, and 25M at 7,
# which no longer fits a laptop-scale job.  Its other parts are smaller:
# the search's bitsets are n! ints of n! bits each, under 100 kB at 6, and
# the partition joins number Bell(n)^2, 41k at 6 (Bell(6) = 203) and 769k
# at 7 (Bell(7) = 877).
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


@cache
def _perm_index(n: int) -> dict[tuple[int, ...], int]:
    """Index in all_perms(n) of each one-line tuple."""
    return {p.images: i for i, p in enumerate(all_perms(n))}


@cache
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
    index = _perm_index(n)
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
    del zero_based, gen_rows, rows, columns, inverse_columns

    below = tuple(sum(1 << s for s, c in enumerate(col) if c < i) for i, col in enumerate(conj))
    cent = tuple(sum(1 << s for s, c in enumerate(col) if c == i) for i, col in enumerate(conj))

    partitions = [tuple(range(n))]
    index = {partitions[0]: 0}
    parent = [(0, 0)]  # (parent, merged pair); pair 0 is (0, 0), a no-op
    merge = []
    for at, p in enumerate(partitions):  # grows until every partition is reached
        row = [at] * (n * n)
        for a, b in combinations(range(n), 2):
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


@cache
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


@cache
def orderly_mask(n: int, stab: int) -> int:
    """Bit i set when no relabeling in the bitset stab maps element i lower,
    so stab & perm_tables(n).below[i] is empty: the choices that pass the
    orderly test below a prefix whose stabilizer is stab."""
    below = perm_tables(n).below
    return sum(1 << i for i, lower in enumerate(below) if not stab & lower)


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

    enumerate_classes, which knows each index is its rep's degree, builds
    its classes through _unchecked, as reps are built through
    TransitiveRep._unchecked.
    """

    rep: TransitiveRep
    index: int
    labeled_orbit_size: int
    image_type: _ImageType = _ImageType()

    def __post_init__(self) -> None:
        if self.index != self.rep.degree:
            raise ValueError(f"index {self.index} differs from the rep's degree "
                             f"{self.rep.degree}")

    @classmethod
    def _unchecked(cls, rep: TransitiveRep, index: int,
                   labeled_orbit_size: int) -> SubgroupClass:
        """A class whose index is its rep's degree already; its image is
        named on first read."""
        subgroup_class = object.__new__(cls)
        fields = subgroup_class.__dict__  # frozen: filled directly, not set
        fields["rep"] = rep
        fields["index"] = index
        fields["labeled_orbit_size"] = labeled_orbit_size
        fields["image_type"] = None
        return subgroup_class


@cache
def _search_rows(presentation: Presentation,
                 n: int) -> tuple[tuple[int, tuple, tuple, tuple], ...]:
    """_search's relators read at degree n, one (range, singles, checks,
    folds) per generator, built once per presentation and degree like
    order_masks.

    A relator is placed at the deepest generator x of its base.  When x
    occurs once, at j, the base is rotated to put x last, since
    order(u x v) = order(v u x); when that x is inverted the rotation is
    inverted too, since order(g) = order(g^-1).  That leaves w * x with w
    free of x.  An empty w is a cut: range is the generator's allowed
    elements, its cuts applied.  singles are (generator, order_masks row
    table) for a one-letter w, the table read through inv when w is
    inverted; checks are (w, row table) for a longer w.  A base that uses
    x more than once is a fold, (letters, allowed orders mask).  An order
    in S_n divides exp exactly when it divides gcd(exp, lcm(1..n)), so the
    rows are those of that exponent: one table per divisor of lcm(1..n).
    """
    inv = perm_tables(n).inv
    k = len(presentation.generator_names)
    allowed = [(1 << len(inv)) - 1] * k
    singles, checks, folds = ([[] for _ in range(k)] for _ in range(3))
    span = lcm(*range(1, n + 1))  # every order in S_n divides it
    for base, exp in presentation.relator_powers:
        rows = order_masks(n, gcd(exp, span))
        letters = base.letters
        x = max(gen for gen, _ in letters)
        at = [j for j, (gen, _) in enumerate(letters) if gen == x]
        if len(at) > 1:
            folds[x].append((letters, rows[0]))
            continue
        j = at[0]
        prefix = letters[j + 1:] + letters[:j]
        if letters[j][1] < 0:
            prefix = tuple((gen, -sign) for gen, sign in reversed(prefix))
        if not prefix:
            allowed[x] &= rows[0]
        elif len(prefix) > 1:
            checks[x].append((prefix, rows))
        else:
            (gen, sign), = prefix  # w = g^-1 reads g's row through inv
            singles[x].append((gen, rows if sign > 0 else tuple(map(rows.__getitem__, inv))))
    return tuple(zip(allowed, map(tuple, singles), map(tuple, checks), map(tuple, folds)))


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
    identity (a relator on x alone, such as P^2) it cuts them up front, and
    with w one letter the row is indexed by that generator's choice, with
    no fold.  Other bases are folded in full for each choice.  Where each
    relator goes, and its rows, are worked out once per presentation and
    degree (_search_rows).

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
    it.  The test depends on stab alone, not on the other choices, so each
    node ANDs its choices with orderly_mask(n, stab), cached per stabilizer:
    a pass meets few of them (13 in the index-5 search of four catalog
    symbols, over 243 nodes).  The next stab is stab & cent[i], so at a leaf
    stab is the combo's stabilizer.

    The walk is one loop, depth first: stack holds each placed generator's
    remaining choices, stabilizer and partition, so a call leaves no
    reference cycle behind.
    """
    tables = perm_tables(n)  # refuses a degree outside 1..MAX_DEGREE
    steps = _search_rows(presentation, n)
    comp, inv, cent = tables.comp, tables.inv, tables.cent
    cycles, join, connecting = tables.cycles, tables.join, tables.connecting
    chosen = [0] * len(steps)
    last = len(steps) - 1
    stack: list[tuple[int, int, int]] = []
    stab, part = (1 << len(comp)) - 1, 0
    while True:  # place generator len(stack) below the prefix chosen[:len(stack)]
        depth = len(stack)
        allowed, singles, checks, folds = steps[depth]
        choices = allowed & orderly_mask(n, stab)
        if depth == last:
            choices &= connecting[part]
        for gen, rows in singles:
            choices &= rows[chosen[gen]]
        for prefix, rows in checks:
            choices &= rows[_fold(prefix, chosen, comp, inv)]
        for letters, orders in folds:
            rest = choices
            while rest:
                bit = rest & -rest
                rest ^= bit
                chosen[depth] = bit.bit_length() - 1
                if not orders >> _fold(letters, chosen, comp, inv) & 1:
                    choices ^= bit
        while True:
            while not choices:  # back up to the deepest generator with choices left
                if not stack:
                    return
                choices, stab, part = stack.pop()
                depth -= 1
            bit = choices & -choices
            choices ^= bit
            i = bit.bit_length() - 1
            chosen[depth] = i
            fixing = stab & cent[i]
            if depth == last:
                yield tuple(chosen), fixing.bit_count()
            else:
                stack.append((choices, stab, part))
                stab, part = fixing, join[part][cycles[i]]
                break


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
    applies.  Each rep and class is built through its _unchecked
    constructor, since these checks are the ones its own would make.
    """
    perms = all_perms(n)  # refuses an index outside 1..MAX_DEGREE
    tables = perm_tables(n)
    comp, inv, order = tables.comp, tables.inv, tables.order
    names = presentation.generator_names
    relabelings = factorial(n)
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
        classes.append(SubgroupClass._unchecked(rep, n, relabelings // stab))
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
