"""Independent cross-checks for the enumerator.

brute_force_classes recounts subgroup classes from scratch: it materializes
the full product space S_n^k as a boolean tensor, applies each relator as a
lookup table, and only then filters for transitivity and conjugacy.  It
shares nothing with the enumerator's search except the meaning of the
convention (rightmost letter of a word acts first).

todd_coxeter independently confirms that a claimed stabilizer really has
the claimed index, by coset enumeration over the presentation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .enumerator import TransitiveRep
from .perms import Assignment, Perm
from .presentations import Presentation
from .stabilizer import build_coset_table, schreier_generators
from .words import Word


class BruteForceCounts(NamedTuple):
    labeled: int
    classes: int
    subgroups: int


def brute_force_classes(presentation: Presentation, n: int) -> BruteForceCounts:
    """Count (labeled reps, conjugacy classes, subgroups) at index n <= 4.

    Labeled: transitive assignments satisfying all relators.  Classes: their
    orbits under conjugation by all of S_n.  Subgroups: orbits under the
    point-1 stabilizer of S_n, i.e. index-n subgroups counted plainly.
    """
    if not 1 <= n <= 4:
        raise ValueError(f"oracle only runs for index 1..4, got {n}")
    k = len(presentation.generator_names)
    perms = list(itertools.permutations(range(n)))  # 0-based tuples, lex order
    F = len(perms)
    index_of = {p: i for i, p in enumerate(perms)}
    comp = np.array([[index_of[tuple(a[b[x]] for x in range(n))] for b in perms]
                     for a in perms], dtype=np.int64)
    inv = np.array([index_of[tuple(sorted(range(n), key=lambda x: p[x]))]
                    for p in perms], dtype=np.int64)
    identity_idx = index_of[tuple(range(n))]

    # One boolean lookup table per relator, over the generators it uses,
    # evaluating the relator word letter by letter (rightmost first means
    # left-folding through the composition table).  ok's axes follow
    # sorted(support), which is generator order, so a reshape that inserts
    # singleton axes for unused generators broadcasts the table across the
    # whole product space correctly.
    mask = np.ones((F,) * k, dtype=bool)
    for rel in presentation.relators:
        support = sorted({g for g, _ in rel})
        axes = {g: ax for ax, g in enumerate(support)}
        grids = np.indices((F,) * len(support))
        res = np.full((F,) * len(support), identity_idx, dtype=np.int64)
        for g, sign in rel:
            img = grids[axes[g]]
            if sign < 0:
                img = inv[img]
            res = comp[res, img]
        ok = res == identity_idx
        mask &= ok.reshape(tuple(F if g in support else 1 for g in range(k)))
    survivors = np.argwhere(mask)

    transitive_rows = []
    for row in survivors:
        images = [perms[i] for i in row]
        seen = [False] * n
        seen[0] = True
        stack = [0]
        count = 1
        while stack:
            x = stack.pop()
            for p in images:
                if not seen[p[x]]:
                    seen[p[x]] = True
                    count += 1
                    stack.append(p[x])
        if count == n:
            transitive_rows.append(row)
    labeled = len(transitive_rows)
    if labeled == 0:
        return BruteForceCounts(0, 0, 0)

    conj = np.empty((F, F), dtype=np.int64)
    for s in range(F):
        conj[s] = comp[comp[s], inv[s]]
    surv = np.array(transitive_rows, dtype=np.int64)

    def count_orbits(sigma_rows: np.ndarray) -> int:
        # Conjugate every survivor by every chosen relabeling at once, pack
        # each assignment tuple into one integer, take each orbit's least.
        imgs = conj[sigma_rows][:, surv]  # (n_sigma, m, k)
        packed = np.zeros(imgs.shape[:2], dtype=np.int64)
        for col in range(k):
            packed = packed * F + imgs[:, :, col]
        return len(np.unique(packed.min(axis=0)))

    all_sigmas = np.arange(F)
    fix1 = np.array([i for i, p in enumerate(perms) if p[0] == 0])
    classes = count_orbits(all_sigmas)
    subgroups = count_orbits(fix1)
    return BruteForceCounts(labeled, classes, subgroups)


_SENTINEL = -1


@dataclass(frozen=True)
class TCResult:
    """Outcome of a coset enumeration.

    status 'closed' means the table completed with `index` live cosets and
    `action` is the generators' assignment on them (coset 1 is the
    subgroup); wrap it in a TransitiveRep to check it.  status 'overflow'
    means the coset budget ran out first, which says nothing about the true
    index.
    """

    status: str
    index: int | None = None
    action: Assignment | None = None


class _Overflow(Exception):
    pass


class _CosetGraph:
    """Partial action graph with union-find coincidence handling.

    Column 2g follows generator g, column 2g+1 its inverse.  Vertices are
    numbered by first definition; merging keeps the smaller number, so the
    start vertex is always its own root.
    """

    def __init__(self, k: int, max_cosets: int):
        self.k = k
        self.max_cosets = max_cosets
        self.parent: list[int] = []
        self.neighbors: list[list[int]] = []
        self.live = 0

    def new_vertex(self) -> int:
        if self.live + 1 > self.max_cosets:
            raise _Overflow
        self.parent.append(len(self.parent))
        self.neighbors.append([_SENTINEL] * (2 * self.k))
        self.live += 1
        return len(self.parent) - 1

    def find(self, v: int) -> int:
        root = v
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[v] != root:
            self.parent[v], v = root, self.parent[v]
        return root

    def follow(self, v: int, gen: int, sign: int) -> int:
        v = self.find(v)
        col = 2 * gen + (0 if sign > 0 else 1)
        w = self.neighbors[v][col]
        if w == _SENTINEL:
            w = self.new_vertex()
            self.neighbors[v][col] = w
            self.neighbors[w][col ^ 1] = v
            return w
        return self.find(w)

    def unify(self, a: int, b: int) -> None:
        pending = [(a, b)]
        while pending:
            x, y = pending.pop()
            x, y = self.find(x), self.find(y)
            if x == y:
                continue
            if y < x:
                x, y = y, x
            # y dies, x survives
            self.parent[y] = x
            self.live -= 1
            for col in range(2 * self.k):
                w = self.neighbors[y][col]
                if w == _SENTINEL:
                    continue
                cur = self.neighbors[x][col]
                if cur == _SENTINEL:
                    self.neighbors[x][col] = w
                    self.neighbors[self.find(w)][col ^ 1] = x
                else:
                    pending.append((cur, w))

    def scan(self, word: Word, start: int) -> None:
        """Trace the word from start and force it to act as the identity."""
        cur = self.find(start)
        origin = cur
        for gen, sign in reversed(word.letters):
            cur = self.follow(cur, gen, sign)
        self.unify(cur, self.find(origin))


def todd_coxeter(presentation: Presentation, subgroup_words: list[Word] | tuple[Word, ...],
                 max_cosets: int) -> TCResult:
    """Enumerate cosets of the subgroup generated by the given words.

    Deterministic: cosets are numbered by first definition, scans run in a
    fixed order (subgroup words at the start coset, then every relator at
    every live coset in numbering order).  Words act on the left, so scans
    walk letters right to left.
    """
    k = len(presentation.generator_names)
    for w in subgroup_words:
        for gen, _ in w:
            if not 0 <= gen < k:
                raise ValueError(f"subgroup word uses generator index {gen}")
    graph = _CosetGraph(k, max_cosets)
    try:
        start = graph.new_vertex()
        for w in subgroup_words:
            graph.scan(w, start)
        ptr = 0
        while ptr < len(graph.parent):
            if graph.find(ptr) == ptr:
                for rel in presentation.relators:
                    if graph.find(ptr) != ptr:
                        break
                    graph.scan(rel, ptr)
            ptr += 1
    except _Overflow:
        return TCResult("overflow")

    roots = [v for v in range(len(graph.parent)) if graph.find(v) == v]
    renumber = {root: i + 1 for i, root in enumerate(roots)}
    images = []
    for g in range(k):
        images.append(Perm(tuple(renumber[graph.find(graph.neighbors[root][2 * g])]
                                 for root in roots)))
    action = Assignment(presentation.generator_names, tuple(images))
    return TCResult("closed", len(roots), action)


def default_coset_budget(index: int, presentation: Presentation) -> int:
    return 10 * index * len(presentation.generator_names)


def verify_class(rep: TransitiveRep, max_cosets: int | None = None) -> bool | None:
    """Confirm a class's stabilizer has the class's index, by coset count.

    Returns True when the enumeration closes at the rep's degree, False
    when it closes elsewhere, None when the coset budget overflowed (which
    is inconclusive, not a failure).
    """
    pres = rep.presentation
    gens = schreier_generators(build_coset_table(rep)).simplified
    budget = max_cosets if max_cosets is not None else default_coset_budget(rep.degree, pres)
    result = todd_coxeter(pres, gens, budget)
    if result.status == "overflow":
        return None
    return result.index == rep.degree
