import hashlib
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tetgroups import (MAX_DEGREE, Assignment, Perm, TransitiveRep, Word, all_perms,
                       conjugate_assignment, enumerate_classes, evaluate_word,
                       is_transitive, word_order)
from tetgroups.enumerator import THREE_CYCLE, TRANSPOSITION, order_masks, perm_tables

perms4 = st.sampled_from(all_perms(4))
words4 = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3), st.sampled_from([1, -1])),
    max_size=20,
).map(Word)


def assignment4(seed) -> Assignment:
    return Assignment(("P", "Q", "R", "S"), tuple(seed))


def test_identity_and_apply():
    e = Perm.identity(3)
    assert e.degree == 3
    assert e.is_identity()
    assert [e.apply(i) for i in (1, 2, 3)] == [1, 2, 3]
    p = Perm((2, 1, 3))
    assert p.apply(1) == 2 and p.apply(2) == 1


def test_invalid_images_rejected():
    with pytest.raises(ValueError):
        Perm((1, 1, 2))
    with pytest.raises(ValueError):
        Perm((0, 1, 2))
    with pytest.raises(ValueError):
        Perm((2, 3, 4))
    # Perm((2.0, 1.0)) would equal Perm((2, 1)), yet apply(1) would give 2.0
    # and cycle_string raise TypeError; a str or None among ints must not
    # reach sorted, which would raise TypeError
    for images in ((2.0, 1.0), (2, 1.0), (True,), (1, "a"), (None, 1)):
        with pytest.raises(ValueError, match="ints"):
            Perm(images)


def test_images_given_as_a_list_are_stored_as_a_tuple():
    # a list would make the Perm unequal to its tuple twin and unhashable
    p = Perm([2, 1])
    assert p.images == (2, 1) and type(p.images) is tuple
    assert p == Perm((2, 1))
    assert hash(p) == hash(Perm((2, 1)))
    assert p in {Perm((2, 1))}


def test_rightmost_factor_acts_first():
    # the pinned convention: with P = (12) and R = (13) the word PR is the
    # three-cycle (132), because R moves the point before P does
    P, R = Perm((2, 1, 3)), Perm((3, 2, 1))
    assert (P * R).cycle_string() == "(132)"
    a = Assignment(("P", "R"), (P, R))
    w = Word([(0, 1), (1, 1)])
    assert evaluate_word(w, a).cycle_string() == "(132)"


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        Perm((2, 1)) * Perm((2, 1, 3))


def test_cycles_start_at_least_point():
    p = Perm((2, 3, 1, 4, 6, 5))
    assert p.cycles() == [(1, 2, 3), (5, 6)]
    assert p.cycle_string() == "(123)(56)"
    assert Perm.identity(4).cycles() == []
    assert Perm.identity(4).cycle_string() == "(1)"


def test_cycle_string_spaces_points_past_nine():
    ten = Perm(tuple(list(range(2, 11)) + [1]))
    assert ten.cycle_string() == "(1 2 3 4 5 6 7 8 9 10)"


def reference_cycle_string(perm: Perm) -> str:
    """Perm.cycle_string as first written, walking the cycles itself."""
    images = perm.images
    seen = [False] * (len(images) + 1)
    cycs = []
    for start, j in enumerate(images, start=1):
        if seen[start] or j == start:
            continue
        cyc = [start]
        while j != start:
            cyc.append(j)
            seen[j] = True
            j = images[j - 1]
        cycs.append(tuple(cyc))
    if not cycs:
        return "(1)"
    sep = " " if perm.degree > 9 else ""
    return "".join("(" + sep.join(str(p) for p in c) + ")" for c in cycs)


def test_cycle_string_matches_the_reference():
    # every permutation of degree 1 to 6, each asked twice so that the
    # second answer comes from the memo, and some past degree 9
    for n in range(1, MAX_DEGREE + 1):
        for p in all_perms(n):
            assert p.cycle_string() == reference_cycle_string(p)
            assert p.cycle_string() == reference_cycle_string(p)
    past_nine = [Perm((3, 1, 2, 5, 4, 6, 7, 8, 9, 12, 10, 11)), Perm.identity(10),
                 Perm(tuple(range(11, 0, -1)))]
    for p in past_nine * 2:
        assert p.cycle_string() == reference_cycle_string(p)
    assert past_nine[0].cycle_string() == "(1 3 2)(4 5)(10 12 11)"


def test_order_is_lcm_of_cycle_lengths():
    assert Perm.identity(5).order() == 1
    assert Perm((2, 3, 1, 4, 6, 5)).order() == 6
    assert Perm((2, 1, 3)).order() == 2


def test_all_perms_ordering_and_bounds():
    ps = all_perms(3)
    assert len(ps) == 6
    assert ps[0].is_identity()
    assert [p.images for p in ps] == sorted(p.images for p in ps)
    with pytest.raises(ValueError):
        all_perms(0)
    with pytest.raises(ValueError):
        all_perms(MAX_DEGREE + 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_perm_tables_agree_with_perm_arithmetic(n):
    ps = all_perms(n)
    at = {p: i for i, p in enumerate(ps)}
    table = perm_tables(n)
    assert ps[0].is_identity()
    for a, p in enumerate(ps):
        assert table.inv[a] == at[p.inverse()]
        assert table.order[a] == p.order()
        for b, q in enumerate(ps):
            assert table.comp[a][b] == at[p * q]
            assert table.conj[b][a] == at[p * q * p.inverse()]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_perm_tables_match_a_rebuild_from_itertools(n):
    # perm_tables builds most rows of comp from other rows; rebuilt here
    # entry by entry from itertools.permutations, with no code from enumerator.py
    ps = list(itertools.permutations(range(n)))
    at = {p: i for i, p in enumerate(ps)}

    def mul(a, b):
        return tuple(a[x] for x in b)

    inverse = [at[tuple(sorted(range(n), key=p.__getitem__))] for p in ps]
    table = perm_tables(n)
    assert table.comp == tuple(tuple(at[mul(a, b)] for b in ps) for a in ps)
    assert table.inv == tuple(inverse)
    # conj by columns: conj[p] lists p's conjugates s * p * s^-1 over s
    assert table.conj == tuple(tuple(at[mul(mul(s, p), ps[inverse[i]])] for i, s in enumerate(ps))
                               for p in ps)


def raw_orders(ps):
    """Order of each 0-based one-line tuple, by repeated composition."""
    orders = []
    for p in ps:
        q, k = p, 1
        while q != tuple(range(len(p))):
            q, k = tuple(p[x] for x in q), k + 1
        orders.append(k)
    return orders


def bitset(bits):
    return sum(1 << b for b in bits)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_search_masks_match_their_definitions(n):
    # rebuilt from itertools.permutations, whose order is all_perms(n)'s,
    # with composition (a * b)(x) = a(b(x)) and no code from enumerator.py
    ps = list(itertools.permutations(range(n)))
    at = {p: i for i, p in enumerate(ps)}

    def mul(a, b):
        return tuple(a[x] for x in b)

    def conj(s, i):
        s_inv = tuple(sorted(range(n), key=s.__getitem__))
        return at[mul(mul(s, ps[i]), s_inv)]

    orders = raw_orders(ps)
    table = perm_tables(n)
    assert table.below == tuple(bitset(s for s, sp in enumerate(ps) if conj(sp, i) < i)
                          for i in range(len(ps)))
    assert table.cent == tuple(bitset(s for s, sp in enumerate(ps) if conj(sp, i) == i)
                         for i in range(len(ps)))
    for exp in range(1, 7):
        assert order_masks(n, exp) == tuple(
            bitset(i for i, ip in enumerate(ps) if exp % orders[at[mul(wp, ip)]] == 0)
            for wp in ps)


def set_partitions(points):
    """Every set partition of a tuple of points, as a frozenset of blocks."""
    if not points:
        yield frozenset()
        return
    first, rest = points[0], points[1:]
    for part in set_partitions(rest):
        yield part | {frozenset({first})}
        for block in part:
            yield part - {block} | {block | {first}}


def union_find(n, pairs):
    """The blocks of points 0..n-1 left by joining each pair."""
    root = list(range(n))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for a, b in pairs:
        root[find(a)] = find(b)
    blocks = {}
    for x in range(n):
        blocks.setdefault(find(x), set()).add(x)
    return frozenset(map(frozenset, blocks.values()))


def spanning_pairs(blocks):
    return [(min(block), x) for block in blocks for x in block]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_partition_joins_match_a_union_find(n):
    # rebuilt from itertools.permutations and a plain union-find, with no
    # code from enumerator.py; partitions[p] labels each point by its block
    ps = list(itertools.permutations(range(n)))
    table = perm_tables(n)
    parts = [frozenset(frozenset(x for x in range(n) if labels[x] == label)
                       for label in set(labels)) for labels in table.partitions]
    assert len(set(parts)) == len(parts)
    assert set(parts) == set(set_partitions(tuple(range(n))))
    assert parts[0] == union_find(n, []) and len(parts[-1]) == 1
    assert [parts[c] for c in table.cycles] == [union_find(n, enumerate(p)) for p in ps]
    for p, row in enumerate(table.join):
        assert [parts[j] for j in row] == [
            union_find(n, spanning_pairs(parts[p]) + spanning_pairs(c)) for c in parts]
        assert table.connecting[p] == bitset(
            i for i, ip in enumerate(ps)
            if len(union_find(n, spanning_pairs(parts[p]) + list(enumerate(ip)))) == 1)


@pytest.mark.parametrize("n", [5, 6])
def test_jordan_table_matches_a_rebuild_from_itertools(n):
    # rebuilt from itertools.permutations with no code from enumerator.py: the
    # block systems are the uniform partitions into 2..n-1 blocks, an
    # element keeps one when it maps every block onto a block, a power that
    # moves exactly two points is a transposition and one that moves exactly
    # three a 3-cycle, and the parity is that of the inversions
    ps = list(itertools.permutations(range(n)))
    identity = tuple(range(n))
    table = perm_tables(n)
    systems = [frozenset(frozenset(x for x in range(n) if labels[x] == label)
                         for label in set(labels)) for labels in table.systems]
    assert len(set(systems)) == len(systems)
    assert set(systems) == {part for part in set_partitions(identity)
                            if 1 < len(part) < n and len({len(b) for b in part}) == 1}
    assert len(ps) == len(table.blocks) == len(table.power) == len(table.odd)
    for i, p in enumerate(ps):
        assert table.blocks[i] == bitset(
            b for b, part in enumerate(systems)
            if all(frozenset(p[x] for x in block) in part for block in part))
        moved, q = set(), p
        while q != identity:
            moved.add(sum(q[x] != x for x in range(n)))
            q = tuple(p[x] for x in q)
        kind = TRANSPOSITION if 2 in moved else THREE_CYCLE if 3 in moved else 0
        assert table.power[i] == kind
        assert table.odd[i] == (sum(p[a] > p[b] for a, b in
                                    itertools.combinations(range(n), 2)) % 2 == 1)


def test_perm_tables_refuse_a_degree_past_the_limit():
    with pytest.raises(ValueError):
        perm_tables(MAX_DEGREE + 1)


# sha256 of the repr of each named field of perm_tables(n) and then of
# order_masks(n, e) for e = 1..6, chained over n = 1..6; recorded from the
# separate per-degree builders that perm_tables took over, when conj was
# stored by rows, so conj is hashed in that form
TABLES_SHA256 = "b1fbf5cc6e518281f7f69a0531811ba61add52fef3fa67290dd7b79b1bd651fc"


def test_tables_are_pinned():
    digest = hashlib.sha256()
    for n in range(1, 7):
        table = perm_tables(n)
        for name in ("comp", "inv", "order", "conj", "below", "cent", "partitions",
                     "cycles", "join", "connecting", "systems", "blocks", "power", "odd"):
            field = getattr(table, name)
            if name == "conj":
                field = tuple(zip(*field))
            digest.update(repr(field).encode())
        for exp in range(1, 7):
            digest.update(repr(order_masks(n, exp)).encode())
    assert digest.hexdigest() == TABLES_SHA256


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_connecting_bit_is_transitivity_of_a_pair(n):
    # a prefix of one element and a last element generate a transitive
    # group exactly when the last one's bit is set for the prefix's cycles
    ps = list(itertools.permutations(range(n)))
    table = perm_tables(n)
    for a, b in itertools.product(range(len(ps)), repeat=2):
        orbit, frontier = {0}, [0]
        while frontier:
            x = frontier.pop()
            for y in (ps[a][x], ps[b][x]):
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        assert (len(orbit) == n) == bool(table.connecting[table.cycles[a]] >> b & 1)


def test_assignment_validation():
    with pytest.raises(ValueError):
        Assignment(("P",), (Perm((1, 2)), Perm((2, 1))))
    with pytest.raises(ValueError):
        Assignment((), ())
    with pytest.raises(ValueError):
        Assignment(("P", "Q"), (Perm((1, 2)), Perm((1, 2, 3))))
    a = Assignment(("P", "Q"), (Perm((2, 1)), Perm((1, 2))))
    assert a.degree == 2
    assert a.as_dict() == {"P": "(12)", "Q": "(1)"}


def test_list_built_assignments_equal_tuple_built_ones(t10_full):
    # names and images given as lists are stored as tuples, so the
    # assignment equals and hashes like its tuple-built twin, and a rep
    # accepts its names as the presentation's
    rep = enumerate_classes(t10_full, 4)[0].rep
    listed = Assignment(list(t10_full.generator_names), list(rep.assignment.perms))
    assert listed == rep.assignment and hash(listed) == hash(rep.assignment)
    assert type(listed.names) is type(listed.perms) is tuple
    assert TransitiveRep(t10_full, listed) == rep


def test_evaluate_word_unknown_generator_index():
    a = Assignment(("P",), (Perm((2, 1)),))
    with pytest.raises(KeyError):
        evaluate_word(Word.gen(3), a)
    # a negative index must not wrap round to the last generator
    with pytest.raises(KeyError):
        evaluate_word(Word._unchecked(((-1, 1),)), a)


@given(st.tuples(perms4, perms4, perms4, perms4), words4)
def test_word_order_is_the_order_of_the_image(seed, w):
    a = assignment4(seed)
    assert word_order(w, a) == evaluate_word(w, a).order()


@pytest.mark.parametrize("gen", [1, 4, -1])
def test_word_order_rejects_a_bad_generator_index(gen):
    a = Assignment(("P",), (Perm((2, 1)),))
    with pytest.raises(KeyError):
        word_order(Word._unchecked(((0, -1), (gen, 1))), a)


def test_is_transitive_small_cases():
    assert is_transitive(Assignment(("P",), (Perm((1,)),)))
    assert not is_transitive(Assignment(("P",), (Perm((1, 2)),)))
    assert is_transitive(Assignment(("P",), (Perm((2, 1)),)))
    # two 2-cycles on 4 points generate a transitive group together
    a = Assignment(("P", "Q"), (Perm((2, 1, 3, 4)), Perm((1, 2, 4, 3))))
    assert not is_transitive(a)
    b = Assignment(("P", "Q"), (Perm((2, 1, 3, 4)), Perm((1, 3, 2, 4))))
    assert not is_transitive(b)
    c = Assignment(("P", "Q"), (Perm((2, 1, 4, 3)), Perm((3, 4, 1, 2))))
    assert is_transitive(c)


@given(perms4, perms4, perms4)
def test_composition_is_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(perms4)
def test_inverse_laws(p):
    assert (p * p.inverse()).is_identity()
    assert (p.inverse() * p).is_identity()
    assert all(p.inverse().apply(p.apply(x)) == x for x in range(1, 5))
    assert p.inverse().inverse() == p


@given(perms4, perms4)
def test_compose_matches_pointwise_definition(f, g):
    h = f * g
    assert all(h.apply(x) == f.apply(g.apply(x)) for x in range(1, 5))


@given(st.tuples(perms4, perms4, perms4, perms4), words4, words4)
def test_evaluate_word_is_a_homomorphism(seed, u, v):
    a = assignment4(seed)
    assert evaluate_word(u * v, a) == evaluate_word(u, a) * evaluate_word(v, a)
    assert evaluate_word(~u, a) == evaluate_word(u, a).inverse()


@given(st.tuples(perms4, perms4, perms4, perms4), perms4)
def test_conjugation_relabels_points(seed, sigma):
    a = assignment4(seed)
    conj = conjugate_assignment(a, sigma)
    # the conjugate permutation moves relabeled points the relabeled way
    for p, q in zip(a.perms, conj.perms):
        assert all(q.apply(sigma.apply(x)) == sigma.apply(p.apply(x))
                   for x in range(1, 5))
    assert is_transitive(conj) == is_transitive(a)
    assert [p.order() for p in conj.perms] == [p.order() for p in a.perms]


@given(st.tuples(perms4, perms4, perms4, perms4), perms4, perms4)
def test_conjugation_composes(seed, sigma, tau):
    a = assignment4(seed)
    twice = conjugate_assignment(conjugate_assignment(a, sigma), tau)
    assert twice == conjugate_assignment(a, tau * sigma)
