import random

import pytest

import oracles
from pircons.matchings import PartialMatching
from pircons.posets import GradedPoset, PosetError, from_comparability


def chain(n):
    return GradedPoset([str(i) for i in range(n)],
                       [(i, i + 1) for i in range(n - 1)])


@pytest.fixture
def diamond():
    return GradedPoset("abcd", [(0, 1), (0, 2), (1, 3), (2, 3)])


def test_two_chain_ranks():
    P = chain(2)
    assert P.rank == (0, 1)
    assert P.bottom == 0 and P.top == 1


def test_diamond_is_rank2_dihedral(diamond):
    assert diamond.rank == (0, 1, 1, 2)
    assert diamond.is_dihedral_interval(0, 3)


def test_skipped_rank_rejected():
    # 0 < 1 < 2 plus a direct cover 0 < 2 skips a rank.
    with pytest.raises(PosetError):
        GradedPoset("abc", [(0, 1), (1, 2), (0, 2)])


def test_cycle_rejected():
    with pytest.raises(PosetError):
        GradedPoset("abc", [(0, 1), (1, 2), (2, 0)])


def test_two_bottoms_rejected():
    with pytest.raises(PosetError):
        GradedPoset("abcd", [(0, 2), (1, 3)])


def test_duplicate_labels_rejected():
    with pytest.raises(PosetError):
        GradedPoset(["x", "x"], [(0, 1)])


def random_covers(rng):
    """A random cover list on at most 7 elements: half of the time any
    pairs, half of the time pairs between random ranks of a layered
    order, with a random extra pair one time in two."""
    n = rng.randint(1, 7)
    if rng.random() < 0.5:
        pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
        return n, rng.sample(pairs, rng.randint(0, min(len(pairs), 2 * n)))
    rank = sorted(rng.randint(0, 3) for _ in range(n))
    place = rng.sample(range(n), n)
    covers = [(place[x], place[y]) for x in range(n) for y in range(n)
              if rank[y] == rank[x] + 1 and rng.random() < 0.6]
    if n > 1 and rng.random() < 0.5:
        covers.append(tuple(rng.sample(range(n), 2)))
    return n, covers


def test_ranks_and_ideals_match_the_brute_force_order():
    """On seeded random cover lists, a poset is built exactly when the
    brute-force reference finds the pairs acyclic, graded and with one
    bottom, and then has its ranks, down-sets, up-sets, covers, bottom
    and top."""
    rng = random.Random(20261022)
    built = 0
    for _ in range(4000):
        n, covers = random_covers(rng)
        want = oracles.graded_poset(n, covers)
        if want is None:
            with pytest.raises(PosetError):
                GradedPoset([str(i) for i in range(n)], covers)
            continue
        built += 1
        P = GradedPoset([str(i) for i in range(n)], covers)
        assert (P.rank, list(map(P.down_set, range(n))),
                list(map(P.up_set, range(n)))) == want
        assert P.up_covers == tuple(
            tuple(sorted({y for x, y in covers if x == u})) for u in range(n))
        assert P.down_covers == tuple(
            tuple(sorted({x for x, y in covers if y == u})) for u in range(n))
        assert P.bottom == want[0].index(0)
        tops = [u for u in range(n) if not P.up_covers[u]]
        assert P.top == (tops[0] if len(tops) == 1 else None)
    assert 800 < built < 3200


def test_leq_examples(diamond):
    for x in range(4):
        assert diamond.leq(x, x)
    assert not diamond.leq(1, 2) and not diamond.leq(2, 1)
    assert diamond.leq(0, 3)


def test_leq_is_partial_order(diamond):
    P = diamond
    for x in range(P.n):
        for y in range(P.n):
            if P.leq(x, y) and P.leq(y, x):
                assert x == y
            for z in range(P.n):
                if P.leq(x, y) and P.leq(y, z):
                    assert P.leq(x, z)


def test_dihedral_shapes():
    # rank-1 interval
    assert chain(2).is_dihedral_interval(0, 1)
    # chains of rank >= 2 are not dihedral
    assert not chain(3).is_dihedral_interval(0, 2)
    # three middle elements: wrong profile
    P = GradedPoset("abcde", [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
    assert not P.is_dihedral_interval(0, 4)
    # rank-3 dihedral interval (two-generator Bruhat sphere)
    Q = GradedPoset(
        "abcdef",
        [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)])
    assert Q.is_dihedral_interval(0, 5)
    # same profile but one mid-rank cover missing
    R = GradedPoset(
        "abcdef",
        [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (3, 5), (4, 5)])
    assert not R.is_dihedral_interval(0, 5)


def test_to_dot():
    single = GradedPoset(["e"], [])
    dot = single.to_dot()
    assert "n0" in dot and "->" not in dot

    two = chain(2)
    assert two.to_dot().count("->") == 1

    P = GradedPoset("abcd", [(0, 1), (0, 2), (1, 3), (2, 3)])
    m = PartialMatching(P, {0: 2, 2: 0, 1: 3, 3: 1})
    dot = P.to_dot(m)
    assert dot.count("->") == 4
    assert dot.count("style=bold") == 2
    fixed = PartialMatching(P, {0: 0, 1: 1, 2: 2, 3: 3})
    assert P.to_dot(fixed).count("peripheries=2") == 4


def test_to_dot_escapes_labels():
    P = GradedPoset(['a"b', "c\\d"], [(0, 1)])
    dot = P.to_dot()
    assert 'n0 [label="a\\"b"];' in dot
    assert 'n1 [label="c\\\\d"];' in dot


def test_json_roundtrip(diamond):
    data = diamond.to_json()
    again = GradedPoset.from_json(data)
    assert again.labels == diamond.labels
    assert again.up_covers == diamond.up_covers
    assert data["covers"] == [[0, 1], [0, 2], [1, 3], [2, 3]]


def test_from_comparability_transitive_reduction():
    # full order on 3 points given as comparability; covers must drop 0<=2
    masks = [0b001, 0b011, 0b111]
    P = from_comparability("abc", masks)
    assert P.up_covers == ((1,), (2,), ())
    assert P.rank == (0, 1, 2)


def test_from_comparability_recovers_covers(suite_quotients, twisted3,
                                            refinement_dependent_poset,
                                            non_dircon_poset, diamond):
    posets = [quot.poset for quot in suite_quotients.values()]
    posets += [twisted3.poset, refinement_dependent_poset, non_dircon_poset,
               diamond, chain(1), chain(5)]
    for P in posets:
        again = from_comparability(P.labels,
                                   [P.down_set(y) for y in range(P.n)])
        assert again.up_covers == P.up_covers
        assert again.down_covers == P.down_covers


def test_handed_down_sets_equal_the_rebuilt_ones(suite_quotients, twisted2,
                                                 twisted3, twisted4):
    """``from_comparability`` hands its masks to the poset; the poset built
    from its covers alone rebuilds the same down-sets, up-sets and ranks."""
    from pircons import CoxeterSystem
    from pircons.twisted import TwistedIdentities
    posets = [quot.poset for quot in suite_quotients.values()]
    posets += [CoxeterSystem({"type": "A", "rank": 5}).quotient(()).poset]
    posets += [t.poset for t in (TwistedIdentities(1), twisted2, twisted3,
                                 twisted4)]
    for P in posets:
        rebuilt = GradedPoset(P.labels, [(x, y) for x in range(P.n)
                                         for y in P.up_covers[x]])
        assert rebuilt._down == P._down, P
        assert rebuilt._up == P._up and rebuilt.rank == P.rank, P


def test_empty_poset():
    P = GradedPoset((), ())
    assert P.n == 0 and P.bottom is None


@pytest.mark.parametrize("mask", [0, 1, 0b1011, 1 << 200, (1 << 300) - 1,
                                  (1 << 257) | (1 << 64) | 6])
def test_elements_of_ascending(mask):
    n = max(mask.bit_length(), 1)
    want = [i for i in range(n) if mask >> i & 1]
    assert chain(2).elements_of(mask) == want
    assert GradedPoset.elements_of(mask) == want


def test_ideals_share_the_poset_ints(suite_quotients):
    """Every ideal takes its elements from one tuple kept on the poset, so
    an element above the small-int cache is one object in every ideal that
    holds it, and the up-set is the mask of the elements above."""
    from pircons import CoxeterSystem
    P = CoxeterSystem({"type": "A", "rank": 5}).quotient({2}).poset
    u, v = next((u, v) for u in range(257, P.n) for v in range(P.n)
                if P.lt(u, v))
    mine, above = P.ideal_elements(u), P.ideal_elements(v)
    assert mine[-1] == u and u in above
    assert mine[-1] is above[above.index(u)]
    for x in range(P.n):
        assert P.up_set(x) == sum(1 << y for y in range(P.n) if P.leq(x, y))
