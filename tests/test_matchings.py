import pytest

import oracles
from pircons import matchings
from pircons.matchings import (MatchingError, OrbitClassificationError,
                               PartialMatching, check_lifting, coherent,
                               enumerate_spms, is_dircon, orbit_analysis,
                               orbit_partition, strictly_coherent,
                               verify_pircon, verify_qspm, verify_spm)
from pircons.posets import GradedPoset


def chain(n):
    return GradedPoset([str(i) for i in range(n)],
                       [(i, i + 1) for i in range(n - 1)])


@pytest.fixture
def diamond():
    return GradedPoset("abcd", [(0, 1), (0, 2), (1, 3), (2, 3)])


# The nine-element poset with two special partial matchings whose orbits are
# a rank-3 dihedral one and a rank-2 chain-like one, both with m = 3.
# Elements by rank: 0 | 1 2 | 3 4 5 | 6 7 | 8.
@pytest.fixture
def two_matching_poset():
    P = GradedPoset(
        "abcdfghij",
        [(0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (2, 5),
         (3, 6), (3, 7), (4, 6), (4, 7), (5, 7), (6, 8), (7, 8)])
    M = PartialMatching(P, {0: 0, 1: 3, 3: 1, 2: 5, 5: 2, 4: 7, 7: 4, 6: 8,
                            8: 6})
    N = PartialMatching(P, {0: 2, 2: 0, 1: 4, 4: 1, 3: 6, 6: 3, 5: 5, 8: 7,
                            7: 8})
    assert verify_spm(M)[0] and verify_spm(N)[0]
    return P, M, N


def test_spm_on_two_chain():
    P = chain(2)
    swap = PartialMatching(P, {0: 1, 1: 0})
    assert verify_spm(swap) == (True, None)


def test_identity_fails_spm():
    P = chain(2)
    ident = PartialMatching.identity(P)
    ok, witness = verify_spm(ident)
    assert not ok and witness[0] == "top-not-matched-down"


def test_diamond_compatibility(diamond):
    # top matched to an atom and everything else fixed: the unmatched atom
    # violates compatibility against the matched pair
    bad = PartialMatching(diamond, {3: 1, 1: 3, 0: 0, 2: 2})
    ok, witness = verify_spm(bad)
    assert not ok and witness[0] == "compatibility"
    good = PartialMatching(diamond, {3: 1, 1: 3, 0: 2, 2: 0})
    assert verify_spm(good) == (True, None)


def test_moves_too_far_detected():
    P = chain(3)
    jump = PartialMatching(P, {0: 2, 2: 0, 1: 1})
    ok, witness = verify_qspm(jump)
    assert not ok and witness[0] == "moves-more-than-one-cover"


def test_not_involution_detected():
    P = chain(3)
    m = PartialMatching(P, {0: 1, 1: 2, 2: 1})
    ok, witness = verify_qspm(m)
    assert not ok and witness[0] == "not-an-involution"


def test_qspm_examples():
    P = chain(3)
    assert verify_qspm(PartialMatching.identity(P)) == (True, None)
    # bottom pair matched, top fixed: quasi SPM but not SPM
    m = PartialMatching(P, {0: 1, 1: 0, 2: 2})
    assert verify_qspm(m) == (True, None)
    ok, witness = verify_spm(m)
    assert not ok and witness[0] == "top-not-matched-down"
    # every verified SPM is a quasi SPM
    spm = PartialMatching(P, {2: 1, 1: 2, 0: 0})
    assert verify_spm(spm)[0] and verify_qspm(spm)[0]


def test_domain_mask_is_built_once(diamond):
    assert PartialMatching(diamond, {0: 1, 1: 0, 2: 2}).domain_mask() == 0b111
    assert PartialMatching(diamond, {}).domain_mask() == 0
    chain = GradedPoset([str(i) for i in range(80)],
                        [(i, i + 1) for i in range(79)])
    m = PartialMatching.identity(chain)
    assert m.domain_mask() == (1 << 80) - 1
    assert m.domain_mask() is m.domain_mask()


def test_qspm_requires_ideal_domain():
    P = chain(3)
    m = PartialMatching(P, {1: 2, 2: 1})
    ok, witness = verify_qspm(m)
    assert not ok and witness[0] == "domain-not-an-ideal"


def test_lifting_holds_for_valid_matchings(diamond):
    for m in enumerate_spms(diamond):
        assert check_lifting(m) == (True, None)
    # singleton domain: vacuous
    single = PartialMatching(diamond, {0: 0})
    assert check_lifting(single) == (True, None)


def test_lifting_witness_on_corrupted_involution(diamond):
    good = PartialMatching(diamond, {3: 1, 1: 3, 0: 2, 2: 0})
    assert check_lifting(good) == (True, None)
    # Mutate one edge: fixing the atoms breaks compatibility, and the
    # lifting check reports it as a (ii)-violation.
    bad = PartialMatching(diamond, {3: 1, 1: 3, 0: 0, 2: 2})
    assert not verify_qspm(bad)[0]
    ok, witness = check_lifting(bad)
    assert not ok and witness == ("lifting-ii", (2, 3))


def test_enumerate_two_chain():
    P = chain(2)
    out = enumerate_spms(P)
    assert len(out) == 1 and out[0].mapping == {0: 1, 1: 0}


def test_enumerate_diamond(diamond):
    out = enumerate_spms(diamond)
    maps = [m.mapping for m in out]
    assert len(out) == 2
    assert {0: 2, 2: 0, 1: 3, 3: 1} in maps
    assert {0: 1, 1: 0, 2: 3, 3: 2} in maps


def test_enumerate_chains():
    assert len(enumerate_spms(chain(3))) == 1
    out = enumerate_spms(chain(4))
    assert len(out) == 2
    assert {m.mapping[0] for m in out} == {0, 1}
    for m in out:
        assert verify_spm(m)[0] and check_lifting(m)[0]


def test_enumerate_of_singleton_is_empty():
    P = chain(3)
    assert enumerate_spms(P, 0) == []


def test_enumeration_deterministic(diamond):
    a = [m.mapping for m in enumerate_spms(diamond)]
    b = [m.mapping for m in enumerate_spms(diamond)]
    assert a == b == sorted(a, key=lambda m: tuple(m[i] for i in range(4)))


def test_lambda_partial_examples(groups):
    W = groups["A2"]
    quot = W.quotient({1})          # chain e < s1 < s2.s1
    P = quot.poset
    lam2 = quot.lambda_matching(1)  # s2: e fixed, s1 <-> s2.s1
    assert lam2.mapping == {P.index("e"): P.index("e"),
                            P.index("1"): P.index("2.1"),
                            P.index("2.1"): P.index("1")}
    lam1 = quot.lambda_matching(0)  # s1: e <-> s1, s2.s1 fixed
    assert lam1.mapping == {P.index("e"): P.index("1"),
                            P.index("1"): P.index("e"),
                            P.index("2.1"): P.index("2.1")}
    # H empty: plain left multiplication, no fixed points
    full = W.quotient(set())
    for s in range(2):
        lam = full.lambda_matching(s)
        assert all(lam(x) != x for x in lam.mapping)


def test_two_element_orbits():
    P = chain(2)
    both = PartialMatching(P, {0: 1, 1: 0})
    rep = orbit_analysis(both, both, 0)
    assert rep.shape == "dihedral" and rep.m_value == 1

    fix = PartialMatching.identity(P)
    rep = orbit_analysis(both, fix, 1)
    assert rep.shape == "chain_like" and rep.m_value == 2
    assert rep.orbit == (0, 1)


def test_singleton_orbit():
    P = chain(2)
    fix = PartialMatching.identity(P)
    rep = orbit_analysis(fix, fix, 0)
    assert rep.shape == "chain_like" and rep.m_value == 1


def test_figure_orbits(two_matching_poset):
    P, M, N = two_matching_poset
    top = orbit_analysis(M, N, 8)
    assert top.shape == "dihedral"
    assert top.m_value == 3
    assert len(top.orbit) == 6

    corner = orbit_analysis(M, N, 0)
    assert corner.shape == "chain_like"
    assert corner.m_value == 3
    assert corner.orbit == (0, 2, 5)

    assert strictly_coherent(M, N, 8)

    reports = orbit_partition(M, N, range(P.n))
    covered = sorted(u for rep in reports for u in rep.orbit)
    assert covered == list(range(P.n))


def test_strictly_coherent_self(groups):
    W = groups["A2"]
    quot = W.quotient(set())
    top = quot.poset.index("1.2.1")
    for s in range(2):
        m = quot.lambda_matching(s).restrict_to_ideal(top)
        assert strictly_coherent(m, m, top)


def test_strictly_coherent_symmetry(two_matching_poset):
    P, M, N = two_matching_poset
    assert strictly_coherent(M, N, 8) == strictly_coherent(N, M, 8)


def test_strictly_coherent_failure():
    # 5-chain: M pairs (0,1) and (3,4), fixes 2; N pairs (2,3), fixes rest.
    # The orbit of the top has m = 3 while {0,1} is chain-like with m = 2.
    P = chain(5)
    M = PartialMatching(P, {0: 1, 1: 0, 2: 2, 3: 4, 4: 3})
    N = PartialMatching(P, {0: 0, 1: 1, 2: 3, 3: 2, 4: 4})
    assert verify_qspm(M)[0] and verify_qspm(N)[0]
    top = orbit_analysis(M, N, 4)
    assert top.shape == "chain_like" and top.m_value == 3
    low = orbit_analysis(M, N, 0)
    assert low.m_value == 2
    assert not strictly_coherent(M, N, 4)


def test_strictly_coherent_classifies_each_orbit_once(groups, monkeypatch,
                                                     two_matching_poset):
    """strictly_coherent analyses each orbit of P_{<=w} once, the orbit of
    w included, and agrees with the two-pass reference."""
    cases = [two_matching_poset[1:] + (8,)]
    P = groups["A3"].quotient({1}).poset
    for w in range(P.n):
        pool = enumerate_spms(P, w)
        cases += [(M, N, w) for M in pool for N in pool]
    counted = []
    real = matchings.orbit_analysis

    def spy(M, N, u):
        counted.append(u)
        return real(M, N, u)

    monkeypatch.setattr(matchings, "orbit_analysis", spy)
    for M, N, w in cases:
        orbits = orbit_partition(M, N, M.poset.ideal_elements(w))
        want = oracles.strictly_coherent(M, N, w)
        counted.clear()
        assert strictly_coherent(M, N, w) == want, (M, N, w)
        assert len(counted) == len(orbits), (M, N, w)


def test_classification_failure_raises():
    # Maps that are involutions moving by covers but wildly incompatible
    # produce an orbit that is not an interval.
    P = GradedPoset("abcd", [(0, 1), (0, 2), (1, 3), (2, 3)])
    M = PartialMatching(P, {0: 1, 1: 0, 2: 3, 3: 2})
    N = PartialMatching(P, {0: 2, 2: 0, 1: 1, 3: 3})
    # orbit of 1: {1, 0, 2, 3} via M and N alternately; fixed points of N
    # inside a non-chain orbit cannot be classified
    with pytest.raises(OrbitClassificationError):
        orbit_analysis(M, N, 1)


def test_coherent(groups):
    W = groups["A2"]
    quot = W.quotient(set())
    top = quot.poset.index("1.2.1")
    pool = enumerate_spms(quot.poset, top)
    lam1, lam2 = (quot.lambda_matching(s).restrict_to_ideal(top)
                  for s in range(2))
    assert coherent(lam1, lam1, top, pool)
    assert strictly_coherent(lam1, lam2, top)
    assert coherent(lam1, lam2, top, pool)
    for m in pool:
        assert coherent(pool[0], m, top, pool)
    outsider = PartialMatching.identity(quot.poset)
    with pytest.raises(MatchingError):
        coherent(outsider, lam1, top, pool)


def test_chain_dirconness():
    # Chains of rank <= 2 have a forced SPM structure and are dircons.
    for n in (2, 3):
        assert is_dircon(chain(n))
    # From rank 3 on, the SPM pairing the bottom two elements and the SPM
    # fixing them form a chain-like orbit of m = 2 under a top orbit of
    # m = 1, so strict coherence (divisibility into the top orbit's m)
    # fails and no third SPM connects them.
    P = chain(4)
    pool = enumerate_spms(P)
    assert len(pool) == 2
    assert not strictly_coherent(pool[0], pool[1], 3)
    assert not is_dircon(P)
    assert not is_dircon(chain(5))


def test_non_dircon_poset(non_dircon_poset):
    assert verify_pircon(non_dircon_poset) == (True, None)
    assert not is_dircon(non_dircon_poset)
    pool = enumerate_spms(non_dircon_poset, 5)
    assert len(pool) == 2
    assert not strictly_coherent(pool[0], pool[1], 5)
    assert not coherent(pool[0], pool[1], 5, pool)


def test_verify_pircon():
    for quot_chain in (chain(4), chain(2)):
        assert verify_pircon(quot_chain) == (True, None)
    single = GradedPoset(["e"], [])
    assert verify_pircon(single) == (True, None)
    # the three-crown admits no SPM at the top: not a pircon
    crown = GradedPoset("abcdt",
                        [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
    ok, witness = verify_pircon(crown)
    assert not ok and witness == ("no-spm", 4)


def test_quotient_ideals_are_pircons(groups):
    W = groups["B2"]
    for H in (set(), {0}, {1}):
        quot = W.quotient(H)
        assert verify_pircon(quot.poset) == (True, None)


def test_matching_json_roundtrip(diamond):
    m = enumerate_spms(diamond)[0]
    data = m.to_json()
    again = PartialMatching.from_json(data)
    assert again.mapping == m.mapping
    anchored = PartialMatching.from_json(data, diamond)
    assert anchored == m
    partial = PartialMatching(diamond, {0: 0, 1: 1})
    assert partial.to_json()["map"] == [0, 1, None, None]


def test_restrict_to_ideal(two_matching_poset):
    P, M, N = two_matching_poset
    r = M.restrict_to_ideal(7)
    assert set(r.domain) == set(P.ideal_elements(7))
    assert verify_spm(r)[0]
    with pytest.raises(MatchingError):
        M.restrict_to_ideal(1)  # M(1) = 3 is above 1
