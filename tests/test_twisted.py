import pytest

import oracles
from oracles import refinement_independence
from pircons.hecke import HeckeContext
from pircons.klpoly import X_PARAMS, check_pkernel, check_updown
from pircons.laurent import QPoly
from pircons.matchings import PartialMatching, is_dircon, orbit_partition, \
    verify_qspm, verify_spm
from pircons.twisted import KLV_Q, KLV_R, TwistedIdentities


def conjugation_maps(T):
    """{i: u -> theta(s_i) u s_i as a matching of the whole poset}."""
    return {i: PartialMatching(T.poset, dict(enumerate(images)))
            for i, images in enumerate(T.images)}


def test_counts():
    assert TwistedIdentities(1).poset.n == 1
    assert TwistedIdentities(2).poset.n == 3


def test_n1_is_identity_only():
    T = TwistedIdentities(1)
    assert T.poset.labels == ("12",)


def test_n2_structure(twisted2):
    P = twisted2.poset
    assert P.labels == ("1234", "2143", "3412")
    assert P.rank == (0, 1, 2)   # a chain; covers span Bruhat gaps of 2
    host = twisted2.host
    lengths = [host.length[g] for g in twisted2.elements]
    assert lengths == [0, 2, 4]


def test_n3_structure(twisted3):
    P = twisted3.poset
    assert P.n == 15
    assert P.max_rank() == 6
    assert P.top is not None


def test_conjugation_involution(twisted2):
    for m in conjugation_maps(twisted2).values():
        for u, v in m.mapping.items():
            assert m(v) == u


def test_conjugation_fixed_points(twisted2):
    host = twisted2.host
    left = oracles.group_tables(host)["left"]
    for i in range(host.num_gens):
        images = conjugation_maps(twisted2)[i].mapping
        ti = 2 * twisted2.n - 2 - i   # theta(s_i) = s_(2n-2-i), 0-based
        for u, v in images.items():
            g = twisted2.elements[u]
            conj = left[host.right[g][i]][ti]
            assert (conj == g) == (u == v)


def test_conjugation_matchings_verify(twisted3):
    P = twisted3.poset
    refinement = twisted3.conjugation_refinement()
    for w in range(P.n):
        if w == P.bottom:
            continue
        assert w in refinement.matchings
        assert verify_spm(refinement[w].restrict_to_ideal(w)) == (True, None)


def test_klv_diagonal_and_chain_values(twisted2):
    for x in X_PARAMS:
        table = twisted2.system.r_table(x)
        for w in range(3):
            assert table.value(w, w) == QPoly.one()
    r = twisted2.system.r_table(KLV_R)     # the R-family sits at x = q
    qtab = twisted2.system.r_table(KLV_Q)  # the Q-family at x = -1
    assert r.value(0, 2) == QPoly((1, -1))
    assert qtab.value(0, 2) == QPoly((0, -1, 1))


def test_klv_refinement_independence(twisted2):
    ref_min = twisted2.conjugation_refinement()
    ref_max = oracles.conjugation_refinement(twisted2, max)
    for x in X_PARAMS:
        assert refinement_independence(
            twisted2.poset, [ref_min, ref_max], x) == (True, None)


@pytest.mark.parametrize("n", [2, 3])
def test_updown_and_kernel(request, n):
    T = request.getfixturevalue(f"twisted{n}")
    S = T.matchings
    assert S
    for x in X_PARAMS:
        table = T.system.r_table(x)
        assert check_updown(S, table) == (True, None)
        assert check_pkernel(table)[:2] == (True, None)


@pytest.mark.parametrize("n", [2, 3])
def test_twisted_is_dircon(request, n):
    T = request.getfixturevalue(f"twisted{n}")
    assert is_dircon(T.poset)


def test_orbit_m_values(twisted3):
    """Pairs of conjugation matchings: m-values within {1, 3} for adjacent
    generator indices and {1, 2} for distant ones; the orbit of a fixed
    point of one matching is chain-like."""
    T = twisted3
    qspms = {i: m for i, m in conjugation_maps(T).items()
             if verify_qspm(m)[0]}
    for i, M in qspms.items():
        for j, N in qspms.items():
            if i >= j or M == N:
                continue
            allowed = {1, 3} if abs(i - j) == 1 else {1, 2}
            expected_m = 3 if abs(i - j) == 1 else 2
            for rep in orbit_partition(M, N, range(T.poset.n)):
                assert rep.m_value in allowed
                w_fixed = [w for w in rep.orbit if M(w) == w or N(w) == w]
                if len(rep.orbit) > 1 and w_fixed:
                    assert rep.shape == "chain_like"
                    assert rep.m_value == expected_m


def test_whole_poset_conjugation_qspms(twisted3):
    """The system's matchings are the distinct conjugation maps that are
    quasi SPMs of the whole poset, in order of the generator."""
    qspms = [m for m in conjugation_maps(twisted3).values()
             if verify_qspm(m) == (True, None)]
    assert qspms
    assert twisted3.matchings == tuple(dict.fromkeys(qspms))
    assert twisted3.system.matchings == twisted3.matchings


def test_labels_are_one_line(twisted3):
    for lab in twisted3.poset.labels:
        assert sorted(lab) == ["1", "2", "3", "4", "5", "6"]


def test_hecke_context_duality(twisted2_context):
    from pircons.hecke import verify_duality, verify_hecke_relations
    for x in X_PARAMS:
        assert verify_hecke_relations(twisted2_context, x) == (True, None)
    assert verify_duality(twisted2_context) == (True, None)


def test_tables_and_context_share_one_refinement(monkeypatch):
    calls = []
    build = TwistedIdentities.conjugation_refinement
    monkeypatch.setattr(TwistedIdentities, "conjugation_refinement",
                        lambda self, *a: calls.append(1) or build(self, *a))
    T = TwistedIdentities(2)
    T.system.r_table(KLV_R)
    T.system.r_table(KLV_Q)
    HeckeContext(T.poset, T.system)
    assert len(calls) == 1
