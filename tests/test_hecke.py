import pytest

import oracles
from oracles import HalfLaurent, ModuleVector, embed, pack, widened
from pircons import hecke
from pircons.hecke import (HeckeContext, characterize, cprime_recursion,
                           iota, kl_element_cprime, p_recursion, t_action,
                           verify_duality, verify_hecke_relations)
from pircons.klpoly import (X_MINUS_ONE, X_PARAMS, X_Q, PirconSystem,
                            lambda_refinement, other_x)
from pircons.matchings import PartialMatching

ONE = HalfLaurent.one()
Q = HalfLaurent.q_power(1)
QBAR = HalfLaurent.q_power(-1)


@pytest.fixture(scope="module")
def chain_ctx(suite_contexts):
    return suite_contexts["A2/H={s2}"]


def basis(ctx, u):
    return {u: ctx.one}


def decoded(ctx, v):
    return ModuleVector.lift(ctx.decode(v))


def polynomial(ctx, value):
    """A packed P-entry (no offset) as a HalfLaurent."""
    return ctx.decode({0: value << ctx.width * ctx.offset}).coeff(0)


def test_module_vector_algebra(chain_ctx):
    # the reference arithmetic the packed layer is held to
    v = ModuleVector({0: Q, 1: ONE})
    w = ModuleVector({1: -1 * ONE, 2: QBAR})
    assert (v + w).coeffs == {0: Q, 2: QBAR}
    assert (v - v) == ModuleVector.zero()
    assert v.scale(HalfLaurent.zero()) == ModuleVector.zero()
    assert v.coeff(5) == HalfLaurent.zero()
    assert ModuleVector({0: HalfLaurent.zero()}) == ModuleVector.zero()
    # packed, a sum of vectors is a sum of ints per element
    ctx = chain_ctx
    pv, pw = pack(ctx, v), pack(ctx, w)
    total = {u: pv.get(u, 0) + pw.get(u, 0) for u in {*pv, *pw}}
    assert ctx.decode({u: c for u, c in total.items() if c}) == v + w
    assert ctx.decode(pv) == v and ctx.decode({}) == ModuleVector.zero()
    assert hecke.ModuleVector({0: HalfLaurent.zero()}) == \
        hecke.ModuleVector()


def test_t_action_cases(chain_ctx):
    ctx = chain_ctx
    P = ctx.poset
    e, s1, top = P.index("e"), P.index("1"), P.index("2.1")
    lam2 = next(M for M in ctx.system.matchings if M(e) == e)   # fixes e
    # up: m_{s1} -> m_{top}
    assert t_action(ctx, lam2, basis(ctx, s1), X_Q) == basis(ctx, top)
    # down: m_top -> q m_{s1} + (q-1) m_top
    assert decoded(ctx, t_action(ctx, lam2, basis(ctx, top), X_Q)) == \
        ModuleVector({s1: Q, top: Q - ONE})
    # fixed, x = q: m_e -> q m_e
    assert decoded(ctx, t_action(ctx, lam2, basis(ctx, e), X_Q)) == \
        ModuleVector({e: Q})
    # fixed, x = -1: m_e -> -m_e
    assert t_action(ctx, lam2, basis(ctx, e), X_MINUS_ONE) == \
        {e: -ctx.one}


def test_quadratic_relation_by_cases(chain_ctx):
    ctx = chain_ctx
    for x in X_PARAMS:
        for M in ctx.system.matchings:
            for u in range(ctx.poset.n):
                v = ModuleVector.basis(u)
                tv = t_action(ctx, M, basis(ctx, u), x)
                assert decoded(ctx, t_action(ctx, M, tv, x)) == \
                    decoded(ctx, tv).scale(Q - ONE) + v.scale(Q)


def test_t_inverse_roundtrip(chain_ctx):
    # on the object path: nothing in the library applies T_M^(-1)
    ctx = chain_ctx
    t, t_inverse = oracles.t_action, oracles.t_inverse_action
    for x in X_PARAMS:
        for M in ctx.system.matchings:
            for u in range(ctx.poset.n):
                v = ModuleVector.basis(u)
                assert t_inverse(ctx, M, t(ctx, M, v, x), x) == v
                assert t(ctx, M, t_inverse(ctx, M, v, x), x) == v


def test_t_inverse_fixed_point_scalar(chain_ctx):
    ctx = chain_ctx
    P = ctx.poset
    e = P.index("e")
    m_e = ModuleVector.basis(e)
    lam2 = next(M for M in ctx.system.matchings if M(e) == e)
    got = oracles.t_inverse_action(ctx, lam2, m_e, X_MINUS_ONE)
    assert got == ModuleVector({e: -1 * ONE})
    # bottom matched up: q^(-1) m_{M(e)} + (q^(-1) - 1) m_e
    lam1 = next(M for M in ctx.system.matchings if M(e) != e)
    got = oracles.t_inverse_action(ctx, lam1, m_e, X_Q)
    assert got == ModuleVector({lam1(e): QBAR, e: QBAR - ONE})


def test_hecke_relations_commuting_and_braid(suite_contexts):
    # B3 with H = {s3}: lambda_1 and lambda_3 commute (m=2), lambda_1 and
    # lambda_2 braid with m = 4, lambda_2 and lambda_3 with m = 3.
    ctx = suite_contexts["B3/H={s3}"]
    for x in X_PARAMS:
        assert verify_hecke_relations(ctx, x) == (True, None)
    # braid length 3 on the full S3 quotient
    ctx = suite_contexts["A2/H={-}"]
    assert set(ctx.m_orders.values()) == {3}
    for x in X_PARAMS:
        assert verify_hecke_relations(ctx, x) == (True, None)


def test_m_orders_match_coxeter_matrix(suite_contexts, groups):
    # With H empty the matchings are plain left multiplications, so the
    # permutation order of MN equals the Coxeter matrix entry.
    W = groups["B3"]
    ctx = suite_contexts["B3/H={-}"]
    for (i, j), m in ctx.m_orders.items():
        assert m == W.matrix[i][j]


def test_iota_examples(chain_ctx):
    ctx = chain_ctx
    P = ctx.poset
    e, s1 = P.index("e"), P.index("1")
    for x in X_PARAMS:
        assert iota(ctx, basis(ctx, e), x) == basis(ctx, e)
        # iota(m_{s1}) = qbar (m_{s1} - (q-1) m_e)
        got = iota(ctx, basis(ctx, s1), x)
        want = ModuleVector({s1: QBAR, e: (ONE - Q) * QBAR})
        assert decoded(ctx, got) == want


def test_iota_is_involution(suite_contexts):
    # the context's width fits no check of iota o iota, so the second iota
    # runs on a widened copy
    for key in ("A2/H={s2}", "B2/H={-}", "I2(5)/H={s1}"):
        ctx = suite_contexts[key]
        for x in X_PARAMS:
            for u in range(ctx.poset.n):
                image = decoded(ctx, iota(ctx, basis(ctx, u), x))
                assert widened(ctx, lambda c, pv: iota(c, pv, x), image) \
                    == ModuleVector.basis(u)


def test_j_map_examples(chain_ctx):
    # on the object path: the duality suite reads j_P's identities off the
    # tables, so nothing in the library applies it
    ctx = chain_ctx
    P = ctx.poset
    e, top = P.index("e"), P.index("2.1")
    j = oracles.j_map
    assert j(ctx, ModuleVector.basis(e)) == ModuleVector.basis(e)
    got = j(ctx, ModuleVector.basis(top))
    assert got == ModuleVector({top: HalfLaurent({-4: 1})})
    v = ModuleVector({e: Q, top: HalfLaurent.half_power(1)})
    assert j(ctx, j(ctx, v)) == v


def test_kl_elements_examples(chain_ctx):
    ctx = chain_ctx
    P = ctx.poset
    e, s1, top = P.index("e"), P.index("1"), P.index("2.1")
    for x in X_PARAMS:
        assert kl_element_cprime(ctx, P.bottom, x) == basis(ctx, e)
    # rank-1: C'^x_{s1} = q^(-1/2)(m_e + m_{s1})
    h = HalfLaurent.half_power(-1)
    for x in X_PARAMS:
        assert decoded(ctx, kl_element_cprime(ctx, s1, x)) == \
            ModuleVector({e: h, s1: h})
    # spec values on the chain top
    assert decoded(ctx, kl_element_cprime(ctx, top, X_Q)) == \
        ModuleVector({e: QBAR, s1: QBAR, top: QBAR})
    assert decoded(ctx, kl_element_cprime(ctx, top, X_MINUS_ONE)) == \
        ModuleVector({s1: QBAR, top: QBAR})


def test_cprime_triangularity(suite_contexts):
    ctx = suite_contexts["B2/H={-}"]
    P = ctx.poset
    for x in X_PARAMS:
        for w in range(P.n):
            vec = ctx.decode(kl_element_cprime(ctx, w, x))
            lead = vec.coeff(w)
            assert lead == HalfLaurent.half_power(-P.rank[w])
            assert all(P.leq(v, w) for v in vec.coeffs)


def test_duality_small_instances(suite_contexts):
    for key in ("A2/H={s2}", "A2/H={s1,s2}", "I2(5)/H={s2}"):
        assert verify_duality(suite_contexts[key]) == (True, None)


def test_thm_4_8_2_formula(chain_ctx):
    # iota^x(j(m_w)) should expand to sum_v (-1)^rho(v) R^x_{v,w} m_v;
    # the packed iota, with the object path's j_P on decoded vectors.
    ctx = chain_ctx
    P = ctx.poset
    j = oracles.j_map
    for x in X_PARAMS:
        table = ctx.system.r_table(x)
        for w in range(P.n):
            jm = j(ctx, ModuleVector.basis(w))
            got = decoded(ctx, iota(ctx, pack(ctx, jm), x))
            want = ModuleVector({
                v: embed(table.value(v, w)).scale((-1) ** P.rank[v])
                for v in P.ideal_elements(w)})
            assert got == want
            assert got == j(ctx, decoded(
                ctx, iota(ctx, basis(ctx, w), other_x(x))))


def test_mu_values(suite_contexts):
    ctx = suite_contexts["A3/H={-}"]
    P = ctx.poset
    e = P.index("e")
    s1 = P.index("1")
    w3412 = P.index("2.1.3.2")
    mu = oracles.mu
    for x in X_PARAMS:
        assert mu(ctx, s1, P.index("1.2"), x) == 1     # gap 1, P = 1
        assert mu(ctx, e, P.index("1.2"), x) == 0      # gap 2
        assert mu(ctx, e, w3412, x) == 0               # gap 4 even
        assert mu(ctx, w3412, w3412, x) == 0
        assert mu(ctx, w3412, e, x) == 0               # incomparable order


def test_cprime_recursion_rank1(chain_ctx):
    ctx = chain_ctx
    P = ctx.poset
    s1 = P.index("1")
    M = next(M for M in ctx.system.matchings if M(s1) == P.bottom)
    for x in X_PARAMS:
        got = cprime_recursion(ctx, s1, M, x)
        assert got == kl_element_cprime(ctx, s1, x)
        # C'_M . m_e, on the object path: no correction at rank 1
        base = oracles.cprime_generator_action(
            ctx, M, ModuleVector.basis(P.bottom), x)
        assert base == decoded(ctx, got)


def test_cprime_recursion_chain_top(chain_ctx):
    ctx = chain_ctx
    P = ctx.poset
    top = P.index("2.1")
    for x in X_PARAMS:
        for M in ctx.system.down_matchings(top):
            assert cprime_recursion(ctx, top, M, x) == \
                kl_element_cprime(ctx, top, x)


def test_cprime_recursion_requires_down(chain_ctx):
    ctx = chain_ctx
    P = ctx.poset
    e = P.index("e")
    M = ctx.system.matchings[0]
    with pytest.raises(ValueError):
        cprime_recursion(ctx, e, M, X_Q)


def test_p_recursion_examples(suite_contexts):
    ctx = suite_contexts["A3/H={-}"]
    P = ctx.poset
    e, w = P.index("e"), P.index("2.1.3.2")
    for x in X_PARAMS:
        for M in ctx.system.down_matchings(w):
            column = p_recursion(ctx, w, M, x)
            assert column[w] == 1
            assert column[e] == (1 << 2 * ctx.width) + 1


def test_p_recursion_chain(chain_ctx):
    ctx = chain_ctx
    P = ctx.poset
    top = P.index("2.1")
    for x in X_PARAMS:
        z = other_x(x)
        for M in ctx.system.down_matchings(top):
            column = p_recursion(ctx, top, M, x)
            assert column == ctx.packed_p(z)[top]
            for v in P.ideal_elements(top):
                assert polynomial(ctx, column.get(v, 0)) == \
                    embed(ctx.system.p_table(z).value(v, top))


def test_characterize(chain_ctx):
    ctx = chain_ctx
    P = ctx.poset
    top = P.index("2.1")
    e = P.index("e")
    for x in X_PARAMS:
        good = kl_element_cprime(ctx, top, x)
        assert characterize(ctx, good, top, x)
        # degree violation: add q^(-rho(w)/2) * q * m_e (deg 1 >= gap/2 = 1)
        spoiled = pack(ctx, decoded(ctx, good) + ModuleVector(
            {e: HalfLaurent.half_power(-P.rank[top]) * Q}))
        assert not characterize(ctx, spoiled, top, x)
        # m_w alone is not iota-invariant (and fails normalization)
        assert not characterize(ctx, basis(ctx, top), top, x)
        # wrong leading normalization
        assert not characterize(
            ctx, pack(ctx, decoded(ctx, good).scale(Q)), top, x)
    # the bottom basis vector is its own C'
    for x in X_PARAMS:
        assert characterize(ctx, basis(ctx, P.bottom), P.bottom, x)


def test_context_rejects_partial_domains(groups):
    quot = groups["A2"].quotient({1})
    P = quot.poset
    half = PartialMatching(P, {0: 0})
    with pytest.raises(ValueError, match="whole poset"):
        HeckeContext(P, PirconSystem(P, [half], lambda_refinement(quot)))


def test_module_vector_json(chain_ctx):
    ctx = chain_ctx
    P = ctx.poset
    v = ctx.decode(kl_element_cprime(ctx, P.index("2.1"), X_Q))
    data = v.to_json(P)
    assert hecke.ModuleVector.from_json(data, P) == v
