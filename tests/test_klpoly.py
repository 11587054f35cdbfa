import pytest
import sympy

import oracles
from oracles import (chain_r_value, classical_kl, group_product, qpoly_expr,
                     refinement_independence, table_inversion)
from pircons.hecke import HeckeContext
from pircons.klpoly import (KernelError, PirconSystem, PolyTable, Refinement,
                            X_MINUS_ONE, X_PARAMS, X_Q, all_refinements,
                            brenti_identity, check_pkernel, check_updown,
                            is_calculating, kls_polynomials,
                            lambda_refinement, other_x, r_polynomials,
                            verify_pircon_system, verify_r_properties)
from pircons.laurent import QPoly
from pircons.matchings import PartialMatching, enumerate_spms


def test_x_plumbing():
    assert other_x(X_Q) == X_MINUS_ONE and other_x(X_MINUS_ONE) == X_Q
    with pytest.raises(ValueError):
        other_x("2")


# -- chain formula -----------------------------------------------------------

CHAINS = [("A2", {1}), ("A3", {1, 2}), ("I2(5)", {0})]


@pytest.mark.parametrize("name,H", CHAINS)
@pytest.mark.parametrize("x", X_PARAMS)
def test_chain_formula_every_refinement(groups, name, H, x):
    quot = groups[name].quotient(H)
    P = quot.poset
    refinements = list(all_refinements(P))
    assert refinements
    for ref in refinements:
        table = r_polynomials(P, ref, x)
        for (u, w), poly in oracles.entries(table).items():
            if u == w:
                assert poly == QPoly.one()
            else:
                want = chain_r_value(x, P.rank_gap(u, w))
                assert sympy.expand(qpoly_expr(poly) - want) == 0


def test_rank2_chain_values(groups):
    quot = groups["A2"].quotient({1})
    P = quot.poset
    ref = lambda_refinement(quot)
    e, top = P.index("e"), P.index("2.1")
    assert r_polynomials(P, ref, X_MINUS_ONE).value(e, top) == QPoly((0, -1, 1))
    assert r_polynomials(P, ref, X_Q).value(e, top) == QPoly((1, -1))


def test_full_s3_table(groups):
    quot = groups["A2"].quotient(set())
    P = quot.poset
    ref = lambda_refinement(quot)
    e, w0 = P.index("e"), P.index("1.2.1")
    # (q-1)(q^2-q+1)
    want = oracles.mul(oracles.mul(QPoly((1, -1)), QPoly((1, -1, 1))), -1)
    tables = {x: r_polynomials(P, ref, x) for x in X_PARAMS}
    for x in X_PARAMS:
        assert tables[x].value(e, w0) == want
    # lambda matchings have no fixed points on the full quotient, so the
    # two parameters give identical tables
    assert tables[X_Q].columns == tables[X_MINUS_ONE].columns


# -- calculating matchings ---------------------------------------------------

def test_refinement_matchings_are_calculating(groups):
    quot = groups["B2"].quotient({0})
    P = quot.poset
    ref = lambda_refinement(quot)
    for x in X_PARAMS:
        table = r_polynomials(P, ref, x)
        for w in range(P.n):
            if w != P.bottom:
                assert is_calculating(ref[w], table, w) == (True, None)


def test_all_spms_calculating_on_dircon(twisted2):
    for x in X_PARAMS:
        table = twisted2.system.r_table(x)
        for w in range(twisted2.poset.n):
            if w == twisted2.poset.bottom:
                continue
            for M in enumerate_spms(twisted2.poset, w):
                assert is_calculating(M, table, w) == (True, None)


def test_non_calculating_spm_on_refinement_dependent_pircon(
        refinement_dependent_poset):
    P = refinement_dependent_poset
    refs = list(all_refinements(P))
    assert len(refs) == 8
    for x in X_PARAMS:
        tables = [r_polynomials(P, ref, x) for ref in refs]
        distinct = []
        for t in tables:
            if all(t != d for d in distinct):
                distinct.append(t)
        assert len(distinct) == 2  # genuinely refinement-dependent
        # a top matching from the other class is not calculating
        got = is_calculating(
            PartialMatching(P, {0: 1, 1: 0, 3: 3, 4: 4, 6: 7, 7: 6}),
            tables[0], 7)
        assert got == (False, ("not-calculating", (0, 7)))


def test_strongly_calculating(groups, suite_contexts):
    # exhaustive over every quotient of S3 and S4 and every lambda matching
    for key, ctx in suite_contexts.items():
        if not key.startswith(("A2/", "A3/")):
            continue
        for x in X_PARAMS:
            table = ctx.system.r_table(x)
            for M in ctx.system.matchings:
                assert oracles.is_strongly_calculating(M, table) == \
                    (True, None), key
    # identity involution: no z with M(z) covered by z, vacuously true
    quot = groups["A2"].quotient(set())
    table = suite_contexts["A2/H={-}"].system.r_table(X_Q)
    ident = PartialMatching.identity(quot.poset)
    assert oracles.is_strongly_calculating(ident, table) == (True, None)


# -- up-down symmetry and the kernel condition --------------------------------

def test_updown_on_chain_quasi_spm(groups):
    quot = groups["A2"].quotient({1})
    P = quot.poset
    table = r_polynomials(P, lambda_refinement(quot), X_Q)
    lam2 = quot.lambda_matching(1)  # fixes e; pairs s1 with s2.s1
    assert check_updown([lam2], table) == (True, None)


def test_updown_witness_on_corrupted_table(groups):
    quot = groups["A2"].quotient({1})
    P = quot.poset
    table = r_polynomials(P, lambda_refinement(quot), X_Q)
    table = oracles.replaced(
        table, {(P.index("1"), P.index("2.1")): QPoly((7,))})
    S = [quot.lambda_matching(s) for s in range(2)]
    assert check_updown(S, table) == \
        (False, ("updown-c'", (0, P.index("e"), P.index("2.1"))))


@pytest.mark.parametrize("x", X_PARAMS)
@pytest.mark.parametrize("pair,want", [
    (("e", "e"), ("updown-a'", (1, "e", "e"))),
    (("e", "2"), ("updown-b'", (1, "e", "2"))),
    (("e", "1.2"), ("updown-c'", (1, "e", "1.2"))),
])
def test_updown_whole_witness_per_clause(suite_contexts, x, pair, want):
    """Adding q to one entry breaks the clause named, at the first
    (matching, u, w) in scan order."""
    ctx = suite_contexts["A3/H={s1}"]
    P = ctx.poset
    key = (P.index(pair[0]), P.index(pair[1]))
    table = oracles.nudged(ctx.system.r_table(x), key, oracles.monomial(1))
    clause, (mi, u, w) = want
    assert check_updown(ctx.system.matchings, table) == \
        (False, (clause, (mi, P.index(u), P.index(w))))


def test_pkernel_diagonal_and_rank1():
    # u = v: single term 1; rank-1 pair: (q-1) + q((1/q) - 1) = 0
    from pircons.posets import GradedPoset
    chain2 = GradedPoset("ab", [(0, 1)])
    ref = Refinement(chain2, {1: PartialMatching(chain2, {0: 1, 1: 0})})
    table = r_polynomials(chain2, ref, X_MINUS_ONE)
    ok, witness, p = check_pkernel(table)
    assert (ok, witness) == (True, None) and p == kls_polynomials(table)


def test_refinement_errors_name_labels():
    from pircons.posets import GradedPoset
    chain = GradedPoset("abc", [(0, 1), (1, 2)])
    swap = PartialMatching(chain, {0: 1, 1: 0})
    with pytest.raises(ValueError, match="minimal element 'a'"):
        Refinement(chain, {0: PartialMatching(chain, {0: 0}), 1: swap})
    with pytest.raises(ValueError, match="misses element 'c'"):
        Refinement(chain, {1: swap})
    with pytest.raises(ValueError, match="matching at 'c' is not defined"):
        Refinement(chain, {1: swap, 2: swap})


def test_pkernel_witness_on_corrupted_table(groups):
    quot = groups["A2"].quotient(set())
    P = quot.poset
    table = r_polynomials(P, lambda_refinement(quot), X_MINUS_ONE)
    table = oracles.replaced(
        table, {(P.index("e"), P.index("1.2.1")): QPoly((1, 1))})
    ok, witness, p = check_pkernel(table)
    assert not ok and witness[0] == "kernel" and p is None


# -- kernel inversion ----------------------------------------------------------

def test_kls_rank1_forced(groups):
    quot = groups["A2"].quotient({1})
    table = r_polynomials(quot.poset, lambda_refinement(quot), X_MINUS_ONE)
    p = kls_polynomials(table)
    e, s1 = quot.poset.index("e"), quot.poset.index("1")
    assert p.value(e, s1) == QPoly.one()


@pytest.mark.parametrize("name,H", CHAINS)
def test_kls_chain_patterns(groups, name, H):
    quot = groups[name].quotient(H)
    P = quot.poset
    ref = lambda_refinement(quot)
    p_minus = kls_polynomials(r_polynomials(P, ref, X_MINUS_ONE))
    p_q = kls_polynomials(r_polynomials(P, ref, X_Q))
    for (u, w) in oracles.pairs(p_minus):
        gap = P.rank_gap(u, w)
        assert p_minus.value(u, w) == QPoly.one()
        want = QPoly.one() if gap <= 1 else QPoly.zero()
        assert p_q.value(u, w) == want


def test_kls_spec_values(groups, suite_contexts):
    quot = groups["A2"].quotient({1})
    P = quot.poset
    e, top = P.index("e"), P.index("2.1")
    ctx = suite_contexts["A2/H={s2}"]
    assert ctx.system.p_table(X_MINUS_ONE).value(e, top) == QPoly.one()
    assert ctx.system.p_table(X_Q).value(e, top) == QPoly.zero()

    ctx3 = suite_contexts["A3/H={-}"]
    P3 = ctx3.poset
    e3, w = P3.index("e"), P3.index("2.1.3.2")
    for x in X_PARAMS:
        assert ctx3.system.p_table(x).value(e3, w) == QPoly((1, 1))


def test_kls_against_sympy_inversion(suite_contexts):
    for key in ("B2/H={-}", "A2/H={s1}", "I2(5)/H={s2}"):
        ctx = suite_contexts[key]
        for x in X_PARAMS:
            table = ctx.system.r_table(x)
            oracle = table_inversion(table)
            mine = ctx.system.p_table(x)
            for (u, w), poly in oracles.entries(mine).items():
                assert sympy.expand(qpoly_expr(poly) - oracle[(u, w)]) == 0


def test_kls_rejects_non_kernel(groups):
    quot = groups["A2"].quotient(set())
    P = quot.poset
    table = r_polynomials(P, lambda_refinement(quot), X_MINUS_ONE)
    table = oracles.replaced(
        table, {(P.index("e"), P.index("1.2.1")): QPoly((1, 2, 3, 4))})
    with pytest.raises(KernelError):
        kls_polynomials(table)


def test_kls_degree_bound(suite_contexts):
    for key in ("A3/H={-}", "B3/H={s1}"):
        ctx = suite_contexts[key]
        for x in X_PARAMS:
            p = ctx.system.p_table(x)
            for (u, w), poly in oracles.entries(p).items():
                if u != w and poly:
                    assert 2 * poly.degree() < p.poset.rank_gap(u, w)


def _parabolic_subgroup(W, H):
    members = {W.identity}
    frontier = [W.identity]
    while frontier:
        new = []
        for g in frontier:
            for h in H:
                img = W.right[g][h]
                if img not in members:
                    members.add(img)
                    new.append(img)
        frontier = new
    return members


@pytest.mark.parametrize("name,H", [("A2", (0,)), ("A3", (1,)),
                                    ("A3", (0, 2)), ("B2", (0,))])
def test_parabolic_vs_classical_coset_identities(groups, suite_contexts,
                                                 name, H):
    """Cross-check against classical KL polynomials of the full group:
    the x = q table is the alternating sum over the coset subgroup and the
    x = -1 table is the classical value translated by its longest element.
    """
    W = groups[name]
    oracle = classical_kl(W)
    hh = ",".join(f"s{h + 1}" for h in H)
    ctx = suite_contexts[f"{name}/H={{{hh}}}"]
    quot = W.quotient(set(H))
    members = _parabolic_subgroup(W, H)
    w_long = max(members, key=lambda g: W.length[g])
    p_q = ctx.system.p_table(X_Q)
    p_minus = ctx.system.p_table(X_MINUS_ONE)
    for (u, w), poly in oracles.entries(p_q).items():
        gu, gw = quot.reps[u], quot.reps[w]
        alt = sum((-1) ** W.length[v]
                  * oracle.get((group_product(W, gu, v), gw), 0)
                  for v in members)
        assert sympy.expand(qpoly_expr(poly) - alt) == 0
        translated = oracle.get(
            (group_product(W, gu, w_long), group_product(W, gw, w_long)), 0)
        assert sympy.expand(
            qpoly_expr(p_minus.value(u, w)) - translated) == 0


def test_classical_kl_oracle(groups, suite_contexts):
    for name in ("A2", "A3"):
        system = groups[name]
        oracle = classical_kl(system)
        ctx = suite_contexts[f"{name}/H={{-}}"]
        quot_poset = ctx.poset
        full = system.quotient(set())
        for x in X_PARAMS:
            mine = ctx.system.p_table(x)
            for (u, w), poly in oracles.entries(mine).items():
                gu, gw = full.reps[u], full.reps[w]
                assert sympy.expand(qpoly_expr(poly) - oracle[(gu, gw)]) == 0


# -- R-properties and the Brenti identity -------------------------------------

def test_r_properties_chain_instances(suite_contexts):
    ctx = suite_contexts["A2/H={s2}"]
    r_minus, r_q = ctx.system.r_table(X_MINUS_ONE), ctx.system.r_table(X_Q)
    assert verify_r_properties(r_minus, r_q) == (True, None)
    P = ctx.poset
    e, s1 = P.index("e"), P.index("1")
    assert r_q.value(e, s1).eval_at_zero() == -1
    assert r_minus.value(e, s1).degree() == 1


def test_r_properties_witnesses(groups):
    quot = groups["A2"].quotient({1})
    P = quot.poset
    ref = lambda_refinement(quot)
    r_minus = r_polynomials(P, ref, X_MINUS_ONE)
    r_q = r_polynomials(P, ref, X_Q)
    with pytest.raises(ValueError):
        verify_r_properties(r_q, r_minus)
    broken = oracles.replaced(
        r_minus, {(P.index("e"), P.index("1")): QPoly((5,))})
    assert verify_r_properties(broken, r_q) == \
        (False, ("degree", (P.index("e"), P.index("1"))))


def test_brenti_identity_scan(groups, suite_contexts):
    quot = groups["A2"].quotient({1})
    ctx = suite_contexts["A2/H={s2}"]
    for x in X_PARAMS:
        assert brenti_identity(quot, ctx.system.r_table(x)) == (True, None)
    # corrupting one entry that participates in a qualifying triple fails
    P = quot.poset
    for x in X_PARAMS:
        bad = oracles.replaced(ctx.system.r_table(x),
                               {(P.index("1"), P.index("2.1")): QPoly((3,))})
        assert brenti_identity(quot, bad) == \
            (False, ("brenti", (0, P.index("e"), P.index("2.1"))))


# -- pircon systems and refinement independence --------------------------------

def test_lambda_systems_verify(groups):
    for name, H in (("A2", set()), ("B2", {1}), ("I2(5)", set())):
        quot = groups[name].quotient(H)
        S = [quot.lambda_matching(s) for s in range(quot.group.num_gens)]
        assert verify_pircon_system(quot.poset, S) == (True, None)
        system = PirconSystem(quot.poset, S, lambda_refinement(quot))
        assert system.verdict == (True, None)
        for x in X_PARAMS:
            assert system.updown(x) == system.pkernel(x) == (True, None)
        assert HeckeContext(quot.poset, system).system is system


def test_system_missing_down_matching(groups):
    quot = groups["A2"].quotient(set())
    S = [quot.lambda_matching(0)]   # s1 alone cannot take s2 down
    ok, witness = verify_pircon_system(quot.poset, S)
    assert not ok and witness[0] == "no-down-matching"
    system = PirconSystem(quot.poset, S, lambda_refinement(quot))
    assert system.verdict == (ok, witness)
    with pytest.raises(ValueError, match="not a pircon system"):
        HeckeContext(quot.poset, system)


def test_twisted_spm_pool_is_system(twisted2):
    P = twisted2.poset
    pool = []
    for w in range(P.n):
        if w != P.bottom:
            pool.extend(enumerate_spms(P, w))
    assert verify_pircon_system(P, pool) == (True, None)


def test_refinement_independence(groups):
    quot = groups["A2"].quotient(set())
    P = quot.poset
    ref_a = lambda_refinement(quot)
    ref_b = oracles.lambda_refinement(quot, max)
    w0 = P.index("1.2.1")
    assert ref_a[w0] != ref_b[w0]
    for x in X_PARAMS:
        assert refinement_independence(P, [ref_a, ref_b], x) == (True, None)
        assert refinement_independence(P, [ref_a], x) == (True, None)


def test_refinement_dependence_detected(refinement_dependent_poset):
    refs = list(all_refinements(refinement_dependent_poset))
    for x in X_PARAMS:
        ok, witness = refinement_independence(
            refinement_dependent_poset, refs, x)
        assert not ok and witness[0] == "refinement-dependent"


def test_twisted_all_spm_refinements_agree(twisted2):
    P = twisted2.poset
    refs = list(all_refinements(P))
    assert len(refs) >= 1
    for x in X_PARAMS:
        assert refinement_independence(P, refs, x) == (True, None)


# -- serialization --------------------------------------------------------------

def test_table_json_and_csv(suite_contexts):
    ctx = suite_contexts["A2/H={s2}"]
    table = ctx.system.r_table(X_Q)
    data = table.to_json()
    again = PolyTable.from_json(data)
    assert again.columns == table.columns and again.x == table.x
    csv_text = table.to_csv()
    assert csv_text.splitlines()[0] == "u,w,coefficients"
    assert len(csv_text.splitlines()) == len(oracles.pairs(table)) + 1


def test_refinement_json_roundtrip(groups):
    quot = groups["A2"].quotient(set())
    ref = lambda_refinement(quot)
    data = ref.to_json()
    again = Refinement.from_json(quot.poset, data)
    assert again == ref
