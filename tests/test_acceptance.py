"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single pass line on success (pytest -v adds its own);
stated runtime bounds are asserted on the criterion's own verification work.
"""

import time

import sympy

import oracles
from oracles import (HalfLaurent, ModuleVector, chain_r_value, classical_kl,
                     embed, pack, qpoly_expr, refinement_independence)
from pircons.hecke import (characterize, cprime_recursion, kl_element_cprime,
                           p_recursion, verify_duality,
                           verify_hecke_relations)
from pircons.klpoly import (X_MINUS_ONE, X_PARAMS, X_Q, all_refinements,
                            brenti_identity, check_pkernel, check_updown,
                            lambda_refinement, other_x, r_polynomials,
                            verify_r_properties)
from pircons.laurent import QPoly
from pircons.matchings import check_lifting, enumerate_spms, orbit_partition

CHAIN_QUOTIENTS = [("A2", frozenset({1})), ("A3", frozenset({1, 2})),
                   ("I2(5)", frozenset({0}))]


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds
        self.start = time.monotonic()

    def done(self, label):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.seconds, \
            f"{label} took {elapsed:.1f}s, budget {self.seconds}s"
        print(f"PASS {label} ({elapsed:.2f}s)")


def test_criterion_01_chain_formula(groups):
    budget = Budget(1.0)
    for name, H in CHAIN_QUOTIENTS:
        quot = groups[name].quotient(H)
        P = quot.poset
        refinements = list(all_refinements(P))
        assert refinements, name
        for ref in refinements:
            for x in X_PARAMS:
                table = r_polynomials(P, ref, x)
                for (u, w), poly in oracles.entries(table).items():
                    want = (sympy.Integer(1) if u == w
                            else chain_r_value(x, P.rank_gap(u, w)))
                    assert sympy.expand(qpoly_expr(poly) - want) == 0
    budget.done("criterion 1: chain formula, every refinement")


def test_criterion_02_r_properties(suite_contexts):
    budget = Budget(30.0)
    for name, ctx in suite_contexts.items():
        ok, witness = verify_r_properties(
            ctx.system.r_table(X_MINUS_ONE), ctx.system.r_table(X_Q))
        assert ok, (name, witness)
    budget.done("criterion 2: R-properties on all 28 quotient instances")


def test_criterion_03_refinement_independence(suite_quotients, twisted2):
    budget = Budget(60.0)
    multi = 0
    for name, quot in suite_quotients.items():
        P = quot.poset
        if P.n == 1:
            continue
        refinements = [lambda_refinement(quot),
                       oracles.lambda_refinement(quot, max)]
        if refinements[0] == refinements[1]:
            refinements = list(all_refinements(P))
        if len(refinements) >= 2:
            multi += 1
        for x in X_PARAMS:
            ok, witness = refinement_independence(P, refinements, x)
            assert ok, (name, x, witness)
    assert multi >= 15  # most instances do admit two distinct refinements
    # every SPM-refinement of the twisted dircon n=2
    refs = list(all_refinements(twisted2.poset))
    for x in X_PARAMS:
        ok, witness = refinement_independence(twisted2.poset, refs, x)
        assert ok, witness
    budget.done("criterion 3: refinement independence")


def test_criterion_04_updown(suite_quotients, suite_contexts,
                             twisted2, twisted3):
    budget = Budget(60.0)
    for name, ctx in suite_contexts.items():
        quot = suite_quotients[name]
        S = [quot.lambda_matching(s) for s in range(quot.group.num_gens)]
        for x in X_PARAMS:
            ok, witness = check_updown(S, ctx.system.r_table(x))
            assert ok, (name, x, witness)
    for T in (twisted2, twisted3):
        S = T.matchings
        for x in X_PARAMS:
            ok, witness = check_updown(S, T.system.r_table(x))
            assert ok, (T, x, witness)
    budget.done("criterion 4: up-down symmetry incl. twisted n=2,3")


def test_criterion_05_pkernel(suite_quotients, suite_contexts,
                              twisted2, twisted3):
    budget = Budget(60.0)
    results = []
    for name, ctx in suite_contexts.items():
        quot = suite_quotients[name]
        S = [quot.lambda_matching(s) for s in range(quot.group.num_gens)]
        for x in X_PARAMS:
            table = ctx.system.r_table(x)
            ud = check_updown(S, table)[0]
            pk, witness, _ = check_pkernel(table)
            assert pk, (name, x, witness)
            results.append((ud, pk))
    for T in (twisted2, twisted3):
        S = T.matchings
        for x in X_PARAMS:
            table = T.system.r_table(x)
            ud = check_updown(S, table)[0]
            pk, witness, _ = check_pkernel(table)
            assert pk, (T, x, witness)
            results.append((ud, pk))
    # implication structure: up-down symmetry forces the kernel identity
    assert all(pk for ud, pk in results if ud)
    budget.done("criterion 5: kernel identity on every up-down table")


def test_criterion_06_kls_inversion(groups, suite_contexts):
    budget = Budget(60.0)
    for name, ctx in suite_contexts.items():
        P = ctx.poset
        for x in X_PARAMS:
            r, p = ctx.system.r_table(x), ctx.system.p_table(x)
            for (u, v), poly in oracles.entries(p).items():
                gap = P.rank_gap(u, v)
                if u != v and poly:
                    assert 2 * poly.degree() < gap, (name, x, u, v)
                # exact convolution identity in HalfLaurent
                acc = HalfLaurent.zero()
                for z in P.elements_of(P.interval_mask(u, v)):
                    acc = acc + embed(oracles.mul(r.value(u, z),
                                                  p.value(z, v)))
                assert acc == embed(poly).bar().shift(2 * gap), (name, x, u, v)
    # classical Kazhdan-Lusztig comparison for the full quotients
    for name in ("A2", "A3"):
        system = groups[name]
        oracle = classical_kl(system)
        ctx = suite_contexts[f"{name}/H={{-}}"]
        full = system.quotient(set())
        for x in X_PARAMS:
            for (u, w), poly in oracles.entries(ctx.system.p_table(x)).items():
                want = oracle[(full.reps[u], full.reps[w])]
                assert sympy.expand(qpoly_expr(poly) - want) == 0
    ctx = suite_contexts["A3/H={-}"]
    P = ctx.poset
    got = ctx.system.p_table(X_Q).value(P.index("e"), P.index("2.1.3.2"))
    assert got == QPoly((1, 1))
    budget.done("criterion 6: KLS inversion + classical oracle, P[e,3412]=1+q")


def test_criterion_07_brenti(suite_quotients, suite_contexts):
    budget = Budget(30.0)
    for name, ctx in suite_contexts.items():
        quot = suite_quotients[name]
        for x in X_PARAMS:
            ok, witness = brenti_identity(quot, ctx.system.r_table(x))
            assert ok, (name, x, witness)
    budget.done("criterion 7: Brenti identity, exhaustive scan")


def test_criterion_08_hecke_module(suite_contexts, twisted2_context):
    budget = Budget(60.0)
    for name, ctx in suite_contexts.items():
        for x in X_PARAMS:
            ok, witness = verify_hecke_relations(ctx, x)
            assert ok, (name, x, witness)
    for x in X_PARAMS:
        ok, witness = verify_hecke_relations(twisted2_context, x)
        assert ok, (x, witness)
    budget.done("criterion 8: quadratic and braid relations")


def test_criterion_09_duality(suite_contexts, twisted2_context):
    budget = Budget(120.0)
    for name, ctx in suite_contexts.items():
        ok, witness = verify_duality(ctx)
        assert ok, (name, witness)
    ok, witness = verify_duality(twisted2_context)
    assert ok, witness
    budget.done("criterion 9: duality suite (iota, j, KL bases)")


def test_criterion_10_recursion_and_characterization(
        suite_contexts, twisted2_context):
    budget = Budget(120.0)
    contexts = dict(suite_contexts)
    contexts["twisted2"] = twisted2_context
    for name, ctx in contexts.items():
        P = ctx.poset
        for x in X_PARAMS:
            z = other_x(x)
            for w in range(P.n):
                if w == P.bottom:
                    continue
                direct = kl_element_cprime(ctx, w, x)
                column = ctx.packed_p(z)[w]
                admissible = ctx.system.down_matchings(w)
                assert admissible, (name, w)
                for M in admissible:
                    assert cprime_recursion(ctx, w, M, x) == direct, \
                        (name, x, w)
                    assert p_recursion(ctx, w, M, x) == column, (name, x, w)
                # characterization battery
                assert characterize(ctx, direct, w, x), (name, x, w)
                shift = HalfLaurent.half_power(-P.rank[w])
                decoded = ModuleVector.lift(ctx.decode(direct))
                bad_deg = pack(ctx, decoded + ModuleVector(
                    {P.bottom: shift * HalfLaurent.q_power(
                        (P.rank_gap(P.bottom, w) + 1) // 2)}))
                assert not characterize(ctx, bad_deg, w, x), (name, x, w)
                assert not characterize(
                    ctx, {w: ctx.one}, w, x), (name, x, w)
                assert not characterize(
                    ctx, pack(ctx, decoded.scale(HalfLaurent.q_power(1))),
                    w, x)
    budget.done("criterion 10: C'/P recursions + characterization battery")


def test_criterion_11_structural_lemmas(suite_quotients, twisted2, twisted3):
    budget = Budget(60.0)
    checked_matchings = 0
    checked_pairs = 0
    for name, quot in suite_quotients.items():
        S = [quot.lambda_matching(s) for s in range(quot.group.num_gens)]
        ref = (lambda_refinement(quot)
               if quot.poset.n > 1 else None)
        pool = list(S)
        if ref is not None:
            pool += [ref[w] for w in sorted(ref.matchings)]
        for m in pool:
            ok, witness = check_lifting(m)
            assert ok, (name, witness)
            checked_matchings += 1
        for i, M in enumerate(S):
            for N in S[i:]:
                reports = orbit_partition(M, N, range(quot.poset.n))
                covered = sorted(u for r in reports for u in r.orbit)
                assert covered == list(range(quot.poset.n))
                checked_pairs += 1
    for T in (twisted2, twisted3):
        S = T.matchings
        for m in S:
            assert check_lifting(m)[0]
            checked_matchings += 1
        for i, M in enumerate(S):
            for N in S[i:]:
                orbit_partition(M, N, range(T.poset.n))
                checked_pairs += 1
        for w in range(T.poset.n):
            if w == T.poset.bottom:
                continue
            spms = enumerate_spms(T.poset, w)
            for m in spms:
                assert check_lifting(m)[0]
                checked_matchings += 1
            for i, M in enumerate(spms):
                for N in spms[i:]:
                    orbit_partition(M, N, M.domain)
                    checked_pairs += 1
    assert checked_matchings > 100 and checked_pairs > 50
    budget.done("criterion 11: lifting + orbit classification everywhere")
