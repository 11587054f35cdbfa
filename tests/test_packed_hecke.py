"""Differential tests of the packed Hecke layer.

``hecke.iota`` and ``klpoly.check_updown`` evaluate polynomials at a power
of two and work on ints, and ``hecke.p_recursion`` reads mu-corrections
kept on the context.  The reference path in ``oracles`` is the same
algorithm on ``QPoly``/``HalfLaurent`` objects, recomputed on every call.
Both must give identical vectors, polynomials and ``(ok, witness)`` pairs,
on genuine data and on corrupted tables alike, including coefficients far
beyond any machine word.
"""

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from pircons import cli, hecke
from pircons.hecke import (ModuleVector, context_for_quotient, iota,
                           kl_element_c, kl_element_cprime, p_recursion)
from pircons.klpoly import X_PARAMS, PolyTable, check_updown
from pircons.laurent import HalfLaurent, QPoly


@pytest.fixture(scope="module")
def twisted3_context(twisted3):
    return twisted3.hecke_context()


@pytest.fixture(scope="module")
def contexts(suite_contexts, twisted2_context, twisted3_context):
    """Every GROUP_CONFIGS quotient and twisted n = 2, 3."""
    return {**suite_contexts, "twisted2": twisted2_context,
            "twisted3": twisted3_context}


@pytest.fixture
def widths(monkeypatch):
    """The packing widths iota asks for, in order, one per (re)start."""
    seen = []
    real = hecke._iota_basis

    def spy(ctx, x, width):
        seen.append(width)
        return real(ctx, x, width)

    monkeypatch.setattr(hecke, "_iota_basis", spy)
    return seen


# -- iota --------------------------------------------------------------------

@pytest.mark.parametrize("x", X_PARAMS)
def test_iota_on_every_context(contexts, x):
    """Basis vectors, their images (the involution check) and the C basis."""
    for key, ctx in contexts.items():
        for u in range(ctx.poset.n):
            for v in (ModuleVector.basis(u),
                      oracles.iota(ctx, ModuleVector.basis(u), x),
                      kl_element_c(ctx, u, x),
                      kl_element_cprime(ctx, u, x)):
                assert iota(ctx, v, x) == oracles.iota(ctx, v, x), (key, u)


def test_iota_of_zero(contexts):
    ctx = contexts["A2/H={-}"]
    for x in X_PARAMS:
        assert iota(ctx, ModuleVector.zero(), x) == ModuleVector.zero()


HUGE = st.integers(-2 ** 80, 2 ** 80)
coefficients = st.integers(-3, 3).filter(bool) | HUGE.filter(bool)
laurents = st.dictionaries(st.integers(-12, 12), coefficients,
                           min_size=1, max_size=4).map(HalfLaurent)
RANDOM_KEYS = ["A2/H={-}", "B2/H={s1}", "A3/H={-}", "I2(5)/H={-}",
               "B3/H={s1,s2}", "twisted3"]


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_iota_on_random_vectors(contexts, data):
    ctx = contexts[data.draw(st.sampled_from(RANDOM_KEYS))]
    x = data.draw(st.sampled_from(X_PARAMS))
    v = ModuleVector(data.draw(st.dictionaries(
        st.integers(0, ctx.poset.n - 1), laurents, max_size=6)))
    assert iota(ctx, v, x) == oracles.iota(ctx, v, x)


def test_iota_width_is_derived(contexts, widths):
    ctx = contexts["A3/H={-}"]
    top = ctx.poset.top
    iota(ctx, ModuleVector.basis(top), "q")
    iota(ctx, iota(ctx, ModuleVector.basis(top), "q"), "q")
    assert widths == [ctx.iota_width] * 3
    widths.clear()
    # a 2^70 coefficient needs more than 70 bits per digit; the bound is
    # checked before the images are read, so only the wider width packs
    v = ModuleVector({top: HalfLaurent({1: 2 ** 70, -3: -(2 ** 70)})})
    assert iota(ctx, v, "-1") == oracles.iota(ctx, v, "-1")
    assert len(widths) == 1 and widths[0] > 72


def test_iota_bound_sits_at_the_width(contexts, widths):
    """A vector whose bound is just below 2^(B-1) packs at B; one unit
    more restarts wider.  Both decode to the reference."""
    ctx = contexts["B2/H={-}"]
    x = "q"
    width = ctx.iota_width
    top = ctx.poset.top
    fits = ((1 << (width - 1)) - 1) // ctx.r_l1
    for c, want in ((fits, [width]), (fits + 1, None)):
        widths.clear()
        v = ModuleVector({top: HalfLaurent({0: c})})
        assert iota(ctx, v, x) == oracles.iota(ctx, v, x)
        if want:
            assert widths == want
        else:
            assert len(widths) == 1 and widths[0] > width


# -- the P recursion ---------------------------------------------------------

@pytest.mark.parametrize("x", X_PARAMS)
def test_p_recursion_on_every_context(contexts, x):
    for key, ctx in contexts.items():
        poset = ctx.poset
        for w in range(poset.n):
            for M in ctx.system.down_matchings(w):
                for v in poset.ideal_elements(w):
                    assert p_recursion(ctx, v, w, M, x) == \
                        oracles.p_recursion(ctx, v, w, M, x), (key, v, w)


def test_corrections_once_per_matching_and_target(groups, monkeypatch):
    """During the recursion check the correction domain is entered once per
    distinct (M, M(w), x), not once per v."""
    ctx = context_for_quotient(groups["A3"].quotient(set()))
    entered = []
    real = hecke._correction_domain

    def spy(ctx, M, mw, x):
        entered.append((M, mw, x))
        return real(ctx, M, mw, x)

    calls = []
    real_p = hecke.p_recursion

    def count_p(*args):
        calls.append(args)
        return real_p(*args)

    monkeypatch.setattr(hecke, "_correction_domain", spy)
    monkeypatch.setattr(hecke, "p_recursion", count_p)
    assert cli._recursion_witness(ctx, X_PARAMS) is None
    poset = ctx.poset
    expected = {(M, M(w), x) for x in X_PARAMS for w in range(poset.n)
                for M in ctx.system.down_matchings(w)}
    assert len(entered) == len(set(entered)) == len(expected)
    assert set(entered) == expected
    assert len(calls) > 3 * len(expected)


def test_duality_reuses_images(groups, monkeypatch):
    """verify_duality computes iota^x(m_u) once per (x, u) and T_M . m_u
    once per (x, u, M).  On A3/H={} (24 elements, 3 matchings) each (x, u)
    makes 4 + 3 iota calls (iota^x(m_u), its image, iota^x(j m_u),
    iota^z(m_u) and one per M) and each w makes 2 per x: 432 in all.
    Each (x, u, M) makes 3 t_action calls, one inside t_inverse_action."""
    ctx = context_for_quotient(groups["A3"].quotient(set()))
    n, k = ctx.poset.n, len(ctx.matchings)
    assert (n, k) == (24, 3)
    counts = {"iota": 0, "t_action": 0}
    for name in counts:
        real = getattr(hecke, name)

        def counted(*args, _name=name, _real=real):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(hecke, name, counted)
    assert hecke.verify_duality(ctx) == (True, None)
    assert counts == {"iota": 2 * n * (4 + k) + 2 * n * 2,
                      "t_action": 2 * n * k * 3}


# -- the up-down check -------------------------------------------------------

def updown_cases(contexts, twisted3):
    for key, ctx in contexts.items():
        for x in X_PARAMS:
            yield key, ctx.matchings, ctx.r_table(x)
    for x in X_PARAMS:
        yield "twisted3-klv", twisted3.conjugation_qspms(), \
            twisted3.klv_polynomials(x)


def test_updown_on_every_context(contexts, twisted3):
    for key, matchings, table in updown_cases(contexts, twisted3):
        assert check_updown(matchings, table) == (True, None), key
        assert oracles.check_updown(matchings, table) == (True, None), key


CORRUPTED_BASES = ["A3/H={-}", "B2/H={s1}", "I2(5)/H={-}", "B3/H={s1,s2}",
                   "twisted3"]
polys = st.lists(st.integers(-3, 3) | HUGE, max_size=6)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_updown_on_corrupted_tables(contexts, data):
    ctx = contexts[data.draw(st.sampled_from(CORRUPTED_BASES))]
    x = data.draw(st.sampled_from(X_PARAMS))
    base = ctx.r_table(x)
    entries = dict(base.entries)
    for _ in range(data.draw(st.integers(1, 3))):
        pair = data.draw(st.sampled_from(base.pairs()))
        if data.draw(st.booleans()):
            entries[pair] = QPoly(data.draw(polys))
        else:   # a one-coefficient nudge of the genuine entry
            k = data.draw(st.integers(0, base.poset.rank_gap(*pair) + 1))
            c = data.draw(st.sampled_from([-1, 1, 2 ** 70]))
            entries[pair] = entries[pair] + QPoly.monomial(k, c)
    table = PolyTable(base.poset, x, entries)
    assert check_updown(ctx.matchings, table) == \
        oracles.check_updown(ctx.matchings, table)


def test_updown_witness_for_each_clause(contexts):
    """A corrupted entry on each side of each clause gives the reference
    witness, first in scan order."""
    ctx = contexts["A3/H={s1}"]
    seen = set()
    for x in X_PARAMS:
        base = ctx.r_table(x)
        for pair in base.pairs():
            table = PolyTable(base.poset, x, dict(base.entries))
            table.entries[pair] = table.entries[pair] + QPoly.monomial(1, 1)
            got = check_updown(ctx.matchings, table)
            assert got == oracles.check_updown(ctx.matchings, table)
            if not got[0]:
                seen.add(got[1][0])
    assert seen == {"updown-a'", "updown-b'", "updown-c'"}


def test_updown_width_covers_clause_b(contexts):
    """(q-1) R + q R' reaches 2 max |coeff|: with every coefficient at most
    7, a width that fits only 7 would read -7 + 14q as -7 - 2q + q^2."""
    ctx = contexts["A3/H={-}"]
    e = ctx.poset.bottom
    M = next(M for M in ctx.matchings if M(e) != e)
    s = M(e)
    base = ctx.r_table("q")
    assert max(abs(c) for p in base.entries.values() for c in p.coeffs()) <= 7
    entries = dict(base.entries)
    entries[(e, e)] = entries[(s, s)] = entries[(s, e)] = QPoly([7])
    entries[(e, s)] = QPoly([-7, -2, 1])
    table = PolyTable(base.poset, "q", entries)
    want = (False, ("updown-b'", (0, e, s)))
    assert oracles.check_updown([M], table) == want
    assert check_updown([M], table) == want
