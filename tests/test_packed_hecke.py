"""Differential tests of the packed Hecke layer.

Module vectors are dicts of ints packed at the context's width and offset;
``hecke.iota`` reads digits only to apply bar, ``hecke.p_recursion`` builds
a whole packed P column with mu-corrections read off the kept P^z table,
and
``klpoly.check_updown`` evaluates polynomials at a power of two.  The
reference path in ``oracles`` is the same algorithm on
``QPoly``/``HalfLaurent``/``ModuleVector`` objects, recomputed on every
call.  Both must give identical vectors (after decoding), polynomials and
``(ok, witness)`` pairs, on genuine data and on corrupted tables alike,
including coefficients far beyond any machine word.
"""

import copy
import re

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import HalfLaurent, ModuleVector, embed, pack, widened
from pircons import TwistedIdentities, hecke, klpoly
from pircons.hecke import (HeckeContext, OffsetError, WidthError,
                           characterize, cprime_recursion, iota,
                           kl_element_c, kl_element_cprime, p_recursion,
                           t_action)
from pircons.klpoly import (X_PARAMS, KernelError, PolyTable, check_pkernel,
                            check_updown, is_calculating, kls_polynomials,
                            lambda_refinement, other_x, r_polynomials,
                            verify_r_properties)
from pircons.laurent import QPoly


def context_of(source):
    """The context of a quotient's or twisted identities' kept system."""
    return HeckeContext(source.poset, source.system)


@pytest.fixture(scope="module")
def twisted3_context(twisted3):
    return context_of(twisted3)


@pytest.fixture(scope="module")
def contexts(suite_contexts, twisted2_context, twisted3_context):
    """Every GROUP_CONFIGS quotient and twisted n = 2, 3."""
    return {**suite_contexts, "twisted2": twisted2_context,
            "twisted3": twisted3_context}


@pytest.fixture
def widths(monkeypatch):
    """The widths at which the Hecke layer packs a table, in order: 2B for
    the iota images of a context of width B, and for its P columns."""
    seen = []
    real = hecke._columns

    def spy(table, width):
        seen.append(width)
        return real(table, width)

    monkeypatch.setattr(hecke, "_columns", spy)
    return seen


def decoded(ctx, v):
    return ModuleVector.lift(ctx.decode(v))


# -- iota --------------------------------------------------------------------

@pytest.mark.parametrize("x", X_PARAMS)
def test_iota_on_every_context(contexts, x):
    """Basis vectors and both KL bases at the context's width, and the
    basis images (iota o iota, which may need a wider one) widened."""
    for key, ctx in contexts.items():
        for u in range(ctx.poset.n):
            for v in ({u: ctx.one},
                      kl_element_c(ctx, u, x),
                      kl_element_cprime(ctx, u, x)):
                assert decoded(ctx, iota(ctx, v, x)) == \
                    oracles.iota(ctx, ctx.decode(v), x), (key, u)
            image = oracles.iota(ctx, ModuleVector.basis(u), x)
            assert widened(ctx, lambda c, pv: iota(c, pv, x), image) == \
                oracles.iota(ctx, image, x), (key, u)


def test_iota_of_zero(contexts):
    ctx = contexts["A2/H={-}"]
    for x in X_PARAMS:
        assert iota(ctx, {}, x) == {}


def test_iota_keeps_each_barred_coefficient(suite_quotients):
    """A vector that repeats three coefficients maps to the oracle's iota
    at both x, and the context keeps one barred entry per distinct packed
    coefficient: its top half-exponent, its barred int and its L1 norm.
    ``_set_width`` empties them, and the next iota refills them."""
    ctx = fresh_context(suite_quotients, "B3/H={s2}")
    cycle = [HalfLaurent({0: 1}), HalfLaurent({1: -1}), HalfLaurent({-1: 1})]
    v = ModuleVector({u: cycle[u % 3] for u in range(ctx.poset.n)})
    packed = pack(ctx, v)
    for x in X_PARAMS:
        assert decoded(ctx, iota(ctx, packed, x)) == oracles.iota(ctx, v, x)
    assert set(ctx._barred) == set(packed.values())
    assert len(ctx._barred) == 3
    for c, (t, b, l1) in ctx._barred.items():
        digits = klpoly._digits(c, ctx.width, -ctx.offset)
        assert t == max(digits) and l1 == sum(map(abs, digits.values()))
        assert b == sum(a << ctx.width * (t - h) for h, a in digits.items())
    before = iota(ctx, packed, "q")
    ctx._set_width(ctx.width)
    assert ctx._barred == {}
    assert iota(ctx, packed, "q") == before and len(ctx._barred) == 3


HUGE = st.integers(-2 ** 80, 2 ** 80)
coefficients = st.integers(-3, 3).filter(bool) | HUGE.filter(bool)
laurents = st.dictionaries(st.integers(-12, 12), coefficients,
                           min_size=1, max_size=4).map(HalfLaurent)
RANDOM_KEYS = ["A2/H={-}", "B2/H={s1}", "A3/H={-}", "I2(5)/H={-}",
               "B3/H={s1,s2}", "twisted3"]


def random_vector(data, ctx):
    return ModuleVector(data.draw(st.dictionaries(
        st.integers(0, ctx.poset.n - 1), laurents, max_size=6)))


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_iota_on_random_vectors(contexts, data):
    ctx = contexts[data.draw(st.sampled_from(RANDOM_KEYS))]
    x = data.draw(st.sampled_from(X_PARAMS))
    v = random_vector(data, ctx)
    assert widened(ctx, lambda c, pv: iota(c, pv, x), v) == \
        oracles.iota(ctx, v, x)


def test_iota_width_is_derived(suite_quotients, widths):
    ctx = fresh_context(suite_quotients, "A3/H={-}")
    top = ctx.poset.top
    image = decoded(ctx, iota(ctx, {top: ctx.one}, "q"))
    assert widths == [2 * ctx.width]
    # iota o iota is no built-in check, so only a widened copy must fit it
    assert widened(ctx, lambda c, pv: iota(c, pv, "q"), image) == \
        ModuleVector.basis(top)
    widths.clear()
    # a 2^70 coefficient needs more than 70 bits per digit; the bound is
    # checked before the images are read, so only the wider width packs
    v = ModuleVector({top: HalfLaurent({1: 2 ** 70, -3: -(2 ** 70)})})
    assert widened(ctx, lambda c, pv: iota(c, pv, "-1"), v) == \
        oracles.iota(ctx, v, "-1")
    assert len(widths) == 1 and widths[0] > 2 * 72


def test_iota_bound_sits_at_the_width(suite_quotients, widths):
    """On a fresh context, a vector one unit past the bound 2^(B-1) raises
    the public WidthError before the iota images are packed, and maps at a
    wider B; one whose bound is just below maps at B.  Both decode to the
    reference."""
    ctx = fresh_context(suite_quotients, "B2/H={-}")
    x = "q"
    top = ctx.poset.top
    fits = ((1 << (ctx.width - 1)) - 1) // ctx.r_l1
    D = kl_element_cprime(ctx, top, x)   # packs the P columns, not R
    D[ctx.poset.bottom] = (fits + 1) << ctx.width * (
        ctx.offset - ctx.poset.rank[top])
    widths.clear()
    v = ModuleVector({top: HalfLaurent({0: fits + 1})})
    with pytest.raises(WidthError):
        iota(ctx, pack(ctx, v), x)
    # characterize reaches the same bound through iota
    with pytest.raises(WidthError):
        characterize(ctx, D, top, x)
    assert widths == []
    assert widened(ctx, lambda c, pv: iota(c, pv, x), v) == \
        oracles.iota(ctx, v, x)
    assert len(widths) == 1 and widths[0] > 2 * ctx.width
    widths.clear()
    v = ModuleVector({top: HalfLaurent({0: fits})})
    assert decoded(ctx, iota(ctx, pack(ctx, v), x)) == oracles.iota(ctx, v, x)
    assert widths == [2 * ctx.width]


# -- the action and the KL elements ------------------------------------------

@pytest.mark.parametrize("x", X_PARAMS)
def test_packed_ops_on_every_context(contexts, x):
    """T_M on basis vectors and iota images, both KL elements and the C'
    recursion, decoded, against the object path.  The last holds the
    shifted P recursion equal to C'_M . C'^x_{M(u)} minus the
    mu-corrections, computed on module vectors."""
    for key, ctx in contexts.items():
        poset = ctx.poset
        for u in range(poset.n):
            vectors = [{u: ctx.one}, iota(ctx, {u: ctx.one}, x)]
            for v in vectors:
                ref = ModuleVector.lift(ctx.decode(v))
                for M in ctx.system.matchings:
                    assert decoded(ctx, t_action(ctx, M, v, x)) == \
                        oracles.t_action(ctx, M, ref, x), (key, u)
            assert decoded(ctx, kl_element_c(ctx, u, x)) == \
                oracles.kl_element_c(ctx, u, x), (key, u)
            assert decoded(ctx, kl_element_cprime(ctx, u, x)) == \
                oracles.kl_element_cprime(ctx, u, x), (key, u)
            for M in ctx.system.down_matchings(u):
                assert decoded(ctx, cprime_recursion(ctx, u, M, x)) == \
                    oracles.cprime_recursion(ctx, u, M, x), (key, u)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_packed_ops_on_random_vectors(contexts, data):
    """Coefficients up to 2^80 through T_M, at the width its input
    needs (iota has its own random test)."""
    ctx = contexts[data.draw(st.sampled_from(RANDOM_KEYS))]
    x = data.draw(st.sampled_from(X_PARAMS))
    M = data.draw(st.sampled_from(ctx.system.matchings))
    v = random_vector(data, ctx)
    # T_M at most triples a coefficient
    assert widened(ctx, lambda c, pv: t_action(c, M, pv, x), v, 3) == \
        oracles.t_action(ctx, M, v, x)


def test_a_narrow_width_raises_before_comparing(contexts, monkeypatch):
    """A context derives its width once and nothing reruns wider: on a
    copy given B = 3, every check raises WidthError from its first bound,
    before any action or iota is evaluated."""
    called = []
    for name in ("t_action", "iota"):
        def spy(*args, _real=getattr(hecke, name), _name=name):
            called.append(_name)
            return _real(*args)
        monkeypatch.setattr(hecke, name, spy)
    for key in ("A3/H={-}", "B3/H={s2}", "twisted3"):
        ctx = contexts[key]
        narrow = copy.copy(ctx)
        narrow._set_width(3)
        assert ctx.width > 3
        for x in X_PARAMS:
            with pytest.raises(WidthError):
                hecke.verify_hecke_relations(narrow, x)
        with pytest.raises(WidthError):
            hecke.verify_duality(narrow)
        with pytest.raises(WidthError):
            hecke.verify_recursion(narrow, X_PARAMS)
    assert called == []


def test_a_new_width_starts_fresh_caches(suite_quotients):
    """The packed iota images and P columns are kept per x for the width
    they were packed at: a copy given another width through _set_width
    packs its own, and the original keeps its caches."""
    ctx = fresh_context(suite_quotients, "B2/H={-}")
    assert hecke.verify_duality(ctx) == (True, None)
    assert hecke.verify_recursion(ctx, X_PARAMS) == (True, None)
    images, columns = dict(ctx._iota_basis), dict(ctx._packed_p)
    assert set(images) == set(columns) == set(X_PARAMS)
    wide = copy.copy(ctx)
    wide._set_width(ctx.width + 7)
    assert hecke.verify_duality(wide) == (True, None)
    assert hecke.verify_recursion(wide, X_PARAMS) == (True, None)
    for x in X_PARAMS:
        assert wide._iota_basis[x] is not images[x]
        assert wide._packed_p[x] is not columns[x]
        for u in range(ctx.poset.n):
            assert decoded(wide, iota(wide, {u: wide.one}, x)) == \
                decoded(ctx, iota(ctx, {u: ctx.one}, x))
    assert ctx._iota_basis == images and ctx._packed_p == columns


def test_the_width_fits_the_largest_bound_of_a_check(contexts, twisted4):
    """The width is derived from three bounds: a braid of the longest
    length, iota of a KL element and a P recursion.  The R columns of the
    rule checks are packed at the system's own width, and their bound
    3 max L1(R) never binds (the comment at the derivation proves it).  On
    every suite context and on twisted 1-4."""
    every = {**contexts, "twisted1": context_of(TwistedIdentities(1)),
             "twisted4": context_of(twisted4)}
    for key, ctx in every.items():
        n, r, p = ctx.poset.n, ctx.r_l1, ctx.p_l1
        assert ctx.width == klpoly._width_for(max(
            3 ** max(ctx.m_orders.values(), default=2), n * r * p,
            p * (2 + n * p))), key


def test_inexact_down_shift_raises(contexts):
    """A term at q^(-K/2), the lowest the offset holds, cannot be divided
    by q^(1/2) again: every down-shift raises instead of truncating."""
    ctx = contexts["A2/H={s2}"]
    poset = ctx.poset
    e = poset.bottom
    lowest = ModuleVector({e: HalfLaurent.half_power(-ctx.offset)})
    v = pack(ctx, lowest)
    assert v == {e: 1}
    with pytest.raises(OffsetError):
        hecke._shift_down({e: 1 << ctx.width}, 2 * ctx.width)
    # bar of q^(K/2), times iota's q^(-rho(w)), lands below the offset
    top = poset.top
    high = pack(ctx, ModuleVector({top: HalfLaurent.half_power(ctx.offset)}))
    with pytest.raises(OffsetError):
        iota(ctx, high, "q")
    with pytest.raises(OffsetError):
        pack(ctx, ModuleVector({e: HalfLaurent.half_power(-ctx.offset - 1)}))


# -- failure witnesses --------------------------------------------------------

WITNESS_KEYS = ["A2/H={-}", "B2/H={s1}", "I2(5)/H={-}"]


def fresh_context(suite_quotients, key):
    """A context of its own, on a system of its own, with no packed images
    or columns yet: its tables can be swapped without touching the
    session's kept systems."""
    if key == "twisted2":
        return context_of(TwistedIdentities(2))
    quot = suite_quotients[key]
    return HeckeContext(quot.poset, oracles.private_system(quot))


def nudge(ctx, name, x, pair, delta):
    """Add delta to the entry at pair of the context's table ``name`` at
    x, after the context has taken its verdicts on the genuine tables.  A
    nudged R^x is a new table with its own rule columns, which the rule
    checks read."""
    system = ctx.system
    oracles.keep_table(system, name, x,
                       oracles.nudged(getattr(system, name)(x), pair, delta))


def nudges(poset, pairs, top_degree):
    """(pair, +q^k) and (pair, -q^k) for each u < w in pairs and each k up
    to top_degree(gap), so the nudged table keeps its degree bound."""
    for u, w in pairs:
        if u != w:
            for k in range(top_degree(poset.rank_gap(u, w)) + 1):
                for sign in (1, -1):
                    yield (u, w), oracles.monomial(k, sign)


def assert_same_witnesses(ctx):
    got = []
    for x in X_PARAMS:
        got.append(hecke.verify_hecke_relations(ctx, x))
        assert got[-1] == oracles.verify_hecke_relations(ctx, x)
    got.append(hecke.verify_duality(ctx))
    assert got[-1] == oracles.verify_duality(ctx)
    got.append(hecke.verify_recursion(ctx, X_PARAMS))
    assert got[-1] == oracles.verify_recursion(ctx, X_PARAMS)
    return got


def test_witnesses_of_corrupted_r_entries(suite_quotients, suite_contexts):
    """One R entry nudged by +-q^k after the context's verdicts are taken:
    the duality suite fails where the object path's clauses fail, with the
    same witness, and always at equivariance, the recursion driven by a
    matching that takes the entry's column down.  The nudges leave the
    session's contexts and their quotients' kept systems as they were."""
    seen = set()
    for key in WITNESS_KEYS + ["twisted2"]:
        base = fresh_context(suite_quotients, key)
        for x in X_PARAMS:
            pairs = oracles.pairs(base.system.r_table(x))
            for pair, delta in nudges(base.poset, pairs, lambda gap: gap):
                ctx = fresh_context(suite_quotients, key)
                nudge(ctx, "r_table", x, pair, delta)
                duality = assert_same_witnesses(ctx)[2]
                assert duality[0] is False, (key, x, pair, delta)
                seen.add(duality[1][0])
    assert seen == {"equivariance"}
    for key in WITNESS_KEYS:
        quot, ctx = suite_quotients[key], suite_contexts[key]
        assert ctx.system is quot.system
        for x in X_PARAMS:
            assert ctx.system.r_table(x) == r_polynomials(
                quot.poset, lambda_refinement(quot), x)


def gated_system(suite_quotients, key):
    """A fresh system of the context at key, with its system, up-down and
    kernel verdicts taken on the genuine tables and kept, and no
    properties verdict yet."""
    system = TwistedIdentities(2).system if key == "twisted2" else \
        oracles.private_system(suite_quotients[key])
    assert system.verdict[0]
    for x in X_PARAMS:
        assert system.updown(x)[0] and system.pkernel(x)[0]
    return system


def test_an_r_entry_past_its_rank_gap_fails_the_transform(suite_quotients):
    """R^q_{u,w} nudged by q^(rho(u,w) + 1): q^rho R^q_{u,w}(1/q) has a
    negative power, so the x-z transform, clause (3) of
    verify_r_properties, fails at (u, w), and the context refuses the
    system on that verdict."""
    for key in WITNESS_KEYS + ["twisted2"]:
        base = fresh_context(suite_quotients, key)
        for u, w in oracles.pairs(base.system.r_table("q")):
            if u != w:
                system = gated_system(suite_quotients, key)
                table = oracles.nudged(system.r_table("q"), (u, w),
                                       oracles.monomial(
                                           system.poset.rank_gap(u, w) + 1))
                oracles.keep_table(system, "r_table", "q", table)
                witness = ("x-z-transform", (u, w))
                assert verify_r_properties(system.r_table("-1"), table) \
                    == (False, witness), (key, u, w)
                with pytest.raises(ValueError, match=re.escape(
                        f"R-table properties fail: {witness}")):
                    HeckeContext(system.poset, system)


def test_witnesses_of_corrupted_p_entries(suite_quotients):
    """One P entry nudged by +-q^k before the packed columns exist: C'
    loses iota-invariance and the C' recursion fails, as on the object
    path, with the same witnesses."""
    seen = set()
    for key in WITNESS_KEYS + ["twisted2"]:
        base = fresh_context(suite_quotients, key)
        for x in X_PARAMS:
            pairs = oracles.pairs(base.system.p_table(x))
            for pair, delta in nudges(base.poset, pairs,
                                      lambda gap: (gap - 1) // 2):
                ctx = fresh_context(suite_quotients, key)
                nudge(ctx, "p_table", x, pair, delta)
                got = assert_same_witnesses(ctx)
                assert got[2][0] is False and got[3][0] is False
                seen.add(got[2][1][0])
                seen.add(got[3][1][0])
    assert {"iota-on-Cprime", "cprime"} <= seen


TOP_DEGREES = {"r_table": lambda gap: gap,
               "p_table": lambda gap: (gap - 1) // 2}


def nudged_contexts(suite_quotients, key, x, tables=tuple(TOP_DEGREES)):
    """A fresh context, then one for each single +-q^k nudge of an entry of
    each of the named tables at x: R^x up to q^gap and P^x below
    q^(gap/2)."""
    yield fresh_context(suite_quotients, key)
    base = fresh_context(suite_quotients, key)
    for name in tables:
        top_degree = TOP_DEGREES[name]
        pairs = oracles.pairs(getattr(base.system, name)(x))
        for pair, delta in nudges(base.poset, pairs, top_degree):
            ctx = fresh_context(suite_quotients, key)
            nudge(ctx, name, x, pair, delta)
            yield ctx


@pytest.mark.parametrize("key", WITNESS_KEYS + ["twisted2"])
def test_dropped_duality_clauses_are_the_kernel_checks(suite_quotients, key):
    """verify_duality does not check that iota^x is an involution, that
    it fixes C^x_w, or that it conjugates to iota^z through j_P, because
    the verdicts behind the context prove all three.
    iota^x(iota^x(m_v)) is
    sum_t (-1)^rho(t,v) [sum_z R_{t,z} q^rho(z,v) R_{z,v}(1/q)] m_t, whose
    bracket is check_pkernel's sum; iota^x(C^x_w) = C^x_w says
    sum_v R_{t,v} P_{v,w} = q^rho(t,w) P_{t,w}(1/q), the identity that
    kls_polynomials asserts.  On the object path each of these clauses
    holds exactly when its check passes, on genuine and on nudged tables.
    iota^x o j_P = j_P o iota^z is the x-z transform, which
    verify_r_properties implies: wherever the object-path clause fails,
    for either x, the properties verdict fails too."""
    seen = set()
    for x in X_PARAMS:
        for ctx in nudged_contexts(suite_quotients, key, x):
            n = ctx.poset.n
            table = ctx.system.r_table(x)
            involution = all(
                oracles.iota(ctx, oracles.iota(ctx, m, x), x) == m
                for m in map(ModuleVector.basis, range(n)))
            assert involution == check_pkernel(table)[0]
            fixes_c = all(oracles.iota(ctx, c, x) == c for c in (
                oracles.kl_element_c(ctx, w, x) for w in range(n)))
            try:
                inverse = kls_polynomials(table) == ctx.system.p_table(x)
            except KernelError:
                inverse = False
            assert fixes_c == inverse
            conjugates = all(oracles.iota_j_conjugation(ctx, u, y)
                             for y in X_PARAMS for u in range(n))
            properties = verify_r_properties(ctx.system.r_table("-1"),
                                             ctx.system.r_table("q"))[0]
            assert conjugates or not properties
            seen.add((involution, fixes_c, conjugates, properties))
    # genuine tables pass all four; an R nudge fails all four; a P nudge
    # only the second
    assert seen == {(True, True, True, True), (False, False, False, False),
                    (True, False, True, True)}


@pytest.mark.parametrize("key", WITNESS_KEYS + ["twisted2"])
def test_equivariance_is_the_rule_on_columns(suite_quotients, key):
    """Where M moves u, equivariance at u on the object path holds exactly
    when is_calculating(M, R^x, hi) does, hi the upper element of
    {u, M(u)}: the check verify_duality makes, at both elements of the
    pair.  On genuine and on nudged R-tables; the nudges are off the
    diagonal, where the two differ only at t = hi, on diagonal entries the
    kernel verdict proves 1.  A u that M fixes is left out: there the
    clause is (c') of the up-down check at u, which the context
    requires."""
    seen = set()
    for x in X_PARAMS:
        for ctx in nudged_contexts(suite_quotients, key, x, ("r_table",)):
            table = ctx.system.r_table(x)
            for M in ctx.system.matchings:
                for u in range(ctx.poset.n):
                    if M(u) != u:
                        hi = M(u) if M.kind(u) == "up" else u
                        rule = is_calculating(M, table, hi)[0]
                        assert oracles.equivariance(ctx, M, u, x) == rule
                        seen.add(rule)
    assert seen == {True, False}


def test_twisted_equivariance_holds_on_every_context(contexts):
    """verify_duality has no twisted-equivariance clause,
    j_P(T_M .x m_u) = -q^(-1) T_M .z j_P(m_u).  Neither j_P nor T_M reads a
    table: both sides depend only on the kind of M at u and on the ranks,
    and they agree whenever M(u) covers u, is covered by u, or is u, which
    the system verdict proves of every quasi SPM.  On the object path the
    clause holds for every matching, basis vector and x of every suite
    quotient and of twisted 2 and 3."""
    for key, ctx in contexts.items():
        for x in X_PARAMS:
            for M in ctx.system.matchings:
                for u in range(ctx.poset.n):
                    assert oracles.twisted_equivariance(ctx, M, u, x), \
                        (key, x, u)


@pytest.mark.parametrize("key", WITNESS_KEYS + ["twisted2"])
def test_j_on_c_holds_for_any_p_table(suite_quotients, key):
    """verify_duality has no j-on-C clause, j_P(C^x_w) = (-1)^rho(w)
    C'^z_w: the coefficient of m_v on each side is
    (-1)^rho(w) q^(-rho(w)/2) P^x_{v,w}, read from the same column of P^x,
    so the clause holds for every P^x table.  On the object path it holds
    at every w on genuine tables and under every single nudge of a P^x
    entry."""
    for x in X_PARAMS:
        for ctx in nudged_contexts(suite_quotients, key, x, ("p_table",)):
            for w in range(ctx.poset.n):
                assert oracles.j_on_c(ctx, w, x), (key, x, w)


def test_witness_of_a_wrong_braid_length(suite_quotients):
    ctx = fresh_context(suite_quotients, "B2/H={-}")
    ctx.m_orders[(0, 1)] -= 1
    got = assert_same_witnesses(ctx)
    assert got[0] == (False, ("braid", (0, 1, 0)))


# -- the P recursion ---------------------------------------------------------

@pytest.mark.parametrize("x", X_PARAMS)
def test_p_recursion_on_every_context(contexts, x):
    """The column p_recursion builds for (w, M) holds the reference value
    at every v <= w, and nothing outside the ideal of w."""
    for key, ctx in contexts.items():
        poset = ctx.poset
        for w in range(poset.n):
            for M in ctx.system.down_matchings(w):
                column = p_recursion(ctx, w, M, x)
                assert set(column) <= set(poset.ideal_elements(w))
                for v in poset.ideal_elements(w):
                    got = column.get(v, 0)
                    want = oracles.p_recursion(ctx, v, w, M, x)
                    assert ctx.decode({0: got << ctx.width * ctx.offset}) \
                        .coeff(0) == embed(want), (key, v, w)


def test_corrections_once_per_matching_and_target(groups, monkeypatch):
    """During the recursion check cprime_recursion, p_recursion (which reads
    the corrections) and T_M are each called once per (M, w, x): the
    recursion is checked once, on the whole P column, not one v at a time,
    and T_M acts once, in the x-structure, on the kept P^z column of
    M(w)."""
    ctx = context_of(groups["A3"].quotient(set()))
    calls = {"cprime_recursion": [], "p_recursion": []}
    for name, seen in calls.items():
        def count(ctx, w, M, x, _seen=seen, _real=getattr(hecke, name)):
            _seen.append((M, w, x))
            return _real(ctx, w, M, x)
        monkeypatch.setattr(hecke, name, count)
    actions = []
    real_t = hecke.t_action

    def count_t(*args):
        actions.append(args)
        return real_t(*args)

    monkeypatch.setattr(hecke, "t_action", count_t)
    assert hecke.verify_recursion(ctx, X_PARAMS) == (True, None)
    poset = ctx.poset
    expected = {(M, w, x) for x in X_PARAMS for w in range(poset.n)
                for M in ctx.system.down_matchings(w)}
    for name, seen in calls.items():
        assert len(seen) == len(set(seen)) == len(expected), name
        assert set(seen) == expected, name
    # each action's vector is a kept P^z column, named by its element
    column_of = {(x, id(col)): u for x in X_PARAMS
                 for u, col in enumerate(ctx.packed_p(other_x(x)))}
    acted = [(M, column_of[x, id(v)], x) for c, M, v, x in actions
             if c is ctx]
    assert len(acted) == len(set(acted)) == len(actions) == len(expected)
    assert set(acted) == {(M, M(w), x) for M, w, x in expected}


def test_duality_reuses_images(groups, monkeypatch):
    """verify_duality applies iota only to C'^x_w, once per (x, w): 2n = 48
    calls on A3/H={} (24 elements, 3 matchings).  Equivariance is
    is_calculating on the rule columns of the system's R^x, with no iota, and
    nothing applies T_M."""
    ctx = context_of(groups["A3"].quotient(set()))
    n, k = ctx.poset.n, len(ctx.system.matchings)
    assert (n, k) == (24, 3)
    counts = {"iota": 0, "t_action": 0}
    for name in counts:
        real = getattr(hecke, name)

        def counted(*args, _name=name, _real=real):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(hecke, name, counted)
    assert hecke.verify_duality(ctx) == (True, None)
    assert counts == {"iota": 2 * n, "t_action": 0}


# -- the up-down check -------------------------------------------------------

def updown_cases(contexts, twisted3):
    for key, ctx in contexts.items():
        for x in X_PARAMS:
            yield key, ctx.system.matchings, ctx.system.r_table(x)
    for x in X_PARAMS:
        yield "twisted3-klv", twisted3.matchings, \
            twisted3.system.r_table(x)


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
    base = ctx.system.r_table(x)
    entries = oracles.entries(base)
    for _ in range(data.draw(st.integers(1, 3))):
        pair = data.draw(st.sampled_from(oracles.pairs(base)))
        if data.draw(st.booleans()):
            entries[pair] = QPoly(data.draw(polys))
        else:   # a one-coefficient nudge of the genuine entry
            k = data.draw(st.integers(0, base.poset.rank_gap(*pair) + 1))
            c = data.draw(st.sampled_from([-1, 1, 2 ** 70]))
            entries[pair] = oracles.add(entries[pair], oracles.monomial(k, c))
    table = PolyTable.from_entries(base.poset, x, entries)
    assert check_updown(ctx.system.matchings, table) == \
        oracles.check_updown(ctx.system.matchings, table)


def test_updown_witness_for_each_clause(contexts):
    """A corrupted entry on each side of each clause gives the reference
    witness, first in scan order."""
    ctx = contexts["A3/H={s1}"]
    seen = set()
    for x in X_PARAMS:
        base = ctx.system.r_table(x)
        for pair in oracles.pairs(base):
            table = oracles.nudged(base, pair, oracles.monomial(1))
            got = check_updown(ctx.system.matchings, table)
            assert got == oracles.check_updown(ctx.system.matchings, table)
            if not got[0]:
                seen.add(got[1][0])
    assert seen == {"updown-a'", "updown-b'", "updown-c'"}


def test_updown_width_covers_clause_b(contexts):
    """(q-1) R + q R' reaches 2 max |coeff|: with every coefficient at most
    7, a width that fits only 7 would read -7 + 14q as -7 - 2q + q^2.  At
    u = e below s = M(e), and w above M(w) >= s, clause (b') reads
    R_{s,w} = R_{s,M(w)} = 7 against R_{e,w} = -7 - 2q + q^2; R_{e,M(w)}
    = 7 keeps clause (a') at (e, M(w)) true, as it reads R_{s,w}."""
    ctx = contexts["A3/H={-}"]
    poset = ctx.poset
    e = poset.bottom
    M = next(M for M in ctx.system.matchings if M(e) != e)
    s = M(e)
    w = next(w for w in M.domain
             if M.kind(w) == "down" and M(w) != e and poset.leq(s, M(w)))
    base = ctx.system.r_table("q")
    assert max(abs(c) for p in oracles.entries(base).values()
               for c in p.coeffs()) <= 7
    seven = QPoly([7])
    table = oracles.replaced(base, {(s, w): seven, (s, M(w)): seven,
                                    (e, M(w)): seven,
                                    (e, w): QPoly([-7, -2, 1])})
    want = (False, ("updown-b'", (0, e, w)))
    assert oracles.check_updown([M], table) == want
    assert check_updown([M], table) == want
