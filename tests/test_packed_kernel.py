"""Differential tests of the packed kernel check and kernel inversion.

``klpoly.kls_polynomials`` evaluates every polynomial at q = 2^B and works
on ints, and ``klpoly.check_pkernel`` is that inversion plus a check of the
diagonal.  The reference path in ``oracles`` keeps the inversion and the
kernel sum itself on ``QPoly``/``HalfLaurent`` objects.  The inversions
must give identical tables and identical ``KernelError`` messages and
pairs.  The check must give the oracle sum's verdict and fail in the same
column, naming the first diagonal entry other than 1, else the pair where
the oracle inversion fails.  All of this holds on genuine kernels and on
corrupted tables alike, including coefficients far beyond any machine word.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from pircons import klpoly
from pircons.klpoly import (KernelError, PolyTable, X_PARAMS, all_refinements,
                            check_pkernel, kls_polynomials, r_polynomials)
from pircons.laurent import QPoly
from pircons.matchings import verify_pircon
from test_refined_pircon_properties import generated_posets


def outcome(fn, table, **kwargs):
    """A comparable summary of one inversion: its columns, or the
    KernelError message and pair."""
    try:
        return fn(table, **kwargs).columns
    except KernelError as exc:
        return ("KernelError", str(exc), exc.pair)


def kernel_witness(table, inverse):
    """The witness check_pkernel must give, read off the oracles: the first
    diagonal entry other than 1, else the pair of the KernelError in
    ``inverse``, the outcome of oracles.kls_polynomials, else None."""
    for v in range(table.poset.n):
        if table.value(v, v) != QPoly.one():
            return ("kernel", (v, v))
    return ("kernel", inverse[2]) if inverse[0] == "KernelError" else None


def assert_matches_reference(table):
    """check_pkernel has the oracle sum's verdict, the witness above and,
    when it passes, the oracle inversion's P; kls_polynomials has the
    oracle inversion's outcome.  With the diagonal at 1, the failing column
    is the oracle sum's too.  Both checks of column v read only the ideal
    of v, and the index order of every poset here is a linear extension, so
    the first failing column is the first v whose ideal is not a P-kernel.
    Returns the two witnesses, the check's and the oracle sum's.
    """
    ok, witness, p = check_pkernel(table)
    want_ok, want_witness = oracles.check_pkernel(table)
    inverse = outcome(oracles.kls_polynomials, table)
    assert outcome(kls_polynomials, table) == inverse
    assert ok == want_ok and witness == kernel_witness(table, inverse)
    if ok:
        assert p.columns == inverse
    else:
        assert p is None
        if witness[1][0] != witness[1][1]:
            assert witness[1][1] == want_witness[1][1]
    return witness, want_witness


@pytest.fixture
def widths(monkeypatch):
    """The widths at which a table is packed, in order: one per (re)start
    of the inversion, which the kernel check runs."""
    seen = []
    real = klpoly._columns

    def spy(table, width):
        seen.append(width)
        return real(table, width)

    monkeypatch.setattr(klpoly, "_columns", spy)
    return seen


# -- genuine tables ----------------------------------------------------------

@pytest.mark.parametrize("x", X_PARAMS)
def test_every_suite_quotient(suite_contexts, x):
    for key, ctx in suite_contexts.items():
        table = ctx.system.r_table(x)
        ok, witness, p = check_pkernel(table)
        assert (ok, witness) == (True, None), key
        assert kls_polynomials(table).columns == p.columns == \
            oracles.kls_polynomials(table).columns, key


@pytest.mark.parametrize("x", X_PARAMS)
def test_twisted_identities(twisted2, twisted3, x):
    for tw in (twisted2, twisted3):
        table = tw.system.r_table(x)
        ok, witness, p = check_pkernel(table)
        assert (ok, witness) == (True, None)
        assert kls_polynomials(table).columns == p.columns == \
            oracles.kls_polynomials(table).columns


def test_small_posets_with_their_refinements():
    """Every generated pircon under every one of its refinements."""
    zoo = [P for P in generated_posets() if verify_pircon(P)[0]]
    count = 0
    for P in zoo:
        for ref in all_refinements(P):
            for x in X_PARAMS:
                assert_matches_reference(r_polynomials(P, ref, x))
                count += 1
    assert count > 500


def test_refinement_dependent_pircon(refinement_dependent_poset):
    for ref in all_refinements(refinement_dependent_poset):
        for x in X_PARAMS:
            assert_matches_reference(
                r_polynomials(refinement_dependent_poset, ref, x))


def test_a_negated_kernel_fails_on_its_diagonal(suite_contexts):
    """-R satisfies the kernel sum, as (-R) bar(-R) = R bar(R) = delta, so
    the oracle sum accepts it; but a P-kernel has a unit diagonal."""
    table = suite_contexts["A2/H={-}"].system.r_table("q")
    negated = PolyTable(table.poset, "q",
                        [map(oracles.neg, col) for col in table.columns])
    assert oracles.check_pkernel(negated) == (True, None)
    assert check_pkernel(negated) == (False, ("kernel", (0, 0)), None)


# -- corrupted tables --------------------------------------------------------

def single_nudges(table):
    """The table with one entry plus or minus q^k, for every comparable
    pair, the diagonal included, and every k up to its rank gap + 1."""
    poset = table.poset
    for pair in oracles.pairs(table):
        for k in range(poset.rank_gap(*pair) + 2):
            for c in (1, -1):
                yield oracles.nudged(table, pair, oracles.monomial(k, c))


# The oracles are object arithmetic, about 0.05 s per nudged table on
# B3/H={-}; tables with more elements than this (A3 and B3 with at most one
# generator in H, B3/H={s1,s3}, twisted 3) get a fixed sample of nudges.
EXHAUSTIVE_UP_TO = 10
SAMPLED_NUDGES = 24


def nudge_bases(suite_contexts, twisted2, twisted3,
                refinement_dependent_poset):
    """(name, genuine R^x table) for the suite quotients, twisted 2 and 3,
    and every refinement of the refinement-dependent pircon."""
    for x in X_PARAMS:
        for key, ctx in suite_contexts.items():
            yield key, ctx.system.r_table(x)
        for tw in (twisted2, twisted3):
            yield f"twisted{tw.n}", tw.system.r_table(x)
        for ref in all_refinements(refinement_dependent_poset):
            yield "refinement-dependent", r_polynomials(
                refinement_dependent_poset, ref, x)


def test_every_single_nudge(suite_contexts, twisted2, twisted3,
                            refinement_dependent_poset):
    """The kernel check on every single +-q^k nudge of a genuine table
    fails exactly where the oracle sum fails, in the same column, and at
    the pair that assert_matches_reference names.  A diagonal nudge is
    caught by the diagonal check alone: inversion never reads R_{v,v}."""
    rng = random.Random(19)
    seen = set()
    for key, base in nudge_bases(suite_contexts, twisted2, twisted3,
                                 refinement_dependent_poset):
        tables = list(single_nudges(base))
        if base.poset.n > EXHAUSTIVE_UP_TO:
            tables = rng.sample(tables, SAMPLED_NUDGES)
        for table in tables:
            witness, want = assert_matches_reference(table)
            assert witness is not None, key
            assert witness[1][1] == want[1][1], key
            seen.add(witness[1][0] == witness[1][1])
    assert seen == {True, False}


CORRUPTED_BASES = ["A3/H={-}", "B2/H={s1}", "I2(5)/H={-}", "B3/H={s1,s2}"]

coefficients = st.lists(st.integers(-3, 3) | st.integers(-2 ** 80, 2 ** 80),
                        max_size=6)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_corrupted_tables(suite_contexts, twisted3, data):
    key = data.draw(st.sampled_from(CORRUPTED_BASES + ["twisted3"]))
    x = data.draw(st.sampled_from(X_PARAMS))
    base = twisted3.system.r_table(x) if key == "twisted3" else \
        suite_contexts[key].system.r_table(x)
    entries = oracles.entries(base)
    for _ in range(data.draw(st.integers(1, 3))):
        pair = data.draw(st.sampled_from(oracles.pairs(base)))
        if data.draw(st.booleans()):
            entries[pair] = QPoly(data.draw(coefficients))
        else:   # a one-coefficient nudge of the genuine entry
            k = data.draw(st.integers(0, base.poset.rank_gap(*pair) + 1))
            c = data.draw(st.sampled_from([-1, 1, 2 ** 70]))
            entries[pair] = oracles.add(entries[pair], oracles.monomial(k, c))
    assert_matches_reference(PolyTable.from_entries(base.poset, x, entries))


def test_corrupted_witness_and_message(groups):
    quot = groups["A2"].quotient(set())
    P = quot.poset
    table = r_polynomials(P, klpoly.lambda_refinement(quot), "-1")
    table = oracles.replaced(
        table, {(P.index("e"), P.index("1.2.1")): QPoly((1, 2, 3, 4))})
    ok, witness, _ = check_pkernel(table)
    with pytest.raises(KernelError, match=r"not a P-kernel at pair \('e', "
                                          r"'1\.2\.1'\)") as exc:
        kls_polynomials(table)
    assert outcome(oracles.kls_polynomials, table)[1:] == \
        (str(exc.value), exc.value.pair)
    assert not ok and witness == ("kernel", exc.value.pair)
    assert witness[1][1] == oracles.check_pkernel(table)[1][1][1]


# -- the derived width -------------------------------------------------------

def kernel_of(poset, P):
    """The R-table with sum_z R_{u,z} P_{z,v} = tilde(P)_{u,v}.

    R = tilde(P) P^(-1) satisfies R tilde(R) = delta because tilde is a
    multiplicative involution of the incidence algebra, so R is a P-kernel
    and its inverse family is P.
    """
    R = {}
    pairs = sorted(((u, v) for v in range(poset.n)
                    for u in poset.ideal_elements(v)),
                   key=lambda p: poset.rank_gap(*p))
    for u, v in pairs:
        acc = P[(u, v)].tilde(poset.rank_gap(u, v))
        for z in poset.elements_of(poset.interval_mask(u, v)):
            if z != v:
                acc = oracles.sub(acc, oracles.mul(R[(u, z)], P[(z, v)]))
        R[(u, v)] = acc
    return R


@pytest.fixture(scope="module")
def huge_kernel():
    """A genuine P-kernel on S4 whose P coefficients have 70-72 bits."""
    from pircons import CoxeterSystem
    poset = CoxeterSystem({"type": "A", "rank": 3}).quotient(set()).poset
    rng = random.Random(5)
    P = {}
    for v in range(poset.n):
        for u in poset.ideal_elements(v):
            gap = poset.rank_gap(u, v)
            P[(u, v)] = QPoly.one() if u == v else QPoly(
                rng.choice((-1, 1)) * (2 ** 70 + rng.getrandbits(71))
                for _ in range((gap + 1) // 2))
    return PolyTable.from_entries(poset, "q", kernel_of(poset, P)), P


def top_bits(table):
    return max(abs(c).bit_length() for p in oracles.entries(table).values()
               for c in p.coeffs())


def test_width_is_derived_from_the_table(suite_contexts, huge_kernel,
                                         widths):
    small = suite_contexts["A3/H={-}"].system.r_table("q")
    check_pkernel(small)
    kls_polynomials(small)
    assert len(widths) == 2 and max(widths) < 40
    widths.clear()

    table, P = huge_kernel
    assert top_bits(table) > 140
    assert check_pkernel(table)[:2] == (True, None)
    assert oracles.entries(kls_polynomials(table)) == P
    # one pass each, no widening, and wide enough for the largest entry
    assert len(widths) == 2 and min(widths) > top_bits(table)
    assert_matches_reference(table)


@pytest.mark.parametrize("start", [2, 9, 64])
def test_widening_from_a_narrow_start(huge_kernel, widths, start):
    table, P = huge_kernel
    assert oracles.entries(kls_polynomials(table, _width=start)) == P
    assert widths[0] == start and len(widths) > 1
    assert widths == sorted(set(widths))


def test_huge_corrupted_entries(huge_kernel, suite_contexts):
    table, _ = huge_kernel
    poset = table.poset
    e, w0 = poset.bottom, poset.top
    mid = next(u for u in range(poset.n) if poset.rank_gap(e, u) == 3)
    for pair, delta in (((e, w0), oracles.monomial(2, 2 ** 70)),
                        ((mid, w0), QPoly((-(2 ** 75), 1))),
                        ((e, mid), oracles.monomial(9, 2 ** 90))):
        bad = oracles.nudged(table, pair, delta)
        ok, witness, _ = check_pkernel(bad)
        with pytest.raises(KernelError) as exc:
            kls_polynomials(bad)
        assert outcome(oracles.kls_polynomials, bad) == \
            ("KernelError", str(exc.value), exc.value.pair)
        assert not ok and witness == ("kernel", exc.value.pair)
        assert witness[1][1] == oracles.check_pkernel(bad)[1][1][1]
        # the same inversion outcome from a start width far too narrow
        assert outcome(kls_polynomials, bad, _width=3) == \
            outcome(oracles.kls_polynomials, bad)
    # a genuine small table with a single 2^70 coefficient added
    base = suite_contexts["B2/H={-}"].system.r_table("-1")
    pair = max(oracles.pairs(base), key=lambda p: base.poset.rank_gap(*p))
    bad = oracles.nudged(base, pair, oracles.monomial(1, 2 ** 70))
    assert check_pkernel(bad)[0] is False
    assert_matches_reference(bad)
