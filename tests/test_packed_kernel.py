"""Differential tests of the packed kernel check and kernel inversion.

``klpoly.check_pkernel`` and ``klpoly.kls_polynomials`` evaluate every
polynomial at q = 2^B and work on ints.  The reference path in ``oracles``
is the same algorithm on ``QPoly``/``HalfLaurent`` objects.  Both must give
identical tables, identical ``(ok, witness)`` results and identical
``KernelError`` messages, on genuine kernels and on corrupted tables alike,
including coefficients far beyond any machine word.
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
    """A comparable summary of one call: the check's (ok, witness) pair, the
    inversion's entries, or the KernelError message."""
    try:
        got = fn(table, **kwargs)
    except KernelError as exc:
        return ("KernelError", str(exc))
    return got.entries if isinstance(got, PolyTable) else got


def assert_matches_reference(table, **kwargs):
    assert outcome(check_pkernel, table, **kwargs) == \
        outcome(oracles.check_pkernel, table)
    assert outcome(kls_polynomials, table, **kwargs) == \
        outcome(oracles.kls_polynomials, table)


@pytest.fixture
def widths(monkeypatch):
    """The widths at which a table is packed, in order: one per call of
    the kernel check and one per (re)start of the inversion."""
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
        table = ctx.r_table(x)
        assert check_pkernel(table) == (True, None), key
        assert kls_polynomials(table).entries == \
            oracles.kls_polynomials(table).entries, key


@pytest.mark.parametrize("x", X_PARAMS)
def test_twisted_identities(twisted2, twisted3, x):
    for tw in (twisted2, twisted3):
        table = tw.klv_polynomials(x)
        assert check_pkernel(table) == (True, None)
        assert kls_polynomials(table).entries == \
            oracles.kls_polynomials(table).entries


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


# -- corrupted tables --------------------------------------------------------

CORRUPTED_BASES = ["A3/H={-}", "B2/H={s1}", "I2(5)/H={-}", "B3/H={s1,s2}"]

coefficients = st.lists(st.integers(-3, 3) | st.integers(-2 ** 80, 2 ** 80),
                        max_size=6)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_corrupted_tables(suite_contexts, twisted3, data):
    key = data.draw(st.sampled_from(CORRUPTED_BASES + ["twisted3"]))
    x = data.draw(st.sampled_from(X_PARAMS))
    base = twisted3.klv_polynomials(x) if key == "twisted3" else \
        suite_contexts[key].r_table(x)
    entries = dict(base.entries)
    for _ in range(data.draw(st.integers(1, 3))):
        pair = data.draw(st.sampled_from(base.pairs()))
        if data.draw(st.booleans()):
            entries[pair] = QPoly(data.draw(coefficients))
        else:   # a one-coefficient nudge of the genuine entry
            k = data.draw(st.integers(0, base.poset.rank_gap(*pair) + 1))
            c = data.draw(st.sampled_from([-1, 1, 2 ** 70]))
            entries[pair] = entries[pair] + QPoly.monomial(k, c)
    assert_matches_reference(PolyTable(base.poset, x, entries))


def test_corrupted_witness_and_message(groups):
    quot = groups["A2"].quotient(set())
    P = quot.poset
    table = r_polynomials(P, klpoly.lambda_refinement(quot), "-1")
    table.entries[(P.index("e"), P.index("1.2.1"))] = QPoly((1, 2, 3, 4))
    ok, witness = check_pkernel(table)
    assert not ok and witness == oracles.check_pkernel(table)[1]
    with pytest.raises(KernelError, match=r"not a P-kernel at pair \('e', "
                                          r"'1\.2\.1'\)"):
        kls_polynomials(table)


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
                acc = acc - R[(u, z)] * P[(z, v)]
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
    return PolyTable(poset, "q", kernel_of(poset, P)), P


def top_bits(table):
    return max(abs(c).bit_length() for p in table.entries.values()
               for c in p.coeffs())


def test_width_is_derived_from_the_table(suite_contexts, huge_kernel,
                                         widths):
    small = suite_contexts["A3/H={-}"].r_table("q")
    check_pkernel(small)
    kls_polynomials(small)
    assert len(widths) == 2 and max(widths) < 40
    widths.clear()

    table, P = huge_kernel
    assert top_bits(table) > 140
    assert check_pkernel(table) == (True, None)
    assert kls_polynomials(table).entries == P
    # one pass each, no widening, and wide enough for the largest entry
    assert len(widths) == 2 and min(widths) > top_bits(table)
    assert_matches_reference(table)


@pytest.mark.parametrize("start", [2, 9, 64])
def test_widening_from_a_narrow_start(huge_kernel, widths, start):
    table, P = huge_kernel
    assert kls_polynomials(table, _width=start).entries == P
    assert widths[0] == start and len(widths) > 1
    assert widths == sorted(set(widths))


def test_huge_corrupted_entries(huge_kernel, suite_contexts):
    table, _ = huge_kernel
    poset = table.poset
    e, w0 = poset.bottom, poset.top
    mid = next(u for u in range(poset.n) if poset.rank_gap(e, u) == 3)
    for pair, delta in (((e, w0), QPoly.monomial(2, 2 ** 70)),
                        ((mid, w0), QPoly((-(2 ** 75), 1))),
                        ((e, mid), QPoly.monomial(9, 2 ** 90))):
        bad = PolyTable(poset, "q", dict(table.entries))
        bad.entries[pair] = bad.entries[pair] + delta
        got = check_pkernel(bad)
        assert not got[0] and got == oracles.check_pkernel(bad)
        with pytest.raises(KernelError) as exc:
            kls_polynomials(bad)
        assert outcome(oracles.kls_polynomials, bad) == \
            ("KernelError", str(exc.value))
        # the same inversion outcome from a start width far too narrow
        assert outcome(kls_polynomials, bad, _width=3) == \
            outcome(oracles.kls_polynomials, bad)
    # a genuine small table with a single 2^70 coefficient added
    base = suite_contexts["B2/H={-}"].r_table("-1")
    bad = PolyTable(base.poset, "-1", dict(base.entries))
    pair = max(bad.pairs(), key=lambda p: base.poset.rank_gap(*p))
    bad.entries[pair] = bad.entries[pair] + QPoly.monomial(1, 2 ** 70)
    assert check_pkernel(bad)[0] is False
    assert_matches_reference(bad)
