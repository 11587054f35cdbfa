"""The coefficient bound of kernel inversion's pushed sums, factor by
factor.

``kls_polynomials`` asserts (pushes into G[u]) * max L1(R) * (running max
|coeff| of P_{.,v}) < 2^(B-1) before it reads the digits of G[u].  On a
genuine kernel the sums themselves stay small, so a wrong bound still gives
right tables; what shows it is the width.  Each test starts at a width that
covers every factor but one and requires a restart at a wider B.
``check_pkernel`` needs no test of its own here: it is this inversion
plus a check of the diagonal, and packs nothing itself.
"""

import pytest

import oracles
from pircons import klpoly
from pircons.klpoly import kls_polynomials
from test_packed_kernel import huge_kernel, widths  # noqa: F401 (fixtures)


def largest(polys, measure):
    return max(measure([abs(c) for c in p.coeffs()]) for p in polys if p)


@pytest.fixture
def factors(huge_kernel):
    """max L1(R), max |coeff(R)|, max |coeff(P)| and the largest ideal."""
    table, P = huge_kernel
    l1, top, terms = table.norms
    assert l1 == largest(oracles.entries(table).values(), sum)
    assert top == largest(oracles.entries(table).values(), max)
    return l1, top, largest(P.values(), max), terms


def restarted(widths, start):
    return widths[0] == start and len(widths) > 1


def test_inversion_bound_grows_with_the_p_column(huge_kernel, widths,
                                                 factors):
    """The R factor and the count alone fit; the running P factor does
    not, since the P coefficients have 70 bits or more."""
    table, P = huge_kernel
    l1, _, pmax, terms = factors
    start = klpoly._width_for(terms * l1)
    assert pmax > 2 ** 69
    assert oracles.entries(kls_polynomials(table, _width=start)) == P
    assert restarted(widths, start)


def test_inversion_bound_counts_the_pushes(huge_kernel, widths, factors):
    """max L1(R) * max |coeff(P)| fits, one push each; the pairs deep in a
    column take many pushes."""
    table, P = huge_kernel
    l1, _, pmax, _ = factors
    start = klpoly._width_for(l1 * pmax)
    assert oracles.entries(kls_polynomials(table, _width=start)) == P
    assert restarted(widths, start)
