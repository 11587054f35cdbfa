"""Differential tests of the packed R recursion.

``klpoly.r_polynomials`` fills each column at q = 2^B through the one
three-case evaluator and decodes every distinct value once.
``oracles.r_polynomials`` is the same recursion on ``QPoly`` objects, one
product or sum per pair.  Both must give equal entries and the same table
bytes, on every built-in pircon and on every refinement of the small
quotients, including refinements read from outside a pircon system.
"""

import pytest

import oracles
from pircons import CoxeterSystem, TwistedIdentities
from pircons.klpoly import X_PARAMS, all_refinements, lambda_refinement, \
    r_polynomials

CHAINS = [("A2", {1}), ("A3", {1, 2}), ("I2(5)", {0})]


def assert_same_table(poset, refinement, x):
    got = r_polynomials(poset, refinement, x)
    want = oracles.r_polynomials(poset, refinement, x)
    assert got.columns == want.columns
    assert got.to_json_text() == want.to_json_text()
    return got


def assert_within_rank_bound(table):
    """The width bound of ``r_polynomials``: column w's coefficients are at
    most 3^rank(w)."""
    rank = table.poset.rank
    for (u, w), poly in oracles.entries(table).items():
        assert all(abs(c) <= 3 ** rank[w] for c in poly.coeffs()), (u, w)


@pytest.mark.parametrize("x", X_PARAMS)
def test_every_suite_quotient_and_d4(suite_quotients, x):
    quotients = dict(suite_quotients)
    quotients["D4/H={s2}"] = CoxeterSystem(
        {"type": "D", "rank": 4}).quotient({1})
    for key, quot in quotients.items():
        table = assert_same_table(quot.poset, lambda_refinement(quot), x)
        assert_within_rank_bound(table)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_twisted_identities(request, n):
    T = request.getfixturevalue("twisted4") if n == 4 else \
        TwistedIdentities(n)
    for x in X_PARAMS:
        assert_same_table(T.poset, T.conjugation_refinement(), x)


@pytest.mark.parametrize("x", X_PARAMS)
def test_every_refinement(groups, refinement_dependent_poset, x):
    posets = [groups[name].quotient(H).poset for name, H in CHAINS]
    posets.append(refinement_dependent_poset)
    for poset in posets:
        for ref in all_refinements(poset):
            assert_same_table(poset, ref, x)


def test_b4_quotient_with_large_coefficients():
    quot = CoxeterSystem({"type": "B", "rank": 4}).quotient({0})
    for x in X_PARAMS:
        table = assert_same_table(quot.poset, lambda_refinement(quot), x)
        assert_within_rank_bound(table)
        assert max(abs(c) for p in oracles.entries(table).values()
                   for c in p.coeffs()) == 18
