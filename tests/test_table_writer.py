"""Differential tests of the column tables and their writers.

A ``PolyTable`` stores one column per element, aligned with its ideal, and
its writers walk the rows in (u, w) order with one cursor per column.
``oracles.DictTable`` is the table keyed by (u, w) that the library kept
before, with its value, sorted pair order and writers.  Both must agree on
the value of every pair, comparable or not, on the row order, and on the
bytes of ``to_json_text`` (which must also equal ``json.dumps`` of
``to_json`` and a newline, the file text) and ``to_csv``.  This holds on
every suite quotient and twisted identity, and on tables with zero
polynomials, one element, no element and labels that need escaping.
"""

import json
import tracemalloc

import pytest

import oracles
from pircons import CoxeterSystem, TwistedIdentities
from pircons.klpoly import (X_PARAMS, PolyTable, kls_polynomials,
                            lambda_refinement, r_polynomials)
from pircons.laurent import QPoly
from pircons.posets import GradedPoset


def assert_matches_reference(table):
    ref = oracles.DictTable.of(table)
    n = table.poset.n
    assert [table.value(u, w) for u in range(n) for w in range(n)] == \
        [ref.value(u, w) for u in range(n) for w in range(n)]
    assert [(u, w) for u, w, _ in table.rows()] == ref.pairs()
    assert [poly for _, _, poly in table.rows()] == \
        [ref.entries[pair] for pair in ref.pairs()]
    assert table.to_json() == ref.to_json()
    assert table.to_json_text() == json.dumps(ref.to_json(), indent=1) + "\n"
    assert table.to_csv() == ref.to_csv()


@pytest.mark.parametrize("x", X_PARAMS)
def test_every_suite_quotient(suite_contexts, x):
    for ctx in suite_contexts.values():
        assert_matches_reference(ctx.system.r_table(x))
        assert_matches_reference(ctx.system.p_table(x))


@pytest.mark.parametrize("x", X_PARAMS)
def test_twisted_identities(x):
    for n in (1, 2, 3, 4):
        table = TwistedIdentities(n).system.r_table(x)
        assert_matches_reference(table)
        assert_matches_reference(kls_polynomials(table))


def test_zero_polynomials_and_huge_coefficients(suite_contexts):
    base = suite_contexts["B3/H={-}"].system.r_table("q")
    pairs = oracles.pairs(base)
    changes = {pair: QPoly.zero() for pair in pairs[::3]}
    changes[pairs[1]] = QPoly((-(2 ** 90), 0, 3))
    table = oracles.replaced(base, changes)
    assert QPoly.zero() in oracles.entries(table).values()
    assert_matches_reference(table)


def test_one_element_and_empty_posets():
    one = GradedPoset(["e"], [])
    assert_matches_reference(PolyTable(one, "-1", [(QPoly.one(),)]))
    assert_matches_reference(PolyTable(GradedPoset([], []), "q", []))


def test_labels_that_need_escaping():
    labels = ['quote"d', "back\\slash", "été ∅", "ctl\x01\n"]
    chain = GradedPoset(labels, [(0, 1), (1, 2), (2, 3)])
    entries = {(u, w): QPoly([1] * (w - u + 1)) if u != 1 else QPoly.zero()
               for w in range(4) for u in range(w + 1)}
    table = PolyTable.from_entries(chain, "q", entries)
    assert_matches_reference(table)
    text = table.to_json_text()
    assert text.isascii() and '\\"' in text and "\\u0001" in text
    assert oracles.entries(PolyTable.from_json(json.loads(text))) == entries


def test_columns_must_match_the_ideals():
    chain = GradedPoset("ab", [(0, 1)])
    one = QPoly.one()
    for columns in ([(one,)], [(one,), (one,)], [(one,), (one, one, one)]):
        with pytest.raises(ValueError, match="lower ideals"):
            PolyTable(chain, "q", columns)


def test_an_r_table_costs_under_16_bytes_a_pair():
    """The R-table of A5/{s3} holds a tuple slot per comparable pair and
    shares its polynomials: under 16 B a pair, traced, where a dict keyed
    by (u, w) took about 100 B."""
    quot = CoxeterSystem({"type": "A", "rank": 5}).quotient({2})
    poset, ref = quot.poset, lambda_refinement(quot)
    pairs = sum(poset.down_set(w).bit_count() for w in range(poset.n))
    for w in range(poset.n):
        poset.ideal_elements(w)   # the ideals belong to the poset
    r_polynomials(poset, ref, "q")   # warm the decoding paths
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = r_polynomials(poset, ref, "q")
        cost = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert table.value(poset.bottom, poset.top)
    assert cost < 16 * pairs, cost / pairs


def test_the_json_writer_peaks_under_1_6_times_its_text():
    """``to_json_text`` builds no string per entry, only four references
    to texts made once per element or distinct entry: on the A5/{s3} R^q
    table its traced peak stays under 1.6 times the text it returns, where
    a string per entry took about 2.7 times."""
    quot = CoxeterSystem({"type": "A", "rank": 5}).quotient({2})
    table = r_polynomials(quot.poset, lambda_refinement(quot), "q")
    table.to_json_text()   # the up-sets belong to the poset
    tracemalloc.start()
    try:
        text = table.to_json_text()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.isascii()
    assert peak < 1.6 * len(text), peak / len(text)
