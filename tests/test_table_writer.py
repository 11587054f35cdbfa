"""Differential tests of ``PolyTable.to_json_text``, the table writer of
``compute``, against ``json.dumps(table.to_json(), indent=1)``: equal text
on every suite quotient and twisted identity, and on tables with zero
polynomials, one element, no element and labels that need escaping."""

import json

import pytest

from pircons.klpoly import X_PARAMS, PolyTable, kls_polynomials
from pircons.laurent import QPoly
from pircons.posets import GradedPoset


def assert_same_text(table):
    assert table.to_json_text() == json.dumps(table.to_json(), indent=1)


@pytest.mark.parametrize("x", X_PARAMS)
def test_every_suite_quotient(suite_contexts, x):
    for ctx in suite_contexts.values():
        assert_same_text(ctx.r_table(x))
        assert_same_text(ctx.p_table(x))


@pytest.mark.parametrize("x", X_PARAMS)
def test_twisted_identities(twisted2, twisted3, x):
    for tw in (twisted2, twisted3):
        table = tw.klv_polynomials(x)
        assert_same_text(table)
        assert_same_text(kls_polynomials(table))


def test_zero_polynomials_and_huge_coefficients(suite_contexts):
    base = suite_contexts["B3/H={-}"].r_table("q")
    entries = dict(base.entries)
    pairs = base.pairs()
    for pair in pairs[::3]:
        entries[pair] = QPoly.zero()
    entries[pairs[1]] = QPoly((-(2 ** 90), 0, 3))
    table = PolyTable(base.poset, "q", entries)
    assert QPoly.zero() in table.entries.values()
    assert_same_text(table)


def test_one_element_and_empty_posets():
    one = GradedPoset(["e"], [])
    assert_same_text(PolyTable(one, "-1", {(0, 0): QPoly.one()}))
    assert_same_text(PolyTable(GradedPoset([], []), "q", {}))


def test_labels_that_need_escaping():
    labels = ['quote"d', "back\\slash", "été ∅", "ctl\x01\n"]
    chain = GradedPoset(labels, [(0, 1), (1, 2), (2, 3)])
    entries = {(u, w): QPoly([1] * (w - u + 1)) if u != 1 else QPoly.zero()
               for w in range(4) for u in range(w + 1)}
    table = PolyTable(chain, "q", entries)
    text = table.to_json_text()
    assert text == json.dumps(table.to_json(), indent=1)
    assert text.isascii() and '\\"' in text and "\\u0001" in text
    assert PolyTable.from_json(json.loads(text)).entries == entries
