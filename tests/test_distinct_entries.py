"""The table path does its per-value work once per distinct entry object.

Tables built here share one ``QPoly`` per distinct value, so ``_columns``
packs each distinct entry object once, and the writers format each once,
keyed by its id.  A table with a fresh object at every pair, as
``PolyTable.from_json`` makes, holds the same values: it must give the same
packed columns, the same kernel inversion, the same bytes from both writers
and, nudged, the same ``KernelError`` pair and message.
"""

import random

import pytest

import oracles
from pircons import klpoly
from pircons.klpoly import (X_PARAMS, KernelError, PolyTable,
                            kls_polynomials)
from pircons.laurent import QPoly


def unshared(table):
    """The table with a fresh QPoly at every pair."""
    copy = PolyTable.from_entries(
        table.poset, table.x, {pair: QPoly(poly.coeffs()) for pair, poly
                               in oracles.entries(table).items()})
    objects = [p for col in copy.columns for p in col]
    assert len({id(p) for p in objects}) == len(objects)
    return copy


def distinct_nonzero(table):
    return sum(1 for p in {id(p): p for col in table.columns
                           for p in col}.values() if p)


def outcome(table):
    """The inversion's columns, or its KernelError message and pair."""
    try:
        return kls_polynomials(table).columns
    except KernelError as exc:
        return ("KernelError", str(exc), exc.pair)


@pytest.mark.parametrize("x", X_PARAMS)
def test_columns_pack_each_distinct_entry_once(suite_contexts, monkeypatch,
                                               x):
    """One ``_pack`` call per distinct nonzero entry object, on every
    suite R- and P-table; an unshared copy makes one per nonzero pair."""
    calls = []
    real = klpoly._pack

    def spy(coeffs, width):
        calls.append(coeffs)
        return real(coeffs, width)

    monkeypatch.setattr(klpoly, "_pack", spy)
    shared_less = False
    for key, ctx in suite_contexts.items():
        for table in (ctx.system.r_table(x), ctx.system.p_table(x)):
            calls.clear()
            cols = klpoly._columns(table, 30)
            assert len(calls) == distinct_nonzero(table), key
            nonzero = sum(map(len, cols))
            shared_less |= len(calls) < nonzero
            calls.clear()
            assert klpoly._columns(unshared(table), 30) == cols, key
            assert len(calls) == nonzero, key
    assert shared_less


@pytest.mark.parametrize("x", X_PARAMS)
def test_an_unshared_table_gives_the_same_results(suite_contexts, x):
    """Packed columns, kernel inversion and both writers, on every suite
    R-table and its P-table."""
    for key, ctx in suite_contexts.items():
        r_table, p_table = ctx.system.r_table(x), ctx.system.p_table(x)
        copy = unshared(r_table)
        width = klpoly._width_for(r_table.norms[1])
        assert klpoly._columns(copy, width) == \
            klpoly._columns(r_table, width), key
        assert kls_polynomials(copy).columns == p_table.columns, key
        for table in (r_table, p_table):
            copy = unshared(table)
            assert copy.to_json_text() == table.to_json_text(), key
            assert copy.to_csv() == table.to_csv(), key


NUDGE_BASES = ["A3/H={-}", "B3/H={s1,s2}", "I2(5)/H={-}", "B3/H={s2}"]


@pytest.mark.parametrize("x", X_PARAMS)
def test_nudged_copies_fail_alike(suite_contexts, x):
    """A +-q^k nudge of the shared table and of its unshared copy at the
    same pair gives the same outcome: the same KernelError pair and
    message, or the same P.  The shared nudge keeps every other entry
    object, so the inversion's decode memo meets repeated sums there."""
    rng = random.Random(32)
    failed = 0
    for key in NUDGE_BASES:
        base = suite_contexts[key].system.r_table(x)
        copy = unshared(base)
        pairs = [(u, w) for u, w in oracles.pairs(base) if u != w]
        for pair in rng.sample(pairs, min(len(pairs), 40)):
            k = rng.randrange(base.poset.rank_gap(*pair) + 2)
            delta = oracles.monomial(k, rng.choice((-1, 1)))
            got = outcome(oracles.nudged(base, pair, delta))
            assert got == outcome(oracles.nudged(copy, pair, delta)), \
                (key, pair, k)
            failed += got[0] == "KernelError"
    assert failed
