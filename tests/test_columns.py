"""``klpoly._columns``, the one packer of polynomial tables.

The rule checks (``check_updown``, ``is_calculating``, ``brenti_identity``),
the kernel check, kernel inversion and the Hecke layer's iota images and P
columns all read a table as its columns {u: R_{u,w}(2^B)}.  The columns must
decode to the table's nonzero entries at every width those readers use.  A
table stores every comparable pair, so a dict missing one fails loudly when
it is made a table instead of being read as 0.
"""

import json

import pytest

import oracles
from pircons import klpoly
from pircons.klpoly import (X_PARAMS, PirconSystem, PolyTable,
                            brenti_identity, check_updown,
                            lambda_refinement)


@pytest.mark.parametrize("x", X_PARAMS)
def test_columns_are_the_decoded_entries(suite_contexts, x):
    """Every suite R- and P-table, at the width of the rule checks, of the
    kernel check and of its context's Hecke layer (2B)."""
    for key, ctx in suite_contexts.items():
        poset = ctx.poset
        for table in (ctx.system.r_table(x), ctx.system.p_table(x)):
            l1, top, terms = table.norms
            want = [{} for _ in range(poset.n)]
            for (u, w), poly in oracles.entries(table).items():
                if poly:
                    want[w][u] = {k: c for k, c in
                                  enumerate(poly.coeffs()) if c}
            assert table.rule_columns[0] == klpoly._width_for(3 * top)
            for width in (table.rule_columns[0],
                          klpoly._width_for(terms * l1 * top),
                          2 * ctx.width):
                cols = klpoly._columns(table, width)
                got = [{u: klpoly._digits(c, width)
                        for u, c in col.items()} for col in cols]
                assert got == want, (key, x, width)
                for w, col in enumerate(cols):
                    assert list(col) == [u for u in poset.ideal_elements(w)
                                         if u in col], (key, w)


def test_a_missing_pair_raises_at_construction(suite_contexts):
    """One comparable pair dropped from the entries of a genuine R-table:
    making them a table raises KeyError naming the pair, from a dict and
    from JSON.  An entry at an incomparable pair is refused too."""
    ctx = suite_contexts["A3/H={s1}"]
    poset = ctx.poset
    e, top = poset.bottom, poset.top
    M = ctx.system.refinement[top]
    for x in X_PARAMS:
        genuine = ctx.system.r_table(x)
        for pair in ((e, top), (M(top), top)):
            entries = oracles.entries(genuine)
            del entries[pair]
            with pytest.raises(KeyError, match="comparable pair"):
                PolyTable.from_entries(poset, x, entries)
            data = genuine.to_json()
            labels = [poset.labels[i] for i in pair]
            data["entries"] = [row for row in data["entries"]
                               if row[:2] != labels]
            with pytest.raises(KeyError, match="comparable pair"):
                PolyTable.from_json(json.loads(json.dumps(data)), poset)
        entries = oracles.entries(genuine)
        entries[(top, e)] = entries[(e, top)]
        with pytest.raises(ValueError, match="incomparable pair"):
            PolyTable.from_entries(poset, x, entries)


def test_a_table_keeps_its_own_rule_columns(suite_quotients):
    """A table packs its rule columns once and keeps them, so the system's
    up-down verdict and brenti_identity read one packing of its R-table;
    a table with an entry changed is a new table with its own packing,
    which the rule checks read, while the system keeps its verdict."""
    quot = suite_quotients["A3/H={s1}"]
    rank = quot.poset.rank
    # u < su in the quotient, w fixed by s, u <= w
    s, u, w = next((s, u, w) for s, images in enumerate(quot.images)
                   for u, su in enumerate(images) if rank[su] > rank[u]
                   for w, sw in enumerate(images)
                   if sw == w and quot.poset.leq(u, w))
    for x in X_PARAMS:
        system = PirconSystem(quot.poset, quot.lambda_matchings,
                              lambda_refinement(quot))
        table = system.r_table(x)
        assert system.updown(x) == (True, None)
        # the verdict packed the table, and the table kept the packing
        kept = vars(table)["rule_columns"]
        assert brenti_identity(quot, table) == (True, None)
        assert table.rule_columns is kept
        table = oracles.nudged(table, (u, w), oracles.monomial(0))
        assert check_updown(system.matchings, table)[0] is False
        assert brenti_identity(quot, table)[0] is False
        assert system.updown(x) == (True, None)
