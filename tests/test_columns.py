"""``klpoly._columns``, the one packer of polynomial tables.

The rule checks (``check_updown``, ``is_calculating``, ``brenti_identity``),
the kernel check, kernel inversion and the Hecke layer's iota images and P
columns all read a table as its columns {u: R_{u,w}(2^B)}.  The columns must
decode to the table's nonzero entries at every width those readers use, and
a table missing a comparable pair must fail loudly in every reader instead
of reading the pair as 0.
"""

import pytest

from pircons import klpoly
from pircons.klpoly import (X_PARAMS, PirconSystem, PolyTable,
                            brenti_identity, check_pkernel, check_updown,
                            is_calculating, kls_polynomials,
                            lambda_refinement)
from pircons.laurent import QPoly


@pytest.mark.parametrize("x", X_PARAMS)
def test_columns_are_the_decoded_entries(suite_contexts, x):
    """Every suite R- and P-table, at the width of the rule checks, of the
    kernel check and of its context's Hecke layer (2B)."""
    for key, ctx in suite_contexts.items():
        poset = ctx.poset
        for table in (ctx.r_table(x), ctx.p_table(x)):
            l1, top, terms = klpoly._norms(table)
            want = [{} for _ in range(poset.n)]
            for (u, w), poly in table.entries.items():
                if poly:
                    want[w][u] = {k: c for k, c in
                                  enumerate(poly.coeffs()) if c}
            for width in (klpoly._width_for(3 * top),
                          klpoly._width_for(terms * l1 * top),
                          2 * ctx.width):
                cols = klpoly._columns(table, width)
                got = [{u: klpoly._digits(c, width)
                        for u, c in col.items()} for col in cols]
                assert got == want, (key, x, width)
                for w, col in enumerate(cols):
                    assert list(col) == [u for u in poset.ideal_elements(w)
                                         if u in col], (key, w)


def test_a_missing_pair_raises_in_every_reader(suite_quotients,
                                               suite_contexts):
    """One comparable pair dropped from a genuine R-table: each of the five
    klpoly readers raises KeyError.  A3/H={s1} has generators with fixed
    points, so ``brenti_identity`` packs the table too."""
    key = "A3/H={s1}"
    quot, ctx = suite_quotients[key], suite_contexts[key]
    poset = quot.poset
    e, top = poset.bottom, poset.top
    M = ctx.system.refinement[top]
    for x in X_PARAMS:
        for pair in ((e, top), (M(top), top)):
            table = PolyTable(poset, x, ctx.r_table(x).entries)
            del table.entries[pair]
            for read in (lambda: check_updown(ctx.matchings, table),
                         lambda: is_calculating(M, table, top),
                         lambda: brenti_identity(quot, table),
                         lambda: check_pkernel(table),
                         lambda: kls_polynomials(table)):
                with pytest.raises(KeyError, match="comparable pair"):
                    read()


def test_a_table_alone_is_packed_afresh(suite_quotients):
    """A PirconSystem keeps the rule columns of its R-tables for its own
    up-down verdict and hands them to brenti_identity; a rule check given
    only a table packs that table, so it sees an entry changed after the
    system packed."""
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
        kept = system.rule_columns(x)
        assert system.rule_columns(x) is kept
        assert brenti_identity(quot, table, kept) == (True, None)
        table.entries[(u, w)] = table.entries[(u, w)] + QPoly.monomial(0, 1)
        assert check_updown(system.matchings, table)[0] is False
        assert brenti_identity(quot, table)[0] is False
        assert system.updown(x) == (True, None)
