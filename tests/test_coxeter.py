import itertools

import pytest

from oracles import group_product, group_tables
from pircons import coxeter
from pircons.coxeter import (CoxeterError, CoxeterSystem, SIZE_BOUND_ENV,
                             SizeBoundError)


def test_group_sizes(groups):
    assert groups["A2"].size == 6
    assert groups["A3"].size == 24
    assert groups["B2"].size == 8
    assert groups["B3"].size == 48
    assert groups["I2(5)"].size == 10


def test_type_d_and_products():
    assert CoxeterSystem({"type": "D", "rank": 2}).size == 4
    assert CoxeterSystem({"type": "D", "rank": 3}).size == 24
    assert CoxeterSystem({"type": "D", "rank": 4}).size == 192
    prod = CoxeterSystem({"type": "product",
                          "factors": [{"type": "A", "rank": 1},
                                      {"type": "A", "rank": 2}]})
    assert prod.size == 12
    assert prod.matrix[0][1] == 2 and prod.matrix[1][2] == 3


def test_bad_configs_rejected():
    with pytest.raises(CoxeterError):
        CoxeterSystem({"type": "E", "rank": 8})
    with pytest.raises(CoxeterError):
        CoxeterSystem({"type": "I2", "m": 1})
    with pytest.raises(CoxeterError):
        CoxeterSystem({"type": "D", "rank": 1})
    with pytest.raises(CoxeterError):
        CoxeterSystem({"type": "product", "factors": []})


def test_size_bound(monkeypatch):
    monkeypatch.setenv(SIZE_BOUND_ENV, "10")
    with pytest.raises(CoxeterError, match="size bound"):
        CoxeterSystem({"type": "B", "rank": 3})
    monkeypatch.setenv(SIZE_BOUND_ENV, "5")
    with pytest.raises(CoxeterError, match="size bound"):
        CoxeterSystem({"type": "A", "rank": 2})


def test_huge_rank_is_refused_before_the_matrix(monkeypatch):
    """A rank-r group has at least 2^r elements, so a rank past the bound's
    bit length is refused before the rank-by-rank matrix is built, and
    without multiplying out its order (10^9! would never finish)."""
    monkeypatch.delenv(SIZE_BOUND_ENV, raising=False)
    entries = []
    monkeypatch.setattr(coxeter._TypeA, "m_entry",
                        lambda self, i, j: entries.append((i, j)) or 2)
    for rank in (16, 17, 10 ** 9):
        with pytest.raises(SizeBoundError, match="size bound 50000"):
            CoxeterSystem({"type": "A", "rank": rank})
    assert not entries


def test_coxeter_matrix_matches_orders(groups):
    W = groups["B3"]
    assert W.matrix[0][1] == 4 and W.matrix[1][2] == 3 and W.matrix[0][2] == 2


def _left(W, w, s):
    """s w = (w^-1 s)^-1, from the group's right table and inverse."""
    return W.inverse(W.right[W.inverse(w)][s])


def _label(W, w):
    """The label of group element w, read off the full quotient."""
    full = W.quotient(())
    return full.poset.labels[full.reps.index(w)]


def test_mult_gen(groups):
    W = groups["A2"]
    e = W.identity
    s1 = _left(W, e, 0)
    assert W.length[s1] == 1
    assert _left(W, s1, 0) == e
    s2s1 = _left(W, W.right[e][0], 1)
    assert _label(W, s2s1) == "2.1"
    # (s2 s1) * s1 = s2
    assert _label(W, W.right[s2s1][0]) == "2"


def test_length_changes_by_one(groups):
    W = groups["A3"]
    for w in range(W.size):
        for s in range(W.num_gens):
            for sw in (_left(W, w, s), W.right[w][s]):
                assert abs(W.length[sw] - W.length[w]) == 1


def test_nonidentity_has_left_descent(groups):
    """The left descents of w are the right descents of w^-1."""
    for W in groups.values():
        for w in range(W.size):
            if w != W.identity:
                assert W.d_right[W.inverse(w)]


def _subword_leq(W, u, w):
    """Subword-property oracle: u <= w iff some subsequence of a reduced
    word of w multiplies to u with the right length."""
    word = group_tables(W)["word"][w]
    target_len = W.length[u]
    for picks in itertools.combinations(range(len(word)), target_len):
        g = W.identity
        for i in picks:
            g = W.right[g][word[i]]
        if g == u:
            return True
    return target_len == 0


def _bruhat(W):
    """u <= w on group elements, read off the full quotient's poset."""
    full = W.quotient(())
    index = {g: i for i, g in enumerate(full.reps)}
    return lambda u, w: full.poset.leq(index[u], index[w])


def test_bruhat_examples(groups):
    W = groups["A2"]
    leq = _bruhat(W)
    s1 = _left(W, W.identity, 0)
    s2 = _left(W, W.identity, 1)
    s2s1 = _left(W, s1, 1)
    for w in range(W.size):
        assert leq(W.identity, w)
    assert not leq(s1, s2)
    assert leq(s1, s2s1)


@pytest.mark.parametrize("name", ["A2", "A3", "B2"])
def test_bruhat_against_subword_oracle(groups, name):
    W = groups[name]
    leq = _bruhat(W)
    for u in range(W.size):
        for w in range(W.size):
            assert leq(u, w) == _subword_leq(W, u, w)


def test_bruhat_refines_length(groups):
    W = groups["B3"]
    leq = _bruhat(W)
    for u in range(W.size):
        for w in range(W.size):
            if u != w and leq(u, w):
                assert W.length[u] < W.length[w]


def test_quotient_examples(groups):
    W = groups["A2"]
    chain = W.quotient({1})
    assert [chain.poset.labels[i] for i in range(3)] == ["e", "1", "2.1"]
    assert chain.poset.rank == (0, 1, 2)

    full = W.quotient(set())
    assert full.n == W.size

    point = W.quotient({0, 1})
    assert point.n == 1 and point.poset.labels == ("e",)


def test_quotient_reps_have_no_H_descents(groups):
    W = groups["B3"]
    quot = W.quotient({0, 2})
    for i in range(quot.n):
        assert not W.d_right[quot.reps[i]] & 0b101
    for i in range(quot.n):
        assert quot.poset.rank[i] == W.length[quot.reps[i]]


def test_quotient_restriction_of_full_order(groups):
    """The full Bruhat poset restricted to W^H equals the quotient poset."""
    W = groups["A3"]
    quot = W.quotient({0})
    leq = _bruhat(W)
    for i in range(quot.n):
        for j in range(quot.n):
            assert quot.poset.leq(i, j) == leq(quot.reps[i], quot.reps[j])


def test_lower_intervals(groups):
    W = groups["A2"]
    full = W.quotient(set())
    P = full.poset
    assert P.ideal_elements(P.index("e")) == (P.index("e"),)

    top_ideal = P.ideal_elements(P.index("1.2.1"))
    assert len(top_ideal) == 6
    assert max(P.rank[u] for u in top_ideal) == 3

    chain = W.quotient({1}).poset
    ideal = chain.ideal_elements(chain.index("2.1"))
    assert sorted(chain.rank[u] for u in ideal) == [0, 1, 2]


def test_inverse_product_words(groups):
    W = groups["B2"]
    for u in range(W.size):
        assert group_product(W, u, W.inverse(u)) == W.identity
        for v in range(W.size):
            uv = group_product(W, u, v)
            assert W.length[uv] <= W.length[u] + W.length[v]


def test_lex_least_words(groups):
    """The walk from w0 = s1 s2 s1 steps by its lex-least word, and the
    labels are those words."""
    W = groups["A2"]
    w0 = max(range(W.size), key=W.length.__getitem__)
    assert W._walk(W.inverse(w0))[1] == (0, 1, 0)
    assert _label(W, w0) == "1.2.1"
    assert _label(W, W.identity) == "e"


# -- queries read off the right table -----------------------------------------

DERIVED_EXTRA = {
    "D4": {"type": "D", "rank": 4},
    "A2xB2xI2(5)": {"type": "product", "factors": [
        {"type": "A", "rank": 2}, {"type": "B", "rank": 2},
        {"type": "I2", "m": 5}]},
}


@pytest.fixture(scope="module")
def derived_groups(groups):
    return {**groups, **{name: CoxeterSystem(cfg)
                         for name, cfg in DERIVED_EXTRA.items()}}


def test_left_table_is_left_multiplication(derived_groups):
    """(w^-1 s_k)^-1, read off the right table by two walks, is the
    product s_k w."""
    for name, W in derived_groups.items():
        gens = W.right[W.identity]
        for w in range(W.size):
            for k in range(W.num_gens):
                assert _left(W, w, k) == group_product(W, gens[k], w), \
                    (name, w, k)


def test_inverse_table(derived_groups):
    for name, W in derived_groups.items():
        for w in range(W.size):
            assert group_product(W, W.inverse(w), w) == W.identity, (name, w)


def test_type_a_left_multiplication_swaps_values(groups):
    """s_k w exchanges the values k+1 and k+2 in one-line notation."""
    for name in ("A2", "A3"):
        W = groups[name]
        for w, perm in enumerate(W.elements):
            for k in range(W.num_gens):
                a, b = k + 1, k + 2
                want = tuple(b if x == a else a if x == b else x
                             for x in perm)
                assert W.elements[_left(W, w, k)] == want, (name, perm, k)
