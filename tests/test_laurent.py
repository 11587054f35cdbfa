import math

import pytest
from hypothesis import given, strategies as st

import oracles
from oracles import HalfLaurent, embed
from pircons import laurent
from pircons.laurent import QPoly

Q = HalfLaurent.q_power(1)
ONE = HalfLaurent.one()
QH = HalfLaurent.half_power(1)


def test_add_examples():
    assert (Q - ONE) + ONE == Q
    p = HalfLaurent({3: 2, -1: 5})
    assert p + HalfLaurent.zero() == p
    assert (Q - ONE) + (ONE - Q) == HalfLaurent.zero()


def test_mul_examples():
    q2 = HalfLaurent.q_power(2)
    assert (Q - ONE) * (Q - ONE) == q2 - Q - Q + ONE
    assert QH * HalfLaurent.half_power(-1) == ONE
    # rank-2 chain value R^{-1} = (q-1)*q
    assert (Q - ONE) * Q == q2 - Q


def test_bar_examples():
    assert Q.bar() == HalfLaurent.q_power(-1)
    assert (QH + ONE).bar() == HalfLaurent.half_power(-1) + ONE
    p = HalfLaurent({5: -3, 0: 2, -2: 1})
    assert p.bar().bar() == p


def test_tilde_examples():
    qm1 = QPoly((-1, 1))
    assert qm1.tilde(1) == QPoly((1, -1))
    assert QPoly((1,)).tilde(0) == QPoly((1,))
    assert QPoly((0, -1, 1)).tilde(2) == QPoly((1, -1))


def test_tilde_rejects_high_degree():
    with pytest.raises(ValueError):
        QPoly((0, 0, 1)).tilde(1)


def test_accessors():
    p = QPoly((0, -1, 1))
    assert p.degree() == 2
    assert QPoly((1, -1)).eval_at_zero() == 1
    assert QPoly((1, 1)).coeff(1) == 1
    assert QPoly(()).degree() == -math.inf
    assert QPoly((0, 5)).coeff(7) == 0


def test_zero_is_structural():
    assert HalfLaurent({2: 0}) == HalfLaurent.zero()
    assert laurent.HalfLaurent({2: 0}) == laurent.HalfLaurent()
    assert not laurent.HalfLaurent()
    assert laurent.HalfLaurent({1: 2}) == HalfLaurent.half_power(1).scale(2)
    assert not HalfLaurent.zero()
    assert QPoly((0, 0)) == QPoly.zero()


def test_embedding_roundtrip():
    p = QPoly((3, 0, -2, 1))
    assert embed(p).to_qpoly() == p
    with pytest.raises(ValueError):
        QH.to_qpoly()
    with pytest.raises(ValueError):
        HalfLaurent.q_power(-1).to_qpoly()


def test_json_roundtrip():
    p = HalfLaurent({-3: 4, 0: -1, 2: 7})
    assert HalfLaurent.from_json(p.to_json()) == p
    assert p.to_json() == [[-3, 4], [0, -1], [2, 7]]
    g = QPoly((1, 0, -2))
    assert QPoly.from_json(g.to_json()) == g


half_laurents = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-9, max_value=9), max_size=5,
).map(HalfLaurent)

qpolys = st.lists(st.integers(min_value=-9, max_value=9),
                  max_size=6).map(QPoly)


@given(half_laurents, half_laurents, half_laurents)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * ONE == a


@given(half_laurents, half_laurents)
def test_bar_is_multiplicative_involution(a, b):
    assert a.bar().bar() == a
    assert (a * b).bar() == a.bar() * b.bar()


@given(qpolys, st.integers(min_value=0, max_value=4))
def test_tilde_involution(p, extra):
    deg = p.degree()
    n = (deg if deg >= 0 else 0) + extra
    assert p.tilde(n).tilde(n) == p


@given(qpolys, qpolys)
def test_even_halfexponent_closure(a, b):
    ha, hb = embed(a), embed(b)
    assert (ha + hb).is_q_polynomial()
    assert (ha * hb).is_q_polynomial()
    assert (ha * hb).to_qpoly() == oracles.mul(a, b)
    assert (ha + hb).to_qpoly() == oracles.add(a, b)


def test_pow_and_scale():
    assert Q.scale(0) == HalfLaurent.zero()
    assert oracles.power(QPoly((0, 1)), 2) == QPoly((0, 0, 1))
    assert oracles.mul(3, QPoly((1, 1))) == QPoly((3, 3))
