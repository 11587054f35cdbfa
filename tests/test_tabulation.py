"""The group tabulation and its quotients against the eager reference
closure.

``CoxeterSystem`` reads type A off lexicographic ranks, realizes each edge
of the Cayley graph of any other type once, and keeps only its element,
length, right and right-descent tables; it reads inverses and lex-least
words off one walk down right descents.  ``oracles.coxeter_tables``
realizes every edge from both ends and builds every table eagerly,
inverse, left-multiplication, left-descent and word tables too.  The kept
tables must agree, the walk must give the reference inverse and the
lex-least word read off the reference left table, and each parabolic
quotient must have the reps, lambda images and labels that the reference
left table gives.
"""

import itertools
import tracemalloc

import pytest

from oracles import coxeter_tables, lex_least_word, quotient_maps
from pircons import coxeter
from pircons.coxeter import CoxeterError, CoxeterSystem
from pircons.twisted import TwistedIdentities

from conftest import GROUP_CONFIGS
from test_coxeter import DERIVED_EXTRA

TABLES = ("elements", "length", "right", "d_right")

ORACLE_CONFIGS = {
    **{f"A{r}": {"type": "A", "rank": r} for r in range(1, 7)},
    **{f"B{r}": {"type": "B", "rank": r} for r in range(2, 6)},
    "D4": {"type": "D", "rank": 4},
    "D5": {"type": "D", "rank": 5},
    **{f"I2({m})": {"type": "I2", "m": m} for m in (2, 5, 8)},
    **DERIVED_EXTRA,
    **dict(GROUP_CONFIGS),
}


def assert_tables_match(W, want):
    for name in TABLES:
        assert getattr(W, name) == want[name], name
    for w, inv in enumerate(want["_inv"]):
        assert W._walk(w) == (inv, lex_least_word(want, inv)), w
        assert W.inverse(w) == inv, w


@pytest.mark.parametrize("name", sorted(ORACLE_CONFIGS))
def test_tables_match_the_eager_closure(name):
    cfg = ORACLE_CONFIGS[name]
    assert_tables_match(CoxeterSystem(cfg), coxeter_tables(cfg))


@pytest.fixture(scope="module")
def s8():
    cfg = {"type": "A", "rank": 7}
    return CoxeterSystem(cfg), coxeter_tables(cfg)


def test_s8_tables_match_the_eager_closure(s8):
    W, want = s8
    assert W.size == 40320
    assert_tables_match(W, want)


def spy_right(monkeypatch):
    counts = {"right": 0}
    for cls in (coxeter._TypeA, coxeter._TypeB, coxeter._TypeD,
                coxeter._Dihedral):
        original = cls.right

        def counted(self, w, k, _original=original):
            counts["right"] += 1
            return _original(self, w, k)

        monkeypatch.setattr(cls, "right", counted)
    return counts


@pytest.mark.parametrize("cfg, calls", [
    ({"type": "A", "rank": 3}, 0),
    ({"type": "B", "rank": 3}, 72),
    ({"type": "D", "rank": 4}, 384),
    (DERIVED_EXTRA["A2xB2xI2(5)"], 1440),
])
def test_one_realization_call_per_edge(monkeypatch, cfg, calls):
    """Type A is read off lexicographic ranks with no call; every other
    type, a product's type-A factor included, makes |W| r / 2 calls, one
    per edge of the Cayley graph."""
    counts = spy_right(monkeypatch)
    W = CoxeterSystem(cfg)
    assert counts["right"] == calls
    if cfg["type"] != "A":
        assert calls == W.size * W.num_gens // 2
    W.quotient(())
    assert counts["right"] == calls


def subsets(r):
    return [H for k in range(r + 1)
            for H in itertools.combinations(range(r), k)]


def test_derived_tables_are_built_on_first_use():
    """A quotient's system is built on first use and kept on the
    quotient; the group keeps its eager tables and nothing more, so
    building every quotient of B3 and its system adds no attribute to
    the group."""
    W = CoxeterSystem({"type": "B", "rank": 3})
    kept = dict(W.__dict__)
    for H in subsets(W.num_gens):
        quot = W.quotient(H)
        assert "system" not in quot.__dict__
        assert quot.system is quot.system and "system" in quot.__dict__
    assert W.__dict__ == kept


def test_twisted_build_reads_no_derived_table():
    """Building the twisted identities of S_6 adds no attribute to the
    host group."""
    host = TwistedIdentities(3).host
    assert host.__dict__.keys() == \
        CoxeterSystem({"type": "A", "rank": 5}).__dict__.keys()


# Each H of a group of at most 1,000 elements, and these H of the larger.
LARGE_H = ((), (0,), (1, 2), (0, 2, 3))


@pytest.mark.parametrize("name", sorted(ORACLE_CONFIGS))
def test_quotients_match_the_eager_left_table(name):
    """Reps, lambda images and labels of each quotient equal those read
    off the reference left table and its lex-least words."""
    cfg = ORACLE_CONFIGS[name]
    W, want = CoxeterSystem(cfg), coxeter_tables(cfg)
    every = subsets(W.num_gens)
    for H in every if W.size <= 1000 else [H for H in LARGE_H if H in every]:
        quot = W.quotient(H)
        reps, images, labels = quotient_maps(want, H)
        assert quot.reps == reps, (name, H)
        assert quot.images == images, (name, H)
        assert quot.poset.labels == labels, (name, H)


ORDERS = [({"type": "A", "rank": 5}, 720), ({"type": "B", "rank": 3}, 48),
          ({"type": "D", "rank": 4}, 192), ({"type": "I2", "m": 7}, 14),
          (DERIVED_EXTRA["A2xB2xI2(5)"], 6 * 8 * 10)]


def test_type_a_is_refused_by_its_order(monkeypatch):
    """Every type is refused by its order one element short of it, with
    no realization call, and built at it: |A5| = 6!, |B3| = 2^3 3!,
    |D4| = 2^3 4!, |I2(7)| = 14, and a product has the product of its
    factors' orders."""
    counts = spy_right(monkeypatch)
    for cfg, order in ORDERS:
        counts["right"] = 0
        monkeypatch.setenv(coxeter.SIZE_BOUND_ENV, str(order - 1))
        with pytest.raises(coxeter.SizeBoundError):
            CoxeterSystem(cfg)
        assert counts["right"] == 0, cfg
        monkeypatch.setenv(coxeter.SIZE_BOUND_ENV, str(order))
        assert CoxeterSystem(cfg).size == order, cfg


@pytest.mark.parametrize("off", [-1, 1])
def test_a_closure_that_misses_the_order_is_refused(monkeypatch, off):
    """The closure must end with exactly the realization's order."""
    monkeypatch.setattr(coxeter._TypeB, "order", lambda self: 48 + off)
    with pytest.raises(CoxeterError, match="closure reached 48 elements"):
        CoxeterSystem({"type": "B", "rank": 3})


def test_a7_traced_peak():
    """The S_8 tabulation peaks under 17 MiB traced (19.7 MiB with the
    closure)."""
    tracemalloc.start()
    try:
        W = CoxeterSystem({"type": "A", "rank": 7})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert W.size == 40320
    assert peak < 17 * 2 ** 20


def test_realization_that_is_not_length_additive(monkeypatch):
    """An ascent whose image is already tabulated is refused."""
    original = coxeter._TypeB.right
    monkeypatch.setattr(coxeter._TypeB, "right",
                        lambda self, w, k: w if k == 1 else
                        original(self, w, k))
    with pytest.raises(CoxeterError, match="not length-additive"):
        CoxeterSystem({"type": "B", "rank": 2})
