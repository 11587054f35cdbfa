"""The lifting rule that builds the quotient and twisted-identity posets,
held to the descent-lift Bruhat order of ``oracles.bruhat_leq``."""

import pytest

from oracles import bruhat_leq
from pircons import CoxeterSystem, TwistedIdentities
from pircons.posets import lifted_down_sets


def _assert_restricted_bruhat(poset, host, elements):
    """poset is Bruhat order of host restricted to elements, in order."""
    for i, g in enumerate(elements):
        for j, h in enumerate(elements):
            assert poset.leq(j, i) == bruhat_leq(host, h, g), \
                (poset.labels[j], poset.labels[i])


def test_quotient_masks_match_the_oracle(suite_quotients):
    quotients = dict(suite_quotients)
    quotients["D4/H={s2}"] = CoxeterSystem(
        {"type": "D", "rank": 4}).quotient({1})
    for quot in quotients.values():
        _assert_restricted_bruhat(quot.poset, quot.group, quot.reps)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_twisted_masks_match_the_oracle(request, n):
    T = request.getfixturevalue("twisted4") if n == 4 else \
        TwistedIdentities(n)
    _assert_restricted_bruhat(T.poset, T.host, T.elements)


def _lifted(poset, M, w):
    """D(M(w)), its image under M and w, as one mask."""
    below = poset.down_set(M[w])
    mask = below | 1 << w
    for u in poset.elements_of(below):
        mask |= 1 << M[u]
    return mask


def test_every_lowering_map_gives_the_same_mask(twisted4, groups):
    full = groups["A3"].quotient(())
    for inst, host_length, elements in (
            (twisted4, twisted4.host.length, twisted4.elements),
            (full, full.group.length, full.reps)):
        poset = inst.poset
        length = [host_length[g] for g in elements]
        for w in range(poset.n):
            lowering = [M for M in inst.images if length[M[w]] < length[w]]
            assert lowering or w == poset.bottom, (inst, w)
            for M in lowering:
                assert _lifted(poset, M, w) == poset.down_set(w), (inst, w)


def test_lifted_down_sets_raises_when_no_map_lowers():
    # 0 < 1 < 2 by length, but the one map swaps 0 and 1 and fixes 2
    with pytest.raises(ValueError, match="element 2"):
        lifted_down_sets([0, 1, 2], [[1, 0, 2]])
