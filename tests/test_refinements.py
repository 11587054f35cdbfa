"""Refinements read off a pircon system by ``klpoly.system_refinement``,
against the generator searches they replaced (``tests/oracles.py``) and the
copies restricted to each ideal that they held before, and the lemma that
makes every such restriction an SPM."""

import re

import pytest

import oracles
from pircons import CoxeterSystem, TwistedIdentities
from pircons.klpoly import (X_PARAMS, Refinement, down_matchings,
                            lambda_refinement, r_polynomials,
                            system_refinement)
from pircons.matchings import PartialMatching, verify_spm
from pircons.posets import GradedPoset


def test_lambda_refinement_matches_descent_search(suite_quotients):
    for name, quot in suite_quotients.items():
        assert lambda_refinement(quot) == \
            oracles.lambda_refinement(quot), name


@pytest.mark.parametrize("n", [2, 3])
def test_conjugation_refinement_matches_candidate_search(request, n):
    tw = request.getfixturevalue(f"twisted{n}")
    assert tw.conjugation_refinement() == oracles.conjugation_refinement(tw)


def test_down_matchings_in_list_order(groups):
    quot = groups["A2"].quotient(set())
    S = [quot.lambda_matching(s) for s in (1, 0)]
    top = quot.poset.top
    assert down_matchings(quot.poset, S, top) == S
    assert down_matchings(quot.poset, S, quot.poset.bottom) == []


def test_element_without_down_matching_is_named(groups):
    quot = groups["A2"].quotient(set())
    poset = quot.poset
    S = [quot.lambda_matching(0)]   # s1 alone cannot take s2 down
    missing = [w for w in range(poset.n) if w != poset.bottom
               and not down_matchings(poset, S, w)]
    assert missing
    with pytest.raises(ValueError,
                       match=re.escape(repr(poset.labels[missing[0]]))):
        system_refinement(poset, S)


def test_restriction_of_a_system_qspm_is_an_spm(suite_quotients, twisted2,
                                                twisted3, twisted4):
    """For every quasi SPM of every built-in system and every w it takes
    down, the restriction to the ideal of w is an SPM, so
    ``system_refinement`` need not check it."""
    systems = {name: quot.lambda_matchings
               for name, quot in suite_quotients.items()}
    for name, cfg, H in (("D4/{s2}", {"type": "D", "rank": 4}, {1}),
                         ("B4/{s1}", {"type": "B", "rank": 4}, {0})):
        systems[name] = CoxeterSystem(cfg).quotient(H).lambda_matchings
    for n, tw in enumerate((TwistedIdentities(1), twisted2, twisted3,
                            twisted4), start=1):
        systems[f"twisted{n}"] = tw.matchings
    for name, matchings in systems.items():
        for M in matchings:
            P = M.poset
            for w in M.domain:
                if P.covers(M(w), w):
                    assert verify_spm(M.restrict_to_ideal(w)) == \
                        (True, None), (name, M, w)


def test_a_system_refinement_holds_the_system_matchings(suite_quotients):
    """At every w the refinement holds the first system matching that takes
    w down, the object itself.  It equals the refinement of restricted
    copies under == and to_json, and gives the same R-tables at both x."""
    systems = {name: (quot.poset, quot.lambda_matchings)
               for name, quot in suite_quotients.items()}
    for n in (1, 2, 3, 4):
        tw = TwistedIdentities(n)
        systems[f"twisted{n}"] = (tw.poset, tw.matchings)
    for name, (poset, matchings) in systems.items():
        ref = system_refinement(poset, matchings)
        for w in range(poset.n):
            if w != poset.bottom:
                assert ref[w] is down_matchings(poset, matchings, w)[0]
        copies = oracles.restricted_refinement(poset, matchings)
        assert ref == copies and copies == ref, name
        assert ref.to_json() == copies.to_json(), name
        for x in X_PARAMS:
            assert r_polynomials(poset, ref, x) == \
                r_polynomials(poset, copies, x), (name, x)


def test_refinement_shape_errors_name_labels():
    """A matching must be defined on the whole ideal of its element, and
    may go past it, and must map the element to one it covers."""
    chain = GradedPoset("abc", [(0, 1), (1, 2)])
    swap = PartialMatching(chain, {0: 1, 1: 0, 2: 2})
    down = PartialMatching(chain, {0: 0, 1: 2, 2: 1})
    assert Refinement(chain, {1: swap, 2: down})[1] is swap
    with pytest.raises(ValueError, match="matching at 'c' does not map it "
                                         "to an element it covers"):
        Refinement(chain, {1: swap, 2: swap})
    with pytest.raises(ValueError, match="matching at 'c' is not defined"):
        Refinement(chain, {1: swap, 2: PartialMatching(chain, {0: 1, 1: 0})})
