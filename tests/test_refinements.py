"""Refinements read off a pircon system by ``klpoly.system_refinement``,
against the generator searches they replaced (``tests/oracles.py``), and
the lemma that makes every restriction they take an SPM."""

import re

import pytest

import oracles
from pircons import CoxeterSystem, TwistedIdentities
from pircons.klpoly import down_matchings, lambda_refinement, \
    system_refinement
from pircons.matchings import lambda_partial, verify_spm


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
    S = [lambda_partial(quot, s) for s in (1, 0)]
    top = quot.poset.top
    assert down_matchings(quot.poset, S, top) == S
    assert down_matchings(quot.poset, S, quot.poset.bottom) == []


def test_element_without_down_matching_is_named(groups):
    quot = groups["A2"].quotient(set())
    poset = quot.poset
    S = [lambda_partial(quot, 0)]   # s1 alone cannot take s2 down
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
        systems[f"twisted{n}"] = tw.conjugation_qspms()
    for name, matchings in systems.items():
        for M in matchings:
            P = M.poset
            for w in M.domain:
                if P.covers(M(w), w):
                    assert verify_spm(M.restrict_to_ideal(w)) == \
                        (True, None), (name, M, w)
