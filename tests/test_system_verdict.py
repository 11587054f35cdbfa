"""The pircon-system verdict and the R-property check against the
reference paths in ``oracles``: the per-pair orbit memo against
``strictly_coherent`` on the restrictions, and the one-decision-per-triple
property check against the per-row scan."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
from pircons import CoxeterSystem, TwistedIdentities
from pircons.klpoly import (X_MINUS_ONE, X_Q, Refinement, down_matchings,
                            lambda_refinement, verify_pircon_system,
                            verify_r_properties)
from pircons.matchings import (PairOrbits, enumerate_spms, lambda_partial,
                               strictly_coherent)


@pytest.fixture(scope="module")
def larger_groups():
    return {name: CoxeterSystem({"type": name[0], "rank": int(name[1])})
            for name in ("A4", "A5", "D4")}


def per_ideal(poset, refinement):
    """The system a refinement file gives the CLI: one SPM per ideal, read
    back through ``Refinement.from_json``."""
    again = Refinement.from_json(poset, refinement.to_json())
    return [m for _, m in sorted(again.matchings.items())]


def check_rule(poset, matchings):
    """Assert that the memo rule equals ``strictly_coherent`` on the
    restrictions at every w and pair of down-matchings, with one memo per
    pair asked in verdict order and another asked from the last w down,
    so that it holds orbits outside the ideal it is asked about.  Returns
    the number of (w, M, N) checked and of those not strictly coherent."""
    wants = {}
    for w in range(poset.n):
        if w == poset.bottom:
            continue
        down = down_matchings(poset, matchings, w)
        for i, M in enumerate(down):
            for N in down[i + 1:]:
                wants.setdefault((M, N), {})[w] = strictly_coherent(
                    M.restrict_to_ideal(w), N.restrict_to_ideal(w), w)
    for (M, N), by_w in wants.items():
        for order in (sorted(by_w), sorted(by_w, reverse=True)):
            memo = PairOrbits(M, N)
            for w in order:
                assert memo.strictly_coherent(w) == by_w[w], (w, M, N)
    verdicts = [want for by_w in wants.values() for want in by_w.values()]
    return len(verdicts), verdicts.count(False)


def check_system(poset, matchings):
    """``check_rule``, and the verdict equal to the reference verdict."""
    counts = check_rule(poset, matchings)
    assert verify_pircon_system(poset, matchings) == \
        oracles.verify_pircon_system(poset, matchings)
    return counts


def test_every_suite_quotient(suite_quotients):
    for name, quot in suite_quotients.items():
        check_system(quot.poset, quot.lambda_matchings)
        assert verify_pircon_system(quot.poset, quot.lambda_matchings) == \
            (True, None), name


@pytest.mark.parametrize("name, H", [("D4", {1}), ("A5", {2}), ("A5", set())])
def test_larger_quotients(larger_groups, name, H):
    quot = larger_groups[name].quotient(H)
    checked, weak = check_system(quot.poset, quot.lambda_matchings)
    assert checked and not weak


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_twisted_identities(n):
    tw = TwistedIdentities(n)
    system = tw.system
    check_system(tw.poset, system.matchings)
    assert system.verdict == (True, None)


@pytest.mark.parametrize("name", ["A3", "D4/{s2}", "A4", "twisted3",
                                  "twisted4"])
def test_per_ideal_systems(larger_groups, groups, name):
    """Systems of one SPM per ideal, as a refinement file gives them: pairs
    of matchings with different domains and, on twisted identities, pairs
    that are coherent but not strictly coherent, so the SPM-pool search
    runs too."""
    if name.startswith("twisted"):
        tw = TwistedIdentities(int(name[-1]))
        poset, ref = tw.poset, tw.conjugation_refinement()
    else:
        group = groups.get(name) or larger_groups[name[:2]]
        quot = group.quotient({1} if name == "D4/{s2}" else set())
        poset, ref = quot.poset, lambda_refinement(quot)
    matchings = per_ideal(poset, ref)
    checked, weak = check_system(poset, matchings)
    assert checked and (weak > 0) == name.startswith("twisted")
    assert verify_pircon_system(poset, matchings) == (True, None)


def test_twisted_spm_pool(twisted2):
    P = twisted2.poset
    pool = [m for w in range(P.n) if w != P.bottom
            for m in enumerate_spms(P, w)]
    check_system(P, pool)


def test_failing_systems(groups, non_dircon_poset):
    P = non_dircon_poset
    pool = [m for w in range(P.n) if w != P.bottom
            for m in enumerate_spms(P, w)]
    check_system(P, pool)
    ok, witness = verify_pircon_system(P, pool)
    assert not ok and witness[0] == "incoherent"

    quot = groups["A2"].quotient(set())
    alone = [lambda_partial(quot, 0)]
    check_system(quot.poset, alone)
    ok, witness = verify_pircon_system(quot.poset, alone)
    assert not ok and witness[0] == "no-down-matching"


# -- verify_r_properties ---------------------------------------------------

def r_tables(suite_contexts):
    for name, ctx in suite_contexts.items():
        yield name, ctx.system
    for n in (1, 2, 3, 4):
        yield f"twisted{n}", TwistedIdentities(n).system


def test_r_properties_equal_the_row_scan(suite_contexts):
    for name, system in r_tables(suite_contexts):
        minus, plus = system.r_table(X_MINUS_ONE), system.r_table(X_Q)
        assert verify_r_properties(minus, plus) == \
            oracles.verify_r_properties(minus, plus) == (True, None), name


def test_r_property_witnesses_equal_the_row_scan(suite_contexts):
    """One nudge per clause at the last pair of each table, and two at
    once where the column scan meets the later row first."""
    crossed = 0
    for name, system in r_tables(suite_contexts):
        minus, plus = system.r_table(X_MINUS_ONE), system.r_table(X_Q)
        rank = minus.poset.rank
        pairs = [p for p in oracles.pairs(minus) if p[0] != p[1]]
        if not pairs:
            continue
        u, w = pairs[-1]
        gap = rank[w] - rank[u]
        cases = {
            "degree": (oracles.nudged(minus, (u, w),
                                      oracles.monomial(gap + 1)), plus),
            "constant-term": (minus, oracles.nudged(plus, (u, w),
                                                    oracles.monomial(0, -1))),
            "x-z-transform": (minus, oracles.nudged(plus, (u, w),
                                                    oracles.monomial(1))),
        }
        for clause, (a, b) in cases.items():
            assert verify_r_properties(a, b) == \
                oracles.verify_r_properties(a, b) == \
                (False, (clause, (u, w))), (name, clause)
        # (u0, w0) comes first in row order, (u1, w1) in column order
        u0 = pairs[0][0]
        w0 = max(p[1] for p in pairs if p[0] == u0)
        later = [p for p in pairs if p[1] < w0 and p[0] > u0]
        if later:
            crossed += 1
            b = oracles.nudged(oracles.nudged(plus, later[0],
                                              oracles.monomial(0, 1)),
                               (u0, w0), oracles.monomial(1))
            assert verify_r_properties(minus, b) == \
                oracles.verify_r_properties(minus, b) == \
                (False, ("x-z-transform", (u0, w0))), name
    assert crossed


# -- import cost ------------------------------------------------------------

def test_cli_import_is_lean():
    """``import pircons.cli`` loads none of these modules unless the bare
    interpreter already had them."""
    code = ("import sys; base = set(sys.modules); import pircons.cli; "
            "print(sorted({'csv', 'dataclasses', 'inspect'} "
            "& (set(sys.modules) - base)))")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
