"""Structure theorems as properties over generated small posets.

A deterministic generator enumerates all graded posets with a handful of
rank profiles (same machinery that located the frozen counterexamples).
Over every pircon found, the suite checks statements the theory makes for
*arbitrary* refined pircons, not just the Coxeter-flavoured instances:

* every enumerated SPM passes the axioms and the lifting property;
* a quasi SPM restricted to the ideal of an element it takes down is an
  SPM, the lemma that lets refinements skip ``verify_spm``;
* every orbit of a pair of SPMs of the same element is dihedral or
  chain-like and forms an interval (the two-matching dichotomy);
* R-tables of any refinement satisfy the degree, constant-term, and
  parameter-swap properties.
"""

import itertools

import pytest

from pircons.klpoly import (X_MINUS_ONE, X_Q, all_refinements, r_polynomials,
                            verify_r_properties)
from pircons.matchings import (PartialMatching, check_lifting,
                               enumerate_spms, orbit_partition, verify_pircon,
                               verify_qspm, verify_spm)
from pircons.posets import GradedPoset, PosetError

PROFILES = [[1, 2, 2], [1, 3, 1], [1, 2, 2, 1], [1, 2, 3], [1, 3, 2]]


def generated_posets():
    for profile in PROFILES:
        layers = []
        idx = 0
        for count in profile:
            layers.append(list(range(idx, idx + count)))
            idx += count
        n = idx
        per_layer = []
        for r in range(len(profile) - 1):
            lo, hi = layers[r], layers[r + 1]
            subsets = [frozenset(s)
                       for k in range(1, len(lo) + 1)
                       for s in itertools.combinations(lo, k)]
            per_layer.append(list(itertools.product(
                *[subsets for _ in hi])))
        for combo in itertools.product(*per_layer):
            covers = []
            for r, assignment in enumerate(combo):
                for j, subs in enumerate(assignment):
                    covers.extend((x, layers[r + 1][j]) for x in subs)
            try:
                yield GradedPoset([str(i) for i in range(n)], covers)
            except PosetError:
                continue


@pytest.fixture(scope="module")
def pircon_zoo():
    zoo = [P for P in generated_posets() if verify_pircon(P)[0]]
    assert len(zoo) > 100
    return zoo


def test_enumerated_spms_satisfy_axioms_and_lifting(pircon_zoo):
    for P in pircon_zoo:
        for w in range(P.n):
            if w == P.bottom:
                continue
            for m in enumerate_spms(P, w):
                assert verify_spm(m) == (True, None)
                assert check_lifting(m) == (True, None)


def qspms_on(P, domain):
    """Every quasi SPM of P on the order ideal ``domain``, by brute force:
    each involution of the domain that moves elements by at most one
    cover, kept when it passes ``verify_qspm``."""
    out, assign, inside = [], {}, set(domain)

    def rec():
        free = next((x for x in domain if x not in assign), None)
        if free is None:
            m = PartialMatching(P, assign)
            if verify_qspm(m)[0]:
                out.append(m)
            return
        for y in (free, *P.up_covers[free], *P.down_covers[free]):
            if y in inside and y not in assign:
                assign[free], assign[y] = y, free
                rec()
                del assign[free]
                assign.pop(y, None)

    rec()
    return out


def test_restricted_qspm_is_an_spm():
    """On every generated poset, every quasi SPM on the whole poset or on
    the ideal of an element restricts to an SPM of the ideal of each w it
    takes down."""
    checked = 0
    for P in generated_posets():
        domains = {tuple(range(P.n))} | {P.ideal_elements(v)
                                         for v in range(P.n)}
        for domain in sorted(domains):
            for M in qspms_on(P, domain):
                for w in M.domain:
                    if P.covers(M(w), w):
                        assert verify_spm(M.restrict_to_ideal(w)) == \
                            (True, None), (M, w)
                        checked += 1
    assert checked > 1000


def test_orbit_dichotomy_for_spm_pairs(pircon_zoo):
    for P in pircon_zoo:
        for w in range(P.n):
            if w == P.bottom:
                continue
            pool = enumerate_spms(P, w)
            for i, M in enumerate(pool):
                for N in pool[i:]:
                    # orbit_partition raises on any orbit that is neither
                    # dihedral nor chain-like or fails interval-ness
                    reports = orbit_partition(M, N, M.domain)
                    covered = sorted(u for r in reports for u in r.orbit)
                    assert covered == sorted(M.domain)


def test_r_properties_for_arbitrary_refinements(pircon_zoo):
    for P in pircon_zoo[::7]:   # subsample: refinement products multiply
        for ref in all_refinements(P):
            r_minus = r_polynomials(P, ref, X_MINUS_ONE)
            r_q = r_polynomials(P, ref, X_Q)
            assert verify_r_properties(r_minus, r_q) == (True, None)
