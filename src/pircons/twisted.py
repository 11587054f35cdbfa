"""Twisted identities of S_(2n) and their Kazhdan-Lusztig-Vogan tables.

Let theta be the diagram flip of the symmetric group S_(2n), sending the
adjacent transposition s_i to s_(2n-i); concretely theta(w) = w0 w w0 for
the longest element w0.  The *twisted identities* are the set

    {theta(w^(-1)) w : w in S_(2n)},

of size (2n-1)!!, ordered by the restriction of Bruhat order.  Covers are
recomputed inside the subset (a cover here may span a Bruhat-length gap of
2), and the rank function is the one induced by the graded structure, which
is validated at build time together with pircon-hood.

Since theta((w s)^(-1)) w s = theta(s) theta(w^(-1)) w s, the set is the
orbit of the identity under the conjugation maps u -> theta(s_i) u s_i,
and it is built as that orbit.  The maps are tabulated once as image
lists.  Bruhat order on the set has the lifting property of the twisted
action (Hultman, Adv. Math. 195, 2005): when a conjugation map takes w
down, the lower interval of w is the union of that of its image and the
image of that interval under the map (``posets.lifted_down_sets``).

The conjugation maps preserve the set; those that are
quasi SPMs of the whole poset generate the Hecke-module structure, and per
lower interval they provide the SPMs that drive the R-recursion.  The
resulting R^q- and R^(-1)-tables are the Kazhdan-Lusztig-Vogan R- and
Q-polynomials of the corresponding symmetric pair.
"""

from __future__ import annotations

import functools

from .coxeter import CoxeterSystem
from .klpoly import PirconSystem, Refinement, X_MINUS_ONE, X_Q, \
    system_refinement
from .matchings import PartialMatching, verify_pircon, verify_qspm
from .posets import from_comparability, lifted_down_sets


def _double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


class TwistedIdentities:
    """The twisted-identity pircon of S_(2n).

    The host S_(2n) is tabulated from its lexicographic ranks, and only
    its eager tables are read: each conjugate theta(s_i) g s_i of an orbit
    element g is s (g s_i) = ((g s_i)^-1 s)^-1 with s = theta(s_i), two
    walks down right descents, so the host builds no derived table.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need n >= 1")
        self.n = n
        m = 2 * n
        self.host = CoxeterSystem({"type": "A", "rank": m - 1})
        host = self.host

        # conj[g][i] = theta(s_i) g s_i, where theta(s_i) = s_(m-2-i)
        # (0-based), computed as s w = (w^-1 s)^-1 with no left table.
        # The twisted identities are the orbit of e.
        inv, right = host.inverse, host.right
        conj = {}
        stack = [host.identity]
        while stack:
            g = stack.pop()
            if g not in conj:
                conj[g] = tuple(inv(right[inv(right[g][i])][m - 2 - i])
                                for i in range(m - 1))
                stack.extend(conj[g])
        expected = _double_factorial(2 * n - 1)
        if len(conj) != expected:
            raise AssertionError(
                f"twisted identity count {len(conj)} != {expected}")

        elems = sorted(conj, key=lambda g: (host.length[g], host.elements[g]))
        self.elements = tuple(elems)
        self.element_index = {g: i for i, g in enumerate(elems)}
        # images[i][u]: the poset index of theta(s_i) u s_i
        self.images = tuple(
            tuple(self.element_index[conj[g][i]] for g in elems)
            for i in range(m - 1))
        labels = ["".join(str(v) for v in host.elements[g]) for g in elems]
        masks = lifted_down_sets([host.length[g] for g in elems],
                                 self.images)
        self.poset = from_comparability(labels, masks)
        ok, witness = verify_pircon(self.poset)
        if not ok:
            raise AssertionError(f"twisted poset is not a pircon: {witness}")

    # -- the pircon system ----------------------------------------------------

    @functools.cached_property
    def matchings(self) -> tuple[PartialMatching, ...]:
        """The distinct conjugation maps u -> theta(s_i) u s_i that are
        quasi SPMs of the whole poset, in order of the 0-based generator i
        (theta swaps it with 2n-2-i), built on first use and kept: the
        matchings of the system."""
        found = (PartialMatching(self.poset, dict(enumerate(images)))
                 for images in self.images)
        return tuple(dict.fromkeys(m for m in found if verify_qspm(m)[0]))

    def conjugation_refinement(self) -> Refinement:
        """``system_refinement`` on the conjugation quasi SPMs: at every
        non-minimal element, the conjugation matching of the smallest
        generator that takes it down."""
        return system_refinement(self.poset, self.matchings)

    @functools.cached_property
    def system(self) -> PirconSystem:
        """The conjugation quasi SPMs with the canonical conjugation
        refinement, built on first use and kept.  Its R^q-table holds the
        KLV R-polynomials and its R^(-1)-table the KLV Q-polynomials; any
        conjugation refinement gives the same tables because the poset is
        a dircon."""
        return PirconSystem(self.poset, self.matchings,
                            self.conjugation_refinement())

    def __repr__(self) -> str:
        return f"TwistedIdentities(n={self.n}, {self.poset.n} elements)"


KLV_R = X_Q
KLV_Q = X_MINUS_ONE
