"""Twisted identities of S_(2n) and their Kazhdan-Lusztig-Vogan tables.

Let theta be the diagram flip of the symmetric group S_(2n), sending the
adjacent transposition s_i to s_(2n-i); concretely theta(w) = w0 w w0 for
the longest element w0.  The *twisted identities* are the set

    {theta(w^(-1)) w : w in S_(2n)},

of size (2n-1)!!, ordered by the restriction of Bruhat order.  Covers are
recomputed inside the subset (a cover here may span a Bruhat-length gap of
2), and the rank function is the one induced by the graded structure, which
is validated at build time together with pircon-hood.

The conjugation maps u -> theta(s_i) u s_i preserve the set; those that are
quasi SPMs of the whole poset generate the Hecke-module structure, and per
lower interval they provide the SPMs that drive the R-recursion.  The
resulting R^q- and R^(-1)-tables are the Kazhdan-Lusztig-Vogan R- and
Q-polynomials of the corresponding symmetric pair.
"""

from __future__ import annotations

from .coxeter import CoxeterSystem
from .hecke import HeckeContext
from .klpoly import PolyTable, Refinement, X_MINUS_ONE, X_Q, check_x, \
    r_polynomials
from .matchings import (MatchingError, PartialMatching, verify_pircon,
                        verify_qspm, verify_spm)
from .posets import from_comparability


def _double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


class TwistedIdentities:
    """The twisted-identity pircon of S_(2n)."""

    def __init__(self, n: int, check_pircon: bool = True):
        if n < 1:
            raise ValueError("need n >= 1")
        self.n = n
        m = 2 * n
        self.host = CoxeterSystem({"type": "A", "rank": m - 1})
        host = self.host

        def theta_perm(perm):
            return tuple(m + 1 - perm[m - 1 - i] for i in range(m))

        self._theta_gen = {k: m - 2 - k for k in range(m - 1)}

        members = set()
        for w in range(host.size):
            inv = host.inverse(w)
            tw = host.index[theta_perm(host.elements[inv])]
            members.add(host.product(tw, w))
        expected = _double_factorial(2 * n - 1)
        if len(members) != expected:
            raise AssertionError(
                f"twisted identity count {len(members)} != {expected}")

        elems = sorted(members,
                       key=lambda g: (host.length[g], host.elements[g]))
        self.elements = tuple(elems)
        self.element_index = {g: i for i, g in enumerate(elems)}
        labels = ["".join(str(v) for v in host.elements[g]) for g in elems]
        masks = []
        for g in elems:
            mask = 0
            for j, h in enumerate(elems):
                if host.bruhat_leq(h, g):
                    mask |= 1 << j
            masks.append(mask)
        self.poset = from_comparability(labels, masks)
        if check_pircon:
            ok, witness = verify_pircon(self.poset)
            if not ok:
                raise AssertionError(f"twisted poset is not a pircon: {witness}")

    # -- conjugation matchings ---------------------------------------------

    def conjugation_images(self, i: int) -> dict[int, int]:
        """u -> theta(s_i) u s_i on the whole set, as poset indices.

        The generator index i is 0-based; theta swaps it with 2n-2-i.
        """
        host = self.host
        ti = self._theta_gen[i]
        return {idx: self.element_index[host.left[host.right[g][i]][ti]]
                for idx, g in enumerate(self.elements)}

    def conjugation_qspm(self, i: int) -> PartialMatching | None:
        """The conjugation map as a quasi SPM of the whole poset, or None
        when it violates the axioms."""
        m = PartialMatching(self.poset, self.conjugation_images(i))
        ok, _ = verify_qspm(m)
        return m if ok else None

    def conjugation_qspms(self) -> list[PartialMatching]:
        """The distinct conjugation quasi SPMs of the whole poset, in order
        of the generator: the pircon system of the twisted identities."""
        found = (self.conjugation_qspm(i) for i in range(self.host.num_gens))
        return list(dict.fromkeys(m for m in found if m is not None))

    def conjugation_matching(self, i: int, w: int) -> PartialMatching | None:
        """The conjugation map restricted to the lower interval of w, or
        None when it is not an SPM there (callers then pick another i)."""
        return self._ideal_matching(self.conjugation_images(i), w)

    def _ideal_matching(self, images: dict[int, int],
                        w: int) -> PartialMatching | None:
        ideal = self.poset.down_set(w)
        mapping = {u: images[u] for u in self.poset.ideal_elements(w)}
        if any(not ideal >> v & 1 for v in mapping.values()):
            return None
        m = PartialMatching(self.poset, mapping)
        ok, _ = verify_spm(m)
        return m if ok else None

    def conjugation_refinement(self, pick=min) -> Refinement:
        """One valid conjugation matching per non-minimal element."""
        images = [self.conjugation_images(i)
                  for i in range(self.host.num_gens)]
        matchings = {}
        for w in range(self.poset.n):
            if w == self.poset.bottom:
                continue
            cands = {}
            for i, image in enumerate(images):
                got = self._ideal_matching(image, w)
                if got is not None:
                    cands[i] = got
            if not cands:
                raise MatchingError(
                    f"no conjugation matching at {self.poset.labels[w]}")
            matchings[w] = cands[pick(cands)]
        return Refinement(self.poset, matchings)

    def klv_polynomials(self, x: str) -> PolyTable:
        """The R^q-table (KLV R-polynomials) or R^(-1)-table (KLV
        Q-polynomials); any conjugation refinement gives the same family
        because the poset is a dircon."""
        check_x(x)
        return r_polynomials(self.poset, self.conjugation_refinement(), x)

    def hecke_context(self) -> HeckeContext:
        """Hecke module over the conjugation quasi SPMs of the whole poset."""
        return HeckeContext(self.poset, self.conjugation_qspms())

    def __repr__(self) -> str:
        return f"TwistedIdentities(n={self.n}, {self.poset.n} elements)"


def build_twisted(n: int) -> TwistedIdentities:
    return TwistedIdentities(n)


KLV_R = X_Q
KLV_Q = X_MINUS_ONE
