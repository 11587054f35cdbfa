"""Special partial matchings and their structure theory.

A *special partial matching* (SPM) of a finite poset with maximum is an
involution M that matches the maximum downward, moves every element by at
most one cover, and satisfies the compatibility condition: x covered by y
and M(x) != y imply M(x) < M(y).  A *quasi* SPM drops the requirement on the
maximum and lives on any order ideal.

Matchings here are anchored: a :class:`PartialMatching` stores the ambient
:class:`~pircons.posets.GradedPoset` plus the subset of element indices it is
defined on.  Domains are always order ideals of the ambient poset (the whole
poset counts), so cover relations inside the domain are cover relations of
the ambient poset and no subposet bookkeeping is needed.

The orbit machinery implements the two-generator analysis: every orbit of
the group generated by two quasi SPMs is either *dihedral* (no fixed points,
shaped like a rank-n two-generator Bruhat interval) or *chain-like* (a chain
whose endpoints are fixed by one of the matchings), and is an interval of
the ambient order.  The number m(O) is the orbit's rank if dihedral and the
rank plus one if chain-like; divisibility of these numbers is what the
coherence conditions consume.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Sequence

from .posets import GradedPoset


class MatchingError(ValueError):
    """A matching failed validation it was required to pass."""


class OrbitClassificationError(ValueError):
    """An orbit is neither dihedral nor chain-like (invalid inputs)."""

    def __init__(self, orbit: Sequence[int], reason: str):
        self.orbit = tuple(orbit)
        self.reason = reason
        super().__init__(f"unclassifiable orbit {self.orbit}: {reason}")


class PartialMatching:
    """An involution on an order ideal of a graded poset."""

    __slots__ = ("poset", "domain", "mapping", "_hash", "_mask")

    def __init__(self, poset: GradedPoset, mapping: Mapping[int, int]):
        self.poset = poset
        self.mapping = {int(k): int(v) for k, v in mapping.items()}
        self.domain = tuple(sorted(self.mapping))
        self._hash = hash((id(poset), tuple(sorted(self.mapping.items()))))
        self._mask = None

    @classmethod
    def identity(cls, poset: GradedPoset,
                 domain: Iterable[int] | None = None) -> "PartialMatching":
        dom = range(poset.n) if domain is None else domain
        return cls(poset, {x: x for x in dom})

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    def is_defined(self, x: int) -> bool:
        return x in self.mapping

    def kind(self, x: int) -> str:
        """'up', 'down' or 'fixed', from the rank of the image."""
        y = self.mapping[x]
        if y == x:
            return "fixed"
        return "up" if self.poset.rank[y] > self.poset.rank[x] else "down"

    def fixed_points(self) -> list[int]:
        return [x for x in self.domain if self.mapping[x] == x]

    def domain_mask(self) -> int:
        """Bitmask of the domain, built on first use and kept."""
        if self._mask is None:
            m = 0
            for x in self.domain:
                m |= 1 << x
            self._mask = m
        return self._mask

    def restrict_to_ideal(self, z: int) -> "PartialMatching":
        """Restriction to P_{<=z}; valid when M(z) <= z (lifting property)."""
        if z not in self.mapping:
            raise MatchingError(f"element {z} outside the matching's domain")
        if not self.poset.leq(self.mapping[z], z):
            raise MatchingError(
                f"cannot restrict to the ideal of {z}: M(z) is above z")
        mapping = self.mapping
        return PartialMatching(
            self.poset, {x: mapping[x] for x in self.poset.ideal_elements(z)
                         if x in mapping})

    def __eq__(self, other) -> bool:
        if not isinstance(other, PartialMatching):
            return NotImplemented
        return self.poset is other.poset and self.mapping == other.mapping

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{self.poset.labels[x]}<->{self.poset.labels[y]}" if x < y
            else f"({self.poset.labels[x]})"
            for x, y in sorted(self.mapping.items())
            if x <= y)
        return f"PartialMatching[{pairs}]"

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        """Image index per ambient element; null outside the domain."""
        images: list[int | None] = [None] * self.poset.n
        for x, y in self.mapping.items():
            images[x] = y
        return {"poset": self.poset.to_json(), "map": images}

    @classmethod
    def from_json(cls, data: dict,
                  poset: GradedPoset | None = None) -> "PartialMatching":
        if poset is None:
            poset = GradedPoset.from_json(data["poset"])
        mapping = {x: y for x, y in enumerate(data["map"]) if y is not None}
        return cls(poset, mapping)


# ---------------------------------------------------------------------------
# Axiom verification.  Verifiers return (ok, witness); the witness names the
# first axiom violation found, for diagnostics and tests.
# ---------------------------------------------------------------------------

def involution_witness(m: PartialMatching):
    """(reason, index) of the first image that does not map back, or None."""
    for x, y in m.mapping.items():
        if y not in m.mapping:
            return ("image-outside-domain", x)
        if m.mapping[y] != x:
            return ("not-an-involution", x)
    return None

def _ideal_witness(m: PartialMatching):
    mask = m.domain_mask()
    for x in m.domain:
        if m.poset.down_set(x) & ~mask:
            return ("domain-not-an-ideal", x)
    return None

def _proximity_witness(m: PartialMatching):
    P = m.poset
    for x, y in m.mapping.items():
        if y != x and not (P.covers(x, y) or P.covers(y, x)):
            return ("moves-more-than-one-cover", x)
    return None

def _compatibility_witness(m: PartialMatching):
    P = m.poset
    mask = m.domain_mask()
    for x in m.domain:
        for y in P.up_covers[x]:
            if not mask >> y & 1:
                continue
            mx, my = m.mapping[x], m.mapping[y]
            if mx != y and not P.lt(mx, my):
                return ("compatibility", (x, y))
    return None


def verify_qspm(m: PartialMatching):
    """Check the quasi-SPM axioms (no condition on a maximum).

    Returns (True, None) or (False, witness).
    """
    for check in (involution_witness, _ideal_witness,
                  _proximity_witness, _compatibility_witness):
        w = check(m)
        if w is not None:
            return False, w
    return True, None


def verify_spm(m: PartialMatching):
    """Check the full SPM axioms: quasi-SPM plus top matched down."""
    ok, w = verify_qspm(m)
    if not ok:
        return ok, w
    if not m.domain:
        return False, ("empty-domain", None)
    tops = [x for x in m.domain
            if all(y not in m.mapping for y in m.poset.up_covers[x])]
    if len(tops) != 1:
        return False, ("no-unique-top", tuple(tops))
    top = tops[0]
    if not m.poset.covers(m.mapping[top], top):
        return False, ("top-not-matched-down", top)
    return True, None


def check_lifting(m: PartialMatching):
    """Verify the lifting property on all pairs x < y with M(y) <= y:
    (i) M(x) <= y, (ii) M(x) <= x implies M(x) < M(y), and
    (iii) M(x) >= x implies x <= M(y).
    """
    P = m.poset
    for y in m.domain:
        my = m.mapping[y]
        if not P.leq(my, y):
            continue
        for x in m.domain:
            if x == y or not P.lt(x, y):
                continue
            mx = m.mapping[x]
            if not P.leq(mx, y):
                return False, ("lifting-i", (x, y))
            if P.leq(mx, x) and not P.lt(mx, my):
                return False, ("lifting-ii", (x, y))
            if P.leq(x, mx) and not P.leq(x, my):
                return False, ("lifting-iii", (x, y))
    return True, None


# ---------------------------------------------------------------------------
# Enumeration of all SPMs of an order ideal, by top-down backtracking.
# The maximum is matched to a cocover first (forced), then elements are
# decided in decreasing rank order, each either matched down to a free
# cocover or left fixed; the compatibility axiom prunes as soon as both
# endpoints of a cover pair are decided.
# ---------------------------------------------------------------------------

def enumerate_spms(poset: GradedPoset, w: int | None = None,
                   find_one: bool = False) -> list[PartialMatching]:
    """All SPMs of the lower ideal of w (default: of the whole poset), in
    lexicographic order of the map as a function of element index.  A
    one-element ideal has no SPM.  The search builds only SPMs, so none is
    checked again.
    """
    if w is None:
        if poset.top is None:
            raise MatchingError("poset has no maximum; pass an element")
        w = poset.top
    elems = sorted(poset.ideal_elements(w),
                   key=lambda x: (-poset.rank[x], x))
    if len(elems) <= 1:
        return []
    in_ideal = set(elems)
    assign: dict[int, int] = {}
    results: list[dict[int, int]] = []

    def consistent(x: int) -> bool:
        # Compatibility constraints on cover pairs involving x, both decided.
        mx = assign[x]
        for y in poset.up_covers[x]:
            if y in assign and mx != y and not poset.lt(mx, assign[y]):
                return False
        for a in poset.down_covers[x]:
            if a in assign and assign[a] != x and not poset.lt(assign[a], mx):
                return False
        return True

    def extend(i: int) -> bool:
        if i == len(elems):
            results.append(dict(assign))
            return find_one
        x = elems[i]
        if x in assign:
            return extend(i + 1)
        # Candidate down-partners, then (except for the top) a fixed point.
        for y in poset.down_covers[x]:
            if y in in_ideal and y not in assign:
                assign[x] = y
                assign[y] = x
                if consistent(x) and consistent(y) and extend(i + 1):
                    return True
                del assign[x]
                del assign[y]
        if x != w:
            assign[x] = x
            if consistent(x) and extend(i + 1):
                return True
            del assign[x]
        return False

    extend(0)
    return [PartialMatching(poset, mapping) for mapping in
            sorted(results, key=lambda m: tuple(m[x] for x in sorted(m)))]


def has_spm(poset: GradedPoset, w: int) -> bool:
    return bool(enumerate_spms(poset, w, find_one=True))


def verify_pircon(poset: GradedPoset):
    """Every non-minimal element's lower ideal admits at least one SPM."""
    for x in range(poset.n):
        if x == poset.bottom:
            continue
        if not has_spm(poset, x):
            return False, ("no-spm", x)
    return True, None


# ---------------------------------------------------------------------------
# Left multiplication partial matchings of a parabolic quotient.
# ---------------------------------------------------------------------------

def lambda_partial(quot, s: int) -> PartialMatching:
    """The matching u -> su restricted to W^H: u maps to su when su stays in
    the quotient and is fixed otherwise.  A quasi SPM of the whole quotient
    poset; it validates itself and raises on failure, which would signal a
    construction bug."""
    out = PartialMatching(quot.poset, dict(enumerate(quot.images[s])))
    ok, witness = verify_qspm(out)
    if not ok:
        raise MatchingError(
            f"lambda matching for s{s + 1} failed validation: {witness}")
    return out


def lambda_system(quot) -> list[PartialMatching]:
    """The distinct whole-poset matchings lambda_partial(quot, s), in order
    of s: the pircon system of a parabolic quotient."""
    return list(dict.fromkeys(lambda_partial(quot, s)
                              for s in range(quot.system.num_gens)))


# ---------------------------------------------------------------------------
# Orbits of a pair of matchings, their classification, and coherence.
# ---------------------------------------------------------------------------

class OrbitReport(NamedTuple):
    orbit: tuple[int, ...]
    shape: str            # "dihedral" | "chain_like"
    m_value: int


def _orbit_of(M: PartialMatching, N: PartialMatching, u: int) -> list[int]:
    seen = {u}
    stack = [u]
    while stack:
        v = stack.pop()
        for f in (M, N):
            if not f.is_defined(v):
                raise MatchingError(
                    f"orbit of {u} leaves a matching's domain at {v}")
            img = f(v)
            if img not in seen:
                seen.add(img)
                stack.append(img)
    return sorted(seen)


def orbit_analysis(M: PartialMatching, N: PartialMatching,
                   u: int) -> OrbitReport:
    """Classify the orbit of u under the group generated by M and N.

    Raises OrbitClassificationError when the orbit is not an interval or
    matches neither shape; that contradicts the two-matching orbit lemma, so
    it signals invalid inputs rather than a legal outcome.
    """
    P = M.poset
    orbit = _orbit_of(M, N, u)
    ranks = [P.rank[v] for v in orbit]
    lo = [v for v in orbit if P.rank[v] == min(ranks)]
    hi = [v for v in orbit if P.rank[v] == max(ranks)]
    if len(lo) != 1 or len(hi) != 1:
        raise OrbitClassificationError(orbit, "no unique bottom or top")
    bot, top = lo[0], hi[0]
    if P.elements_of(P.interval_mask(bot, top)) != orbit:
        raise OrbitClassificationError(orbit, "orbit is not an interval")

    has_fixed = any(M(v) == v or N(v) == v for v in orbit)
    if has_fixed:
        for i, a in enumerate(orbit):
            for b in orbit[i + 1:]:
                if not (P.leq(a, b) or P.leq(b, a)):
                    raise OrbitClassificationError(
                        orbit, "fixed points on a non-chain orbit")
        if not (M(bot) == bot or N(bot) == bot):
            raise OrbitClassificationError(orbit, "bottom not fixed")
        if not (M(top) == top or N(top) == top):
            raise OrbitClassificationError(orbit, "top not fixed")
        return OrbitReport(tuple(orbit), "chain_like",
                           P.rank_gap(bot, top) + 1)

    if not P.is_dihedral_interval(bot, top):
        raise OrbitClassificationError(orbit, "not a dihedral interval")
    return OrbitReport(tuple(orbit), "dihedral", P.rank_gap(bot, top))


def orbit_partition(M: PartialMatching, N: PartialMatching,
                    domain: Iterable[int]) -> list[OrbitReport]:
    """Orbit reports covering the given domain, in order of first element."""
    left = sorted(set(domain))
    done: set[int] = set()
    out = []
    for u in left:
        if u in done:
            continue
        rep = orbit_analysis(M, N, u)
        done.update(rep.orbit)
        out.append(rep)
    return out


def _restrict_for(m: PartialMatching, w: int) -> PartialMatching:
    if m.domain_mask() == m.poset.down_set(w):
        return m
    return m.restrict_to_ideal(w)


def strictly_coherent(M: PartialMatching, N: PartialMatching, w: int) -> bool:
    """m(O) divides m of the orbit of w, for every orbit O on P_{<=w}."""
    Mr = _restrict_for(M, w)
    Nr = _restrict_for(N, w)
    top_m = orbit_analysis(Mr, Nr, w).m_value
    for rep in orbit_partition(Mr, Nr, Mr.domain):
        if top_m % rep.m_value:
            return False
    return True


class PairOrbits:
    """The orbits of the group generated by two quasi SPMs M and N of order
    ideals, each classified by ``orbit_analysis`` once, when a verdict first
    asks about an ideal that holds it, and kept.

    ``strictly_coherent(w)`` is ``strictly_coherent(M, N, w)`` for every w
    that both M and N take to an element it covers.  Then P_{<=w} is closed
    under M and under N (the lemma in ``klpoly.system_refinement``), so
    every orbit that meets P_{<=w} lies inside it, and these are exactly
    the orbits of the two restrictions, with the same classification.  An
    orbit is analysed in the order ``strictly_coherent`` analyses it (the
    orbit of w, then by least element), so an unclassifiable orbit raises
    the same error.
    """

    __slots__ = ("M", "N", "_m", "_by_m", "_done")

    def __init__(self, M: PartialMatching, N: PartialMatching):
        self.M, self.N = M, N
        self._m: dict[int, int] = {}       # element -> m of its orbit
        self._by_m: dict[int, int] = {}    # m(O) -> mask of those orbits
        self._done = 0                     # mask of the classified elements

    def strictly_coherent(self, w: int) -> bool:
        ideal = self.M.poset.down_set(w)
        missing = ideal & ~self._done
        if missing:
            for u in (w, *GradedPoset.elements_of(missing)):
                if not self._done >> u & 1:
                    self._add(orbit_analysis(self.M, self.N, u))
        top_m = self._m[w]
        return not any(top_m % m and mask & ideal
                       for m, mask in self._by_m.items())

    def _add(self, rep: OrbitReport) -> None:
        mask = 0
        for v in rep.orbit:
            self._m[v] = rep.m_value
            mask |= 1 << v
        self._done |= mask
        self._by_m[rep.m_value] = self._by_m.get(rep.m_value, 0) | mask


def _coherence_component(pool: Sequence[PartialMatching], w: int,
                         start: int, stop: int | None = None) -> set[int]:
    """Indices reachable from pool[start] in the strict-coherence graph on
    P_{<=w}.  The search returns as soon as it reaches ``stop``."""
    seen = {start}
    stack = [start]
    while stack:
        i = stack.pop()
        if i == stop:
            break
        for j in range(len(pool)):
            if j not in seen and strictly_coherent(pool[i], pool[j], w):
                seen.add(j)
                stack.append(j)
    return seen


def coherent(M: PartialMatching, N: PartialMatching, w: int,
             pool: Sequence[PartialMatching]) -> bool:
    """Connectivity of M and N in the strict-coherence graph on the pool."""
    if M == N:
        return True
    try:
        i0 = pool.index(M)
        i1 = pool.index(N)
    except ValueError as exc:
        raise MatchingError("coherent() needs M and N in the pool") from exc
    return i1 in _coherence_component(pool, w, i0, i1)


def is_dircon(poset: GradedPoset) -> bool:
    """Every pair of SPMs of every element is coherent."""
    for w in range(poset.n):
        if w == poset.bottom:
            continue
        pool = enumerate_spms(poset, w)
        # All pairs coherent == the strict-coherence graph is connected.
        if not pool or len(_coherence_component(pool, w, 0)) != len(pool):
            return False
    return True
