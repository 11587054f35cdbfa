"""R- and P-polynomials of refined pircons.

A *refinement* picks one SPM M_w for every non-minimal element w; the
R-polynomial family {R^x_{u,w}} in Z[q] for x in {q, -1} is then defined by
R^x_{u,w} = 0 unless u <= w, R^x_{w,w} = 1, and the three-case recursion
driven by M_w:

    R^x_{u,w} = R^x_{M(u),M(w)}                        if M(u) is below u,
    R^x_{u,w} = (q-1) R^x_{u,M(w)} + q R^x_{M(u),M(w)} if M(u) is above u,
    R^x_{u,w} = (q-1-x) R^x_{u,M(w)}                   if M(u) = u,

with M = M_w.  The parameter x is a two-valued enum and q-1-x is
materialized as a concrete polynomial: q for x = -1 and the constant -1 for
x = q.

The same module hosts the incidence-algebra side: a family is a P-kernel
exactly when sum_z R_{u,z} q^(rho(z,v)) R_{z,v}(1/q) vanishes for u < v,
and kernel inversion produces the unique unitary family P with
deg P_{u,v} < rho(u,v)/2 and
sum_z R_{u,z} P_{z,v} = q^(rho(u,v)) P_{u,v}(1/q).  The inversion asserts
full consistency of the high part against the low part instead of trusting
the truncation, which turns uniqueness into an executable error check.

Both interval sums run on packed values: every polynomial is evaluated at
q = 2^B (Kronecker substitution), so a polynomial product is one int
multiply and an interval sum is a sum of int products; balanced base-2^B
digits recover the coefficients.  Packing is injective only on polynomials
whose coefficients lie inside (-2^(B-1), 2^(B-1)).  The width B is therefore
derived from the table (interval sizes, L1 norms and coefficient sizes),
each sum asserts its coefficient bound against B before its value is used,
and a bound that does not fit restarts the computation at a wider B.

Tables store a polynomial for every comparable pair, zeros included;
absence of a key means the pair is incomparable.
"""

from __future__ import annotations

import csv
import io
from operator import mul
from typing import Callable, Iterable, Mapping, Sequence

from .laurent import HalfLaurent, QPoly
from .matchings import (PartialMatching, coherent, enumerate_spms,
                        lambda_partial, strictly_coherent, verify_qspm,
                        verify_spm)
from .posets import GradedPoset

X_MINUS_ONE = "-1"
X_Q = "q"
X_PARAMS = (X_MINUS_ONE, X_Q)

_Q = QPoly((0, 1))
_ONE = QPoly((1,))


class KernelError(ValueError):
    """The given family is not a genuine P-kernel."""


def check_x(x: str) -> str:
    if x not in X_PARAMS:
        raise ValueError(f"x must be one of {X_PARAMS}, got {x!r}")
    return x


def other_x(x: str) -> str:
    return X_Q if check_x(x) == X_MINUS_ONE else X_MINUS_ONE


def q_minus_one_minus_x(x: str) -> QPoly:
    """q-1-x as a polynomial: q when x = -1, the constant -1 when x = q."""
    return _Q if check_x(x) == X_MINUS_ONE else QPoly((-1,))


def x_scalar(x: str) -> HalfLaurent:
    """The parameter itself as a module scalar."""
    if check_x(x) == X_Q:
        return HalfLaurent.q_power(1)
    return HalfLaurent.from_int(-1)


# ---------------------------------------------------------------------------
# Refinements.
# ---------------------------------------------------------------------------

class Refinement:
    """One SPM of the lower ideal of every non-minimal element."""

    def __init__(self, poset: GradedPoset,
                 matchings: Mapping[int, PartialMatching]):
        self.poset = poset
        self.matchings = dict(matchings)
        for w in range(poset.n):
            if w == poset.bottom:
                continue
            m = self.matchings.get(w)
            if m is None:
                raise ValueError(f"refinement misses element {w}")
            if m.domain_mask() != poset.down_set(w):
                raise ValueError(
                    f"matching at {w} is not defined on its lower ideal")
            ok, witness = verify_spm(m)
            if not ok:
                raise ValueError(f"matching at {w} is not an SPM: {witness}")

    def __getitem__(self, w: int) -> PartialMatching:
        return self.matchings[w]

    def __eq__(self, other):
        if not isinstance(other, Refinement):
            return NotImplemented
        return self.poset is other.poset and self.matchings == other.matchings

    def to_json(self) -> dict:
        return {lab: self.matchings[w].to_json()["map"]
                for w, lab in enumerate(self.poset.labels)
                if w in self.matchings}

    @classmethod
    def from_json(cls, poset: GradedPoset, data: Mapping) -> "Refinement":
        matchings = {}
        for lab, images in data.items():
            w = poset.index(lab)
            matchings[w] = PartialMatching(
                poset, {x: y for x, y in enumerate(images) if y is not None})
        return cls(poset, matchings)


def lambda_refinement(quot, pick=min) -> Refinement:
    """Refinement of a parabolic quotient by left multiplication matchings.

    ``pick`` selects among the generators s whose matching takes w down;
    the default takes the smallest, giving the canonical refinement.
    """
    poset = quot.poset
    system = quot.system

    def choose(w: int) -> PartialMatching:
        cands = []
        for s in range(system.num_gens):
            sw = system.left[quot.reps[w]][s]
            if sw in quot.rep_index and \
                    system.length[sw] < system.length[quot.reps[w]]:
                cands.append(s)
        if not cands:
            raise ValueError(f"no descent inside the quotient at {w}")
        return lambda_partial(quot, pick(cands), w)

    return Refinement(poset, {w: choose(w) for w in range(poset.n)
                              if w != poset.bottom})


def all_refinements(poset: GradedPoset) -> Iterable[Refinement]:
    """All refinements, the product of SPM choices per element.

    Exponential in general; meant for small posets in tests and diagnostics.
    """
    nonmin = [w for w in range(poset.n) if w != poset.bottom]
    pools = {w: enumerate_spms(poset, w) for w in nonmin}

    def rec(i: int, acc: dict):
        if i == len(nonmin):
            yield Refinement(poset, dict(acc))
            return
        w = nonmin[i]
        for m in pools[w]:
            acc[w] = m
            yield from rec(i + 1, acc)
        acc.pop(w, None)

    yield from rec(0, {})


# ---------------------------------------------------------------------------
# Polynomial tables.
# ---------------------------------------------------------------------------

class PolyTable:
    """Triangular table of polynomials over the comparable pairs of a poset."""

    def __init__(self, poset: GradedPoset, x: str,
                 entries: Mapping[tuple[int, int], QPoly]):
        self.poset = poset
        self.x = check_x(x)
        self.entries = dict(entries)

    def value(self, u: int, w: int) -> QPoly:
        got = self.entries.get((u, w))
        if got is not None:
            return got
        if not self.poset.leq(u, w):
            return QPoly.zero()
        raise KeyError(f"table has no entry for comparable pair ({u},{w})")

    def __eq__(self, other):
        if not isinstance(other, PolyTable):
            return NotImplemented
        return (self.poset is other.poset and self.x == other.x
                and self.entries == other.entries)

    def pairs(self):
        return sorted(self.entries)

    def to_json(self) -> dict:
        labs = self.poset.labels
        return {"poset": self.poset.to_json(), "x": self.x,
                "entries": [[labs[u], labs[w], self.entries[(u, w)].to_json()]
                            for u, w in self.pairs()]}

    @classmethod
    def from_json(cls, data: dict,
                  poset: GradedPoset | None = None) -> "PolyTable":
        if poset is None:
            poset = GradedPoset.from_json(data["poset"])
        entries = {}
        for u_lab, w_lab, coeffs in data["entries"]:
            entries[(poset.index(u_lab), poset.index(w_lab))] = \
                QPoly.from_json(coeffs)
        return cls(poset, data["x"], entries)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["u", "w", "coefficients"])
        labs = self.poset.labels
        for u, w in self.pairs():
            writer.writerow([labs[u], labs[w],
                             " ".join(map(str, self.entries[(u, w)].coeffs()))])
        return buf.getvalue()


# ---------------------------------------------------------------------------
# The R-polynomial recursion and the calculating-matching checks.
# ---------------------------------------------------------------------------

def _rhs_by_cases(M: PartialMatching, table: "PolyTable",
                  u: int, w: int, factor: QPoly) -> QPoly:
    """Right-hand side of the recursion at (u, w) driven by M; M(w) < w."""
    mu, mw = M(u), M(w)
    kind = M.kind(u)
    if kind == "down":
        return table.value(mu, mw)
    if kind == "up":
        return (_Q - _ONE) * table.value(u, mw) + _Q * table.value(mu, mw)
    return factor * table.value(u, mw)


def r_polynomials(poset: GradedPoset, refinement: Refinement,
                  x: str) -> PolyTable:
    """The unique R^x family of the refined pircon (P, refinement)."""
    check_x(x)
    factor = q_minus_one_minus_x(x)
    table = PolyTable(poset, x, {})
    order = sorted(range(poset.n), key=lambda w: poset.rank[w])
    for w in order:
        table.entries[(w, w)] = _ONE
        if w == poset.bottom:
            continue
        M = refinement[w]
        for u in poset.ideal_elements(w):
            if u == w:
                continue
            table.entries[(u, w)] = _rhs_by_cases(M, table, u, w, factor)
    return table


def is_calculating(M: PartialMatching, table: PolyTable, w: int):
    """Does the recursion hold at w when driven by M instead of M_w?

    Requires M(w) covered by w.  Checks every u < w and returns
    (True, None) or (False, ("not-calculating", (u, w))).
    """
    poset = table.poset
    if not poset.covers(M(w), w):
        raise ValueError("is_calculating needs a matching with M(w) < w")
    factor = q_minus_one_minus_x(table.x)
    for u in poset.ideal_elements(w):
        if u == w:
            continue
        if table.value(u, w) != _rhs_by_cases(M, table, u, w, factor):
            return False, ("not-calculating", (u, w))
    return True, None


def is_strongly_calculating(M: PartialMatching, table: PolyTable):
    """is_calculating at every z in the domain with M(z) covered by z."""
    poset = table.poset
    for z in M.domain:
        if poset.covers(M(z), z):
            ok, witness = is_calculating(M.restrict_to_ideal(z), table, z)
            if not ok:
                return ok, witness
    return True, None


# ---------------------------------------------------------------------------
# Up-down symmetry, the kernel condition and kernel inversion.
# ---------------------------------------------------------------------------

def check_updown(matchings: Sequence[PartialMatching], table: PolyTable):
    """The flipped recursion, clauses (a'), (b'), (c'), on every matching.

    For all M and all pairs u, w in M's domain with M(u) above u:
      (a') M(w) above w:  R_{u,w} = R_{M(u),M(w)}
      (b') M(w) below w:  R_{u,w} = (q-1) R_{M(u),w} + q R_{M(u),M(w)}
      (c') M(w) fixed:    R_{u,w} = (q-1-x) R_{M(u),w}
    Clause (c') is the substance; (a') and (b') follow from the recursion
    for strongly calculating matchings but are cheap to verify outright.
    """
    factor = q_minus_one_minus_x(table.x)
    for mi, M in enumerate(matchings):
        ups = [u for u in M.domain if M.kind(u) == "up"]
        for w in M.domain:
            kw = M.kind(w)
            mw = M(w)
            for u in ups:
                lhs = table.value(u, w)
                if kw == "up":
                    rhs = table.value(M(u), mw)
                elif kw == "down":
                    rhs = (_Q - _ONE) * table.value(M(u), w) \
                        + _Q * table.value(M(u), mw)
                else:
                    rhs = factor * table.value(M(u), w)
                if lhs != rhs:
                    clause = {"up": "a'", "down": "b'", "fixed": "c'"}[kw]
                    return False, ("updown-" + clause, (mi, u, w))
    return True, None


# ---------------------------------------------------------------------------
# Packed evaluation at q = 2^B (see the module docstring).
# ---------------------------------------------------------------------------

class _TooNarrow(Exception):
    """A coefficient bound, the only argument, does not fit the width."""


def _width_for(bound: int) -> int:
    """The least B >= 2 with bound < 2^(B-1)."""
    return max(bound, 1).bit_length() + 1


def _with_widening(run: Callable[[int], object], width: int):
    """run(width), restarted wider for as long as it raises _TooNarrow."""
    while True:
        try:
            return run(width)
        except _TooNarrow as exc:
            width = max(_width_for(exc.args[0]), 2 * width)


def _pack(coeffs: Sequence[int], width: int) -> int:
    """sum_k coeffs[k] 2^(width k)."""
    value = 0
    for c in reversed(coeffs):
        value = (value << width) + c
    return value


def _pack_tilde(coeffs: Sequence[int], n: int, width: int) -> int:
    """q^n p(1/q) packed, for p with the given coefficients and deg p <= n."""
    return _pack(coeffs[::-1], width) << width * (n + 1 - len(coeffs))


def _norms(table: PolyTable) -> tuple[int, int, int]:
    """Max L1 norm and max |coefficient| over the entries, and the most
    terms an interval sum can have (the largest lower ideal)."""
    l1 = top = 0
    for poly in table.entries.values():
        coeffs = [abs(c) for c in poly.coeffs()]
        if coeffs:
            l1 = max(l1, sum(coeffs))
            top = max(top, max(coeffs))
    poset = table.poset
    terms = max((poset.down_set(v).bit_count() for v in range(poset.n)),
                default=0)
    return l1, top, terms


def _packed_rows(table: PolyTable, width: int) -> list[dict[int, int]]:
    """R_{u,z}(2^width) for every comparable pair, one dict per row u."""
    poset, value = table.poset, table.value
    return [{z: _pack(value(u, z).coeffs(), width)
             for z in poset.elements_of(poset.up_set(u))}
            for u in range(poset.n)]


def check_pkernel(table: PolyTable, _width: int | None = None):
    """sum_z R_{u,z} q^(rho(z,v)) R_{z,v}(1/q) = delta_{u,v}, exactly.

    Each R_{u,z} is packed once at q = 2^B, and so is each
    R~_{z,v} = q^(rho(z,v) + s) R_{z,v}(1/q), where s >= 0 is the largest
    excess of a degree over its rank gap (0 for a genuine R-table) so that
    no power is negative.  The sum over [u, v] is then a sum of int
    products, compared with the packed q^s or 0.  B is derived from the
    table, and each pair asserts that its coefficients are at most
    #terms * max L1(R) * max |coeff(R)| < 2^(B-1) before comparing.
    ``_width`` overrides the starting width, for tests of the widening.
    """
    poset = table.poset
    l1, top, terms = _norms(table)
    shift = max([0] + [p.degree() - poset.rank_gap(u, w)
                       for (u, w), p in table.entries.items() if p])

    def run(width: int):
        half = 1 << (width - 1)
        one = 1 << (width * shift)
        rows = _packed_rows(table, width)
        for v in range(poset.n):
            ideal = poset.ideal_elements(v)
            col = {z: _pack_tilde(table.value(z, v).coeffs(),
                                  poset.rank_gap(z, v) + shift, width)
                   for z in ideal}
            for u in ideal:
                zs = poset.elements_of(poset.interval_mask(u, v))
                bound = len(zs) * l1 * top
                if bound >= half:
                    raise _TooNarrow(bound)
                total = sum(map(mul, map(rows[u].__getitem__, zs),
                                map(col.__getitem__, zs)))
                if total != (one if u == v else 0):
                    return False, ("kernel", (u, v))
        return True, None

    return _with_widening(run, _width or _width_for(terms * l1 * top))


def kls_polynomials(table: PolyTable, _width: int | None = None) -> PolyTable:
    """Kernel inversion: the unique unitary family below half degree.

    For each pair u < v set G = sum_{u < z <= v} R_{u,z} P_{z,v}; the low
    part of G (degrees below rho(u,v)/2) determines P_{u,v} = -low(G), and
    the whole of G must then equal tilde(P) - P.  A failure of that identity
    means the input was not a P-kernel and raises KernelError.

    G is computed packed: each R_{u,z} is evaluated once at q = 2^B, each
    column P_{.,v} as it is produced, and G(2^B) is a sum of int products.
    Balanced base-2^B digits of G(2^B) give low(G), and the identity is
    checked on packed values.  Both are exact while every coefficient of G
    stays below 2^(B-1), so each pair first asserts
    #terms * max L1(R) * (running max |coeff| of P_{.,v}) < 2^(B-1).  B
    starts from the table's own bound with max |coeff(R)| in place of the
    P factor; a pair whose bound does not fit restarts the inversion at a
    wider B.  ``_width`` overrides the starting width, for tests.
    """
    poset = table.poset
    rank = poset.rank
    l1, top, terms = _norms(table)

    def run(width: int) -> PolyTable:
        half = 1 << (width - 1)
        digit = (1 << width) - 1
        rows = _packed_rows(table, width)
        out = PolyTable(poset, table.x, {})
        for v in range(poset.n):
            out.entries[(v, v)] = _ONE
            col = {v: 1}
            pmax = 1
            below = sorted((u for u in poset.ideal_elements(v) if u != v),
                           key=lambda u: -rank[u])
            for u in below:
                gap = rank[v] - rank[u]
                zs = poset.elements_of(
                    poset.interval_mask(u, v) & ~(1 << u))
                bound = len(zs) * l1 * pmax
                if bound >= half:
                    raise _TooNarrow(bound)
                G = sum(map(mul, map(rows[u].__getitem__, zs),
                            map(col.__getitem__, zs)))
                low = []
                rest = G
                for _ in range((gap + 1) // 2):
                    d = rest & digit
                    if d >= half:
                        d -= digit + 1
                    low.append(-d)
                    rest = (rest - d) >> width
                P = QPoly(low)
                coeffs = P.coeffs()
                packed = _pack(coeffs, width)
                if G != _pack_tilde(coeffs, gap, width) - packed:
                    raise KernelError(
                        f"not a P-kernel at pair ({poset.labels[u]!r}, "
                        f"{poset.labels[v]!r})")
                col[u] = packed
                if coeffs:
                    pmax = max(pmax, max(map(abs, coeffs)))
                out.entries[(u, v)] = P
        return out

    return _with_widening(run, _width or _width_for(terms * l1 * top))


def verify_r_properties(r_minus: PolyTable, r_q: PolyTable):
    """The three structural properties of the two R-families:
    (1) deg R^{-1}_{u,w} = rho(u,w);
    (2) R^q_{u,w}(0) = (-1)^rho(u,w);
    (3) R^q_{u,w}(q) = (-q)^rho(u,w) R^{-1}_{u,w}(1/q).
    """
    if r_minus.x != X_MINUS_ONE or r_q.x != X_Q:
        raise ValueError("pass the x=-1 table first and the x=q table second")
    poset = r_minus.poset
    for u, w in r_minus.pairs():
        gap = poset.rank_gap(u, w)
        if r_minus.entries[(u, w)].degree() != gap:
            return False, ("degree", (u, w))
        if r_q.value(u, w).eval_at_zero() != (-1) ** gap:
            return False, ("constant-term", (u, w))
        lhs = r_q.value(u, w).to_half_laurent()
        rhs = HalfLaurent({2 * gap: (-1) ** gap}) \
            * r_minus.entries[(u, w)].bar_half()
        if lhs != rhs:
            return False, ("x-z-transform", (u, w))
    return True, None


def brenti_identity(quot, table: PolyTable):
    """R_{u,w} = (q-1-x) R_{su,w} whenever u < su stays in the quotient and
    w < sw leaves it; scanned exhaustively over qualifying (s, u, w).
    """
    system = quot.system
    factor = q_minus_one_minus_x(table.x)
    n = quot.n
    for s in range(system.num_gens):
        ups = []      # u with su in W^H covering u
        fixed = []    # w with sw above w but outside W^H
        for i in range(n):
            g = quot.reps[i]
            sg = system.left[g][s]
            if system.length[sg] > system.length[g]:
                if sg in quot.rep_index:
                    ups.append((i, quot.rep_index[sg]))
                else:
                    fixed.append(i)
        for u, su in ups:
            for w in fixed:
                if table.value(u, w) != factor * table.value(su, w):
                    return False, ("brenti", (s, u, w))
    return True, None


# ---------------------------------------------------------------------------
# Pircon systems.
# ---------------------------------------------------------------------------

class PirconSystem:
    """A pircon with a compatible family of quasi SPMs of order ideals."""

    def __init__(self, poset: GradedPoset,
                 matchings: Sequence[PartialMatching]):
        self.poset = poset
        self.matchings = tuple(dict.fromkeys(matchings))
        ok, witness = verify_pircon_system(poset, self.matchings)
        if not ok:
            raise ValueError(f"not a pircon system: {witness}")

    def down_matchings(self, w: int) -> list[PartialMatching]:
        return [M for M in self.matchings
                if M.is_defined(w) and self.poset.covers(M(w), w)]


def verify_pircon_system(poset: GradedPoset,
                         matchings: Sequence[PartialMatching],
                         pool_fn=None):
    """The four conditions for (P, S) to be a pircon system:
    (1) P is a pircon, (2) S consists of quasi SPMs of order ideals,
    (3) every non-minimal w has some M in S with M(w) covered by w, and
    (4) any two such M, N restrict to coherent SPMs of P_{<=w}.

    Condition (1) follows from (3): the restriction of a down-matching is an
    SPM of the ideal, which is verified here pair by pair.  Coherence is
    checked strictly first; only when that fails is the full SPM pool of w
    enumerated (or taken from ``pool_fn``) to search for a connecting chain.
    """
    for mi, M in enumerate(matchings):
        ok, witness = verify_qspm(M)
        if not ok:
            return False, ("matching", (mi, witness))

    for w in range(poset.n):
        if w == poset.bottom:
            continue
        down = [M for M in matchings
                if M.is_defined(w) and poset.covers(M(w), w)]
        if not down:
            return False, ("no-down-matching", w)
        restricted = [M.restrict_to_ideal(w) for M in down]
        for r in restricted:
            ok, witness = verify_spm(r)
            if not ok:
                return False, ("restriction-not-spm", (w, witness))
        pool = None
        for i, Mr in enumerate(restricted):
            for Nr in restricted[i + 1:]:
                if Mr == Nr or strictly_coherent(Mr, Nr, w):
                    continue
                if pool is None:
                    pool = pool_fn(w) if pool_fn else enumerate_spms(poset, w)
                if not coherent(Mr, Nr, w, pool):
                    return False, ("incoherent", (w,))
    return True, None


def refinement_independence(poset: GradedPoset,
                            refinements: Sequence[Refinement], x: str):
    """All listed refinements produce identical R^x tables."""
    if not refinements:
        raise ValueError("need at least one refinement")
    first = r_polynomials(poset, refinements[0], x)
    for i, ref in enumerate(refinements[1:], start=1):
        other = r_polynomials(poset, ref, x)
        if other.entries != first.entries:
            bad = sorted(k for k in first.entries
                         if first.entries[k] != other.entries.get(k))
            return False, ("refinement-dependent", (i, bad[:1]))
    return True, None
