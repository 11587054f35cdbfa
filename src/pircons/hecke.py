"""The two Hecke-module structures attached to a pircon system.

Fix a pircon system whose matchings are quasi SPMs of the whole poset P and
whose R-polynomials satisfy the up-down symmetry.  The free module M_P over
Z[q^(1/2), q^(-1/2)] with basis {m_u : u in P} carries, for each parameter
x in {q, -1}, an action of the Hecke algebra of the Coxeter group generated
by the matchings (with m(M, N) the order of MN as a permutation of P):

    T_M . m_u = m_{M(u)}                    if M(u) is above u,
    T_M . m_u = q m_{M(u)} + (q-1) m_u      if M(u) is below u,
    T_M . m_u = x m_u                       if M(u) = u.

On top of the action sit the bar-type involution iota^x built from the
R^x-table, the diagonal twisting involution j_P, the two Kazhdan-Lusztig
bases C^x_w and C'^x_w (the latter built from the opposite family P^z), and
the recursion that computes C' and P^z through mu-coefficients.

Convention adopted for mu (the source identity uses it without defining it):
mu(u, w) is the coefficient of q^((rho(u,w)-1)/2) in P^z_{u,w}, zero when
the rank gap is even or u = w.  The recursion cross-check against the
directly constructed basis validates the convention executably.

Hecke-algebra elements are never materialized; only compositions of the
generator actions T_M, T_M^(-1) and C'_M act on module vectors.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .laurent import HalfLaurent, QPoly
from .klpoly import (PirconSystem, PolyTable, Refinement, X_PARAMS, X_Q,
                     check_pkernel, check_updown, check_x, kls_polynomials,
                     other_x, r_polynomials, x_scalar)
from .matchings import PartialMatching, lambda_system
from .posets import GradedPoset

_Q = HalfLaurent.q_power(1)
_QBAR = HalfLaurent.q_power(-1)
_ONE = HalfLaurent.one()
_QM1 = _Q - _ONE          # q - 1
_QBARM1 = _QBAR - _ONE    # q^(-1) - 1


class ModuleVector:
    """A finitely supported map from poset elements to HalfLaurent scalars."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, HalfLaurent] | None = None):
        data = {}
        if coeffs:
            for u, c in coeffs.items():
                if c:
                    data[u] = c
        self.coeffs = data

    @classmethod
    def zero(cls) -> "ModuleVector":
        return cls()

    @classmethod
    def basis(cls, u: int) -> "ModuleVector":
        return cls({u: _ONE})

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        data = dict(self.coeffs)
        for u, c in other.coeffs.items():
            s = data.get(u, HalfLaurent.zero()) + c
            if s:
                data[u] = s
            elif u in data:
                del data[u]
        out = ModuleVector.__new__(ModuleVector)
        out.coeffs = data
        return out

    def __sub__(self, other: "ModuleVector") -> "ModuleVector":
        return self + other.scale(HalfLaurent.from_int(-1))

    def scale(self, a: HalfLaurent) -> "ModuleVector":
        if not a:
            return ModuleVector()
        out = ModuleVector.__new__(ModuleVector)
        out.coeffs = {u: c * a for u, c in self.coeffs.items()}
        return out

    def coeff(self, u: int) -> HalfLaurent:
        return self.coeffs.get(u, HalfLaurent.zero())

    def support(self) -> list[int]:
        return sorted(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModuleVector):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(f"({c})*m[{u}]"
                          for u, c in sorted(self.coeffs.items()))

    def to_json(self, poset: GradedPoset) -> dict:
        return {"coeffs": [[poset.labels[u], c.to_json()]
                           for u, c in sorted(self.coeffs.items())]}

    @classmethod
    def from_json(cls, data: dict, poset: GradedPoset) -> "ModuleVector":
        return cls({poset.index(lab): HalfLaurent.from_json(c)
                    for lab, c in data["coeffs"]})


def _permutation_order(M: PartialMatching, N: PartialMatching, n: int) -> int:
    """Order of MN as a permutation of the poset: lcm of cycle lengths."""
    import math
    perm = [M(N(u)) for u in range(n)]
    seen = [False] * n
    order = 1
    for u in range(n):
        if seen[u]:
            continue
        length = 0
        v = u
        while not seen[v]:
            seen[v] = True
            v = perm[v]
            length += 1
        order = math.lcm(order, length)
    return order


class HeckeContext:
    """The Hecke-module data of one pircon system: the system, both R- and
    P-tables, the permutation orders of matching pairs, and cached iota
    basis images.

    Construction verifies the system axioms and the two table invariants
    (up-down symmetry and the kernel identity) for both parameters.
    """

    def __init__(self, poset: GradedPoset,
                 matchings: Sequence[PartialMatching]):
        whole = (1 << poset.n) - 1
        for M in matchings:
            if M.domain_mask() != whole:
                raise ValueError(
                    "context matchings must be defined on the whole poset")
        self.poset = poset
        self.system = PirconSystem(poset, matchings)
        matchings = self.system.matchings

        # The first matching that takes w down drives the recursion at w;
        # the system check above guarantees there is one.
        refinement = Refinement(poset, {
            w: self.system.down_matchings(w)[0].restrict_to_ideal(w)
            for w in range(poset.n) if w != poset.bottom})
        self._r: dict[str, PolyTable] = {}
        self._p: dict[str, PolyTable] = {}
        for x in X_PARAMS:
            table = r_polynomials(poset, refinement, x)
            ok, witness = check_updown(matchings, table)
            if not ok:
                raise ValueError(f"up-down symmetry fails for x={x}: {witness}")
            ok, witness = check_pkernel(table)
            if not ok:
                raise ValueError(f"kernel identity fails for x={x}: {witness}")
            self._r[x] = table
            self._p[x] = kls_polynomials(table)

        self.m_orders = {}
        for i, M in enumerate(matchings):
            for j in range(i + 1, len(matchings)):
                self.m_orders[(i, j)] = _permutation_order(
                    M, matchings[j], poset.n)
        self._iota_basis: dict[str, list[ModuleVector]] = {}

    @property
    def matchings(self) -> tuple[PartialMatching, ...]:
        return self.system.matchings

    def r_table(self, x: str) -> PolyTable:
        return self._r[check_x(x)]

    def p_table(self, x: str) -> PolyTable:
        return self._p[check_x(x)]

    def m_order(self, i: int, j: int) -> int:
        return self.m_orders[(min(i, j), max(i, j))]

    # -- mu-coefficients ---------------------------------------------------

    def mu(self, u: int, w: int, x: str) -> int:
        """Leading coefficient of P^z_{u,w} at degree (rho(u,w)-1)/2;
        zero for even rank gaps, u = w, or incomparable pairs."""
        if u == w or not self.poset.leq(u, w):
            return 0
        gap = self.poset.rank_gap(u, w)
        if gap % 2 == 0:
            return 0
        return self.p_table(other_x(x)).value(u, w).coeff((gap - 1) // 2)


# ---------------------------------------------------------------------------
# Generator actions.
# ---------------------------------------------------------------------------

def t_action(ctx: HeckeContext, M: PartialMatching, v: ModuleVector,
             x: str) -> ModuleVector:
    """T_M acting in the x-structure, extended linearly."""
    xs = x_scalar(x)
    out: dict[int, HalfLaurent] = {}

    def bump(u, c):
        s = out.get(u, HalfLaurent.zero()) + c
        if s:
            out[u] = s
        elif u in out:
            del out[u]

    for u, c in v.coeffs.items():
        kind = M.kind(u)
        if kind == "up":
            bump(M(u), c)
        elif kind == "down":
            bump(M(u), c * _Q)
            bump(u, c * _QM1)
        else:
            bump(u, c * xs)
    return ModuleVector(out)


def t_inverse_action(ctx: HeckeContext, M: PartialMatching, v: ModuleVector,
                     x: str) -> ModuleVector:
    """T_M^(-1) = q^(-1) T_M + (q^(-1) - 1); this is also iota(T_M)."""
    return t_action(ctx, M, v, x).scale(_QBAR) + v.scale(_QBARM1)


def cprime_generator_action(ctx: HeckeContext, M: PartialMatching,
                            v: ModuleVector, x: str) -> ModuleVector:
    """C'_M = q^(-1/2) (T_M + 1) acting in the x-structure."""
    return (t_action(ctx, M, v, x) + v).scale(HalfLaurent.half_power(-1))


def verify_hecke_relations(ctx: HeckeContext, x: str):
    """Quadratic relation for every matching and braid relation of length
    m(M, N) for every pair, checked on every basis vector."""
    n = ctx.poset.n
    for mi, M in enumerate(ctx.matchings):
        for u in range(n):
            v = ModuleVector.basis(u)
            tv = t_action(ctx, M, v, x)
            lhs = t_action(ctx, M, tv, x)
            rhs = tv.scale(_QM1) + v.scale(_Q)
            if lhs != rhs:
                return False, ("quadratic", (mi, u))
    for (i, j), m in ctx.m_orders.items():
        M, N = ctx.matchings[i], ctx.matchings[j]
        for u in range(n):
            lhs = ModuleVector.basis(u)
            rhs = ModuleVector.basis(u)
            for k in range(m):
                lhs = t_action(ctx, M if k % 2 == 0 else N, lhs, x)
                rhs = t_action(ctx, N if k % 2 == 0 else M, rhs, x)
            if lhs != rhs:
                return False, ("braid", (i, j, u))
    return True, None


# ---------------------------------------------------------------------------
# The involutions iota^x and j_P.
# ---------------------------------------------------------------------------

def _iota_basis(ctx: HeckeContext, x: str) -> list[ModuleVector]:
    cached = ctx._iota_basis.get(x)
    if cached is not None:
        return cached
    poset = ctx.poset
    table = ctx.r_table(x)
    images = []
    for v in range(poset.n):
        coeffs = {}
        for u in poset.ideal_elements(v):
            gap = poset.rank_gap(u, v)
            c = table.value(u, v).to_half_laurent() \
                .scale((-1) ** gap).shift(-2 * poset.rank[v])
            if c:
                coeffs[u] = c
        images.append(ModuleVector(coeffs))
    ctx._iota_basis[x] = images
    return images


def iota(ctx: HeckeContext, v: ModuleVector, x: str) -> ModuleVector:
    """iota^x(m_v) = q^(-rho(v)) sum_u (-1)^(rho(u,v)) R^x_{u,v} m_u,
    extended bar-semilinearly."""
    images = _iota_basis(ctx, x)
    out = ModuleVector.zero()
    for u, c in v.coeffs.items():
        out = out + images[u].scale(c.bar())
    return out


def j_map(ctx: HeckeContext, v: ModuleVector) -> ModuleVector:
    """j_P(a m_w) = bar(a) (-q^(-1))^rho(w) m_w."""
    poset = ctx.poset
    out = {}
    for w, c in v.coeffs.items():
        r = poset.rank[w]
        out[w] = c.bar() * HalfLaurent({-2 * r: (-1) ** r})
    return ModuleVector(out)


# ---------------------------------------------------------------------------
# Kazhdan-Lusztig elements.
# ---------------------------------------------------------------------------

def kl_element_c(ctx: HeckeContext, w: int, x: str) -> ModuleVector:
    """C^x_w = q^(rho(w)/2) sum_v (-1)^(rho(v,w)) q^(-rho(v))
    bar(P^x_{v,w}) m_v."""
    poset = ctx.poset
    table = ctx.p_table(x)
    rw = poset.rank[w]
    coeffs = {}
    for v in poset.ideal_elements(w):
        gap = poset.rank_gap(v, w)
        c = table.value(v, w).bar_half() \
            .scale((-1) ** gap).shift(rw - 2 * poset.rank[v])
        if c:
            coeffs[v] = c
    return ModuleVector(coeffs)


def kl_element_cprime(ctx: HeckeContext, w: int, x: str) -> ModuleVector:
    """C'^x_w = q^(-rho(w)/2) sum_v P^z_{v,w} m_v, with {x, z} = {q, -1}."""
    poset = ctx.poset
    table = ctx.p_table(other_x(x))
    rw = poset.rank[w]
    coeffs = {}
    for v in poset.ideal_elements(w):
        c = table.value(v, w).to_half_laurent().shift(-rw)
        if c:
            coeffs[v] = c
    return ModuleVector(coeffs)


# ---------------------------------------------------------------------------
# The duality suite.
# ---------------------------------------------------------------------------

def verify_duality(ctx: HeckeContext):
    """All the involution identities, checked elementwise for both x:

    * iota^x is an involution;
    * iota^x(T_M . m) = iota(T_M) . iota^x(m)        (equivariance);
    * j_P(T_M .x m) = -q^(-1) T_M .z j_P(m)         (twisted equivariance);
    * iota^x o j_P = j_P o iota^z;
    * j_P(C^x_w) = (-1)^rho(w) C'^z_w, and both KL bases are iota-invariant.
    """
    n = ctx.poset.n
    for x in X_PARAMS:
        z = other_x(x)
        for u in range(n):
            v = ModuleVector.basis(u)
            if iota(ctx, iota(ctx, v, x), x) != v:
                return False, ("iota-involution", (x, u))
            jv = j_map(ctx, v)
            if iota(ctx, jv, x) != j_map(ctx, iota(ctx, v, z)):
                return False, ("iota-j-conjugation", (x, u))
            for mi, M in enumerate(ctx.matchings):
                lhs = iota(ctx, t_action(ctx, M, v, x), x)
                rhs = t_inverse_action(ctx, M, iota(ctx, v, x), x)
                if lhs != rhs:
                    return False, ("equivariance", (x, mi, u))
                lhs = j_map(ctx, t_action(ctx, M, v, x))
                rhs = t_action(ctx, M, jv, z).scale(
                    HalfLaurent({-2: -1}))
                if lhs != rhs:
                    return False, ("twisted-equivariance", (x, mi, u))
        for w in range(n):
            c = kl_element_c(ctx, w, x)
            cp = kl_element_cprime(ctx, w, x)
            sign = HalfLaurent.from_int((-1) ** ctx.poset.rank[w])
            if j_map(ctx, c) != kl_element_cprime(ctx, w, z).scale(sign):
                return False, ("j-on-C", (x, w))
            if iota(ctx, cp, x) != cp:
                return False, ("iota-on-Cprime", (x, w))
            if iota(ctx, c, x) != c:
                return False, ("iota-on-C", (x, w))
    return True, None


# ---------------------------------------------------------------------------
# Recursion and characterization.
# ---------------------------------------------------------------------------

def _correction_domain(ctx: HeckeContext, M: PartialMatching, mw: int,
                       x: str) -> Iterable[int]:
    """Summation domain of the correction term: u <= M(w) with M(u) <= u
    when x = q, strictly below when x = -1."""
    for u in ctx.poset.ideal_elements(mw):
        kind = M.kind(u)
        if kind == "down" or (kind == "fixed" and x == X_Q):
            yield u


def cprime_recursion(ctx: HeckeContext, w: int, M: PartialMatching,
                     x: str) -> ModuleVector:
    """Right-hand side of
    C'^x_w = C'_M . C'^x_{M(w)} - sum_u mu(u, M(w)) C'^x_u,
    evaluated from directly-constructed lower C'-elements.  A mismatch with
    kl_element_cprime(ctx, w, x) would signal an internal inconsistency.
    """
    poset = ctx.poset
    mw = M(w)
    if not poset.covers(mw, w):
        raise ValueError("cprime_recursion needs M(w) covered by w")
    out = cprime_generator_action(
        ctx, M, kl_element_cprime(ctx, mw, x), x)
    for u in _correction_domain(ctx, M, mw, x):
        m = ctx.mu(u, mw, x)
        if m:
            out = out - kl_element_cprime(ctx, u, x).scale(
                HalfLaurent.from_int(m))
    return out


def p_recursion(ctx: HeckeContext, v: int, w: int, M: PartialMatching,
                x: str) -> QPoly:
    """Right-hand side of the polynomial-level recursion
    P^z_{v,w} = P^z_{v',M(w)} + x_v P^z_{v'',M(w)}
                - sum_u mu(u, M(w)) q^(rho(u,w)/2) P^z_{v,u},
    where v' and v'' are the lower and upper of {v, M(v)} and x_v is x when
    M fixes v and q otherwise."""
    poset = ctx.poset
    mw = M(w)
    if not poset.covers(mw, w):
        raise ValueError("p_recursion needs M(w) covered by w")
    if not poset.leq(v, w):
        raise ValueError("p_recursion needs v <= w")
    z = other_x(x)
    pz = ctx.p_table(z)
    mv = M(v)
    if mv == v:
        v_lo = v_hi = v
        xv = QPoly((0, 1)) if x == X_Q else QPoly((-1,))
    else:
        v_lo, v_hi = (mv, v) if poset.lt(mv, v) else (v, mv)
        xv = QPoly((0, 1))
    out = pz.value(v_lo, mw) + xv * pz.value(v_hi, mw)
    for u in _correction_domain(ctx, M, mw, x):
        m = ctx.mu(u, mw, x)
        if m:
            out = out - m * QPoly.monomial(poset.rank_gap(u, w) // 2) \
                * pz.value(v, u)
    return out


def characterize(ctx: HeckeContext, D: ModuleVector, w: int, x: str) -> bool:
    """True exactly when D is iota^x-invariant and has the normalized shape
    q^(-rho(w)/2) sum_v Q_{v,w} m_v with integer polynomials Q, Q_{w,w} = 1
    and deg Q_{v,w} < rho(v,w)/2.  Any vector passing both conditions must
    be C'^x_w, which is asserted."""
    poset = ctx.poset
    rw = poset.rank[w]
    qs = {}
    for v, c in D.coeffs.items():
        shifted = c.shift(rw)
        if not shifted.is_q_polynomial():
            return False
        qs[v] = shifted.to_qpoly()
    if qs.get(w) != QPoly.one():
        return False
    for v, qpoly in qs.items():
        if v == w:
            continue
        if 2 * qpoly.degree() >= poset.rank_gap(v, w):
            return False
    if iota(ctx, D, x) != D:
        return False
    expected = kl_element_cprime(ctx, w, x)
    if D != expected:
        raise AssertionError(
            "characterization conditions hold but D differs from C'^x_w")
    return True


# ---------------------------------------------------------------------------
# Instance builder for parabolic quotients.
# ---------------------------------------------------------------------------

def context_for_quotient(quot) -> HeckeContext:
    """HeckeContext of W^H with the left multiplication partial matchings."""
    return HeckeContext(quot.poset, lambda_system(quot))
