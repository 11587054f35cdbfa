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

Module vectors and the generator actions stay on HalfLaurent objects, but
iota runs on packed integers with the toolkit of ``klpoly``: the basis
images iota^x(m_v) are kept per context as ints (every coefficient
evaluated at q^(1/2) = 2^B), a call sums int products into one dict and
decodes balanced base-2^B digits, and each call asserts its coefficient
bound before any product, repacking at a wider B when it does not fit.
The mu-corrections of the C' and P recursions are computed once per
(M, M(w), x) and kept on the context.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .laurent import HalfLaurent, QPoly
from .klpoly import (PirconSystem, PolyTable, X_PARAMS, X_Q, _TooNarrow,
                     _digits, _norms, _pack, _width_for, _with_widening,
                     check_x, kls_polynomials, lambda_refinement, other_x)
from .matchings import PartialMatching
from .posets import GradedPoset

_ONE = HalfLaurent.one()


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
        neg = ModuleVector.__new__(ModuleVector)
        neg.coeffs = {u: -c for u, c in other.coeffs.items()}
        return self + neg

    def scale(self, a: HalfLaurent) -> "ModuleVector":
        if not a:
            return ModuleVector()
        out = ModuleVector.__new__(ModuleVector)
        out.coeffs = {u: c * a for u, c in self.coeffs.items()}
        return out

    def shift(self, h: int) -> "ModuleVector":
        """Multiply by q^(h/2)."""
        out = ModuleVector.__new__(ModuleVector)
        out.coeffs = {u: c.shift(h) for u, c in self.coeffs.items()}
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
    """The Hecke-module data of one pircon system: the system, whose R-tables
    it reads, both P-tables, the permutation orders of matching pairs, and
    two caches filled on use: the packed iota basis images and the
    mu-corrections of the recursions.

    Construction requires matchings defined on the whole poset and raises
    ValueError when the system's verdict, or its up-down or kernel verdict
    for either parameter, fails.
    """

    def __init__(self, poset: GradedPoset, system: PirconSystem):
        whole = (1 << poset.n) - 1
        for M in system.matchings:
            if M.domain_mask() != whole:
                raise ValueError(
                    "context matchings must be defined on the whole poset")
        self.poset = poset
        self.system = system
        ok, witness = system.verdict
        if not ok:
            raise ValueError(f"not a pircon system: {witness}")

        self._p: dict[str, PolyTable] = {}
        for x in X_PARAMS:
            for verdict, what in ((system.updown, "up-down symmetry"),
                                  (system.pkernel, "kernel identity")):
                ok, witness = verdict(x)
                if not ok:
                    raise ValueError(f"{what} fails for x={x}: {witness}")
            self._p[x] = kls_polynomials(system.r_table(x))

        self.m_orders = {}
        for i, M in enumerate(system.matchings):
            for j in range(i + 1, len(system.matchings)):
                self.m_orders[(i, j)] = _permutation_order(
                    M, system.matchings[j], poset.n)

        # Packed iota (see _iota_basis): images carry q^(K/2) with
        # K = 2 max rank; r_l1 is the largest L1 norm of an R entry for
        # either x, and the starting width fits the involution check
        # iota(iota(m_u)), whose input L1 is at most n r_l1.
        self.half_offset = 2 * max(poset.rank, default=0)
        self.r_l1 = max(_norms(self.r_table(x))[0] for x in X_PARAMS)
        self.iota_width = _width_for(poset.n * self.r_l1 ** 2)
        self._iota_basis: dict[tuple[str, int], list[dict[int, int]]] = {}
        self._corrections: dict[tuple, list[tuple[int, int]]] = {}

    @property
    def matchings(self) -> tuple[PartialMatching, ...]:
        return self.system.matchings

    def r_table(self, x: str) -> PolyTable:
        return self.system.r_table(x)

    def p_table(self, x: str) -> PolyTable:
        return self._p[check_x(x)]

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
    fixed_q = x == X_Q
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
            qc = c.shift(2)
            bump(M(u), qc)
            bump(u, qc - c)
        else:
            bump(u, c.shift(2) if fixed_q else -c)
    return ModuleVector(out)


def t_inverse_action(ctx: HeckeContext, M: PartialMatching, v: ModuleVector,
                     x: str) -> ModuleVector:
    """T_M^(-1) = q^(-1) T_M + (q^(-1) - 1); this is also iota(T_M)."""
    return (t_action(ctx, M, v, x) + v).shift(-2) - v


def cprime_generator_action(ctx: HeckeContext, M: PartialMatching,
                            v: ModuleVector, x: str) -> ModuleVector:
    """C'_M = q^(-1/2) (T_M + 1) acting in the x-structure."""
    return (t_action(ctx, M, v, x) + v).shift(-1)


def verify_hecke_relations(ctx: HeckeContext, x: str):
    """Quadratic relation for every matching and braid relation of length
    m(M, N) for every pair, checked on every basis vector."""
    n = ctx.poset.n
    for mi, M in enumerate(ctx.matchings):
        for u in range(n):
            v = ModuleVector.basis(u)
            tv = t_action(ctx, M, v, x)
            lhs = t_action(ctx, M, tv, x)
            rhs = tv.shift(2) - tv + v.shift(2)
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

def _iota_basis(ctx: HeckeContext, x: str,
                width: int) -> list[dict[int, int]]:
    """iota^x(m_v) for every v, packed: the coefficient of m_u is
    (-1)^rho(u,v) q^(-rho(v)) R^x_{u,v}, times q^(K/2) with
    K = ctx.half_offset so that no exponent is negative, evaluated at
    q^(1/2) = 2^width.  Kept on the context per (x, width)."""
    key = (x, width)
    cached = ctx._iota_basis.get(key)
    if cached is not None:
        return cached
    poset = ctx.poset
    table = ctx.r_table(x)
    images = []
    for v in range(poset.n):
        shift = width * (ctx.half_offset - 2 * poset.rank[v])
        coeffs = {}
        for u in poset.ideal_elements(v):
            c = _pack(table.value(u, v).coeffs(), 2 * width) << shift
            if c:
                coeffs[u] = -c if poset.rank_gap(u, v) % 2 else c
        images.append(coeffs)
    ctx._iota_basis[key] = images
    return images


def iota(ctx: HeckeContext, v: ModuleVector, x: str) -> ModuleVector:
    """iota^x(m_v) = q^(-rho(v)) sum_u (-1)^(rho(u,v)) R^x_{u,v} m_u,
    extended bar-semilinearly.

    Runs packed (see ``_iota_basis``): bar(c_u) of every input coefficient
    is evaluated at q^(1/2) = 2^B, shifted by its largest half-exponent t
    over the input, and its int product with each packed image coefficient
    is added into one dict.  Balanced base-2^B digits of each sum give the
    output coefficient, digit i at half-exponent i - K - t.  That is exact
    while sum_u L1(c_u) * max L1(R) < 2^(B-1), which is asserted before
    any product is formed; a bound that does not fit repacks the images at
    a wider B.
    """
    if not v.coeffs:
        return ModuleVector()
    terms = [(u, c.terms()) for u, c in v.coeffs.items()]
    top = max(h for _, cu in terms for h in cu)
    bound = ctx.r_l1 * sum(abs(c) for _, cu in terms for c in cu.values())

    def run(width: int) -> dict[int, int]:
        if bound >= 1 << (width - 1):
            raise _TooNarrow(bound)
        images = _iota_basis(ctx, x, width)
        out: dict[int, int] = {}
        get = out.get
        for u, cu in terms:
            c = sum(a << width * (top - h) for h, a in cu.items())
            for w, image in images[u].items():
                out[w] = get(w, 0) + c * image
        low = -ctx.half_offset - top
        return {w: HalfLaurent(_digits(total, width, low))
                for w, total in out.items() if total}

    return ModuleVector(_with_widening(run, ctx.iota_width))


def j_map(ctx: HeckeContext, v: ModuleVector) -> ModuleVector:
    """j_P(a m_w) = bar(a) (-q^(-1))^rho(w) m_w."""
    poset = ctx.poset
    out = {}
    for w, c in v.coeffs.items():
        r = poset.rank[w]
        out[w] = c.bar().shift(-2 * r).scale((-1) ** r)
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

    iota^x(m_u) is computed once per (x, u) and T_M . m_u once per
    (x, u, M).
    """
    n = ctx.poset.n
    for x in X_PARAMS:
        z = other_x(x)
        for u in range(n):
            v = ModuleVector.basis(u)
            iv = iota(ctx, v, x)
            if iota(ctx, iv, x) != v:
                return False, ("iota-involution", (x, u))
            jv = j_map(ctx, v)
            if iota(ctx, jv, x) != j_map(ctx, iota(ctx, v, z)):
                return False, ("iota-j-conjugation", (x, u))
            for mi, M in enumerate(ctx.matchings):
                tv = t_action(ctx, M, v, x)
                lhs = iota(ctx, tv, x)
                rhs = t_inverse_action(ctx, M, iv, x)
                if lhs != rhs:
                    return False, ("equivariance", (x, mi, u))
                lhs = j_map(ctx, tv)
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


def _corrections(ctx: HeckeContext, M: PartialMatching, mw: int,
                 x: str) -> list[tuple[int, int]]:
    """The correction terms [(u, mu(u, M(w)))] with mu nonzero, computed
    once per (M, M(w), x) and kept on the context."""
    key = (M, mw, x)
    terms = ctx._corrections.get(key)
    if terms is None:
        terms = ctx._corrections[key] = [
            (u, m) for u in _correction_domain(ctx, M, mw, x)
            if (m := ctx.mu(u, mw, x))]
    return terms


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
    for u, m in _corrections(ctx, M, mw, x):
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
    for u, m in _corrections(ctx, M, mw, x):
        p = pz.value(v, u)
        if p:
            out = out - QPoly.monomial(poset.rank_gap(u, w) // 2, m) * p
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
    return HeckeContext(quot.poset, PirconSystem(
        quot.poset, quot.lambda_matchings, lambda_refinement(quot)))
