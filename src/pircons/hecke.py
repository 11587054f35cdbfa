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

Hecke-algebra elements are never materialized; only the generator action
T_M (``t_action``, the one evaluator of the three-case rule here) acts on
module vectors: composed, in the relation suite, and as T_M + 1, in the
recursion.

A module vector is a dict {u: c} over the nonzero coefficients, each packed
at the context's width B and offset K: sum_h a_h q^(h/2) is stored as the
int sum_h a_h 2^(B (h + K)), the scalar evaluated at q^(1/2) = 2^B times
q^(K/2).  Packing is a ring map, so sums, integer multiples and products are
exact int arithmetic, q^(1/2) is a shift left by B, and q^(-1/2) an exact
shift right: a shift that would drop nonzero low bits means a term below
q^(-K/2) and raises OffsetError.  A packed scalar determines its
coefficients when every one lies inside (-2^(B-1), 2^(B-1)) (the vector is
then *valid*), and two valid vectors are equal exactly when their dicts are.

The bounds are derived, never assumed.  Each T_M at most triples a
coefficient, so a composition of m actions on a basis vector stays below
3^m; iota^x multiplies by at most max L1(R^x); the recursions add
mu-multiples of P-entries.  The context derives its width B once, from the
largest bound a built-in check asserts, and never changes it.  A check
asserts the bound of what it compares before comparing, and iota and
p_recursion assert their own before computing; a miss raises WidthError
rather than comparing ints that no longer decode faithfully.  T_M
asserts nothing: keeping its results valid is the caller's part.
K = 2 (max rank + 1) leaves room for the q^(-rho) of iota and of C'^x_w
on everything the checks build.

Only iota reads digits, to apply bar (a reflection of digit positions),
and characterize, to test a shape; nothing else decodes.
Vectors become ModuleVector objects with HalfLaurent coefficients only at
the edges: klbasis JSON, printing and tests (``HeckeContext.decode``).
The same algorithms on HalfLaurent and ModuleVector object arithmetic are
the differential reference in ``tests/oracles.py``.

The tables enter packed by ``klpoly._columns`` at q^(1/2) = 2^B: iota's
basis images are the columns of R^x, signed, and P^z is kept as its
columns, which are C'-elements up to a shift.  ``p_recursion`` builds a
whole P column as T_M + 1 applied to column M(w), less its mu-corrections,
read off column M(w) of the system's P^z table, and ``verify_recursion``
compares it, shifted, with the kept one.  This module evaluates no
identity of the R-tables alone:
the context requires the system's verdicts on them, and the duality
suite's one table clause is ``klpoly.is_calculating``.
"""

from __future__ import annotations

import math
from typing import Mapping

from .laurent import HalfLaurent
from .klpoly import (PirconSystem, X_PARAMS, X_Q, _columns, _digits,
                     _width_for, check_x, is_calculating, other_x)
from .matchings import PartialMatching
from .posets import GradedPoset

Vector = dict[int, int]


class OffsetError(ArithmeticError):
    """A packed value has a term below q^(-K/2) of its context."""


class WidthError(ArithmeticError):
    """A coefficient bound, the only argument, reaches 2^(B-1) of the
    context, so packed values at its width B would not decode faithfully.
    The context's width fits every built-in check, so a check raises it
    only on a context given a narrower width; a direct call of iota or
    characterize raises it on a vector too large for the width."""


class ModuleVector:
    """A decoded module vector: a finitely supported map from poset elements
    to HalfLaurent scalars, for printing, JSON and tests."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, HalfLaurent] | None = None):
        self.coeffs = {u: c for u, c in (coeffs or {}).items() if c}

    def coeff(self, u: int) -> HalfLaurent:
        return self.coeffs.get(u, HalfLaurent())

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
    """The Hecke-module data of one pircon system: the system, whose R- and
    P-tables it reads (each P-table built by the system's kernel verdict),
    the permutation orders of matching pairs, the packing (``width`` B and
    ``offset`` K, see the module docstring), and caches filled on use:
    the packed iota basis images and P columns per x, and iota's barred
    input coefficients.  Matchings, tables and verdicts are read from
    ``system``.  The packed caches belong to the width: ``_set_width``
    starts them empty.

    Construction requires matchings defined on the whole poset and raises
    ValueError when the system's verdict, its up-down or kernel verdict for
    either parameter, or its ``properties`` verdict on the two R-tables
    fails.
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

        for x in X_PARAMS:
            for verdict, what in ((system.updown, "up-down symmetry"),
                                  (system.pkernel, "kernel identity")):
                ok, witness = verdict(x)
                if not ok:
                    raise ValueError(f"{what} fails for x={x}: {witness}")
        ok, witness = system.properties
        if not ok:
            raise ValueError(f"R-table properties fail: {witness}")

        self.m_orders = {}
        for i, M in enumerate(system.matchings):
            for j in range(i + 1, len(system.matchings)):
                self.m_orders[(i, j)] = _permutation_order(
                    M, system.matchings[j], poset.n)

        # r_l1 and p_l1 bound the L1 norm, so also every coefficient, of an
        # R- and a P-entry for either x.  The width fits the largest bound
        # a built-in check asserts: a braid of the longest length, iota of
        # a KL element (input L1 at most n p_l1, which also bounds the C'
        # it is compared with) and a P recursion (two entries of column
        # M(w), and at most n mu-corrections, each |mu| <= p_l1).  The rule
        # checks on R columns run at the width of the table's own
        # ``rule_columns``.  Their bound 3 r_l1 would never bind here
        # anyway: for n >= 3, n r_l1 p_l1 >= 3 r_l1, as p_l1 >= 1; for
        # n <= 2, the R-entries are 1 and q - 1, so r_l1 <= 2, and the
        # braid term is at least 3^2 (two distinct involutions have a
        # product of order >= 2, and with one matching the term is its
        # default 3^2).
        n = poset.n
        self.r_l1 = max(system.r_table(x).norms[0] for x in X_PARAMS)
        self.p_l1 = max(system.p_table(x).norms[0] for x in X_PARAMS)
        self.offset = 2 * (poset.max_rank() + 1)
        self._set_width(_width_for(max(
            3 ** max(self.m_orders.values(), default=2),
            n * self.r_l1 * self.p_l1,
            self.p_l1 * (2 + n * self.p_l1))))

    def _set_width(self, width: int) -> None:
        self.width = width
        self.one = 1 << width * self.offset     # the packed scalar 1
        self._limit = 1 << (width - 1)
        self._iota_basis: dict[str, list[Vector]] = {}
        # iota's barred coefficients: c -> (top half-exponent, int, L1)
        self._barred: dict[int, tuple[int, int, int]] = {}
        self._packed_p: dict[str, list[Vector]] = {}

    def require(self, bound: int) -> None:
        """Raise WidthError unless bound < 2^(B-1), the range in which
        packed coefficients decode and compare faithfully."""
        if bound >= self._limit:
            raise WidthError(bound)

    # -- decoding at the edges ------------------------------------------

    def decode(self, v: Vector) -> ModuleVector:
        """The coefficients of a valid packed vector.  Validity is the
        caller's to keep: a coefficient that has left (-2^(B-1), 2^(B-1))
        decodes to other coefficients, with no error."""
        return ModuleVector({u: HalfLaurent(_digits(c, self.width,
                                                    -self.offset))
                             for u, c in v.items()})

    def packed_p(self, x: str) -> list[Vector]:
        """The ``_columns`` of P^x at q = 2^(2B), with no offset: for every
        w the dict {v: P^x_{v,w}} over the nonzero entries, kept per x.
        Shared; callers must not modify it."""
        x = check_x(x)
        cols = self._packed_p.get(x)
        if cols is None:
            cols = self._packed_p[x] = _columns(self.system.p_table(x),
                                                2 * self.width)
        return cols


def _shift_down(v: Vector, bits: int) -> Vector:
    """Every coefficient times 2^(-bits), zeros dropped; raises OffsetError
    when a coefficient has nonzero bits below ``bits``."""
    mask = (1 << bits) - 1
    if bits and any(c & mask for c in v.values()):
        raise OffsetError("a term falls below the offset")
    return {u: c >> bits for u, c in v.items() if c}


def _reflect(digits: Mapping[int, int], width: int, top: int) -> int:
    """sum_h a_h 2^(width (top - h)), the bar of the digits packed with
    top as offset; raises OffsetError when some h exceeds top."""
    if max(digits) > top:
        raise OffsetError("a term falls below the offset")
    return sum(a << width * (top - h) for h, a in digits.items())


# ---------------------------------------------------------------------------
# Generator actions.
# ---------------------------------------------------------------------------

def t_action(ctx: HeckeContext, M: PartialMatching, v: Vector,
             x: str) -> Vector:
    """T_M acting in the x-structure, extended linearly: q c is c shifted
    left by 2B.  A coefficient at most triples.  This asserts no bound:
    the caller keeps the result valid (through ``ctx.require``, the
    relation suite asserts 3^m for m composed actions and p_recursion the
    bound of its column), and an overflowed coefficient decodes wrongly
    without an error."""
    q = 2 * ctx.width
    fixed_q = x == X_Q
    kind_of, image = M.kind, M.mapping
    out: Vector = {}
    get = out.get
    for u, c in v.items():
        kind = kind_of(u)
        if kind == "up":
            mu = image[u]
            out[mu] = get(mu, 0) + c
        elif kind == "down":
            mu, qc = image[u], c << q
            out[mu] = get(mu, 0) + qc
            out[u] = get(u, 0) + qc - c
        else:
            out[u] = get(u, 0) + (c << q if fixed_q else -c)
    return {u: c for u, c in out.items() if c}


def verify_hecke_relations(ctx: HeckeContext, x: str):
    """Quadratic relation for every matching and braid relation of length
    m(M, N) for every pair, checked on every basis vector.  Both sides of
    a relation of length m stay below 3^m."""
    n, one, q = ctx.poset.n, ctx.one, 2 * ctx.width
    matchings = ctx.system.matchings
    ctx.require(9)
    for mi, M in enumerate(matchings):
        for u in range(n):
            tv = t_action(ctx, M, {u: one}, x)
            lhs = t_action(ctx, M, tv, x)
            rhs = {w: (c << q) - c for w, c in tv.items()}
            rhs[u] = rhs.get(u, 0) + (one << q)
            if lhs != {w: c for w, c in rhs.items() if c}:
                return False, ("quadratic", (mi, u))
    for (i, j), m in ctx.m_orders.items():
        ctx.require(3 ** m)
        M, N = matchings[i], matchings[j]
        for u in range(n):
            lhs = {u: one}
            rhs = {u: one}
            for k in range(m):
                lhs = t_action(ctx, M if k % 2 == 0 else N, lhs, x)
                rhs = t_action(ctx, N if k % 2 == 0 else M, rhs, x)
            if lhs != rhs:
                return False, ("braid", (i, j, u))
    return True, None


# ---------------------------------------------------------------------------
# The involution iota^x.
# ---------------------------------------------------------------------------

def _iota_basis(ctx: HeckeContext, x: str) -> list[Vector]:
    """The images iota^x(m_v) without their factor q^(-rho(v)): for every v
    the dict {u: (-1)^rho(u,v) R^x_{u,v}}, the ``_columns`` of R^x at
    q^(1/2) = 2^B with no offset, signed.  Kept on the context per x."""
    images = ctx._iota_basis.get(x)
    if images is None:
        rank = ctx.poset.rank
        images = ctx._iota_basis[x] = [
            {u: -c if (rank[v] - rank[u]) % 2 else c for u, c in col.items()}
            for v, col in enumerate(_columns(ctx.system.r_table(x),
                                             2 * ctx.width))]
    return images


def iota(ctx: HeckeContext, v: Vector, x: str) -> Vector:
    """iota^x(m_v) = q^(-rho(v)) sum_u (-1)^(rho(u,v)) R^x_{u,v} m_u,
    extended bar-semilinearly.

    Each input coefficient c_u is read as digits and barred by reflecting
    them about its largest half-exponent t_u, which leaves an int b_u with
    bar(c_u) = q^(-t_u/2) b_u and no trailing zero digits.  Its products
    with the image of m_u are shifted to offset K + t, t the largest t_u
    (at least 0), and added into one dict; an exact shift right by t B
    returns the sums to offset K.  The output's coefficients are below
    sum_u L1(c_u) * max L1(R), which is asserted before any product is
    formed: WidthError when it reaches 2^(B-1).  Vectors repeat few
    coefficient values, so (t_u, b_u, L1(c_u)), a function of c_u at the
    context's width and offset, is kept on the context per packed value.
    """
    width, offset, rank = ctx.width, ctx.offset, ctx.poset.rank
    barred = ctx._barred
    terms = []
    for u, c in v.items():
        got = barred.get(c)
        if got is None:
            d = _digits(c, width, -offset)
            t = max(d)
            got = barred[c] = (t, sum(a << width * (t - h)
                                      for h, a in d.items()),
                               sum(map(abs, d.values())))
        terms.append((u, got))
    ctx.require(ctx.r_l1 * sum(got[2] for _, got in terms))
    top = max([0] + [got[0] for _, got in terms])
    images = _iota_basis(ctx, x)
    out = [0] * ctx.poset.n
    for u, (t, b, _) in terms:
        # the product's half-exponents, shifted to offset K + top
        shift = width * (offset + top - t - 2 * rank[u])
        for w, r in images[u].items():
            out[w] += b * r << shift
    return _shift_down({w: c for w, c in enumerate(out) if c}, top * width)


# ---------------------------------------------------------------------------
# Kazhdan-Lusztig elements.
# ---------------------------------------------------------------------------

def kl_element_c(ctx: HeckeContext, w: int, x: str) -> Vector:
    """C^x_w = q^(rho(w)/2) sum_v (-1)^(rho(v,w)) q^(-rho(v))
    bar(P^x_{v,w}) m_v."""
    poset, width = ctx.poset, ctx.width
    top = ctx.offset + poset.rank[w]
    out = {}
    for v, poly in zip(poset.ideal_elements(w),
                       ctx.system.p_table(x).columns[w]):
        coeffs = poly.coeffs()
        if coeffs:
            c = _reflect({2 * k: a for k, a in enumerate(coeffs)}, width,
                         top - 2 * poset.rank[v])
            out[v] = -c if poset.rank_gap(v, w) % 2 else c
    return out


def kl_element_cprime(ctx: HeckeContext, w: int, x: str) -> Vector:
    """C'^x_w = q^(-rho(w)/2) sum_v P^z_{v,w} m_v, with {x, z} = {q, -1}:
    the packed P^z column shifted to half-exponent -rho(w) >= -K."""
    shift = ctx.width * (ctx.offset - ctx.poset.rank[w])
    return {v: c << shift for v, c in ctx.packed_p(other_x(x))[w].items()}


# ---------------------------------------------------------------------------
# The duality suite.
# ---------------------------------------------------------------------------

def verify_duality(ctx: HeckeContext):
    """The involution identities, checked for both x, with {x, z} = {q, -1}:

    * iota^x(T_M . m) = iota(T_M) . iota^x(m)        (equivariance);
    * C'^x_w is iota-invariant                       (iota-on-Cprime).

    Only the second applies iota.  Equivariance is a statement about the
    R^x-table, on the iota images I_u = {t: (-1)^rho(t,u) R^x_{t,u}}.
    Where M moves u, let lo < hi be the pair {u, M(u)}.  At lo the clause
    says I_hi[t] = case(-I_lo[t], I_lo[M(t)]) for every t <= hi, with
    case the three-case rule of M at t; at hi it is the same identity
    (multiply the one at lo by T_M), so each pair is checked at its first
    element in the scan and passes at the second.  At t != hi, (-1)^rho(t,hi)
    times it is R_{t,hi} = case(R_{t,lo}, R_{M(t),lo}), as the rule is
    linear, -I_lo[t] = (-1)^rho(t,hi) R_{t,lo}, and M(t) != t has rank
    rho(t) +- 1: that is ``is_calculating(M, R^x, hi)``, the R recursion
    driven by M (refinement independence, Brenti-Caselli-Marietti,
    Adv. Math. 202, 2006), on the kept R-table's ``rule_columns``.  At t = hi
    it compares R_{hi,hi} with R_{lo,lo}, both 1 by the kernel verdict.
    No t outside the ideal of hi can fail, since ideal(hi) is closed under
    M.  Where M fixes u it is clause (c') of ``check_updown`` at u, part
    of the up-down verdict that the context requires, and is not checked
    again.

    Five identities are not checked, because the context is built only
    when they hold or because they hold for any table:

    * iota^x o j_P = j_P o iota^z: at m_u it says
      R^x_{t,u} = (-1)^rho q^rho R^z_{t,u}(1/q), rho = rho(t,u), for every
      t <= u (Deodhar's x-z transform).  At x = q that is clause (3) of
      ``verify_r_properties``, whose verdict the context requires.  At
      x = -1, clause (1) gives deg R^(-1)_{t,u} = rho, and applying
      tilde_rho, an involution on the polynomials of degree <= rho, to
      clause (3) gives the transform; clause (3) also bounds
      deg R^q_{t,u} <= rho, so q^rho R^q_{t,u}(1/q) is a polynomial.
    * iota^x is an involution: iota^x(iota^x(m_v)) is
      sum_t (-1)^rho(t,v) [sum_z R_{t,z} q^rho(z,v) R_{z,v}(1/q)] m_t, and
      the bracket is delta_{t,v} because R^x is a P-kernel, which the
      kernel verdict proves.
    * C^x_w is iota-invariant: that says sum_v R_{t,v} P_{v,w} =
      q^rho(t,w) P_{t,w}(1/q), which kls_polynomials asserts for every pair
      as it builds P^x in the kernel verdict.
    * j_P(T_M .x m) = -q^(-1) T_M .z j_P(m) (twisted equivariance) reads
      only the kinds of M and the ranks.  On m_u with u = lo, up: both
      sides are (-1)^rho(hi) q^(-rho(hi)) m_hi, as rho(hi) = rho(lo) + 1.
      Down, u = hi: both are (-1)^rho(lo) q^(-rho(lo)-1) m_lo
      + (-1)^rho(hi) q^(-rho(hi)) (q^(-1) - 1) m_hi.  Fixed:
      bar(x) = -q^(-1) z for both x.  The system verdict proves the
      matchings quasi SPMs, so M(u) covers or is covered by u.
    * j_P(C^x_w) = (-1)^rho(w) C'^z_w: j_P of the coefficient of m_v in
      C^x_w is (-1)^rho(w) q^(-rho(w)/2) P^x_{v,w}, the coefficient in the
      right side, for any P^x.

    Before the first comparison the bound of iota on C'^x_w,
    n max L1(R) max L1(P), is asserted; it covers max L1(P), the bound of
    the C' it is compared with.
    """
    poset = ctx.poset
    ctx.require(poset.n * ctx.r_l1 * ctx.p_l1)
    for x in X_PARAMS:
        table = ctx.system.r_table(x)
        for u in range(poset.n):
            for mi, M in enumerate(ctx.system.matchings):
                mu = M(u)
                # fixed, or checked at mu
                if mu > u and not is_calculating(
                        M, table, mu if M.kind(u) == "up" else u)[0]:
                    return False, ("equivariance", (x, mi, u))
        for w in range(poset.n):
            cp = kl_element_cprime(ctx, w, x)
            if iota(ctx, cp, x) != cp:
                return False, ("iota-on-Cprime", (x, w))
    return True, None


# ---------------------------------------------------------------------------
# Recursion and characterization.
# ---------------------------------------------------------------------------

def cprime_recursion(ctx: HeckeContext, w: int, M: PartialMatching,
                     x: str) -> Vector:
    """Right-hand side of
    C'^x_w = C'_M . C'^x_{M(w)} - sum_u mu(u, M(w)) C'^x_u: the
    ``p_recursion`` column at half-exponent -rho(w), the shift
    kl_element_cprime applies to the kept column.  With P = P^z and
    C'_M = q^(-1/2) (T_M + 1), C'_M . C'^x_{M(w)} is q^(-rho(w)/2) times
    (T_M + 1) applied to column M(w) of P, which is how p_recursion
    builds it, through ``t_action``; mu(u, M(w)) C'^x_u is
    q^(-rho(w)/2) mu q^(rho(u,w)/2) P_{.,u}, its corrections.  So the
    coefficients stay below the bound that p_recursion asserts.
    """
    shift = ctx.width * (ctx.offset - ctx.poset.rank[w])
    return {v: c << shift for v, c in p_recursion(ctx, w, M, x).items()}


def p_recursion(ctx: HeckeContext, w: int, M: PartialMatching,
                x: str) -> Vector:
    """Right-hand side of the polynomial-level recursion
    P^z_{.,w} = (T_M + 1) P^z_{.,M(w)}
                - sum_u mu(u, M(w)) q^(rho(u,w)/2) P^z_{.,u},
    with T_M the x-action (``t_action``) on column M(w) as a module
    vector.  Entry by entry, P^z_{v,w} = P^z_{v',M(w)} + x_v P^z_{v'',M(w)}
    minus the corrections, where v' and v'' are the lower and upper of
    {v, M(v)} and x_v is x when M fixes v and q otherwise.  The result is
    the whole column, packed like ``ctx.packed_p(z)[w]``, nonzero entries
    only.

    The corrections run over the u <= M(w) at an odd rank gap that M moves
    down, or that M fixes when x = q, and mu(u, M(w)) is the coefficient
    of q^((gap-1)/2) in P^z_{u,M(w)} (the module docstring's convention),
    read off column M(w) of the system's P^z table.  The coefficients stay
    below max L1(P) (2 + sum |mu|), which is asserted once for the
    column."""
    poset = ctx.poset
    mw = M(w)
    if not poset.covers(mw, w):
        raise ValueError("p_recursion needs M(w) covered by w")
    z, rank, fixed_too = other_x(x), poset.rank, x == X_Q
    terms = []
    for u, poly in zip(poset.ideal_elements(mw),
                       ctx.system.p_table(z).columns[mw]):
        gap = rank[mw] - rank[u]
        if gap % 2 and ((kind := M.kind(u)) == "down"
                        or (fixed_too and kind == "fixed")):
            if m := poly.coeff((gap - 1) // 2):
                terms.append((u, m))
    ctx.require(ctx.p_l1 * (2 + sum(abs(m) for _, m in terms)))
    cols = ctx.packed_p(z)
    out = t_action(ctx, M, cols[mw], x)
    for v, p in cols[mw].items():
        out[v] = out.get(v, 0) + p
    for u, m in terms:
        shift = ctx.width * poset.rank_gap(u, w)
        for v, p in cols[u].items():
            out[v] = out.get(v, 0) - (m * p << shift)
    return {v: c for v, c in out.items() if c}


def verify_recursion(ctx: HeckeContext, xs):
    """The C' recursion against the directly built KL basis, for every x
    in xs, every non-minimal w and every M that takes w down: (True, None),
    or (False, ("cprime", (x, w))) at the first failure.  Both sides are
    P^z columns shifted alike (``cprime_recursion``), so this one
    comparison per (x, w, M) also checks the P recursion, entry by entry."""
    poset = ctx.poset
    for x in xs:
        for w in range(poset.n):
            if w == poset.bottom:
                continue
            want = kl_element_cprime(ctx, w, x)
            for M in ctx.system.down_matchings(w):
                if cprime_recursion(ctx, w, M, x) != want:
                    return False, ("cprime", (x, w))
    return True, None


def characterize(ctx: HeckeContext, D: Vector, w: int, x: str) -> bool:
    """True exactly when D is iota^x-invariant and has the normalized shape
    q^(-rho(w)/2) sum_v Q_{v,w} m_v with integer polynomials Q, Q_{w,w} = 1
    and deg Q_{v,w} < rho(v,w)/2.  Any vector passing both conditions must
    be C'^x_w, which is asserted.  Raises WidthError, through iota, when
    the coefficients of D are too large for the context's width."""
    poset = ctx.poset
    rw = poset.rank[w]
    if w not in D:
        return False
    for v, c in D.items():
        # the half-exponents of q^(rho(w)/2) c, those of Q_{v,w}
        d = {h + rw: a for h, a in _digits(c, ctx.width, -ctx.offset).items()}
        if any(h < 0 or h % 2 for h in d):
            return False
        if v == w:
            if d != {0: 1}:
                return False
        elif max(d) >= poset.rank_gap(v, w):
            return False
    if iota(ctx, D, x) != D:
        return False
    if D != kl_element_cprime(ctx, w, x):
        raise AssertionError(
            "characterization conditions hold but D differs from C'^x_w")
    return True
