"""Independent oracles used to freeze expected values.

The sympy oracles deliberately avoid the package's own polynomial types and
inversion code: polynomials are sympy expressions in q, and kernel inversion
is done by undetermined coefficients plus a linear solve, so a bug in the
production truncation recursion cannot hide.  Bruhat order comes from the
descent-lift recursion on group elements, not from the lifting rule that
builds the library's quotient and twisted-identity posets.

The reference path at the end keeps the R recursion, the kernel check,
kernel inversion, up-down check, iota and the per-v P recursion as they
were written on ``QPoly``/``HalfLaurent`` object arithmetic, before the
library moved to packed evaluation and hoisted mu-corrections.
Differential tests hold the library to the same results, witnesses and
``KernelError`` messages.  It also keeps the two refinement searches that
``klpoly.system_refinement`` replaced: the descent search over group
generators for a parabolic quotient, and the per-generator candidate search
over conjugation maps for twisted identities.
"""

from __future__ import annotations

from functools import lru_cache

import sympy

from pircons.hecke import ModuleVector
from pircons.klpoly import (X_MINUS_ONE, X_Q, KernelError, PolyTable,
                            Refinement, check_x, other_x)
from pircons.laurent import HalfLaurent, QPoly
from pircons.matchings import (MatchingError, PartialMatching, lambda_partial,
                               verify_spm)

q = sympy.Symbol("q")


def qpoly_expr(p) -> sympy.Expr:
    """A pircons QPoly as a sympy expression."""
    return sympy.expand(sum(c * q ** k for k, c in enumerate(p.coeffs())))


def chain_r_value(x: str, gap: int) -> sympy.Expr:
    """(q-1)(q-1-x)^(gap-1) for a chain pair with the given rank gap."""
    xv = q if x == "q" else -1
    return sympy.expand((q - 1) * (q - 1 - xv) ** (gap - 1))


def kernel_inversion(elements, leq, gap, r_value):
    """Solve for the half-degree-bounded inverse family by linear algebra.

    ``r_value(u, z)`` returns a sympy expression; the result maps comparable
    pairs to sympy expressions with P[u, u] = 1.  Raises if some pair admits
    no (or no unique) solution, i.e. the input is not a kernel.
    """
    P: dict[tuple, sympy.Expr] = {}
    pairs = [(u, v) for v in elements for u in elements if leq(u, v)]
    pairs.sort(key=lambda p: gap(p[0], p[1]))
    for u, v in pairs:
        g = gap(u, v)
        if g == 0:
            P[(u, v)] = sympy.Integer(1)
            continue
        unknowns = sympy.symbols(f"a0:{(g + 1) // 2}")
        cand = sum(a * q ** k for k, a in enumerate(unknowns))
        total = cand + sum(
            r_value(u, z) * P[(z, v)]
            for z in elements if z != u and leq(u, z) and leq(z, v))
        rhs = sympy.expand(q ** g * cand.subs(q, 1 / q))
        eqs = sympy.Poly(sympy.expand(total - rhs), q).all_coeffs()
        sol = sympy.solve(eqs, unknowns, dict=True)
        if len(sol) != 1:
            raise ValueError(f"no unique inverse at pair ({u}, {v})")
        P[(u, v)] = sympy.expand(cand.subs(sol[0]))
    return P


@lru_cache(maxsize=None)
def bruhat_leq(system, u: int, w: int) -> bool:
    """u <= w in the Bruhat order of a CoxeterSystem, by the descent-lift
    recursion with memoization over element-index pairs."""
    if u == w or u == 0:
        return True
    if system.length[u] >= system.length[w]:
        return False
    s = min(k for k in range(system.num_gens) if system.d_right[w] >> k & 1)
    ws = system.right[w][s]
    if system.d_right[u] >> s & 1:
        return bruhat_leq(system, system.right[u][s], ws)
    return bruhat_leq(system, u, ws)


def classical_r(system):
    """Classical R-polynomials of a finite Coxeter group, by the textbook
    left-descent recursion; no matchings involved anywhere."""

    @lru_cache(maxsize=None)
    def R(u: int, w: int) -> sympy.Expr:
        if u == w:
            return sympy.Integer(1)
        if not bruhat_leq(system, u, w):
            return sympy.Integer(0)
        s = min(system.left_descents(w))
        sw = system.left[w][s]
        su = system.left[u][s]
        if system.length[su] < system.length[u]:
            return R(su, sw)
        return sympy.expand((q - 1) * R(u, sw) + q * R(su, sw))

    return R


def classical_kl(system):
    """Classical Kazhdan-Lusztig P-polynomials of a finite Coxeter group,
    as sympy expressions keyed by element-index pairs."""
    R = classical_r(system)
    elements = list(range(system.size))
    return kernel_inversion(
        elements, lambda u, w: bruhat_leq(system, u, w),
        lambda u, w: system.length[w] - system.length[u], R)


def table_inversion(table):
    """Brute-force inverse family of a pircons PolyTable, sympy-side."""
    poset = table.poset
    elements = list(range(poset.n))
    return kernel_inversion(
        elements, poset.leq, poset.rank_gap,
        lambda u, z: qpoly_expr(table.value(u, z)))


# ---------------------------------------------------------------------------
# Reference path: the object-arithmetic R recursion, kernel check and
# inversion.
# ---------------------------------------------------------------------------

_ONE = QPoly((1,))
_Q = QPoly((0, 1))


def q_minus_one_minus_x(x: str) -> QPoly:
    """q-1-x as a polynomial: q when x = -1, the constant -1 when x = q."""
    return _Q if check_x(x) == X_MINUS_ONE else QPoly((-1,))


def _rhs_by_cases(M: PartialMatching, table: PolyTable,
                  u: int, w: int, factor: QPoly) -> QPoly:
    """Right-hand side of the recursion at (u, w) driven by M; M(w) < w."""
    mu, mw = M(u), M(w)
    kind = M.kind(u)
    if kind == "down":
        return table.value(mu, mw)
    if kind == "up":
        return (_Q - _ONE) * table.value(u, mw) + _Q * table.value(mu, mw)
    return factor * table.value(u, mw)


def r_polynomials(poset, refinement: Refinement, x: str) -> PolyTable:
    """The unique R^x family of the refined pircon (P, refinement), one
    QPoly product or sum per pair."""
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


def check_pkernel(table: PolyTable):
    """sum_z R_{u,z} q^(rho(z,v)) R_{z,v}(1/q) = delta_{u,v}, exactly.

    The sum is computed in HalfLaurent to absorb the temporary negative
    powers, then compared against 0 or 1.
    """
    poset = table.poset
    for v in range(poset.n):
        for u in poset.ideal_elements(v):
            acc = HalfLaurent.zero()
            for z in poset.elements_of(poset.interval_mask(u, v)):
                term = table.value(u, z).to_half_laurent() \
                    * table.value(z, v).bar_half()
                acc = acc + term.shift(2 * poset.rank_gap(z, v))
            want = HalfLaurent.one() if u == v else HalfLaurent.zero()
            if acc != want:
                return False, ("kernel", (u, v))
    return True, None


def kls_polynomials(table: PolyTable) -> PolyTable:
    """Kernel inversion: the unique unitary family below half degree.

    For each pair u < v set G = sum_{u < z <= v} R_{u,z} P_{z,v}; the low
    part of G (degrees below rho(u,v)/2) determines P_{u,v} = -low(G), and
    the whole of G must then equal tilde(P) - P.  A failure of that identity
    means the input was not a P-kernel and raises KernelError.
    """
    poset = table.poset
    out = PolyTable(poset, table.x, {})
    for v in range(poset.n):
        out.entries[(v, v)] = _ONE
        below = sorted((u for u in poset.ideal_elements(v) if u != v),
                       key=lambda u: -poset.rank[u])
        for u in below:
            gap = poset.rank_gap(u, v)
            G = QPoly.zero()
            for z in poset.elements_of(poset.interval_mask(u, v)):
                if z == u:
                    continue
                G = G + table.value(u, z) * out.entries[(z, v)]
            P = -QPoly(c if 2 * k < gap else 0
                       for k, c in enumerate(G.coeffs()))
            if G != P.tilde(gap) - P:
                raise KernelError(
                    f"not a P-kernel at pair ({poset.labels[u]!r}, "
                    f"{poset.labels[v]!r})")
            out.entries[(u, v)] = P
    return out


def check_updown(matchings, table: PolyTable):
    """The flipped recursion, clauses (a'), (b'), (c'), on every matching,
    scanned in the library's order with QPoly arithmetic."""
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


@lru_cache(maxsize=None)
def _iota_basis(ctx, x: str) -> list:
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
    return images


def iota(ctx, v, x: str):
    """iota^x(m_v) = q^(-rho(v)) sum_u (-1)^(rho(u,v)) R^x_{u,v} m_u,
    extended bar-semilinearly, on ModuleVector objects."""
    images = _iota_basis(ctx, x)
    out = ModuleVector.zero()
    for u, c in v.coeffs.items():
        out = out + images[u].scale(c.bar())
    return out


def p_recursion(ctx, v: int, w: int, M, x: str) -> QPoly:
    """Right-hand side of the P recursion at (v, w), with the correction
    domain and the mu-coefficients recomputed on every call."""
    poset = ctx.poset
    mw = M(w)
    if not poset.covers(mw, w):
        raise ValueError("p_recursion needs M(w) covered by w")
    if not poset.leq(v, w):
        raise ValueError("p_recursion needs v <= w")
    pz = ctx.p_table(other_x(x))
    mv = M(v)
    if mv == v:
        v_lo = v_hi = v
        xv = QPoly((0, 1)) if x == X_Q else QPoly((-1,))
    else:
        v_lo, v_hi = (mv, v) if poset.lt(mv, v) else (v, mv)
        xv = QPoly((0, 1))
    out = pz.value(v_lo, mw) + xv * pz.value(v_hi, mw)
    for u in poset.ideal_elements(mw):
        kind = M.kind(u)
        if not (kind == "down" or (kind == "fixed" and x == X_Q)):
            continue
        m = ctx.mu(u, mw, x)
        if m:
            out = out - m * QPoly.monomial(poset.rank_gap(u, w) // 2) \
                * pz.value(v, u)
    return out


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


def _ideal_matching(tw, images: dict[int, int],
                    w: int) -> PartialMatching | None:
    ideal = tw.poset.down_set(w)
    mapping = {u: images[u] for u in tw.poset.ideal_elements(w)}
    if any(not ideal >> v & 1 for v in mapping.values()):
        return None
    m = PartialMatching(tw.poset, mapping)
    ok, _ = verify_spm(m)
    return m if ok else None


def conjugation_refinement(tw, pick=min) -> Refinement:
    """One valid conjugation matching per non-minimal element of the
    twisted identities ``tw``."""
    images = [tw.conjugation_images(i)
              for i in range(tw.host.num_gens)]
    matchings = {}
    for w in range(tw.poset.n):
        if w == tw.poset.bottom:
            continue
        cands = {}
        for i, image in enumerate(images):
            got = _ideal_matching(tw, image, w)
            if got is not None:
                cands[i] = got
        if not cands:
            raise MatchingError(
                f"no conjugation matching at {tw.poset.labels[w]}")
        matchings[w] = cands[pick(cands)]
    return Refinement(tw.poset, matchings)
