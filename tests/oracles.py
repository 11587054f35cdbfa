"""Independent oracles used to freeze expected values.

The sympy oracles deliberately avoid the package's own polynomial types and
inversion code: polynomials are sympy expressions in q, and kernel inversion
is done by undetermined coefficients plus a linear solve, so a bug in the
production truncation recursion cannot hide.  Bruhat order comes from the
descent-lift recursion on group elements, not from the lifting rule that
builds the library's quotient and twisted-identity posets.

The reference path at the end keeps the R recursion, the kernel check,
kernel inversion, up-down check and the whole Hecke layer (module-vector
arithmetic, the T actions, iota, j_P, the KL elements, the relation and
duality suites and both recursions) as they were written on
``QPoly``/``HalfLaurent`` object arithmetic, before the library moved to
packed evaluation and hoisted mu-corrections.  ``HalfLaurent`` and
``ModuleVector`` here extend the library's decoded types with that
arithmetic.  Differential tests hold the library to the same results,
witnesses and ``KernelError`` messages.  It also keeps the two refinement
searches that ``klpoly.system_refinement`` replaced: the descent search
over group generators for a parabolic quotient, and the per-generator
candidate search over conjugation maps for twisted identities, and that
rule as it was when a refinement held a copy of each matching restricted
to its ideal.  ``refinement_independence``, which the library no longer
exports, compares the library's R tables under several refinements.  The
polynomial ring operations that the library dropped, and its table keyed
by (u, w) with that table's writers, are kept as references for the
column tables.  It keeps the group tabulation that
``coxeter.CoxeterSystem`` replaced: every Cayley edge realized from both
ends, with every derived table built eagerly, among them the inverse,
left-multiplication, left-descent and word tables that the group no longer
keeps; products, lex-least words and a parabolic quotient's reps, lambda
images and labels are read off them.  Last, it keeps the two system
checks as they were before their memos: ``verify_pircon_system``
deciding strict coherence afresh on the restrictions at every w, with
``strictly_coherent`` as it was before it classified each orbit once, and
``verify_r_properties`` deciding every row.
"""

from __future__ import annotations

import copy
import csv
import io
from functools import lru_cache

import sympy

from pircons import coxeter, hecke, klpoly, laurent
from pircons.klpoly import (X_MINUS_ONE, X_PARAMS, X_Q, KernelError,
                            PirconSystem, PolyTable, Refinement, _width_for,
                            check_x, down_matchings, is_calculating, other_x)
from pircons.laurent import QPoly
from pircons.matchings import (MatchingError, PartialMatching, coherent,
                               enumerate_spms, orbit_analysis,
                               orbit_partition, verify_qspm, verify_spm)

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
    left-descent recursion on the eager tables; no matchings involved
    anywhere."""
    tables = group_tables(system)
    left, d_left = tables["left"], tables["d_left"]

    @lru_cache(maxsize=None)
    def R(u: int, w: int) -> sympy.Expr:
        if u == w:
            return sympy.Integer(1)
        if not bruhat_leq(system, u, w):
            return sympy.Integer(0)
        s = (d_left[w] & -d_left[w]).bit_length() - 1
        sw = left[w][s]
        su = left[u][s]
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
# Reference scalars: HalfLaurent with its ring operations and bar.
# ---------------------------------------------------------------------------

class HalfLaurent(laurent.HalfLaurent):
    """The library's decoded HalfLaurent with the object arithmetic the
    reference path computes in; compares equal to a library value with the
    same coefficients."""

    __slots__ = ()

    @classmethod
    def zero(cls) -> "HalfLaurent":
        return cls()

    @classmethod
    def one(cls) -> "HalfLaurent":
        return cls({0: 1})

    @classmethod
    def from_int(cls, n: int) -> "HalfLaurent":
        return cls({0: n})

    @classmethod
    def q_power(cls, k: int) -> "HalfLaurent":
        """q^k, an integer power."""
        return cls({2 * k: 1})

    @classmethod
    def half_power(cls, h: int) -> "HalfLaurent":
        """q^(h/2) for any integer h."""
        return cls({h: 1})

    @classmethod
    def lift(cls, c: laurent.HalfLaurent) -> "HalfLaurent":
        return cls(c.terms())

    def __add__(self, other: laurent.HalfLaurent) -> "HalfLaurent":
        if not isinstance(other, laurent.HalfLaurent):
            return NotImplemented
        data = self.terms()
        for h, c in other.terms().items():
            data[h] = data.get(h, 0) + c
        return HalfLaurent(data)

    def __neg__(self) -> "HalfLaurent":
        return self.scale(-1)

    def __sub__(self, other: laurent.HalfLaurent) -> "HalfLaurent":
        return self + HalfLaurent.lift(other).scale(-1)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, laurent.HalfLaurent):
            return NotImplemented
        data: dict[int, int] = {}
        for h1, c1 in self.terms().items():
            for h2, c2 in other.terms().items():
                data[h1 + h2] = data.get(h1 + h2, 0) + c1 * c2
        return HalfLaurent(data)

    __rmul__ = __mul__

    def scale(self, n: int) -> "HalfLaurent":
        return HalfLaurent({h: n * c for h, c in self.terms().items()})

    def shift(self, h: int) -> "HalfLaurent":
        """Multiply by q^(h/2)."""
        return HalfLaurent({k + h: c for k, c in self.terms().items()})

    def bar(self) -> "HalfLaurent":
        """The involution sending q^(1/2) to q^(-1/2)."""
        return HalfLaurent({-h: c for h, c in self.terms().items()})

    def support(self) -> list[int]:
        return sorted(self.terms())

    def is_q_polynomial(self) -> bool:
        """True when all exponents are integral and nonnegative."""
        return all(h >= 0 and h % 2 == 0 for h in self.terms())

    def to_qpoly(self) -> QPoly:
        if not self.is_q_polynomial():
            raise ValueError(f"{self} does not lie in Z[q]")
        terms = self.terms()
        out = [0] * (max(terms, default=-2) // 2 + 1)
        for h, c in terms.items():
            out[h // 2] = c
        return QPoly(out)


def embed(p: QPoly) -> HalfLaurent:
    """A polynomial in q as a HalfLaurent, at even half-exponents."""
    return HalfLaurent({2 * k: c for k, c in enumerate(p.coeffs())})


# ---------------------------------------------------------------------------
# Reference tables: the ring operations of QPoly that the library does not
# use, and the table keyed by (u, w) that it stored before columns.
# ---------------------------------------------------------------------------

def add(a: QPoly, b: QPoly) -> QPoly:
    a, b = a.coeffs(), b.coeffs()
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] += v
    return QPoly(out)


def neg(a: QPoly) -> QPoly:
    return QPoly(-v for v in a.coeffs())


def sub(a: QPoly, b: QPoly) -> QPoly:
    return add(a, neg(b))


def mul(a, b) -> QPoly:
    """The product of two QPoly, or of a QPoly and an int."""
    if isinstance(a, int):
        a = QPoly((a,))
    if isinstance(b, int):
        b = QPoly((b,))
    a, b = a.coeffs(), b.coeffs()
    if not a or not b:
        return QPoly.zero()
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return QPoly(out)


def power(a: QPoly, n: int) -> QPoly:
    if n < 0:
        raise ValueError("negative power of a polynomial")
    result = QPoly.one()
    for _ in range(n):
        result = mul(result, a)
    return result


def monomial(k: int, c: int = 1) -> QPoly:
    """c q^k."""
    return QPoly([0] * k + [c])


def entries(table: PolyTable) -> dict:
    """A table's entries keyed by comparable pair (u, w): column w zipped
    with the ideal of w."""
    ideal = table.poset.ideal_elements
    return {(u, w): poly for w, col in enumerate(table.columns)
            for u, poly in zip(ideal(w), col)}


def pairs(table: PolyTable) -> list[tuple[int, int]]:
    """The comparable pairs of a table's poset, sorted."""
    return sorted(entries(table))


def replaced(table: PolyTable, changes: dict) -> PolyTable:
    """A new table with the entries at the pairs of ``changes`` replaced."""
    got = entries(table)
    got.update(changes)
    return PolyTable.from_entries(table.poset, table.x, got)


def nudged(table: PolyTable, pair: tuple[int, int],
           delta: QPoly) -> PolyTable:
    """A new table with ``delta`` added to the entry at ``pair``."""
    return replaced(table, {pair: add(table.value(*pair), delta)})


def private_system(source) -> PirconSystem:
    """A system of its own with the matchings and refinement of
    ``source.system`` (a quotient's or twisted identities'), and nothing
    kept yet: the system to swap tables on, so that the source's kept
    system, which other tests read, stays genuine."""
    return PirconSystem(source.poset, source.system.matchings,
                        source.system.refinement)


def keep_table(system, name: str, x: str, table: PolyTable) -> None:
    """Put ``table`` in place of the system's kept R^x (``name`` is
    "r_table") or P^x ("p_table"), after the verdicts taken on the genuine
    tables.  A new R^x brings its own rule columns, so the rule checks
    read it.  ``system`` must be one no other test reads, such as a
    ``private_system``."""
    getattr(system, name)(x)
    if name == "r_table":
        system._kept[("r", x)] = table
    else:
        ok, witness, _ = system._kept[("pkernel", x)]
        system._kept[("pkernel", x)] = ok, witness, table


class DictTable:
    """A PolyTable as a dict keyed by comparable pair, with the value, pair
    order and writers that the library had on that dict."""

    def __init__(self, poset, x: str, got: dict | None = None):
        self.poset, self.x, self.entries = poset, x, dict(got or {})

    @classmethod
    def of(cls, table: PolyTable) -> "DictTable":
        return cls(table.poset, table.x, entries(table))

    def table(self) -> PolyTable:
        return PolyTable.from_entries(self.poset, self.x, self.entries)

    def value(self, u: int, w: int) -> QPoly:
        got = self.entries.get((u, w))
        if got is not None:
            return got
        if not self.poset.leq(u, w):
            return QPoly.zero()
        raise KeyError(f"table has no entry for comparable pair ({u},{w})")

    def pairs(self) -> list[tuple[int, int]]:
        return sorted(self.entries)

    def to_json(self) -> dict:
        labs = self.poset.labels
        return {"poset": self.poset.to_json(), "x": self.x,
                "entries": [[labs[u], labs[w], self.entries[(u, w)].to_json()]
                            for u, w in self.pairs()]}

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["u", "w", "coefficients"])
        labs = self.poset.labels
        for u, w in self.pairs():
            coeffs = self.entries[(u, w)].coeffs()
            writer.writerow([labs[u], labs[w], " ".join(map(str, coeffs))])
        return buf.getvalue()


# ---------------------------------------------------------------------------
# Reference path: the object-arithmetic R recursion, kernel check and
# inversion.
# ---------------------------------------------------------------------------

_ONE = QPoly((1,))
_Q = QPoly((0, 1))
_Q_MINUS_ONE = QPoly((-1, 1))


def q_minus_one_minus_x(x: str) -> QPoly:
    """q-1-x as a polynomial: q when x = -1, the constant -1 when x = q."""
    return _Q if check_x(x) == X_MINUS_ONE else QPoly((-1,))


def _rhs_by_cases(M: PartialMatching, table: DictTable,
                  u: int, w: int, factor: QPoly) -> QPoly:
    """Right-hand side of the recursion at (u, w) driven by M; M(w) < w."""
    mu, mw = M(u), M(w)
    kind = M.kind(u)
    if kind == "down":
        return table.value(mu, mw)
    if kind == "up":
        return add(mul(_Q_MINUS_ONE, table.value(u, mw)),
                   mul(_Q, table.value(mu, mw)))
    return mul(factor, table.value(u, mw))


def r_polynomials(poset, refinement: Refinement, x: str) -> PolyTable:
    """The unique R^x family of the refined pircon (P, refinement), one
    QPoly product or sum per pair."""
    check_x(x)
    factor = q_minus_one_minus_x(x)
    table = DictTable(poset, x)
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
    return table.table()


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
                term = embed(table.value(u, z)) \
                    * embed(table.value(z, v)).bar()
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
    out = DictTable(poset, table.x)
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
                G = add(G, mul(table.value(u, z), out.entries[(z, v)]))
            P = neg(QPoly(c if 2 * k < gap else 0
                          for k, c in enumerate(G.coeffs())))
            if G != sub(P.tilde(gap), P):
                raise KernelError(
                    f"not a P-kernel at pair ({poset.labels[u]!r}, "
                    f"{poset.labels[v]!r})", (u, v))
            out.entries[(u, v)] = P
    return out.table()


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
                    rhs = add(mul(_Q_MINUS_ONE, table.value(M(u), w)),
                              mul(_Q, table.value(M(u), mw)))
                else:
                    rhs = mul(factor, table.value(M(u), w))
                if lhs != rhs:
                    clause = {"up": "a'", "down": "b'", "fixed": "c'"}[kw]
                    return False, ("updown-" + clause, (mi, u, w))
    return True, None


# ---------------------------------------------------------------------------
# Reference path: the Hecke layer on ModuleVector objects.
# ---------------------------------------------------------------------------

class ModuleVector(hecke.ModuleVector):
    """The library's decoded ModuleVector with the object arithmetic of the
    reference path; coefficients are the HalfLaurent above."""

    __slots__ = ()

    def __init__(self, coeffs=None):
        super().__init__({u: HalfLaurent.lift(c)
                          for u, c in (coeffs or {}).items()})

    @classmethod
    def zero(cls) -> "ModuleVector":
        return cls()

    @classmethod
    def basis(cls, u: int) -> "ModuleVector":
        return cls({u: HalfLaurent.one()})

    @classmethod
    def lift(cls, v: hecke.ModuleVector) -> "ModuleVector":
        return cls(v.coeffs)

    def __add__(self, other: hecke.ModuleVector) -> "ModuleVector":
        data = dict(self.coeffs)
        for u, c in other.coeffs.items():
            data[u] = data.get(u, HalfLaurent.zero()) + c
        return ModuleVector(data)

    def __sub__(self, other: hecke.ModuleVector) -> "ModuleVector":
        return self + ModuleVector.lift(other).scale(HalfLaurent.from_int(-1))

    def scale(self, a: laurent.HalfLaurent) -> "ModuleVector":
        return ModuleVector({u: c * a for u, c in self.coeffs.items()})

    def shift(self, h: int) -> "ModuleVector":
        """Multiply by q^(h/2)."""
        return ModuleVector({u: c.shift(h) for u, c in self.coeffs.items()})


def pack(ctx, v: hecke.ModuleVector) -> dict[int, int]:
    """The packed form of a decoded vector at ctx's width and offset, the
    inverse of ``ctx.decode``; asserts that every coefficient fits the
    width and every term the offset."""
    width, offset = ctx.width, ctx.offset
    out = {}
    for u, c in v.coeffs.items():
        terms = c.terms()
        ctx.require(max(map(abs, terms.values())))
        if min(terms) < -offset:
            raise hecke.OffsetError(f"term q^({min(terms)}/2) below offset")
        out[u] = sum(a << width * (h + offset) for h, a in terms.items())
    return out


def widened(ctx, op, v, growth=1):
    """op on v packed at the narrowest width, from ctx's up, at which v
    packs and op's bounds fit, the result decoded.  The offset is ctx's
    plus the largest |half-exponent| in v, which holds every term op
    makes: ctx's offset covers q^(-rho) and the q^(-1) shifts.
    ``growth`` bounds how much op multiplies a coefficient, for the ops
    that assert no bound of their own (the caller's bound, as in the
    checks)."""
    terms = [t for c in v.coeffs.values() for t in c.terms().items()]
    top = max((abs(a) for _, a in terms), default=0)
    reach = max((abs(h) for h, _ in terms), default=0)
    width = ctx.width
    while True:
        wide = copy.copy(ctx)
        wide.offset = ctx.offset + reach
        wide._set_width(width)
        try:
            wide.require(growth * top)
            return ModuleVector.lift(wide.decode(op(wide, pack(wide, v))))
        except hecke.WidthError as exc:
            width = max(_width_for(exc.args[0]), 2 * width)


def t_action(ctx, M, v, x: str) -> ModuleVector:
    """T_M acting in the x-structure, extended linearly."""
    out = ModuleVector.zero()
    for u, c in v.coeffs.items():
        kind = M.kind(u)
        if kind == "up":
            out = out + ModuleVector({M(u): c})
        elif kind == "down":
            qc = c.shift(2)
            out = out + ModuleVector({M(u): qc, u: qc - c})
        else:
            out = out + ModuleVector({u: c.shift(2) if x == X_Q else -c})
    return out


def t_inverse_action(ctx, M, v, x: str) -> ModuleVector:
    """T_M^(-1) = q^(-1) T_M + (q^(-1) - 1)."""
    return (t_action(ctx, M, v, x) + v).shift(-2) - v


def cprime_generator_action(ctx, M, v, x: str) -> ModuleVector:
    """C'_M = q^(-1/2) (T_M + 1)."""
    return (t_action(ctx, M, v, x) + v).shift(-1)


def verify_hecke_relations(ctx, x: str):
    """Quadratic and braid relations on every basis vector."""
    n = ctx.poset.n
    for mi, M in enumerate(ctx.system.matchings):
        for u in range(n):
            v = ModuleVector.basis(u)
            tv = t_action(ctx, M, v, x)
            lhs = t_action(ctx, M, tv, x)
            rhs = tv.shift(2) - tv + v.shift(2)
            if lhs != rhs:
                return False, ("quadratic", (mi, u))
    for (i, j), m in ctx.m_orders.items():
        M, N = ctx.system.matchings[i], ctx.system.matchings[j]
        for u in range(n):
            lhs = ModuleVector.basis(u)
            rhs = ModuleVector.basis(u)
            for k in range(m):
                lhs = t_action(ctx, M if k % 2 == 0 else N, lhs, x)
                rhs = t_action(ctx, N if k % 2 == 0 else M, rhs, x)
            if lhs != rhs:
                return False, ("braid", (i, j, u))
    return True, None


@lru_cache(maxsize=None)
def _iota_basis(ctx, x: str) -> list:
    poset = ctx.poset
    table = ctx.system.r_table(x)
    images = []
    for v in range(poset.n):
        coeffs = {}
        for u in poset.ideal_elements(v):
            gap = poset.rank_gap(u, v)
            coeffs[u] = embed(table.value(u, v)) \
                .scale((-1) ** gap).shift(-2 * poset.rank[v])
        images.append(ModuleVector(coeffs))
    return images


def iota(ctx, v, x: str) -> ModuleVector:
    """iota^x(m_v) = q^(-rho(v)) sum_u (-1)^(rho(u,v)) R^x_{u,v} m_u,
    extended bar-semilinearly, on ModuleVector objects."""
    images = _iota_basis(ctx, x)
    out = ModuleVector.zero()
    for u, c in v.coeffs.items():
        out = out + images[u].scale(HalfLaurent.lift(c).bar())
    return out


def j_map(ctx, v) -> ModuleVector:
    """j_P(a m_w) = bar(a) (-q^(-1))^rho(w) m_w."""
    rank = ctx.poset.rank
    return ModuleVector({
        w: HalfLaurent.lift(c).bar().shift(-2 * rank[w]).scale((-1) ** rank[w])
        for w, c in v.coeffs.items()})


def kl_element_c(ctx, w: int, x: str) -> ModuleVector:
    """C^x_w = q^(rho(w)/2) sum_v (-1)^(rho(v,w)) q^(-rho(v))
    bar(P^x_{v,w}) m_v."""
    poset = ctx.poset
    table = ctx.system.p_table(x)
    return ModuleVector({
        v: embed(table.value(v, w)).bar().scale((-1) ** poset.rank_gap(v, w))
        .shift(poset.rank[w] - 2 * poset.rank[v])
        for v in poset.ideal_elements(w)})


def kl_element_cprime(ctx, w: int, x: str) -> ModuleVector:
    """C'^x_w = q^(-rho(w)/2) sum_v P^z_{v,w} m_v."""
    poset = ctx.poset
    table = ctx.system.p_table(other_x(x))
    return ModuleVector({v: embed(table.value(v, w)).shift(-poset.rank[w])
                         for v in poset.ideal_elements(w)})


def iota_j_conjugation(ctx, u: int, x: str) -> bool:
    """iota^x(j_P(m_u)) = j_P(iota^z(m_u)): the x-z transform of the
    R-tables, which the context's properties verdict proves."""
    v = ModuleVector.basis(u)
    return iota(ctx, j_map(ctx, v), x) == j_map(ctx, iota(ctx, v, other_x(x)))


def equivariance(ctx, M, u: int, x: str) -> bool:
    """iota^x(T_M . m_u) = T_M^(-1) . iota^x(m_u)."""
    v = ModuleVector.basis(u)
    return iota(ctx, t_action(ctx, M, v, x), x) == \
        t_inverse_action(ctx, M, iota(ctx, v, x), x)


def twisted_equivariance(ctx, M, u: int, x: str) -> bool:
    """j_P(T_M .x m_u) = -q^(-1) T_M .z j_P(m_u)."""
    v = ModuleVector.basis(u)
    rhs = t_action(ctx, M, j_map(ctx, v), other_x(x)) \
        .scale(HalfLaurent({-2: -1}))
    return j_map(ctx, t_action(ctx, M, v, x)) == rhs


def j_on_c(ctx, w: int, x: str) -> bool:
    """j_P(C^x_w) = (-1)^rho(w) C'^z_w."""
    sign = HalfLaurent.from_int((-1) ** ctx.poset.rank[w])
    return j_map(ctx, kl_element_c(ctx, w, x)) == \
        kl_element_cprime(ctx, w, other_x(x)).scale(sign)


def verify_duality(ctx):
    """The library's two involution identities on module vectors, in its
    order.  Equivariance is checked wherever M moves u; the library checks
    each such pair at its first element only, and both elements give the
    same identity.  Where M fixes u it is part of the up-down verdict.  The
    other clauses are kept above: ``iota_j_conjugation``, which the
    properties verdict proves, and ``twisted_equivariance`` and ``j_on_c``,
    which hold for any tables."""
    n = ctx.poset.n
    for x in X_PARAMS:
        for u in range(n):
            for mi, M in enumerate(ctx.system.matchings):
                if M(u) != u and not equivariance(ctx, M, u, x):
                    return False, ("equivariance", (x, mi, u))
        for w in range(n):
            cp = kl_element_cprime(ctx, w, x)
            if iota(ctx, cp, x) != cp:
                return False, ("iota-on-Cprime", (x, w))
    return True, None


def mu(ctx, u: int, w: int, x: str) -> int:
    """The coefficient of q^((rho(u,w)-1)/2) in P^z_{u,w}; zero for even
    rank gaps, u = w, or incomparable pairs."""
    poset = ctx.poset
    if u == w or not poset.leq(u, w):
        return 0
    gap = poset.rank_gap(u, w)
    if gap % 2 == 0:
        return 0
    return ctx.system.p_table(other_x(x)).value(u, w).coeff((gap - 1) // 2)


def _corrections(ctx, M, mw: int, x: str) -> list:
    """[(u, mu(u, M(w)))] with mu nonzero, recomputed on every call."""
    out = []
    for u in ctx.poset.ideal_elements(mw):
        kind = M.kind(u)
        if kind == "down" or (kind == "fixed" and x == X_Q):
            m = mu(ctx, u, mw, x)
            if m:
                out.append((u, m))
    return out


def cprime_recursion(ctx, w: int, M, x: str) -> ModuleVector:
    """C'_M . C'^x_{M(w)} - sum_u mu(u, M(w)) C'^x_u."""
    mw = M(w)
    if not ctx.poset.covers(mw, w):
        raise ValueError("cprime_recursion needs M(w) covered by w")
    out = cprime_generator_action(ctx, M, kl_element_cprime(ctx, mw, x), x)
    for u, m in _corrections(ctx, M, mw, x):
        out = out - kl_element_cprime(ctx, u, x).scale(HalfLaurent.from_int(m))
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
    pz = ctx.system.p_table(other_x(x))
    mv = M(v)
    if mv == v:
        v_lo = v_hi = v
        xv = QPoly((0, 1)) if x == X_Q else QPoly((-1,))
    else:
        v_lo, v_hi = (mv, v) if poset.lt(mv, v) else (v, mv)
        xv = QPoly((0, 1))
    out = add(pz.value(v_lo, mw), mul(xv, pz.value(v_hi, mw)))
    for u, m in _corrections(ctx, M, mw, x):
        out = sub(out, mul(monomial(poset.rank_gap(u, w) // 2, m),
                           pz.value(v, u)))
    return out


def verify_recursion(ctx, xs):
    """Where the C' or the P recursion first disagrees with the directly
    built KL basis, scanned in the library's order: (True, None) or
    (False, witness)."""
    poset = ctx.poset
    for x in xs:
        pz = ctx.system.p_table(other_x(x))
        for w in range(poset.n):
            if w == poset.bottom:
                continue
            want = kl_element_cprime(ctx, w, x)
            for M in ctx.system.down_matchings(w):
                if cprime_recursion(ctx, w, M, x) != want:
                    return False, ("cprime", (x, w))
                for v in poset.ideal_elements(w):
                    if p_recursion(ctx, v, w, M, x) != pz.value(v, w):
                        return False, ("p", (x, v, w))
    return True, None


def lambda_refinement(quot, pick=min) -> Refinement:
    """Refinement of a parabolic quotient by left multiplication matchings.

    ``pick`` selects among the generators s whose matching takes w down;
    the default takes the smallest, giving the canonical refinement.
    """
    poset = quot.poset
    group = quot.group
    left = group_tables(group)["left"]
    in_quotient = set(quot.reps)

    def choose(w: int) -> PartialMatching:
        cands = []
        for s in range(group.num_gens):
            sw = left[quot.reps[w]][s]
            if sw in in_quotient and \
                    group.length[sw] < group.length[quot.reps[w]]:
                cands.append(s)
        if not cands:
            raise ValueError(f"no descent inside the quotient at {w}")
        images = quot.images[pick(cands)]
        m = PartialMatching(poset, {u: images[u]
                                    for u in poset.ideal_elements(w)})
        ok, witness = verify_spm(m)
        if not ok:
            raise MatchingError(f"lambda matching at {w} is not an SPM: "
                                f"{witness}")
        return m

    return Refinement(poset, {w: choose(w) for w in range(poset.n)
                              if w != poset.bottom})


def refinement_independence(poset, refinements, x: str):
    """Whether all listed refinements give the library identical R^x
    tables: (True, None), or (False, ("refinement-dependent", (i, [pair])))
    at the first refinement i and pair (u, w) that differ from the
    first."""
    if not refinements:
        raise ValueError("need at least one refinement")
    first = klpoly.r_polynomials(poset, refinements[0], x)
    for i, ref in enumerate(refinements[1:], start=1):
        other = klpoly.r_polynomials(poset, ref, x)
        if other != first:
            bad = next((u, w) for (u, w, a), (_, _, b)
                       in zip(first.rows(), other.rows()) if a != b)
            return False, ("refinement-dependent", (i, [bad]))
    return True, None


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
    images = [dict(enumerate(images)) for images in tw.images]
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


def is_strongly_calculating(M: PartialMatching, table: PolyTable):
    """``klpoly.is_calculating`` at every z in the domain with M(z)
    covered by z, on the table's one ``rule_columns``.  That check reads M
    only on the ideal of z, where M agrees with its restriction to the
    ideal (an SPM of it when M is a quasi SPM), so M is passed whole."""
    poset = table.poset
    for z in M.domain:
        if poset.covers(M(z), z):
            ok, witness = is_calculating(M, table, z)
            if not ok:
                return ok, witness
    return True, None


def restricted_refinement(poset, matchings) -> Refinement:
    """``klpoly.system_refinement`` as it was when a refinement held copies:
    at every non-minimal w, the first matching that takes w down,
    restricted to the ideal of w."""
    return Refinement(poset, {w: down_matchings(poset, matchings, w)[0]
                              .restrict_to_ideal(w)
                              for w in range(poset.n) if w != poset.bottom})


def coxeter_tables(config: dict) -> dict:
    """Every table of a Coxeter group, by breadth-first closure that
    realizes each (element, generator) pair once in the closure and again
    for the right table; the inverse is each word read backwards and left
    multiplication s w = (w^-1 s)^-1, all built eagerly."""
    real = coxeter._realization(config)
    r = real.rank
    ident = real.identity()
    elements = [ident]
    index = {ident: 0}
    length = [0]
    word: list[tuple[int, ...]] = [()]
    frontier = [0]
    while frontier:
        nxt = {}
        for i in frontier:
            for k in range(r):
                img = real.right(elements[i], k)
                if img not in index and img not in nxt:
                    nxt[img] = (i, k)
        for img in sorted(nxt):
            i, k = nxt[img]
            index[img] = len(elements)
            elements.append(img)
            length.append(length[i] + 1)
            word.append(word[i] + (k,))
        frontier = [index[img] for img in sorted(nxt)]
    n = len(elements)
    right = tuple(tuple(index[real.right(elements[i], k)] for k in range(r))
                  for i in range(n))
    inv = []
    for w in range(n):
        u = 0
        for k in reversed(word[w]):
            u = right[u][k]
        inv.append(u)
    inv = tuple(inv)
    left = tuple(tuple(inv[j] for j in right[inv[w]]) for w in range(n))

    def descents(table):
        return tuple(sum(1 << k for k in range(r)
                         if length[table[i][k]] < length[i])
                     for i in range(n))

    return {"elements": tuple(elements), "length": tuple(length),
            "word": tuple(word), "right": right, "_inv": inv, "left": left,
            "d_right": descents(right), "d_left": descents(left)}


@lru_cache(maxsize=None)
def group_tables(group) -> dict:
    """``coxeter_tables`` of a tabulated ``CoxeterSystem``, built once per
    group.  The numbering is the group's (``test_tabulation``), so the
    inverse, left, left-descent and word tables index its elements."""
    return coxeter_tables(group.config)


def group_product(group, u: int, v: int) -> int:
    """u v: u multiplied on the right by each letter of the eager word of
    v."""
    for k in group_tables(group)["word"][v]:
        u = group.right[u][k]
    return u


def lex_least_word(tables: dict, w: int) -> tuple[int, ...]:
    """The lexicographically least reduced word of w in ``coxeter_tables``
    output, built greedily: the lowest left descent s of w, then that of
    s w."""
    word = []
    while tables["length"][w]:
        d = tables["d_left"][w]
        s = (d & -d).bit_length() - 1
        word.append(s)
        w = tables["left"][w][s]
    return tuple(word)


def quotient_maps(tables: dict, H) -> tuple:
    """``ParabolicQuotient``'s reps, lambda images and labels from the eager
    tables: the elements with no right descent in H, sorted by length and
    lex-least word; lambda_s(w) is s w, read off the left table, when s w
    is a rep, else w; the label is the lex-least word, 1-based."""
    h_mask = sum(1 << h for h in H)
    reps = sorted((w for w, d in enumerate(tables["d_right"])
                   if not d & h_mask),
                  key=lambda w: (tables["length"][w],
                                 lex_least_word(tables, w)))
    index = {w: i for i, w in enumerate(reps)}
    images = tuple(tuple(index.get(tables["left"][w][s], i)
                         for i, w in enumerate(reps))
                   for s in range(len(tables["right"][0])))
    labels = tuple(".".join(str(k + 1) for k in lex_least_word(tables, w))
                   or "e" for w in reps)
    return tuple(reps), images, labels


def strictly_coherent(M, N, w: int) -> bool:
    """``matchings.strictly_coherent`` on restrictions to P_{<=w}, as it was
    before it classified each orbit once: the orbit of w alone, then every
    orbit of the partition."""
    top_m = orbit_analysis(M, N, w).m_value
    return all(top_m % rep.m_value == 0
               for rep in orbit_partition(M, N, M.domain))


def verify_pircon_system(poset, matchings):
    """``klpoly.verify_pircon_system`` with strict coherence decided by
    ``strictly_coherent`` on the two restrictions, at every w and pair."""
    for mi, M in enumerate(matchings):
        ok, witness = verify_qspm(M)
        if not ok:
            return False, ("matching", (mi, witness))

    for w in range(poset.n):
        if w == poset.bottom:
            continue
        down = down_matchings(poset, matchings, w)
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
                    pool = enumerate_spms(poset, w)
                if not coherent(Mr, Nr, w, pool):
                    return False, ("incoherent", (w,))
    return True, None


def verify_r_properties(r_minus: PolyTable, r_q: PolyTable):
    """``klpoly.verify_r_properties`` deciding every row in (u, w) order."""
    if r_minus.x != X_MINUS_ONE or r_q.x != X_Q:
        raise ValueError("pass the x=-1 table first and the x=q table second")
    rank = r_minus.poset.rank
    for (u, w, minus), (_, _, plus) in zip(r_minus.rows(), r_q.rows()):
        gap = rank[w] - rank[u]
        if minus.degree() != gap:
            return False, ("degree", (u, w))
        if plus.eval_at_zero() != (-1) ** gap:
            return False, ("constant-term", (u, w))
        sign = (-1) ** gap
        if plus.coeffs() != tuple(sign * c for c in minus.tilde(gap).coeffs()):
            return False, ("x-z-transform", (u, w))
    return True, None
