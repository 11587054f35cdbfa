"""R- and P-polynomials of refined pircons.

A *refinement* picks one SPM M_w for every non-minimal element w; the
R-polynomial family {R^x_{u,w}} in Z[q] for x in {q, -1} is then defined by
R^x_{u,w} = 0 unless u <= w, R^x_{w,w} = 1, and the three-case recursion
driven by M_w:

    R^x_{u,w} = R^x_{M(u),M(w)}                        if M(u) is below u,
    R^x_{u,w} = (q-1) R^x_{u,M(w)} + q R^x_{M(u),M(w)} if M(u) is above u,
    R^x_{u,w} = (q-1-x) R^x_{u,M(w)}                   if M(u) = u,

with M = M_w; x is a two-valued enum.  One evaluator, ``_cases``, applies
this rule at q = 2^B (below) for the recursion and its checks: up-down
symmetry is the rule on the other index, Brenti's identity its fixed case.

Every built-in refinement is read off a pircon system by one rule,
``system_refinement``: at each w choose a matching of the system that takes
w down (``down_matchings``); the refinement holds that matching itself and
reads it on the ideal of w only.  Parabolic quotients use their left
multiplication matchings, twisted identities their conjugation matchings,
and a ``PirconSystem`` carries the refinement of its system; any choice of
down-matching gives the same tables.

The same module hosts the incidence-algebra side: a family is a P-kernel
exactly when R_{v,v} = 1 and sum_z R_{u,z} q^(rho(z,v)) R_{z,v}(1/q)
vanishes for u < v, and kernel inversion produces the unique unitary
family P with deg P_{u,v} < rho(u,v)/2 and
sum_z R_{u,z} P_{z,v} = q^(rho(u,v)) P_{u,v}(1/q).  The inversion asserts
full consistency of the high part against the low part instead of trusting
the truncation, which turns uniqueness into an executable error check.  It
is also the kernel check: with a unit diagonal, the inversion succeeds
exactly on P-kernels (``check_pkernel``), so one interval sum both proves
R a P-kernel and builds P.

The interval sum runs on packed values: every polynomial is evaluated at
q = 2^B (Kronecker substitution), so a polynomial product is one int
multiply and an interval sum is a sum of int products; balanced base-2^B
digits recover the coefficients.  The sums are pushed, not pulled: a
column v keeps one int accumulator per element of its ideal, and each z
adds its products into the accumulators of the u below it.  Packing is
injective only on polynomials whose coefficients lie inside
(-2^(B-1), 2^(B-1)).  The width B is therefore derived once from the table
(ideal sizes, L1 norms and coefficient sizes).  The sums take products
with the P they produce, so they can outgrow it: each sum asserts its
coefficient bound against B before its digits are read, and a bound that
does not fit restarts the inversion at a wider B.

A table stores one column per element w, a polynomial for every u in the
ideal of w in ``ideal_elements`` order, zeros included; a dict missing a
comparable pair raises KeyError when it is made a table.  One function
packs a table: ``_columns(table, B)`` gives column w as {u: R_{u,w}(2^B)}
over the nonzero entries, the shape of a Hecke module vector.  The rule
checks, the interval sum and the Hecke layer read these columns, each at
its own width; the writers walk the rows in (u, w) order.
"""

from __future__ import annotations

import io
import json
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .laurent import QPoly
from .matchings import (PairOrbits, PartialMatching, coherent,
                        enumerate_spms, verify_qspm, verify_spm)
from .posets import GradedPoset

X_MINUS_ONE = "-1"
X_Q = "q"
X_PARAMS = (X_MINUS_ONE, X_Q)

_ONE = QPoly((1,))


class KernelError(ValueError):
    """The given family is not a genuine P-kernel: kernel inversion fails
    at ``pair``, the (u, v) named in the message by label."""

    def __init__(self, message: str, pair: tuple[int, int]):
        super().__init__(message)
        self.pair = pair


def check_x(x: str) -> str:
    if x not in X_PARAMS:
        raise ValueError(f"x must be one of {X_PARAMS}, got {x!r}")
    return x


def other_x(x: str) -> str:
    return X_Q if check_x(x) == X_MINUS_ONE else X_MINUS_ONE


# ---------------------------------------------------------------------------
# Refinements.
# ---------------------------------------------------------------------------

class Refinement:
    """A matching M_w for every non-minimal element w, and none at the
    minimal element, with M_w defined on at least the ideal of w and M_w(w)
    covered by w; only M_w on that ideal is read.  The constructor checks
    only that shape; each M_w is proven an SPM of the ideal where it arises
    (``system_refinement``, ``enumerate_spms``, ``from_json``).  Raises
    ValueError naming an element by label."""

    def __init__(self, poset: GradedPoset,
                 matchings: Mapping[int, PartialMatching]):
        self.poset = poset
        self.matchings = dict(matchings)
        labels = poset.labels
        if poset.bottom in self.matchings:
            raise ValueError(f"refinement has an entry at the minimal "
                             f"element {labels[poset.bottom]!r}")
        for w in range(poset.n):
            if w == poset.bottom:
                continue
            m = self.matchings.get(w)
            if m is None:
                raise ValueError(f"refinement misses element {labels[w]!r}")
            if poset.down_set(w) & ~m.domain_mask():
                raise ValueError(f"matching at {labels[w]!r} is not defined "
                                 f"on its lower ideal")
            if m(w) not in poset.down_covers[w]:
                raise ValueError(f"matching at {labels[w]!r} does not map "
                                 f"it to an element it covers")

    def __getitem__(self, w: int) -> PartialMatching:
        return self.matchings[w]

    def __eq__(self, other):
        if not isinstance(other, Refinement):
            return NotImplemented
        return self.poset is other.poset and self.to_json() == other.to_json()

    def to_json(self) -> dict:
        """Each M_w on the ideal of w: its image list, None elsewhere."""
        out = {}
        for w, M in sorted(self.matchings.items()):
            out[self.poset.labels[w]] = images = [None] * self.poset.n
            for u in self.poset.ideal_elements(w):
                images[u] = M(u)
        return out

    @classmethod
    def from_json(cls, poset: GradedPoset, data: Mapping) -> "Refinement":
        matchings = {}
        for lab, images in data.items():
            try:
                w = poset.index(lab)
            except KeyError:
                raise ValueError(f"{lab!r} is not a label of the poset") \
                    from None
            matchings[w] = PartialMatching(
                poset, {x: y for x, y in enumerate(images) if y is not None})
        refinement = cls(poset, matchings)
        for w in sorted(matchings):
            if matchings[w].domain_mask() != poset.down_set(w):
                raise ValueError(f"matching at {poset.labels[w]!r} is not "
                                 f"defined on its lower ideal")
            ok, witness = verify_spm(matchings[w])
            if not ok:
                raise ValueError(
                    f"matching at {poset.labels[w]!r} is not an SPM: "
                    f"{(witness[0], _by_label(poset.labels, witness[1]))}")
        return refinement


def _by_label(labels: Sequence[str], where):
    """A witness payload (an element, a tuple of elements or None) with
    every element named by its label."""
    if isinstance(where, tuple):
        return tuple(labels[i] for i in where)
    return None if where is None else labels[where]


def down_matchings(poset: GradedPoset, matchings: Sequence[PartialMatching],
                   w: int) -> list[PartialMatching]:
    """The matchings M with M(w) covered by w, in list order."""
    return [M for M in matchings
            if M.is_defined(w) and poset.covers(M(w), w)]


def system_refinement(poset: GradedPoset,
                      matchings: Sequence[PartialMatching]) -> Refinement:
    """The refinement read off a system of quasi SPMs: at every non-minimal
    w, the first matching in list order that takes w down, itself.

    The matchings must be quasi SPMs; then each one's restriction to the
    ideal of w is an SPM, the only part of it that a refinement reads, and
    is not checked again.  If M(w) is covered by w, every y <= w has
    M(y) <= w, by induction down from w: take z covering y with z <= w,
    and compatibility gives M(y) = z or M(y) < M(z) <= w.

    Raises ValueError naming the label of an element that no matching
    takes down.
    """
    chosen = {}
    for w in range(poset.n):
        if w == poset.bottom:
            continue
        down = down_matchings(poset, matchings, w)
        if not down:
            raise ValueError(
                f"no matching takes {poset.labels[w]!r} down")
        chosen[w] = down[0]
    return Refinement(poset, chosen)


def lambda_refinement(quot) -> Refinement:
    """The canonical refinement of a parabolic quotient:
    ``system_refinement`` on ``quot.lambda_matchings``, which are listed in
    order of their generator, so at every w the smallest generator that
    takes w down."""
    return system_refinement(quot.poset, quot.lambda_matchings)


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
    """Triangular table of polynomials over the comparable pairs of a
    poset, stored by column: ``columns[w]`` is a tuple of QPoly aligned
    with ``poset.ideal_elements(w)``, zeros included, so the entry of a
    pair u <= w sits at the number of elements of the ideal below u."""

    def __init__(self, poset: GradedPoset, x: str,
                 columns: Sequence[Sequence[QPoly]]):
        self.poset = poset
        self.x = check_x(x)
        self.columns = tuple(map(tuple, columns))
        if len(self.columns) != poset.n or any(
                len(col) != poset.down_set(w).bit_count()
                for w, col in enumerate(self.columns)):
            raise ValueError("table columns must match the lower ideals")

    @classmethod
    def from_entries(cls, poset: GradedPoset, x: str,
                     entries: Mapping[tuple[int, int], QPoly]) -> "PolyTable":
        """The table of a dict keyed by the comparable pairs (u, w).  Raises
        KeyError naming a comparable pair with no entry, and ValueError
        when an entry sits at an incomparable pair."""
        ideals = [poset.ideal_elements(w) for w in range(poset.n)]
        for w, ideal in enumerate(ideals):
            for u in ideal:
                if (u, w) not in entries:
                    raise KeyError(f"table has no entry for comparable "
                                   f"pair ({u},{w})")
        if sum(map(len, ideals)) != len(entries):
            raise ValueError("table has an entry at an incomparable pair")
        return cls(poset, x, [[entries[(u, w)] for u in ideal]
                              for w, ideal in enumerate(ideals)])

    def value(self, u: int, w: int) -> QPoly:
        below = self.poset.down_set(w)
        if not below >> u & 1:
            return QPoly.zero()
        return self.columns[w][(below & ((1 << u) - 1)).bit_count()]

    def __eq__(self, other):
        if not isinstance(other, PolyTable):
            return NotImplemented
        return (self.poset is other.poset and self.x == other.x
                and self.columns == other.columns)

    def rows(self) -> Iterator[tuple[int, int, QPoly]]:
        """(u, w, entry) over the comparable pairs, sorted by (u, w): u
        ascending, then each w >= u ascending.  A column lists its ideal in
        ascending order, so one cursor per column reads its entries in
        turn, with no transpose."""
        poset, columns = self.poset, self.columns
        pos = [0] * poset.n
        for u in range(poset.n):
            for w in poset.elements_of(poset.up_set(u)):
                yield u, w, columns[w][pos[w]]
                pos[w] += 1

    def to_json(self) -> dict:
        labs = self.poset.labels
        return {"poset": self.poset.to_json(), "x": self.x,
                "entries": [[labs[u], labs[w], poly.to_json()]
                            for u, w, poly in self.rows()]}

    def to_json_text(self) -> str:
        """``json.dumps(self.to_json(), indent=1)``, byte for byte.

        With an indent, ``json.dumps`` runs the pure-Python encoder; here
        only the small poset header goes through it, and the fixed-shape
        entries are formatted directly: labels by the C string encoder,
        coefficients by ``str``.
        """
        head = json.dumps({"poset": self.poset.to_json(), "x": self.x},
                          indent=1)
        labs = [encode_basestring_ascii(lab) for lab in self.poset.labels]
        # tables repeat few distinct polynomials: format each once
        texts = {(): "[]"}
        # head ends with the "\n}" that closes the object; one join of the
        # parts makes the text without an intermediate copy
        parts = [head[:-2], ',\n "entries": ']
        sep = "[\n"
        for u, w, poly in self.rows():
            coeffs = poly.coeffs()
            text = texts.get(coeffs)
            if text is None:
                text = texts[coeffs] = \
                    "[\n    " + ",\n    ".join(map(str, coeffs)) + "\n   ]"
            parts += (sep,
                      f"  [\n   {labs[u]},\n   {labs[w]},\n   {text}\n  ]")
            sep = ",\n"
        parts.append("[]\n}" if sep == "[\n" else "\n ]\n}")
        return "".join(parts)

    @classmethod
    def from_json(cls, data: dict,
                  poset: GradedPoset | None = None) -> "PolyTable":
        if poset is None:
            poset = GradedPoset.from_json(data["poset"])
        entries = {}
        for u_lab, w_lab, coeffs in data["entries"]:
            entries[(poset.index(u_lab), poset.index(w_lab))] = \
                QPoly.from_json(coeffs)
        return cls.from_entries(poset, data["x"], entries)

    def to_csv(self) -> str:
        import csv   # only the CSV writer needs it; the CLI imports lean
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["u", "w", "coefficients"])
        labs = self.poset.labels
        for u, w, poly in self.rows():
            writer.writerow([labs[u], labs[w],
                             " ".join(map(str, poly.coeffs()))])
        return buf.getvalue()


# ---------------------------------------------------------------------------
# The R-polynomial recursion and the calculating-matching checks.
# ---------------------------------------------------------------------------

def r_polynomials(poset: GradedPoset, refinement: Refinement,
                  x: str) -> PolyTable:
    """The unique R^x family of the refined pircon (P, refinement).

    Packed column w is {w: 1} and ``_cases`` of M_w at each u < w, on
    a = R_{u,M(w)} and b = R_{M(u),M(w)} from column M(w); each distinct
    value is decoded once, into a shared QPoly.  B needs no widening: by
    induction on rank, |coeff| <= 3^rank(w) in column w, as the bottom
    column is {1} and each entry is b, at most 2|a| + |b|, or |a| over
    column M(w), one rank lower.  So B = _width_for(3^(max rank)) is exact.
    """
    check_x(x)
    width = _width_for(3 ** poset.max_rank())
    cases = _cases(width, x)
    cols: list = [None] * poset.n
    columns: list = [None] * poset.n
    polys: dict[int, QPoly] = {}
    for w in sorted(range(poset.n), key=lambda w: poset.rank[w]):
        col = cols[w] = {w: 1}
        ideal = poset.ideal_elements(w)
        if w != poset.bottom:
            M = refinement[w]
            below = cols[M(w)]
            for u in ideal:
                if u != w:
                    col[u] = cases[M.kind(u)](below.get(u, 0),
                                              below.get(M(u), 0))
        column = []
        for u in ideal:
            value = col[u]
            poly = polys.get(value)
            if poly is None:
                d = _digits(value, width)
                poly = polys[value] = QPoly(
                    d.get(k, 0) for k in range(max(d, default=-1) + 1))
            column.append(poly)
        columns[w] = column
    return PolyTable(poset, x, columns)


def is_calculating(M: PartialMatching, table: PolyTable, w: int,
                   _packed: tuple | None = None):
    """Does the recursion hold at w when driven by M instead of M_w?

    Requires M(w) covered by w.  Checks every u < w on packed columns and
    returns (True, None) or (False, ("not-calculating", (u, w))).
    ``_packed`` is ``_rule_columns(table)``, when the caller has it.
    """
    poset = table.poset
    mw = M(w)
    if not poset.covers(mw, w):
        raise ValueError("is_calculating needs a matching with M(w) < w")
    width, cols = _packed or _rule_columns(table)
    cases = _cases(width, table.x)
    col, below = cols[w], cols[mw]
    for u in poset.ideal_elements(w):
        if u != w and col.get(u, 0) != cases[M.kind(u)](
                below.get(u, 0), below.get(M(u), 0)):
            return False, ("not-calculating", (u, w))
    return True, None


# ---------------------------------------------------------------------------
# Up-down symmetry, the kernel condition and kernel inversion.
# ---------------------------------------------------------------------------

def check_updown(matchings: Sequence[PartialMatching], table: PolyTable,
                 _packed: tuple | None = None):
    """The flipped recursion, clauses (a'), (b'), (c'), on every matching.

    For all M and all pairs u, w in M's domain with M(u) above u:
      (a') M(w) above w:  R_{u,w} = R_{M(u),M(w)}
      (b') M(w) below w:  R_{u,w} = (q-1) R_{M(u),w} + q R_{M(u),M(w)}
      (c') M(w) fixed:    R_{u,w} = (q-1-x) R_{M(u),w}
    that is, ``_cases`` of the mirrored kind of w, chosen once per w, on
    packed columns (incomparable pairs read as 0).  Clause (c') is the
    substance; (a') and (b') follow from the recursion for strongly
    calculating matchings but are cheap to verify outright.
    ``_packed`` is ``_rule_columns(table)``, when the caller has it.
    """
    width, cols = _packed or _rule_columns(table)
    cases = _cases(width, table.x)
    mirrored = {"up": cases["down"], "down": cases["up"],
                "fixed": cases["fixed"]}
    for mi, M in enumerate(matchings):
        ups = [(u, M(u)) for u in M.domain if M.kind(u) == "up"]
        for w in M.domain:
            kw = M.kind(w)
            case = mirrored[kw]
            col, mcol = cols[w], cols[M(w)]
            for u, mu in ups:
                if col.get(u, 0) != case(col.get(mu, 0), mcol.get(mu, 0)):
                    clause = {"up": "a'", "down": "b'", "fixed": "c'"}[kw]
                    return False, ("updown-" + clause, (mi, u, w))
    return True, None


# ---------------------------------------------------------------------------
# Packed evaluation at q = 2^B (see the module docstring).
# ---------------------------------------------------------------------------

def _cases(width: int, x: str) -> dict[str, Callable[[int, int], int]]:
    """The three-case rule at q = 2^width, one function of (a, b) per kind
    of the element: b when M moves it down, (q-1) a + q b when up, and
    (q-1-x) a (q a or -a) when M fixes it."""
    return {"down": lambda a, b: b,
            "up": lambda a, b: (a << width) - a + (b << width),
            "fixed": (lambda a, b: a << width) if x == X_MINUS_ONE
            else (lambda a, b: -a)}


def _rule_columns(table: PolyTable) -> tuple[int, list[dict[int, int]]]:
    """The least B with 3 max |coeff| < 2^(B-1), a bound on ``_cases`` of
    entries, and the table's ``_columns`` at B."""
    width = _width_for(3 * _norms(table)[1])
    return width, _columns(table, width)


def _columns(table: PolyTable, width: int) -> list[dict[int, int]]:
    """The table packed at q = 2^width, by column: for every w the dict
    {u: R_{u,w}(2^width)} over the u <= w with R_{u,w} != 0, in ideal
    order, read off ``table.columns[w]`` zipped with the ideal of w."""
    ideal = table.poset.ideal_elements
    cols = []
    for w, column in enumerate(table.columns):
        col = {}
        for u, poly in zip(ideal(w), column):
            if poly:
                col[u] = _pack(poly.coeffs(), width)
        cols.append(col)
    return cols


def _width_for(bound: int) -> int:
    """The least B >= 2 with bound < 2^(B-1)."""
    return max(bound, 1).bit_length() + 1


def _pack(coeffs: Sequence[int], width: int) -> int:
    """sum_k coeffs[k] 2^(width k)."""
    value = 0
    for c in reversed(coeffs):
        value = (value << width) + c
    return value


def _digits(value: int, width: int, low: int = 0) -> dict[int, int]:
    """The nonzero balanced base-2^width digits of value, keyed by position
    counted from ``low``; exact when every digit of the packed polynomial
    lies inside (-2^(width-1), 2^(width-1))."""
    half = 1 << (width - 1)
    base = 1 << width
    digits = {}
    while value:
        skip = ((value & -value).bit_length() - 1) // width
        value >>= skip * width
        low += skip
        d = value & (base - 1)
        if d >= half:
            d -= base
        digits[low] = d
        value = (value - d) >> width
        low += 1
    return digits


def _norms(table: PolyTable) -> tuple[int, int, int]:
    """Max L1 norm and max |coefficient| over the entries, and the most
    terms an interval sum can have (the largest lower ideal)."""
    coeffs = [poly.coeffs() for poly in chain.from_iterable(table.columns)]
    l1 = max((sum(map(abs, c)) for c in coeffs), default=0)
    top = max(map(abs, chain.from_iterable(coeffs)), default=0)
    poset = table.poset
    terms = max((poset.down_set(v).bit_count() for v in range(poset.n)),
                default=0)
    return l1, top, terms


def check_pkernel(table: PolyTable):
    """Is R a P-kernel: R_{v,v} = 1 for every v and
    sum_z R_{u,z} q^(rho(z,v)) R_{z,v}(1/q) = delta_{u,v}, exactly?

    Returns (ok, witness, P): (True, None, the kernel inversion of R), or
    (False, ("kernel", pair), None), where pair is (v, v) for the first v
    with R_{v,v} != 1, else the ``KernelError.pair`` of the inversion.
    The check sums nothing itself; the inversion's interval sums decide it.

    Write bar(f)(u,v) = q^(rho(u,v)) f(u,v)(1/q) on the incidence algebra
    over Z[q, 1/q]; it is a ring involution, since rho(u,z) + rho(z,v) =
    rho(u,v).  The sum above is (R bar(R))(u,v).  If the diagonal is 1
    and the inversion succeeds, then R P = bar(P) at every pair, the
    diagonal included, with P unitriangular.  Applying bar gives
    bar(R) bar(P) = P, so bar(R) R P = P, and as P is invertible,
    bar(R) R = delta.  R has a unit diagonal, so it is invertible and
    R bar(R) = delta as well.  Conversely, a P-kernel has a unit diagonal,
    and its inversion exists (Stanley, J. Amer. Math. Soc. 5, 1992) and is
    unique, so ``kls_polynomials`` finds it.  The inversion never reads
    R_{v,v}, which is why the diagonal is checked here.
    """
    poset = table.poset
    for v in range(poset.n):
        if table.value(v, v) != _ONE:
            return False, ("kernel", (v, v)), None
    try:
        return True, None, kls_polynomials(table)
    except KernelError as exc:
        return False, ("kernel", exc.pair), None


def kls_polynomials(table: PolyTable, _width: int | None = None) -> PolyTable:
    """Kernel inversion: the unique unitary family below half degree.

    For each pair u < v set G = sum_{u < z <= v} R_{u,z} P_{z,v}; the low
    part of G (degrees below rho(u,v)/2) determines P_{u,v} = -low(G), and
    the whole of G must then equal tilde(P) - P.  A failure of that identity
    means the input was not a P-kernel and raises KernelError.

    G is computed packed and pushed.  Each R_{u,z} is evaluated once at
    q = 2^B, and a column v keeps one int accumulator G[u] per element of
    its ideal.  The u run down the ideal by descending rank, so every z
    above u is final before u is reached; once P_{u,v} is decoded and
    checked, R_{w,u} P_{u,v}(2^B) is added to G[w] for every w < u, unless
    P_{u,v} is 0.  Balanced base-2^B digits of G[u] give low(G), and the
    identity is checked on packed values.  Both are exact while every
    coefficient of G[u] stays below 2^(B-1), so before its digits are read
    each u asserts
    (pushes into G[u]) * max L1(R) * (running max |coeff| of P_{.,v})
    < 2^(B-1).  B starts from the table's own bound with max |coeff(R)| in
    place of the P factor; a pair whose bound does not fit restarts the
    inversion at a wider B, the only rerun at a wider width in the library.
    ``_width`` overrides the starting width, for tests of the restart.
    """
    poset = table.poset
    rank = poset.rank
    l1, top, terms = _norms(table)

    def run(width: int) -> PolyTable | int:
        """The inversion at ``width``, or the bound that did not fit."""
        half = 1 << (width - 1)
        digit = (1 << width) - 1
        cols = _columns(table, width)
        supports = [0] * poset.n   # for every u, the z with R_{u,z} != 0
        for z, col in enumerate(cols):
            for u in col:
                supports[u] |= 1 << z
        columns = []
        polys = {}   # P-tables repeat few polynomials: build each once
        for v in range(poset.n):
            ideal = poset.ideal_elements(v)
            col = {v: _ONE}
            G = [0] * poset.n
            for u, r in cols[v].items():
                G[u] += r
            pushed = 1 << v
            pmax = 1
            below = sorted((u for u in ideal if u != v),
                           key=lambda u: -rank[u])
            for u in below:
                bound = (supports[u] & pushed).bit_count() * l1 * pmax
                if bound >= half:
                    return bound
                gap = rank[v] - rank[u]
                half_gap = (gap + 1) // 2
                # low digits d_k of G[u] give P = -sum d_k q^k; the rest
                # is the high part of G, which must be tilde(P)
                low = []
                tilde = 0
                rest = g = G[u]
                for _ in range(half_gap):
                    d = rest & digit
                    if d >= half:
                        d -= digit + 1
                    low.append(-d)
                    tilde = (tilde << width) - d
                    rest = (rest - d) >> width
                if rest != tilde << width * (gap + 1 - 2 * half_gap):
                    raise KernelError(
                        f"not a P-kernel at pair ({poset.labels[u]!r}, "
                        f"{poset.labels[v]!r})", (u, v))
                key = tuple(low)
                got = polys.get(key)
                if got is None:
                    got = polys[key] = (QPoly(low), max(map(abs, low)))
                col[u] = got[0]
                packed = (rest << width * half_gap) - g
                if packed:
                    pmax = max(pmax, got[1])
                    pushed |= 1 << u
                    for w, r in cols[u].items():
                        G[w] += r * packed
            columns.append(tuple(map(col.__getitem__, ideal)))
        return PolyTable(poset, table.x, columns)

    width = _width or _width_for(terms * l1 * top)
    while isinstance(got := run(width), int):
        width = max(_width_for(got), 2 * width)
    return got


def verify_r_properties(r_minus: PolyTable, r_q: PolyTable):
    """The three structural properties of the two R-families:
    (1) deg R^{-1}_{u,w} = rho(u,w);
    (2) R^q_{u,w}(0) = (-1)^rho(u,w);
    (3) R^q_{u,w}(q) = (-q)^rho(u,w) R^{-1}_{u,w}(1/q), compared in Z[q]
        through ``tilde``, whose degree bound (1) has just checked.
    Clause (3) is Deodhar's x-z transform between the two R-tables, which
    ``HeckeContext`` requires through ``PirconSystem.properties``.

    The clauses read only rho(u,w) and the two entries, and the tables
    share one QPoly per distinct value, so each distinct triple is decided
    once.  The witness is the failing pair first in (u, w) order.
    """
    if r_minus.x != X_MINUS_ONE or r_q.x != X_Q:
        raise ValueError("pass the x=-1 table first and the x=q table second")
    poset = r_minus.poset
    rank = poset.rank
    # (gap, id(R^-1 entry), id(R^q entry)) -> failing clause or None; the
    # tables hold their entries, so the ids stay valid during the scan
    verdicts: dict[tuple[int, int, int], str | None] = {}
    failed = None
    for w, (minus_col, plus_col) in enumerate(zip(r_minus.columns,
                                                   r_q.columns)):
        top = rank[w]
        for u, minus, plus in zip(poset.ideal_elements(w), minus_col,
                                  plus_col):
            key = (top - rank[u], id(minus), id(plus))
            clause = verdicts.get(key, False)
            if clause is False:
                clause = verdicts[key] = _r_clause(key[0], minus, plus)
            if clause is not None and (failed is None or (u, w) < failed[1]):
                failed = (clause, (u, w))
    return (True, None) if failed is None else (False, failed)


def _r_clause(gap: int, minus: QPoly, plus: QPoly) -> str | None:
    """The first clause of ``verify_r_properties`` that fails on one pair."""
    if minus.degree() != gap:
        return "degree"
    sign = (-1) ** gap
    if plus.eval_at_zero() != sign:
        return "constant-term"
    if plus.coeffs() != tuple(sign * c for c in minus.tilde(gap).coeffs()):
        return "x-z-transform"
    return None


def brenti_identity(quot, table: PolyTable, _packed: tuple | None = None):
    """R_{u,w} = (q-1-x) R_{su,w} whenever u < su stays in the quotient and
    w < sw leaves it; scanned exhaustively over qualifying (s, u, w).  This
    is the fixed case of ``_cases``, on packed columns: ``_packed`` when
    the caller has ``_rule_columns(table)``, else packed here.
    """
    rank = quot.poset.rank
    cols = None
    for s, images in enumerate(quot.images):
        # u < su in W^H, and w with sw outside W^H (so sw > w, by Deodhar)
        ups = [(u, su) for u, su in enumerate(images) if rank[su] > rank[u]]
        fixed = [w for w, sw in enumerate(images) if sw == w]
        if fixed and cols is None:   # full groups have no fixed points
            width, cols = _packed or _rule_columns(table)
            case = _cases(width, table.x)["fixed"]
        for u, su in ups:
            for w in fixed:
                if cols[w].get(u, 0) != case(cols[w].get(su, 0), 0):
                    return False, ("brenti", (s, u, w))
    return True, None


# ---------------------------------------------------------------------------
# Pircon systems.
# ---------------------------------------------------------------------------

class PirconSystem:
    """A pircon, a family of quasi SPMs of order ideals and a refinement
    read off it.  The constructor stores these, without duplicate matchings;
    ``verdict``, ``r_table(x)``, its ``rule_columns(x)``, the
    (ok, witness) pairs ``updown(x)`` and ``pkernel(x)``, and
    ``properties``, ``verify_r_properties`` of the two R-tables, are
    computed on first use and kept.  The rule checks of one job read the
    kept columns (``updown`` and, passed by the caller,
    ``brenti_identity`` and the duality suite's ``is_calculating``); a
    check called with only a table packs it afresh.  The kernel verdict is
    kernel inversion, so once it has run at x its P^x table is kept too,
    as ``p_table(x)``; a job that needs no verdict calls
    ``kls_polynomials`` and holds its P-table only while it needs it."""

    def __init__(self, poset: GradedPoset,
                 matchings: Sequence[PartialMatching],
                 refinement: Refinement):
        self.poset = poset
        self.matchings = tuple(dict.fromkeys(matchings))
        self.refinement = refinement
        self._kept: dict[tuple, object] = {}

    def _once(self, key: tuple, build: Callable[[], object]):
        if key not in self._kept:
            self._kept[key] = build()
        return self._kept[key]

    @property
    def verdict(self):
        return self._once(("system",), lambda: verify_pircon_system(
            self.poset, self.matchings))

    @property
    def properties(self):
        return self._once(("properties",), lambda: verify_r_properties(
            self.r_table(X_MINUS_ONE), self.r_table(X_Q)))

    def r_table(self, x: str) -> PolyTable:
        return self._once(("r", check_x(x)), lambda: r_polynomials(
            self.poset, self.refinement, x))

    def rule_columns(self, x: str) -> tuple[int, list[dict[int, int]]]:
        """``_rule_columns`` of the R^x table; shared, callers must not
        modify it."""
        return self._once(("rule", check_x(x)),
                          lambda: _rule_columns(self.r_table(x)))

    def updown(self, x: str):
        return self._once(("updown", x), lambda: check_updown(
            self.matchings, self.r_table(x), self.rule_columns(x)))

    def pkernel(self, x: str):
        return self._kernel(x)[:2]

    def p_table(self, x: str) -> PolyTable | None:
        """The P^x table that ``pkernel(x)`` inverted, or None when that
        verdict fails.  Shared, callers must not modify it."""
        return self._kernel(x)[2]

    def _kernel(self, x: str):
        return self._once(("pkernel", check_x(x)),
                          lambda: check_pkernel(self.r_table(x)))

    def down_matchings(self, w: int) -> list[PartialMatching]:
        return down_matchings(self.poset, self.matchings, w)


def verify_pircon_system(poset: GradedPoset,
                         matchings: Sequence[PartialMatching]):
    """The four conditions for (P, S) to be a pircon system:
    (1) P is a pircon, (2) S consists of quasi SPMs of order ideals,
    (3) every non-minimal w has some M in S with M(w) covered by w, and
    (4) any two such M, N restrict to coherent SPMs of P_{<=w}.

    Condition (1) follows from (3): the restriction of a down-matching is an
    SPM of the ideal (given (2), by ``system_refinement``'s lemma).  It is
    verified here all the same, restriction by restriction, as the clause
    ``restriction-not-spm``.  The clause cannot fail once (2) has passed;
    it stays as the verdict's direct proof of (1), so that a restriction
    that were no SPM would end in a witness instead of the MatchingError
    of ``coherent``, which looks it up in the SPM pool of w, and its
    ``verify_spm`` calls are the ones that the benchmark's traced
    ``verify`` and ``twisted`` runs expect.

    Coherence is decided strictly first, once per pair of system matchings:
    a ``PairOrbits`` memo per (M, N) classifies each orbit of <M, N> once,
    the first time an ideal that holds it is asked about.  By the same
    lemma P_{<=w} is closed under every M with M(w) covered by w, so the
    orbits of the restrictions of M and N to P_{<=w} are the orbits of
    <M, N> that meet it.  Hence M and N are strictly coherent on P_{<=w}
    exactly when m(orbit of w) is divisible by m(O) for every orbit O of
    <M, N> that meets P_{<=w}.  The rule is the same for matchings of the
    whole poset and for matchings of single ideals.  Only when it fails is
    the full SPM pool of w enumerated to search for a connecting chain.
    """
    for mi, M in enumerate(matchings):
        ok, witness = verify_qspm(M)
        if not ok:
            return False, ("matching", (mi, witness))

    pairs: dict[tuple[PartialMatching, PartialMatching], PairOrbits] = {}
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
        for i, M in enumerate(down):
            for j in range(i + 1, len(down)):
                key = (M, down[j])
                if key not in pairs:
                    pairs[key] = PairOrbits(*key)
                if pairs[key].strictly_coherent(w):
                    continue
                if pool is None:
                    pool = enumerate_spms(poset, w)
                if not coherent(restricted[i], restricted[j], w, pool):
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
        if other != first:
            bad = next((u, w) for (u, w, a), (_, _, b)
                       in zip(first.rows(), other.rows()) if a != b)
            return False, ("refinement-dependent", (i, [bad]))
    return True, None
