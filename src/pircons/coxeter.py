"""Finite Coxeter groups with full element tables.

Supported realizations: type A_n as permutations of [n+1] in one-line
notation, B_n as signed permutations, D_n as even-signed permutations,
I2(m) as the dihedral group of order 2m, and direct products of these.
A realization supplies only its identity, right multiplication by a
generator, its Coxeter matrix and its order; a group whose order is past
the size bound is refused before anything is built.  Elements are
numbered by length, then by representation.  Type A is read off
lexicographic ranks with no realization call (Bjorner-Brenti, GTM 231,
ch. 1): the rank of w among
``itertools.permutations`` is sum c_i (n-1-i)!, for the Lehmer code
c_i = #{j > i : w_j < w_i}; the length is sum c_i, and k is a right descent
exactly when c_k > c_(k+1).  Right multiplication by s_k changes only
(c_k, c_(k+1)), to (c_(k+1) + 1, c_k) on an ascent and (c_(k+1), c_k - 1)
on a descent, so it permutes every block of (n-k)! consecutive ranks the
same way; the numbering is the stable sort of the ranks by length.  Every
other type, products with type-A factors too, is tabulated by breadth-first
closure under right multiplication, one realization call per Cayley edge,
|W| r / 2 in all: at a frontier element w, a generator s whose image is
still unknown is an ascent, and w s, when new, gets w as its image under s
and s as a right descent (Bjorner-Brenti, ch. 1-2).  The right table,
lengths and right descents are built eagerly, and they are all the group
keeps.  One walk reads the rest: from g, step g <- g s and u <- u s at the
lowest right descent s of g until g = e.  Then u = g^-1, and since the
lowest right descent of g is the lowest left descent of g^-1, the
generators stepped by, in order, are the lex-least reduced word of g^-1;
the label of w is the walk of w^-1.  The tables give O(1) length, descent
and right-multiplication queries, and an inverse in l(w) steps; the
trade-off is a configurable size bound (PIRCONS_MAX_GROUP_SIZE, default
50000).  The orders of the products s_i s_j are checked against the
Coxeter matrix.

Generators are 0-indexed internally and rendered 1-based in labels, so the
element with lexicographically least reduced word s2*s1 is labelled "2.1".
Conventions per type:

* A_n: generators k = 0..n-1 are the adjacent transpositions (k+1, k+2).
* B_n: generator 0 is the sign change in the first position, generators
  k >= 1 the adjacent transpositions; m(s0, s1) = 4.
* D_n: generator 0 is the swap-and-negate of the first two positions,
  which commutes with generator 1 and braids with generator 2.
* I2(m): two generators with m(s0, s1) = m, acting on Z/m: s_k is
  i -> k - i, and an element i -> a i + b (a = +-1) is kept as (a, b).

Bruhat order on a parabolic quotient W^H is read off its generator maps,
tabulated once as image lists: lambda_s sends u to s u when s u stays in W^H
and fixes u otherwise.  s u is in W^H exactly when u^-1 s is the inverse
of a rep, so lambda_s is read off the right table at the reps' inverses,
with no left multiplication.  When lambda_s takes w down, Deodhar's lemma
and the Bruhat lifting property (Bjorner-Brenti, GTM 231, sections 2.2
and 2.5) split the lower interval inside W^H as
[e,w] = [e,sw] + lambda_s([e,sw]), so each down-set is the union of one
mask already built and its image (``posets.lifted_down_sets``).
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from typing import Iterable, Sequence

from . import klpoly, matchings
from .posets import from_comparability, lifted_down_sets

DEFAULT_SIZE_BOUND = 50000
SIZE_BOUND_ENV = "PIRCONS_MAX_GROUP_SIZE"


class CoxeterError(ValueError):
    """Rejected Coxeter-matrix input."""


class SizeBoundError(CoxeterError):
    """The group has more elements than the size bound allows."""


def size_bound() -> int:
    raw = os.environ.get(SIZE_BOUND_ENV)
    if raw is None:
        return DEFAULT_SIZE_BOUND
    try:
        return int(raw)
    except ValueError as exc:
        raise CoxeterError(f"bad {SIZE_BOUND_ENV}={raw!r}") from exc


# ---------------------------------------------------------------------------
# Concrete realizations.  Each provides the identity element, the right
# multiplication by a generator, the Coxeter matrix and the group order.
# ---------------------------------------------------------------------------

class _TypeA:
    def __init__(self, rank: int):
        if rank < 1:
            raise CoxeterError("type A needs rank >= 1")
        self.rank = rank
        self.n_points = rank + 1

    def order(self):
        return math.factorial(self.n_points)

    def identity(self):
        return tuple(range(1, self.n_points + 1))

    def right(self, w, k):
        v = list(w)
        v[k], v[k + 1] = v[k + 1], v[k]
        return tuple(v)

    def tabulate(self):
        """``elements``, ``length``, ``right`` and ``d_right`` from ranks."""
        n = self.n_points
        # Length and right descents of each rank, by Lehmer digit from last
        length, desc = [0], [0]
        for i in range(n - 2, -1, -1):
            sub = len(length) // (n - 1 - i)  # ranks per value of c_(i+1)
            prev = desc
            length = [c + l for c in range(n - i) for l in length]
            desc = [d | 1 << i if c > j else d
                    for c in range(n - i) for j in range(n - 1 - i)
                    for d in prev[j * sub:(j + 1) * sub]]
        order = sorted(range(len(length)), key=length.__getitem__)
        pos = sorted(range(len(order)), key=order.__getitem__)  # inverse

        def rank_map(k):
            # s_k on one block of (n-k)! ranks: each (c_k, c_(k+1)) pair
            # owns m consecutive ranks, moved together.
            size, m = n - k, math.factorial(n - k - 2)
            block = []
            for a, b in itertools.product(range(size), range(size - 1)):
                a, b = (b + 1, a) if a <= b else (b, a - 1)
                start = (a * (size - 1) + b) * m
                block.extend(range(start, start + m))
            return [o + x for o in range(0, len(pos), len(block))
                    for x in block]

        # One generator's rank map at a time, freed once its column is made.
        cols = [list(map(pos.__getitem__, map(rank_map(k).__getitem__, order)))
                for k in range(self.rank)]
        perms = list(itertools.permutations(range(1, n + 1)))
        return (tuple(map(perms.__getitem__, order)), tuple(sorted(length)),
                tuple(zip(*cols)), tuple(map(desc.__getitem__, order)))

    def m_entry(self, i, j):
        if i == j:
            return 1
        return 3 if abs(i - j) == 1 else 2


class _TypeB:
    def __init__(self, rank: int):
        if rank < 1:
            raise CoxeterError("type B needs rank >= 1")
        self.rank = rank

    def order(self):
        return 2 ** self.rank * math.factorial(self.rank)

    def identity(self):
        return tuple(range(1, self.rank + 1))

    def right(self, w, k):
        v = list(w)
        if k == 0:
            v[0] = -v[0]
        else:
            v[k - 1], v[k] = v[k], v[k - 1]
        return tuple(v)

    def m_entry(self, i, j):
        if i == j:
            return 1
        if {i, j} == {0, 1}:
            return 4
        return 3 if abs(i - j) == 1 else 2


class _TypeD:
    def __init__(self, rank: int):
        if rank < 2:
            raise CoxeterError("type D needs rank >= 2")
        self.rank = rank

    def order(self):
        return 2 ** (self.rank - 1) * math.factorial(self.rank)

    def identity(self):
        return tuple(range(1, self.rank + 1))

    def right(self, w, k):
        v = list(w)
        if k == 0:
            v[0], v[1] = -v[1], -v[0]
        else:
            v[k - 1], v[k] = v[k], v[k - 1]
        return tuple(v)

    def m_entry(self, i, j):
        if i == j:
            return 1
        if {i, j} == {0, 1}:
            return 2
        if {i, j} == {0, 2}:
            return 3
        if 0 in (i, j):
            return 2
        return 3 if abs(i - j) == 1 else 2


class _Dihedral:
    """I2(m) acting on Z/m: an element is the map i -> a i + b, kept as
    (a, b) with a = +-1 and b mod m, and s_k is i -> k - i."""

    def __init__(self, m: int):
        if m < 2:
            raise CoxeterError("I2(m) needs m >= 2")
        self.m = m
        self.rank = 2

    def order(self):
        return 2 * self.m

    def identity(self):
        return (1, 0)

    def right(self, w, k):
        a, b = w
        return (-a, (a * k + b) % self.m)

    def m_entry(self, i, j):
        return 1 if i == j else self.m


class _Product:
    def __init__(self, factors: Sequence):
        if not factors:
            raise CoxeterError("product needs at least one factor")
        self.factors = list(factors)
        self.rank = sum(f.rank for f in factors)
        self._offsets = []
        off = 0
        for f in factors:
            self._offsets.append(off)
            off += f.rank

    def order(self):
        return math.prod(f.order() for f in self.factors)

    def _locate(self, k):
        for idx in range(len(self.factors) - 1, -1, -1):
            if k >= self._offsets[idx]:
                return idx, k - self._offsets[idx]
        raise IndexError(k)

    def identity(self):
        return tuple(f.identity() for f in self.factors)

    def right(self, w, k):
        idx, kk = self._locate(k)
        v = list(w)
        v[idx] = self.factors[idx].right(w[idx], kk)
        return tuple(v)

    def m_entry(self, i, j):
        ii, ik = self._locate(i)
        jj, jk = self._locate(j)
        if ii != jj:
            return 2
        return self.factors[ii].m_entry(ik, jk)


def _require(config: dict, field: str) -> int:
    value = config.get(field)
    # bool is an int subclass, but true is neither a rank nor an order
    if not isinstance(value, int) or isinstance(value, bool):
        raise CoxeterError(
            f"type {config.get('type')!r} needs an integer {field!r}")
    return value


# Each type's realization and the one matrix field it reads besides "type"
_TYPES = {"A": (_TypeA, "rank"), "B": (_TypeB, "rank"), "D": (_TypeD, "rank"),
          "I2": (_Dihedral, "m"), "product": (_Product, "factors")}


def _realization(config: dict):
    kind = config.get("type")
    if not isinstance(kind, str) or kind not in _TYPES:
        raise CoxeterError(f"unsupported Coxeter matrix type {kind!r}")
    real, field = _TYPES[kind]
    for key in config:
        if key not in ("type", field):
            raise CoxeterError(
                f"type {kind!r} does not read matrix field {key!r}")
    if kind != "product":
        return real(_require(config, field))
    factors = config.get("factors")
    if not isinstance(factors, list):
        raise CoxeterError("type 'product' needs a 'factors' list")
    for f in factors:
        if not isinstance(f, dict):
            raise CoxeterError(f"product factor {f!r} is not an object")
    return real([_realization(f) for f in factors])


# ---------------------------------------------------------------------------
# The tabulated group.
# ---------------------------------------------------------------------------

def _closure(real):
    """``elements``, ``length``, ``right`` and ``d_right`` by breadth-first
    closure, layer by layer of length.  Raises CoxeterError when the
    closure does not end with the realization's order."""
    r = real.rank
    ident = real.identity()
    elements = [ident]
    index = {ident: 0}
    length = [0]
    right = [[None] * r]
    d_right = [0]
    frontier = [0]
    while frontier:
        # Deterministic layer order: sort new elements by representation.
        nxt = {}
        for i in frontier:
            w = elements[i]
            for k, known in enumerate(right[i]):
                if known is None:
                    img = real.right(w, k)
                    if img in index:
                        raise CoxeterError(
                            "realization is not length-additive: "
                            f"{w!r} * s{k + 1} is already tabulated")
                    nxt.setdefault(img, []).append((i, k))
        layer = sorted(nxt)
        for img in layer:
            edges = nxt[img]
            j = len(elements)
            index[img] = j
            elements.append(img)
            length.append(length[edges[0][0]] + 1)
            row = [None] * r
            bits = 0
            for i, k in edges:
                right[i][k] = j
                row[k] = i
                bits |= 1 << k
            right.append(row)
            d_right.append(bits)
        frontier = [index[img] for img in layer]
    if len(elements) != real.order():
        raise CoxeterError(f"closure reached {len(elements)} elements, "
                           f"not the order {real.order()}")
    return (tuple(elements), tuple(length), tuple(map(tuple, right)),
            tuple(d_right))


class CoxeterSystem:
    """A finite Coxeter system with a complete element table.

    A group whose order is past the size bound is refused first.  Built
    eagerly, and the only tables kept: ``elements``, ``length``, ``right``
    and ``d_right``, for type A from its ranks, else by the closure, which
    refuses a realization that is not length-additive (an ascent whose
    image is already tabulated).  Inverses and lex-least words are read
    off one walk down right descents.
    """

    def __init__(self, config: dict):
        self.config = dict(config)
        real = _realization(config)
        bound = size_bound()
        # Refused by its order before anything is built.  A group of rank
        # r has at least 2^r elements, so a rank past the bound's bit
        # length is refused without multiplying out its order.
        if real.rank >= bound.bit_length() or real.order() > bound:
            raise SizeBoundError(f"group exceeds size bound {bound}")
        self.num_gens = r = real.rank
        self.matrix = tuple(tuple(real.m_entry(i, j)
                                  for j in range(real.rank))
                            for i in range(real.rank))
        self.elements, self.length, self.right, self.d_right = \
            real.tabulate() if isinstance(real, _TypeA) else _closure(real)
        # the lowest set bit of each descent mask, for ``_walk``
        self._lowest = tuple((d & -d).bit_length() - 1 for d in range(1 << r))

        for i in range(self.num_gens):
            for j in range(i + 1, self.num_gens):
                got = self._order_of_product(i, j)
                if got != self.matrix[i][j]:
                    raise CoxeterError(
                        f"m(s{i + 1},s{j + 1}) is {got}, "
                        f"matrix says {self.matrix[i][j]}")

    def _order_of_product(self, i: int, j: int) -> int:
        x = self.right[self.right[0][i]][j]
        k = 1
        while x:
            x = self.right[self.right[x][i]][j]
            k += 1
        return k

    # -- element queries ----------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> int:
        return 0

    def _walk(self, g: int) -> tuple[int, tuple[int, ...]]:
        """(g^-1, the lex-least reduced word of g^-1): while g is not e,
        g <- g s and u <- u s at the lowest right descent s of g, from
        u = e.  The lowest right descent of g is the lowest left descent
        of g^-1, so the generators stepped by, in order, are the greedy
        lex-least word of g^-1."""
        right, d_right, lowest = self.right, self.d_right, self._lowest
        u, word = 0, []
        while g:
            k = lowest[d_right[g]]
            g, u = right[g][k], right[u][k]
            word.append(k)
        return u, tuple(word)

    def inverse(self, w: int) -> int:
        """w^-1, in l(w) steps of the walk."""
        return self._walk(w)[0]

    # -- quotients ------------------------------------------------------------

    def quotient(self, H: Iterable[int]) -> "ParabolicQuotient":
        return ParabolicQuotient(self, H)

    def __repr__(self) -> str:
        return f"CoxeterSystem({self.config}, |W|={self.size})"


class ParabolicQuotient:
    """Minimal coset representatives W^H as a graded poset under Bruhat order.

    Poset element i corresponds to group element reps[i] of ``group``;
    ranks coincide with Coxeter length (asserted), and covers are
    recomputed inside the quotient.  Its pircon ``system`` is built on
    first use and kept.
    """

    def __init__(self, group: CoxeterSystem, H: Iterable[int]):
        H = frozenset(int(h) for h in H)
        for h in H:
            if not 0 <= h < group.num_gens:
                raise CoxeterError(f"H contains invalid generator {h}")
        self.group = group
        self.H = H
        walk, length, right = group._walk, group.length, group.right
        h_mask = sum(1 << h for h in H)
        # each rep w with its lex-least word and w^-1, by two walks: the
        # word of w is the walk of w^-1
        found = []
        for w, d in enumerate(group.d_right):
            if not d & h_mask:
                inv = walk(w)[0]
                found.append((length[w], walk(inv)[1], w, inv))
        found.sort()
        _, words, self.reps, inverses = zip(*found)
        # s w is in W^H exactly when w^-1 s is the inverse of a rep, and
        # then images[s][i], the poset index of lambda_s(reps[i]), is that
        # rep's; otherwise lambda_s fixes reps[i].
        by_inverse = {inv: i for i, inv in enumerate(inverses)}
        self.images = tuple(
            tuple(by_inverse.get(right[inv][s], i)
                  for i, inv in enumerate(inverses))
            for s in range(group.num_gens))
        masks = lifted_down_sets([length[w] for w in self.reps],
                                 self.images)
        labels = [".".join(str(k + 1) for k in word) or "e"
                  for word in words]
        self.poset = from_comparability(labels, masks)
        for i, w in enumerate(self.reps):
            if self.poset.rank[i] != length[w]:
                raise CoxeterError(
                    "quotient poset rank disagrees with Coxeter length")

    @property
    def n(self) -> int:
        return len(self.reps)

    def lambda_matching(self, s: int) -> matchings.PartialMatching:
        """The matching u -> su restricted to W^H: u maps to su when su
        stays in the quotient and is fixed otherwise.  A quasi SPM of the
        whole quotient poset; it validates itself and raises MatchingError
        on failure, which would signal a construction bug."""
        out = matchings.PartialMatching(self.poset,
                                        dict(enumerate(self.images[s])))
        ok, witness = matchings.verify_qspm(out)
        if not ok:
            raise matchings.MatchingError(
                f"lambda matching for s{s + 1} failed validation: {witness}")
        return out

    @functools.cached_property
    def lambda_matchings(self) -> tuple[matchings.PartialMatching, ...]:
        """The distinct ``lambda_matching(s)``, in order of s, built on
        first use and kept: the matchings of the quotient's system."""
        return tuple(dict.fromkeys(map(self.lambda_matching,
                                       range(self.group.num_gens))))

    @functools.cached_property
    def system(self) -> klpoly.PirconSystem:
        """The left multiplication matchings with the canonical refinement
        ``klpoly.lambda_refinement``, built on first use and kept."""
        return klpoly.PirconSystem(self.poset, self.lambda_matchings,
                                   klpoly.lambda_refinement(self))

    def __repr__(self) -> str:
        hh = "{" + ",".join(f"s{h + 1}" for h in sorted(self.H)) + "}"
        return f"ParabolicQuotient(H={hh}, {self.n} reps)"
