"""Finite Coxeter groups with full element tables.

Supported realizations: type A_n as permutations of [n+1] in one-line
notation, B_n as signed permutations, D_n as even-signed permutations,
I2(m) as the dihedral group of order 2m, and direct products of these.
The whole group is tabulated by breadth-first closure under right
multiplication by generators, which gives O(1) length, descent and
generator-multiplication queries; the trade-off is a configurable size
bound (PIRCONS_MAX_GROUP_SIZE, default 50000).

Generators are 0-indexed internally and rendered 1-based in labels, so the
element with lexicographically least reduced word s2*s1 is labelled "2.1".
Conventions per type:

* A_n: generators k = 0..n-1 are the adjacent transpositions (k+1, k+2).
* B_n: generator 0 is the sign change in the first position, generators
  k >= 1 the adjacent transpositions; m(s0, s1) = 4.
* D_n: generator 0 is the swap-and-negate of the first two positions,
  which commutes with generator 1 and braids with generator 2.
* I2(m): two generators with m(s0, s1) = m; elements are kept as reduced
  normal forms (length, first letter).

Bruhat order is computed by the standard descent-lift recursion with
memoization over element-index pairs.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence

from .posets import GradedPoset, from_comparability

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
# Concrete realizations.  Each provides the identity element, the right and
# left multiplication by a generator, and the Coxeter matrix.
# ---------------------------------------------------------------------------

class _TypeA:
    def __init__(self, rank: int):
        if rank < 1:
            raise CoxeterError("type A needs rank >= 1")
        self.rank = rank
        self.n_points = rank + 1

    def identity(self):
        return tuple(range(1, self.n_points + 1))

    def right(self, w, k):
        v = list(w)
        v[k], v[k + 1] = v[k + 1], v[k]
        return tuple(v)

    def left(self, w, k):
        a, b = k + 1, k + 2
        return tuple(b if x == a else a if x == b else x for x in w)

    def m_entry(self, i, j):
        if i == j:
            return 1
        return 3 if abs(i - j) == 1 else 2


class _TypeB:
    def __init__(self, rank: int):
        if rank < 1:
            raise CoxeterError("type B needs rank >= 1")
        self.rank = rank

    def identity(self):
        return tuple(range(1, self.rank + 1))

    def right(self, w, k):
        v = list(w)
        if k == 0:
            v[0] = -v[0]
        else:
            v[k - 1], v[k] = v[k], v[k - 1]
        return tuple(v)

    def left(self, w, k):
        if k == 0:
            return tuple(-x if abs(x) == 1 else x for x in w)
        a, b = k, k + 1

        def f(x):
            if abs(x) == a:
                return b if x > 0 else -b
            if abs(x) == b:
                return a if x > 0 else -a
            return x
        return tuple(f(x) for x in w)

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

    def identity(self):
        return tuple(range(1, self.rank + 1))

    def right(self, w, k):
        v = list(w)
        if k == 0:
            v[0], v[1] = -v[1], -v[0]
        else:
            v[k - 1], v[k] = v[k], v[k - 1]
        return tuple(v)

    def left(self, w, k):
        if k == 0:
            def f(x):
                if abs(x) == 1:
                    return -2 if x > 0 else 2
                if abs(x) == 2:
                    return -1 if x > 0 else 1
                return x
            return tuple(f(x) for x in w)
        a, b = k, k + 1

        def f(x):
            if abs(x) == a:
                return b if x > 0 else -b
            if abs(x) == b:
                return a if x > 0 else -a
            return x
        return tuple(f(x) for x in w)

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
    """I2(m) elements as reduced normal forms (length, first letter).

    The identity is (0, None) and the longest element (m, None); every other
    element is the alternating word of the given length starting with the
    given letter.
    """

    def __init__(self, m: int):
        if m < 2:
            raise CoxeterError("I2(m) needs m >= 2")
        self.m = m
        self.rank = 2

    def identity(self):
        return (0, None)

    def _last(self, length, first):
        return first if length % 2 == 1 else 1 - first

    def right(self, w, k):
        length, first = w
        m = self.m
        if length == 0:
            return (1, k)
        if length == m:
            # Remove the final letter from the word written to end with k.
            last = 1 - k
            first = last if (m - 1) % 2 == 1 else 1 - last
            return (m - 1, first)
        if self._last(length, first) == k:
            return (length - 1, first) if length > 1 else (0, None)
        return (length + 1, first) if length + 1 < m else (m, None)

    def left(self, w, k):
        length, first = w
        m = self.m
        if length == 0:
            return (1, k)
        if length == m:
            return (m - 1, 1 - k)
        if first == k:
            return (length - 1, 1 - k) if length > 1 else (0, None)
        return (length + 1, k) if length + 1 < m else (m, None)

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

    def left(self, w, k):
        idx, kk = self._locate(k)
        v = list(w)
        v[idx] = self.factors[idx].left(w[idx], kk)
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


def _realization(config: dict):
    kind = config.get("type")
    if kind == "A":
        return _TypeA(_require(config, "rank"))
    if kind == "B":
        return _TypeB(_require(config, "rank"))
    if kind == "D":
        return _TypeD(_require(config, "rank"))
    if kind == "I2":
        return _Dihedral(_require(config, "m"))
    if kind == "product":
        factors = config.get("factors")
        if not isinstance(factors, list):
            raise CoxeterError("type 'product' needs a 'factors' list")
        return _Product([_realization(f) for f in factors])
    raise CoxeterError(f"unsupported Coxeter matrix type {kind!r}")


# ---------------------------------------------------------------------------
# The tabulated group.
# ---------------------------------------------------------------------------

class CoxeterSystem:
    """A finite Coxeter system with a complete element table."""

    def __init__(self, config: dict, bound: int | None = None):
        self.config = dict(config)
        real = _realization(config)
        self.num_gens = real.rank
        self.matrix = tuple(tuple(real.m_entry(i, j)
                                  for j in range(real.rank))
                            for i in range(real.rank))
        bound = size_bound() if bound is None else bound

        ident = real.identity()
        elements = [ident]
        index = {ident: 0}
        right: list[list[int]] = []
        length = [0]
        word: list[tuple[int, ...]] = [()]
        frontier = [0]
        while frontier:
            # Deterministic layer order: sort new elements by representation.
            nxt = {}
            for i in frontier:
                for k in range(self.num_gens):
                    img = real.right(elements[i], k)
                    if img not in index and img not in nxt:
                        nxt[img] = (i, k)
            for img in sorted(nxt):
                i, k = nxt[img]
                index[img] = len(elements)
                elements.append(img)
                length.append(length[i] + 1)
                word.append(word[i] + (k,))
                if len(elements) > bound:
                    raise SizeBoundError(
                        f"group exceeds size bound {bound}")
            frontier = [index[img] for img in sorted(nxt)]
        n = len(elements)
        self.elements = tuple(elements)
        self.index = index
        self.length = tuple(length)
        self.word = tuple(word)

        self.right = tuple(tuple(index[real.right(elements[i], k)]
                                 for k in range(self.num_gens))
                           for i in range(n))
        self.left = tuple(tuple(index[real.left(elements[i], k)]
                                for k in range(self.num_gens))
                          for i in range(n))
        self.d_right = tuple(
            sum(1 << k for k in range(self.num_gens)
                if self.length[self.right[i][k]] < self.length[i])
            for i in range(n))
        self.d_left = tuple(
            sum(1 << k for k in range(self.num_gens)
                if self.length[self.left[i][k]] < self.length[i])
            for i in range(n))
        self._bruhat: dict[tuple[int, int], bool] = {}
        self._lexwords: list[tuple[int, ...] | None] = [None] * n

        for i in range(self.num_gens):
            for j in range(i + 1, self.num_gens):
                got = self._order_of_product(i, j)
                if got != self.matrix[i][j]:
                    raise CoxeterError(
                        f"m(s{i + 1},s{j + 1}) is {got}, "
                        f"matrix says {self.matrix[i][j]}")

    def _order_of_product(self, i: int, j: int) -> int:
        e = self.index[self.elements[0]]
        x = self.right[self.right[e][i]][j]
        k = 1
        while x != e:
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

    def mult_gen(self, w: int, s: int, side: str = "right") -> int:
        if side == "right":
            return self.right[w][s]
        if side == "left":
            return self.left[w][s]
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")

    def right_descents(self, w: int) -> frozenset[int]:
        return frozenset(k for k in range(self.num_gens)
                         if self.d_right[w] >> k & 1)

    def left_descents(self, w: int) -> frozenset[int]:
        return frozenset(k for k in range(self.num_gens)
                         if self.d_left[w] >> k & 1)

    def product(self, u: int, v: int) -> int:
        for k in self.word[v]:
            u = self.right[u][k]
        return u

    def inverse(self, w: int) -> int:
        u = 0
        for k in reversed(self.word[w]):
            u = self.right[u][k]
        return u

    def lex_least_word(self, w: int) -> tuple[int, ...]:
        """Lexicographically least reduced word, built greedily from D_L."""
        if self._lexwords[w] is None:
            out = []
            x = w
            while self.length[x]:
                s = min(k for k in range(self.num_gens)
                        if self.d_left[x] >> k & 1)
                out.append(s)
                x = self.left[x][s]
            self._lexwords[w] = tuple(out)
        return self._lexwords[w]

    def label(self, w: int) -> str:
        word = self.lex_least_word(w)
        return "e" if not word else ".".join(str(k + 1) for k in word)

    def longest_element(self) -> int:
        top = max(range(self.size), key=lambda i: self.length[i])
        return top

    # -- Bruhat order -----------------------------------------------------

    def bruhat_leq(self, u: int, w: int) -> bool:
        """u <= w via the descent-lift recursion."""
        if u == w or u == 0:
            return True
        if self.length[u] >= self.length[w]:
            return False
        key = (u, w)
        cached = self._bruhat.get(key)
        if cached is not None:
            return cached
        s = min(k for k in range(self.num_gens) if self.d_right[w] >> k & 1)
        ws = self.right[w][s]
        if self.d_right[u] >> s & 1:
            val = self.bruhat_leq(self.right[u][s], ws)
        else:
            val = self.bruhat_leq(u, ws)
        self._bruhat[key] = val
        return val

    # -- quotients ------------------------------------------------------------

    def quotient(self, H: Iterable[int]) -> "ParabolicQuotient":
        return ParabolicQuotient(self, H)

    def __repr__(self) -> str:
        return f"CoxeterSystem({self.config}, |W|={self.size})"


class ParabolicQuotient:
    """Minimal coset representatives W^H as a graded poset under Bruhat order.

    Poset element i corresponds to group element reps[i]; ranks coincide with
    Coxeter length (asserted), and covers are recomputed inside the quotient.
    """

    def __init__(self, system: CoxeterSystem, H: Iterable[int]):
        H = frozenset(int(h) for h in H)
        for h in H:
            if not 0 <= h < system.num_gens:
                raise CoxeterError(f"H contains invalid generator {h}")
        self.system = system
        self.H = H
        reps = [w for w in range(system.size)
                if all(not (system.d_right[w] >> h & 1) for h in H)]
        reps.sort(key=lambda w: (system.length[w], system.lex_least_word(w)))
        self.reps = tuple(reps)
        self.rep_index = {w: i for i, w in enumerate(reps)}

        masks = []
        for i, w in enumerate(reps):
            m = 0
            for j, u in enumerate(reps):
                if system.bruhat_leq(u, w):
                    m |= 1 << j
            masks.append(m)
        labels = [system.label(w) for w in reps]
        self.poset = from_comparability(labels, masks)
        for i, w in enumerate(reps):
            if self.poset.rank[i] != system.length[w]:
                raise CoxeterError(
                    "quotient poset rank disagrees with Coxeter length")

    @property
    def n(self) -> int:
        return len(self.reps)

    def lower_interval(self, i: int) -> GradedPoset:
        """The induced poset on {z in W^H : z <= reps[i]}."""
        return self.poset.order_ideal(i)

    def __repr__(self) -> str:
        hh = "{" + ",".join(f"s{h + 1}" for h in sorted(self.H)) + "}"
        return f"ParabolicQuotient(H={hh}, {self.n} reps)"
