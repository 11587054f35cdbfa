"""Exact Laurent-polynomial arithmetic over the integers.

Two scalar types:

* :class:`HalfLaurent` -- elements of Z[q^(1/2), q^(-1/2)], stored sparsely
  by *half-exponent*: the integer number of q^(1/2) units, so q itself sits
  at half-exponent 2 and q^(-1/2) at half-exponent -1.  Carries the bar
  involution q^(1/2) -> q^(-1/2).
* :class:`QPoly` -- ordinary polynomials in q with integer coefficients,
  stored densely in ascending powers.  These embed into HalfLaurent at even
  nonnegative half-exponents.

Coefficients are Python ints, so arithmetic never overflows.  All values are
immutable and hashable, and the canonical zero stores no coefficients at all,
which makes equality structural.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping


class HalfLaurent:
    """An integer Laurent polynomial in q^(1/2)."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        # Keys are half-exponents, zero coefficients are dropped.
        data = {}
        if coeffs:
            for h, c in coeffs.items():
                if c:
                    data[int(h)] = int(c)
        self._coeffs = data

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "HalfLaurent":
        return _ZERO

    @classmethod
    def one(cls) -> "HalfLaurent":
        return _ONE

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

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "HalfLaurent") -> "HalfLaurent":
        if not isinstance(other, HalfLaurent):
            return NotImplemented
        data = dict(self._coeffs)
        for h, c in other._coeffs.items():
            s = data.get(h, 0) + c
            if s:
                data[h] = s
            elif h in data:
                del data[h]
        out = HalfLaurent.__new__(HalfLaurent)
        out._coeffs = data
        return out

    def __neg__(self) -> "HalfLaurent":
        out = HalfLaurent.__new__(HalfLaurent)
        out._coeffs = {h: -c for h, c in self._coeffs.items()}
        return out

    def __sub__(self, other: "HalfLaurent") -> "HalfLaurent":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, HalfLaurent):
            return NotImplemented
        data: dict[int, int] = {}
        for h1, c1 in self._coeffs.items():
            for h2, c2 in other._coeffs.items():
                h = h1 + h2
                s = data.get(h, 0) + c1 * c2
                if s:
                    data[h] = s
                elif h in data:
                    del data[h]
        out = HalfLaurent.__new__(HalfLaurent)
        out._coeffs = data
        return out

    __rmul__ = __mul__

    def scale(self, n: int) -> "HalfLaurent":
        if n == 0:
            return _ZERO
        out = HalfLaurent.__new__(HalfLaurent)
        out._coeffs = {h: n * c for h, c in self._coeffs.items()}
        return out

    def shift(self, h: int) -> "HalfLaurent":
        """Multiply by q^(h/2)."""
        out = HalfLaurent.__new__(HalfLaurent)
        out._coeffs = {k + h: c for k, c in self._coeffs.items()}
        return out

    def bar(self) -> "HalfLaurent":
        """The involution sending q^(1/2) to q^(-1/2)."""
        out = HalfLaurent.__new__(HalfLaurent)
        out._coeffs = {-h: c for h, c in self._coeffs.items()}
        return out

    # -- queries --------------------------------------------------------

    def coeff(self, h: int) -> int:
        """Coefficient of q^(h/2)."""
        return self._coeffs.get(h, 0)

    def support(self) -> list[int]:
        return sorted(self._coeffs)

    def terms(self) -> dict[int, int]:
        """The nonzero coefficients keyed by half-exponent, as a new dict."""
        return dict(self._coeffs)

    def items(self):
        return sorted(self._coeffs.items())

    def is_q_polynomial(self) -> bool:
        """True when all exponents are integral and nonnegative."""
        return all(h >= 0 and h % 2 == 0 for h in self._coeffs)

    def to_qpoly(self) -> "QPoly":
        if not self.is_q_polynomial():
            raise ValueError(f"{self} does not lie in Z[q]")
        if not self._coeffs:
            return QPoly(())
        out = [0] * (max(self._coeffs) // 2 + 1)
        for h, c in self._coeffs.items():
            out[h // 2] = c
        return QPoly(out)

    # -- value semantics -----------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, HalfLaurent):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __repr__(self) -> str:
        if not self._coeffs:
            return "0"
        terms = []
        for h in sorted(self._coeffs, reverse=True):
            c = self._coeffs[h]
            if h == 0:
                t = str(c)
            else:
                e = f"q^({h}/2)" if h % 2 else (f"q^{h // 2}" if h != 2 else "q")
                if c == 1:
                    t = e
                elif c == -1:
                    t = f"-{e}"
                else:
                    t = f"{c}*{e}"
            terms.append(t)
        s = terms[0]
        for t in terms[1:]:
            s += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return s

    # -- serialization ---------------------------------------------------

    def to_json(self) -> list[list[int]]:
        """Sorted [half_exponent, coefficient] pairs."""
        return [[h, c] for h, c in self.items()]

    @classmethod
    def from_json(cls, data: Iterable[Iterable[int]]) -> "HalfLaurent":
        return cls({int(h): int(c) for h, c in data})


_ZERO = HalfLaurent()
_ONE = HalfLaurent({0: 1})


class QPoly:
    """A polynomial in q with integer coefficients, dense ascending order."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        c = [int(v) for v in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self._coeffs = tuple(c)

    @classmethod
    def zero(cls) -> "QPoly":
        return _QZERO

    @classmethod
    def one(cls) -> "QPoly":
        return _QONE

    @classmethod
    def monomial(cls, k: int, c: int = 1) -> "QPoly":
        return cls([0] * k + [c])

    # -- accessors ------------------------------------------------------

    def degree(self):
        """Degree as an int, or -inf for the zero polynomial."""
        return len(self._coeffs) - 1 if self._coeffs else -math.inf

    def coeff(self, k: int) -> int:
        if 0 <= k < len(self._coeffs):
            return self._coeffs[k]
        return 0

    def eval_at_zero(self) -> int:
        return self.coeff(0)

    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "QPoly") -> "QPoly":
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return QPoly(out)

    def __neg__(self) -> "QPoly":
        return QPoly([-v for v in self._coeffs])

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return QPoly([other * v for v in self._coeffs])
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return _QZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, u in enumerate(a):
            if u:
                for j, v in enumerate(b):
                    out[i + j] += u * v
        return QPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = _QONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def tilde(self, n: int) -> "QPoly":
        """q^n * self(1/q).  Requires deg(self) <= n."""
        d = len(self._coeffs) - 1
        if d > n:
            raise ValueError(f"tilde(_, {n}) needs degree <= {n}, got {d}")
        out = [0] * (n + 1)
        for k, c in enumerate(self._coeffs):
            out[n - k] = c
        return QPoly(out)

    # -- embedding --------------------------------------------------------

    def to_half_laurent(self) -> HalfLaurent:
        return HalfLaurent({2 * k: c for k, c in enumerate(self._coeffs) if c})

    def bar_half(self) -> HalfLaurent:
        """self(1/q) as a HalfLaurent value."""
        return self.to_half_laurent().bar()

    # -- value semantics ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, QPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __repr__(self) -> str:
        if not self._coeffs:
            return "0"
        terms = []
        for k in range(len(self._coeffs) - 1, -1, -1):
            c = self._coeffs[k]
            if not c:
                continue
            if k == 0:
                t = str(c)
            else:
                e = "q" if k == 1 else f"q^{k}"
                t = e if c == 1 else (f"-{e}" if c == -1 else f"{c}*{e}")
            terms.append(t)
        s = terms[0]
        for t in terms[1:]:
            s += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return s

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> list[int]:
        return list(self._coeffs)

    @classmethod
    def from_json(cls, data: Iterable[int]) -> "QPoly":
        return cls(data)


_QZERO = QPoly(())
_QONE = QPoly((1,))
