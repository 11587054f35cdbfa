"""Integer scalars: Laurent polynomials in q^(1/2) and polynomials in q.

Two scalar types:

* :class:`HalfLaurent` -- elements of Z[q^(1/2), q^(-1/2)], stored sparsely
  by *half-exponent*: the integer number of q^(1/2) units, so q itself sits
  at half-exponent 2 and q^(-1/2) at half-exponent -1.  The Hecke layer
  computes on packed ints (see ``hecke``); a HalfLaurent is a decoded
  coefficient, for printing, JSON and equality, and has no arithmetic.
* :class:`QPoly` -- ordinary polynomials in q with integer coefficients,
  stored densely in ascending powers.  The R and P recursions compute on
  packed ints (see ``klpoly``); a QPoly is a table entry, for printing,
  JSON, equality and the bar map ``tilde``, and has no ring operations.

Coefficients are Python ints of any size.  All values are immutable and
hashable, and the canonical zero stores no coefficients at all, which makes
equality structural.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping


class HalfLaurent:
    """An integer Laurent polynomial in q^(1/2), as read off a packed
    module-vector coefficient: for printing, JSON and equality."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        # Keys are half-exponents, zero coefficients are dropped.
        self._coeffs = {int(h): int(c) for h, c in (coeffs or {}).items()
                        if c}

    # -- queries --------------------------------------------------------

    def coeff(self, h: int) -> int:
        """Coefficient of q^(h/2)."""
        return self._coeffs.get(h, 0)

    def terms(self) -> dict[int, int]:
        """The nonzero coefficients keyed by half-exponent, as a new dict."""
        return dict(self._coeffs)

    def items(self):
        return sorted(self._coeffs.items())

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

    def tilde(self, n: int) -> "QPoly":
        """q^n * self(1/q).  Requires deg(self) <= n."""
        d = len(self._coeffs) - 1
        if d > n:
            raise ValueError(f"tilde(_, {n}) needs degree <= {n}, got {d}")
        out = [0] * (n + 1)
        for k, c in enumerate(self._coeffs):
            out[n - k] = c
        return QPoly(out)

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
