"""Integer scalars: Laurent polynomials in q^(1/2) and polynomials in q.

Two scalar types:

* :class:`HalfLaurent` -- elements of Z[q^(1/2), q^(-1/2)], stored sparsely
  by *half-exponent*: the integer number of q^(1/2) units, so q itself sits
  at half-exponent 2 and q^(-1/2) at half-exponent -1.  The Hecke layer
  computes on packed ints (see ``hecke``); a HalfLaurent is a coefficient
  that ``HeckeContext.decode`` reads off one, for printing, JSON and
  equality, and has no arithmetic.
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


def _format(terms: Iterable[tuple[int, str]]) -> str:
    """The sum of nonzero (coefficient, monomial) terms, highest first,
    with "" the monomial 1: each term written c*e, or e alone for c = +-1,
    and joined by its sign; "0" when there are none."""
    out = ""
    for c, e in terms:
        if not e:
            t = str(c)
        elif c in (1, -1):
            t = e if c == 1 else f"-{e}"
        else:
            t = f"{c}*{e}"
        if not out:
            out = t
        elif t.startswith("-"):
            out += f" - {t[1:]}"
        else:
            out += f" + {t}"
    return out or "0"


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
        def monomial(h):
            if h == 0:
                return ""
            if h % 2:
                return f"q^({h}/2)"
            return "q" if h == 2 else f"q^{h // 2}"
        return _format((c, monomial(h)) for h, c in reversed(self.items()))

    # -- serialization ---------------------------------------------------

    def to_json(self) -> list[list[int]]:
        """Sorted [half_exponent, coefficient] pairs."""
        return [[h, c] for h, c in self.items()]


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
        return _format((c, "" if k == 0 else "q" if k == 1 else f"q^{k}")
                       for k, c in reversed(list(enumerate(self._coeffs)))
                       if c)

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> list[int]:
        return list(self._coeffs)

    @classmethod
    def from_json(cls, data: Iterable[int]) -> "QPoly":
        return cls(data)


_QZERO = QPoly(())
_QONE = QPoly((1,))
