"""Test oracle: the polynomial model's MPoly keyed by exponent tuples.

This is MPoly as it was before monomials were packed into one int: every
product exponent is built as a tuple, and every new polynomial filters its
zero coefficients.  The differential tests run each operation on both and
compare the `terms` dicts.
"""

from fractions import Fraction
from typing import Optional, Sequence


class TupleMPoly:
    """Sparse multivariate polynomial: {exponent tuple: int or Fraction}."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Optional[dict] = None):
        self.n = n
        self.terms = {e: c for e, c in (terms or {}).items() if c}

    @staticmethod
    def const(n: int, c) -> "TupleMPoly":
        if isinstance(c, Fraction) and c.denominator == 1:
            c = c.numerator
        return TupleMPoly(n, {(0,) * n: c} if c else {})

    @staticmethod
    def var(n: int, idx: int, power: int = 1) -> "TupleMPoly":
        e = [0] * n
        e[idx] = power
        return TupleMPoly(n, {tuple(e): 1})

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def __eq__(self, other):
        other = _coerce(other, self.n)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __add__(self, other):
        other = _coerce(other, self.n)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return TupleMPoly(self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return TupleMPoly(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = _coerce(other, self.n)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other, self.n) + (-self)

    def __mul__(self, other):
        other = _coerce(other, self.n)
        if other is NotImplemented:
            return NotImplemented
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return TupleMPoly(self.n, out)

    __rmul__ = __mul__

    def swap(self, i: int, j: int) -> "TupleMPoly":
        out: dict = {}
        for e, c in self.terms.items():
            le = list(e)
            le[i], le[j] = le[j], le[i]
            out[tuple(le)] = c
        return TupleMPoly(self.n, out)

    def evaluate(self, point: Sequence):
        total = 0
        for e, c in self.terms.items():
            for v, k in zip(point, e):
                if k:
                    c *= v**k
            total += c
        return total

    def divided_difference(self, i: int) -> "TupleMPoly":
        """(f - f^swap)/(z_i - z_{i+1}), exact and termwise."""
        out: dict = {}
        j = i + 1
        for e, c in self.terms.items():
            a, b = e[i], e[j]
            if a == b:
                continue
            sign = 1 if a > b else -1
            lo, hi = min(a, b), max(a, b)
            for u in range(hi - lo):
                le = list(e)
                le[i] = lo + u
                le[j] = lo + (hi - lo - 1 - u)
                key = tuple(le)
                out[key] = out.get(key, 0) + sign * c
        return TupleMPoly(self.n, out)


def _coerce(v, n: int):
    if isinstance(v, TupleMPoly):
        return v
    if isinstance(v, (int, Fraction)):
        return TupleMPoly.const(n, v)
    return NotImplemented
