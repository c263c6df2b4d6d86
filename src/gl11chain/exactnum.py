"""Exact scalar, polynomial and rational-function arithmetic.

All computations in this package are exact; nothing is ever rounded.

Representation conventions:

  Scalar   fractions.Fraction (arbitrary precision, canonical reduced form).
           Serialized as decimal-free "p/q" strings, e.g. "-3/2", "5".
  Poly     immutable univariate polynomial: tuple of Fraction coefficients,
           lowest degree first, with the leading coefficient nonzero.  The
           zero polynomial is the empty tuple and has degree -1.
  RatFun   quotient of two Polys kept in canonical form: denominator monic
           and coprime to the numerator.  Equality is decidable.
  EpsElem  a RatFun in an auxiliary regularization variable; eps_limit
           evaluates it at 0 when the specialization exists.

Polynomial coefficients are always Fraction.  Where matrices of polynomials
or rational functions appear elsewhere in the package, the entry type is one
of the three classes above; they all interoperate with int and Fraction
through the usual arithmetic operators.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

Scalar = Fraction

ScalarLike = Union[int, Fraction]


def scalar(v: ScalarLike) -> Fraction:
    """Coerce an int, Fraction or "p/q" string to a Fraction."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return parse_scalar(v)
    raise TypeError(f"cannot coerce {v!r} to an exact scalar")


def parse_scalar(s: str) -> Fraction:
    """Parse a decimal-free "p/q" (or "p") string."""
    s = s.strip()
    if "." in s or "e" in s.lower():
        raise ValueError(f"scalar string must be decimal-free: {s!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


def format_scalar(x: ScalarLike) -> str:
    """Render a scalar as "p/q", or "p" when the denominator is 1."""
    x = scalar(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class NonRemovableSingularity(ArithmeticError):
    """Raised by eps_limit when the value has a pole at 0."""

    def __init__(self, pole_order: int):
        super().__init__(f"non-removable singularity: pole of order {pole_order}")
        self.pole_order = pole_order


def _as_coeff(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"polynomial coefficients must be rational, got {v!r}")


class Poly:
    """Univariate polynomial over Fraction, lowest-degree-first coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[ScalarLike] = ()):
        cs = [_as_coeff(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_roots(roots: Iterable[ScalarLike]) -> "Poly":
        """Monic polynomial with the given root multiset."""
        p = Poly((1,))
        for r in roots:
            p = p * Poly((-scalar(r), 1))
        return p

    # -- basic queries ------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, d: int) -> Fraction:
        return self.coeffs[d] if 0 <= d < len(self.coeffs) else Fraction(0)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = _poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = _poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, RatFun):
            return NotImplemented
        other = _poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly((1,))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = scalar(other)
            return Poly(tuple(v / c for v in self.coeffs))
        if isinstance(other, Poly):
            return RatFun(self, other)
        return NotImplemented

    def __eq__(self, other):
        other = _poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # -- evaluation and reshaping ---------------------------------------

    def __call__(self, v):
        """Evaluate by Horner; v may be a Fraction, Poly or RatFun."""
        if not self.coeffs:
            return Fraction(0) if isinstance(v, (int, Fraction)) else 0 * v
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * v + c
        return acc

    def shift(self, a: ScalarLike) -> "Poly":
        """Return p(x - a)."""
        out = self(Poly((-scalar(a), 1)))
        return out if isinstance(out, Poly) else Poly((out,))

    def derivative(self) -> "Poly":
        return Poly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def monic(self) -> "Poly":
        if not self.coeffs:
            raise ValueError("zero polynomial cannot be made monic")
        lc = self.coeffs[-1]
        return Poly(tuple(c / lc for c in self.coeffs))

    def __divmod__(self, other: "Poly"):
        other = _poly(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly(), self
        quot = [Fraction(0)] * (dq + 1)
        dcs = other.coeffs
        lead = dcs[-1]
        for i in range(dq, -1, -1):
            f = rem[i + len(dcs) - 1] / lead
            quot[i] = f
            if f:
                for j, c in enumerate(dcs):
                    rem[i + j] -= f * c
        return Poly(quot), Poly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    @staticmethod
    def gcd(a: "Poly", b: "Poly") -> "Poly":
        """Monic gcd (1 for coprime inputs, 0 only if both are 0)."""
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    @staticmethod
    def lcm(a: "Poly", b: "Poly") -> "Poly":
        if a.is_zero() or b.is_zero():
            return Poly()
        g = Poly.gcd(a, b)
        return ((a * b) // g).monic()

    # -- serialization --------------------------------------------------

    def to_strings(self) -> list[str]:
        """Coefficient array, lowest degree first, as "p/q" strings."""
        return [format_scalar(c) for c in self.coeffs]

    def __repr__(self):
        if not self.coeffs:
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(format_scalar(c))
            else:
                xs = "x" if i == 1 else f"x^{i}"
                terms.append(xs if c == 1 else f"{format_scalar(c)}*{xs}")
        return "Poly(" + " + ".join(terms) + ")"


def _poly(v):
    if isinstance(v, Poly):
        return v
    if isinstance(v, (int, Fraction)):
        return Poly((v,))
    return NotImplemented


class RatFun:
    """Rational function num/den in canonical form (den monic, coprime)."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=Poly((1,))):
        num = _poly(num)
        den = _poly(den)
        if num is NotImplemented or den is NotImplemented:
            raise TypeError("RatFun parts must be polynomials or scalars")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num, self.den = Poly(), Poly((1,))
            return
        g = Poly.gcd(num, den)
        if g.degree > 0:
            num, den = num // g, den // g
        lc = den.leading()
        if lc != 1:
            num = num * (1 / lc)
            den = den.monic()
        self.num, self.den = num, den

    # -- queries --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    # -- field operations -------------------------------------------------

    def __add__(self, other):
        other = _ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFun(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        r = RatFun.__new__(RatFun)
        r.num, r.den = -self.num, self.den
        return r

    def __sub__(self, other):
        other = _ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFun(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFun(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if n < 0:
            return RatFun(self.den, self.num) ** (-n)
        return RatFun(self.num**n, self.den**n)

    def __eq__(self, other):
        other = _ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- evaluation -------------------------------------------------------

    def __call__(self, v: ScalarLike) -> Fraction:
        v = scalar(v)
        dv = self.den(v)
        if dv == 0:
            raise ZeroDivisionError(f"pole at {format_scalar(v)}")
        return self.num(v) / dv

    def shift(self, a: ScalarLike) -> "RatFun":
        """Return f(x - a)."""
        return RatFun(self.num.shift(a), self.den.shift(a))

    def __repr__(self):
        if self.is_polynomial():
            return f"RatFun({self.num!r})"
        return f"RatFun({self.num!r} / {self.den!r})"


def _ratfun(v):
    if isinstance(v, RatFun):
        return v
    p = _poly(v)
    if p is NotImplemented:
        return NotImplemented
    return RatFun(p)


# EpsElem: rational functions of the regularization variable.  The class is
# the same as RatFun; only the intended variable differs.
EpsElem = RatFun


def eps_limit(v: Union[EpsElem, Poly, ScalarLike]) -> Fraction:
    """Value at 0 of an EpsElem; raises NonRemovableSingularity on a pole."""
    if isinstance(v, (int, Fraction)):
        return scalar(v)
    if isinstance(v, Poly):
        return v.coeff(0)
    d = v.den
    if d(Fraction(0)) != 0:
        return v.num(Fraction(0)) / d(Fraction(0))
    order = 0
    while d.coeff(order) == 0:
        order += 1
    raise NonRemovableSingularity(order)


# ---------------------------------------------------------------------------
# Laurent expansion at infinity
# ---------------------------------------------------------------------------


def laurent_expand(f: Union[RatFun, Poly], order: int) -> list[Fraction]:
    """Coefficients of x^0, x^-1, ..., x^-order in the expansion at infinity.

    The input must be proper at infinity (deg num <= deg den); geometric
    expansion of each 1/(x - z) style factor is exact.
    """
    f = _ratfun(f)
    n, d = f.num, f.den
    if n.degree > d.degree:
        raise ValueError("not expandable at infinity")
    big = d.degree
    # substitute x = 1/u and clear u^big from both parts
    rn = [n.coeff(big - i) for i in range(big + 1)]
    rd = [d.coeff(big - i) for i in range(big + 1)]
    out: list[Fraction] = []
    lead = rd[0]
    rem = list(rn) + [Fraction(0)] * (order + 1)
    for i in range(order + 1):
        c = rem[i] / lead
        out.append(c)
        if c:
            for j, dc in enumerate(rd):
                if i + j <= order:
                    rem[i + j] -= c * dc
    return out


# ---------------------------------------------------------------------------
# Rational roots and the split test
# ---------------------------------------------------------------------------


def _divisors(m: int) -> list[int]:
    m = abs(m)
    out = []
    i = 1
    while i * i <= m:
        if m % i == 0:
            out.append(i)
            if i != m // i:
                out.append(m // i)
        i += 1
    return sorted(out)


def _to_primitive_int(p: Poly) -> list[int]:
    """Scale to a primitive integer coefficient list (content removed)."""
    den = 1
    for c in p.coeffs:
        den = lcm(den, c.denominator)
    ints = [int(c * den) for c in p.coeffs]
    g = 0
    for v in ints:
        g = gcd(g, v)
    return [v // g for v in ints]


# Small primes for the early rejection in roots_with_multiplicity.
_SIEVE_PRIMES = (5, 7, 11, 13)


def _root_count_mod(ints: Sequence[int], ell: int) -> int:
    """Roots in F_ell, with multiplicity, of an integer list (lowest first).

    The leading coefficient must be a unit mod ell.
    """
    cs = [c % ell for c in ints]
    count = 0
    for r in range(ell):
        while len(cs) > 1:
            # synthetic division by (x - r) over F_ell
            quot = [0] * (len(cs) - 1)
            acc = cs[-1]
            for i in range(len(cs) - 2, -1, -1):
                quot[i] = acc
                acc = (acc * r + cs[i]) % ell
            if acc:
                break
            cs = quot
            count += 1
    return count


def _peel(ints: list[int], p: int, q: int) -> "list[int] | None":
    """Exact quotient of an integer list by (q x - p), or None if inexact.

    For a primitive integer polynomial and a reduced p/q, the quotient is
    integral exactly when p/q is a root (Gauss's lemma), so a single
    inexact step proves p/q is not one.
    """
    d = len(ints) - 1
    quot = [0] * d
    b, rem = divmod(ints[d], q)
    if rem:
        return None
    for k in range(d - 1, 0, -1):
        quot[k] = b
        b, rem = divmod(ints[k] + p * b, q)
        if rem:
            return None
    quot[0] = b
    return quot if -p * b == ints[0] else None


def roots_with_multiplicity(p: Poly) -> "list[tuple[Fraction, int]] | None":
    """Sorted (root, multiplicity) pairs, or None when p does not split.

    Works on the primitive integer form a_d x^d + ... + a_0 of p, after
    x = 0 is stripped with its multiplicity.

    Sieve: for each prime l in _SIEVE_PRIMES with l not dividing a_d, count
    the roots of p mod l in F_l with multiplicity; fewer than deg p proves
    that p does not split.  Sound because a split primitive p is, by
    Gauss's lemma, +-prod(q_i x - p_i) with each factor primitive, so
    a_d = +-prod q_i and l divides no q_i; mod l, p is then a_d prod(x - r_i)
    with r_i = p_i / q_i in F_l, which has deg p roots with multiplicity.
    No discriminant condition is needed, since multiplicity is counted.

    Peel: each candidate u/v in lowest terms with u | a_0 and v | a_d
    (rational root theorem) is divided out exactly in Z[x] by (v x - u) as
    often as it divides; p splits exactly when the cofactor left is a
    constant.  Raises ValueError("zero input") for the zero polynomial.
    """
    if p.is_zero():
        raise ValueError("zero input")
    ints = _to_primitive_int(p)
    zeros = 0
    while ints[zeros] == 0:
        zeros += 1
    ints = ints[zeros:]
    deg = len(ints) - 1
    for ell in _SIEVE_PRIMES:
        if ints[-1] % ell and _root_count_mod(ints, ell) < deg:
            return None
    out = [(Fraction(0), zeros)] if zeros else []
    cands = [
        (sign * u, v)
        for u in _divisors(ints[0])
        for v in _divisors(ints[-1])
        if gcd(u, v) == 1
        for sign in (1, -1)
    ]
    for num, den in cands:
        m = 0
        while len(ints) > 1 and ints[0] % num == 0 and ints[-1] % den == 0:
            quot = _peel(ints, num, den)
            if quot is None:
                break
            ints = quot
            m += 1
        if m:
            out.append((Fraction(num, den), m))
        if len(ints) == 1:
            return sorted(out)
    return None


def elementary_symmetric(values: Sequence[Fraction]) -> list[Fraction]:
    """e_1..e_n of the given values (e_0 omitted)."""
    es = [Fraction(1)] + [Fraction(0)] * len(values)
    for k, v in enumerate(values, start=1):
        for i in range(k, 0, -1):
            es[i] += v * es[i - 1]
    return es[1:]


def q_pochhammer_inverse(m: int, order: int) -> list[Fraction]:
    """Truncated series coefficients of 1/((1-q)(1-q^2)...(1-q^m))."""
    series = [Fraction(1)] + [Fraction(0)] * order
    for i in range(1, m + 1):
        # multiply by 1/(1-q^i): prefix sums with stride i
        for j in range(i, order + 1):
            series[j] += series[j - i]
    return series


def series_mul(a: Sequence[Fraction], b: Sequence[Fraction], order: int) -> list[Fraction]:
    out = [Fraction(0)] * (order + 1)
    for i, ca in enumerate(a[: order + 1]):
        if ca:
            for j, cb in enumerate(b[: order + 1 - i]):
                out[i + j] += ca * cb
    return out
