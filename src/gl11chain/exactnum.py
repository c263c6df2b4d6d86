"""Exact scalar, polynomial and rational-function arithmetic.

All computations in this package are exact; nothing is ever rounded.

Representation conventions:

  Scalar   fractions.Fraction (arbitrary precision, canonical reduced form).
           Serialized as decimal-free "p/q" strings, e.g. "-3/2", "5".
  Poly     immutable univariate polynomial over Q, stored as integer
           numerators (a tuple of int, lowest degree first, no trailing
           zero) over one positive int denominator coprime to them.  The
           zero polynomial is ((), 1) and has degree -1.  Every operation
           runs on the ints, and a product by one returns the other factor
           itself; `coeffs` is a read-only Fraction view.
  RatFun   quotient of two Polys kept in canonical form: denominator monic
           and coprime to the numerator.  Equality is decidable.  A RatFun
           in an auxiliary regularization variable eps is evaluated at 0 by
           eps_limit when the specialization exists.

Polynomial coefficients are rational: a Poly accepts int and Fraction
coefficients and rejects anything else (a float included) with TypeError.
Where matrices of polynomials or rational functions appear elsewhere in the
package, the entry type is one of the three classes above; they all
interoperate with int and Fraction through the usual arithmetic operators.

The scalar helpers (`scalar`, `parse_scalar`, `format_scalar`), the integer
root-pair product and the split test on primitive integer lists
(`rational_roots`, `DIVISOR_BOUND`, `RootSearchTooLarge`) live in the leaf
module rational, so the chain layer screens `random-spec` candidates
without loading this module.  They are re-exported here;
`Poly.from_root_pairs` and `roots_with_multiplicity` delegate to them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

from .rational import (
    DIVISOR_BOUND,
    RootSearchTooLarge,
    format_scalar,
    parse_scalar,
    primitive,
    rational_roots,
    root_pair_product,
    scalar,
)

Scalar = Fraction

ScalarLike = Union[int, Fraction]


class NonRemovableSingularity(ArithmeticError):
    """Raised by eps_limit when the value has a pole at 0."""

    def __init__(self, pole_order: int):
        super().__init__(f"non-removable singularity: pole of order {pole_order}")
        self.pole_order = pole_order


def _as_ints(coeffs: Iterable[ScalarLike]) -> tuple[list[int], int]:
    """Integer numerators over the lcm of the coefficient denominators."""
    cs = list(coeffs)
    den = 1
    for c in cs:
        if isinstance(c, Fraction):
            den = lcm(den, c.denominator)
        elif not isinstance(c, int):
            raise TypeError(f"polynomial coefficients must be rational, got {c!r}")
    return [c * den if isinstance(c, int) else c.numerator * (den // c.denominator) for c in cs], den


class Poly:
    """Univariate rational polynomial: integer numerators over one denominator.

    `nums` is a tuple of ints, lowest degree first, and `denom` a positive
    int; the polynomial is sum(nums[i] x^i) / denom.  The pair is canonical:
    no trailing zero in `nums`, gcd(denom, *nums) == 1, and the zero
    polynomial is ((), 1).  So equality is tuple equality, and every ring
    operation runs on ints.  `coeffs` is a read-only Fraction view, built on
    first use; the hash is that of the view.
    """

    __slots__ = ("nums", "denom", "_fracs")

    def __init__(self, coeffs: Iterable[ScalarLike] = ()):
        nums, den = _as_ints(coeffs)
        while nums and not nums[-1]:
            nums.pop()
        # den is the lcm of reduced denominators, so gcd(den, *nums) == 1
        self.nums = tuple(nums)
        self.denom = den
        self._fracs = None

    @staticmethod
    def _raw(nums: tuple, den: int) -> "Poly":
        """Wrap a pair that is already canonical."""
        p = object.__new__(Poly)
        p.nums = nums
        p.denom = den
        p._fracs = None
        return p

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_roots(roots: Iterable[ScalarLike]) -> "Poly":
        """Monic polynomial with the given root multiset."""
        return Poly.from_root_pairs((r.numerator, r.denominator) for r in map(scalar, roots))

    @staticmethod
    def from_root_pairs(pairs: Iterable[tuple[int, int]]) -> "Poly":
        """Monic polynomial with the roots p/q, given as (p, q) pairs with q > 0.

        Built on integers by `rational.root_pair_product`, so it is
        canonicalised once, at the end.
        """
        return _canon(*root_pair_product(pairs))

    # -- basic queries ------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Fraction coefficients, lowest degree first."""
        fracs = self._fracs
        if fracs is None:
            den = self.denom
            fracs = self._fracs = tuple(Fraction(n, den) for n in self.nums)
        return fracs

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self) -> bool:
        return bool(self.nums)

    def leading(self) -> Fraction:
        if not self.nums:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, d: int) -> Fraction:
        return self.coeffs[d] if 0 <= d < len(self.nums) else Fraction(0)

    # -- ring operations ----------------------------------------------

    def _plus(self, other: "Poly", sign: int) -> "Poly":
        """self + sign * other on a common denominator."""
        a, b = self.nums, other.nums
        if not b:
            return self
        if not a:
            return other if sign > 0 else -other
        den, db = self.denom, other.denom
        if den != db:
            g = gcd(den, db)
            sa, sb = db // g, den // g
            a = [c * sa for c in a]
            b = [c * sb for c in b]
            den *= sa
        if sign < 0:
            b = [-c for c in b]
        if len(a) < len(b):
            a, b = b, a
        out = [x + y for x, y in zip(a, b)]
        out.extend(a[len(b):])
        return _canon(out, den)

    def __add__(self, other):
        other = _poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Poly._raw(tuple(-c for c in self.nums), self.denom)

    def __sub__(self, other):
        other = _poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self._plus(other, -1)

    def __rsub__(self, other):
        other = _poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other._plus(self, -1)

    def __mul__(self, other):
        """The product; a factor equal to one returns the other factor itself, as a Poly is immutable."""
        if type(other) is not Poly:
            if isinstance(other, (int, Fraction)):
                if other == 1:
                    return self
                if not other or not self.nums:
                    return _ZERO
                return self._scaled(other.numerator, other.denominator)
            if not isinstance(other, Poly):
                return NotImplemented
        a, b = self.nums, other.nums
        if b == (1,) and other.denom == 1:
            return self
        if a == (1,) and self.denom == 1:
            return other
        if not a or not b:
            return _ZERO
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            c = b[0]
            out = [v * c for v in a]
        else:
            out = [0] * (len(a) + len(b) - 1)
            for i, cb in enumerate(b):
                if cb:
                    for j, ca in enumerate(a, i):
                        out[j] += ca * cb
        return _canon(out, self.denom * other.denom)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = _ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def _scaled(self, u: int, w: int) -> "Poly":
        """self * u / w for ints u and w != 0."""
        return _canon([c * u for c in self.nums], self.denom * w)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("polynomial division by zero")
            return self._scaled(other.denominator, other.numerator)
        if isinstance(other, Poly):
            return RatFun(self, other)
        return NotImplemented

    def __eq__(self, other):
        other = _poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.nums == other.nums and self.denom == other.denom

    def __hash__(self):
        return hash(self.coeffs)

    # -- evaluation and reshaping ---------------------------------------

    def __call__(self, v):
        """Evaluate by Horner; v may be an int, Fraction, Poly or RatFun."""
        nums = self.nums
        if isinstance(v, (int, Fraction)):
            if not nums:
                return Fraction(0)
            # p(u/w) = sum n_i u^i w^(d-i) / (denom w^d)
            u, w = v.numerator, v.denominator
            acc, wpow = nums[-1], 1
            for c in nums[-2::-1]:
                wpow *= w
                acc = acc * u + c * wpow
            return Fraction(acc, self.denom * wpow)
        if not nums:
            return 0 * v
        if isinstance(v, Poly):
            acc = Poly._raw(nums[-1:], 1)
            for c in nums[-2::-1]:
                acc = acc * v + c
            return acc._scaled(1, self.denom)
        cs = self.coeffs
        acc = cs[-1]
        for c in cs[-2::-1]:
            acc = acc * v + c
        return acc

    def shift(self, a: ScalarLike) -> "Poly":
        """Return p(x - a), by a Taylor shift on the integer numerators.

        With a = u/v and y = v x, p(x - a) = q(y - u) / (denom v^d) where
        q(y) = sum n_i v^(d-i) y^i, so only integers are shifted.
        """
        if not isinstance(a, (int, Fraction)):
            a = scalar(a)
        cs = list(self.nums)
        d = len(cs) - 1
        if not a or d < 1:
            return self
        u, v = a.numerator, a.denominator
        vpow = 1
        if v != 1:
            for i in range(d - 1, -1, -1):
                vpow *= v
                cs[i] *= vpow
        for i in range(d):
            for j in range(d - 1, i - 1, -1):
                cs[j] -= u * cs[j + 1]
        if v != 1:
            vk = 1
            for k in range(1, d + 1):
                vk *= v
                cs[k] *= vk
        return _canon(cs, self.denom * vpow)

    def monic(self) -> "Poly":
        if not self.nums:
            raise ValueError("zero polynomial cannot be made monic")
        return _canon(list(self.nums), self.nums[-1])

    def __divmod__(self, other: "Poly"):
        other = _poly(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.nums:
            raise ZeroDivisionError("polynomial division by zero")
        if len(self.nums) < len(other.nums):
            return _ZERO, self
        s, quot, rem = _pseudo_divmod(self.nums, other.nums)
        # s a = quot b + rem with a = denom_a p and b = denom_b q, so
        # p = (quot denom_b / (s denom_a)) q + rem / (s denom_a)
        den = s * self.denom
        return _canon([c * other.denom for c in quot], den), _canon(rem, den)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    @staticmethod
    def gcd(a: "Poly", b: "Poly") -> "Poly":
        """Monic gcd (1 for coprime inputs, 0 only if both are 0).

        Euclid on primitive integer numerators: each remainder is taken of a
        positive integer multiple of the dividend and made primitive, which
        changes it only by a nonzero scalar.
        """
        x, y = primitive(a.nums), primitive(b.nums)
        if len(x) < len(y):
            x, y = y, x
        while y:
            x, y = y, primitive(_pseudo_divmod(x, y)[2])
        return _canon(x, x[-1]) if x else _ZERO

    @staticmethod
    def lcm(a: "Poly", b: "Poly") -> "Poly":
        if a.is_zero() or b.is_zero():
            return _ZERO
        return ((a // Poly.gcd(a, b)) * b).monic()

    # -- serialization --------------------------------------------------

    def to_strings(self) -> list[str]:
        """Coefficient array, lowest degree first, as "p/q" strings."""
        return [format_scalar(c) for c in self.coeffs]

    def __repr__(self):
        if not self.nums:
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


def _canon(nums: list, den: int) -> Poly:
    """Canonical Poly for sum(nums[i] x^i) / den, with den a nonzero int."""
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        return _ZERO
    if den < 0:
        den = -den
        nums = [-c for c in nums]
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            den //= g
            nums = [c // g for c in nums]
    return Poly._raw(tuple(nums), den)


def _pseudo_divmod(a: Sequence[int], b: Sequence[int]) -> tuple[int, list[int], list[int]]:
    """(s, quot, rem) with s a = quot b + rem over Z[x], deg rem < deg b, s > 0.

    Long division of integer lists (lowest degree first, b nonzero,
    len(a) >= len(b)); rem comes without trailing zeros.  A step whose
    leading term is not divisible by the leading coefficient l of b first
    scales the remainder, the quotient and s by |l| / gcd(term, l), so s is
    1 for a monic b and the integers grow only where a step needs it.
    """
    rem = list(a)
    nb = len(b) - 1
    lead = b[-1]
    quot = [0] * (len(a) - nb)
    s = 1
    for i in range(len(quot) - 1, -1, -1):
        r = rem[i + nb]
        if not r:
            continue
        f, m = divmod(r, lead)
        if m:
            t = abs(lead) // gcd(r, lead)
            s *= t
            rem = [c * t for c in rem]
            quot = [c * t for c in quot]
            f = rem[i + nb] // lead
        quot[i] = f
        for j, c in enumerate(b, i):
            rem[j] -= f * c
    del rem[nb:]
    while rem and not rem[-1]:
        rem.pop()
    return s, quot, rem


def _poly(v):
    if isinstance(v, Poly):
        return v
    if isinstance(v, int):
        return Poly._raw((v,), 1) if v else _ZERO
    if isinstance(v, Fraction):
        return Poly._raw((v.numerator,), v.denominator) if v else _ZERO
    return NotImplemented


_ZERO = Poly._raw((), 1)
_ONE = Poly._raw((1,), 1)


class RatFun:
    """Rational function num/den in canonical form (den monic, coprime)."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=_ONE):
        num = _poly(num)
        den = _poly(den)
        if num is NotImplemented or den is NotImplemented:
            raise TypeError("RatFun parts must be polynomials or scalars")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num, self.den = _ZERO, _ONE
            return
        g = Poly.gcd(num, den)
        if g.degree > 0:
            num, den = num // g, den // g
        lead, dd = den.nums[-1], den.denom
        if lead != 1 or dd != 1:
            # divide both parts by the leading coefficient lead / dd of den
            num = num._scaled(dd, lead)
            den = den.monic()
        self.num, self.den = num, den

    # -- queries --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return bool(self.num)

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
        if self.den.degree == 0:
            return f"RatFun({self.num!r})"
        return f"RatFun({self.num!r} / {self.den!r})"


def _ratfun(v):
    if isinstance(v, RatFun):
        return v
    p = _poly(v)
    if p is NotImplemented:
        return NotImplemented
    return RatFun(p)


def eps_limit(v: Union[RatFun, Poly, ScalarLike]) -> Fraction:
    """Value at eps = 0 of a function of the regularization variable; raises NonRemovableSingularity on a pole."""
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
# Rational roots and the split test
# ---------------------------------------------------------------------------


def roots_with_multiplicity(p: Poly) -> "list[tuple[Fraction, int]] | None":
    """Sorted (root, multiplicity) pairs, or None when p does not split.

    `rational.rational_roots` on the primitive integer form of p: a mod-l
    sieve, then an exact peel of the rational-root candidates.  Raises
    ValueError("zero input") for the zero polynomial, and RootSearchTooLarge
    when p passes the sieve but a coefficient it would factor exceeds
    DIVISOR_BOUND.
    """
    if p.is_zero():
        raise ValueError("zero input")
    return rational_roots(primitive(p.nums))


def q_pochhammer_inverse(m: int, order: int) -> list[int]:
    """Truncated series coefficients of 1/((1-q)(1-q^2)...(1-q^m))."""
    series = [1] + [0] * order
    for i in range(1, m + 1):
        # multiply by 1/(1-q^i): prefix sums with stride i
        for j in range(i, order + 1):
            series[j] += series[j - i]
    return series


def series_mul(a: Sequence[int], b: Sequence[int], order: int) -> list[int]:
    out = [0] * (order + 1)
    for i, ca in enumerate(a[: order + 1]):
        if ca:
            for j, cb in enumerate(b[: order + 1 - i]):
                out[i + j] += ca * cb
    return out
