"""Exact scalars and the rational-root split test, on plain integers.

A leaf module: it imports only the standard library.  `chain` screens
`random-spec` candidates with it without loading the polynomial layer, and
exactnum re-exports its names and runs `Poly.from_root_pairs` and
`roots_with_multiplicity` through it.

  scalar, parse_scalar, format_scalar
      Fraction coercion and the decimal-free "p/q" text form.
  root_pair_product
      integer numerators and denominator of the monic polynomial with
      given roots p/q.
  primitive
      an integer list divided by the gcd of its entries.
  rational_roots
      the split test on a primitive integer list: a mod-l sieve, then an
      exact peel of the candidates of the rational root theorem.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence


def scalar(v) -> Fraction:
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


def format_scalar(x) -> str:
    """Render a scalar as "p/q", or "p" when the denominator is 1."""
    x = scalar(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def root_pair_product(pairs: Iterable[tuple[int, int]]) -> tuple[list[int], int]:
    """(nums, den) with sum(nums[i] x^i) / den monic, with the roots p/q given as (p, q) pairs, q > 0.

    nums is the product of the factors (q x - p), lowest degree first, and
    den the product of the q; the pair is not reduced.
    """
    nums, den = [1], 1
    for p, q in pairs:
        nums = [q * a - p * b for a, b in zip([0, *nums], [*nums, 0])]
        den *= q
    return nums, den


def primitive(nums: Sequence[int]) -> list[int]:
    """Integer list divided by the gcd of its entries (sign kept)."""
    g = gcd(*nums)
    return [c // g for c in nums] if g > 1 else list(nums)


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


# Small primes for the early rejection in rational_roots.
_SIEVE_PRIMES = (5, 7, 11, 13)

# Largest |a_0| and |a_d| whose divisors rational_roots enumerates.
# _divisors takes sqrt(|m|) trial divisions: 10**14 is 10**7 of them, about
# 1.5 s per coefficient on a 2.0 GHz Xeon vCPU (10**12 takes 0.15 s), and
# the time grows tenfold for every two more digits.
DIVISOR_BOUND = 10**14


class RootSearchTooLarge(ValueError):
    """The split test would have to enumerate divisors past DIVISOR_BOUND."""


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


def rational_roots(ints: Sequence[int]) -> "list[tuple[Fraction, int]] | None":
    """Sorted (root, multiplicity) pairs, or None when the polynomial does not split over Q.

    `ints` is a primitive integer polynomial a_0 + a_1 x + ... + a_d x^d,
    lowest degree first, with a_d != 0.  The root x = 0 is stripped first,
    with its multiplicity.

    Sieve: for each prime l in _SIEVE_PRIMES with l not dividing a_d, count
    the roots mod l in F_l with multiplicity; fewer than the degree proves
    that the polynomial does not split.  Sound because a split primitive p
    is, by Gauss's lemma, +-prod(q_i x - p_i) with each factor primitive, so
    a_d = +-prod q_i and l divides no q_i; mod l, p is then a_d prod(x - r_i)
    with r_i = p_i / q_i in F_l, which has deg p roots with multiplicity.
    No discriminant condition is needed, since multiplicity is counted.

    Peel: each candidate u/v in lowest terms with u | a_0 and v | a_d
    (rational root theorem) is divided out exactly in Z[x] by (v x - u) as
    often as it divides; p splits exactly when the cofactor left is a
    constant.  Raises RootSearchTooLarge when p passes the sieve but |a_0|
    or |a_d| exceeds DIVISOR_BOUND, since enumerating their divisors would
    not end in reasonable time.
    """
    zeros = 0
    while ints[zeros] == 0:
        zeros += 1
    ints = list(ints[zeros:])
    deg = len(ints) - 1
    for ell in _SIEVE_PRIMES:
        if ints[-1] % ell and _root_count_mod(ints, ell) < deg:
            return None
    big = max(abs(ints[0]), abs(ints[-1]))
    if big > DIVISOR_BOUND:
        raise RootSearchTooLarge(
            f"split test refused: a coefficient of the primitive integer form has {len(str(big))} digits, "
            f"above the bound of {DIVISOR_BOUND:.0e}"
        )
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
