from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl11chain import exactnum, rational
from gl11chain.exactnum import (
    DIVISOR_BOUND,
    NonRemovableSingularity,
    Poly,
    RatFun,
    RootSearchTooLarge,
    elementary_symmetric,
    eps_limit,
    format_scalar,
    parse_scalar,
    q_pochhammer_inverse,
    roots_with_multiplicity,
)
from gl11chain.rational import _SIEVE_PRIMES, _divisors, _root_count_mod, primitive, rational_roots
from coefforacle import laurent_expand

rationals = st.builds(F, st.integers(-30, 30), st.integers(1, 12))
small_polys = st.builds(Poly, st.lists(rationals, max_size=5))


def test_scalar_strings():
    assert format_scalar(F(-3, 2)) == "-3/2"
    assert format_scalar(F(5)) == "5"
    assert parse_scalar("-3/2") == F(-3, 2)
    with pytest.raises(ValueError):
        parse_scalar("0.5")


class TestPoly:
    def test_basic_arithmetic(self):
        p = Poly((1, 2))  # 1 + 2x
        q = Poly((0, 0, 1))  # x^2
        assert (p * q).coeffs == (0, 0, 1, 2)
        assert (p + q).coeffs == (1, 2, 1)
        assert p(F(3)) == 7
        assert p.shift(1)(F(3)) == p(F(2))

    def test_divmod_and_gcd(self):
        a = Poly.from_roots([F(1), F(2), F(2)])
        b = Poly.from_roots([F(2), F(5)])
        q, r = divmod(a, b)
        assert q * b + r == a
        assert Poly.gcd(a, b) == Poly.from_roots([F(2)])

    @given(small_polys, small_polys)
    def test_mul_commutes(self, p, q):
        assert p * q == q * p

    @given(small_polys.filter(lambda p: p != 1))
    def test_product_by_one_returns_the_other_factor(self, p):
        # a Poly is immutable, so the factor itself is the product
        one = Poly((1,))
        assert all(got is p for got in (p * 1, 1 * p, p * one, one * p, F(1) * p, p * F(1)))
        assert p * -1 == -p and p * Poly((2,)) == p * F(2) == p + p
        # a constant with numerator 1 is one only over denominator 1
        half = Poly((F(1, 2),))
        assert p * half == half * p == p / 2

    @given(small_polys, small_polys, small_polys)
    def test_distributive(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(small_polys, rationals)
    def test_shift_evaluates(self, p, a):
        assert p.shift(a)(F(7)) == p(F(7) - a)

    def test_strings_roundtrip(self):
        p = Poly((F(1, 2), F(-3), F(0), F(2)))
        assert Poly(parse_scalar(c) for c in p.to_strings()) == p


class FractionPoly:
    """Reference polynomial on a tuple of Fraction coefficients, lowest degree first.

    The implementation Poly had before it moved to integer numerators over
    one denominator; kept as the oracle for the differential tests below.
    """

    def __init__(self, coeffs=()):
        cs = [F(c) if isinstance(c, int) else c for c in coeffs]
        if not all(isinstance(c, F) for c in cs):
            raise TypeError("polynomial coefficients must be rational")
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        other = _fpoly(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return FractionPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return FractionPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-_fpoly(other))

    def __mul__(self, other):
        if isinstance(other, RatFun):
            return NotImplemented
        a, b = self.coeffs, _fpoly(other).coeffs
        if not a or not b:
            return FractionPoly()
        out = [F(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return FractionPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        out = FractionPoly((1,))
        for _ in range(n):
            out = out * self
        return out

    def __truediv__(self, c):
        return FractionPoly(v / c for v in self.coeffs)

    def __eq__(self, other):
        return self.coeffs == _fpoly(other).coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __call__(self, v):
        if not self.coeffs:
            return F(0) if isinstance(v, (int, F)) else 0 * v
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * v + c
        return acc

    def shift(self, a):
        out = self(FractionPoly((-a, 1)))
        return out if isinstance(out, FractionPoly) else FractionPoly((out,))

    def monic(self):
        return FractionPoly(c / self.coeffs[-1] for c in self.coeffs)

    def __divmod__(self, other):
        rem = list(self.coeffs)
        dcs = other.coeffs
        dq = len(rem) - len(dcs)
        if dq < 0:
            return FractionPoly(), self
        quot = [F(0)] * (dq + 1)
        for i in range(dq, -1, -1):
            f = rem[i + len(dcs) - 1] / dcs[-1]
            quot[i] = f
            for j, c in enumerate(dcs):
                rem[i + j] -= f * c
        return FractionPoly(quot), FractionPoly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    @staticmethod
    def gcd(a, b):
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    @staticmethod
    def lcm(a, b):
        if a.is_zero() or b.is_zero():
            return FractionPoly()
        return ((a * b) // FractionPoly.gcd(a, b)).monic()

    def to_strings(self):
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


def _fpoly(v):
    return v if isinstance(v, FractionPoly) else FractionPoly((v,))


def agrees(p, ref):
    """p is a canonical Poly with the coefficients of the FractionPoly ref."""
    assert isinstance(p, Poly) and p.coeffs == ref.coeffs
    assert all(type(c) is int for c in p.nums) and type(p.denom) is int and p.denom > 0
    assert not p.nums or p.nums[-1] != 0
    assert gcd(p.denom, *p.nums) == 1
    assert p == Poly(ref.coeffs) and hash(p) == hash(ref)
    assert p.to_strings() == ref.to_strings() and repr(p) == repr(ref)


mixed_coeffs = st.lists(st.integers(-40, 40) | rationals, max_size=5)


class TestPolyMatchesFractionPoly:
    @given(mixed_coeffs, mixed_coeffs)
    @settings(max_examples=300)
    def test_ring_operations(self, a, b):
        p, q, fp, fq = Poly(a), Poly(b), FractionPoly(a), FractionPoly(b)
        agrees(p, fp)
        agrees(p + q, fp + fq)
        agrees(p - q, fp - fq)
        agrees(-p, -fp)
        agrees(p * q, fp * fq)
        assert (p == q) == (fp == fq)
        if not q.is_zero():
            agrees(p // q, fp // fq)
            agrees(p % q, fp % fq)
        if not p.is_zero():
            agrees(p.monic(), fp.monic())
        agrees(Poly.gcd(p, q), FractionPoly.gcd(fp, fq))
        agrees(Poly.lcm(p, q), FractionPoly.lcm(fp, fq))

    @given(mixed_coeffs, st.integers(0, 3), rationals.filter(bool), st.integers(-5, 5))
    def test_scalar_operations(self, a, n, c, k):
        p, fp = Poly(a), FractionPoly(a)
        agrees(p**n, fp**n)
        agrees(p / c, fp / c)
        agrees(p * c, fp * c)
        agrees(c * p, c * fp)
        agrees(p + k, fp + k)
        agrees(k - p, FractionPoly((k,)) - fp)
        assert (p == c) == (fp == c)

    @given(mixed_coeffs, rationals | st.integers(-9, 9))
    def test_shift_and_scalar_evaluation(self, a, v):
        p, fp = Poly(a), FractionPoly(a)
        agrees(p.shift(v), fp.shift(v))
        value = p(v)
        assert type(value) is F and value == fp(v)

    @given(mixed_coeffs, mixed_coeffs)
    @settings(max_examples=60)
    def test_composite_evaluation(self, a, b):
        p, q, fp, fq = Poly(a), Poly(b), FractionPoly(a), FractionPoly(b)
        # the reference returns a bare scalar for a constant p; Poly returns a Poly
        agrees(p(q), _fpoly(fp(fq)))
        r = RatFun(q, Poly((1, 1)))
        assert p(r) == fp(r)

    @pytest.mark.parametrize("bad", [[1.5], [1, 0.0], [F(1, 2), "3"], [None]])
    def test_non_rational_coefficient_rejected(self, bad):
        with pytest.raises(TypeError):
            Poly(bad)

    def test_integer_paths_construct_no_fraction(self, monkeypatch):
        p = Poly((3, -1, 4, 1, -5, 9))
        q = Poly((-2, 6, 5, -3))
        monic = Poly((7, 0, -2, 1))
        made = []
        real_new = F.__new__

        def counting_new(cls, *args, **kwargs):
            made.append(args)
            return real_new(cls, *args, **kwargs)

        monkeypatch.setattr(F, "__new__", counting_new)
        product, total, shifted = p * q, p + q - monic, p.shift(-3)
        quot, rem = divmod(p, monic)
        monkeypatch.undo()
        assert made == []
        assert quot * monic + rem == p and product == q * p and shifted.shift(3) == p and total - q == p - monic


class TestRatFun:
    def test_canonical(self):
        r = RatFun(Poly((0, 2)), Poly((0, 0, 4)))  # 2x / 4x^2 = 1/(2x)
        assert r.num == Poly((F(1, 2),))
        assert r.den == Poly((0, 1))

    @given(small_polys, small_polys)
    def test_field_ops(self, p, q):
        r = RatFun(p, Poly((1, 1)))
        s = RatFun(q, Poly((2, 1)))
        assert (r + s) - s == r
        if s:
            assert (r / s) * s == r

    def test_shift(self):
        r = RatFun(Poly((1,)), Poly((0, 1)))  # 1/x
        assert r.shift(2) == RatFun(Poly((1,)), Poly((-2, 1)))


def x_minus(r):
    return Poly((-r, 1))


def fraction_peel(p):
    """Reference split test: rational-root candidates tried by Fraction Horner.

    Peels each rational root off the monic form as often as it divides;
    kept as the oracle for the integer sieve and peel in roots_with_multiplicity.
    """
    rest = p.monic()
    ints = primitive(p.nums)
    while ints[0] == 0:
        ints = ints[1:]
    cands = [F(0)] if p.coeff(0) == 0 else []
    for pn in _divisors(ints[0]):
        for qn in _divisors(ints[-1]):
            for cand in (F(pn, qn), F(-pn, qn)):
                if cand not in cands and p(cand) == 0:
                    cands.append(cand)
    out = []
    for r in cands:
        m = 0
        while True:
            q, rem = divmod(rest, x_minus(r))
            if not rem.is_zero():
                break
            rest = q
            m += 1
        out.append((r, m))
    return sorted(out) if rest.degree == 0 else None


# products of rational linear factors (a x - b), with repeats
linear_factors = st.lists(st.tuples(st.integers(-20, 20), st.integers(1, 12)), min_size=1, max_size=4)


class TestSplit:
    @pytest.mark.parametrize(
        "p, expected",
        [
            # 3x^2 + 3x + 3/4 = 3 (x + 1/2)^2
            pytest.param(Poly((F(3, 4), 3, 3)), [(F(-1, 2), 2)], id="double_root_lead_3"),
            pytest.param(Poly((2, 1)), [(F(-2), 1)], id="linear"),
            pytest.param(Poly((1, 0, 1)), None, id="x2_plus_1"),
            pytest.param(Poly((1, 0, 1)) * Poly((2, 0, 1)) * 5, None, id="two_irreducible_quadratics"),
            pytest.param(x_minus(1) ** 2 * Poly((1, 0, 1)), None, id="double_root_times_x2_plus_1"),
            pytest.param(Poly((-2, 0, 1)) * x_minus(3), None, id="x2_minus_2_times_root_3"),
            pytest.param(Poly((F(-7, 2),)), [], id="constant"),
            # (x^3 + x + 1001)(x^3 - 2x + 9973)
            pytest.param(Poly((1001, 1, 0, 1)) * Poly((9973, -2, 0, 1)), None, id="two_irreducible_cubics"),
            # leading coefficients divisible by sieve primes, which the sieve must skip
            pytest.param(Poly((-1, 5005)), [(F(1, 5005), 1)], id="lead_5005"),
            pytest.param(Poly((-1, 5)) * Poly((-2, 7)), [(F(1, 5), 1), (F(2, 7), 1)], id="lead_35"),
            pytest.param(Poly((-1, 5005)) ** 2 * x_minus(3), [(F(1, 5005), 2), (F(3), 1)], id="lead_5005_squared"),
            pytest.param(Poly((0, 0, 2, 0, -2)), [(F(-1), 1), (F(0), 2), (F(1), 1)], id="root_zero_twice"),
            # x^2 - 2 has no roots mod 5 or 13: the sieve rejects it
            pytest.param(Poly((-2, 0, 1)), None, id="x2_minus_2"),
        ],
    )
    def test_table(self, p, expected):
        assert roots_with_multiplicity(p) == expected

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="zero input"):
            roots_with_multiplicity(Poly())

    @pytest.mark.parametrize("big", [DIVISOR_BOUND + 1, -(10**15 - 1)], ids=["bound-plus-one", "sixteen-digits"])
    def test_refused_above_the_bound(self, big):
        # (x - 1)(x - big) splits, so it passes the sieve and reaches the bound check on a_0 = big
        p = x_minus(1) * x_minus(big)
        with pytest.raises(RootSearchTooLarge, match="split test refused"):
            roots_with_multiplicity(p)
        with pytest.raises(RootSearchTooLarge, match="split test refused"):
            rational_roots(primitive(p.nums))

    def test_one_split_test_behind_both_entry_points(self):
        assert exactnum.RootSearchTooLarge is rational.RootSearchTooLarge
        assert exactnum.DIVISOR_BOUND == rational.DIVISOR_BOUND
        p = x_minus(F(-1, 2)) ** 2 * x_minus(3) * 6
        assert roots_with_multiplicity(p) == rational_roots(primitive(p.nums)) == [(F(-1, 2), 2), (F(3), 1)]

    @given(st.lists(rationals, min_size=0, max_size=3), st.lists(rationals, min_size=0, max_size=3))
    @settings(max_examples=25)
    def test_multiset_union(self, roots_a, roots_b):
        p = Poly.from_roots(roots_a) * 2
        q = Poly.from_roots(roots_b) * F(1, 3)
        merged: dict = {}
        for r, m in roots_with_multiplicity(p) + roots_with_multiplicity(q):
            merged[r] = merged.get(r, 0) + m
        assert roots_with_multiplicity(p * q) == sorted(merged.items())

    @given(st.lists(rationals, min_size=1, max_size=4))
    @settings(max_examples=25)
    def test_reconstruction(self, roots):
        p = Poly.from_roots(roots) * F(7, 3)
        recon = Poly((p.leading(),))
        for r, m in roots_with_multiplicity(p):
            recon = recon * x_minus(r) ** m
        assert recon == p

    @given(
        st.lists(st.tuples(st.integers(-12, 12), st.integers(1, 4)), max_size=4),
        st.lists(
            st.lists(st.integers(-9, 9), min_size=3, max_size=4).filter(lambda cs: cs[-1] != 0),
            max_size=2,
        ),
    )
    @settings(max_examples=40)
    def test_matches_sympy_factor_list(self, linear, others):
        sympy = pytest.importorskip("sympy")
        p = Poly((1,))
        for b, a in linear:
            p = p * Poly((b, a))
        for cs in others:
            p = p * Poly(cs)
        x = sympy.Symbol("x")
        _, factors = sympy.Poly([int(c) for c in reversed(p.coeffs)], x).factor_list()
        if all(f.degree() == 1 for f, _ in factors):
            expected = sorted((F(-int(f.nth(0)), int(f.nth(1))), m) for f, m in factors)
        else:
            expected = None
        assert roots_with_multiplicity(p) == expected

    @given(
        linear_factors | st.just([]),
        st.lists(st.lists(st.integers(-9, 9), min_size=2, max_size=4).filter(lambda cs: cs[-1] != 0), max_size=2),
        rationals.filter(bool),
    )
    @settings(max_examples=200)
    def test_matches_fraction_peel(self, linear, others, scale):
        p = Poly((scale,))
        for b, a in linear:
            p = p * Poly((-b, a))
        for cs in others:
            p = p * Poly(cs)
        assert roots_with_multiplicity(p) == fraction_peel(p)

    @given(linear_factors, st.integers(-5, 5).filter(bool))
    @settings(max_examples=100)
    def test_sieve_keeps_linear_products(self, factors, scale):
        p = Poly((scale,))
        for b, a in factors:
            p = p * Poly((-b, a))
        ints = primitive(p.nums)
        while ints[0] == 0:
            ints = ints[1:]
        for ell in _SIEVE_PRIMES:
            if ints[-1] % ell:
                assert _root_count_mod(ints, ell) == len(ints) - 1
        expected = fraction_peel(p)
        assert expected is not None and roots_with_multiplicity(p) == expected


class TestLaurent:
    """The oracle's scalar series at infinity (coefforacle.laurent_expand) on closed forms."""

    def test_geometric(self):
        a = F(5, 3)
        assert laurent_expand(RatFun(Poly((1,)), Poly((-a, 1))), 3) == [0, 1, a, a * a]

    def test_examples(self):
        assert laurent_expand(RatFun(Poly((1, 1)), Poly((0, 1))), 2) == [1, 1, 0]
        assert laurent_expand(RatFun(Poly((2, 1)), Poly((0, 1))), 2) == [1, 2, 0]

    def test_improper_rejected(self):
        with pytest.raises(ValueError, match="not expandable"):
            laurent_expand(RatFun(Poly((0, 0, 1)), Poly((0, 1))), 2)

    @given(
        st.builds(Poly, st.lists(rationals, max_size=4)),
        st.builds(Poly, st.lists(rationals, max_size=4)),
    )
    @settings(max_examples=30)
    def test_additive(self, a, b):
        den = Poly.from_roots([F(1), F(-2), F(3)])
        fa = RatFun(a, den)
        fb = RatFun(b, den)
        ea = laurent_expand(fa, 5)
        eb = laurent_expand(fb, 5)
        eab = laurent_expand(fa + fb, 5)
        assert eab == [x + y for x, y in zip(ea, eb)]


class TestEpsLimit:
    def test_removable(self):
        assert eps_limit(RatFun(Poly((0, 2, 1)), Poly((0, 1)))) == 2
        assert eps_limit(RatFun(Poly((0, 0, 0, 3)), Poly((0, 0, 0, 1)))) == 3

    def test_pole_carries_order(self):
        with pytest.raises(NonRemovableSingularity) as exc:
            eps_limit(RatFun(Poly((1,)), Poly((0, 1))))
        assert exc.value.pole_order == 1
        with pytest.raises(NonRemovableSingularity) as exc:
            eps_limit(RatFun(Poly((0, 1)), Poly((0, 0, 0, 1))))
        assert exc.value.pole_order == 2


def test_elementary_symmetric():
    es = elementary_symmetric([F(1), F(2), F(3)])
    assert es == [6, 11, 6]


def test_q_pochhammer_inverse_counts_partitions():
    # coefficient of q^d in 1/((1-q)...(1-q^m)) counts partitions into parts <= m
    def count(m, d):
        if d == 0:
            return 1
        if m == 0:
            return 0
        return sum(count(m - 1, d - m * j) for j in range(d // m + 1))

    for m in (1, 2, 3):
        series = q_pochhammer_inverse(m, 6)
        assert series == [count(m, d) for d in range(7)]
