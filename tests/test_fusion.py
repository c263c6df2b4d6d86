from fractions import Fraction as F

import pytest

from gl11chain.exactnum import Poly, RatFun
from gl11chain.linalg import ExactMatrix, SpanBasis
from gl11chain.monodromy import make_spec, ratfun_matrix_to_oppoly, tensor_monodromy
from gl11chain.superlin import graded_flip
from gl11chain.bethe import char_pair, enumerate_divisors
from gl11chain.fusion import (
    DiffOp,
    ber_twist_independence,
    berezinian,
    dy_coefficient,
    expansion_matches_routes,
    generating_oper,
    higher_transfer,
    higher_transfer_supertrace,
    oper_action_check,
    symmetrizers,
    transfer_ratfun,
    transfer_relation_check,
    universal_oper_check,
)

E1 = make_spec([(1, 0)], ["0"], ("2", "1"))
E2 = make_spec([(1, 0), (1, 0)], ["0", "1/2"], ("1", "1"))
E4 = make_spec([(1, 0), (1, 0)], ["2", "-3/2"], ("1", "2"))
E6 = make_spec([(2, 1), (1, 0)], ["0", "4"], ("1", "1"))


def rat(p, q=Poly((1,))):
    return RatFun(p, q)


class TestSymmetrizers:
    def test_m2_spans(self):
        a2, h2 = symmetrizers(2)
        assert (a2 @ a2) == a2 and (h2 @ h2) == h2
        ident = ExactMatrix.identity(4)
        assert a2 == (ident - graded_flip()) * F(1, 2)
        assert h2 == (ident + graded_flip()) * F(1, 2)
        # image of the antisymmetrizer: doubly-odd and the odd combination
        span = SpanBasis(4)
        for j in range(4):
            span.add(a2.column(j))
        assert span.dim == 2

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_ranks(self, m):
        a, h = symmetrizers(m)
        assert (a @ a) == a and (h @ h) == h
        assert a.rank() == 2 and h.rank() == 2

    def test_complementary_at_m2(self):
        a2, h2 = symmetrizers(2)
        assert (a2 + h2) == ExactMatrix.identity(4)
        assert (a2 @ h2).is_zero()


class TestHigherTransfer:
    def test_m1_is_transfer(self):
        pen = tensor_monodromy(E1)
        a1, _ = symmetrizers(1)
        assert higher_transfer_supertrace(pen, E1.twist, 1, a1) == transfer_ratfun(pen, E1.twist)

    def test_hand_value_single_site(self):
        # second transfer matrix on the highest vector of one site at 0:
        # -q2 (q1 (x+1) - q2 x)/x with twist (2, 1)
        rc = higher_transfer(E1, 2)
        assert rc.ok
        assert rc.matrix.get(0, 0) == rat(Poly((-2, -1)), Poly((0, 1)))

    @pytest.mark.parametrize("spec", [E1, E2, E4, E6], ids=["E1", "E2", "E4", "E6"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_routes_agree(self, spec, m):
        assert higher_transfer(spec, m).ok

    def test_mutual_commutativity(self):
        mats = [higher_transfer(E2, m).matrix for m in (1, 2)]
        polys = [ratfun_matrix_to_oppoly(m)[0] for m in mats]
        for a in range(polys[0].degree + 1):
            for b in range(polys[1].degree + 1):
                assert polys[0].coeff(a).commutes_with(polys[1].coeff(b))


class TestBerezinian:
    def test_single_site_value(self):
        ber = berezinian(E1)
        assert bool(ber)
        assert ber.value == rat(Poly((2, 2)), Poly((0, 1)))  # 2 (x+1)/x

    def test_shifted_site(self):
        spec = make_spec([(1, 0)], ["5"], ("3", "1"))
        ber = berezinian(spec)
        assert ber.value == rat(Poly((-12, 3)), Poly((-5, 1)))  # 3 (x-4)/(x-5)

    @pytest.mark.parametrize("spec", [E2, E4, E6], ids=["E2", "E4", "E6"])
    def test_scalar_tau_free_central(self, spec):
        ber = berezinian(spec)
        assert ber.forms_agree and ber.tau_free and ber.central
        cp = char_pair(spec)
        q1, q2 = spec.twist
        assert ber.value == RatFun(cp.phi * q1, cp.psi * q2)

    @pytest.mark.parametrize("spec", [E1, E2, E4], ids=["E1", "E2", "E4"])
    def test_twist_independence(self, spec):
        assert ber_twist_independence(spec)

    def test_trivial_module_value(self):
        # one-dimensional site with zero action: the quotient collapses to
        # the bare twist ratio q1/q2
        from gl11chain.monodromy import evaluation_monodromy
        from gl11chain.superlin import Weight
        from gl11chain.fusion import manin_entries

        pen = evaluation_monodromy(Weight(F(0), F(0)), F(3))
        k = manin_entries(pen, (F(5), F(2)))
        k11, k12, k21, k22 = k[(1, 1)], k[(1, 2)], k[(2, 1)], k[(2, 2)]
        ber = k11.mul((k22 - k21.mul(k11.inverse_single()).mul(k12)).inverse_single())
        assert ber.powers() == [0]
        assert ber.coeff(0).get(0, 0) == rat(Poly((F(5, 2),)))


class TestDiffOp:
    def test_shift_rule(self):
        dim = 1
        x = rat(Poly((0, 1)))
        f = DiffOp(dim, {0: ExactMatrix.from_dense([[x]])})
        tau = DiffOp.scalar_term(dim, 1, rat(Poly((1,))))
        left = tau.mul(f)
        # tau f(x) = f(x-1) tau
        assert left.coeff(1).get(0, 0) == rat(Poly((-1, 1)))

    def test_single_inverse(self):
        dim = 2
        m = ExactMatrix.from_dense([[rat(Poly((1, 1))), rat(Poly())], [rat(Poly()), rat(Poly((2,)))]])
        d = DiffOp(dim, {1: m})
        inv = d.inverse_single()
        assert d.mul(inv) == DiffOp.one(dim)
        assert inv.mul(d) == DiffOp.one(dim)

    def test_series_inverse(self):
        dim = 1
        d = DiffOp.one(dim) - DiffOp.scalar_term(dim, 1, rat(Poly((0, 1))))
        inv = d.inverse_series(3)
        assert d.mul(inv, hi=3) == DiffOp.one(dim)
        # geometric coefficients x(x-1)...(x-m+1)
        assert inv.coeff(2).get(0, 0) == rat(Poly((0, 1)) * Poly((-1, 1)))


class TestGeneratingOper:
    @pytest.mark.parametrize("spec", [E1, E2], ids=["E1", "E2"])
    def test_expansion_matches(self, spec):
        for c in expansion_matches_routes(spec, 3):
            assert c.ok, c.label

    def test_tau0_is_identity(self):
        oper = generating_oper(E2, 2)
        dim = 4
        ident = ExactMatrix.identity(dim, rat(Poly((1,))))
        assert oper.coeff(0) == ident


class TestTransferRelations:
    def test_m1_trivial(self):
        for c in transfer_relation_check(E1, 1):
            assert c.ok, c.label

    def test_m2_single_site_hand_case(self):
        # lhs = product of shifted first transfer matrices on the highest
        # vector: (q1(x-a+1)-q2(x-a))(q1(x-a)-q2(x-a-1))/((x-a)(x-a-1))
        checks = transfer_relation_check(E1, 2)
        assert all(c.ok for c in checks)
        rc = higher_transfer(E1, 2)
        ber = berezinian(E1)
        lhs = rc.matrix * (1 - ber.value.shift(1))
        want = rat(Poly((2, 1)) * Poly((1, 1)), Poly((0, 1)) * Poly((-1, 1)))
        assert lhs.get(0, 0) == want

    @pytest.mark.parametrize("spec", [E2, E4, E6], ids=["E2", "E4", "E6"])
    @pytest.mark.parametrize("m", [2, 3])
    def test_both_identities(self, spec, m):
        for c in transfer_relation_check(spec, m):
            assert c.ok, c.label


class TestOperAction:
    def test_m1_reduces_to_on_shell(self):
        from gl11chain.bethe import verify_on_shell

        cp = char_pair(E1)
        (dv,) = enumerate_divisors(cp.gamma, 1)
        assert verify_on_shell(E1, dv).ok
        checks = oper_action_check(E1, dv, 2)
        assert checks[0].ok  # tau^1 coefficient is the same statement

    def test_e1_orders(self):
        cp = char_pair(E1)
        (dv,) = enumerate_divisors(cp.gamma, 1)
        for c in oper_action_check(E1, dv, 3):
            assert c.ok, c.label

    def test_e2_orders(self):
        cp = char_pair(E2)
        (dv,) = enumerate_divisors(cp.gamma, 1)
        for c in oper_action_check(E2, dv, 3):
            assert c.ok, c.label

    def test_repeated_roots_rejected(self):
        e3 = make_spec([(1, 0), (1, 0), (1, 0)], ["0", "1/2", "-1/2"], ("1", "1"))
        cp = char_pair(e3)
        (dv,) = enumerate_divisors(cp.gamma, 2)
        with pytest.raises(ValueError, match="simple-root"):
            oper_action_check(e3, dv, 2)

    def test_scalar_coefficients_from_divisor(self):
        # independent value: tau^1 coefficient must be -(q1 z1 - q2 z2) y(x-1)/y
        cp = char_pair(E4)
        dv = enumerate_divisors(cp.gamma, 1)[0]
        got = dy_coefficient(E4, dv, 1)
        q1, q2 = E4.twist
        want = -(cp.zeta1 * q1 - cp.zeta2 * q2) * RatFun(dv.poly.shift(1), dv.poly)
        assert got == want


class TestUniversalOper:
    @pytest.mark.parametrize("spec", [E1, E2, E4], ids=["E1", "E2", "E4"])
    def test_both_forms(self, spec):
        order = int(spec.n) + 2
        for c in universal_oper_check(spec, order):
            assert c.ok, c.label

    def test_oper_reproduces_divisor_operator(self):
        # the generating operator applied to each on-shell vector matches the
        # scalar divisor operator coefficient by coefficient
        spec = E4
        oper = generating_oper(spec, 3)
        cp = char_pair(spec)
        from gl11chain.bethe import bethe_vector

        for level in range(cp.gamma.degree + 1):
            for dv in enumerate_divisors(cp.gamma, level):
                if any(m > 1 for _, m in dv.roots):
                    continue
                bv = bethe_vector(spec, dv.root_list())
                vec = [RatFun(Poly((v,))) for v in bv.vector]
                for m in range(4):
                    got = oper.coeff(m).apply(vec)
                    want = [dy_coefficient(spec, dv, m) * v for v in vec]
                    assert got == want
