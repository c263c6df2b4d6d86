from fractions import Fraction as F
from itertools import product

import pytest

from gl11chain.exactnum import Poly
from gl11chain.linalg import ExactMatrix
from gl11chain.monodromy import make_spec, tensor_monodromy, t_coefficient
from gl11chain.superlin import Weight, graded_flip
from gl11chain.bethe import Divisor, bethe_vector, char_pair, enumerate_divisors
from gl11chain.shapoform import (
    check_iota_contract,
    form_matrix,
    form_value,
    norm_check,
    orthogonality_check,
    r_matrix,
    wronskian,
)

W10 = Weight(F(1), F(0))
E1 = make_spec([(1, 0)], ["0"], ("2", "1"))
E2 = make_spec([(1, 0), (1, 0)], ["0", "1/2"], ("1", "1"))
E3 = make_spec([(1, 0), (1, 0), (1, 0)], ["0", "1/2", "-1/2"], ("1", "1"))
E4 = make_spec([(1, 0), (1, 0)], ["2", "-3/2"], ("1", "2"))
E6 = make_spec([(2, 1), (1, 0)], ["0", "4"], ("1", "1"))


class TestRMatrix:
    def test_vector_case_is_shifted_flip(self):
        # weight (1,0) on both legs: R(x) = (x + P)/(1 + x)
        for x in (F(1, 2), F(3), F(-1, 3)):
            got = r_matrix(W10, W10, x)
            want = (ExactMatrix.identity(4) * x + graded_flip()) * (1 / (1 + x))
            assert got == want

    def test_pole_rejected(self):
        with pytest.raises(ValueError, match="undefined"):
            r_matrix(W10, W10, F(-1))

    def _delta_matrices(self, wts, pts):
        spec = make_spec(wts, pts, ("1", "1"))
        pen = tensor_monodromy(spec)
        return {(i, j, r): t_coefficient(pen, i, j, r) for i in (1, 2) for j in (1, 2) for r in (1, 2)}

    def _delta_op_matrices(self, wts, pts):
        # opposite coproduct on two legs, from the one-site coefficients
        from gl11chain.monodromy import evaluation_monodromy
        from gl11chain.superlin import kron_signed

        legs = [evaluation_monodromy(Weight(F(a), F(b)), p) for (a, b), p in zip(wts, pts)]
        spec = make_spec(wts, pts, ("1", "1"))
        space = spec.space()
        out = {}
        for i, j in product((1, 2), repeat=2):
            for r_ord in (1, 2):
                acc = ExactMatrix(space.dim, space.dim)
                for r in (1, 2):
                    for a in range(r_ord + 1):
                        m1 = t_coefficient(legs[0], i, r, a)
                        m2 = t_coefficient(legs[1], r, j, r_ord - a)
                        sign = (-1) ** (((i + r) % 2) * ((r + j) % 2))
                        par2 = (r + j) % 2
                        term = kron_signed(space, {0: (m1, (i + r) % 2), 1: (m2, par2)})
                        acc = acc + term * sign
                out[(i, j, r_ord)] = acc
        return out

    def test_intertwines_coproducts(self):
        # Delta^op(X) R(b1 - b2) = R(b1 - b2) Delta(X) on generating coefficients
        wts, pts = [(1, 0), (2, 0)], [F(2), F(0)]
        spec = make_spec(wts, [str(p) for p in pts], ("1", "1"))
        pen = tensor_monodromy(spec)
        r = _embed_r(spec)
        dop = self._delta_op_matrices(wts, pts)
        for i, j in product((1, 2), repeat=2):
            for order in (1, 2):
                lhs = dop[(i, j, order)] @ r
                rhs = r @ t_coefficient(pen, i, j, order)
                assert lhs == rhs

    def test_equal_points_intertwiner(self):
        wts, pts = [(1, 0), (1, 0)], [F(1), F(1)]
        spec = make_spec(wts, [str(p) for p in pts], ("1", "1"))
        pen = tensor_monodromy(spec)
        r = _embed_r(spec)
        dop = self._delta_op_matrices(wts, pts)
        for i, j in product((1, 2), repeat=2):
            lhs = dop[(i, j, 1)] @ r
            rhs = r @ t_coefficient(pen, i, j, 1)
            assert lhs == rhs


def _embed_r(spec):
    from gl11chain.shapoform import r_product

    return r_product(spec)


class TestFormMatrix:
    def test_one_site_gram(self):
        gram = form_matrix(make_spec([(1, 0)], ["0"], ("1", "1")))
        assert gram.to_dense() == [[1, 0], [0, -1]]

    def test_one_site_general_weight(self):
        gram = form_matrix(make_spec([(3, 1)], ["0"], ("1", "1")))
        assert gram.to_dense() == [[1, 0], [0, -4]]

    def test_e2_gram_hand_value(self):
        # hand computation: diagonal tensor form diag(1,-1,-1,-1) composed
        # with R(-1/2) = 2P - 1
        gram = form_matrix(E2)
        want = [[1, 0, 0, 0], [0, 1, -2, 0], [0, -2, 1, 0], [0, 0, 0, 3]]
        assert gram.to_dense() == [[F(v) for v in row] for row in want]

    @pytest.mark.parametrize("spec", [E1, E2, E3, E4, E6], ids=["E1", "E2", "E3", "E4", "E6"])
    def test_symmetry_and_vacuum(self, spec):
        gram = form_matrix(spec)
        assert gram == gram.transpose()
        assert gram.get(0, 0) == 1

    def test_nondegenerate_iff_irreducible(self):
        assert form_matrix(E2).det() != 0
        reducible = make_spec([(1, 0), (1, 0), (1, 0)], ["1", "0", "-1"], ("1", "1"))
        assert form_matrix(reducible).det() == 0

    @pytest.mark.parametrize("spec", [E1, E2, E4, E6], ids=["E1", "E2", "E4", "E6"])
    def test_contravariance(self, spec):
        assert check_iota_contract(spec)

    def test_transfer_self_adjoint(self):
        from gl11chain.monodromy import transfer_pencil

        gram = form_matrix(E4)
        pen = tensor_monodromy(E4)
        tq = transfer_pencil(pen, E4.twist)
        for d in range(tq.degree + 1):
            assert (tq.coeff(d).transpose() @ gram) == (gram @ tq.coeff(d))


class TestNorms:
    def test_e1_exact_values(self):
        cp = char_pair(E1)
        (dv,) = enumerate_divisors(cp.gamma, 1)
        rec = norm_check(E1, dv)
        assert rec.lhs == -1 and rec.rhs_resolved == -1 and rec.equal
        # the textbook right-hand side differs by (-1)^l (q1/q2)^l here
        assert rec.rhs_stated == F(1, 2)

    def test_e2_exact_values(self):
        cp = char_pair(E2)
        (dv,) = enumerate_divisors(cp.gamma, 1)
        rec = norm_check(E2, dv)
        assert rec.lhs == F(3, 8) and rec.equal
        assert rec.rhs_stated == F(-3, 8)

    def test_vacuum_norm(self):
        rec = norm_check(E2, Divisor.from_roots([]))
        assert rec.lhs == 1 and rec.equal

    def test_two_sided_oracle(self):
        # both sides computed through unrelated code paths must agree for
        # every simple-root divisor of the twisted chain
        cp = char_pair(E4)
        gram = form_matrix(E4)
        wr = wronskian(E4)
        for level in range(cp.gamma.degree + 1):
            for dv in enumerate_divisors(cp.gamma, level):
                bv = bethe_vector(E4, dv.root_list())
                direct = form_value(gram, bv.vector, bv.vector)
                rec = norm_check(E4, dv)
                assert rec.lhs == direct and rec.equal

    def test_repeated_root_flagged(self):
        cp = char_pair(E3)
        (dv,) = enumerate_divisors(cp.gamma, 2)
        rec = norm_check(E3, dv)
        assert rec.repeated_roots and rec.equal

    def test_wronskian_degree_bound(self):
        for spec in (E2, E4, E6):
            assert wronskian(spec).degree <= 2 * spec.k - 2


class TestOrthogonality:
    def test_distinct_levels(self):
        cp = char_pair(E2)
        d0 = enumerate_divisors(cp.gamma, 0)[0]
        d1 = enumerate_divisors(cp.gamma, 1)[0]
        assert orthogonality_check(E2, d0, d1)

    def test_same_level_twisted(self):
        cp = char_pair(E4)
        d1a, d1b = enumerate_divisors(cp.gamma, 1)
        assert orthogonality_check(E4, d1a, d1b)

    def test_same_divisor_rejected(self):
        cp = char_pair(E4)
        (d,) = enumerate_divisors(cp.gamma, 0)
        with pytest.raises(ValueError):
            orthogonality_check(E4, d, d)

    def test_norm_nonzero_for_irreducible(self):
        cp = char_pair(E4)
        for level in range(cp.gamma.degree + 1):
            for dv in enumerate_divisors(cp.gamma, level):
                assert norm_check(E4, dv).lhs != 0
