import json
from fractions import Fraction as F
from itertools import product
from pathlib import Path

from unittest.mock import patch

import pytest

from gl11chain import shapoform
from gl11chain.exactnum import Poly
from gl11chain.linalg import ExactMatrix
from gl11chain.chain import ModuleSpec, Weight, make_spec
from gl11chain.monodromy import tensor_monodromy
from gl11chain.superlin import E_PARITY, SuperSpace
from gl11chain.bethe import Divisor, bethe_vector, char_pair, verify_on_shell
from gl11chain.suites import suite_specs
from gl11chain.shapoform import (
    _embedded_r_matrix,
    check_iota_contract,
    form_matrix,
    form_value,
    norm_check,
    orthogonality_check,
)
from coefforacle import iota_contract, t_coefficient
from densemat import from_dense, to_dense
from legspace import LegSpace, e_matrix, kron_signed
from normoracle import assert_norm_matches_the_oracles, eps_norm, wronskian

# graded flip P: v (x) w -> (-1)^{|v||w|} w (x) v on two standard legs, basis 11, 12, 21, 22
GRADED_FLIP = from_dense([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]])
W10 = Weight(F(1), F(0))
E1 = make_spec([(1, 0)], ["0"], ("2", "1"))
E2 = make_spec([(1, 0), (1, 0)], ["0", "1/2"], ("1", "1"))
E3 = make_spec([(1, 0), (1, 0), (1, 0)], ["0", "1/2", "-1/2"], ("1", "1"))
E4 = make_spec([(1, 0), (1, 0)], ["2", "-3/2"], ("1", "2"))
E6 = make_spec([(2, 1), (1, 0)], ["0", "4"], ("1", "1"))


def r_matrix(wt_i, wt_j, x):
    """Two-site R-matrix on the 4-dimensional product; raises on the pole l1^(j) + l2^(i) + x = 0."""
    return _embedded_r_matrix(SuperSpace.tensor_power(2), 0, 1, wt_i, wt_j, x)


class TestRMatrix:
    def test_vector_case_is_shifted_flip(self):
        # weight (1,0) on both legs: R(x) = (x + P)/(1 + x)
        for x in (F(1, 2), F(3), F(-1, 3)):
            got = r_matrix(W10, W10, x)
            want = (ExactMatrix.identity(4) * x + GRADED_FLIP) * (1 / (1 + x))
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

        legs = [evaluation_monodromy(Weight(F(a), F(b)), p) for (a, b), p in zip(wts, pts)]
        space = LegSpace.tensor_power(2)
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
        assert to_dense(gram) == [[1, 0], [0, -1]]

    def test_one_site_general_weight(self):
        gram = form_matrix(make_spec([(3, 1)], ["0"], ("1", "1")))
        assert to_dense(gram) == [[1, 0], [0, -4]]

    def test_e2_gram_hand_value(self):
        # hand computation: diagonal tensor form diag(1,-1,-1,-1) composed
        # with R(-1/2) = 2P - 1
        gram = form_matrix(E2)
        want = [[1, 0, 0, 0], [0, 1, -2, 0], [0, -2, 1, 0], [0, 0, 0, 3]]
        assert to_dense(gram) == [[F(v) for v in row] for row in want]

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
        assert check_iota_contract(spec) == (True, "", "")

    def test_transfer_self_adjoint(self):
        from gl11chain.monodromy import coefficient_matrices, transfer_pencil

        gram = form_matrix(E4)
        pen = tensor_monodromy(E4)
        for c in coefficient_matrices(transfer_pencil(pen, E4.twist)):
            assert (c.transpose() @ gram) == (gram @ c)


class TestNorms:
    def test_e1_exact_values(self):
        cp = char_pair(E1)
        (dv,) = cp.divisors[1]
        rec = norm_check(E1, dv)
        assert rec.lhs == -1 and rec.rhs_resolved == -1 and rec.equal
        # the textbook right-hand side differs by (-1)^l (q1/q2)^l here
        assert rec.rhs_stated == F(1, 2)

    def test_e2_exact_values(self):
        cp = char_pair(E2)
        (dv,) = cp.divisors[1]
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
        for level in range(cp.gamma.degree + 1):
            for dv in cp.divisors[level]:
                vec = bethe_vector(E4, dv.root_list())
                direct = form_value(gram, vec, vec)
                rec = norm_check(E4, dv)
                assert rec.lhs == direct and rec.equal

    def test_repeated_root_flagged(self):
        cp = char_pair(E3)
        (dv,) = cp.divisors[2]
        rec = norm_check(E3, dv)
        assert rec.repeated_roots and rec.equal

    def test_wronskian_degree_bound(self):
        for spec in (E2, E4, E6):
            assert wronskian(spec).degree <= 2 * spec.k - 2


class TestOrthogonality:
    def test_distinct_levels(self):
        cp = char_pair(E2)
        d0 = cp.divisors[0][0]
        d1 = cp.divisors[1][0]
        assert orthogonality_check(E2, d0, d1)

    def test_same_level_twisted(self):
        cp = char_pair(E4)
        d1a, d1b = cp.divisors[1]
        assert orthogonality_check(E4, d1a, d1b)

    def test_same_divisor_rejected(self):
        cp = char_pair(E4)
        (d,) = cp.divisors[0]
        with pytest.raises(ValueError):
            orthogonality_check(E4, d, d)

    def test_norm_nonzero_for_irreducible(self):
        cp = char_pair(E4)
        for level in range(cp.gamma.degree + 1):
            for dv in cp.divisors[level]:
                assert norm_check(E4, dv).lhs != 0


# ---------------------------------------------------------------------------
# the form against the two-step R-matrix embedding it replaced
# ---------------------------------------------------------------------------


def _old_r_matrix(wt_i, wt_j, x):
    """The 4x4 R-matrix, each term E_ab (x) E_cd embedded on two legs and then scaled (oracle)."""
    den = wt_j.l1 + wt_i.l2 + x
    terms = [
        ((1, 1), (1, 1), F(1)),
        ((2, 2), (2, 2), -(wt_i.l1 + wt_j.l2 - x) / den),
        ((1, 1), (2, 2), (wt_j.l1 - wt_i.l1 + x) / den),
        ((2, 2), (1, 1), (wt_i.l2 - wt_j.l2 + x) / den),
        ((1, 2), (2, 1), -(wt_i.l1 + wt_i.l2) / den),
        ((2, 1), (1, 2), (wt_j.l1 + wt_j.l2) / den),
    ]
    space = LegSpace.tensor_power(2)
    out = ExactMatrix(4, 4)
    for (a, b), (c, d), coef in terms:
        if coef:
            emb = kron_signed(space, {0: (e_matrix(a, b), E_PARITY[(a, b)]), 1: (e_matrix(c, d), E_PARITY[(c, d)])})
            out = out + emb * coef
    return out


def _two_step_embedding(space, i, j, r4):
    """Lift a two-site operator to sites (i, j): undo the pair's Koszul sign, redo the chain's (oracle)."""
    pair = LegSpace.tensor_power(2)
    out = ExactMatrix(space.dim, space.dim)
    for gi, gj, v in r4.entries():
        (a, c), (b, d) = pair.multi_index(gi), pair.multi_index(gj)
        par1 = (pair.legs[0][a] + pair.legs[0][b]) % 2
        par2 = (pair.legs[1][c] + pair.legs[1][d]) % 2
        if par2 and pair.legs[0][b]:
            v = -v
        m1 = ExactMatrix(2, 2)
        m1.put(a, b, v)
        out = out + kron_signed(space, {i: (m1, par1), j: (e_matrix(c + 1, d + 1), par2)})
    return out


def two_step_form_matrix(spec):
    """Gram matrix by the per-leg tensor form and the two-step R-matrix embedding (oracle)."""
    space = LegSpace.tensor_power(spec.k)
    g0 = ExactMatrix(space.dim, space.dim)
    for idx in range(space.dim):
        val, odd = F(1), 0
        for s, comp in enumerate(space.multi_index(idx)):
            if comp == 1:
                val *= -(spec.weights[s].l1 + spec.weights[s].l2)
                odd += 1
        g0.put(idx, idx, -val if (odd * (odd - 1) // 2) % 2 else val)
    r = ExactMatrix.identity(space.dim)
    for i in range(spec.k):
        for j in range(i + 1, spec.k):
            r4 = _old_r_matrix(spec.weights[i], spec.weights[j], spec.points[i] - spec.points[j])
            r = r @ _two_step_embedding(space, i, j, r4)
    return g0 @ r


def _form_chains():
    """The seven suite chains, the benchmark fixtures k2, t2, k3, and a four- and a five-site chain."""
    fixtures = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures"
    chains = dict(suite_specs())
    for name in ("k2", "t2", "k3"):
        chains[name] = ModuleSpec.from_dict(json.loads((fixtures / f"{name}.json").read_text()))
    chains["k4"] = make_spec([(1, 0), (2, 0), (1, 0), (1, 0)], ["5", "4", "3", "2"])
    chains["k5"] = make_spec([(1, 1), (1, 0), (1, 0), (1, 1), (1, 0)], ["1", "0", "-2", "0", "-3"])
    return chains


FORM_CHAINS = _form_chains()


@pytest.mark.parametrize("name", FORM_CHAINS)
def test_form_matrix_matches_the_two_step_embedding(name):
    spec = FORM_CHAINS[name]
    assert form_matrix(spec) == two_step_form_matrix(spec)


@pytest.mark.parametrize("name", FORM_CHAINS)
def test_contravariance_matches_the_laurent_oracle(name):
    # the pencil as built, and with 1/7 added to the constant term of one That_11 element
    spec = FORM_CHAINS[name]
    pencil, gram = tensor_monodromy(spec), form_matrix(spec)
    t11 = pencil.entry(1, 1).copy()
    t11.put(0, pencil.dim - 1, t11.get(0, pencil.dim - 1) + Poly((F(1, 7),)))
    for p in (pencil, pencil._replace(entries={**pencil.entries, (1, 1): t11})):
        with patch.object(shapoform, "tensor_monodromy", lambda s: p):
            got = check_iota_contract(spec)
        assert tuple(got) == tuple(iota_contract(p, gram, spec.k))
    assert got.witness.startswith("first failing (i, j, r) (")


def test_r_matrix_matches_the_embedded_terms():
    for wt_i, wt_j in ((W10, W10), (Weight(F(2), F(1)), W10), (Weight(F(1), F(1)), Weight(F(3), F(0)))):
        for x in (F(1, 2), F(-3), F(0)):
            assert r_matrix(wt_i, wt_j, x) == _old_r_matrix(wt_i, wt_j, x)


# ---------------------------------------------------------------------------
# the resultant norm against the Wronskian product and the eps limit it replaced
# ---------------------------------------------------------------------------

NORM_CHAINS = {**suite_specs(), "k5": FORM_CHAINS["k5"]}


def test_k5_gamma_has_a_double_root():
    # gamma = x^2 (7x^2 + 34x + 39)
    assert char_pair(FORM_CHAINS["k5"]).gamma == Poly((0, 0, 39, 34, 7))


@pytest.mark.parametrize("name", NORM_CHAINS)
def test_norm_check_matches_the_wronskian_and_eps_routes(name):
    spec = NORM_CHAINS[name]
    for level in char_pair(spec).divisors:
        for dv in level:
            assert_norm_matches_the_oracles(spec, dv)


def test_eps_wronskian_limit_misses_a_double_root_off_psi():
    # gamma = 8 (x + 11/4)^2 with psi(-11/4) = 81/64: the vector at the double root is on shell with norm
    # 6561/64 = psi(t)^2 (gamma/y)(t)^2, while the eps limit of the Wronskian product gives -6561/8
    spec = make_spec([(2, 0), (2, 1), (3, 0)], ["-3", "-3/2", "-1/2"])
    cp = char_pair(spec)
    assert cp.roots == [(F(-11, 4), 2)] and cp.psi(F(-11, 4)) == F(81, 64)
    (dv,) = cp.divisors[2]
    assert verify_on_shell(spec, dv).ok
    rec = norm_check(spec, dv)
    assert rec.equal and rec.lhs == rec.rhs_resolved == F(6561, 64)
    assert eps_norm(spec, dv) == (F(6561, 64), F(-6561, 8))
    assert_norm_matches_the_oracles(spec, dv)


def test_norm_check_rejects_a_non_divisor():
    with pytest.raises(ValueError, match="not a divisor"):
        norm_check(E4, Divisor.from_roots([(F(7), 1)]))
