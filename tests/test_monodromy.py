from dataclasses import replace
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl11chain.exactnum import Poly, RatFun
from gl11chain.monodromy import (
    ModuleSpec,
    cyclicity_and_irreducibility,
    evaluation_monodromy,
    lax_monodromy,
    make_spec,
    phi_psi,
    reduce_lambda2,
    string_points,
    t_coefficient,
    tensor_monodromy,
    transfer_pencil,
    verify_rtt,
    _combine,
)
from gl11chain.superlin import Weight

E2 = make_spec([(1, 0), (1, 0)], ["0", "1/2"], ("1", "1"))


def vac(pencil):
    v = [F(0)] * pencil.dim
    v[0] = F(1)
    return v


class TestModuleSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="degenerate"):
            make_spec([(0, 0)], ["0"], ("2", "1"))
        with pytest.raises(ValueError, match="not polynomial"):
            make_spec([(0, 2)], ["0"], ("1", "1"))
        with pytest.raises(ValueError, match="nonzero"):
            make_spec([(1, 0)], ["0"], ("0", "1"))

    def test_json_roundtrip(self, tmp_path):
        text = E2.to_json()
        assert ModuleSpec.from_json(text) == E2
        p = tmp_path / "chain.json"
        p.write_text(text)
        assert ModuleSpec.from_file(p) == E2


class TestEvaluation:
    def test_one_site_values(self):
        pen = evaluation_monodromy(Weight(F(1), F(0)), F(0))
        # That_11 v1 = (x+1) v1, That_22 v1 = x v1
        assert pen.entry(1, 1).entry_poly(0, 0) == Poly((1, 1))
        assert pen.entry(2, 2).entry_poly(0, 0) == Poly((0, 1))
        # twisted combination on the lowered vector: q1 x - q2 (x-1)
        t = pen.entry(1, 1).entry_poly(1, 1) * 2 - pen.entry(2, 2).entry_poly(1, 1)
        assert t == Poly((1, 1))

    def test_trivial_weight(self):
        pen = evaluation_monodromy(Weight(F(0), F(0)), F(3))
        for i, j in product((1, 2), repeat=2):
            want = Poly((-3, 1)) if i == j else Poly()
            assert pen.entry(i, j).entry_poly(0, 0) == want

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            evaluation_monodromy(Weight(F(2), F(-2)), F(0))

    def test_rtt(self):
        assert verify_rtt(evaluation_monodromy(Weight(F(2), F(1)), F(-3))).ok


class TestTensor:
    def test_vacuum_diagonal(self):
        pen = tensor_monodromy(E2)
        phi, psi = phi_psi(E2)
        v = vac(pen)
        for d in range(3):
            got11 = pen.entry(1, 1).coeff(d).apply(v)
            got22 = pen.entry(2, 2).coeff(d).apply(v)
            assert got11[0] == phi.coeff(d) and all(x == 0 for x in got11[1:])
            assert got22[0] == psi.coeff(d) and all(x == 0 for x in got22[1:])

    def test_degree_and_leading(self):
        spec = make_spec([(2, 1), (1, 0)], ["0", "3"], ("1", "1"))
        pen = tensor_monodromy(spec)
        for i, j in product((1, 2), repeat=2):
            ent = pen.entry(i, j)
            assert ent.degree <= spec.k
            if i == j:
                assert ent.coeff(spec.k).to_dense() == [[1 if a == b else 0 for b in range(4)] for a in range(4)]
            else:
                assert ent.degree < spec.k

    def test_single_site_reduces_to_evaluation(self):
        spec = make_spec([(2, 1)], ["1/3"], ("1", "1"))
        pen = tensor_monodromy(spec)
        ev = evaluation_monodromy(spec.weights[0], spec.points[0])
        for i, j in product((1, 2), repeat=2):
            assert pen.entry(i, j) == ev.entry(i, j)

    def test_coassociativity(self):
        spec = make_spec([(1, 0), (2, 0), (1, 1)], ["0", "3/2", "-1"], ("1", "1"))
        legs = [evaluation_monodromy(w, b) for w, b in zip(spec.weights, spec.points)]
        right = _combine(legs[0], _combine(legs[1], legs[2]))
        left = _combine(_combine(legs[0], legs[1]), legs[2])
        for i, j in product((1, 2), repeat=2):
            assert left.entry(i, j) == right.entry(i, j)

    def test_rtt_k3(self):
        spec = make_spec([(2, 1), (1, 0), (1, 0)], ["1/4", "2", "-2"], ("1", "1"))
        assert verify_rtt(tensor_monodromy(spec)).ok

    def test_rtt_k4(self):
        spec = make_spec([(1, 0)] * 4, ["0", "2/3", "-1", "5"], ("1", "1"))
        assert verify_rtt(tensor_monodromy(spec)).ok


class TestLax:
    def test_one_site_matches(self):
        lx = lax_monodromy(["1/2"])
        tn = tensor_monodromy(make_spec([(1, 0)], ["1/2"], ("1", "1")))
        for i, j in product((1, 2), repeat=2):
            assert lx.entry(i, j) == tn.entry(i, j)

    def test_two_sites_all_entries(self):
        pts = ["0", "1/2"]
        lx = lax_monodromy(pts)
        tn = tensor_monodromy(make_spec([(1, 0), (1, 0)], pts, ("1", "1")))
        for i, j in product((1, 2), repeat=2):
            assert lx.entry(i, j) == tn.entry(i, j)

    def test_degree_bound_and_leading(self):
        lx = lax_monodromy(["0", "1", "2"])
        for i, j in product((1, 2), repeat=2):
            assert lx.entry(i, j).degree <= 3
        assert lx.entry(1, 1).coeff(3) == lx.entry(2, 2).coeff(3)

    def test_rtt_n4(self):
        assert verify_rtt(lax_monodromy(["0", "1/2", "-1", "3"])).ok


class TestRttOracle:
    def test_negative_control(self):
        pen = tensor_monodromy(E2)
        bad = replace(pen, entries={**pen.entries, (2, 1): -pen.entries[(2, 1)]})
        res = verify_rtt(bad)
        assert not res.ok and res.witness is not None

    @settings(max_examples=5, deadline=None)
    @given(st.tuples(rationals := st.builds(F, st.integers(-6, 6), st.integers(1, 3)), rationals))
    def test_pointwise_oracle(self, pts):
        # independent check of the exchange identity at random numeric points
        x1, x2 = pts
        pen = tensor_monodromy(E2)
        mats1 = {(i, j): pen.entry(i, j)(x1) for i in (1, 2) for j in (1, 2)}
        mats2 = {(i, j): pen.entry(i, j)(x2) for i in (1, 2) for j in (1, 2)}
        for i, j, r, s in product((1, 2), repeat=4):
            pa, pb = (i + j) % 2, (r + s) % 2
            sigma = -1 if pa and pb else 1
            sgn = -1 if ((i == 2) * (r == 2) + (s == 2) * (i == 2) + (s == 2) * (r == 2)) % 2 else 1
            lhs = (mats1[(i, j)] @ mats2[(r, s)] - (mats2[(r, s)] @ mats1[(i, j)]) * sigma) * (x1 - x2)
            rhs = (mats2[(r, j)] @ mats1[(i, s)] - mats1[(r, j)] @ mats2[(i, s)]) * sgn
            assert lhs == rhs


class TestTransfer:
    def test_e1_values(self):
        spec = make_spec([(1, 0)], ["0"], ("2", "1"))
        tq = transfer_pencil(tensor_monodromy(spec), spec.twist)
        assert tq.entry_poly(0, 0) == Poly((2, 1))  # x + 2 on the highest vector
        assert tq.entry_poly(1, 1) == Poly((1, 1))  # x + 1 on the lowered vector

    def test_vacuum_gamma(self):
        tq = transfer_pencil(tensor_monodromy(E2), E2.twist)
        v = vac(tensor_monodromy(E2))
        assert [tq.coeff(d).apply(v)[0] for d in range(2)] == [F(1, 2), F(2)]

    def test_bivariate_commutativity(self):
        spec = make_spec([(2, 1), (1, 0)], ["0", "3"], ("3", "1"))
        tq = transfer_pencil(tensor_monodromy(spec), spec.twist)
        for a in range(tq.degree + 1):
            for b in range(tq.degree + 1):
                assert tq.coeff(a).commutes_with(tq.coeff(b))

    def test_leading_coefficient(self):
        spec = make_spec([(1, 0), (1, 0)], ["2", "-3/2"], ("1", "2"))
        tq = transfer_pencil(tensor_monodromy(spec), spec.twist)
        assert tq.degree == 2
        ident = [[F(-1) if a == b else F(0) for b in range(4)] for a in range(4)]
        assert tq.coeff(2).to_dense() == ident


class TestReduce:
    def test_shift_formulas(self):
        spec = make_spec([(2, 1)], ["0"], ("1", "1"))
        red, xi = reduce_lambda2(spec)
        assert red.weights == (Weight(F(3), F(0)),)
        assert red.points == (F(1),)
        assert xi == RatFun(Poly((0, 1)), Poly((-1, 1)))

    def test_identity_when_trivial(self):
        red, xi = reduce_lambda2(E2)
        assert red == E2 and xi == RatFun(Poly((1,)))

    def test_pencils_and_eigenvalues_match(self):
        # mixed case: both chains built independently; the normalized
        # pencils must agree entrywise, which is the xi-scaling statement
        spec = make_spec([(2, 1), (1, 0)], ["0", "4"], ("1", "1"))
        red, xi = reduce_lambda2(spec)
        p1 = tensor_monodromy(spec)
        p2 = tensor_monodromy(red)
        for i, j in product((1, 2), repeat=2):
            assert p1.entry(i, j) == p2.entry(i, j)
        # the reduced unnormalized transfer equals xi times the original one
        n1 = RatFun(Poly((1,)), spec.normalizer())
        n2 = RatFun(Poly((1,)), red.normalizer())
        assert n2 == xi * n1


class TestCyclicityIrreducibility:
    def test_examples(self):
        assert cyclicity_and_irreducibility(E2) == (True, True)
        bad = make_spec([(1, 0), (1, 0)], ["0", "1"], ("1", "1"))
        assert cyclicity_and_irreducibility(bad)[0] is False
        e3 = make_spec([(1, 0), (1, 0), (1, 0)], ["0", "1/2", "-1/2"], ("1", "1"))
        assert cyclicity_and_irreducibility(e3) == (True, False)


class TestStrings:
    def test_examples(self):
        assert string_points(make_spec([(2, 0)], ["0"], ("1", "1"))) == (F(0), F(-1))
        assert string_points(E2) == (F(1, 2), F(0))
        s = make_spec([(2, 0), (1, 0)], ["0", "5"], ("1", "1"))
        assert string_points(s) == (F(5), F(0), F(-1))

    def test_requires_reduced_form(self):
        with pytest.raises(ValueError):
            string_points(make_spec([(2, 1)], ["0"], ("1", "1")))


def test_t_coefficient_identity_term():
    pen = tensor_monodromy(E2)
    t0_11 = t_coefficient(pen, 1, 1, 0)
    assert t0_11.to_dense() == [[1 if a == b else 0 for b in range(4)] for a in range(4)]
