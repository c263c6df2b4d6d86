from fractions import Fraction as F
from math import comb

import pytest

from gl11chain.exactnum import Poly, RatFun, elementary_symmetric, laurent_expand
from gl11chain.linalg import ExactMatrix
from gl11chain.chain import make_spec
from gl11chain.monodromy import reduce_lambda2, string_points, tensor_monodromy, transfer_pencil
from gl11chain.bethe import char_pair
from gl11chain.bethealg import (
    algebra_dimension,
    coefficient_family,
    commutant_dimension,
    divisor_character,
    double_commutant_check,
    presentation_check,
    regular_rep_check,
    spectral_analysis,
)
from densemat import to_dense

E2 = make_spec([(1, 0), (1, 0)], ["0", "1/2"], ("1", "1"))
E3 = make_spec([(1, 0), (1, 0), (1, 0)], ["0", "1/2", "-1/2"], ("1", "1"))
E4 = make_spec([(1, 0), (1, 0)], ["2", "-3/2"], ("1", "2"))
E5 = make_spec([(1, 0), (1, 0), (1, 0)], ["6", "-7", "-1/2"], ("2", "3"))
K3GEN = make_spec([(1, 0), (1, 0), (1, 0)], ["1", "0", "-1"], ("1", "1"))


class TestCoefficientFamily:
    def test_b1_is_total_weight_untwisted(self):
        for level in (0, 1):
            fam = coefficient_family(E2, level, True)
            b1 = fam.ops[0]
            dim = fam.dim
            assert to_dense(b1) == [[F(2) if a == b else F(0) for b in range(dim)] for a in range(dim)]

    def test_central_scalars_are_string_symmetric_functions(self):
        fam = coefficient_family(E3, 1, True)
        strings = string_points(E3)
        sig = elementary_symmetric(list(strings))
        n = len(strings)
        for d in range(1, n + 1):
            cop = fam.ops[n + d - 1]
            assert cop.get(0, 0) == sig[d - 1]

    def test_family_commutes(self):
        fam = coefficient_family(E5, 1, False)
        for a in range(len(fam.ops)):
            for b in range(len(fam.ops)):
                assert fam.ops[a].commutes_with(fam.ops[b])

    @pytest.mark.parametrize(
        "spec, level, singular",
        [
            (E2, 1, True),
            (E3, 1, True),
            (E4, 1, False),
            (E5, 2, False),
            (make_spec([(2, 1), (1, 0)], ["0", "4"]), 1, True),
        ],
        ids=["E2", "E3", "E4", "E5", "E6"],
    )
    def test_matches_per_entry_expansion(self, spec, level, singular):
        # oracle: one RatFun and one laurent_expand per transfer-pencil element,
        # B_d read off as x^-d coefficients; fam.ops[d-1] is B_d on the basis
        fam = coefficient_family(spec, level, singular)
        n = len(string_points(reduce_lambda2(spec)[0]))
        tq = transfer_pencil(tensor_monodromy(spec), spec.twist)
        den = spec.normalizer() * Poly([0] * n + [1])
        bmats = [ExactMatrix(tq.nrows, tq.ncols) for _ in range(n + 1)]
        for a, b, p in tq.entries():
            for d, c in enumerate(laurent_expand(RatFun(Poly.from_roots(fam.strings) * p, den), n)):
                bmats[d].put(a, b, c)
        for d in range(1, n + 1):
            op = fam.ops[d - 1]
            for col, v in enumerate(fam.basis):
                image = [sum((op.get(row, col) * w[x] for row, w in enumerate(fam.basis)), F(0)) for x in range(len(v))]
                assert bmats[d].apply(list(v)) == image

    def test_equal_twist_requires_singular(self):
        with pytest.raises(ValueError, match="singular"):
            coefficient_family(E2, 1, False)

    def test_empty_subspace_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            coefficient_family(E2, 2, True)  # singular part at the top level


class TestAlgebraDimension:
    @pytest.mark.parametrize(
        "spec,singular,binom_n",
        [(E2, True, 1), (E3, True, 2), (K3GEN, True, 2), (E4, False, 2), (E5, False, 3)],
        ids=["E2", "E3", "K3GEN", "E4", "E5"],
    )
    def test_binomial_dimensions(self, spec, singular, binom_n):
        top = spec.k - 1 if singular else spec.k
        for level in range(top + 1):
            fam = coefficient_family(spec, level, singular)
            adim, mats = algebra_dimension(fam)
            assert adim == comb(binom_n, level)
            # closure sanity: products of basis elements stay inside
            from gl11chain.linalg import SpanBasis

            span = SpanBasis()
            flat = lambda m: [m.get(i, j) for i in range(fam.dim) for j in range(fam.dim)]
            for m in mats:
                span.add(flat(m))
            for a in mats:
                for b in mats:
                    assert span.contains(flat(a @ b))

    def test_family_algebra_is_the_builder_basis(self):
        fam = coefficient_family(E5, 1, False)
        assert fam.algebra is fam.algebra
        assert fam.algebra == tuple(algebra_dimension(fam)[1])

    def test_scalar_level_zero(self):
        fam = coefficient_family(E3, 0, True)
        assert algebra_dimension(fam)[0] == 1


class TestCommutant:
    @pytest.mark.parametrize("spec,singular", [(E2, True), (E3, True), (E4, False)], ids=["E2", "E3", "E4"])
    def test_double_commutant_equality(self, spec, singular):
        top = spec.k - 1 if singular else spec.k
        for level in range(top + 1):
            fam = coefficient_family(spec, level, singular)
            res = double_commutant_check(fam)
            assert res.ok, res.witness

    def test_commutant_of_scalars_is_everything(self):
        fam = coefficient_family(E2, 0, True)
        assert commutant_dimension(fam) == 1


class TestRegularRep:
    @pytest.mark.parametrize("spec,singular", [(E2, True), (E3, True), (E4, False), (E5, False)],
                             ids=["E2", "E3", "E4", "E5"])
    def test_cyclic_vector_found(self, spec, singular):
        top = spec.k - 1 if singular else spec.k
        for level in range(top + 1):
            fam = coefficient_family(spec, level, singular)
            res = regular_rep_check(fam)
            assert res == (True, "", ""), res.witness

    def test_non_cyclic_flagged(self):
        bad = make_spec([(1, 0), (1, 0)], ["0", "1"], ("1", "1"))
        fam = coefficient_family(bad, 1, True)
        res = regular_rep_check(fam)
        assert res == (False, "", "chain is not cyclic")


class TestPresentation:
    def test_e2_value(self):
        # single level-1 divisor with root w = -1/4: eigenvalue 2(x - w - 1)
        assert presentation_check(E2, 1).ok
        assert presentation_check(E2, 0).ok

    def test_twisted_e1(self):
        e1 = make_spec([(1, 0)], ["0"], ("2", "1"))
        assert presentation_check(e1, 0).ok
        assert presentation_check(e1, 1).ok

    @pytest.mark.parametrize("spec", [E3, E4, E5, K3GEN], ids=["E3", "E4", "E5", "K3GEN"])
    def test_suite_chains(self, spec):
        top = char_pair(spec).gamma.degree
        for level in range(top + 1):
            assert presentation_check(spec, level).ok


class TestSpectral:
    def test_jordan_binomials(self):
        cp = char_pair(E3)
        fam = coefficient_family(E3, 1, True)
        (entry,) = spectral_analysis(fam, cp.divisors[1])
        assert entry.eigen_dim == 1
        assert entry.generalized_dim == 2 == entry.expected_generalized == comb(2, 1)
        assert entry.cyclic_module
        fam2 = coefficient_family(E3, 2, True)
        (entry2,) = spectral_analysis(fam2, cp.divisors[2])
        assert entry2.generalized_dim == 1 == comb(2, 2)

    def test_squarefree_all_ones(self):
        cp = char_pair(E5)
        for level in range(cp.gamma.degree + 1):
            fam = coefficient_family(E5, level, False)
            for entry in spectral_analysis(fam, cp.divisors[level]):
                assert entry.eigen_dim == entry.generalized_dim == 1

    def test_sums_fill_subspace(self):
        for spec, singular in ((E3, True), (E5, False), (K3GEN, True)):
            cp = char_pair(spec)
            top = spec.k - 1 if singular else spec.k
            for level in range(top + 1):
                fam = coefficient_family(spec, level, singular)
                entries = spectral_analysis(fam, cp.divisors[level])
                assert sum(e.generalized_dim for e in entries) == fam.dim

    def test_character_matches_transfer_eigenvalue(self):
        fam = coefficient_family(E2, 1, True)
        (dv,) = char_pair(E2).divisors[1]
        char = divisor_character(fam, dv)
        # the operators act by exactly these scalars on the 1-dim subspace
        for op, val in zip(fam.ops, char):
            assert op.get(0, 0) == val
