from fractions import Fraction as F
from math import comb

import pytest

from gl11chain.exactnum import Poly, RatFun, elementary_symmetric
from gl11chain.linalg import ExactMatrix, SpanBasis, joint_generalized_eigenspaces
from gl11chain.chain import ModuleSpec, make_spec
from gl11chain.monodromy import tensor_monodromy, transfer_pencil
from gl11chain.bethe import TransferFamily, char_pair, transfer_family
from gl11chain.bethealg import (
    algebra,
    algebra_dimension,
    coefficient_family,
    commutant_dimension,
    double_commutant_check,
    generators,
    presentation_check,
    radical,
    regular_rep_check,
    spectral_analysis,
)
from gl11chain.suites import suite_specs
from coefforacle import laurent_expand
from bethealgoracle import b_operators, b_spaces, divisor_character, generated_algebra, reduce_lambda2, string_points
from densemat import to_dense

E2 = make_spec([(1, 0), (1, 0)], ["0", "1/2"], ("1", "1"))
E3 = make_spec([(1, 0), (1, 0), (1, 0)], ["0", "1/2", "-1/2"], ("1", "1"))
E4 = make_spec([(1, 0), (1, 0)], ["2", "-3/2"], ("1", "2"))
E5 = make_spec([(1, 0), (1, 0), (1, 0)], ["6", "-7", "-1/2"], ("2", "3"))
K3GEN = make_spec([(1, 0), (1, 0), (1, 0)], ["1", "0", "-1"], ("1", "1"))
K4 = ModuleSpec.from_json('{"weights":[[1,0],[2,0],[1,0],[1,0]],"points":["5","4","3","2"],"twist":["1","1"]}')
# five sites with a double root of gamma
K5 = ModuleSpec.from_json(
    '{"weights":[[1,1],[1,0],[1,0],[1,1],[1,0]],"points":["1","0","-2","0","-3"],"twist":["1","1"]}'
)
# gamma does not split over Q: no level has a divisor
NS3 = ModuleSpec.from_json('{"weights":[[1,0],[1,0],[1,0]],"points":["0","1/3","5"],"twist":["1","1"]}')
NS4 = ModuleSpec.from_json(
    '{"weights":[[1,0],[2,1],[1,0],[1,0]],"points":["0","1/3","5","-7/2"],"twist":["3","1"]}'
)
NS5 = ModuleSpec.from_json(
    '{"weights":[[1,0],[2,1],[1,0],[1,0],[2,0]],"points":["0","1/3","5","-7/2","2/7"],"twist":["3","-1"]}'
)


def _flat(m) -> dict:
    return {i * m.ncols + j: v for i, j, v in m.entries()}


def _same_span(mats_a, mats_b) -> bool:
    """The two lists of matrices span one space."""
    a, b = SpanBasis(), SpanBasis()
    for m in mats_a:
        a.add(_flat(m))
    for m in mats_b:
        b.add(_flat(m))
    return a.dim == b.dim and all(a.contains(_flat(m)) for m in mats_b)


def _with_ops(fam, ops):
    """A copy of the family with other operators; the shared family is left as it is."""
    return TransferFamily(fam.spec, fam.level, fam.basis, fam.index, ops)


class TestCoefficientFamily:
    def test_b1_is_total_weight_untwisted(self):
        # the oracle's B_1 is the total weight, a scalar, so it lies in the C family's algebra
        for level in (0, 1):
            fam = coefficient_family(E2, level)
            b1 = b_operators(E2, level)[0]
            assert to_dense(b1) == [[F(2) if a == b else F(0) for b in range(fam.dim)] for a in range(fam.dim)]
            assert _same_span(algebra(fam), [*algebra(fam), b1])

    def test_central_scalars_are_string_symmetric_functions(self):
        # the centre acts by e_d(strings): with those scalars beside the oracle's B_1..B_n the joint
        # spaces are the C family's, and scalars added to the C's change neither algebra nor commutant
        fam = coefficient_family(E5, 1)
        strings = string_points(reduce_lambda2(E5)[0])
        sig = elementary_symmetric(list(strings))
        bops = b_operators(E5, 1)
        assert len(bops) == len(strings) == 3 and fam.dim == 3
        scalars = [ExactMatrix.identity(fam.dim) * c for c in sig]
        chars = [divisor_character(E5, dv) for dv in fam.divisors]
        assert joint_generalized_eigenspaces(bops + scalars, [ch + sig for ch in chars]) == list(fam.spaces)
        centred = _with_ops(fam, fam.ops + scalars)
        assert generators(centred) == generators(fam)
        assert algebra_dimension(centred)[1] == list(algebra(fam))
        assert commutant_dimension(centred) == commutant_dimension(fam)

    def test_family_commutes(self):
        fam = coefficient_family(E5, 1)
        for a in range(len(fam.ops)):
            for b in range(len(fam.ops)):
                assert fam.ops[a] @ fam.ops[b] == fam.ops[b] @ fam.ops[a]

    @pytest.mark.parametrize(
        "spec, level",
        [
            (E2, 1),
            (E3, 1),
            (E4, 1),
            (E5, 2),
            (make_spec([(2, 1), (1, 0)], ["0", "4"]), 1),
            (K3GEN, 1),
            (K4, 2),
            (K5, 2),
        ],
        ids=["E2", "E3", "E4", "E5", "E6", "E7", "k4", "k5"],
    )
    def test_matches_per_entry_expansion(self, spec, level):
        # oracle: one RatFun and one laurent_expand per transfer-pencil element over the reduced
        # chain's strings, B_d read off as x^-d coefficients; on the level basis each B_d is the
        # combination sum_e g_(e+d) C_e of the family's coefficients, astr / (N x^n) = sum_t g_t x^-t
        fam = coefficient_family(spec, level)
        strings = string_points(reduce_lambda2(spec)[0])
        n = len(strings)
        tq = transfer_pencil(tensor_monodromy(spec), spec.twist)
        den = spec.normalizer() * Poly([0] * n + [1])
        bmats = [ExactMatrix(tq.nrows, tq.ncols) for _ in range(n + 1)]
        for a, b, p in tq.entries():
            for d, c in enumerate(laurent_expand(RatFun(Poly.from_roots(strings) * p, den), n)):
                bmats[d].put(a, b, c)
        g = laurent_expand(RatFun(Poly.from_roots(strings), den), spec.k + n)
        assert len(fam.ops) == spec.k + 1
        basis = fam.basis
        for d in range(1, n + 1):
            op = sum((c * g[e + d] for e, c in enumerate(fam.ops)), ExactMatrix(fam.dim, fam.dim))
            for col, v in enumerate(basis):
                image = [sum((op.get(row, col) * w[x] for row, w in enumerate(basis)), F(0)) for x in range(len(v))]
                assert bmats[d].apply(list(v)) == image

    def test_empty_subspace_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            coefficient_family(E2, 2)  # singular part at the top level


_DIFFERENTIAL_SPECS = {**suite_specs(), "k4": K4, "k5": K5}


@pytest.mark.parametrize("name", sorted(_DIFFERENTIAL_SPECS))
def test_family_matches_the_b_route(name):
    # at every level with divisors: the oracle's B's, expanded on the full module and restricted,
    # span with I what the C's span with I, the two generate the same algebra, and the joint
    # spaces of the B's at their characters are the C family's
    spec = _DIFFERENTIAL_SPECS[name]
    levels = char_pair(spec).divisors
    assert [lv for lv in range(spec.k + 1) if transfer_family(spec, lv).dim] == list(range(len(levels)))
    for level, divisors in enumerate(levels):
        fam = coefficient_family(spec, level)
        assert fam is transfer_family(spec, level) and fam.divisors == divisors
        one = ExactMatrix.identity(fam.dim)
        bops = b_operators(spec, level)
        assert _same_span([one, *bops], [one, *fam.ops])
        assert _same_span(generated_algebra(bops, fam.dim), algebra(fam))
        assert list(fam.spaces) == b_spaces(spec, level)


class TestAlgebraDimension:
    @pytest.mark.parametrize(
        "spec,binom_n",
        [(E2, 1), (E3, 2), (K3GEN, 2), (E4, 2), (E5, 3)],
        ids=["E2", "E3", "K3GEN", "E4", "E5"],
    )
    def test_binomial_dimensions(self, spec, binom_n):
        for level in range(binom_n + 1):
            fam = coefficient_family(spec, level)
            adim, mats = algebra_dimension(fam)
            assert adim == comb(binom_n, level)
            # closure sanity: products of basis elements stay inside
            span = SpanBasis()
            flat = lambda m: [m.get(i, j) for i in range(fam.dim) for j in range(fam.dim)]
            for m in mats:
                span.add(flat(m))
            for a in mats:
                for b in mats:
                    assert span.contains(flat(a @ b))

    def test_family_algebra_is_the_builder_basis(self):
        fam = coefficient_family(E5, 1)
        assert algebra(fam) is algebra(fam)
        assert algebra(fam) == tuple(algebra_dimension(fam)[1])

    def test_scalar_level_zero(self):
        fam = coefficient_family(E3, 0)
        assert algebra_dimension(fam)[0] == 1


class TestCommutant:
    @pytest.mark.parametrize("spec", [E2, E3, E4], ids=["E2", "E3", "E4"])
    def test_double_commutant_equality(self, spec):
        for level in range(char_pair(spec).gamma.degree + 1):
            fam = coefficient_family(spec, level)
            res = double_commutant_check(fam)
            assert res.ok, res.witness

    def test_changed_coefficient_fails_with_witness(self):
        # negative control: E5 at level 1 has two non-scalar coefficients, C_0 and C_1; one changed
        # entry of C_1, on a copy, breaks their commutation, and the generated algebra becomes all
        # of End(C^3) while the commutant shrinks to the scalars
        fam = coefficient_family(E5, 1)
        assert [i for i, op in enumerate(fam.ops) if not op.is_scalar()] == [0, 1]
        changed = fam.ops[1].copy()
        changed.put(0, 1, changed.get(0, 1) + 1)
        bad = _with_ops(fam, [fam.ops[0], changed, *fam.ops[2:]])
        assert double_commutant_check(bad) == (False, "", "9 vs 1")
        assert len(algebra(bad)) == 9 != comb(3, 1)
        assert double_commutant_check(fam).ok

    def test_commutant_of_scalars_is_everything(self):
        fam = coefficient_family(E2, 0)
        assert commutant_dimension(fam) == 1


def _unit(d, i, j):
    m = ExactMatrix(d, d)
    m.put(i, j, F(1))
    return m


class TestRadical:
    @pytest.mark.parametrize("name", sorted(_DIFFERENTIAL_SPECS))
    def test_trace_form_rank_counts_divisors(self, name):
        # on a split chain A/J is a product of copies of Q, one per divisor, repeated roots included
        spec = _DIFFERENTIAL_SPECS[name]
        for level in range(spec.k + 1):
            fam = transfer_family(spec, level)
            if fam.dim:
                assert len(algebra(fam)) - len(radical(fam)) == len(fam.divisors)

    def test_radical_is_nilpotent_ideal_built_once(self):
        fam = coefficient_family(K5, 2)
        rad = radical(fam)
        assert rad is radical(fam) and len(rad) == 2
        assert _same_span(algebra(fam), [*algebra(fam), *rad])
        for j in rad:
            assert _same_span(rad, [*rad, *(j @ a for a in algebra(fam))])
            power = j
            for _ in range(fam.dim):
                power = power @ j
            assert power.is_zero()

    def test_semisimple_level_has_zero_radical(self):
        assert radical(coefficient_family(E5, 1)) == ()


class TestRegularRep:
    @pytest.mark.parametrize("spec", [E2, E3, E4, E5], ids=["E2", "E3", "E4", "E5"])
    def test_cyclic_vector_found(self, spec):
        for level in range(char_pair(spec).gamma.degree + 1):
            fam = coefficient_family(spec, level)
            res = regular_rep_check(fam)
            assert res == (True, "", ""), res.witness

    @pytest.mark.parametrize("spec", [NS3, NS4, NS5], ids=["ns3", "ns4", "ns5"])
    def test_non_split_chain_decided(self, spec):
        # no divisor is read: every non-empty level of a non-split chain (all but the untwisted top,
        # whose singular part is 0) is its algebra's regular representation
        assert char_pair(spec).roots is None
        top = spec.k if spec.is_twisted() else spec.k - 1
        for level in range(top + 1):
            fam = coefficient_family(spec, level)
            assert fam.divisors == ()
            assert regular_rep_check(fam) == (True, "", "")

    def test_dual_of_the_regular_module_fails(self):
        # span{I, E_01, E_02} is k[x, y]/m^2 acting on its dual: dim A = dim V = 3 but no vector
        # generates V, since J V = span{e_0} leaves a two-dimensional head
        fam = coefficient_family(E5, 1)
        dual = _with_ops(fam, [_unit(3, 0, 1), _unit(3, 0, 2)])
        assert len(algebra(dual)) == 3 and len(radical(dual)) == 2
        assert regular_rep_check(dual) == (False, "", "algebra dim 3, subspace dim 3, radical dim 2, J V dim 1")

    def test_regular_module_passes(self):
        # the transpose, span{I, E_10, E_20}, is the regular module: e_0 generates it
        fam = coefficient_family(E5, 1)
        regular = _with_ops(fam, [_unit(3, 1, 0), _unit(3, 2, 0)])
        assert regular_rep_check(regular) == (True, "", "")

    def test_non_cyclic_flagged(self):
        bad = make_spec([(1, 0), (1, 0)], ["0", "1"], ("1", "1"))
        fam = coefficient_family(bad, 1)
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
        fam = coefficient_family(E3, 1)
        (entry,) = spectral_analysis(fam)
        assert entry.eigen_dim == 1
        assert entry.generalized_dim == 2 == entry.expected_generalized == comb(2, 1)
        assert entry.cyclic_module
        fam2 = coefficient_family(E3, 2)
        (entry2,) = spectral_analysis(fam2)
        assert entry2.generalized_dim == 1 == comb(2, 2)

    def test_squarefree_all_ones(self):
        cp = char_pair(E5)
        for level in range(cp.gamma.degree + 1):
            fam = coefficient_family(E5, level)
            for entry in spectral_analysis(fam):
                assert entry.eigen_dim == entry.generalized_dim == 1

    def test_piece_needing_two_generators_is_not_cyclic(self):
        # on a copy, every coefficient acts on E4's two-dimensional level 1 as the scalar of its
        # first divisor's eigenvalue coefficient: the algebra is Q, its radical 0, the first
        # generalized eigenspace is the whole level, which needs two generators, and the
        # second is empty, which one vector (zero) generates
        fam = coefficient_family(E4, 1)
        ev = fam.eigenvalues[0]
        scalars = _with_ops(fam, [ExactMatrix.identity(fam.dim) * ev.coeff(d) for d in range(len(fam.ops))])
        first, second = spectral_analysis(scalars)
        assert (first.eigen_dim, first.generalized_dim, first.cyclic_module) == (2, 2, False)
        assert (second.eigen_dim, second.generalized_dim, second.cyclic_module) == (0, 0, True)

    def test_non_split_level_has_no_entries(self):
        fam = transfer_family(NS3, 1)
        assert fam.divisors == () and fam.spaces == ()
        assert spectral_analysis(fam) == []

    def test_sums_fill_subspace(self):
        for spec in (E3, E5, K3GEN):
            for level in range(char_pair(spec).gamma.degree + 1):
                fam = coefficient_family(spec, level)
                entries = spectral_analysis(fam)
                assert sum(e.generalized_dim for e in entries) == fam.dim

    def test_character_matches_transfer_eigenvalue(self):
        # each of C_0..C_k acts on a divisor's eigenvector by that coefficient of its eigenvalue;
        # both spectra are simple, so every level divisor has one eigenvector to check
        for spec in (E2, E5):
            checked = 0
            for level in range(spec.k + 1):
                fam = transfer_family(spec, level)
                assert len(fam.ops) == spec.k + 1
                for ev, (eig, _) in zip(fam.eigenvalues, fam.spaces, strict=True):
                    (v,) = eig
                    for d, op in enumerate(fam.ops):
                        assert op.apply(v) == [ev.coeff(d) * x for x in v]
                    checked += 1
            assert checked == 2 ** char_pair(spec).gamma.degree
