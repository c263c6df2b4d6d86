from fractions import Fraction as F
from itertools import permutations
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gl11chain import bethe, linalg
from gl11chain.exactnum import Poly, RootSearchTooLarge
from gl11chain.linalg import ExactMatrix, joint_generalized_eigenspaces
from gl11chain.chain import ModuleSpec, make_spec
from gl11chain.monodromy import (
    chain_transfer_coefficients,
    chain_transfer_pencil,
    coefficient_matrices,
    tensor_monodromy,
    transfer_pencil,
)
from gl11chain.suites import suite_specs
from gl11chain.bethe import (
    CharPair,
    Divisor,
    bethe_vector,
    bethe_vector_eps,
    char_pair,
    completeness_report,
    eigenvalue_pencil,
    level_subspace,
    restrict_operators,
    transfer_family,
    verify_on_shell,
)
from densemat import FieldSpanBasis, vec_list

E1 = make_spec([(1, 0)], ["0"], ("2", "1"))
E2 = make_spec([(1, 0), (1, 0)], ["0", "1/2"], ("1", "1"))
E3 = make_spec([(1, 0), (1, 0), (1, 0)], ["0", "1/2", "-1/2"], ("1", "1"))
E4 = make_spec([(1, 0), (1, 0)], ["2", "-3/2"], ("1", "2"))
E5 = make_spec([(1, 0), (1, 0), (1, 0)], ["6", "-7", "-1/2"], ("2", "3"))


class TestCharPair:
    def test_untwisted_leading(self):
        cp = char_pair(E2)
        assert cp.gamma == Poly((F(1, 2), 2))

    def test_double_root(self):
        cp = char_pair(E3)
        assert cp.gamma == Poly((F(1, 2), 1)) ** 2 * 3

    def test_twisted(self):
        cp = char_pair(E1)
        assert cp.gamma == Poly((2, 1))

    def test_zeta_ratio(self):
        from gl11chain.exactnum import RatFun

        cp = char_pair(E2)
        assert cp.zeta1 / cp.zeta2 == RatFun(cp.phi, cp.psi)
        assert cp.zeta1(F(3)) == cp.phi(F(3)) / E2.normalizer()(F(3))

    def test_memoised_with_shared_spectral_data(self):
        cp = char_pair(E3)
        assert char_pair(E3) is cp
        assert cp.roots is cp.roots == [(F(-1, 2), 2)]
        assert cp.divisors is cp.divisors
        assert [[d.root_list() for d in lv] for lv in cp.divisors] == [[()], [(F(-1, 2),)], [(F(-1, 2), F(-1, 2))]]

    def test_search_refusal_is_not_cached(self, monkeypatch):
        calls = []

        def refuse(p):
            calls.append(p)
            raise RootSearchTooLarge("too large")

        monkeypatch.setattr(bethe, "roots_with_multiplicity", refuse)
        cp = CharPair(Poly(), Poly(), Poly((1, 0, 1)), None)
        for _ in range(2):
            with pytest.raises(RootSearchTooLarge):
                cp.roots
        assert len(calls) == 2


def divisors_of(gamma: Poly) -> tuple:
    """CharPair.divisors of a raw polynomial; the divisors read only gamma."""
    return CharPair(Poly(), Poly(), gamma, None).divisors


class TestDivisors:
    def test_single_root(self):
        divs = divisors_of(Poly((F(1, 4), 1)) * 2)[1]
        assert [d.poly for d in divs] == [Poly((F(1, 4), 1))]

    def test_double_root_collapses(self):
        gamma = Poly((F(1, 2), 1)) ** 2 * 3
        assert len(divisors_of(gamma)[1]) == 1
        assert len(divisors_of(gamma)[2]) == 1

    def test_two_simple_roots(self):
        gamma = Poly.from_roots([F(1), F(2)])
        assert len(divisors_of(gamma)[1]) == 2

    def test_squarefree_binomial_count(self):
        gamma = Poly.from_roots([F(1), F(2), F(-3)])
        for level in range(4):
            assert len(divisors_of(gamma)[level]) == comb(3, level)

    def test_nonsplit_rejected(self):
        with pytest.raises(ValueError, match="split"):
            divisors_of(Poly((1, 0, 1)))

    def test_mult_accessor(self):
        d = Divisor.from_roots([(F(1), 2), (F(0), 1)])
        assert d.mult(1) == 2 and d.mult(0) == 1 and d.mult(5) == 0
        assert d.degree == 3


class TestBetheVector:
    def test_level_zero_is_vacuum(self):
        assert bethe_vector(E2, []) == {0: 1}

    def test_e1_direction(self):
        assert bethe_vector(E1, [F(-2)]) == {1: -1}  # proportional to the lowered vector

    def test_symmetric_in_roots(self):
        vals = [F(3), F(-1)]
        ref = bethe_vector(E3, vals)
        for perm in permutations(vals):
            assert bethe_vector(E3, list(perm)) == ref

    def test_eps_route_matches_direct(self):
        for roots in ([F(-1, 2)], [F(-1, 2), F(-1, 2)], [F(0), F(2)]):
            assert bethe_vector(E3, roots) == bethe_vector_eps(E3, roots)

    def test_double_root_nonzero(self):
        assert bethe_vector_eps(E3, [F(-1, 2), F(-1, 2)])

    def test_hazard_ordering_handled(self):
        # consecutive roots differing by 1 hit the pair-factor pole in one
        # ordering; the construction must still produce the symmetric vector
        a = bethe_vector(E3, [F(1), F(0)])
        b = bethe_vector(E3, [F(0), F(1)])
        c = bethe_vector_eps(E3, [F(1), F(0)])
        assert a == b == c

    def test_level_cap(self):
        with pytest.raises(ValueError):
            bethe_vector(E1, [F(0), F(1)])


# up to three integer or half-integer roots in [-3, 3]: unit gaps, where one
# order hits a pair-factor pole, and repeated roots come up often
ROOT_TUPLES = st.lists(st.integers(-6, 6).map(lambda n: F(n, 2)), max_size=3)


class TestOrderSweep:
    @settings(max_examples=40)
    @given(spec=st.sampled_from([E3, E5]), roots=ROOT_TUPLES)
    @example(spec=E3, roots=[F(1), F(0)])
    @example(spec=E3, roots=[F(-1, 2), F(-1, 2)])
    @example(spec=E5, roots=[F(2), F(1), F(0)])
    def test_every_safe_order_and_the_eps_limit_agree(self, spec, roots):
        assert bethe._pair_factors_ok(sorted(roots))  # each ascending factor is at least 1
        vec = bethe_vector(spec, roots)
        for order in map(list, permutations(roots)):
            if bethe._pair_factors_ok(order):  # multiplied as given, reversed order included
                assert bethe_vector(spec, order) == vec
        try:
            limit = bethe_vector_eps(spec, roots)
        except ValueError:  # no eps limit at this configuration
            return
        assert limit == vec


class TestEigenvalue:
    def test_e1(self):
        assert eigenvalue_pencil(Divisor.from_roots([(F(-2), 1)]), E1) == Poly((1, 1))

    def test_e2(self):
        assert eigenvalue_pencil(Divisor.from_roots([(F(-1, 4), 1)]), E2) == Poly((F(-3, 2), 2))

    def test_trivial_divisor(self):
        assert eigenvalue_pencil(Divisor.from_roots([]), E2) == char_pair(E2).gamma

    def test_nondivisor_rejected(self):
        with pytest.raises(ValueError, match="divisor"):
            eigenvalue_pencil(Divisor.from_roots([(F(9), 1)]), E2)


class TestOnShell:
    @pytest.mark.parametrize("spec", [E1, E2, E3, E4], ids=["E1", "E2", "E3", "E4"])
    def test_all_divisors_pass(self, spec):
        cp = char_pair(spec)
        for level in range(cp.gamma.degree + 1):
            for dv in cp.divisors[level]:
                assert verify_on_shell(spec, dv).ok

    def test_off_shell_fails(self):
        check = verify_on_shell(E2, [F(7)])
        assert not check.ok and check.witness

    def test_off_shell_witness_is_degree_and_component(self):
        # at the off-shell root 7 the residual's lowest nonzero term is x^0, first in component 2
        assert verify_on_shell(E2, [F(7)]).witness == "(0, 2)"

    def test_corrupted_pencil_witness_reads_a_component_outside_the_support(self, monkeypatch):
        # an x^2 entry at (0, 1) carries the level-1 vector into component 0, where Bhat has no entry
        bad = chain_transfer_pencil(E2).copy()
        bad.add_to(0, 1, Poly((0, 0, 1)))
        monkeypatch.setattr(bethe, "chain_transfer_pencil", lambda spec: bad)
        (dv,) = char_pair(E2).divisors[1]
        assert verify_on_shell(E2, dv).witness == "(2, 0)"

    def test_joint_eigenvalue_oracle(self):
        # independent re-derivation: restrict the transfer family to the
        # relevant subspace and ask for the joint eigenspace of the expected
        # character; the Bethe vector must span it
        for spec in (E1, E2):
            pen = tensor_monodromy(spec)
            tq = coefficient_matrices(transfer_pencil(pen, spec.twist))
            tq += [ExactMatrix(pen.dim, pen.dim)] * (spec.k + 1 - len(tq))
            cp = char_pair(spec)
            for level in range(cp.gamma.degree + 1):
                basis = level_subspace(spec, level)
                ops, _ = restrict_operators([m.transpose().rows for m in tq], basis)
                for dv in cp.divisors[level]:
                    ev = eigenvalue_pencil(dv, spec)
                    chars = [[ev.coeff(d) for d in range(spec.k + 1)]]
                    (eig, _), = joint_generalized_eigenspaces(ops, chars)
                    assert len(eig) == 1
                    bv = bethe_vector(spec, dv.root_list())
                    # embed the eigenvector and compare up to scale
                    emb = [F(0)] * pen.dim
                    for c, coef in eig[0].items():
                        emb = [a + coef * b for a, b in zip(emb, vec_list(basis[c], pen.dim))]
                    ratio = None
                    for a, b in zip(vec_list(bv, pen.dim), emb):
                        if (a == 0) != (b == 0):
                            pytest.fail("support mismatch")
                        if a != 0:
                            r = a / b
                            assert ratio is None or r == ratio
                            ratio = r


class TestCompleteness:
    def test_e2_complete(self):
        rep = completeness_report(E2)
        assert rep.all_ok()
        assert [lv.subspace_dim for lv in rep.levels] == [1, 1]

    def test_e1_two_vectors_span(self):
        rep = completeness_report(E1)
        assert rep.all_ok()
        assert [lv.subspace_dim for lv in rep.levels] == [1, 1]

    def test_e3_jordan_profile(self):
        rep = completeness_report(E3)
        gen = [e.generalized_dim for lv in rep.levels for e in lv.entries]
        eig = [e.eigen_dim for lv in rep.levels for e in lv.entries]
        assert gen == [1, 2, 1]
        assert eig == [1, 1, 1]
        assert [lv.diagonalizable for lv in rep.levels] == [True, False, True]
        # three eigenvectors against total singular dimension four
        assert sum(eig) == 3 and sum(lv.subspace_dim for lv in rep.levels) == 4
        assert all(lv.complete for lv in rep.levels)

    def test_e4_twisted_complete(self):
        rep = completeness_report(E4)
        assert rep.all_ok()
        assert [lv.subspace_dim for lv in rep.levels] == [1, 2, 1]

    def test_report_dict_exact_strings(self):
        doc = completeness_report(E2).to_dict()
        assert doc["levels"][1]["divisors"][0]["eigenvalue"] == ["-3/2", "2"]


def every_shift_eigenspaces(ops, chars):
    """joint_generalized_eigenspaces with every shifted operator stacked, zero ones included (oracle)."""
    n = ops[0].nrows
    out = []
    for ch in chars:
        shifted = [op - ExactMatrix.identity(n) * c for op, c in zip(ops, ch)]
        eig = ExactMatrix.vstack(shifted).kernel()
        out.append((eig, ExactMatrix.vstack([linalg._fitting_power(s) for s in shifted]).kernel()))
    return out


@pytest.mark.parametrize("name", list(suite_specs()))
def test_zero_shift_skip_keeps_the_joint_spaces(name):
    # differential: the solver drops the zero shifted operators (the scalar
    # top coefficient, the zero padding); the bases equal those of the solve
    # that stacks every one, E3's double-root level with its Jordan block included
    spec = suite_specs()[name]
    zero_shifts = 0
    for level in range(spec.k + 1):
        fam = bethe.transfer_family(spec, level)
        if not fam.divisors:
            continue
        chars = [[ev.coeff(d) for d in range(len(fam.ops))] for ev in fam.eigenvalues]
        assert list(fam.spaces) == every_shift_eigenspaces(fam.ops, chars)
        one = ExactMatrix.identity(fam.dim)
        zero_shifts += sum((op - one * c).is_zero() for ch in chars for op, c in zip(fam.ops, ch))
    assert zero_shifts



# chains past the suite caps: k4, k5 (double root of gamma), k6 (dimension 64), and ns3-ns5, whose gamma does not split
RESTRICTION_CHAINS = {
    **suite_specs(),
    "k4": '{"weights":[[1,0],[2,0],[1,0],[1,0]],"points":["5","4","3","2"],"twist":["1","1"]}',
    "k5": '{"weights":[[1,1],[1,0],[1,0],[1,1],[1,0]],"points":["1","0","-2","0","-3"],"twist":["1","1"]}',
    "k6": '{"weights":[[1,0],[2,1],[1,0],[1,0],[1,0],[1,0]],"points":["2","0","-5/3","-7/2","1","-9/2"],'
          '"twist":["1","1"]}',
    "ns3": '{"weights":[[1,0],[1,0],[1,0]],"points":["0","1/3","5"],"twist":["1","1"]}',
    "ns4": '{"weights":[[1,0],[2,1],[1,0],[1,0]],"points":["0","1/3","5","-7/2"],"twist":["3","1"]}',
    "ns5": '{"weights":[[1,0],[2,1],[1,0],[1,0],[2,0]],"points":["0","1/3","5","-7/2","2/7"],"twist":["3","-1"]}',
}


def padded_coefficients(spec):
    """C_0..C_k of the chain's transfer pencil, zero past its degree."""
    tq = list(chain_transfer_coefficients(spec))
    dim = spec.space().dim
    return tq + [ExactMatrix(dim, dim)] * (spec.k + 1 - len(tq))


class TestRestriction:
    @pytest.mark.parametrize("name", list(RESTRICTION_CHAINS))
    def test_coordinates_match_the_tag_oracle(self, name):
        # differential: a level's coordinates read at its basis's indices against the
        # field oracle's tag coordinates, at every level; a vector with every entry 1
        # lies outside each level and gets None from both
        spec = RESTRICTION_CHAINS[name]
        spec = ModuleSpec.from_json(spec) if isinstance(spec, str) else spec
        tq = padded_coefficients(spec)
        dim = spec.space().dim
        for level in range(spec.k + 1):
            fam = transfer_family(spec, level)
            basis = level_subspace(spec, level)
            ops, index = restrict_operators([m.transpose().rows for m in tq], basis)
            assert (fam.basis, fam.index, fam.ops) == (basis, index, ops)
            tagged = FieldSpanBasis(dim)
            assert all(tagged.add_tagged(vec_list(v, dim), c) for c, v in enumerate(basis))
            for m, op in zip(tq, ops):
                for c, v in enumerate(basis):
                    image = m.apply(v)
                    want = tagged.coordinates(vec_list(image, dim), len(basis))
                    got = vec_list(fam.coordinates(image), len(basis))
                    assert want == [op.get(r, c) for r in range(len(basis))] == got
            outside = {j: F(1) for j in range(dim)}
            assert tagged.coordinates(vec_list(outside, dim), len(basis)) is None
            assert fam.coordinates(outside) is None

    @pytest.mark.parametrize(
        "basis",
        [
            [{1: F(1), 2: F(1)}, {2: F(1)}],  # both vectors end at index 2
            [{1: F(2)}, {2: F(1)}],  # vector 0 is 2 at its last index
            [{1: F(1)}, {1: F(1), 2: F(1)}],  # vector 1 is nonzero at vector 0's index
            [{}],  # the zero vector has no index
        ],
        ids=["shared-index", "not-one", "not-zero-elsewhere", "zero-vector"],
    )
    def test_basis_not_in_coordinate_form_raises(self, basis):
        # each basis lies in E4's level 1, the span of the unit vectors at 1 and 2
        with pytest.raises(ValueError, match="basis is not in coordinate form"):
            restrict_operators([m.transpose().rows for m in padded_coefficients(E4)], basis)

    def test_non_invariant_span_raises(self):
        # the unit vector at 1 alone spans a part of E4's two-dimensional level 1 that some C_d does not keep
        tq = padded_coefficients(E4)
        assert any(m.get(2, 1) for m in tq)
        with pytest.raises(ValueError, match="subspace is not invariant under the operator"):
            restrict_operators([m.transpose().rows for m in tq], [{1: F(1)}])
