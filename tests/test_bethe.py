from fractions import Fraction as F
from itertools import permutations
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gl11chain import bethe
from gl11chain.exactnum import Poly, RootSearchTooLarge
from gl11chain.linalg import ExactMatrix, joint_generalized_eigenspaces
from gl11chain.chain import make_spec
from gl11chain.monodromy import coefficient_matrices, tensor_monodromy, transfer_pencil
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
    verify_on_shell,
)

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
        vec = bethe_vector(E2, [])
        assert vec[0] == 1 and not any(vec[1:])

    def test_e1_direction(self):
        assert bethe_vector(E1, [F(-2)]) == (0, -1)  # proportional to the lowered vector

    def test_symmetric_in_roots(self):
        vals = [F(3), F(-1)]
        ref = bethe_vector(E3, vals)
        for perm in permutations(vals):
            assert bethe_vector(E3, list(perm)) == ref

    def test_eps_route_matches_direct(self):
        for roots in ([F(-1, 2)], [F(-1, 2), F(-1, 2)], [F(0), F(2)]):
            assert bethe_vector(E3, roots) == bethe_vector_eps(E3, roots)

    def test_double_root_nonzero(self):
        assert any(bethe_vector_eps(E3, [F(-1, 2), F(-1, 2)]))

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

    def test_joint_eigenvalue_oracle(self):
        # independent re-derivation: restrict the transfer family to the
        # relevant subspace and ask for the joint eigenspace of the expected
        # character; the Bethe vector must span it
        for spec in (E1, E2):
            pen = tensor_monodromy(spec)
            tq = coefficient_matrices(transfer_pencil(pen, spec.twist))
            tq += [ExactMatrix(pen.dim, pen.dim)] * (spec.k + 1 - len(tq))
            cp = char_pair(spec)
            singular = not spec.is_twisted()
            for level in range(cp.gamma.degree + 1):
                basis = level_subspace(spec, level, singular)
                ops, _ = restrict_operators(tq, basis)
                for dv in cp.divisors[level]:
                    ev = eigenvalue_pencil(dv, spec)
                    chars = [[ev.coeff(d) for d in range(spec.k + 1)]]
                    (eig, _), = joint_generalized_eigenspaces(ops, chars)
                    assert len(eig) == 1
                    bv = bethe_vector(spec, dv.root_list())
                    # embed the eigenvector and compare up to scale
                    emb = [F(0)] * pen.dim
                    for coef, vec in zip(eig[0], basis):
                        if coef:
                            emb = [a + coef * b for a, b in zip(emb, vec)]
                    ratio = None
                    for a, b in zip(bv, emb):
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
