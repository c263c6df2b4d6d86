from fractions import Fraction as F
from itertools import combinations

from gl11chain.linalg import ExactMatrix
from gl11chain.superlin import (
    E_PARITY,
    SuperSpace,
    Weight,
    basis_weights,
    e_matrix,
    gl_generator,
    graded_flip,
    kron_signed,
    leg_generator,
    singular_subspace,
    supertrace,
    supertranspose,
    symmetric_group_action,
    weight_spaces,
)

W10 = Weight(F(1), F(0))


def unit(space, multi):
    v = [F(0)] * space.dim
    v[space.index(multi)] = F(1)
    return v


class TestWeight:
    def test_polynomial(self):
        assert Weight(F(2), F(1)).is_polynomial()
        assert Weight(F(0), F(0)).is_polynomial()
        assert not Weight(F(0), F(2)).is_polynomial()
        assert not Weight(F(1, 2), F(0)).is_polynomial()

    def test_nondegenerate(self):
        assert Weight(F(2), F(-1)).is_nondegenerate()
        assert not Weight(F(1), F(-1)).is_nondegenerate()


class TestKoszul:
    def test_sign_forced(self):
        # (1 (x) e21)(v2 (x) v1) = -(v2 (x) v2): e21 is odd, |v2| odd
        space = SuperSpace.tensor_power(2)
        v = unit(space, (1, 0))
        out = kron_signed(space, {1: (e_matrix(2, 1), 1)}).apply(v)
        assert out == [F(0) if i != space.index((1, 1)) else F(-1) for i in range(4)]

    def test_even_first_leg(self):
        space = SuperSpace.tensor_power(2)
        v = unit(space, (0, 0))
        out = kron_signed(space, {0: (e_matrix(2, 1), 1)}).apply(v)
        assert out[space.index((1, 0))] == 1

    def test_coproduct_on_odd_odd(self):
        # (e12 (x) 1 + sign * 1 (x) e12)(v2 (x) v2) = v1 (x) v2 - v2 (x) v1,
        # hand expansion of the diagonal action on the doubly-odd vector
        space = SuperSpace.tensor_power(2)
        v = unit(space, (1, 1))
        t1 = kron_signed(space, {0: (e_matrix(1, 2), 1)}).apply(v)
        t2 = kron_signed(space, {1: (e_matrix(1, 2), 1)}).apply(v)
        out = [a + b for a, b in zip(t1, t2)]
        want = [F(0)] * 4
        want[space.index((0, 1))] = F(1)
        want[space.index((1, 0))] = F(-1)
        assert out == want


class TestWeightSpaces:
    def test_tensor_square(self):
        space = SuperSpace.tensor_power(2)
        ws = weight_spaces(space, [W10, W10])
        dims = {(int(w.l1), int(w.l2)): len(idx) for w, idx in ws}
        assert dims == {(2, 0): 1, (1, 1): 2, (0, 2): 1}

    def test_two_dim_module(self):
        space = SuperSpace([SuperSpace.standard_leg()])
        ws = weight_spaces(space, [Weight(F(2), F(0))])
        dims = {(int(w.l1), int(w.l2)): len(idx) for w, idx in ws}
        assert dims == {(2, 0): 1, (1, 1): 1}

    def test_trivial_module(self):
        space = SuperSpace([(0,)])
        ws = weight_spaces(space, [Weight(F(0), F(0))])
        assert len(ws) == 1 and len(ws[0][1]) == 1

    def test_dims_sum(self):
        space = SuperSpace.tensor_power(3)
        ws = weight_spaces(space, [W10] * 3)
        assert sum(len(idx) for _, idx in ws) == space.dim


class TestSingular:
    def test_tensor_square_middle(self):
        space = SuperSpace.tensor_power(2)
        basis = singular_subspace(space, [W10, W10], Weight(F(1), F(1)))
        assert len(basis) == 1

    def test_highest(self):
        for n in (1, 2, 3):
            space = SuperSpace.tensor_power(n)
            basis = singular_subspace(space, [W10] * n, Weight(F(n), F(0)))
            assert len(basis) == 1

    def test_binomial_count(self):
        space = SuperSpace.tensor_power(3)
        basis = singular_subspace(space, [W10] * 3, Weight(F(2), F(1)))
        assert len(basis) == 2


class TestTraceTranspose:
    def test_supertrace_values(self):
        space = SuperSpace([SuperSpace.standard_leg()])
        assert supertrace(ExactMatrix.identity(2), space) == 0
        assert supertrace(e_matrix(1, 1), space) == 1
        assert supertrace(e_matrix(2, 2), space) == -1

    def test_flip_traceless(self):
        space = SuperSpace.tensor_power(2)
        assert supertrace(graded_flip(), space) == 0

    def test_supertranspose_rules(self):
        space = SuperSpace([SuperSpace.standard_leg()])
        assert supertranspose(e_matrix(1, 2), space) == e_matrix(2, 1)
        assert supertranspose(e_matrix(2, 1), space) == -e_matrix(1, 2)

    def test_antihomomorphism(self):
        space = SuperSpace([SuperSpace.standard_leg()])
        a, b = e_matrix(1, 2), e_matrix(2, 1)
        # (AB)^t = (-1)^{|A||B|} B^t A^t with both factors odd
        lhs = supertranspose(a @ b, space)
        rhs = -(supertranspose(b, space) @ supertranspose(a, space))
        assert lhs == rhs

    def test_double_transpose_sign(self):
        space = SuperSpace([SuperSpace.standard_leg()])
        for (i, j), par in E_PARITY.items():
            twice = supertranspose(supertranspose(e_matrix(i, j), space), space)
            want = e_matrix(i, j) * ((-1) ** ((i + j) % 2))
            assert twice == want

    def test_supercommutator_traceless(self):
        space = SuperSpace([SuperSpace.standard_leg()])
        mats = {(i, j): e_matrix(i, j) for i in (1, 2) for j in (1, 2)}
        for (a, pa), (b, pb) in combinations([(k, E_PARITY[k]) for k in mats], 2):
            ma, mb = mats[a], mats[b]
            comm = ma @ mb - (mb @ ma if not (pa and pb) else -(mb @ ma))
            assert supertrace(comm, space) == 0

    def test_transpose_preserves_trace(self):
        space = SuperSpace.tensor_power(2)
        m = kron_signed(space, {0: (e_matrix(1, 1), 0), 1: (e_matrix(2, 2), 0)})
        assert supertrace(m, space) == supertrace(supertranspose(m, space), space)


class TestOperators:
    def test_gl_generators_on_two_sites(self):
        space = SuperSpace.tensor_power(2)
        e11 = gl_generator(space, [W10, W10], 1, 1)
        weights = basis_weights(space, [W10, W10])
        for idx in range(space.dim):
            assert e11.get(idx, idx) == weights[idx].l1

    def test_leg_generator_commutator(self):
        wt = Weight(F(3), F(1))
        e12 = leg_generator(wt, 1, 2)
        e21 = leg_generator(wt, 2, 1)
        anti = e12 @ e21 + e21 @ e12
        assert anti == ExactMatrix.identity(2) * (wt.l1 + wt.l2)


def test_basis_labels():
    space = SuperSpace.tensor_power(3)
    assert space.basis_label(0) == "111"
    assert space.basis_label(space.index((1, 0, 1))) == "212"
    assert space.basis_label(space.dim - 1) == "222"


def test_symmetric_group_action_is_homomorphism():
    space = SuperSpace.tensor_power(3)
    action = symmetric_group_action(space)
    assert len(action) == 6
    for p1, m1 in action.items():
        for p2, m2 in action.items():
            composed = tuple(p1[p2[i]] for i in range(3))
            assert action[composed] == m1 @ m2
