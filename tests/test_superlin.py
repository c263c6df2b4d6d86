from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl11chain.exactnum import Poly
from gl11chain.linalg import ExactMatrix
from gl11chain.chain import Weight
from gl11chain.superlin import (
    E_PARITY,
    EVEN,
    SuperSpace,
    adjacent_flip,
    gl_generator,
    leg_generator,
    leg_units,
    singular_subspace,
    symmetric_group_action,
    weight_spaces,
)
from densemat import from_dense
from legspace import LegSpace, e_matrix, kron_signed
from symgroup import permutation_closure

W10 = Weight(F(1), F(0))
# graded flip P: v (x) w -> (-1)^{|v||w|} w (x) v on two standard legs, basis 11, 12, 21, 22
GRADED_FLIP = from_dense([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]])


def supertrace(m, space):
    """Signed trace: diagonal entries weighted by (-1)^parity."""
    return sum((m.get(i, i) if space.parity(i) == EVEN else -m.get(i, i) for i in range(space.dim)), F(0))


def supertranspose(m, space):
    """(A^st)[i, j] = (-1)^{|i||j| + |j|} A[j, i] on basis parities."""
    out = ExactMatrix(m.ncols, m.nrows)
    for i, j, v in m.entries():
        pi, pj = space.parity(i), space.parity(j)
        out.put(j, i, -v if (pi * pj + pi) % 2 else v)
    return out


def basis_label(space, idx):
    """Bit-string label, digits 1/2 per standard leg."""
    return "".join(str(i + 1) for i in space.multi_index(idx))


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
        out = leg_units(space, ((1, 2, 1),), F(1)).apply(v)
        assert out == [F(0) if i != space.index((1, 1)) else F(-1) for i in range(4)]

    def test_even_first_leg(self):
        space = SuperSpace.tensor_power(2)
        v = unit(space, (0, 0))
        out = leg_units(space, ((0, 2, 1),), F(1)).apply(v)
        assert out[space.index((1, 0))] == 1

    def test_coproduct_on_odd_odd(self):
        # (e12 (x) 1 + sign * 1 (x) e12)(v2 (x) v2) = v1 (x) v2 - v2 (x) v1,
        # hand expansion of the diagonal action on the doubly-odd vector
        space = SuperSpace.tensor_power(2)
        v = unit(space, (1, 1))
        t1 = leg_units(space, ((0, 1, 2),), F(1)).apply(v)
        t2 = leg_units(space, ((1, 1, 2),), F(1)).apply(v)
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
        space = SuperSpace.tensor_power(1)
        ws = weight_spaces(space, [Weight(F(2), F(0))])
        dims = {(int(w.l1), int(w.l2)): len(idx) for w, idx in ws}
        assert dims == {(2, 0): 1, (1, 1): 1}

    def test_dims_sum(self):
        space = SuperSpace.tensor_power(3)
        ws = weight_spaces(space, [W10] * 3)
        assert sum(len(idx) for _, idx in ws) == space.dim


def singular_basis(space, leg_weights, wt):
    """singular_subspace of the weight space of wt, its indices read off weight_spaces."""
    return singular_subspace(space, leg_weights, dict(weight_spaces(space, leg_weights)).get(wt, []))


def index_weights(space, leg_weights):
    """The weight of each basis vector, read off weight_spaces."""
    return {idx: wt for wt, idxs in weight_spaces(space, leg_weights) for idx in idxs}


class TestSingular:
    def test_tensor_square_middle(self):
        space = SuperSpace.tensor_power(2)
        basis = singular_basis(space, [W10, W10], Weight(F(1), F(1)))
        assert len(basis) == 1

    def test_highest(self):
        for n in (1, 2, 3):
            space = SuperSpace.tensor_power(n)
            basis = singular_basis(space, [W10] * n, Weight(F(n), F(0)))
            assert len(basis) == 1

    def test_binomial_count(self):
        space = SuperSpace.tensor_power(3)
        basis = singular_basis(space, [W10] * 3, Weight(F(2), F(1)))
        assert len(basis) == 2


class TestTraceTranspose:
    def test_supertrace_values(self):
        space = SuperSpace.tensor_power(1)
        assert supertrace(ExactMatrix.identity(2), space) == 0
        assert supertrace(e_matrix(1, 1), space) == 1
        assert supertrace(e_matrix(2, 2), space) == -1

    def test_flip_traceless(self):
        space = SuperSpace.tensor_power(2)
        flip = adjacent_flip(space, 0)
        assert flip == GRADED_FLIP
        assert supertrace(flip, space) == 0

    def test_supertranspose_rules(self):
        space = SuperSpace.tensor_power(1)
        assert supertranspose(e_matrix(1, 2), space) == e_matrix(2, 1)
        assert supertranspose(e_matrix(2, 1), space) == -e_matrix(1, 2)

    def test_antihomomorphism(self):
        space = SuperSpace.tensor_power(1)
        a, b = e_matrix(1, 2), e_matrix(2, 1)
        # (AB)^t = (-1)^{|A||B|} B^t A^t with both factors odd
        lhs = supertranspose(a @ b, space)
        rhs = -(supertranspose(b, space) @ supertranspose(a, space))
        assert lhs == rhs

    def test_double_transpose_sign(self):
        space = SuperSpace.tensor_power(1)
        for (i, j), par in E_PARITY.items():
            twice = supertranspose(supertranspose(e_matrix(i, j), space), space)
            want = e_matrix(i, j) * ((-1) ** ((i + j) % 2))
            assert twice == want

    def test_supercommutator_traceless(self):
        space = SuperSpace.tensor_power(1)
        mats = {(i, j): e_matrix(i, j) for i in (1, 2) for j in (1, 2)}
        for (a, pa), (b, pb) in combinations([(k, E_PARITY[k]) for k in mats], 2):
            ma, mb = mats[a], mats[b]
            comm = ma @ mb - (mb @ ma if not (pa and pb) else -(mb @ ma))
            assert supertrace(comm, space) == 0

    def test_transpose_preserves_trace(self):
        space = SuperSpace.tensor_power(2)
        m = leg_units(space, ((0, 1, 1), (1, 2, 2)), F(1))
        assert supertrace(m, space) == supertrace(supertranspose(m, space), space)


class TestOperators:
    def test_gl_generators_on_two_sites(self):
        space = SuperSpace.tensor_power(2)
        e11 = gl_generator(space, [W10, W10], 1, 1)
        weights = index_weights(space, [W10, W10])
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
    assert basis_label(space, 0) == "111"
    assert basis_label(space, space.index((1, 0, 1))) == "212"
    assert basis_label(space, space.dim - 1) == "222"


def test_symmetric_group_action_is_homomorphism():
    space = SuperSpace.tensor_power(3)
    action = symmetric_group_action(space)
    assert len(action) == 6
    for p1, m1 in action.items():
        for p2, m2 in action.items():
            composed = tuple(p1[p2[i]] for i in range(3))
            assert action[composed] == m1 @ m2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_symmetric_group_action_matches_the_closure_of_the_flips(n):
    # the Koszul sign of each permutation against the products of the graded flips
    space = SuperSpace.tensor_power(n)
    flips = [adjacent_flip(space, i) for i in range(n - 1)]
    assert symmetric_group_action(space) == permutation_closure(flips, space.dim)


# ---------------------------------------------------------------------------
# the leg rules against the code they replaced
# ---------------------------------------------------------------------------

LEG_SPACES = [SuperSpace.tensor_power(n) for n in (1, 2, 3, 4)]
LEG_WEIGHTS = [Weight(F(2), F(1)), Weight(F(1), F(0)), Weight(F(3), F(0)), Weight(F(1), F(1))]


def leg_ids(space):
    return "2" * space.n


def per_leg_basis_weights(space, leg_weights):
    """Basis weights by the per-leg loop the package ran before SuperSpace.level (oracle)."""
    out = []
    for idx in range(space.dim):
        l1, l2 = F(0), F(0)
        for wt, comp in zip(leg_weights, space.multi_index(idx)):
            l1 += wt.l1 if comp == 0 else wt.l1 - 1
            l2 += wt.l2 if comp == 0 else wt.l2 + 1
        out.append(Weight(l1, l2))
    return out


def flip_components(space, c, i):
    """Swap legs i, i+1 of component c; sign -1 when both legs are odd (the polynomial model's old flip, oracle)."""
    multi = list(space.multi_index(c))
    a, b = multi[i], multi[i + 1]
    multi[i], multi[i + 1] = b, a
    return space.index(multi), -1 if a == 1 and b == 1 else 1


def ladder_unit(space, idx, s, i, j):
    """E_ij on leg s by the four-branch ladder of the old current_action; a leg's state is its parity (oracle)."""
    multi = space.multi_index(idx)
    comp = multi[s]
    targets = {(1, 1): (0, 0), (2, 2): (1, 1), (2, 1): (0, 1), (1, 2): (1, 0)}
    source, target = targets[(i, j)]
    if comp != source:
        return None
    passed = sum(multi[:s])
    nm = list(multi)
    nm[s] = target
    return space.index(nm), -1 if (i + j) % 2 and passed % 2 else 1


def kron_unit_column(n, idx, s, i, j):
    """Column idx of E_ij on leg s of n standard legs built by kron_signed, as a list of (row, value) (oracle)."""
    m = kron_signed(LegSpace.tensor_power(n), {s: (e_matrix(i, j), E_PARITY[(i, j)])})
    return [(r, v) for r, c, v in m.entries() if c == idx]


@pytest.mark.parametrize("space", LEG_SPACES, ids=leg_ids)
def test_level_matches_the_per_leg_weights(space):
    weights = LEG_WEIGHTS[: space.n]
    oracle = per_leg_basis_weights(space, weights)
    # weight_spaces groups the indices by weight, highest weight (level 0) first
    want: dict = {}
    for idx, wt in enumerate(oracle):
        want.setdefault(wt, []).append(idx)
    assert weight_spaces(space, weights) == sorted(want.items(), key=lambda item: -item[0].l1)
    total = sum(wt.l1 for wt in weights)
    for idx in range(space.dim):
        assert space.level(idx) == total - oracle[idx].l1
        assert space.level(idx) % 2 == space.parity(idx)


@pytest.mark.parametrize("space", LEG_SPACES, ids=leg_ids)
def test_flip_matches_the_old_flip(space):
    for i in range(space.n - 1):
        for idx in range(space.dim):
            assert space.flip(idx, i) == flip_components(space, idx, i)


@pytest.mark.parametrize("space", LEG_SPACES, ids=leg_ids)
def test_leg_unit_matches_the_ladder_and_kron_signed(space):
    for s in range(space.n):
        for i, j in E_PARITY:
            for idx in range(space.dim):
                got = space.leg_unit(idx, s, i, j)
                assert kron_unit_column(space.n, idx, s, i, j) == ([] if got is None else [got])
                assert got == ladder_unit(space, idx, s, i, j)


# ---------------------------------------------------------------------------
# leg_units and gl_generator against kron_signed, on random units and weights
# ---------------------------------------------------------------------------

_FRACTIONS = st.fractions(min_value=-5, max_value=5, max_denominator=4)
_COEFFICIENTS = st.one_of(_FRACTIONS, st.lists(_FRACTIONS, min_size=1, max_size=3).map(Poly))
_WEIGHTS = st.lists(st.tuples(st.integers(1, 4), st.integers(0, 3)).map(lambda w: Weight(*w)), min_size=1, max_size=4)


def kron_gl_generator(leg_weights, i, j):
    """e_ij on the tensor product as the sum of kron_signed leg terms, as gl_generator built it (oracle)."""
    space = LegSpace.tensor_power(len(leg_weights))
    total = ExactMatrix(space.dim, space.dim)
    for s, wt in enumerate(leg_weights):
        total = total + kron_signed(space, {s: (leg_generator(wt, i, j), E_PARITY[(i, j)])})
    return total


@settings(max_examples=80)
@given(data=st.data())
def test_leg_units_match_kron_signed(data):
    n = data.draw(st.integers(1, 4), label="n")
    legs = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True), label="legs")
    units = [(s, *data.draw(st.sampled_from(sorted(E_PARITY)), label=f"unit on leg {s}")) for s in legs]
    coef = data.draw(_COEFFICIENTS, label="coef")
    slot_ops = {s: (e_matrix(i, j), E_PARITY[(i, j)]) for s, i, j in units}
    s0 = units[0][0]
    slot_ops[s0] = (slot_ops[s0][0] * coef, slot_ops[s0][1])
    assert leg_units(SuperSpace.tensor_power(n), units, coef) == kron_signed(LegSpace.tensor_power(n), slot_ops)


@settings(max_examples=40)
@given(leg_weights=_WEIGHTS)
def test_gl_generator_matches_the_kron_signed_sum(leg_weights):
    space = SuperSpace.tensor_power(len(leg_weights))
    for i, j in E_PARITY:
        assert gl_generator(space, leg_weights, i, j) == kron_gl_generator(leg_weights, i, j)


@settings(max_examples=40)
@given(leg_weights=_WEIGHTS)
def test_diagonal_generators_act_by_the_basis_weights(leg_weights):
    # the premise of weight_spaces: the tensor basis diagonalises e_11 and e_22
    space = SuperSpace.tensor_power(len(leg_weights))
    weights = index_weights(space, leg_weights)
    for gen, part in (((1, 1), 0), ((2, 2), 1)):
        want = ExactMatrix(space.dim, space.dim)
        for idx, wt in weights.items():
            want.put(idx, idx, tuple(wt)[part])
        assert gl_generator(space, leg_weights, *gen) == want
