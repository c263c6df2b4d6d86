"""The Kronecker codec of linalg.py and the checks decided at one Kronecker point.

The codec round-trips signed slot lists at the bound slot_width was taken
from, and first_noncommuting names the pair the coefficient-pair loop names.
Contravariance, self-adjointness, commutativity and symmetry of the transfer
pencil, the commutation of T_1 with T_2, the centrality of the Berezinian and
the zero-mode exchange relations are compared with the coefficient loops of
coefforacle.py, verdict and witness, on drawn chains and on pencils and Gram
matrices corrupted by one change.
"""

from fractions import Fraction as F
from math import lcm
from unittest.mock import patch

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from gl11chain import fusion, shapoform, suites
from gl11chain.exactnum import Poly
from gl11chain.linalg import (
    ExactMatrix,
    first_noncommuting,
    kronecker_slots,
    kronecker_values,
    product_slots,
    slot_width,
)
from gl11chain.monodromy import Check, chain_transfer_pencil, coefficient_matrices, tensor_monodromy
from gl11chain.shapoform import check_iota_contract, form_matrix
from gl11chain.suites import suite_specs
import coefforacle
from coefforacle import chains, corrupted, corrupted_below_top, corrupted_matrix


def _pack(slots, w):
    """sum_t c_t 2^(w t), computed without the codec."""
    return sum(c * 2 ** (w * t) for t, c in enumerate(slots))


@st.composite
def slot_lists(draw):
    """(bound, slots): |c| <= bound, the extremes +-bound likely, and trailing zero slots."""
    bound = draw(st.one_of(st.integers(0, 8), st.integers(0, 2**70), st.sampled_from([2**k for k in range(1, 66)])))
    edge = st.sampled_from([bound, -bound, 0])
    slots = draw(st.lists(st.one_of(edge, st.integers(-bound, bound)), max_size=12))
    return bound, slots + [0] * draw(st.integers(0, 3))


class TestCodec:
    @settings(max_examples=300)
    @given(slot_lists())
    @example((1, [1, -1, 1, -1, 0, 0]))
    @example((2**40, [2**40, -(2**40), 2**40, 0]))
    @example((2**40 - 1, [-(2**40 - 1), 2**40 - 1, 0]))
    @example((5, [-5, 5, -5, 5]))
    def test_slots_round_trip_at_the_bound(self, case):
        bound, slots = case
        w = slot_width(bound)
        while slots and not slots[-1]:
            slots = slots[:-1]
        assert kronecker_slots(_pack(slots, w), w) == slots

    def test_width_is_the_least_that_holds_the_bound(self):
        for bound in (0, 1, 2, 3, 4, 255, 256, 2**64):
            w = slot_width(bound)
            assert 2 ** (w - 1) > bound >= 2 ** (w - 2) or bound == 0

    @settings(max_examples=60)
    @given(st.lists(st.lists(st.fractions(-50, 50, max_denominator=12), min_size=4, max_size=4), min_size=1, max_size=4))
    def test_value_packs_the_cleared_coefficients(self, rows):
        # a 2x2 matrix as a coefficient list, and the same matrix with Poly entries
        cms = []
        for r in rows:
            c = ExactMatrix(2, 2)
            for pos, v in enumerate(r):
                c.put(*divmod(pos, 2), v)
            cms.append(c)
        poly = ExactMatrix(2, 2)
        for a in range(2):
            for b in range(2):
                poly.put(a, b, Poly([c.get(a, b) for c in cms]))
        w, ([packed, from_poly],) = kronecker_values([cms, poly], 1)
        den = lcm(*(v.denominator for c in cms for _, _, v in c.entries()))
        assert packed == from_poly
        for a in range(2):
            for b in range(2):
                want = [c.get(a, b) * den for c in cms]
                while want and not want[-1]:
                    want.pop()
                assert kronecker_slots(packed.get(a, b), w) == want

    def test_product_slots_name_each_nonzero_coefficient(self):
        # (E_01 + 3 E_01 x^2) E_10 = E_00 + 3 E_00 x^2
        w, ([a, b],) = kronecker_values([[_unit(0, 1), ExactMatrix(2, 2), _unit(0, 1) * 3], _unit(1, 0)], 1)
        assert product_slots([(1, a, b)], w) == {0, 2}
        assert product_slots([(1, a, b), (-1, a, b)], w) == set()

    def test_values_at_two_points(self):
        # x1 = 2^w, x2 = 2^(3w): slot d1 + 3 d2 of p(x1) q(x2) is the x1^d1 x2^d2 coefficient
        p, q = ExactMatrix(1, 1), ExactMatrix(1, 1)
        p.put(0, 0, Poly((F(1, 2), -1)))
        q.put(0, 0, Poly((3, 0, 1)))
        w, ([p1, q1], [p2, q2]) = kronecker_values([p, q], 1, (1, 3))
        assert w == slot_width(6 ** 2)  # D = 2 clears p to 1 - 2x and q to 6 + 2x^2
        want = {d1 + 3 * d2 for d1, a in enumerate((1, -2)) for d2, b in enumerate((6, 0, 2)) if a * b}
        assert product_slots([(1, p1, q2)], w) == want
        assert kronecker_slots(p1.get(0, 0) * q2.get(0, 0), w) == [6, -12, 0, 0, 0, 0, 2, -4]


def _unit(i, j):
    m = ExactMatrix(2, 2)
    m.put(i, j, F(1))
    return m


def _gram(spec):
    try:
        return form_matrix(spec)
    except ValueError:  # the R-matrix has a pole at this chain's point differences
        reject()


class TestPencilChecksMatchTheOracle:
    @settings(max_examples=25)
    @given(chains(), st.data())
    def test_transfer_pencil_items(self, spec, data):
        gram = _gram(spec)
        tq = chain_transfer_pencil(spec)
        gens = [(1, 1), (2, 2), (1, 2), (2, 1)]
        space, weights = spec.space(), list(spec.weights)
        for t, g in ((tq, gram), (corrupted_matrix(tq, data.draw), gram), (tq, corrupted_matrix(gram, data.draw))):
            assert first_noncommuting(t, t) == coefforacle.noncommuting_pair(t)
            assert suites._symmetry_failure(space, weights, gens, t) == coefforacle.symmetry_failure(
                space, weights, gens, t)
            assert suites._self_adjoint_failure(t, g) == coefforacle.self_adjoint_failure(t, g)
        assert first_noncommuting(tq, tq) is None and suites._self_adjoint_failure(tq, gram) is None

    @settings(max_examples=25)
    @given(chains(), st.data())
    def test_contravariance(self, spec, data):
        # below the top degree: the x^k coefficients are T^(0), which the series route never checks
        gram = _gram(spec)
        pencil = tensor_monodromy(spec)
        cases = [(pencil, gram), (corrupted_below_top(pencil, data.draw), gram),
                 (pencil, corrupted_matrix(gram, data.draw))]
        for p, g in cases:
            with patch.object(shapoform, "tensor_monodromy", lambda s: p), patch.object(shapoform, "form_matrix",
                                                                                          lambda s: g):
                res = check_iota_contract(spec)
            assert tuple(res) == tuple(coefforacle.iota_contract(p, g, spec.k))
        assert check_iota_contract(spec).ok


@pytest.mark.parametrize("name", ["E1", "E4", "E5", "E6"])
@pytest.mark.parametrize("entry", [(0, 1), (1, 0), (1, 1)])
def test_corrupted_gram_contravariance_witness(name, entry):
    spec = suite_specs()[name]
    gram = form_matrix(spec).copy()
    gram.put(*entry, gram.get(*entry) + F(1, 3))
    want = coefforacle.iota_contract(tensor_monodromy(spec), gram, spec.k)
    with patch.object(shapoform, "form_matrix", lambda s: gram):
        res = check_iota_contract(spec)
    assert not want.ok and tuple(res) == tuple(want)


def test_broken_top_coefficient_fails_contravariance_at_r_zero():
    # E_01 added to the x^k coefficient of That_11: P_11 has degree k, so the first failing r is 0
    spec = suite_specs()["E2"]
    pencil = tensor_monodromy(spec)
    t11 = pencil.entry(1, 1).copy()
    t11.put(0, 1, t11.get(0, 1) + Poly([0] * spec.k + [1]))
    bad = pencil._replace(entries={**pencil.entries, (1, 1): t11})
    with patch.object(shapoform, "tensor_monodromy", lambda s: bad):
        assert check_iota_contract(spec) == (False, "", "first failing (i, j, r) (1, 1, 0)")


def test_self_adjoint_reads_the_least_failing_degree():
    # C_1 alone breaks self-adjointness against the identity form; C_0 and C_2 are symmetric
    tq = ExactMatrix(2, 2)
    tq.put(0, 0, Poly((1, 0, 5)))
    tq.put(0, 1, Poly((0, 2)))
    gram = ExactMatrix.identity(2)
    assert suites._self_adjoint_failure(tq, gram) == coefforacle.self_adjoint_failure(tq, gram) == 1
    assert coefficient_matrices(tq)[1].get(0, 1) == 2


def _coefficients(m):
    """The coefficients first_noncommuting reads: a list as given, a Poly-entry matrix split, a rational one alone."""
    if not isinstance(m, ExactMatrix):
        return list(m)
    return coefficient_matrices(m) if any(isinstance(v, Poly) for _, _, v in m.entries()) else [m]


def pair_loop(p, q):
    """The first (a, b), a before b, with P_a Q_b != Q_b P_a, one pair of ExactMatrix products at a time (oracle)."""
    ps, qs = _coefficients(p), _coefficients(q)
    return next(((a, b) for a, pa in enumerate(ps) for b, qb in enumerate(qs) if not coefforacle.commute(pa, qb)), None)


@st.composite
def commutator_cases(draw):
    """(p, q, planted): each operand a Poly-entry matrix, a rational matrix or a coefficient list on one dim 0..3.

    Coefficients are zero, scalar, diagonal (so most pairs commute), dense with entries up to +-M, or
    extreme, every entry +-M, so that a commutator entry can reach the slot bound 2 dim M^2; planted is
    the (a, b) at which an off-diagonal entry was added to P_a against a Q_b whose first two diagonal
    entries differ, when [P_a, Q_b] is then nonzero, or None.
    """
    dim = draw(st.integers(0, 3))
    big = draw(st.sampled_from([1, 7, 2**20, 2**64 + 3]))
    den = draw(st.sampled_from([1, 6]))
    values = st.one_of(st.sampled_from([big, -big]), st.fractions(-big, big, max_denominator=den))

    def coefficient():
        m = ExactMatrix(dim, dim)
        kind = draw(st.sampled_from(["zero", "scalar", "diagonal", "diagonal", "dense", "extreme"]))
        entry = {"zero": st.just(0), "scalar": st.just(draw(values)), "extreme": st.sampled_from([big, -big])}
        for i in range(dim):
            for j in range(dim) if kind in ("dense", "extreme") else (i,):
                m.put(i, j, draw(entry.get(kind, values)))
        return m

    forms = [draw(st.sampled_from(["poly", "rational", "list"])) for _ in range(2)]
    coeffs = [[coefficient() for _ in range(1 if form == "rational" else draw(st.integers(1, 4)))] for form in forms]
    planted = None
    if dim >= 2 and draw(st.booleans()):
        planted = a, b = draw(st.integers(0, len(coeffs[0]) - 1)), draw(st.integers(0, len(coeffs[1]) - 1))
        coeffs[0][a].add_to(0, 1, draw(values) or 1)
        if coeffs[1][b].get(0, 0) == coeffs[1][b].get(1, 1):
            coeffs[1][b].add_to(0, 0, 1)
        # the added entry can cancel one a dense P_a already had, or Q_b's off-diagonal part can cancel it
        if (coeffs[0][a] @ coeffs[1][b] - coeffs[1][b] @ coeffs[0][a]).is_zero():
            planted = None
    return (*(_as_form(form, cs, dim) for form, cs in zip(forms, coeffs)), planted)


def _as_form(form, cs, dim):
    if form != "poly":
        return cs[0] if form == "rational" else cs
    m = ExactMatrix(dim, dim)
    for i in range(dim):
        for j in range(dim):
            m.put(i, j, Poly([c.get(i, j) for c in cs]))
    return m


def _extreme_pair():
    """p = [0, P], q = Q with [P, Q] = 4 E_01, the bound 2 * dim * M^2 at M = 1, in the slot below a span boundary."""
    p, q = ExactMatrix(2, 2), ExactMatrix(2, 2)
    for (i, j), v in {(0, 0): 1, (0, 1): 1, (1, 1): -1}.items():
        p.put(i, j, F(v))
        q.put(i, j, F(-v if i == j else v))
    return [ExactMatrix(2, 2), p], q, None


class TestFirstNoncommuting:
    @settings(max_examples=300, deadline=None)
    @given(commutator_cases())
    @example(_extreme_pair())
    @example((_unit(0, 1), ExactMatrix.identity(2) * 7, None))
    @example((ExactMatrix(0, 0), ExactMatrix(0, 0), None))
    @example(([ExactMatrix(1, 1), ExactMatrix.identity(1)], ExactMatrix.identity(1) * 2, None))
    def test_matches_the_pair_loop(self, case):
        p, q, planted = case
        got = first_noncommuting(p, q)
        assert got == pair_loop(p, q)
        if planted is not None:
            assert got is not None and got <= planted

    def test_extreme_pair_fills_its_slot(self):
        p, q, _ = _extreme_pair()
        commutator = p[1] @ q - q @ p[1]
        assert list(commutator.entries()) == [(0, 1, 4)] and slot_width(2 * 2 * 1) == 4
        assert first_noncommuting(p, q) == (1, 0)

    def test_two_products_per_call(self, monkeypatch):
        calls = []
        matmul = ExactMatrix.__matmul__
        monkeypatch.setattr(ExactMatrix, "__matmul__", lambda a, b: calls.append(1) or matmul(a, b))
        tq = chain_transfer_pencil(suite_specs()["E5"])
        assert first_noncommuting(tq, tq) is None and len(calls) == 2


class TestCommutationChecksMatchTheOracle:
    @settings(max_examples=10, deadline=None)
    @given(chains(max_k=2), st.data())
    def test_higher_family_commutes(self, spec, data):
        real = fusion.higher_transfer
        m = data.draw(st.sampled_from([1, 2]))
        rc = real(spec, m)
        bad = rc._replace(matrix=fusion.FracMatrix(corrupted_matrix(rc.matrix.num, data.draw), rc.matrix.den))
        assert tuple(fusion.higher_family_commutes(spec)) == tuple(coefforacle.higher_family_commutes(spec))
        assert fusion.higher_family_commutes(spec).ok
        with patch.object(fusion, "higher_transfer", lambda s, k: bad if k == m else real(s, k)):
            assert tuple(fusion.higher_family_commutes(spec)) == tuple(coefforacle.higher_family_commutes(spec))

    @settings(max_examples=10, deadline=None)
    @given(chains(max_k=2), st.data())
    def test_berezinian_central(self, spec, data):
        for pencil in (tensor_monodromy(spec), corrupted(tensor_monodromy(spec), data.draw)):
            try:
                want = coefforacle.berezinian_central(pencil, spec.twist)
                with patch.object(fusion, "tensor_monodromy", lambda s: pencil):
                    got = fusion.berezinian.__wrapped__(spec).central
            except ZeroDivisionError:
                reject()  # a corrupted Manin matrix without every quotient form
            assert got == want
        assert fusion.berezinian(spec).central

    @settings(max_examples=25, deadline=None)
    @given(chains(), st.data())
    def test_zero_mode(self, spec, data):
        pencil = tensor_monodromy(spec)
        assert suites._zero_mode_failure(pencil) is None is coefforacle.zero_mode_failure(pencil)
        bad = corrupted(pencil, data.draw)
        assert suites._zero_mode_failure(bad) == coefforacle.zero_mode_failure(bad)

