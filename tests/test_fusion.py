import re
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gl11chain.exactnum import Poly, RatFun, scalar
from gl11chain.linalg import ExactMatrix, SpanBasis
from gl11chain.chain import make_spec
from gl11chain.monodromy import tensor_monodromy
from gl11chain.superlin import E_PARITY, EVEN, SuperSpace
from gl11chain import fusion
from gl11chain.bethe import Divisor, char_pair
from gl11chain.suites import run_suite, suite_specs
from gl11chain.fusion import (
    BerezinianValue,
    DiffOp,
    _generating_oper,
    FracMatrix,
    AUX_IMAGE,
    ber_twist_independence,
    berezinian,
    dy_coefficient,
    expansion_matches_routes,
    generating_oper,
    higher_family_commutes,
    higher_transfer,
    higher_transfer_expansion,
    higher_transfer_supertrace,
    oper_action_check,
    symmetrizer_check,
    symmetrizers,
    t_entry,
    transfer,
    transfer_relation_check,
    universal_oper_check,
)
from conftest import clear_builder_caches
from coefforacle import neumann_inverse_series
from densemat import column, field_inverse, from_dense, from_ratfun, ratfun_inverse, vec_dict
from legspace import STANDARD, LegSpace, e_matrix, kron_signed
from symgroup import group_average_symmetrizers

# graded flip P: v (x) w -> (-1)^{|v||w|} w (x) v on two standard legs, basis 11, 12, 21, 22
GRADED_FLIP = from_dense([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]])
E1 = make_spec([(1, 0)], ["0"], ("2", "1"))
E2 = make_spec([(1, 0), (1, 0)], ["0", "1/2"], ("1", "1"))
E4 = make_spec([(1, 0), (1, 0)], ["2", "-3/2"], ("1", "2"))
E6 = make_spec([(2, 1), (1, 0)], ["0", "4"], ("1", "1"))


def rat(p, q=Poly((1,))):
    return RatFun(p, q)


def ratfuns(fm: FracMatrix) -> ExactMatrix:
    """The RatFun-entry matrix num / den, each entry canonicalised."""
    return fm.num.map_entries(lambda p: RatFun(p, fm.den))


class TestSymmetrizers:
    def test_m2_spans(self):
        a2, h2 = symmetrizers(2)
        assert (a2 @ a2) == a2 and (h2 @ h2) == h2
        ident = ExactMatrix.identity(4)
        assert a2 == (ident - GRADED_FLIP) * F(1, 2)
        assert h2 == (ident + GRADED_FLIP) * F(1, 2)
        # image of the antisymmetrizer: doubly-odd and the odd combination
        span = SpanBasis()
        for j in range(4):
            span.add(vec_dict(column(a2, j)))
        assert span.dim == 2

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_ranks(self, m):
        a, h = symmetrizers(m)
        assert (a @ a) == a and (h @ h) == h
        assert a.rank() == 2 and h.rank() == 2

    def test_complementary_at_m2(self):
        a2, h2 = symmetrizers(2)
        assert (a2 + h2) == ExactMatrix.identity(4)
        assert (a2 @ h2).is_zero()

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_closed_form_is_the_group_average(self, m):
        assert symmetrizers(m) == group_average_symmetrizers(m)
        assert [p.nnz() for p in symmetrizers(m)] == [m * m + 1] * 2
        assert symmetrizer_check(m).ok

    @pytest.mark.parametrize("m, which, p, q", [(2, 0, 0, 1), (3, 0, 1, 1), (3, 1, 0, 2), (4, 1, 3, 2), (4, 0, 2, 0)])
    def test_one_flipped_pair_sign_fails_the_flip_check(self, monkeypatch, m, which, p, q):
        # negative control: the entry of the position pair (p, q) changes sign
        real = symmetrizers(m)
        base, _ = AUX_IMAGE[which == 0]
        marked = [SuperSpace.tensor_power(m).index([base ^ (leg == i) for leg in range(m)]) for i in range(m)]
        bad = real[which].copy()
        bad.put(marked[p], marked[q], -bad.get(marked[p], marked[q]))
        pair = (bad, real[1]) if which == 0 else (real[0], bad)
        monkeypatch.setattr(fusion, "symmetrizers", lambda k: pair if k == m else symmetrizers(k))
        check = symmetrizer_check(m)
        name = "AH"[which]
        assert not check.ok
        assert re.fullmatch(rf"{name}_{m} fails F_\d {name} = -?{name} = {name} F_\d", check.witness), check.witness

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("which", [0, 1], ids=["A", "H"])
    def test_wrong_kernel_fails_the_right_flip_condition(self, monkeypatch, m, which):
        # negative control: P + E[b..b, b'..b'] (b' the other state) keeps the
        # image, idempotency, rank and F_i P = s P; only P F_i = s P fails
        real = symmetrizers(m)
        base, _ = AUX_IMAGE[which == 0]
        space = SuperSpace.tensor_power(m)
        bad = real[which].copy()
        bad.put(space.index([base] * m), space.index([1 - base] * m), F(1))
        assert (bad @ bad) == bad and bad.rank() == 2
        pair = (bad, real[1]) if which == 0 else (real[0], bad)
        monkeypatch.setattr(fusion, "symmetrizers", lambda k: pair if k == m else symmetrizers(k))
        name = "AH"[which]
        assert symmetrizer_check(m).witness == f"{name}_{m} fails F_0 {name} = {'-' * (which == 0)}{name} = {name} F_0"

    @pytest.mark.parametrize("m", [1, 3])
    def test_zero_projector_fails_the_rank_condition(self, monkeypatch, m):
        # negative control: 0 passes every flip condition and is idempotent
        real = symmetrizers(m)
        zero = ExactMatrix(2**m, 2**m)
        monkeypatch.setattr(fusion, "symmetrizers", lambda k: (real[0], zero) if k == m else symmetrizers(k))
        assert symmetrizer_check(m).witness == f"H_{m}: idempotent True, rank 0 vs 2"

    def test_flipped_sign_fails_the_suite_item(self, monkeypatch):
        # A_3's entry at (w_0, w_1) = (122, 212) changes sign; only the symmetrizer item reads it
        real = symmetrizers(3)
        bad = real[0].copy()
        bad.put(3, 5, -bad.get(3, 5))
        monkeypatch.setattr(fusion, "symmetrizers", lambda k: (bad, real[1]) if k == 3 else symmetrizers(k))
        failures = [it for it in run_suite("fusion") if not it.ok]
        assert [(it.label, it.witness) for it in failures] == [("symmetrizer ranks m=3", "A_3 fails F_0 A = -A = A F_0")]


# denominators are products of shifted linear factors, as in the monodromy entries
_POINTS = (F(0), F(1, 2), F(-3, 2))
_dens = st.lists(st.tuples(st.sampled_from(_POINTS), st.integers(0, 2)), max_size=2).map(
    lambda fs: Poly.from_roots(b + s for b, s in fs)
)
_ratfuns = st.builds(RatFun, st.lists(st.integers(-3, 3), max_size=3).map(Poly), _dens)


@st.composite
def ratfun_matrices(draw, dim):
    m = ExactMatrix(dim, dim)
    for i in range(dim):
        for j in range(dim):
            if draw(st.booleans()):
                m.put(i, j, draw(_ratfuns))
    return m


class TestFracMatrix:
    """The numerator/denominator path against the RatFun-matrix path."""

    @given(st.data())
    @settings(max_examples=60)
    def test_matches_ratfun_matrices(self, data):
        dim = data.draw(st.integers(1, 3))
        a = data.draw(ratfun_matrices(dim))
        b = data.draw(ratfun_matrices(dim))
        c = data.draw(_ratfuns)
        s = data.draw(st.integers(-2, 2))
        fa, fb = from_ratfun(a), from_ratfun(b)
        assert ratfuns(fa) == a
        assert ratfuns(fa @ fb) == a @ b
        assert ratfuns(fa + fb) == a + b
        assert ratfuns(fa.scale(c)) == a * c
        assert ratfuns(fa.shift(s)) == a.map_entries(lambda r: r.shift(s))
        assert (fa == fb) == (a == b)
        inv = field_inverse(a)
        if inv is None:
            with pytest.raises(ZeroDivisionError):
                fa.inverse()
        else:
            assert ratfuns(fa.inverse()) == from_dense(inv)

    @given(st.data())
    @settings(max_examples=60)
    def test_equality_cross_multiplies(self, data):
        dim = data.draw(st.integers(1, 3))
        a = data.draw(ratfun_matrices(dim))
        fa = from_ratfun(a)
        extra = data.draw(_dens)
        # the same matrix over a larger denominator
        assert FracMatrix(fa.num * extra, fa.den * extra) == fa
        i, j = data.draw(st.integers(0, dim - 1)), data.draw(st.integers(0, dim - 1))
        perturbed = a.copy()
        perturbed.add_to(i, j, data.draw(_ratfuns.filter(bool)))
        fp = from_ratfun(perturbed)
        assert (perturbed == a) is False
        assert FracMatrix(fp.num * extra, fp.den * extra) != fa
        assert fp.first_difference(fa) == (i, j)


_factors = st.sampled_from([Poly((-b, 1)) for b in _POINTS])
# small polynomials times factors that a denominator may share
_entries = st.builds(lambda c, f: Poly(c) * f, st.lists(st.integers(-3, 3), max_size=3), _dens)


@st.composite
def frac_matrices(draw):
    """num / den over den from _dens, with empty, constant, dependent and non-primitive rows mixed in."""
    dim = draw(st.integers(1, 4))
    rows = []
    for i in range(dim):
        kind = draw(st.sampled_from(["fresh", "fresh", "empty", "constant", "content", "combination"]))
        if kind == "empty":
            row = [Poly()] * dim
        elif kind == "constant":
            # a constant pivot with a non-unit coefficient
            row = [Poly((draw(st.sampled_from([2, -3, F(1, 2)])),)) if j == i else Poly() for j in range(dim)]
        elif kind == "combination" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            ca, cb = draw(_entries), draw(_entries)
            row = [ca * x + cb * y for x, y in zip(a, b)]
        else:
            row = [draw(_entries) for _ in range(dim)]
            if kind == "content":
                f = draw(_factors) * draw(st.sampled_from([1, 2, F(-1, 3)]))
                row = [x * f for x in row]
        rows.append(row)
    num = ExactMatrix(dim, dim)
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            num.put(i, j, x)
    return FracMatrix(num, draw(_dens))


@st.composite
def scalar_frac_matrices(draw, dim):
    """An identity (num equal to den), another scalar or a zero matrix over a denominator from _dens."""
    den = draw(_dens)
    kind = draw(st.sampled_from(["identity", "scalar", "zero"]))
    if kind == "zero":
        return FracMatrix(ExactMatrix(dim, dim), den)
    return FracMatrix(ExactMatrix.identity(dim, den if kind == "identity" else draw(_entries.filter(bool))), den)


class TestScalarFactorProducts:
    @given(frac_matrices(), st.data())
    @settings(max_examples=80)
    def test_scaling_is_the_plain_product(self, other, data):
        # differential: a product with a scalar factor, on either side, has the numerator and the
        # denominator of the plain product num @ num over den * den
        scalar = data.draw(scalar_frac_matrices(other.num.nrows))
        for a, b in ((scalar, other), (other, scalar), (scalar, scalar)):
            got = a @ b
            assert (got.num, got.den) == (a.num @ b.num, a.den * b.den)


class TestFracMatrixInverse:
    """FracMatrix.inverse on Poly rows against RatFun field elimination, entry by entry."""

    @given(frac_matrices())
    @settings(max_examples=200, deadline=None)
    def test_inverse_matches_the_ratfun_oracle(self, fm):
        want = ratfun_inverse(fm)
        if want is None:
            with pytest.raises(ZeroDivisionError, match="matrix not invertible"):
                fm.inverse()
        else:
            got = fm.inverse()
            # identical numerator and denominator, not just equal quotients
            assert got.den == want.den
            assert got.num == want.num

    def test_pivot_shares_a_factor_with_the_denominator(self):
        x = Poly((0, 1))
        # (x (x + 1) / x)^-1 = 1 / (x + 1): the factor x cancels
        inv = FracMatrix(ExactMatrix(1, 1, {0: {0: x * (x + 1)}}), x).inverse()
        assert inv.den == x + 1 and inv.num == ExactMatrix(1, 1, {0: {0: Poly((1,))}})


def lift_leading(block: ExactMatrix, rest_dim: int) -> ExactMatrix:
    """block (x) identity on a trailing factor of dimension rest_dim."""
    out = ExactMatrix(block.nrows * rest_dim, block.ncols * rest_dim)
    for i, j, v in block.entries():
        for r in range(rest_dim):
            out.put(i * rest_dim + r, j * rest_dim + r, v)
    return out


def partial_supertrace(m: ExactMatrix, aux: SuperSpace, rest_dim: int) -> ExactMatrix:
    """Signed block sum sum_a (-1)^|a| M_aa over the leading aux factor.

    This is the partial supertrace when M is even.
    """
    out = ExactMatrix(rest_dim, rest_dim)
    for i, j, v in m.entries():
        a, r = divmod(i, rest_dim)
        b, c = divmod(j, rest_dim)
        if a == b:
            out.add_to(r, c, v if aux.parity(a) == EVEN else -v)
    return out


def block_sum_supertrace(pencil, twist, m: int, projector: ExactMatrix) -> FracMatrix:
    """Oracle for route A: the signed block sum over every entry P_{a,c} of any aux operator P,

        [sum_{a,c} (-1)^|a| P_{a,c} prod_{l<m} eps_l q_{c_l} That_{c_l a_l}(x - l)] / prod_{l<m} N(x - l),

    with eps_l = (-1)^((c_l + a_l)(a_l + sum_{q>l} c_q)), one chain of m - 1
    block products per entry.  This was route A before it read A_m and H_m
    from their image basis.
    """
    q = (scalar(twist[0]), scalar(twist[1]))
    aux = SuperSpace.tensor_power(m)
    that = {(c, a, l): t_entry(pencil, c + 1, a + 1, l).num for c in (0, 1) for a in (0, 1) for l in range(m)}
    num = ExactMatrix(pencil.dim, pencil.dim)
    for ai, ci, p in projector.entries():
        a, c = aux.multi_index(ai), aux.multi_index(ci)
        coef = -p if aux.parity(ai) else p
        term = None
        for l in range(m):
            if (c[l] + a[l]) * (a[l] + sum(c[l + 1 :])) % 2:
                coef = -coef
            coef = coef * q[c[l]]
            block = that[c[l], a[l], l]
            term = block if term is None else term @ block
        num = num + term * coef
    den = Poly((1,))
    for l in range(m):
        den = den * pencil.normalizer.shift(l)
    return FracMatrix(num, den)


def route_a_full_space(pencil, twist, m: int, projector: ExactMatrix) -> FracMatrix:
    """Oracle for route A: the product P Q T(x) Q T(x-1) ... built on the
    whole aux legs (x) module space with kron_signed, the module one leg
    with the module's basis parities, then the partial supertrace over the
    aux legs."""
    q = (F(twist[0]), F(twist[1]))
    dmod = pencil.space.dim
    full = LegSpace([STANDARD] * m + [pencil.space.parities])
    prod = FracMatrix(lift_leading(projector, dmod).map_entries(lambda v: Poly((v,))))
    qmat = ExactMatrix(2, 2)
    qmat.put(0, 0, q[0])
    qmat.put(1, 1, q[1])
    for leg in range(m):
        tleg = ExactMatrix(full.dim, full.dim)
        for a, b in ((1, 1), (1, 2), (2, 1), (2, 2)):
            par = E_PARITY[(a, b)]
            tleg = tleg + kron_signed(full, {leg: (e_matrix(a, b), par), m: (t_entry(pencil, a, b, leg).num, par)})
        qleg = kron_signed(full, {leg: (qmat, EVEN)})
        prod = prod @ FracMatrix(qleg @ tleg, pencil.normalizer.shift(leg))
    return FracMatrix(partial_supertrace(prod.num, SuperSpace.tensor_power(m), dmod), prod.den)


_CHAIN_WEIGHTS = ((1, 0), (2, 0), (1, 1), (2, 1))
_CHAIN_POINTS = (F(0), F(1, 2), F(-3, 2), F(2), F(-1))


@st.composite
def chains(draw, max_k=3):
    k = draw(st.integers(1, max_k))
    weights = draw(st.lists(st.sampled_from(_CHAIN_WEIGHTS), min_size=k, max_size=k))
    points = draw(st.lists(st.sampled_from(_CHAIN_POINTS), min_size=k, max_size=k))
    twist = (draw(st.sampled_from((F(1), F(2), F(-1, 2)))), draw(st.sampled_from((F(1), F(3)))))
    return make_spec(weights, points, twist)


def negated(pencil, entry=(2, 1)):
    """A corrupted copy of the pencil: one entry block changes sign."""
    return pencil._replace(entries={**pencil.entries, entry: -pencil.entries[entry]})


def integer_operators(m):
    """Any integer matrix on the m aux legs."""
    return st.lists(st.integers(-2, 2), min_size=4**m, max_size=4**m).map(
        lambda vals: ExactMatrix(2**m, 2**m, {
            i: {j: F(v) for j, v in enumerate(vals[i * 2**m:(i + 1) * 2**m]) if v} for i in range(2**m)
        })
    )


class TestHigherTransfer:
    def test_m1_is_transfer(self):
        pen = tensor_monodromy(E1)
        assert higher_transfer_supertrace(pen, E1.twist, 1, True) == transfer(E1)
        assert higher_transfer_supertrace(pen, E1.twist, 1, False) == transfer(E1)

    def test_hand_value_single_site(self):
        # second transfer matrix on the highest vector of one site at 0:
        # -q2 (q1 (x+1) - q2 x)/x with twist (2, 1)
        rc = higher_transfer(E1, 2)
        assert rc.check.ok
        assert ratfuns(rc.matrix).get(0, 0) == rat(Poly((-2, -1)), Poly((0, 1)))

    @pytest.mark.parametrize("spec", [E1, E2, E4, E6], ids=["E1", "E2", "E4", "E6"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_routes_agree(self, spec, m):
        assert higher_transfer(spec, m).check.ok

    def test_mutual_commutativity(self):
        assert higher_family_commutes(E2).ok

    @given(chains(), st.integers(1, 4), st.booleans(), st.booleans())
    @settings(max_examples=60)
    def test_image_recurrence_matches_both_oracles(self, spec, m, antisymmetric, negate):
        # route A against the block sum over P's entries and the full-space
        # product; all three are the same algebra, so they agree on any
        # pencil, a corrupted one included
        pen = negated(tensor_monodromy(spec)) if negate else tensor_monodromy(spec)
        projector = symmetrizers(m)[0 if antisymmetric else 1]
        got = higher_transfer_supertrace(pen, spec.twist, m, antisymmetric)
        assert got == block_sum_supertrace(pen, spec.twist, m, projector)
        assert got == route_a_full_space(pen, spec.twist, m, projector)

    @given(chains(), st.integers(1, 3).flatmap(lambda m: st.tuples(st.just(m), integer_operators(m))), st.booleans())
    @settings(max_examples=40)
    def test_module_blocks_match_full_space(self, spec, m_projector, negate):
        # A_m and H_m only pair aux indices that are permutations of each
        # other, so only an arbitrary P tells q_{c_l} from q_{a_l}: the sign
        # and twist rule that route A applies leg by leg, on the oracle pair
        m, projector = m_projector
        pen = negated(tensor_monodromy(spec)) if negate else tensor_monodromy(spec)
        assert block_sum_supertrace(pen, spec.twist, m, projector) == route_a_full_space(pen, spec.twist, m, projector)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    @pytest.mark.parametrize("antisymmetric", [True, False], ids=["A", "H"])
    def test_route_a_block_products(self, monkeypatch, m, antisymmetric):
        # one chain for the pure term and the four-state recurrence for the
        # m^2 position pairs: 9m - 13 products, against (m^2 + 1)(m - 1)
        pen = tensor_monodromy(E2)
        calls = []
        matmul = ExactMatrix.__matmul__
        monkeypatch.setattr(ExactMatrix, "__matmul__", lambda self, other: calls.append(1) or matmul(self, other))
        higher_transfer_supertrace(pen, E2.twist, m, antisymmetric)
        assert len(calls) <= 9 * m - 13

    @pytest.mark.parametrize("m, products", [(2, 2), (3, 6), (4, 10), (5, 14)])
    def test_route_b_block_products(self, monkeypatch, m, products):
        # one right-to-left list of T_22 suffixes and one running prefix:
        # 4m - 6 products, none by an identity, against m^2 + m - 1
        calls = []
        matmul = ExactMatrix.__matmul__
        monkeypatch.setattr(ExactMatrix, "__matmul__", lambda self, other: calls.append(1) or matmul(self, other))
        higher_transfer_expansion(E2, m)
        assert len(calls) == products == 4 * m - 6

    @pytest.mark.parametrize("antisymmetric", [True, False], ids=["A3", "H3"])
    def test_route_a_builds_no_full_space_matrix(self, monkeypatch, antisymmetric):
        # the k3 chain of the fusion benchmark; the full-space route built
        # matrices of dimension 2^m * 2^k = 64 here
        spec = make_spec([(1, 0), (2, 0), (2, 0)], ["4", "7/2", "3"])
        pen = tensor_monodromy(spec)
        largest = 0
        init = ExactMatrix.__init__

        def recording_init(self, nrows, ncols, rows=None):
            nonlocal largest
            largest = max(largest, nrows)
            init(self, nrows, ncols, rows)

        monkeypatch.setattr(ExactMatrix, "__init__", recording_init)
        higher_transfer_supertrace(pen, spec.twist, 3, antisymmetric)
        monkeypatch.undo()
        assert largest <= pen.dim

    def test_sign_flip_breaks_route_agreement(self):
        # negative control: route A on a corrupted copy of the pencil must disagree
        pen = tensor_monodromy(E2)
        want = higher_transfer_expansion(E2, 2)
        assert higher_transfer_supertrace(pen, E2.twist, 2, True) == want
        got = higher_transfer_supertrace(negated(pen), E2.twist, 2, True)
        assert got != want
        assert got.first_difference(want) is not None

    @pytest.mark.parametrize("entry", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_corrupted_block_fails_the_route_comparison(self, monkeypatch, entry):
        # negative control: one entry block of the pencil fusion reads gains 1
        # at (0, 0); the comparison names (m, i, j)
        real = fusion.tensor_monodromy

        def corrupted(spec):
            pen = real(spec)
            block = pen.entries[entry].copy()
            block.add_to(0, 0, Poly((1,)))
            return pen._replace(entries={**pen.entries, entry: block})

        clear_builder_caches()
        monkeypatch.setattr(fusion, "tensor_monodromy", corrupted)
        try:
            checks = [higher_transfer(E4, m).check for m in (2, 3)]
        finally:
            monkeypatch.undo()
            clear_builder_caches()
        assert not any(c.ok for c in checks)
        for m, c in zip((2, 3), checks):
            assert re.fullmatch(rf"\({m}, \d+, \d+\)", c.witness), c.witness


class TestBerezinian:
    def test_single_site_value(self):
        ber = berezinian(E1)
        assert bool(ber)
        assert ber.value == rat(Poly((2, 2)), Poly((0, 1)))  # 2 (x+1)/x

    def test_shifted_site(self):
        spec = make_spec([(1, 0)], ["5"], ("3", "1"))
        ber = berezinian(spec)
        assert ber.value == rat(Poly((-12, 3)), Poly((-5, 1)))  # 3 (x-4)/(x-5)

    @pytest.mark.parametrize("spec", [E2, E4, E6], ids=["E2", "E4", "E6"])
    def test_scalar_tau_free_central(self, spec):
        ber = berezinian(spec)
        assert ber.forms_agree and ber.tau_free and ber.central
        cp = char_pair(spec)
        q1, q2 = spec.twist
        assert ber.value == RatFun(cp.phi * q1, cp.psi * q2)

    @pytest.mark.parametrize(
        "spec",
        [E1, E2, E4, make_spec([(1, 0), (1, 0)], ["0", "1/2"], ("1", "-1"))],
        ids=["E1", "E2", "E4", "twist-sum-zero"],
    )
    def test_twist_independence(self, spec):
        # with q1 + q2 = 0 the re-twist (q1 + q2, q2) would have a zero entry
        assert ber_twist_independence(spec)

    def test_failed_names_the_conditions(self):
        assert BerezinianValue(rat(Poly()), True, False, False).failed() == "tau_free, central"


class TestDiffOp:
    def test_shift_rule(self):
        dim = 1
        x = rat(Poly((0, 1)))
        f = DiffOp(dim, {0: from_ratfun(from_dense([[x]]))})
        tau = DiffOp.scalar_term(dim, 1, rat(Poly((1,))))
        left = tau.mul(f)
        # tau f(x) = f(x-1) tau
        assert ratfuns(left.frac_coeff(1)).get(0, 0) == rat(Poly((-1, 1)))

    def test_single_inverse(self):
        dim = 2
        m = from_dense([[rat(Poly((1, 1))), rat(Poly())], [rat(Poly()), rat(Poly((2,)))]])
        d = DiffOp(dim, {1: from_ratfun(m)})
        inv = d.inverse_single()
        assert d.mul(inv) == DiffOp.one(dim)
        assert inv.mul(d) == DiffOp.one(dim)

    def test_series_inverse(self):
        dim = 1
        d = DiffOp.one(dim) - DiffOp.scalar_term(dim, 1, rat(Poly((0, 1))))
        inv = d.inverse_series(3)
        assert d.mul(inv, hi=3) == DiffOp.one(dim)
        # geometric coefficients x(x-1)...(x-m+1)
        assert ratfuns(inv.frac_coeff(2)).get(0, 0) == rat(Poly((0, 1)) * Poly((-1, 1)))


def _square(draw, dim: int) -> FracMatrix:
    """A dim x dim num / den with entries from _entries, some of them empty."""
    num = ExactMatrix(dim, dim)
    for i in range(dim):
        for j in range(dim):
            if draw(st.booleans()):
                num.put(i, j, draw(_entries))
    return FracMatrix(num, draw(_dens))


@st.composite
def series_operators(draw):
    """c_0 + (a tail of one to three positive tau powers), c_0 the identity (over 1 or over a
    denominator), a nonzero scalar or a general invertible matrix; and an order hi in 0..6."""
    dim = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["identity", "identity over a denominator", "scalar", "general"]))
    if kind == "identity":
        c0 = FracMatrix.identity(dim)
    elif kind == "identity over a denominator":
        den = draw(_dens)
        c0 = FracMatrix(ExactMatrix.identity(dim, den), den)
    elif kind == "scalar":
        c0 = FracMatrix.identity(dim).scale(draw(_ratfuns.filter(bool)))
    else:
        c0 = _square(draw, dim)
        try:
            c0.inverse()
        except ZeroDivisionError:
            assume(False)
    powers = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True))
    return DiffOp(dim, {0: c0, **{p: _square(draw, dim) for p in powers}}), draw(st.integers(0, 6))


class TestInverseSeries:
    """The coefficient recurrence of DiffOp.inverse_series against the truncated geometric series it replaced."""

    @given(series_operators())
    @settings(max_examples=80)
    def test_matches_the_neumann_series(self, case):
        d, hi = case
        inv = d.inverse_series(hi)
        assert inv == neumann_inverse_series(d, hi)
        assert d.mul(inv, hi=hi) == DiffOp.one(d.dim) == inv.mul(d, hi=hi)

    @pytest.mark.parametrize("name", ["E1", "E2", "E4", "E6"])
    def test_suite_chains_match_the_neumann_series(self, monkeypatch, name):
        # each fusion-suite chain's generating operator at its suite order, max(n + 2, 3)
        spec = suite_specs()[name]
        order = max(int(spec.n) + 2, 3)
        oper = _generating_oper.__wrapped__(spec, order)
        assert oper.inverse_series(order) == neumann_inverse_series(oper, order)
        # the operator's construction inverts two series itself
        monkeypatch.setattr(DiffOp, "inverse_series", neumann_inverse_series)
        assert _generating_oper.__wrapped__(spec, order) == oper

    def test_identity_constant_term_is_neither_inverted_nor_multiplied(self, monkeypatch):
        # c_1 = -[[0, x], [1, 0]]: no u_r is scalar past u_0, as c_1(x) c_1(x - 1) = diag(x, x - 1)
        x = Poly((0, 1))
        d = DiffOp.one(2) - DiffOp(2, {1: FracMatrix(ExactMatrix(2, 2, {0: {1: x}, 1: {0: Poly((1,))}}))})
        calls = []
        real_inverse, real_matmul = FracMatrix.inverse, ExactMatrix.__matmul__
        monkeypatch.setattr(FracMatrix, "inverse", lambda self: calls.append("inverse") or real_inverse(self))
        monkeypatch.setattr(ExactMatrix, "__matmul__", lambda self, o: calls.append("@") or real_matmul(self, o))
        inv = d.inverse_series(3)
        # one matrix product c_1 u_(r-1)(x - 1) per order r >= 2; c_1 u_0 and every product by
        # c_0^-1 = 1 are scalings, and c_0 is not inverted
        assert calls == ["@"] * 2
        monkeypatch.undo()
        assert inv == neumann_inverse_series(d, 3)


class TestGeneratingOper:
    @pytest.mark.parametrize("spec", [E1, E2], ids=["E1", "E2"])
    def test_expansion_matches(self, spec):
        for c in expansion_matches_routes(spec, 3):
            assert c.ok, c.label

    def test_tau0_is_identity(self):
        oper = generating_oper(E2, 2)
        dim = 4
        ident = ExactMatrix.identity(dim, rat(Poly((1,))))
        assert ratfuns(oper.frac_coeff(0)) == ident

    @settings(max_examples=15)
    @given(chains(), st.integers(1, 4))
    def test_coefficients_do_not_depend_on_order(self, spec, top):
        # truncation drops only powers above the order, and every power is
        # nonnegative; each order is built here, not read from a higher one
        oper = _generating_oper(spec, top)
        inv = oper.inverse_series(top)
        for order in range(top):
            lower = _generating_oper(spec, order)
            lower_inv = lower.inverse_series(order)
            for j in range(order + 1):
                assert lower.frac_coeff(j) == oper.frac_coeff(j)
                assert lower_inv.frac_coeff(j) == inv.frac_coeff(j)


class TestTransferRelations:
    def test_m1_trivial(self):
        (checks,) = transfer_relation_check(E1, 1)
        for c in checks:
            assert c.ok, c.label

    def test_top_zero_builds_nothing(self):
        _generating_oper.cache_clear()
        assert transfer_relation_check(E2, 0) == []
        assert _generating_oper.cache_info().misses == 0

    @pytest.mark.parametrize("spec", [E1, E2, E4, E6], ids=["E1", "E2", "E4", "E6"])
    def test_one_pass_table(self, spec):
        # labels and verdicts of the per-m checks, m = 1..3, all passing
        got = [[(c.label, c.ok) for c in checks] for checks in transfer_relation_check(spec, 3)]
        assert got == [
            [
                (f"antisymmetric transfer relation m={m}", True),
                (f"symmetric transfer relation m={m}", True),
                (f"inverse series coefficient m={m}", True),
            ]
            for m in (1, 2, 3)
        ]
        # a lower top gives the same leading lists
        for top in (1, 2):
            assert [[(c.label, c.ok) for c in checks] for checks in transfer_relation_check(spec, top)] == got[:top]

    def test_m2_single_site_hand_case(self):
        # lhs = product of shifted first transfer matrices on the highest
        # vector: (q1(x-a+1)-q2(x-a))(q1(x-a)-q2(x-a-1))/((x-a)(x-a-1))
        checks = transfer_relation_check(E1, 2)
        assert all(c.ok for per_m in checks for c in per_m)
        rc = higher_transfer(E1, 2)
        ber = berezinian(E1)
        lhs = ratfuns(rc.matrix) * (1 - ber.value.shift(1))
        want = rat(Poly((2, 1)) * Poly((1, 1)), Poly((0, 1)) * Poly((-1, 1)))
        assert lhs.get(0, 0) == want

    @pytest.mark.parametrize("spec", [E2, E4, E6], ids=["E2", "E4", "E6"])
    @pytest.mark.parametrize("m", [2, 3])
    def test_both_identities(self, spec, m):
        for c in transfer_relation_check(spec, m)[m - 1]:
            assert c.ok, c.label

    def test_gcd_budget_on_cold_chain(self, monkeypatch):
        # each entry is canonicalised once, at the end; RatFun-matrix
        # products, which canonicalise every entry of every product, made
        # 10133 gcd calls here
        clear_builder_caches()
        calls = 0
        gcd = Poly.gcd

        def counting_gcd(a, b):
            nonlocal calls
            calls += 1
            return gcd(a, b)

        monkeypatch.setattr(Poly, "gcd", staticmethod(counting_gcd))
        spec = make_spec([(1, 0), (1, 0)], ["0", "1/2"], ("1", "1"))
        checks = [c for per_m in transfer_relation_check(spec, 3) for c in per_m]
        assert len(checks) == 9 and all(checks)
        assert calls <= 2000


class TestOperAction:
    def test_m1_reduces_to_on_shell(self):
        from gl11chain.bethe import verify_on_shell

        cp = char_pair(E1)
        (dv,) = cp.divisors[1]
        assert verify_on_shell(E1, dv).ok
        checks = oper_action_check(E1, dv, 2)
        assert checks[0].ok  # tau^1 coefficient is the same statement

    def test_e1_orders(self):
        cp = char_pair(E1)
        (dv,) = cp.divisors[1]
        for c in oper_action_check(E1, dv, 3):
            assert c.ok, c.label

    def test_e2_orders(self):
        cp = char_pair(E2)
        (dv,) = cp.divisors[1]
        for c in oper_action_check(E2, dv, 3):
            assert c.ok, c.label

    def test_scaled_divisor_operator_names_the_first_nonzero_component(self, monkeypatch):
        # Bhat(-1) on E4 has entries at components 1 and 2 only; a doubled scalar fails first at 1
        real = dy_coefficient
        monkeypatch.setattr(fusion, "dy_coefficient", lambda spec, y, m: real(spec, y, m) * 2)
        dv = Divisor.from_roots([(F(-1), 1)])
        assert [c.witness for c in oper_action_check(E4, dv, 2)] == ["1", "1"]

    def test_corrupted_matrix_names_a_component_outside_the_support(self, monkeypatch):
        # a den entry at (0, 1) of T_m puts lhs at component 0, where Bhat(-1) on E4 is 0
        real = higher_transfer

        def corrupted(spec, m):
            rc = real(spec, m)
            num = rc.matrix.num.copy()
            num.add_to(0, 1, rc.matrix.den)
            return rc._replace(matrix=FracMatrix(num, rc.matrix.den))

        monkeypatch.setattr(fusion, "higher_transfer", corrupted)
        dv = Divisor.from_roots([(F(-1), 1)])
        assert [c.witness for c in oper_action_check(E4, dv, 2)] == ["0", "0"]

    def test_repeated_roots_rejected(self):
        e3 = make_spec([(1, 0), (1, 0), (1, 0)], ["0", "1/2", "-1/2"], ("1", "1"))
        cp = char_pair(e3)
        (dv,) = cp.divisors[2]
        with pytest.raises(ValueError, match="simple-root"):
            oper_action_check(e3, dv, 2)

    def test_scalar_coefficients_from_divisor(self):
        # independent value: tau^1 coefficient must be -(q1 z1 - q2 z2) y(x-1)/y
        cp = char_pair(E4)
        dv = cp.divisors[1][0]
        got = dy_coefficient(E4, dv, 1)
        q1, q2 = E4.twist
        want = -(cp.zeta1 * q1 - cp.zeta2 * q2) * RatFun(dv.poly.shift(1), dv.poly)
        assert got == want


class TestUniversalOper:
    @pytest.mark.parametrize("spec", [E1, E2, E4], ids=["E1", "E2", "E4"])
    def test_both_forms(self, spec):
        order = int(spec.n) + 2
        for c in universal_oper_check(spec, order):
            assert c.ok, c.label

    def test_oper_reproduces_divisor_operator(self):
        # the generating operator applied to each on-shell vector matches the
        # scalar divisor operator coefficient by coefficient
        spec = E4
        oper = generating_oper(spec, 3)
        cp = char_pair(spec)
        from gl11chain.bethe import bethe_vector

        for level in range(cp.gamma.degree + 1):
            for dv in cp.divisors[level]:
                if any(m > 1 for _, m in dv.roots):
                    continue
                vec = {j: RatFun(Poly((v,))) for j, v in bethe_vector(spec, dv.root_list()).items()}
                for m in range(4):
                    got = ratfuns(oper.frac_coeff(m)).apply(vec)
                    want = {j: w for j, v in vec.items() if (w := dy_coefficient(spec, dv, m) * v)}
                    assert got == want
