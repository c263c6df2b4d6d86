from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl11chain.exactnum import Poly, RatFun
from gl11chain.linalg import ExactMatrix
from gl11chain.chain import ModuleSpec, Weight, cyclicity_and_irreducibility, make_spec, phi_psi
from gl11chain.monodromy import (
    Check,
    MonodromyPencil,
    coefficient_matrices,
    evaluation_monodromy,
    lax_monodromy,
    tensor_monodromy,
    transfer_pencil,
    verify_rtt,
    zero_mode,
    _combine,
)
from gl11chain.suites import suite_specs
from gl11chain.superlin import E_PARITY, SuperSpace
from bethealgoracle import reduce_lambda2, string_points
from coefforacle import chains, corrupted, laurent_coefficients, laurent_expand, t_coefficient
from densemat import to_dense

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

    def test_value_semantics(self):
        # one chain from int, "p/q" string and Fraction inputs: one value, one cache entry
        specs = [
            make_spec([(2, 1), (1, 0)], [3, F(-1, 2)], (2, 7)),
            make_spec([("4/2", "1"), ("1", "0")], ["6/2", "-1/2"], ("2", "14/2")),
            ModuleSpec((Weight(F(2), F(1)), Weight(F(1), F(0))), (F(3), F(-1, 2)), (F(2), F(7))),
        ]
        assert specs[0] == specs[1] == specs[2]
        assert len({hash(s) for s in specs}) == 1
        tensor_monodromy.cache_clear()
        pencils = [tensor_monodromy(s) for s in specs]
        info = tensor_monodromy.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
        assert pencils[0] is pencils[1] is pencils[2]
        # the dataclass text: perfbench's tracer counts distinct chains by repr
        assert repr(specs[0]) == (
            "ModuleSpec(weights=(Weight(l1=Fraction(2, 1), l2=Fraction(1, 1)), "
            "Weight(l1=Fraction(1, 1), l2=Fraction(0, 1))), points=(Fraction(3, 1), Fraction(-1, 2)), "
            "twist=(Fraction(2, 1), Fraction(7, 1)))"
        )
        spec, wt = specs[0], specs[0].weights[0]
        assert spec != (spec.weights, spec.points, spec.twist) and wt != (wt.l1, wt.l2)
        assert spec != make_spec([(2, 1), (1, 0)], [3, F(-1, 2)], (7, 2)) and wt != Weight(2, 0)
        with pytest.raises(AttributeError):
            spec.points = ()
        with pytest.raises(AttributeError):
            wt.l1 = F(5)

    def test_hash_cached_on_first_use(self):
        # a spec that is never hashed never computes its hash
        spec = make_spec([(2, 1), (1, 0)], [3, F(-1, 2)], (2, 7))
        assert not hasattr(spec, "_hash")
        assert hash(spec) == hash((spec.weights, spec.points, spec.twist)) == spec._hash
        assert hash(spec) == spec._hash
        with pytest.raises(AttributeError):
            spec._hash = 0


class TestEvaluation:
    def test_one_site_values(self):
        pen = evaluation_monodromy(Weight(F(1), F(0)), F(0))
        # That_11 v1 = (x+1) v1, That_22 v1 = x v1
        assert pen.entry(1, 1).get(0, 0) == Poly((1, 1))
        assert pen.entry(2, 2).get(0, 0) == Poly((0, 1))
        # twisted combination on the lowered vector: q1 x - q2 (x-1)
        t = pen.entry(1, 1).get(1, 1) * 2 - pen.entry(2, 2).get(1, 1)
        assert t == Poly((1, 1))

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            evaluation_monodromy(Weight(F(2), F(-2)), F(0))
        # weight (0, 0) is polynomial but degenerate: no chain has such a site
        with pytest.raises(ValueError, match="degenerate"):
            evaluation_monodromy(Weight(F(0), F(0)), F(3))

    def test_rtt(self):
        assert verify_rtt(evaluation_monodromy(Weight(F(2), F(1)), F(-3))).ok


class TestTensor:
    def test_vacuum_diagonal(self):
        pen = tensor_monodromy(E2)
        phi, psi = phi_psi(E2)
        v = vac(pen)
        c11, c22 = coefficient_matrices(pen.entry(1, 1)), coefficient_matrices(pen.entry(2, 2))
        for d in range(3):
            got11 = c11[d].apply(v)
            got22 = c22[d].apply(v)
            assert got11[0] == phi.coeff(d) and all(x == 0 for x in got11[1:])
            assert got22[0] == psi.coeff(d) and all(x == 0 for x in got22[1:])

    def test_degree_and_leading(self):
        spec = make_spec([(2, 1), (1, 0)], ["0", "3"], ("1", "1"))
        pen = tensor_monodromy(spec)
        for i, j in product((1, 2), repeat=2):
            ent = coefficient_matrices(pen.entry(i, j))
            assert len(ent) - 1 <= spec.k
            if i == j:
                assert to_dense(ent[spec.k]) == [[1 if a == b else 0 for b in range(4)] for a in range(4)]
            else:
                assert len(ent) - 1 < spec.k

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
            assert len(coefficient_matrices(lx.entry(i, j))) - 1 <= 3
        assert coefficient_matrices(lx.entry(1, 1))[3] == coefficient_matrices(lx.entry(2, 2))[3]

    def test_four_sites_all_entries(self):
        pts = ["1/3", "-5/2", "2/7", "4"]
        lx = lax_monodromy(pts)
        tn = tensor_monodromy(make_spec([(1, 0)] * 4, pts, ("1", "1")))
        for i, j in product((1, 2), repeat=2):
            assert lx.entry(i, j) == tn.entry(i, j)

    def test_rtt_n4(self):
        assert verify_rtt(lax_monodromy(["0", "1/2", "-1", "3"])).ok


_fracs = st.builds(F, st.integers(-9, 9), st.integers(1, 5))


@st.composite
def poly_matrices(draw):
    """Square matrices of size 1-4 with Poly entries of degree at most 4."""
    n = draw(st.integers(1, 4))
    m = ExactMatrix(n, n)
    for i, j in product(range(n), repeat=2):
        m.put(i, j, Poly(draw(st.lists(_fracs, max_size=5))))
    return m


class TestCoefficientMatrices:
    @settings(max_examples=40, deadline=None)
    @given(poly_matrices(), _fracs)
    def test_rebuild_and_evaluate(self, m, t):
        cms = coefficient_matrices(m)
        assert not cms or not cms[-1].is_zero()
        rebuilt = ExactMatrix(m.nrows, m.ncols)
        value = ExactMatrix(m.nrows, m.ncols)
        for d, c in enumerate(cms):
            rebuilt = rebuilt + c.map_entries(lambda v: Poly([0] * d + [v]))
            value = value + c * t**d
        assert rebuilt == m
        assert value == m.map_entries(lambda p: p(t))


def verify_rtt_oracle(pencil):
    """The exchange-relation check on Fraction coefficient matrices, one ExactMatrix per side."""
    coeffs = {e: coefficient_matrices(m) for e, m in pencil.entries.items()}
    deg = max(len(cs) for cs in coeffs.values()) - 1
    zero = ExactMatrix(pencil.dim, pencil.dim)
    cache = {}

    def coeff(e, d):
        return coeffs[e][d] if d < len(coeffs[e]) else zero

    def prod(e1, d1, e2, d2):
        key = (e1, d1, e2, d2)
        if key not in cache:
            cache[key] = coeff(e1, d1) @ coeff(e2, d2)
        return cache[key]

    for i, j, r, s in product((1, 2), repeat=4):
        sigma = -1 if E_PARITY[(i, j)] and E_PARITY[(r, s)] else 1
        sgn = -1 if ((i == 2) * (r == 2) + (s == 2) * (i == 2) + (s == 2) * (r == 2)) % 2 else 1

        def sc(d, e):
            if d < 0 or e < 0:
                return zero
            return prod((i, j), d, (r, s), e) - sigma * prod((r, s), e, (i, j), d)

        for dd in range(deg + 2):
            for ee in range(deg + 2):
                lhs = sc(dd - 1, ee) - sc(dd, ee - 1)
                rhs = (prod((r, j), ee, (i, s), dd) - prod((r, j), dd, (i, s), ee)) * sgn
                if lhs != rhs:
                    return Check(False, witness=str((i, j, r, s, dd, ee)))
    return Check(True)


class TestRttDifferential:
    @settings(max_examples=25)
    @given(chains(), st.data())
    def test_matches_oracle(self, spec, data):
        pencil = tensor_monodromy(spec)
        for candidate in (pencil, corrupted(pencil, data.draw)):
            res, want = verify_rtt(candidate), verify_rtt_oracle(candidate)
            assert (res.ok, res.witness) == (want.ok, want.witness)
        assert verify_rtt(pencil).ok

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_lax_corruptions_match_oracle(self, n):
        pencil = lax_monodromy(["0", "1/2", "-1"][:n])
        for e in sorted(pencil.entries):
            bad = pencil._replace(entries={**pencil.entries, e: pencil.entries[e] * F(3, 2)})
            res, want = verify_rtt(bad), verify_rtt_oracle(bad)
            assert (res.ok, res.witness) == (want.ok, want.witness)

    def test_top_x1_degree_does_not_reach_the_next_x2_power(self):
        # That_11 = x E_01, That_22 = x E_10, the rest 0: the (1, 1, 2, 2) difference is
        # (x1 - x2) x1 x2 [E_01, E_10], nonzero only at x1-degree deg + 1 = 2 and at (1, 2)
        t11, t22 = ExactMatrix(2, 2), ExactMatrix(2, 2)
        t11.put(0, 1, Poly((0, 1)))
        t22.put(1, 0, Poly((0, 1)))
        zero = ExactMatrix(2, 2)
        pencil = MonodromyPencil(SuperSpace.tensor_power(1), {(1, 1): t11, (1, 2): zero, (2, 1): zero, (2, 2): t22},
                                 Poly((0, 1)))
        assert verify_rtt(pencil) == verify_rtt_oracle(pencil) == (False, "", "(1, 1, 2, 2, 1, 2)")


def _laurent_oracle(m, num, den, order):
    """Per-entry expansion: one RatFun and one laurent_expand per matrix element."""
    out = [ExactMatrix(m.nrows, m.ncols) for _ in range(order + 1)]
    for a, b, p in m.entries():
        for r, c in enumerate(laurent_expand(RatFun(num * p, den), order)):
            out[r].put(a, b, c)
    return out


class TestLaurentCoefficients:
    @settings(max_examples=60)
    @given(poly_matrices(), st.lists(_fracs, min_size=1, max_size=3), st.lists(_fracs, min_size=1, max_size=6),
           st.integers(0, 3))
    def test_matches_per_entry_expansion(self, m, num, den, order):
        num, den = Poly(num), Poly(den)
        if not num or not den:
            return
        try:
            want = _laurent_oracle(m, num, den, order)
        except ValueError as exc:
            assert str(exc) == "not expandable at infinity"
            with pytest.raises(ValueError, match="not expandable at infinity"):
                laurent_coefficients(m, num, den, order)
            return
        assert laurent_coefficients(m, num, den, order) == want

    @settings(max_examples=15)
    @given(chains())
    def test_t_coefficient_matches_per_entry_expansion(self, spec):
        pencil = tensor_monodromy(spec)
        for i, j in product((1, 2), repeat=2):
            want = _laurent_oracle(pencil.entry(i, j), Poly((1,)), pencil.normalizer, spec.k + 2)
            assert [t_coefficient(pencil, i, j, r) for r in range(spec.k + 3)] == want

    def test_improper_entry_raises(self):
        pencil = tensor_monodromy(E2)
        raised = pencil._replace(entries={**pencil.entries, (1, 2): pencil.entry(1, 2) * Poly((0, 0, 1))})
        with pytest.raises(ValueError, match="not expandable at infinity"):
            _laurent_oracle(raised.entry(1, 2), Poly((1,)), raised.normalizer, 1)
        with pytest.raises(ValueError, match="not expandable at infinity"):
            t_coefficient(raised, 1, 2, 1)
        with pytest.raises(ValueError, match="not expandable at infinity"):
            zero_mode(raised, 1, 2)


# the suite chains, a five-site chain with a double root of gamma, and the Lax pencils n = 1..5
ZERO_MODE_PENCILS = [*suite_specs(), "k5", *(f"lax n={n}" for n in range(1, 6))]


def _zero_mode_pencil(name):
    if name.startswith("lax"):
        return lax_monodromy(["0", "1/2", "-1", "3", "-5/2"][:int(name[-1])])
    spec = {**suite_specs(), "k5": make_spec([(1, 1), (1, 0), (1, 0), (1, 1), (1, 0)], ["1", "0", "-2", "0", "-3"])}
    return tensor_monodromy(spec[name])


class TestZeroMode:
    @pytest.mark.parametrize("name", ZERO_MODE_PENCILS)
    def test_matches_the_laurent_oracle(self, name):
        pencil = _zero_mode_pencil(name)
        for i, j in product((1, 2), repeat=2):
            assert zero_mode(pencil, i, j) == t_coefficient(pencil, i, j, 1)

    @settings(max_examples=25)
    @given(chains(), st.data())
    def test_matches_the_laurent_oracle_on_corrupted_pencils(self, spec, data):
        # C_k enters with the sum of the points, so a broken top coefficient is read as the series reads it
        bad = corrupted(tensor_monodromy(spec), data.draw)
        for i, j in product((1, 2), repeat=2):
            assert zero_mode(bad, i, j) == t_coefficient(bad, i, j, 1)


class TestRttOracle:
    def test_negative_control(self):
        pen = tensor_monodromy(E2)
        bad = pen._replace(entries={**pen.entries, (2, 1): -pen.entries[(2, 1)]})
        res = verify_rtt(bad)
        assert not res.ok and res.witness

    @settings(max_examples=5)
    @given(st.tuples(rationals := st.builds(F, st.integers(-6, 6), st.integers(1, 3)), rationals))
    def test_pointwise_oracle(self, pts):
        # independent check of the exchange identity at random numeric points
        x1, x2 = pts
        pen = tensor_monodromy(E2)
        mats1 = {(i, j): pen.entry(i, j).map_entries(lambda p: p(x1)) for i in (1, 2) for j in (1, 2)}
        mats2 = {(i, j): pen.entry(i, j).map_entries(lambda p: p(x2)) for i in (1, 2) for j in (1, 2)}
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
        assert tq.get(0, 0) == Poly((2, 1))  # x + 2 on the highest vector
        assert tq.get(1, 1) == Poly((1, 1))  # x + 1 on the lowered vector

    def test_vacuum_gamma(self):
        tq = coefficient_matrices(transfer_pencil(tensor_monodromy(E2), E2.twist))
        v = vac(tensor_monodromy(E2))
        assert [tq[d].apply(v)[0] for d in range(2)] == [F(1, 2), F(2)]

    def test_bivariate_commutativity(self):
        spec = make_spec([(2, 1), (1, 0)], ["0", "3"], ("3", "1"))
        tq = coefficient_matrices(transfer_pencil(tensor_monodromy(spec), spec.twist))
        for a in range(len(tq)):
            for b in range(len(tq)):
                assert tq[a] @ tq[b] == tq[b] @ tq[a]

    def test_leading_coefficient(self):
        spec = make_spec([(1, 0), (1, 0)], ["2", "-3/2"], ("1", "2"))
        tq = coefficient_matrices(transfer_pencil(tensor_monodromy(spec), spec.twist))
        assert len(tq) - 1 == 2
        ident = [[F(-1) if a == b else F(0) for b in range(4)] for a in range(4)]
        assert to_dense(tq[2]) == ident


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

    @given(
        st.lists(
            st.tuples(st.integers(1, 3), st.integers(0, 2), st.builds(F, st.integers(-4, 4), st.sampled_from([1, 2]))),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=150)
    def test_irreducible_matches_gcd(self, sites):
        # small half-integer points make coinciding points and root collisions common
        spec = make_spec([(l1, l2) for l1, l2, _ in sites], [b for _, _, b in sites], ("1", "1"))
        _, irreducible = cyclicity_and_irreducibility(spec)
        assert irreducible == (Poly.gcd(*phi_psi(spec)).degree == 0)


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
    assert to_dense(t0_11) == [[1 if a == b else 0 for b in range(4)] for a in range(4)]
