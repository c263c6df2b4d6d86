import os
import subprocess
import sys
from fractions import Fraction as F
from itertools import combinations
from math import comb, factorial, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl11chain import superlin, weylspace
from gl11chain.exactnum import elementary_symmetric
from gl11chain.linalg import ExactMatrix, SpanBasis
from gl11chain.chain import make_spec
from gl11chain.monodromy import coefficient_matrices, tensor_monodromy
from gl11chain.superlin import SuperSpace
from gl11chain.weylspace import (
    MPoly,
    character_series,
    check_sn_relations,
    current_action,
    current_model_checks,
    cyclicity_by_degree,
    gamma_coefficient_ops,
    gamma_commutes_with_modified,
    invariant_dimensions,
    modified_action,
    specialization_check,
)
from actionoracle import Coords, composed_modified_action, matrix_into, matrix_of, monomials_upto
from densemat import FieldSpanBasis, column
from symgroup import permutation_closure
from tuplepoly import TupleMPoly


def count_pairs_of_partitions(l, m, d):
    """Partitions into at most l parts times partitions into parts <= m."""
    def count(parts_max, total):
        if total == 0:
            return 1
        if parts_max == 0:
            return 0
        return sum(count(parts_max - 1, total - parts_max * j) for j in range(total // parts_max + 1))

    return sum(count(l, a) * count(m, d - a) for a in range(d + 1))


def _trace(m: ExactMatrix) -> F:
    return sum((row.get(i, F(0)) for i, row in m.rows.items()), F(0))


def group_averaging_dimensions(n, level, d, singular_only):
    """Graded invariant dimensions from all n! group matrices (oracle).

    For each filtered degree delta <= d: the matrices of the modified action
    on the degree-<=delta chart, their closure to the whole group, and the
    average of tr(g), or of tr(proj @ g) with the singular projector
    lower . raise / n.  Graded dimensions are differences of the filtered ones.
    """
    space = SuperSpace.tensor_power(n)
    filtered = []
    for delta in range(d + 1):
        coords = Coords.build(n, level, delta)
        mats = [matrix_of(coords, lambda f, i=i: composed_modified_action(space, i, f)) for i in range(n - 1)]
        group = list(permutation_closure(mats, coords.dim).values())
        if singular_only:
            up = Coords.build(n, level + 1, delta)
            raise_m = matrix_into(coords, up, lambda f: current_action(space, 2, 1, 0, f))
            lower_m = matrix_into(up, coords, lambda f: current_action(space, 1, 2, 0, f))
            proj = (lower_m @ raise_m) * F(1, n)
            group = [proj @ g for g in group]
        filtered.append(sum((_trace(g) for g in group), F(0)) / factorial(n))
    return [filtered[0]] + [filtered[i] - filtered[i - 1] for i in range(1, d + 1)]


def diagonal_class_trace_dimensions(n, level, d, singular_only):
    """Graded invariant dimensions from the diagonal of each class word (oracle).

    Applies the modified action of one word per cycle type, with full MPoly
    arithmetic, to every basis vector (c, z^e) of the degree-<=d chart and
    reads the coefficient of (c, z^e) in the image into the bucket of degree
    |e|; for the singular part e12[0] e21[0] follows the word.
    """
    space = SuperSpace.tensor_power(n)
    coords = Coords.build(n, level, d)
    totals = [0] * (d + 1)
    for word, size in weylspace._class_words(n):
        for c in coords.components:
            for e in coords.monomials:
                f = {c: MPoly(n, {e: 1})}
                for i in reversed(word):
                    f = modified_action(space, i, f)
                if singular_only:
                    f = current_action(space, 1, 2, 0, current_action(space, 2, 1, 0, f))
                diag = f[c].terms.get(e) if c in f else None
                if diag:
                    totals[sum(e)] += size * diag
    norm = factorial(n) * (n if singular_only else 1)
    return [F(total, norm) for total in totals]


def from_vector(coords, v):
    """The vector {component: MPoly} with coordinates v in the chart."""
    nm = len(coords.monomials)
    out = {}
    for pos, coef in enumerate(v):
        if coef:
            c = coords.components[pos // nm]
            out[c] = out.get(c, MPoly(coords.n, {})) + MPoly(coords.n, {coords.monomials[pos % nm]: coef})
    return out


def kernel_invariant_basis(n, level, d):
    """Invariant basis by direct kernel intersection (oracle)."""
    space = SuperSpace.tensor_power(n)
    coords = Coords.build(n, level, d)
    mats = [matrix_of(coords, lambda f, i=i: composed_modified_action(space, i, f)) for i in range(n - 1)]
    ident = ExactMatrix.identity(coords.dim)
    stacked = ExactMatrix.vstack([m - ident for m in mats]) if mats else ExactMatrix(0, coords.dim)
    return [from_vector(coords, v) for v in stacked.kernel()]


def averaging_invariant_basis(n, level, d):
    """Invariant basis from the columns of the group-averaging projector (oracle).

    Columns are collected until the trace-formula dimension is reached.
    """
    space = SuperSpace.tensor_power(n)
    coords = Coords.build(n, level, d)
    if coords.dim == 0:
        return []
    target = sum(invariant_dimensions(n, level, d, False))
    mats = [matrix_of(coords, lambda f, i=i: composed_modified_action(space, i, f)) for i in range(n - 1)]
    group = list(permutation_closure(mats, coords.dim).values())
    av = ExactMatrix(coords.dim, coords.dim)
    for g in group:
        av = av + g
    av = av * F(1, len(group))
    span = SpanBasis()
    out = []
    for j in range(coords.dim):
        col = column(av, j)
        if any(col) and span.add(col):
            out.append(from_vector(coords, col))
            if len(out) == target:
                break
    assert len(out) == target, f"averaging spans {len(out)} invariants, trace formula gives {target}"
    return out


class TestMPoly:
    def test_divided_difference_exact(self):
        p = MPoly.var(2, 0, 2)  # z1^2
        dd = p.divided_difference(0)
        # (z1^2 - z2^2)/(z1 - z2) = z1 + z2
        assert dd == MPoly.var(2, 0) + MPoly.var(2, 1)

    def test_divided_difference_symmetric_kills(self):
        p = MPoly.var(2, 0) * MPoly.var(2, 1)
        assert p.divided_difference(0).is_zero()

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-5, 5)), max_size=5))
    @settings(max_examples=30)
    def test_divided_difference_identity(self, terms):
        p = MPoly(2, {})
        for a, b, c in terms:
            p = p + MPoly(2, {(a, b): F(c)})
        dd = p.divided_difference(0)
        # (z1 - z2) * dd == p - p^swap
        recon = (MPoly.var(2, 0) - MPoly.var(2, 1)) * dd
        assert recon == p - p.swap(0, 1)


_EXPONENTS = st.tuples(*[st.integers(0, 3)] * 3)
_INT_MPOLY = st.dictionaries(_EXPONENTS, st.integers(-6, 6), max_size=5).map(lambda t: MPoly(3, t))
_FRACTION_MPOLY = st.dictionaries(
    _EXPONENTS, st.fractions(min_value=-3, max_value=3, max_denominator=4), max_size=5
).map(lambda t: MPoly(3, t))
_SCALAR = st.one_of(st.integers(-6, 6), st.fractions(min_value=-3, max_value=3, max_denominator=4))


def _as_fractions(x):
    """x with every coefficient a Fraction: the reference model."""
    if isinstance(x, MPoly):
        return MPoly(x.n, {e: F(c) for e, c in x.terms.items()})
    return F(x)


def _integral(p: MPoly) -> bool:
    return all(type(c) is int for c in p.terms.values())


def _mpoly_ops(p, q, i):
    """Every MPoly operation on the operands p and q (q an MPoly or a scalar); i picks the variables."""
    out = [p + q, q + p, p - q, q - p, p * q, q * p, -p, p.swap(i, (i + 1) % 3), p.divided_difference(i)]
    if isinstance(q, MPoly):
        out += [-q, q.swap(i, 2), q.divided_difference(i)]
    return out


_COEFFICIENT = st.one_of(st.integers(-6, 6), st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def _operands(draw):
    """n in 1..5, two term dicts, a scalar, two variable indices and a point."""
    n = draw(st.integers(1, 5))
    terms = st.dictionaries(st.tuples(*[st.integers(0, 4)] * n), _COEFFICIENT, max_size=6)
    return (
        n, draw(terms), draw(terms), draw(_COEFFICIENT), draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)),
        draw(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=5), min_size=n, max_size=n)),
    )


def _model_results(cls, n, p, q, s, i, j, point):
    """Every operation of the polynomial class cls: polynomial results as typed term dicts, then the rest."""
    a, b = cls(n, p), cls(n, q)
    polys = [a + b, a - b, a * b, b * a, a + s, s - a, a * s, s * b, -a, a.swap(i, j), (a * b).swap(j, i)]
    if n >= 2:
        polys += [a.divided_difference(min(i, n - 2)), (a * b).divided_difference(min(j, n - 2))]
    typed = [{e: (c, type(c)) for e, c in r.terms.items()} for r in polys]
    return typed, [
        a.evaluate(point), (a * b).evaluate(point), a.degree(), b.degree(), (a * b).degree(),
        a == b, a == a + 0, a == s, a - a == 0,
    ]


class TestPackedModel:
    @given(_operands())
    @settings(max_examples=200)
    def test_matches_the_tuple_oracle(self, operands):
        # differential: packed monomials against exponent tuples, n = 1..5,
        # int and Fraction coefficients, coefficient types included
        assert _model_results(MPoly, *operands) == _model_results(TupleMPoly, *operands)

    def test_exponent_past_the_slot_bound_raises(self):
        top = 2**weylspace._SLOT_BITS - 1
        assert MPoly.var(2, 0, top).degree() == top
        assert MPoly(3, {(top - 2, 1, 1): 5}).terms == {(top - 2, 1, 1): 5}
        with pytest.raises(OverflowError, match="slot bound"):
            MPoly.var(2, 0, top + 1)
        with pytest.raises(OverflowError, match="slot bound"):
            MPoly(3, {(top - 1, 1, 1): 1})
        with pytest.raises(ValueError, match="negative exponent"):
            MPoly(2, {(1, -1): 1})

    def test_product_past_the_slot_bound_raises(self):
        half = 2 ** (weylspace._SLOT_BITS - 1)
        a = MPoly.var(2, 0, half) + 1
        assert (a * MPoly.var(2, 1, half - 1)).terms == {(half, half - 1): 1, (0, half - 1): 1}
        with pytest.raises(OverflowError, match="slot bound"):
            a * MPoly.var(2, 1, half)
        # the same bound holds for the matrix action on vectors
        op = ExactMatrix.identity(1, MPoly.var(2, 0, half))
        assert weylspace._mpoly_apply(op, {0: MPoly.var(2, 1, half - 1)}, 2) == {0: MPoly(2, {(half, half - 1): 1})}
        with pytest.raises(OverflowError, match="slot bound"):
            weylspace._mpoly_apply(op, {0: MPoly.var(2, 1, half)}, 2)

    def test_slot_bound_raises_under_optimize(self):
        # the bound is an exception, not an assert, so it holds under python -O
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "from gl11chain.weylspace import MPoly, _SLOT_BITS as w\n"
            "half = MPoly.var(2, 0, 2 ** (w - 1))\n"
            "try:\n    half * half\nexcept OverflowError as exc:\n    print('product', exc)\n"
            "try:\n    MPoly.var(2, 1, 2 ** w)\nexcept OverflowError as exc:\n    print('var', exc)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60,
        )
        lines = proc.stdout.splitlines()
        assert [line.split()[0] for line in lines] == ["product", "var"], proc.stderr
        assert all("slot bound" in line for line in lines)


class TestIntegerModel:
    @given(
        st.one_of(_INT_MPOLY, _FRACTION_MPOLY),
        st.one_of(_INT_MPOLY, _FRACTION_MPOLY, _SCALAR),
        st.integers(0, 1),
    )
    @settings(max_examples=150)
    def test_int_coefficients_match_fractions(self, p, q, i):
        # differential: int coefficients against the same operations with every coefficient a Fraction
        got = _mpoly_ops(p, q, i)
        want = _mpoly_ops(_as_fractions(p), _as_fractions(q), i)
        assert [r.terms for r in got] == [r.terms for r in want]
        if _integral(p) and (_integral(q) if isinstance(q, MPoly) else F(q).denominator == 1):
            assert all(_integral(r) for r in got)

    def test_sn_relation_matrices_are_integral(self, monkeypatch):
        seen = []
        real = ExactMatrix.__matmul__

        def recording_matmul(a, b):
            seen.extend([a, b])
            return real(a, b)

        monkeypatch.setattr(ExactMatrix, "__matmul__", recording_matmul)
        assert check_sn_relations(3, 3)
        assert seen
        assert all(type(v) is int for m in seen for _, _, v in m.entries())

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_gamma_coefficients_are_integral(self, n):
        polys = [
            v for op in gamma_coefficient_ops(n).values() for m in op for _, _, v in m.entries() if isinstance(v, MPoly)
        ]
        assert polys
        assert all(_integral(p) for p in polys)


class TestModifiedAction:
    def test_constants_swap(self):
        sp = SuperSpace.tensor_power(2)
        f = {sp.index((0, 1)): MPoly.const(2, 1)}
        out = modified_action(sp, 0, f)
        assert out == {sp.index((1, 0)): MPoly.const(2, 1)}

    def test_polynomial_example(self):
        # z1 on the doubly-even vector maps to (z2 + 1) on it
        sp = SuperSpace.tensor_power(2)
        f = {0: MPoly.var(2, 0)}
        out = modified_action(sp, 0, f)
        assert out == {0: MPoly.var(2, 1) + MPoly.const(2, 1)}

    def test_involution_on_random_vectors(self):
        sp = SuperSpace.tensor_power(2)
        import random

        rng = random.Random(11)
        for _ in range(10):
            f = {}
            for c in range(4):
                terms = {}
                for _ in range(3):
                    e = (rng.randint(0, 3), rng.randint(0, 3))
                    terms[e] = F(rng.randint(-4, 4))
                f[c] = MPoly(2, terms)
            twice = modified_action(sp, 0, modified_action(sp, 0, f))
            crd = Coords.build(2, None, 8)
            assert crd.to_vector(twice) == crd.to_vector({c: p for c, p in f.items() if p})

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_relations(self, n):
        assert check_sn_relations(n, 3 if n < 4 else 2)

    def test_relations_fail_with_one_negated_divided_difference(self, monkeypatch, fresh_caches):
        # negative control: s_0 = swap - divided difference is still an involution but breaks the braid
        # relation; the monomial table is emptied, so it is rebuilt from the patched primitive
        real = MPoly.divided_difference
        monkeypatch.setattr(MPoly, "divided_difference", lambda self, i: -real(self, i) if i == 0 else real(self, i))
        result = check_sn_relations(3, 3)
        assert not result.ok
        assert result.witness == "braid relation at 0"


@st.composite
def _action_operands(draw):
    """n in 2..5, i in 0..n-2 and a vector {component: MPoly} with int or Fraction coefficients."""
    n = draw(st.integers(2, 5))
    coefficient = st.one_of(st.integers(-6, 6), st.fractions(min_value=-3, max_value=3, max_denominator=4))
    terms = st.dictionaries(st.tuples(*[st.integers(0, 4)] * n), coefficient, max_size=5)
    f = draw(st.dictionaries(st.integers(0, 2**n - 1), terms, max_size=4))
    return n, draw(st.integers(0, n - 2)), {c: MPoly(n, t) for c, t in f.items()}


def _typed(f):
    return {c: {e: (v, type(v)) for e, v in p.terms.items()} for c, p in f.items()}


class TestMonomialTable:
    @given(_action_operands())
    @settings(max_examples=200)
    def test_table_action_matches_the_composition(self, operands):
        # differential: shat_i read from the monomial table against the flip,
        # swap and divided difference of whole polynomials, coefficient types included
        n, i, f = operands
        space = SuperSpace.tensor_power(n)
        assert _typed(modified_action(space, i, f)) == _typed(composed_modified_action(space, i, f))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_relation_matrices_match_the_composition(self, n):
        # the matrices check_sn_relations builds from the table, against the
        # composed action applied to each basis vector
        space = SuperSpace.tensor_power(n)
        for level in [None, *range(n + 1)]:
            for d in range(4):
                coords = Coords.build(n, level, d)
                position = {key: m for m, key in enumerate(coords.keys)}
                for i in range(n - 1):
                    want = matrix_of(coords, lambda f: composed_modified_action(space, i, f))
                    assert weylspace._relation_matrix(space, coords.components, position, i) == want

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_monomial_keys_follow_the_chart_order(self, n):
        # the one enumerator of the model lists each degree as the chart oracle sorts it
        for d in range(5):
            keys = [key for delta in range(d + 1) for key in weylspace._monomial_keys(n, delta)]
            assert [weylspace._unpack(key, n) for key in keys] == monomials_upto(n, d)


class TestInvariantDimensions:
    @pytest.mark.parametrize("n,l", [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2), (3, 3)])
    def test_match_series(self, n, l):
        d = 4
        assert invariant_dimensions(n, l, d, False) == character_series(n, l, d, False)

    @pytest.mark.parametrize("n,l", [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
    def test_singular_match_series(self, n, l):
        d = 4
        assert invariant_dimensions(n, l, d, True) == character_series(n, l, d, True)

    @pytest.mark.parametrize("singular_only", [False, True])
    @pytest.mark.parametrize(
        "n,l", [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2), (3, 3)]
    )
    def test_class_traces_match_group_averaging(self, n, l, singular_only):
        for d in range(4):
            want = group_averaging_dimensions(n, l, d, singular_only)
            assert invariant_dimensions(n, l, d, singular_only) == want

    @pytest.mark.parametrize("singular_only", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_leading_block_matches_diagonal_oracle(self, n, singular_only):
        for level in range(n + 1):
            for d in range(5):
                want = diagonal_class_trace_dimensions(n, level, d, singular_only)
                assert invariant_dimensions(n, level, d, singular_only) == want

    @pytest.mark.parametrize("singular_only", [False, True])
    def test_leading_block_matches_diagonal_oracle_five_sites(self, singular_only):
        for level in range(6):
            for d in range(3):
                want = diagonal_class_trace_dimensions(5, level, d, singular_only)
                assert invariant_dimensions(5, level, d, singular_only) == want

    def test_class_traces_build_no_group(self, monkeypatch):
        # traces come from the leading block: no modified action, no group
        # matrices, no products of matrices
        calls = {"modified_action": 0, "symmetric_group_action": 0, "matmul": 0}
        action = weylspace.modified_action
        group = superlin.symmetric_group_action
        matmul = ExactMatrix.__matmul__

        def counting_action(*args):
            calls["modified_action"] += 1
            return action(*args)

        def counting_group(*args):
            calls["symmetric_group_action"] += 1
            return group(*args)

        def counting_matmul(self, other):
            calls["matmul"] += 1
            return matmul(self, other)

        monkeypatch.setattr(weylspace, "modified_action", counting_action)
        monkeypatch.setattr(superlin, "symmetric_group_action", counting_group)
        monkeypatch.setattr(ExactMatrix, "__matmul__", counting_matmul)
        got = invariant_dimensions(4, 2, 4, True)
        assert calls == {"modified_action": 0, "symmetric_group_action": 0, "matmul": 0}
        assert got == character_series(4, 2, 4, True)

    def test_degree_keeping_divided_difference_raises(self, monkeypatch, fresh_caches):
        # negative control: without the degree drop the leading block no
        # longer carries the trace, and the premise check must say so; the
        # memoised premise check and monomial table are emptied first, so
        # they run again on the patched primitive
        monkeypatch.setattr(MPoly, "divided_difference", lambda self, i: self)
        with pytest.raises(ArithmeticError, match="divided difference at s_0"):
            invariant_dimensions(3, 1, 2, False)

    def test_degree_raising_zero_mode_raises(self, monkeypatch):
        # negative control: a "zero mode" that multiplies by z_s
        real = weylspace.current_action
        monkeypatch.setattr(weylspace, "current_action", lambda space, i, j, r, f: real(space, i, j, 1, f))
        assert invariant_dimensions(3, 1, 2, False) == character_series(3, 1, 2, False)
        with pytest.raises(ArithmeticError, match="zero mode e21"):
            invariant_dimensions(3, 1, 2, True)

    def test_frozen_values(self):
        assert invariant_dimensions(2, 1, 3, False) == [1, 2, 3, 4]
        assert invariant_dimensions(2, 1, 3, True) == [0, 1, 1, 2]

    def test_series_against_partition_oracle(self):
        # independent combinatorial expansion of the plain character
        for n, l in ((2, 1), (3, 1), (3, 2), (4, 2)):
            d = 4
            shift = l * (l - 1) // 2
            want = [
                count_pairs_of_partitions(l, n - l, deg - shift) if deg >= shift else 0
                for deg in range(d + 1)
            ]
            assert character_series(n, l, d, False) == want

    def test_level_zero_counts_partitions(self):
        # plain level-0 invariants are the symmetric polynomials
        def partitions_parts_atmost(m, total):
            if total == 0:
                return 1
            if m == 0:
                return 0
            return sum(partitions_parts_atmost(m - 1, total - m * j) for j in range(total // m + 1))

        n, d = 3, 4
        got = invariant_dimensions(n, 0, d, False)
        assert got == [partitions_parts_atmost(n, deg) for deg in range(d + 1)]

    def test_projector_basis_matches_kernel(self):
        for n, l, d in ((2, 1, 3), (3, 2, 3)):
            a = averaging_invariant_basis(n, l, d)
            b = kernel_invariant_basis(n, l, d)
            crd = Coords.build(n, l, d)
            span = SpanBasis()
            for w in b:
                span.add(crd.to_vector(w))
            assert len(a) == len(b)
            assert all(span.contains(crd.to_vector(w)) for w in a)


def elimination_free_generators(n, level, d):
    """Freeness of the lowering-word generators by elimination in a chart (oracle).

    Every product sigma^e g_w of weighted degree e <= d must be independent of
    the earlier ones in the level's chart up to the generators' degree plus d.
    """
    space = SuperSpace.tensor_power(n)
    coords = Coords.build(n, level, d + sum(range(n - level, n)) + 1)
    span = SpanBasis()
    for w in combinations(range(n), level):
        g = weylspace._apply_e21_word(space, w, weylspace.vacuum_vector(n))
        for sym in _symmetric_monomials(n, d).values():
            if not span.add(coords.to_vector({c: sym * p for c, p in g.items()})):
                return False
    return True


def ladder_current_action(space, i, j, r, f):
    """e_ij[r] by the four-branch ladder current_action ran before SuperSpace.leg_unit (oracle).

    A leg's state is its parity: the odd states passed are the ones read off multi.
    """
    odd = (i + j) % 2
    out = {}
    for c, p in f.items():
        multi = space.multi_index(c)
        passed = 0
        for s in range(space.n):
            comp = multi[s]
            target = None
            if (i, j) == (1, 1) and comp == 0:
                target = comp
            elif (i, j) == (2, 2) and comp == 1:
                target = comp
            elif (i, j) == (2, 1) and comp == 0:
                target = 1
            elif (i, j) == (1, 2) and comp == 1:
                target = 0
            if target is not None:
                nm = list(multi)
                nm[s] = target
                term = p * MPoly.var(p.n, s, r) if r else p
                cc = space.index(nm)
                out[cc] = out.get(cc, MPoly(p.n, {})) + (-term if odd and passed % 2 else term)
            passed += comp
    return {c: p for c, p in out.items() if p}


class TestCurrentModel:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_current_action_matches_the_ladder(self, n):
        space = SuperSpace.tensor_power(n)
        coords = Coords.build(n, None, 2)
        for i in (1, 2):
            for j in (1, 2):
                for r in range(3):
                    for c in coords.components:
                        for e in coords.monomials:
                            f = {c: MPoly(n, {e: 1})}
                            assert current_action(space, i, j, r, f) == ladder_current_action(space, i, j, r, f)

    @pytest.mark.parametrize("n,l", [(2, 0), (2, 1), (3, 1), (3, 2)])
    def test_checks_pass(self, n, l):
        for c in current_model_checks(n, l, 3):
            assert c.ok, c.label

    def test_failed_check_names_level_relation_and_coordinate(self, monkeypatch):
        # negative control: sigma_n doubled in the overflow relation's right-hand side
        real = weylspace.elementary_mpoly
        monkeypatch.setattr(
            weylspace, "elementary_mpoly", lambda n, i: real(n, i) * MPoly.const(n, 2) if i == n else real(n, i)
        )
        checks = {c.label: c for c in current_model_checks(2, 1, 3)}
        assert [label for label, c in checks.items() if not c.ok] == ["overflow relation"]
        want = "level 1, overflow relation: component 1, monomial (1, 1): 0 vs -1"
        assert checks["overflow relation"].witness == want
        assert all(c.witness == "" for c in checks.values() if c.ok)

    def test_term_of_any_degree_fails_the_check(self, monkeypatch):
        # negative control: sigma_n times z_0 puts a term of degree n + 1 in the
        # overflow relation's right-hand side; it fails the check, not a lookup
        real = weylspace.elementary_mpoly
        monkeypatch.setattr(
            weylspace, "elementary_mpoly", lambda n, i: real(n, i) * MPoly.var(n, 0) if i == n else real(n, i)
        )
        checks = {c.label: c for c in current_model_checks(2, 1, 3)}
        assert [label for label, c in checks.items() if not c.ok] == ["overflow relation"]
        want = "level 1, overflow relation: component 1, monomial (1, 1): 0 vs 1"
        assert checks["overflow relation"].witness == want

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_freeness_matches_the_elimination_oracle(self, n):
        for level in range(n + 1):
            for d in range(4):
                got = current_model_checks(n, level, d)[0]
                assert got.label == f"free generators at level {level}"
                assert got.ok == elimination_free_generators(n, level, d)

    @pytest.mark.parametrize("n", [4, 5])
    def test_generator_values_independent_at_four_and_five_sites(self, n):
        assert all(current_model_checks(n, level, 0)[0].ok for level in range(n + 1))

    def test_repeated_generator_names_the_word(self, monkeypatch):
        # negative control: the word (2,) yields the generator of (1,)
        real = weylspace._apply_e21_word
        monkeypatch.setattr(
            weylspace, "_apply_e21_word", lambda space, rs, base: real(space, (1,) if tuple(rs) == (2,) else rs, base)
        )
        free = current_model_checks(3, 1, 2)[0]
        assert not free.ok
        assert free.witness == (
            "level 1, free generators at level 1: g_(2,) at z = (0, 1, 2) depends on the earlier generators' values"
        )
        assert not elimination_free_generators(3, 1, 2)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize(
        "corrupt, failure",
        [
            (
                lambda n, f: {c: MPoly.var(n, 0) * p for c, p in f.items()},
                "at z = {point} depends on the earlier generators' values",
            ),
            (lambda n, f: {}, "is zero"),
        ],
        ids=["zero-at-the-point", "zero"],
    )
    def test_dependent_top_singular_generator_names_its_level(self, monkeypatch, n, corrupt, failure):
        # negative control: e12(0) on the top level n of the model is corrupted, to a vector that vanishes at
        # a = (0, ..., n-1) or to 0; only the singular generator of level n - 1 passes through level n
        real = weylspace.current_action

        def corrupted(space, i, j, r, f):
            out = real(space, i, j, r, f)
            if (i, j, r) == (1, 2, 0) and f and space.level(next(iter(f))) == space.n:
                return corrupt(space.n, out)
            return out

        monkeypatch.setattr(weylspace, "current_action", corrupted)
        for level in range(n):
            checks = current_model_checks(n, level, 3)
            assert [c.label for c in checks if not c.ok] == (["singular generators"] if level == n - 1 else [])
        word, point = tuple(range(1, n)), tuple(range(n))
        assert checks[-1].witness == (
            f"level {n - 1}, singular generators: the generator of {word} " + failure.format(point=point)
        )

    def test_raising_lowering_scalar(self):
        # raise-lower plus lower-raise equals the site count on every vector
        n = 3
        sp = SuperSpace.tensor_power(n)
        f = {sp.index((0, 1, 0)): MPoly.var(n, 1)}
        a = current_action(sp, 1, 2, 0, current_action(sp, 2, 1, 0, f))
        b = current_action(sp, 2, 1, 0, current_action(sp, 1, 2, 0, f))
        crd = Coords.build(n, None, 2)
        got = [x + y for x, y in zip(crd.to_vector(a), crd.to_vector(b))]
        want = [x * n for x in crd.to_vector(f)]
        assert got == want


class TestGammaInteraction:
    def test_commutes_with_modified_action(self):
        assert gamma_commutes_with_modified(2, 2)

    def test_commutes_three_sites(self):
        assert gamma_commutes_with_modified(3, 2)

    @pytest.mark.parametrize("n, d, calls", [(2, 2, 264), (3, 3, 4800)])
    def test_monomial_actions_built_once_per_leg(self, monkeypatch, n, d, calls):
        # one action per (leg, component, monomial) and one per (leg, entry coefficient, component,
        # monomial): at n = 3, d = 3, 320 + 4480 calls
        count = []
        real = weylspace.modified_action
        monkeypatch.setattr(weylspace, "modified_action", lambda *args: count.append(1) or real(*args))
        assert gamma_commutes_with_modified(n, d)
        assert len(count) == calls

    def test_vacuum_generates(self):
        assert cyclicity_by_degree(2, 3)

    def test_vacuum_generates_three_sites(self):
        assert cyclicity_by_degree(3, 3)

    @pytest.mark.parametrize("n", [2, 3])
    def test_top_level_miscount_names_the_level(self, monkeypatch, n):
        # negative control: one invariant too many at the top level n alone; every level is compared
        real = weylspace.invariant_dimensions
        want = sum(real(n, n, 3, False))
        monkeypatch.setattr(
            weylspace, "invariant_dimensions",
            lambda n_, level, d, singular_only: real(n_, level, d, singular_only) + [1] * (level == n_),
        )
        res = cyclicity_by_degree(n, 3)
        assert not res.ok
        assert res.witness == f"level {n}: spanned dimension {want}, invariant count {want + 1}"


def _span_of(coords, vectors):
    span = SpanBasis()
    for f in vectors:
        span.add(coords.to_vector(f))
    return span


def _symmetric_monomials(n, d):
    """sigma_1^e_1 ... sigma_n^e_n of weighted degree sum i e_i <= d, by exponents e.

    Each product is one earlier product times one sigma_i; d < 0 gives none.
    """
    base = [weylspace.elementary_mpoly(n, i) for i in range(1, n + 1)]
    out = {}

    def rec(prefix, i, budget):
        if i > n:
            e = tuple(prefix)
            top = max((k for k in range(n) if e[k]), default=None)
            if top is None:
                out[e] = MPoly.const(n, 1)
            else:
                out[e] = out[e[:top] + (e[top] - 1,) + e[top + 1:]] * base[top]
            return
        e = 0
        while e * i <= budget:
            rec(prefix + [e], i + 1, budget - e * i)
            e += 1

    rec([], 1, d)
    return out


def _products(n, gens, d):
    """(k, e, sigma^e g_k) for the generators g_k and every product of degree <= d."""
    return [
        (k, e, {c: sym * p for c, p in g.items()})
        for k, g in enumerate(gens)
        for e, sym in _symmetric_monomials(n, d - weylspace._degree(g)).items()
    ]


def elimination_specialization_check(points):
    """Quotient at sigma(z) = sigma(a) by elimination in charts (oracle).

    Invariant generators as in specialization_check; then the products
    sigma^e g_D up to each level's cap, independent and as many as the
    invariants, decompose every image X g_D, the quotient matrix Q_X is read
    off with sigma^e evaluated at sigma(a), and the numeric partners M must
    have rank 2^n with M Q_X = V_X M for every key.
    """
    a = list(points)
    n = len(a)
    if any(a[i] == a[j] + 1 for i in range(n) for j in range(i)):
        return False
    space = SuperSpace.tensor_power(n)
    sig_vals = elementary_symmetric(a)
    pencil = tensor_monodromy(make_spec([(1, 0)] * n, [str(v) for v in a], (1, 1)))
    blocks = gamma_coefficient_ops(n)
    keys = [(i, j, d) for (i, j), op in blocks.items() for d in range(len(op))]
    vmats = {
        (i, j, d): c for (i, j), m in pencil.entries.items() for d, c in enumerate(coefficient_matrices(m))
    }
    gens = weylspace._generators(n, blocks)
    for lv, level in enumerate(gens):
        if len(level) != comb(n, lv):
            return False
        if any(modified_action(space, i, g) != g for _, g in level for i in range(n - 1)):
            return False
    level_shift = {(1, 1): 0, (2, 2): 0, (1, 2): 1, (2, 1): -1}
    images = []
    caps = [0] * (n + 1)
    for key in keys:
        op = blocks[key[:2]][key[2]]
        for lv, level in enumerate(gens):
            for k, (_, g) in enumerate(level):
                img = weylspace._mpoly_apply(op, g, n)
                if img:
                    tgt = lv + level_shift[key[:2]]
                    images.append((key, lv, k, tgt, img))
                    caps[tgt] = max(caps[tgt], weylspace._degree(img))
    coords = [Coords.build(n, lv, caps[lv]) for lv in range(n + 1)]
    # coordinates by the field oracle's tags on the chart positions S where the products are independent
    # (the echelon pivots), then checked as a combination on the whole chart
    products, labels = [], []
    for lv, level in enumerate(gens):
        prods = _products(n, [g for _, g in level], caps[lv])
        vecs = [coords[lv].to_vector(f) for _, _, f in prods]
        echelon = SpanBasis()
        if not all(echelon.add(v) for v in vecs) or len(vecs) != sum(invariant_dimensions(n, lv, caps[lv], False)):
            return False
        positions = sorted(echelon.pivots)
        span = FieldSpanBasis(len(positions))
        if not all(span.add_tagged([v[j] for j in positions], count) for count, v in enumerate(vecs)):
            return False
        products.append((span, positions, vecs))
        labels.append([(k, prod((s**m for s, m in zip(sig_vals, e)), start=F(1))) for k, e, _ in prods])
    offsets = [sum(comb(n, lv) for lv in range(top)) for top in range(n + 1)]
    qmats = {key: ExactMatrix(2**n, 2**n) for key in keys}
    for key, lv, k, tgt, img in images:
        span, positions, vecs = products[tgt]
        vec = coords[tgt].to_vector(img)
        x = span.coordinates([vec[j] for j in positions], len(vecs))
        if x is None:
            return False
        rest = {j: a for j, a in enumerate(vec) if a}
        for c, v in zip(x, vecs):
            for j, a in enumerate(v) if c else ():
                if a:
                    rest[j] = rest.get(j, 0) - c * a
        if any(rest.values()):
            return False
        for pos, c in enumerate(x):
            if c:
                k2, value = labels[tgt][pos]
                qmats[key].add_to(offsets[tgt] + k2, offsets[lv] + k, c * value)
    partners = []
    for level in gens:
        for word, _ in level:
            v = [F(int(c == 0)) for c in range(2**n)]
            for d in reversed(word):
                v = vmats[(1, 2, d)].apply(v)
            partners.append(v)
    mmat = ExactMatrix.from_columns(partners, 2**n)
    return mmat.rank() == 2**n and all(mmat @ qmats[key] == vmats[key] @ mmat for key in keys)


FOUR_POINTS = [F(1, 2), F(0), F(-2), F(3)]

# point lists for the differential against the elimination oracle; each also runs reversed
POINT_LISTS = [
    [F(0)],
    [F(7, 3)],
    [F(1, 2), F(0)],
    [F(0), F(1)],
    [F(0), F(0)],
    [F(3), F(-1, 2)],
    [F(2), F(-1)],
    [F(5, 4), F(1, 4)],
    [F(1, 2), F(0), F(-2)],
    [F(0), F(1), F(2)],
    [F(0), F(0), F(1)],
    [F(1), F(1), F(1)],
    [F(-1, 3), F(2), F(5)],
    [F(2), F(3), F(-7, 3)],
    [F(1, 2), F(3, 2), F(-1, 2)],
]


class TestSpecialization:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_products_span_the_invariants(self, n):
        # the products sigma^e g_D are independent and span what both
        # invariant-basis oracles span, at every level and degree
        gens = weylspace._generators(n, gamma_coefficient_ops(n))
        for level in range(n + 1):
            for d in range(5):
                coords = Coords.build(n, level, d)
                prods = [f for _, _, f in _products(n, [g for _, g in gens[level]], d)]
                span = _span_of(coords, prods)
                assert span.dim == len(prods)
                for oracle in (averaging_invariant_basis, kernel_invariant_basis):
                    basis = oracle(n, level, d)
                    assert len(basis) == span.dim
                    assert all(span.contains(coords.to_vector(w)) for w in basis)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_product_count_matches_the_symmetric_monomials(self, n):
        for budget in range(-2, 11):
            assert weylspace._product_count(n, budget) == len(_symmetric_monomials(n, budget))

    def test_builds_no_group(self, monkeypatch):
        calls = []
        monkeypatch.setattr(superlin, "symmetric_group_action", lambda *args: calls.append(args))
        for points in ([F(0)], [F(1, 2), F(0)], [F(1, 2), F(0), F(-2)]):
            assert specialization_check(points).ok
        assert calls == []

    @pytest.mark.parametrize("points", POINT_LISTS, ids=lambda points: ",".join(map(str, points)))
    def test_verdicts_match_the_elimination_oracle(self, points):
        for ordered in (points, points[::-1]):
            assert specialization_check(ordered).ok == elimination_specialization_check(ordered)

    def test_non_invariant_generator_named(self, monkeypatch):
        # negative control: a vacuum z_1 |0> is not fixed by the modified s_0
        monkeypatch.setattr(weylspace, "vacuum_vector", lambda n: {0: MPoly.var(n, 0)})
        res = specialization_check([F(1, 2), F(0)])
        assert not res.ok and res.witness == "generator () not fixed by s_0"

    def test_dropped_generator_names_the_level(self, monkeypatch):
        # negative control: a zero top coefficient B_1 kills the generators g_(1) and g_(0, 1)
        real = weylspace.gamma_coefficient_ops

        def dropped(n):
            blocks = real(n)
            return {**blocks, (1, 2): blocks[(1, 2)][:-1] + [ExactMatrix(2**n, 2**n)]}

        monkeypatch.setattr(weylspace, "gamma_coefficient_ops", dropped)
        res = specialization_check([F(1, 2), F(0)])
        assert not res.ok and res.witness == "level 1: 1 of 2 generators nonzero"

    def test_corrupted_numeric_matrix_names_the_entry(self, monkeypatch):
        # negative control: entry (0, 0) of the numeric x^0 coefficient of
        # That_11, the first pencil entry read, plus 1
        real = weylspace.coefficient_matrices
        calls = []

        def corrupted(m):
            mats = real(m)
            if not calls:
                mats[0] = mats[0].copy()
                mats[0].add_to(0, 0, 1)
            calls.append(m)
            return mats

        monkeypatch.setattr(weylspace, "coefficient_matrices", corrupted)
        res = specialization_check([F(1, 2), F(0)])
        assert not res.ok and res.witness == "evaluation differs on (1, 1, 0) at entry (0, 0)"

    def test_miscounted_invariants_name_the_level(self, monkeypatch):
        # negative control: one invariant too many in degree 0 at every level
        real = weylspace.invariant_dimensions
        monkeypatch.setattr(
            weylspace, "invariant_dimensions", lambda n, l, d, s: [real(n, l, d, s)[0] + 1] + real(n, l, d, s)[1:]
        )
        res = specialization_check([F(1, 2), F(0)])
        assert not res.ok and res.witness == "level 0: 4 products, 5 invariants up to degree 2"

    def test_non_invariant_image_named(self, monkeypatch):
        # negative control: the x^0 coefficient of That_11 replaced by
        # multiplication by z_1; the generators, built from That_12, stay invariant
        real = weylspace.gamma_coefficient_ops

        def corrupted(n):
            blocks = real(n)
            times_z1 = ExactMatrix.identity(2**n, MPoly.var(n, 0))
            return {**blocks, (1, 1): [times_z1] + blocks[(1, 1)][1:]}

        monkeypatch.setattr(weylspace, "gamma_coefficient_ops", corrupted)
        res = specialization_check([F(1, 2), F(0)])
        assert not res.ok and res.witness == "image of (1, 1, 0) on generator () not fixed by s_0"

    @pytest.mark.parametrize(
        "e,witness",
        [
            ((1, 0), "generator (0,) not fixed by s_0"),
            ((2, 0), "image of (1, 1, 1) on generator (0,) not fixed by s_0"),
        ],
        ids=["step-a", "step-d"],
    )
    def test_corrupted_table_term_named(self, monkeypatch, e, witness):
        # negative control: one divided-difference term of z^e under s_0 doubled
        # in the monomial table, every other entry as built
        real = weylspace._monomial_image
        corrupt = (2, 0, weylspace._pack(e))

        def corrupted(n, i, key):
            swapped, terms = real(n, i, key)
            if (n, i, key) == corrupt:
                (k, t), *rest = terms
                terms = ((k, 2 * t), *rest)
            return swapped, terms

        monkeypatch.setattr(weylspace, "_monomial_image", corrupted)
        res = specialization_check([F(1, 2), F(0)])
        assert not res.ok and res.witness == witness

    def test_four_sites(self):
        # same verdict as the elimination oracle
        assert specialization_check(FOUR_POINTS) == (True, "", "")
        assert elimination_specialization_check(FOUR_POINTS)

    @staticmethod
    def corrupt_generator(monkeypatch, corrupt):
        """Run specialization_check on a copy of the generator lists, changed by corrupt(n, gens)."""
        real = weylspace._generators

        def corrupted(n, blocks):
            gens = real(n, blocks)
            corrupt(n, gens)
            return gens

        monkeypatch.setattr(weylspace, "_generators", corrupted)

    def test_corrupted_generator_at_four_sites_named(self, monkeypatch):
        # negative control: z_1 g_(0,) is not fixed by the modified s_0
        def times_z1(n, gens):
            word, g = gens[1][0]
            gens[1][0] = (word, {c: MPoly.var(n, 0) * p for c, p in g.items()})

        self.corrupt_generator(monkeypatch, times_z1)
        res = specialization_check(FOUR_POINTS)
        assert not res.ok and res.witness == "generator (0,) not fixed by s_0"

    def test_repeated_generator_at_four_sites_names_the_level(self, monkeypatch):
        # negative control: g_(1,) replaced by g_(0,), so the level-1 partners are dependent
        def repeated(n, gens):
            gens[1][1] = (gens[1][1][0], gens[1][0][1])

        self.corrupt_generator(monkeypatch, repeated)
        res = specialization_check(FOUR_POINTS)
        assert not res.ok and res.witness == "level 1: partner of (1,) depends on the earlier partners"

    def test_trivial(self):
        assert specialization_check([F(0)]).ok

    def test_two_sites(self):
        assert specialization_check([F(1, 2), F(0)]).ok

    def test_ordering_rejected(self):
        res = specialization_check([F(0), F(1)])
        assert not res.ok and "ordering" in res.witness

    def test_reordered_points_accepted(self):
        assert specialization_check([F(1), F(0)]).ok
