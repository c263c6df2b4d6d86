import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl11chain.exactnum import Poly, RatFun
from gl11chain.fusion import FracMatrix
from gl11chain.linalg import ExactMatrix, SpanBasis, joint_generalized_eigenspaces
from densemat import (
    FieldSpanBasis,
    dense_apply,
    dense_kernel,
    entrywise_add,
    entrywise_map,
    entrywise_matmul,
    entrywise_neg,
    entrywise_scale,
    field_inverse,
    from_dense,
    matrix_power,
    to_dense,
    vec_dict,
    vec_list,
)

rationals = st.builds(F, st.integers(-9, 9), st.integers(1, 4))


def dense(rows):
    return from_dense(rows)


@st.composite
def scalar_probes(draw):
    """A matrix of one of five kinds, with whether it is a multiple of the identity by construction."""
    kind = draw(st.sampled_from(["zero", "multiple", "unequal diagonal", "off-diagonal entry", "non-square"]))
    n = draw(st.integers(2, 5)) if kind in ("unequal diagonal", "off-diagonal entry") else draw(st.integers(0, 5))
    c = draw(rationals)  # zero too: the zero matrix is a multiple of the identity
    m = ExactMatrix.identity(n) * c
    if kind == "zero":
        return ExactMatrix(n, n), True
    if kind == "multiple":
        return m, True
    if kind == "non-square":
        cols = draw(st.integers(0, 5).filter(lambda k: k != n))
        return ExactMatrix(n, cols, {r: {r: c} for r in range(min(n, cols)) if c}), False
    i, j = draw(st.permutations(range(n)))[:2]
    delta = draw(rationals.filter(bool))
    if kind == "unequal diagonal":
        m.put(i, i, c + delta)
    else:
        m.put(i, j, delta)
    return m, False


class TestExactMatrix:
    @given(scalar_probes())
    @settings(max_examples=80)
    def test_is_scalar(self, probe):
        m, want = probe
        assert m.is_scalar() is want

    def test_matmul_and_apply(self):
        a = dense([[1, 2], [3, 4]])
        b = dense([[0, 1], [1, 0]])
        assert to_dense(a @ b) == [[2, 1], [4, 3]]
        assert a.apply({0: F(1), 1: F(1)}) == {0: 3, 1: 7}

    def test_rank_nullity(self):
        m = dense([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
        assert m.rank() == 2
        assert len(m.kernel()) == 1
        v = m.kernel()[0]
        assert m.apply(v) == {}

    @given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=2, max_size=4))
    @settings(max_examples=40)
    def test_rank_plus_nullity(self, rows):
        m = dense(rows)
        assert m.rank() + len(m.kernel()) == m.ncols

    def test_kernel_reduced_echelon(self):
        m = dense([[1, 2, 0, 3]])
        basis = m.kernel()
        # free coordinates carry unit entries (reduced form)
        frees = [2, 1, 3]
        for v in basis:
            assert sum(1 for x in v.values() if x == 1) >= 1
        recon = dense([vec_list(basis[i], 4) for i in range(len(basis))])
        assert recon.rank() == len(basis)

    def test_inverse_det(self):
        m = dense([[2, 1], [1, 1]])
        assert to_dense(m @ m.inverse()) == [[1, 0], [0, 1]]
        assert m.det() == 1
        assert dense([[1, 2], [2, 4]]).det() == 0

    def test_shape_mismatch_raises_under_optimize(self):
        # invariants are exceptions, not asserts, so they hold under python -O
        src = Path(__file__).resolve().parent.parent / "src"
        code = "from gl11chain.linalg import ExactMatrix as M; M(1, 2) @ M(1, 2)"
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60,
        )
        assert "ValueError: shape mismatch" in proc.stderr, proc.stderr

    def test_polynomial_entries(self):
        x = Poly((0, 1))
        m = ExactMatrix(2, 2)
        m.put(0, 0, x)
        m.put(1, 1, x + 1)
        sq = m @ m
        assert sq.get(0, 0) == x * x
        assert sq.get(1, 1) == (x + 1) * (x + 1)

    def test_add_to_empty_cell_stores_the_entry(self):
        x = Poly((F(1, 2), 1))
        m = ExactMatrix(2, 2)
        m.add_to(0, 1, x)
        assert m.get(0, 1) is x
        m.add_to(0, 1, x)
        assert m.get(0, 1) == x * 2

        class Unsummable:
            """An entry that refuses to be added to the zero placeholder."""

            def __radd__(self, other):
                raise TypeError(f"{other!r} + entry")

        e = Unsummable()
        m.add_to(1, 0, e)
        assert m.get(1, 0) is e


ENTRIES = {
    "int": st.integers(-2, 2),
    "Fraction": st.builds(F, st.integers(-2, 2), st.sampled_from([1, 2, 3])),
    "Poly": st.builds(Poly, st.lists(st.integers(-1, 1), max_size=3)),
}


@st.composite
def row_by_row_cases(draw):
    """(a, b, c, s): a and b of one shape, c with as many rows as a has columns, all of one entry kind, and a scalar s.

    Entries are small, so sums and products cancel; b is fresh, -a, or -a with some entries
    replaced; rows may be empty and shapes 0.
    """
    entry = ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))]
    n, k, m = (draw(st.integers(0, 4)) for _ in range(3))

    def matrix(nrows, ncols):
        rows = {}
        for i in range(nrows):
            row = {j: v for j in range(ncols) if (v := draw(entry))}
            if row:
                rows[i] = row
        return ExactMatrix(nrows, ncols, rows)

    a = matrix(n, k)
    b = draw(st.sampled_from(["fresh", "negated", "partly negated"]))
    if b == "fresh":
        b = matrix(n, k)
    else:
        b = entrywise_neg(a)
        if b == "partly negated":
            b = entrywise_add(b, matrix(n, k))
    s = draw(st.sampled_from([1, -1, 0, 2, F(1), F(-1, 2), Poly((1,)), Poly((0, 1))]))
    return a, b, matrix(k, m), s


def stores_no_zero(m: ExactMatrix) -> bool:
    return all(m.rows.values()) and all(v for _, _, v in m.entries())


class TestRowByRowArithmetic:
    """Sums, negations, scalings, products and entry maps built row by row against the entry-wise oracle."""

    @given(row_by_row_cases())
    @settings(max_examples=300)
    def test_against_entrywise(self, case):
        a, b, c, s = case
        first = next((v for _, _, v in a.entries()), None)

        def fn(v):
            """Zero at the first stored entry's value, so the map has zeros to drop."""
            return v - v if v == first else v * 2

        pairs = [
            (a + b, entrywise_add(a, b)),
            (a - b, entrywise_add(a, entrywise_neg(b))),
            (-a, entrywise_neg(a)),
            (a * s, entrywise_scale(a, s)),
            (s * a, entrywise_scale(a, s)),
            (a @ c, entrywise_matmul(a, c)),
            (a.map_entries(fn), entrywise_map(a, fn)),
        ]
        for got, want in pairs:
            assert got == want
            assert stores_no_zero(got)

    @given(row_by_row_cases())
    @settings(max_examples=50)
    def test_scaling_by_one_copies(self, case):
        a = case[0]
        before = a.copy()
        for one in (1, F(1), Poly((1,))):
            scaled = a * one
            assert scaled == a and scaled.rows is not a.rows
            for row in scaled.rows.values():
                row[0] = 7
            assert a == before
        assert a * -1 == -a

    def test_cancelling_sum_and_product_leave_no_row(self):
        a = dense([[1, 2], [0, 3]])
        assert (a + -a).rows == {} and (a - a).rows == {}
        # row 0 of the product meets 1 * 1 and 1 * -1 at column 0; row 1 holds no meeting
        b = dense([[1, 5], [-1, 0]])
        assert (dense([[1, 1], [0, 2]]) @ b).rows == {0: {1: F(5)}, 1: {0: F(-2)}}


class DenseEchelon:
    """Reference span: dense rows in reduced echelon form, first-nonzero pivots."""

    def __init__(self):
        self.rows = []
        self.pivots = []

    def reduce(self, vec):
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            if v[p]:
                f = v[p]
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def add(self, vec):
        v = self.reduce(vec)
        p = next((i for i, a in enumerate(v) if a), None)
        if p is None:
            return False
        v = [a / v[p] for a in v]
        for i, row in enumerate(self.rows):
            if row[p]:
                self.rows[i] = [a - row[p] * b for a, b in zip(row, v)]
        self.rows.append(v)
        self.pivots.append(p)
        return True


small = st.sampled_from([F(0), F(0), F(0), F(1), F(-1), F(2), F(1, 3), F(-5, 2)])


@st.composite
def vector_streams(draw):
    """Short vectors, with zero, repeated and dependent ones mixed in."""
    length = draw(st.integers(1, 5))
    fresh = st.lists(small, min_size=length, max_size=length)
    vecs = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["fresh", "zero", "repeat", "combination"]))
        if kind == "zero":
            v = [F(0)] * length
        elif kind == "fresh" or not vecs:
            v = draw(fresh)
        elif kind == "repeat":
            v = list(draw(st.sampled_from(vecs)))
        else:
            a, b = draw(st.sampled_from(vecs)), draw(st.sampled_from(vecs))
            ca, cb = draw(rationals), draw(rationals)
            v = [ca * x + cb * y for x, y in zip(a, b)]
        vecs.append(v)
    return length, vecs, draw(st.lists(fresh, max_size=3))


class TestSpanBasis:
    @given(vector_streams())
    @settings(max_examples=200)
    def test_matches_dense_echelon(self, stream):
        length, vecs, probes = stream
        sparse, ref = SpanBasis(), DenseEchelon()
        for v in vecs:
            assert sparse.add(vec_dict(v)) == ref.add(v)
            assert sparse.dim == len(ref.rows)
            assert sparse.pivots == ref.pivots
            assert [[r.get(j, 0) for j in range(length)] for r in sparse.rows] == ref.rows
        for w in vecs + probes:
            red = ref.reduce(w)
            assert sparse.reduce(vec_dict(w)) == vec_dict(red)
            assert sparse.contains(vec_dict(w)) == (not any(red))

    def test_add_and_contains(self):
        s = SpanBasis()
        assert s.add({0: F(1), 2: F(1)})
        assert not s.add({0: F(2), 2: F(2)})
        assert s.add({1: F(1)})
        assert s.contains({0: F(3), 1: F(5), 2: F(3)})
        assert not s.contains({2: F(1)})



@st.composite
def scattered_streams(draw):
    """vector_streams on scattered columns in any order, as {column: value} dicts that keep their zeros.

    Integral values enter as int or as Fraction, as the polynomial model and
    the matrix algebra hand them in.
    """
    length, vecs, probes = draw(vector_streams())
    cols = draw(st.lists(st.integers(0, 40), min_size=length, max_size=length, unique=True))
    as_int = draw(st.booleans())

    def scatter(v):
        return {c: int(a) if as_int and a.denominator == 1 else a for c, a in zip(cols, v)}

    return max(cols) + 1, [scatter(v) for v in vecs], [scatter(w) for w in probes]


class TestSparseInput:
    @given(scattered_streams())
    @settings(max_examples=200)
    def test_dict_matches_its_dense_sequence(self, stream):
        # differential: a {column: value} dict that keeps its zeros and the nonzero
        # entries of its dense sequence give the same add results, dimension, rows
        # and contains verdicts
        length, vecs, probes = stream
        given_vecs = [dict(v) for v in vecs + probes]
        sparse, dense_span = SpanBasis(), SpanBasis()
        for v in vecs:
            assert sparse.add(v) == dense_span.add(vec_dict(vec_list(v, length)))
            assert sparse.dim == dense_span.dim
        for w in vecs + probes:
            assert sparse.contains(w) == dense_span.contains(vec_dict(vec_list(w, length)))
        assert sparse.pivots == dense_span.pivots and sparse.rows == dense_span.rows
        assert vecs + probes == given_vecs  # the dicts are read, not changed

    def test_zero_entries_and_far_columns(self):
        s = SpanBasis()
        assert not s.add({3: F(0), 7: 0})
        assert s.add({10**6: 2, 5: F(0)})
        assert s.pivots == [10**6]
        assert s.contains({10**6: F(-1, 3), 0: 0})
        assert not s.contains({10**6 + 1: 1})


@st.composite
def fraction_matrices(draw, square=False):
    """0-5 rows and columns; zero rows and combinations of earlier rows make rank deficiency."""
    nrows = draw(st.integers(0, 5))
    ncols = nrows if square else draw(st.integers(0, 5))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "combination"]))
        if kind == "zero":
            rows.append([F(0)] * ncols)
        elif kind == "fresh" or not rows:
            rows.append(draw(st.lists(small, min_size=ncols, max_size=ncols)))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            ca, cb = draw(rationals), draw(rationals)
            rows.append([ca * x + cb * y for x, y in zip(a, b)])
    m = ExactMatrix(nrows, ncols)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            m.put(i, j, v)
    return m


_apply_entries = {
    "Fraction": st.sampled_from([F(0), F(0), F(1), F(-1), F(2), F(-1, 2)]),
    "Poly": st.sampled_from([Poly(), Poly(), Poly((1,)), Poly((0, 1)), Poly((-1, 1)), Poly((0, -2))]),
}


@st.composite
def apply_cases(draw):
    """(m, vec, cancelled): an entry kind's matrix and dict vector, the zero entries dropped, often empty.

    When vec has two entries, a last row u with u . vec = 0 is added, its index `cancelled`: its two terms
    vec[k] vec[j] - vec[j] vec[k] cancel, so apply must drop the sum.
    """
    entries = _apply_entries[draw(st.sampled_from(sorted(_apply_entries)))]
    nrows, ncols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    rows = [draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    m = from_dense(rows) if rows else ExactMatrix(0, ncols)
    vec = vec_dict(draw(st.lists(entries, min_size=ncols, max_size=ncols)))
    if len(vec) < 2:
        return m, vec, None
    j, k = draw(st.permutations(sorted(vec)))[:2]
    m.rows[m.nrows] = {j: vec[k], k: -vec[j]}
    m.nrows += 1
    return m, vec, m.nrows - 1


class TestDictVectors:
    """The dict vectors of apply and kernel against their dense versions (densemat.dense_apply, dense_kernel)."""

    @given(apply_cases())
    @settings(max_examples=200)
    def test_apply_matches_the_dense_product(self, case):
        m, vec, cancelled = case
        got = m.apply(vec)
        assert got == vec_dict(dense_apply(m, vec_list(vec, m.ncols)))
        assert all(got.values()) and cancelled not in got
        assert vec == vec_dict(vec_list(vec, m.ncols))  # the vector is read, not changed

    def test_apply_to_the_empty_vector(self):
        assert dense([[1, 2], [3, 4]]).apply({}) == {}

    @given(fraction_matrices())
    @settings(max_examples=150)
    def test_kernel_matches_the_dense_kernel(self, m):
        kernel = m.kernel()
        assert kernel == [vec_dict(v) for v in dense_kernel(m)]
        # coordinate form: vector c is 1 at its last index, where no other vector has an entry
        index = [max(v) for v in kernel]
        for c, v in enumerate(kernel):
            assert v[index[c]] == 1 and all(index[d] not in v for d in range(len(kernel)) if d != c)
            assert all(v.values()) and not m.apply(v)


def to_sympy(sympy, m):
    return sympy.Matrix(m.nrows, m.ncols, [sympy.Rational(v.numerator, v.denominator) for row in to_dense(m) for v in row])


def from_sympy(rows):
    return [[F(int(v.p), int(v.q)) for v in row] for row in rows]


class TestSympyDifferential:
    """Every elimination against sympy's, on exact rationals."""

    @given(fraction_matrices(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_rref_rank_kernel_solve(self, m, data):
        """rref, rank, kernel; a kernel vector's coordinates, read at the free columns, against sympy's solve."""
        sympy = pytest.importorskip("sympy")
        sm = to_sympy(sympy, m)
        red, pivots = m.rref()
        sred, spivots = sm.rref()
        assert pivots == list(spivots)
        assert to_dense(red) == from_sympy(sred.tolist())
        assert m.rank() == sm.rank()
        assert m.kernel() == [vec_dict(v) for v in from_sympy([list(v) for v in sm.nullspace()])]
        # the kernel basis is in coordinate form: vector c is 1 at free column c, its last nonzero index, and
        # every other vector is 0 there, so sympy's solution of K x = v is v at the free columns
        kernel = m.kernel()
        free = [c for c in range(m.ncols) if c not in pivots]
        for c, v in enumerate(kernel):
            assert max(j for j, a in v.items() if a) == free[c]
            assert [u.get(free[c], 0) for u in kernel] == [F(d == c) for d in range(len(kernel))]
        if kernel:
            x = data.draw(st.lists(rationals, min_size=len(kernel), max_size=len(kernel)))
            vec = [sum((a * v.get(j, 0) for a, v in zip(x, kernel)), F(0)) for j in range(m.ncols)]
            sk = sympy.Matrix([[sympy.Rational(a.numerator, a.denominator) for a in vec_list(v, m.ncols)]
                               for v in kernel]).T
            sol, params = sk.gauss_jordan_solve(sympy.Matrix(vec))
            assert not params
            assert from_sympy(sol.T.tolist())[0] == [vec[c] for c in free] == x

    @given(fraction_matrices(square=True))
    @settings(max_examples=150, deadline=None)
    def test_det_inverse(self, m):
        sympy = pytest.importorskip("sympy")
        sm = to_sympy(sympy, m)
        sdet = sm.det()
        assert m.det() == F(int(sdet.p), int(sdet.q))
        if sdet:
            assert to_dense(m.inverse()) == from_sympy(sm.inv().tolist())
        else:
            with pytest.raises(ZeroDivisionError):
                m.inverse()

    @given(fraction_matrices().filter(lambda m: m.nrows != m.ncols))
    @settings(max_examples=30)
    def test_non_square_rejected(self, m):
        with pytest.raises(ValueError, match="not square"):
            m.inverse()
        with pytest.raises(ValueError, match="not square"):
            m.det()

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_ratfun_inverse_and_det(self, data):
        """The rational-function inverse that FracMatrix.inverse gives, against sympy at sample points.

        num / den is singular exactly when sympy's symbolic det(num) is 0.
        """
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        dim = data.draw(st.integers(1, 3))
        coeffs = st.lists(st.integers(-3, 3), max_size=3).map(Poly)
        den = data.draw(st.lists(st.sampled_from([F(0), F(1, 2), F(-2)]), max_size=2).map(Poly.from_roots))
        num = ExactMatrix(dim, dim)
        for i in range(dim):
            for j in range(dim):
                if data.draw(st.booleans()):
                    num.put(i, j, data.draw(coeffs))

        def to_expr(p):
            terms = (sympy.Rational(c.numerator, c.denominator) * x**d for d, c in enumerate(p.coeffs))
            return sum(terms, sympy.Integer(0))

        snum = sympy.Matrix(dim, dim, [to_expr(num.get(i, j) or Poly()) for i in range(dim) for j in range(dim)])
        if sympy.expand(snum.det()) == 0:
            with pytest.raises(ZeroDivisionError, match="matrix not invertible"):
                FracMatrix(num, den).inverse()
            return
        inv = FracMatrix(num, den).inverse()
        for t in (F(1), F(-1, 3), F(5, 2), F(7)):
            at_t = snum.subs(x, sympy.Rational(t.numerator, t.denominator))
            if den(t) == 0 or at_t.det() == 0:
                continue
            want = (at_t / sympy.Rational(den(t).numerator, den(t).denominator)).inv()
            got = [[(inv.num.get(i, j) or Poly())(t) / inv.den(t) for j in range(dim)] for i in range(dim)]
            assert got == from_sympy(want.tolist())


class TestJointEigenspaces:
    def test_jordan_block(self):
        j = dense([[5, 1], [0, 5]])
        (eig, gen), = joint_generalized_eigenspaces([j], [[F(5)]])
        assert len(eig) == 1 and len(gen) == 2

    def test_identity(self):
        i2 = ExactMatrix.identity(3)
        (eig, gen), = joint_generalized_eigenspaces([i2], [[F(1)]])
        assert len(eig) == 3 and len(gen) == 3

    def test_wrong_character(self):
        m = dense([[1, 0], [0, 2]])
        (eig, gen), = joint_generalized_eigenspaces([m], [[F(3)]])
        assert eig == [] and gen == []

    def test_noncommuting_rejected(self):
        a = dense([[0, 1], [0, 0]])
        b = dense([[0, 0], [1, 0]])
        with pytest.raises(ValueError, match="family not commutative: operators 0 and 1"):
            joint_generalized_eigenspaces([a, b], [[F(0), F(0)]])

    def test_pairs_with_a_scalar_are_not_multiplied(self, monkeypatch):
        # no pair is multiplied on its own: the whole family is tested at one Kronecker point, two
        # products however many pairs it has, and a failing pair is named by its positions in it
        a = dense([[0, 1], [0, 0]])
        b = dense([[0, 0], [1, 0]])
        products = []
        matmul = ExactMatrix.__matmul__
        monkeypatch.setattr(ExactMatrix, "__matmul__", lambda x, y: products.append(1) or matmul(x, y))
        family = [ExactMatrix.identity(2) * 3, a, ExactMatrix(2, 2), b]
        with pytest.raises(ValueError, match="family not commutative: operators 1 and 3"):
            joint_generalized_eigenspaces(family, [[F(3), F(0), F(0), F(0)]])
        assert len(products) == 2

    def test_a_family_with_one_non_scalar_is_not_multiplied(self, monkeypatch):
        # fewer than two non-scalar operators always commute: no product is formed, and every shifted
        # operator here is zero, so the eigenspaces need none either
        products = []
        matmul = ExactMatrix.__matmul__
        monkeypatch.setattr(ExactMatrix, "__matmul__", lambda x, y: products.append(1) or matmul(x, y))
        family = [ExactMatrix.identity(2) * 3, ExactMatrix(2, 2), ExactMatrix.identity(2)]
        (eig, gen), = joint_generalized_eigenspaces(family, [[F(3), F(0), F(1)]])
        assert len(eig) == len(gen) == 2 and products == []
        a = dense([[1, 1], [0, 2]])
        joint_generalized_eigenspaces([ExactMatrix.identity(2) * 3, a], [[F(3), F(5)]])
        assert len(products) == 1  # the Fitting power of a - 5, and no commutator

    def test_generalized_dims_fill_space(self):
        # commuting family with split characteristic polynomials: the sum of
        # generalized dimensions over all joint characters is the dimension
        a = dense([[2, 1, 0], [0, 2, 0], [0, 0, 7]])
        b = dense([[3, 0, 0], [0, 3, 0], [0, 0, 4]])
        chars = [[F(2), F(3)], [F(7), F(4)]]
        spaces = joint_generalized_eigenspaces([a, b], chars)
        assert sum(len(gen) for _, gen in spaces) == 3


def pow_dim_eigenspaces(ops, chars):
    """joint_generalized_eigenspaces with every shifted operator raised to the power dim (oracle)."""
    n = ops[0].nrows
    out = []
    for ch in chars:
        shifted = [op - ExactMatrix.identity(n) * c for op, c in zip(ops, ch)]
        out.append((ExactMatrix.vstack(shifted).kernel(), ExactMatrix.vstack([matrix_power(s, n) for s in shifted]).kernel()))
    return out


@st.composite
def jordan_families(draw):
    """A = P J P^-1 with Jordan blocks of size 1-4, B a polynomial in A, and characters to probe."""
    eigenvalues = [F(0), F(1), F(-2), F(1, 2)]
    blocks = draw(st.lists(st.tuples(st.sampled_from(eigenvalues), st.integers(1, 4)), min_size=1, max_size=3))
    n = sum(size for _, size in blocks)
    j = ExactMatrix(n, n)
    start = 0
    for lam, size in blocks:
        for k in range(start, start + size):
            j.put(k, k, lam)
            if k + 1 < start + size:
                j.put(k, k + 1, F(1))
        start += size
    # P = L U with unit triangular factors, so it is invertible
    lower, upper = ExactMatrix.identity(n), ExactMatrix.identity(n)
    for r in range(n):
        for c in range(r):
            lower.put(r, c, draw(small))
            upper.put(c, r, draw(small))
    p = lower @ upper
    a = p @ j @ p.inverse()
    c = draw(rationals)
    b = a @ a - a * c
    chars = [[lam, lam * lam - c * lam] for lam in sorted({lam for lam, _ in blocks})]
    chars.append([draw(rationals), draw(rationals)])
    return [a, b], chars, blocks


class TestFittingExponent:
    @given(jordan_families())
    @settings(max_examples=60, deadline=None)
    def test_matches_power_dim(self, family):
        ops, chars, blocks = family
        got = joint_generalized_eigenspaces(ops, chars)
        assert got == pow_dim_eigenspaces(ops, chars)
        for (lam, _), (eig, gen) in zip(chars[:-1], got):
            assert len(eig) == sum(1 for mu, _ in blocks if mu == lam)
            assert len(gen) == sum(size for mu, size in blocks if mu == lam)

    def test_nilpotent_block_of_size_four(self):
        shift = dense([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
        (eig, gen), = joint_generalized_eigenspaces([shift], [[F(0)]])
        assert len(eig) == 1 and len(gen) == 4


def pivot_value(found):
    """The pivot value lead / s of a SpanBasis._insert result (lead, s), or None."""
    return None if found is None else F(*found)


def field_span(m):
    span = FieldSpanBasis(m.ncols)
    leads = [span._insert(dict(m.rows.get(i, ()))) for i in range(m.nrows)]
    return span, leads


def field_rref(m):
    span, _ = field_span(m)
    order = sorted(range(len(span.pivots)), key=span.pivots.__getitem__)
    return [[span.rows[k].get(j, 0) for j in range(m.ncols)] for k in order], [span.pivots[k] for k in order]


def field_det(m):
    span, leads = field_span(m)
    if None in leads:
        return F(0)
    det = F(1)
    for lead in leads:
        det *= lead
    pivots = span.pivots
    inversions = sum(a > b for k, a in enumerate(pivots) for b in pivots[k + 1:])
    return -det if inversions % 2 else det


mixed = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-40, 40), st.sampled_from([1, 1, 2, 3, 4, 6, 7, 9, 12, 35])),
)


@st.composite
def mixed_operations(draw):
    """Adds and queries on vectors with mixed denominators, zero and dependent vectors among them."""
    length = draw(st.integers(1, 7))
    fresh = st.lists(mixed, min_size=length, max_size=length)
    added, ops = [], []
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "combination", "query"]))
        if kind == "zero":
            v = [F(0)] * length
        elif kind == "combination" and added:
            coefs = draw(st.lists(mixed, min_size=len(added), max_size=len(added)))
            v = [sum((c * w[j] for c, w in zip(coefs, added)), F(0)) for j in range(length)]
        else:
            v = draw(fresh)
        if kind == "query":
            ops.append(("query", v))
        else:
            added.append(v)
            ops.append(("add", v))
    return length, ops


@st.composite
def mixed_matrices(draw, square=False):
    nrows = draw(st.integers(0, 6))
    ncols = nrows if square else draw(st.integers(0, 6))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "combination"]))
        if kind == "combination" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            ca, cb = draw(mixed), draw(mixed)
            rows.append([ca * x + cb * y for x, y in zip(a, b)])
        elif kind == "zero":
            rows.append([F(0)] * ncols)
        else:
            rows.append(draw(st.lists(mixed, min_size=ncols, max_size=ncols)))
    return from_dense(rows) if rows else ExactMatrix(0, ncols)


class TestIntegerRowsAgainstFieldOracle:
    """The fraction-free SpanBasis against the field elimination it replaced."""

    @given(mixed_operations())
    @settings(max_examples=200, deadline=None)
    def test_spans_and_coordinates(self, case):
        length, ops = case
        span, oracle = SpanBasis(), FieldSpanBasis(length)
        queries = []
        for kind, v in ops:
            if kind == "add":
                sparse = {j: a for j, a in enumerate(v) if a}
                assert pivot_value(span._insert(dict(sparse))) == oracle._insert(dict(sparse))
            else:
                queries.append(v)
            assert span.pivots == oracle.pivots
            assert span.rows == oracle.rows
            # every query so far, again after each further add
            for w in queries:
                assert span.reduce(vec_dict(w)) == vec_dict(oracle.reduce(w))
                assert span.contains(vec_dict(w)) == (not any(oracle.reduce(w)))
                # the reduced rows are in coordinate form at their pivots: w in the span is sum w[p] row_p
                if span.contains(vec_dict(w)):
                    assert [sum(w[p] * row.get(j, 0) for p, row in zip(span.pivots, span.rows))
                            for j in range(length)] == w

    def test_oracle_reduces_int_vectors_exactly(self):
        # int entries enter the field oracle as Fractions, so a pivot 3 divides exactly
        oracle = FieldSpanBasis(3)
        assert oracle._insert({0: 3, 1: 1}) == 3
        reduced = oracle.reduce([1, 0, 1])
        assert reduced == [0, F(-1, 3), 1]
        assert all(type(a) is F for a in reduced + [a for row in oracle.rows for a in row.values()])

    @given(mixed_matrices())
    @settings(max_examples=150, deadline=None)
    def test_rref_rank_kernel(self, m):
        red, pivots = m.rref()
        want, want_pivots = field_rref(m)
        assert pivots == want_pivots
        assert to_dense(red)[: len(pivots)] == want
        assert m.rank() == len(want_pivots)
        kernel = m.kernel()
        assert len(kernel) == m.ncols - len(pivots)
        for v in kernel:
            assert not m.apply(v)
            assert [v.get(p, 0) for p in range(m.ncols) if p not in pivots].count(1) == 1

    @given(mixed_matrices(square=True))
    @settings(max_examples=150, deadline=None)
    def test_det_inverse(self, m):
        assert m.det() == field_det(m)
        want = field_inverse(m)
        if want is None:
            with pytest.raises(ZeroDivisionError, match="matrix not invertible"):
                m.inverse()
        else:
            assert to_dense(m.inverse()) == want


class TestFractionFree:
    @staticmethod
    def count_fractions(monkeypatch):
        """Count every Fraction built from here on (arithmetic results included)."""
        built = [0]
        real = F.__new__

        def counted(cls, *args, **kwargs):
            built[0] += 1
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(F, "__new__", counted)
        if hasattr(F, "_from_coprime_ints"):
            real_coprime = F._from_coprime_ints.__func__

            def counted_coprime(cls, *args):
                built[0] += 1
                return real_coprime(cls, *args)

            monkeypatch.setattr(F, "_from_coprime_ints", classmethod(counted_coprime))
        return built

    def test_integer_reduction_builds_at_most_two_fractions(self, monkeypatch):
        rng = random.Random(16)
        basis = [[F(rng.randint(-9, 9)) for _ in range(40)] for _ in range(30)]
        span = SpanBasis()
        for v in basis:
            span.add(vec_dict(v))
        assert span.dim == 30
        coefs = [rng.randint(-5, 5) for _ in basis]
        inside = vec_dict(sum((c * v[j] for c, v in zip(coefs, basis)), F(0)) for j in range(40))
        outside = vec_dict(F(rng.randint(-9, 9)) for _ in range(40))
        built = self.count_fractions(monkeypatch)
        for call, vec, want in ((span.contains, inside, True), (span.contains, outside, False), (span.add, outside, True)):
            before = built[0]
            assert call(vec) is want
            assert built[0] - before <= 2
        monkeypatch.undo()
        assert span.contains(outside) and span.dim == 31

    def test_counter_sees_fraction_arithmetic(self, monkeypatch):
        built = self.count_fractions(monkeypatch)
        x, y = F(1, 2), F(1, 3)
        before = built[0]
        x * y + x
        assert built[0] - before >= 2


class TestMixedEntries:
    """Entries of more than one kind: the first nonzero entry fixes a span's ring, anything else is refused."""

    def test_rational_row_before_ratfun_row(self):
        x = RatFun(Poly((0, 1)))
        m = ExactMatrix(2, 2, {0: {0: F(2), 1: F(1)}, 1: {1: x}})
        for eliminate in (m.det, m.inverse, m.rank):
            with pytest.raises(TypeError, match="rational entries only"):
                eliminate()
        with pytest.raises(TypeError, match="rational entries only"):
            ExactMatrix(1, 1, {0: {0: x}}).rank()

    def test_ring_is_fixed_by_the_first_entry(self):
        x = Poly((0, 1))
        span = SpanBasis()
        assert not span.add({0: F(0), 1: F(0)})  # a zero vector fixes nothing
        assert span.add({0: x, 1: x + 1})
        with pytest.raises(TypeError, match="Poly entries only"):
            span.add({0: F(1)})
        assert span.contains({0: x * x, 1: x * x + x}) and span.add({1: Poly((2,))})
        # back-substituted rows over Q[x]: primitive, monic pivots, 0 at the other pivot
        assert span.echelon_rows() == {0: {0: Poly((1,))}, 1: {1: Poly((1,))}}
        with pytest.raises(TypeError):
            span.rows  # dividing by the pivot is rational-only
        rational = SpanBasis()
        assert rational.add({0: F(1, 2)})
        with pytest.raises(TypeError, match="rational entries only"):
            rational.add({0: x, 1: F(1)})

    @pytest.mark.parametrize("empty", [0, 1])
    def test_fracmatrix_with_an_empty_row_is_not_invertible(self, empty):
        # the empty row of A inserts only its [A | 1] tag, a constant Poly
        x = Poly((0, 1))
        num = ExactMatrix(2, 2, {1 - empty: {0: x + 1, 1: x}})
        with pytest.raises(ZeroDivisionError, match="matrix not invertible"):
            FracMatrix(num, x).inverse()
