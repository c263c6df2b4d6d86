import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl11chain.exactnum import Poly, RatFun
from gl11chain.linalg import ExactMatrix, SpanBasis, joint_generalized_eigenspaces, solve_in_span

rationals = st.builds(F, st.integers(-9, 9), st.integers(1, 4))


def dense(rows):
    return ExactMatrix.from_dense(rows)


class TestExactMatrix:
    def test_matmul_and_apply(self):
        a = dense([[1, 2], [3, 4]])
        b = dense([[0, 1], [1, 0]])
        assert (a @ b).to_dense() == [[2, 1], [4, 3]]
        assert a.apply([F(1), F(1)]) == [3, 7]

    def test_rank_nullity(self):
        m = dense([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
        assert m.rank() == 2
        assert len(m.kernel()) == 1
        v = m.kernel()[0]
        assert m.apply(v) == [0, 0, 0]

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
            assert sum(1 for x in v if x == 1) >= 1
        recon = dense([basis[i] for i in range(len(basis))])
        assert recon.rank() == len(basis)

    def test_inverse_det(self):
        m = dense([[2, 1], [1, 1]])
        assert (m @ m.inverse()).to_dense() == [[1, 0], [0, 1]]
        assert m.det() == 1
        assert dense([[1, 2], [2, 4]]).det() == 0

    def test_shape_mismatch_raises_under_optimize(self):
        # invariants are exceptions, not asserts, so they hold under python -O
        src = Path(__file__).resolve().parent.parent / "src"
        code = "from gl11chain.linalg import ExactMatrix as M; M.from_dense([[1, 2]]) @ M.from_dense([[1, 2]])"
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
        sparse, ref = SpanBasis(length), DenseEchelon()
        for v in vecs:
            assert sparse.add(v) == ref.add(v)
            assert sparse.dim == len(ref.rows)
            assert sparse.pivots == ref.pivots
            assert [[r.get(j, 0) for j in range(length)] for r in sparse.rows] == ref.rows
        for w in vecs + probes:
            red = ref.reduce(w)
            assert sparse.reduce(w) == red
            assert sparse.contains(w) == (not any(red))
            assert sparse.copy().reduce(w) == red
            coords = sparse.coordinates(w)
            if any(red):
                assert coords is None
            else:
                rows = sparse.rows
                assert [sum(c * r.get(j, 0) for c, r in zip(coords, rows)) for j in range(length)] == w

    def test_add_and_contains(self):
        s = SpanBasis(3)
        assert s.add([F(1), F(0), F(1)])
        assert not s.add([F(2), F(0), F(2)])
        assert s.add([F(0), F(1), F(0)])
        assert s.contains([F(3), F(5), F(3)])
        assert not s.contains([F(0), F(0), F(1)])

    def test_coordinates(self):
        s = SpanBasis(2)
        s.add([F(1), F(1)])
        s.add([F(1), F(-1)])
        c = s.coordinates([F(3), F(1)])
        assert c is not None


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


def to_sympy(sympy, m):
    return sympy.Matrix(m.nrows, m.ncols, [sympy.Rational(v.numerator, v.denominator) for row in m.to_dense() for v in row])


def from_sympy(rows):
    return [[F(int(v.p), int(v.q)) for v in row] for row in rows]


class TestSympyDifferential:
    """Every elimination against sympy's, on exact rationals."""

    @given(fraction_matrices(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_rref_rank_kernel_solve(self, m, data):
        sympy = pytest.importorskip("sympy")
        sm = to_sympy(sympy, m)
        red, pivots = m.rref()
        sred, spivots = sm.rref()
        assert pivots == list(spivots)
        assert red.to_dense() == from_sympy(sred.tolist())
        assert m.rank() == sm.rank()
        assert m.kernel() == from_sympy([list(v) for v in sm.nullspace()])
        inside = m.apply(data.draw(st.lists(rationals, min_size=m.ncols, max_size=m.ncols)))
        outside = data.draw(st.lists(rationals, min_size=m.nrows, max_size=m.nrows))
        for vec in (inside, outside):
            coords = solve_in_span(m, vec)
            svec = sympy.Matrix(m.nrows, 1, [sympy.Rational(v.numerator, v.denominator) for v in vec])
            if sm.row_join(svec).rank() > sm.rank():
                assert coords is None
            else:
                assert coords is not None and m.apply(coords) == vec
                if m.ncols:
                    sol, params = sm.gauss_jordan_solve(svec)
                    sol = sol.subs({p: 0 for p in params})
                    assert coords == from_sympy(sol.T.tolist())[0]

    @given(fraction_matrices(square=True))
    @settings(max_examples=150, deadline=None)
    def test_det_inverse(self, m):
        sympy = pytest.importorskip("sympy")
        sm = to_sympy(sympy, m)
        sdet = sm.det()
        assert m.det() == F(int(sdet.p), int(sdet.q))
        if sdet:
            assert m.inverse().to_dense() == from_sympy(sm.inv().tolist())
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
        """The RatFun path that FracMatrix.inverse and the Berezinian take."""
        sympy = pytest.importorskip("sympy")
        dim = data.draw(st.integers(1, 3))
        coeffs = st.lists(st.integers(-3, 3), max_size=3).map(Poly)
        dens = st.lists(st.sampled_from([F(0), F(1, 2), F(-2)]), max_size=2).map(Poly.from_roots)
        m = ExactMatrix(dim, dim)
        for i in range(dim):
            for j in range(dim):
                if data.draw(st.booleans()):
                    m.put(i, j, RatFun(data.draw(coeffs), data.draw(dens)))
        det = m.det()
        det = det if isinstance(det, RatFun) else RatFun(det)
        for t in (F(1), F(-1, 3), F(5, 2)):
            try:
                at_t = [[v(t) if isinstance(v, RatFun) else v for v in row] for row in m.to_dense()]
            except ZeroDivisionError:
                continue  # a pole of some entry
            sdet = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row] for row in at_t]).det()
            assert det(t) == F(int(sdet.p), int(sdet.q))
        if det:
            assert m @ m.inverse() == ExactMatrix.identity(dim)
        else:
            with pytest.raises(ZeroDivisionError):
                m.inverse()


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
        with pytest.raises(ValueError, match="family not commutative"):
            joint_generalized_eigenspaces([a, b], [[F(0), F(0)]])

    def test_generalized_dims_fill_space(self):
        # commuting family with split characteristic polynomials: the sum of
        # generalized dimensions over all joint characters is the dimension
        a = dense([[2, 1, 0], [0, 2, 0], [0, 0, 7]])
        b = dense([[3, 0, 0], [0, 3, 0], [0, 0, 4]])
        chars = [[F(2), F(3)], [F(7), F(4)]]
        spaces = joint_generalized_eigenspaces([a, b], chars)
        assert sum(len(gen) for _, gen in spaces) == 3
