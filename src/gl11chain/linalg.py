"""Sparse exact matrices and joint (generalized) eigenspace computation.

ExactMatrix stores a dict-of-rows {row: {col: entry}} and never stores zero
entries.  Entries are duck-typed: Fraction for numeric operators, Poly or
RatFun for operator-valued pencils.  Row reduction, kernels, inverses and
determinants require entries from a field (Fraction or RatFun).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .exactnum import Scalar

Vector = list


class ExactMatrix:
    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows=None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows: dict[int, dict[int, object]] = rows if rows is not None else {}

    # -- constructors ----------------------------------------------------

    @staticmethod
    def identity(n: int, one=Fraction(1)) -> "ExactMatrix":
        return ExactMatrix(n, n, {i: {i: one} for i in range(n)})

    @staticmethod
    def from_dense(data: Sequence[Sequence]) -> "ExactMatrix":
        nrows = len(data)
        ncols = len(data[0]) if nrows else 0
        m = ExactMatrix(nrows, ncols)
        for i, row in enumerate(data):
            for j, v in enumerate(row):
                if isinstance(v, int):
                    v = Fraction(v)
                if v:
                    m.put(i, j, v)
        return m

    @staticmethod
    def from_columns(cols: Sequence[Vector], nrows: int) -> "ExactMatrix":
        m = ExactMatrix(nrows, len(cols))
        for j, col in enumerate(cols):
            for i, v in enumerate(col):
                if v:
                    m.put(i, j, v)
        return m

    def copy(self) -> "ExactMatrix":
        return ExactMatrix(self.nrows, self.ncols, {i: dict(r) for i, r in self.rows.items()})

    # -- element access ---------------------------------------------------

    def get(self, i: int, j: int):
        return self.rows.get(i, {}).get(j, Fraction(0))

    def put(self, i: int, j: int, v) -> None:
        if v:
            self.rows.setdefault(i, {})[j] = v
        else:
            row = self.rows.get(i)
            if row and j in row:
                del row[j]
                if not row:
                    del self.rows[i]

    def add_to(self, i: int, j: int, v) -> None:
        self.put(i, j, self.get(i, j) + v)

    def entries(self):
        for i, row in self.rows.items():
            for j, v in row.items():
                yield i, j, v

    def nnz(self) -> int:
        return sum(len(r) for r in self.rows.values())

    def is_zero(self) -> bool:
        return not self.rows

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    __hash__ = None  # mutable

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        assert self.nrows == other.nrows and self.ncols == other.ncols
        out = self.copy()
        for i, j, v in other.entries():
            out.add_to(i, j, v)
        return out

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self + (-other)

    def __neg__(self) -> "ExactMatrix":
        return self.map_entries(lambda v: -v)

    def __mul__(self, c) -> "ExactMatrix":
        if isinstance(c, ExactMatrix):
            raise TypeError("use @ for matrix products")
        if isinstance(c, int):
            c = Fraction(c)
        if not c:
            return ExactMatrix(self.nrows, self.ncols)
        return self.map_entries(lambda v: v * c)

    __rmul__ = __mul__

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        assert self.ncols == other.nrows, "shape mismatch"
        out = ExactMatrix(self.nrows, other.ncols)
        orows = other.rows
        for i, row in self.rows.items():
            acc: dict[int, object] = {}
            for k, a in row.items():
                brow = orows.get(k)
                if not brow:
                    continue
                for j, b in brow.items():
                    p = a * b
                    if j in acc:
                        acc[j] = acc[j] + p
                    else:
                        acc[j] = p
            acc = {j: v for j, v in acc.items() if v}
            if acc:
                out.rows[i] = acc
        return out

    def pow(self, n: int) -> "ExactMatrix":
        assert self.nrows == self.ncols
        out = ExactMatrix.identity(self.nrows)
        base = self
        while n:
            if n & 1:
                out = out @ base
            base = base @ base if n > 1 else base
            n >>= 1
        return out

    def commutes_with(self, other: "ExactMatrix") -> bool:
        return (self @ other) == (other @ self)

    # -- structural ops -------------------------------------------------------

    def transpose(self) -> "ExactMatrix":
        out = ExactMatrix(self.ncols, self.nrows)
        for i, j, v in self.entries():
            out.put(j, i, v)
        return out

    def map_entries(self, fn: Callable) -> "ExactMatrix":
        out = ExactMatrix(self.nrows, self.ncols)
        for i, j, v in self.entries():
            out.put(i, j, fn(v))
        return out

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "ExactMatrix":
        rpos = {r: i for i, r in enumerate(rows)}
        cpos = {c: j for j, c in enumerate(cols)}
        out = ExactMatrix(len(rows), len(cols))
        for i, j, v in self.entries():
            if i in rpos and j in cpos:
                out.put(rpos[i], cpos[j], v)
        return out

    @staticmethod
    def vstack(blocks: Sequence["ExactMatrix"]) -> "ExactMatrix":
        ncols = blocks[0].ncols
        out = ExactMatrix(sum(b.nrows for b in blocks), ncols)
        base = 0
        for b in blocks:
            assert b.ncols == ncols
            for i, j, v in b.entries():
                out.put(base + i, j, v)
            base += b.nrows
        return out

    def apply(self, vec: Sequence) -> Vector:
        out = [Fraction(0)] * self.nrows
        for i, row in self.rows.items():
            acc = None
            for j, a in row.items():
                v = vec[j]
                if v:
                    acc = a * v if acc is None else acc + a * v
            if acc is not None:
                out[i] = acc
        return out

    def column(self, j: int) -> Vector:
        return [self.get(i, j) for i in range(self.nrows)]

    def to_dense(self) -> list[list]:
        return [[self.get(i, j) for j in range(self.ncols)] for i in range(self.nrows)]

    def __repr__(self):
        return f"ExactMatrix({self.nrows}x{self.ncols}, nnz={self.nnz()})"

    # -- elimination (field entries) -----------------------------------------

    def rref(self) -> tuple["ExactMatrix", list[int]]:
        """Reduced row echelon form and pivot column list."""
        m = self.to_dense()
        nr, nc = self.nrows, self.ncols
        pivots = []
        r = 0
        for c in range(nc):
            pr = None
            for i in range(r, nr):
                if m[i][c]:
                    pr = i
                    break
            if pr is None:
                continue
            m[r], m[pr] = m[pr], m[r]
            inv = m[r][c]
            m[r] = [v / inv for v in m[r]]
            for i in range(nr):
                if i != r and m[i][c]:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == nr:
                break
        return ExactMatrix.from_dense(m), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel(self) -> list[Vector]:
        """Basis of the right kernel, in reduced echelon form."""
        red, pivots = self.rref()
        pivset = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivset]
        basis = []
        for fc in free:
            v = [Fraction(0)] * self.ncols
            v[fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                coef = red.get(r, fc)
                if coef:
                    v[pc] = -coef
            basis.append(v)
        return basis

    def inverse(self) -> "ExactMatrix":
        assert self.nrows == self.ncols
        n = self.nrows
        m = self.to_dense()
        aug = [row + [Fraction(1) if i == j else Fraction(0) for j in range(n)] for i, row in enumerate(m)]
        for c in range(n):
            pr = None
            for i in range(c, n):
                if aug[i][c]:
                    pr = i
                    break
            if pr is None:
                raise ZeroDivisionError("matrix not invertible")
            aug[c], aug[pr] = aug[pr], aug[c]
            inv = aug[c][c]
            aug[c] = [v / inv for v in aug[c]]
            for i in range(n):
                if i != c and aug[i][c]:
                    f = aug[i][c]
                    aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
        return ExactMatrix.from_dense([row[n:] for row in aug])

    def det(self):
        assert self.nrows == self.ncols
        n = self.nrows
        m = self.to_dense()
        det = Fraction(1)
        for c in range(n):
            pr = None
            for i in range(c, n):
                if m[i][c]:
                    pr = i
                    break
            if pr is None:
                return Fraction(0) * det
            if pr != c:
                m[c], m[pr] = m[pr], m[c]
                det = -det
            det = det * m[c][c]
            inv = m[c][c]
            for i in range(c + 1, n):
                if m[i][c]:
                    f = m[i][c] / inv
                    m[i] = [a - f * b for a, b in zip(m[i], m[c])]
        return det


# ---------------------------------------------------------------------------
# span bookkeeping and joint eigenspaces
# ---------------------------------------------------------------------------


class SpanBasis:
    """Incremental echelonized basis of a span of vectors (field entries)."""

    def __init__(self, length: int):
        self.length = length
        self.rows: list[Vector] = []
        self.pivots: list[int] = []

    def reduce(self, vec: Sequence) -> Vector:
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            if v[p]:
                f = v[p]
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def add(self, vec: Sequence) -> bool:
        """Insert vec into the span; returns True when it was independent."""
        v = self.reduce(vec)
        p = next((i for i, a in enumerate(v) if a), None)
        if p is None:
            return False
        inv = v[p]
        v = [a / inv for a in v]
        for i, (row, q) in enumerate(zip(self.rows, self.pivots)):
            if row[p]:
                f = row[p]
                self.rows[i] = [a - f * b for a, b in zip(row, v)]
        self.rows.append(v)
        self.pivots.append(p)
        return True

    def contains(self, vec: Sequence) -> bool:
        return all(not a for a in self.reduce(vec))

    def coordinates(self, vec: Sequence) -> "Vector | None":
        """Coefficients expressing vec in the stored basis, or None."""
        v = list(vec)
        coords = [Fraction(0)] * len(self.rows)
        for i, (row, p) in enumerate(zip(self.rows, self.pivots)):
            if v[p]:
                f = v[p]
                coords[i] = f
                v = [a - f * b for a, b in zip(v, row)]
        if any(v):
            return None
        return coords

    @property
    def dim(self) -> int:
        return len(self.rows)


def solve_in_span(basis_matrix: ExactMatrix, vec: Sequence):
    """Coordinates x with basis_matrix @ x = vec, or None when vec is outside the column span."""
    aug = ExactMatrix(basis_matrix.nrows, basis_matrix.ncols + 1)
    for i, j, v in basis_matrix.entries():
        aug.put(i, j, v)
    for i, v in enumerate(vec):
        aug.put(i, basis_matrix.ncols, v)
    red, pivots = aug.rref()
    if basis_matrix.ncols in pivots:
        return None
    coords = [Fraction(0)] * basis_matrix.ncols
    for r, pc in enumerate(pivots):
        coords[pc] = red.get(r, basis_matrix.ncols)
    return coords


def intersect_kernels(mats: Iterable[ExactMatrix]) -> list[Vector]:
    mats = list(mats)
    if not mats:
        raise ValueError("empty matrix family")
    return ExactMatrix.vstack(mats).kernel()


def joint_generalized_eigenspaces(
    ops: Sequence[ExactMatrix],
    chars: Sequence[Sequence[Scalar]],
) -> list[tuple[list[Vector], list[Vector]]]:
    """Per character: (eigenspace basis, generalized eigenspace basis).

    Operators must commute pairwise and be square on a common space; the
    generalized kernel exponent is fixed at the space dimension, which always
    suffices.  Raises ValueError("family not commutative") otherwise.
    """
    ops = list(ops)
    if not ops:
        raise ValueError("empty operator family")
    n = ops[0].nrows
    for op in ops:
        assert op.nrows == op.ncols == n, "operators must be square on one space"
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            if not ops[i].commutes_with(ops[j]):
                raise ValueError("family not commutative")
    out = []
    for ch in chars:
        assert len(ch) == len(ops), "character length mismatch"
        shifted = [op - ExactMatrix.identity(n, Fraction(1)) * c for op, c in zip(ops, ch)]
        eig = intersect_kernels(shifted)
        gen = intersect_kernels([s.pow(n) for s in shifted])
        out.append((eig, gen))
    return out
