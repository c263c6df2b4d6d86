"""Sparse exact matrices and joint (generalized) eigenspace computation.

ExactMatrix stores a dict-of-rows {row: {col: entry}} and never stores zero
entries.  Entries are duck-typed: Fraction for numeric operators, Poly or
RatFun for operator-valued pencils.  Row reduction, kernels, inverses and
determinants require entries from a field (Fraction or RatFun), and every
one of them runs through the single sparse elimination of SpanBasis, which
touches only nonzero entries.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .exactnum import Scalar

Vector = list
_ZERO = Fraction(0)


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
        return self.rows.get(i, {}).get(j, _ZERO)

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
        row = self.rows.get(i)
        self.put(i, j, row[j] + v if row and j in row else v)

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
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError(f"shape mismatch: {self.nrows}x{self.ncols} + {other.nrows}x{other.ncols}")
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
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch: {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
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
        if self.nrows != self.ncols:
            raise ValueError(f"{self.nrows}x{self.ncols} matrix is not square")
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
            if b.ncols != ncols:
                raise ValueError(f"vstack blocks have {b.ncols} and {ncols} columns")
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

    # -- elimination (field entries), all through SpanBasis._insert ----------

    def rref(self) -> tuple["ExactMatrix", list[int]]:
        """Reduced row echelon form and pivot column list."""
        span = SpanBasis(self.ncols)
        for row in self.rows.values():
            span._insert(dict(row))
        order = sorted(range(span.dim), key=span.pivots.__getitem__)
        red = ExactMatrix(self.nrows, self.ncols, {r: span.rows[k] for r, k in enumerate(order)})
        return red, [span.pivots[k] for k in order]

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
        """Row-reduce [A | 1]; A is invertible exactly when every pivot lies in A."""
        if self.nrows != self.ncols:
            raise ValueError(f"{self.nrows}x{self.ncols} matrix is not square")
        n = self.nrows
        span = SpanBasis(2 * n)
        for i in range(n):
            row = dict(self.rows.get(i, ()))
            row[n + i] = Fraction(1)
            if span._insert(row, n) is None:
                raise ZeroDivisionError("matrix not invertible")
        out = ExactMatrix(n, n)
        for row, p in zip(span.rows, span.pivots):
            out.rows[p] = {j - n: a for j, a in row.items() if j >= n}
        return out

    def det(self):
        """Product of the rows' pivot values on insertion, signed by the row-to-pivot permutation."""
        if self.nrows != self.ncols:
            raise ValueError(f"{self.nrows}x{self.ncols} matrix is not square")
        span = SpanBasis(self.ncols)
        det = Fraction(1)
        for i in range(self.nrows):
            lead = span._insert(dict(self.rows.get(i, ())))
            if lead is None:
                return _ZERO
            det = lead * det
        pivots = span.pivots
        inversions = sum(a > b for k, a in enumerate(pivots) for b in pivots[k + 1:])
        return -det if inversions % 2 else det


# ---------------------------------------------------------------------------
# span bookkeeping and joint eigenspaces
# ---------------------------------------------------------------------------


class SpanBasis:
    """Incremental echelonized basis of a span of vectors (field entries).

    This is the one elimination routine of the package: ExactMatrix.rref,
    inverse and det insert their rows here.  The stored rows are sparse
    {col: value} dicts in reduced row echelon form.  Row i is 1 at
    pivots[i], its first nonzero column, and 0 at every other row's pivot.
    Reducing a vector therefore subtracts, once each, the rows whose pivots
    it touches, and inserting it subtracts it from the rows nonzero at its
    pivot, so the cost is the nonzeros touched, not the vector length.
    """

    def __init__(self, length: int):
        self.length = length
        self.rows: list[dict] = []
        self.pivots: list[int] = []
        self._row_at: dict[int, dict] = {}  # pivot column -> its row

    def _reduced(self, v: dict) -> dict:
        """Reduce the sparse vector v {col: value} in place and return it."""
        row_at = self._row_at
        for p in [j for j in v if j in row_at]:
            _eliminate(v, row_at[p], p)
        return v

    def _insert(self, v: dict, end: "int | None" = None):
        """Reduce the sparse vector v, then store it scaled to 1 at its pivot.

        Returns the pivot value before scaling, or None, storing nothing, when
        v reduces to 0 or when its pivot is not before column `end`.
        """
        v = self._reduced(v)
        if not v:
            return None
        p = min(v)
        if end is not None and p >= end:
            return None
        lead = v[p]
        v = {j: a / lead for j, a in v.items()}
        for row in self.rows:
            if p in row:
                _eliminate(row, v, p)
        self.rows.append(v)
        self.pivots.append(p)
        self._row_at[p] = v
        return lead

    def reduce(self, vec: Sequence) -> Vector:
        v = self._reduced(_sparse(vec))
        return [v.get(j, _ZERO) for j in range(len(vec))]

    def add(self, vec: Sequence) -> bool:
        """Insert vec into the span; returns True when it was independent."""
        return self._insert(_sparse(vec)) is not None

    def contains(self, vec: Sequence) -> bool:
        return not self._reduced(_sparse(vec))

    @property
    def dim(self) -> int:
        return len(self.rows)


def _sparse(vec: Sequence) -> dict:
    return {j: a for j, a in enumerate(vec) if a}


def _eliminate(dst: dict, row: dict, p: int) -> None:
    """dst -= dst[p] * row for a row that is 1 at p, on sparse dicts, zeros dropped."""
    f = dst.pop(p)
    for j, b in row.items():
        if j != p:
            a = dst.get(j)
            a = -f * b if a is None else a - f * b
            if a:
                dst[j] = a
            else:
                del dst[j]


class SpanCoordinates:
    """Coordinates of vectors in the span of the vectors added so far.

    The k-th added vector is stored as a SpanBasis row tagged with 1 in
    column length + k, as ExactMatrix.inverse tags [A | 1], so each stored
    row carries in its tags the combination of added vectors it equals.
    Reducing w leaves 0 on the first `length` columns exactly when w lies in
    the span, and then minus its coordinates in the tags.  A vector that
    depends on earlier ones is not stored and keeps coordinate 0, so a
    dependent family gets the solution whose dependent coordinates are 0.
    More vectors may be added after any query.
    """

    def __init__(self, length: int, vectors: Sequence[Sequence] = ()):
        self.length = length
        self.count = 0
        self._span = SpanBasis(length)
        for vec in vectors:
            self.add(vec)

    def add(self, vec: Sequence) -> bool:
        """Append vec; returns True when it is independent of the vectors before it."""
        row = _sparse(vec)
        row[self.length + self.count] = Fraction(1)
        self.count += 1
        return self._span._insert(row, self.length) is not None

    def coordinates(self, vec: Sequence) -> "Vector | None":
        """x with sum_k x[k] * (k-th added vector) == vec, or None when vec is outside the span."""
        v = self._span._reduced(_sparse(vec))
        out = [_ZERO] * self.count
        for j, a in v.items():
            if j < self.length:
                return None
            out[j - self.length] = -a
        return out


def joint_generalized_eigenspaces(
    ops: Sequence[ExactMatrix],
    chars: Sequence[Sequence[Scalar]],
) -> list[tuple[list[Vector], list[Vector]]]:
    """Per character: (eigenspace basis, generalized eigenspace basis).

    Operators must commute pairwise and be square on a common space.  Each
    shifted operator s is raised only to the first power j with
    rank(s^j) = rank(s^(j+1)): from there on the kernel of s^j no longer
    grows (Fitting's lemma), so it is the generalized kernel, the one that
    s^dim has.  Raises ValueError("family not commutative: operators i and j"),
    naming the first non-commuting pair, otherwise.
    """
    ops = list(ops)
    if not ops:
        raise ValueError("empty operator family")
    n = ops[0].nrows
    for op in ops:
        if not op.nrows == op.ncols == n:
            raise ValueError("operators must be square on one space")
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            if not ops[i].commutes_with(ops[j]):
                raise ValueError(f"family not commutative: operators {i} and {j}")
    out = []
    for ch in chars:
        if len(ch) != len(ops):
            raise ValueError("character length mismatch")
        shifted = [op - ExactMatrix.identity(n, Fraction(1)) * c for op, c in zip(ops, ch)]
        eig = ExactMatrix.vstack(shifted).kernel()
        gen = ExactMatrix.vstack([_fitting_power(s) for s in shifted]).kernel()
        out.append((eig, gen))
    return out


def _fitting_power(s: ExactMatrix) -> ExactMatrix:
    """s^j for the first j >= 1 with rank(s^j) = rank(s^(j+1))."""
    power, rank = s, s.rank()
    while True:
        nxt = power @ s
        nxt_rank = nxt.rank()
        if nxt_rank == rank:
            return power
        power, rank = nxt, nxt_rank
