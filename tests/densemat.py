"""Test helpers: dense views of ExactMatrix, the entry-wise arithmetic and the field elimination oracle.

Dense views are nested lists in and out, columns and integer powers.  The
entry-wise sum, negation, scaling, product and entry map are ExactMatrix's
as they were before it went row by row: one put or add_to per entry, each
dropping a zero, and a product that filters every row.  The
oracle is SpanBasis as it was before it went fraction-free: reduced echelon
rows over any field, RatFun included, the inverse it gives and, with tagged
rows, coordinates in a family of vectors.
`from_ratfun` turns a matrix of RatFun entries into the FracMatrix with the
same entries, over the lcm of their denominators.
"""

from fractions import Fraction

from gl11chain.exactnum import Poly, RatFun
from gl11chain.fusion import FracMatrix
from gl11chain.linalg import ExactMatrix


def from_dense(data) -> ExactMatrix:
    """The matrix with these rows; int entries become Fractions, zeros are not stored."""
    nrows = len(data)
    m = ExactMatrix(nrows, len(data[0]) if nrows else 0)
    for i, row in enumerate(data):
        for j, v in enumerate(row):
            m.put(i, j, Fraction(v) if isinstance(v, int) else v)
    return m


def to_dense(m: ExactMatrix) -> list[list]:
    return [[m.get(i, j) for j in range(m.ncols)] for i in range(m.nrows)]


def column(m: ExactMatrix, j: int) -> list:
    return [m.get(i, j) for i in range(m.nrows)]


def matrix_power(m: ExactMatrix, n: int) -> ExactMatrix:
    """m^n by repeated squaring."""
    out, base = ExactMatrix.identity(m.nrows), m
    while n:
        if n & 1:
            out = out @ base
        base = base @ base if n > 1 else base
        n >>= 1
    return out


def entrywise_map(m: ExactMatrix, fn) -> ExactMatrix:
    out = ExactMatrix(m.nrows, m.ncols)
    for i, j, v in m.entries():
        out.put(i, j, fn(v))
    return out


def entrywise_add(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    out = a.copy()
    for i, j, v in b.entries():
        out.add_to(i, j, v)
    return out


def entrywise_neg(m: ExactMatrix) -> ExactMatrix:
    return entrywise_map(m, lambda v: -v)


def entrywise_scale(m: ExactMatrix, c) -> ExactMatrix:
    if isinstance(c, int):
        c = Fraction(c)
    if not c:
        return ExactMatrix(m.nrows, m.ncols)
    return entrywise_map(m, lambda v: v * c)


def entrywise_matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    out = ExactMatrix(a.nrows, b.ncols)
    for i, row in a.rows.items():
        acc = {}
        for k, x in row.items():
            for j, y in b.rows.get(k, {}).items():
                acc[j] = acc[j] + x * y if j in acc else x * y
        acc = {j: v for j, v in acc.items() if v}
        if acc:
            out.rows[i] = acc
    return out


class FieldSpanBasis:
    """SpanBasis on field entries, as it was before it went fraction-free (oracle).

    The rows stay in reduced echelon form: row i is 1 at pivots[i] and 0 at
    every other row's pivot, and each update is one field operation.
    """

    def __init__(self, length):
        self.length = length
        self.rows = []
        self.pivots = []
        self._row_at = {}

    def _reduced(self, v):
        """v reduced against the rows; int entries enter as Fractions, so no division leaves the field."""
        v = {j: Fraction(a) if isinstance(a, int) else a for j, a in v.items()}
        for p in [j for j in v if j in self._row_at]:
            field_eliminate(v, self._row_at[p], p)
        return v

    def _insert(self, v, end=None):
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
                field_eliminate(row, v, p)
        self.rows.append(v)
        self.pivots.append(p)
        self._row_at[p] = v
        return lead

    def reduce(self, vec):
        v = self._reduced({j: a for j, a in enumerate(vec) if a})
        return [v.get(j, Fraction(0)) for j in range(len(vec))]

    def add_tagged(self, vec, count):
        """Insert the sequence vec tagged with 1 in column length + count; True when it is independent.

        The count-th tagged vector carries in its tags the combination of
        tagged vectors it equals, as field_inverse tags [A | 1]; a dependent
        one is not stored and keeps coordinate 0.
        """
        row = {j: a for j, a in enumerate(vec) if a}
        row[self.length + count] = 1
        return self._insert(row, self.length) is not None

    def coordinates(self, vec, count):
        """x with sum_c x[c] * (c-th tagged vector) == vec, minus the tags of vec reduced; None outside the span."""
        v = self._reduced({j: a for j, a in enumerate(vec) if a})
        if any(j < self.length for j in v):
            return None
        out = [Fraction(0)] * count
        for j, a in v.items():
            out[j - self.length] = -a
        return out


def field_eliminate(dst, row, p):
    f = dst.pop(p)
    for j, b in row.items():
        if j != p:
            a = dst.get(j, Fraction(0)) - f * b
            if a:
                dst[j] = a
            else:
                dst.pop(j, None)


def field_inverse(m):
    """The inverse of the square matrix m as dense rows, by the field oracle; None when m is singular."""
    n = m.nrows
    span = FieldSpanBasis(2 * n)
    for i in range(n):
        row = dict(m.rows.get(i, ()))
        row[n + i] = Fraction(1)
        if span._insert(row, n) is None:
            return None
    out = [[Fraction(0)] * n for _ in range(n)]
    for row, p in zip(span.rows, span.pivots):
        for j, a in row.items():
            if j >= n:
                out[p][j - n] = a
    return out


def from_ratfun(m: ExactMatrix) -> FracMatrix:
    """Clear denominators: entries (RatFun, Poly or scalar) over their lcm."""
    ents = [(i, j, v if isinstance(v, RatFun) else RatFun(v)) for i, j, v in m.entries()]
    den = Poly((1,))
    for _, _, v in ents:
        if den % v.den:
            den = Poly.lcm(den, v.den)
    num = ExactMatrix(m.nrows, m.ncols)
    for i, j, v in ents:
        num.put(i, j, v.num if v.den == den else v.num * (den // v.den))
    return FracMatrix(num, den)


def ratfun_inverse(fm: FracMatrix) -> "FracMatrix | None":
    """The inverse of num / den by RatFun field elimination, over the lcm of its entry denominators (oracle)."""
    inv = field_inverse(fm.num.map_entries(lambda p: RatFun(p, fm.den)))
    return None if inv is None else from_ratfun(from_dense(inv))
