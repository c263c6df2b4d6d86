"""Dense views of ExactMatrix for the tests: nested lists in and out, columns, integer powers."""

from fractions import Fraction

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
