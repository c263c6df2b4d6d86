"""Sparse exact matrices and joint (generalized) eigenspace computation.

ExactMatrix stores a dict-of-rows {row: {col: entry}} and never stores zero
entries.  Entries are duck-typed: Fraction for numeric operators, Poly for
operator-valued pencils.  Sums, negations, scalings and products are built
row by row, with no call per entry.  Every entry type (int, Fraction, Poly,
weylspace's MPoly) is a domain, so the product of two stored entries, or of
one and a nonzero scalar, is never zero: @ filters zeros only in a row where
two terms met at one column, and + only where two entries met.  Row
reduction, kernels, inverses, determinants and spans all run through
SpanBasis, one sparse fraction-free elimination over a gcd domain: primitive
integer rows for rational input, primitive Q[x] rows for Poly input
(FracMatrix.inverse).  It touches only nonzero entries.
A vector is a sparse {index: nonzero entry} dict, in and out: `apply` drops
the sums that cancel, and a kernel basis is in coordinate form, so
coordinates in it are read at its free columns (bethe.restrict_operators),
not solved for.

The Kronecker codec (D. Harvey, J. Symbolic Comput. 44 (2009)) decides an
identity between products of polynomial matrices at one integer point, and
first_noncommuting every commutation identity of the package with it.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Callable, NamedTuple, Sequence

from .exactnum import Poly, Scalar

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

    def is_scalar(self) -> bool:
        """A multiple of the identity, zero included; a non-square matrix is not one."""
        if self.nrows != self.ncols:
            return False
        c = self.get(0, 0)
        return not self.rows or self.rows == {i: {i: c} for i in range(self.nrows)}

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
        rows = {i: dict(r) for i, r in self.rows.items()}
        for i, orow in other.rows.items():
            row = rows.get(i)
            if row is None:
                rows[i] = dict(orow)
                continue
            for j, v in orow.items():
                if j in row:
                    v = row[j] + v
                    if not v:
                        del row[j]
                        continue
                row[j] = v
            if not row:
                del rows[i]
        return ExactMatrix(self.nrows, self.ncols, rows)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self + (-other)

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix(self.nrows, self.ncols, {i: {j: -v for j, v in r.items()} for i, r in self.rows.items()})

    def __mul__(self, c) -> "ExactMatrix":
        if isinstance(c, ExactMatrix):
            raise TypeError("use @ for matrix products")
        if isinstance(c, int):
            c = Fraction(c)
        if not c:
            return ExactMatrix(self.nrows, self.ncols)
        if c == 1:
            return self.copy()
        return ExactMatrix(self.nrows, self.ncols, {i: {j: v * c for j, v in r.items()} for i, r in self.rows.items()})

    __rmul__ = __mul__

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch: {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        out = ExactMatrix(self.nrows, other.ncols)
        orows = other.rows
        for i, row in self.rows.items():
            acc: dict[int, object] = {}
            met = False  # two terms met at one column, so the row may hold a zero sum
            for k, a in row.items():
                brow = orows.get(k)
                if not brow:
                    continue
                for j, b in brow.items():
                    if j in acc:
                        acc[j] += a * b
                        met = True
                    else:
                        acc[j] = a * b
            if met:
                acc = {j: v for j, v in acc.items() if v}
            if acc:
                out.rows[i] = acc
        return out

    # -- structural ops -------------------------------------------------------

    def transpose(self) -> "ExactMatrix":
        out = ExactMatrix(self.ncols, self.nrows)
        for i, j, v in self.entries():
            out.rows.setdefault(j, {})[i] = v
        return out

    def map_entries(self, fn: Callable) -> "ExactMatrix":
        """The matrix of fn(v) over the stored entries v; the zero values are not stored."""
        rows = {}
        for i, r in self.rows.items():
            row = {j: w for j, v in r.items() if (w := fn(v))}
            if row:
                rows[i] = row
        return ExactMatrix(self.nrows, self.ncols, rows)

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

    def apply(self, vec: dict) -> dict:
        """The vector self vec: {row: sum}, a sum that cancels not stored."""
        out = {}
        for i, row in self.rows.items():
            acc = None
            for j, a in row.items():
                if j in vec:
                    acc = a * vec[j] if acc is None else acc + a * vec[j]
            if acc:
                out[i] = acc
        return out

    def __repr__(self):
        return f"ExactMatrix({self.nrows}x{self.ncols}, nnz={self.nnz()})"

    # -- elimination, all through SpanBasis._insert -----------------------------

    def _span(self) -> "SpanBasis":
        span = SpanBasis()
        for row in self.rows.values():
            span._insert(row)
        return span

    def rref(self) -> tuple["ExactMatrix", list[int]]:
        """Reduced row echelon form and pivot column list."""
        rows = self._span().echelon_rows()
        pivots = sorted(rows)
        red = {r: {j: Fraction(a, rows[p][p]) for j, a in rows[p].items()} for r, p in enumerate(pivots)}
        return ExactMatrix(self.nrows, self.ncols, red), pivots

    def rank(self) -> int:
        return self._span().dim

    def kernel(self) -> list[dict]:
        """Basis of the right kernel, in reduced echelon form.

        Vector c is 1 at the c-th free column, its last nonzero index, where
        every other vector has no entry: the basis is in coordinate form.
        """
        red, pivots = self.rref()
        pivset = set(pivots)
        basis = []
        for fc in range(self.ncols):
            if fc not in pivset:
                v = {pc: -a for r, pc in enumerate(pivots) if (a := red.get(r, fc))}
                v[fc] = Fraction(1)
                basis.append(v)
        return basis

    def augmented_span(self, one=Fraction(1)) -> "SpanBasis":
        """The span of the rows of [A | one * 1]; ZeroDivisionError unless every pivot lies in A."""
        if self.nrows != self.ncols:
            raise ValueError(f"{self.nrows}x{self.ncols} matrix is not square")
        n = self.nrows
        span = SpanBasis()
        for i in range(n):
            row = dict(self.rows.get(i, ()))
            row[n + i] = one
            if span._insert(row, n) is None:
                raise ZeroDivisionError("matrix not invertible")
        return span

    def inverse(self) -> "ExactMatrix":
        """Row-reduce [A | 1]: row p of the inverse is the tag part of the reduced row with pivot p."""
        n, rows = self.nrows, self.augmented_span().echelon_rows()
        tags = {p: {j - n: Fraction(a, r[p]) for j, a in r.items() if j >= n} for p, r in rows.items()}
        return ExactMatrix(n, n, tags)

    def det(self):
        """Product of the rows' pivot values on insertion, signed by the row-to-pivot permutation."""
        if self.nrows != self.ncols:
            raise ValueError(f"{self.nrows}x{self.ncols} matrix is not square")
        span = SpanBasis()
        det = Fraction(1)
        for i in range(self.nrows):
            found = span._insert(self.rows.get(i, {}))
            if found is None:
                return _ZERO
            det = Fraction(*found) * det
        pivots = span.pivots
        inversions = sum(a > b for k, a in enumerate(pivots) for b in pivots[k + 1:])
        return -det if inversions % 2 else det


# ---------------------------------------------------------------------------
# span bookkeeping, the Kronecker codec and joint eigenspaces
# ---------------------------------------------------------------------------


class SpanBasis:
    """Incremental echelon basis of a span of vectors.

    The one elimination of the package (ExactMatrix.rref, inverse and det
    and FracMatrix.inverse insert their rows here), fraction-free after E. H.
    Bareiss (Math. Comp. 22, 1968) over the gcd domain fixed by the first
    nonzero entry: the integers for rational entries, each vector cleared by
    the lcm of its denominators, or Q[x] for Poly entries; any other entry
    raises TypeError.  Rows are sparse {col: value} dicts, primitive with a
    positive or monic pivot pivots[i], in echelon form.  A reduction visits
    pivots in increasing order, each step v <- b v - a row with a = v[p],
    b = row[p] and gcd(a, b) taken out; the denominator times the product of
    the b's is its one scale s.  `rows`, `reduce` and pivot values divide by
    s or a pivot, so they take rational entries only.
    """

    def __init__(self):
        self.pivots: list[int] = []
        self._row_at: dict[int, dict] = {}  # pivot column -> its row
        self._ring: "_Ring | None" = None
        self._echelon: "dict[int, dict] | None" = None

    def echelon_rows(self) -> dict[int, dict]:
        """Pivot -> its row reduced at every other pivot, primitive again, over the span's ring."""
        if self._echelon is None:
            done: dict[int, dict] = {}
            for p in sorted(self.pivots, reverse=True):
                w = dict(self._row_at[p])
                _reduce(w, done, self._ring.gcd)
                done[p] = self._ring.primitive(w)
            self._echelon = done
        return self._echelon

    @property
    def rows(self) -> list[dict]:
        """The rows in reduced echelon form, 1 at their pivots, in insertion order."""
        done = self.echelon_rows()
        return [{j: Fraction(a, done[p][p]) for j, a in done[p].items()} for p in self.pivots]

    def _reduced(self, v: dict) -> tuple[dict, object]:
        """(w, s) with w / s the sparse vector v reduced against the rows, w and s over the span's ring.

        v is left as it is; its zero entries are dropped (a value at a point, as weylspace takes them, can be 0).
        """
        v = {j: a for j, a in v.items() if a}
        if self._ring is None:
            if not v:
                return v, 1
            self._ring = _POLYNOMIALS if isinstance(next(iter(v.values())), Poly) else _INTEGERS
        w, den = self._ring.clear(v)
        return w, den * _reduce(w, self._row_at, self._ring.gcd)

    def _insert(self, v: dict, end: "int | None" = None):
        """Reduce the sparse vector v, then store it.

        Returns (lead, s), the pivot value lead / s of the reduced vector,
        or None, storing nothing, when v reduces to 0 or when its pivot is
        not before column `end`.
        """
        w, s = self._reduced(v)
        if not w:
            return None
        p = min(w)
        if end is not None and p >= end:
            return None
        lead = w[p]
        self.pivots.append(p)
        self._row_at[p] = self._ring.primitive(w)
        self._echelon = None
        return lead, s

    def reduce(self, vec: dict) -> dict:
        """vec reduced against the rows."""
        w, s = self._reduced(vec)
        return {j: Fraction(a, s) for j, a in w.items()}

    def add(self, vec: dict) -> bool:
        """Insert vec; returns True when it was independent."""
        return self._insert(vec) is not None

    def contains(self, vec: dict) -> bool:
        return not self._reduced(vec)[0]

    @property
    def dim(self) -> int:
        return len(self.pivots)


def _reduce(v: dict, row_at: dict, gcd: Callable):
    """Cancel, in place, the vector v at the pivots of the echelon rows row_at.

    Pivots are visited in increasing order, each step v <- b v - a row with
    a = v[p] and b = row[p] divided by gcd(a, b); a step fills only columns
    after p.  Returns s, the product of the b's: v ends as s times the old v
    minus a combination of the rows.
    """
    heap = [j for j in v if j in row_at]
    heapify(heap)
    scale = 1
    while heap:
        p = heappop(heap)
        a = v.pop(p, 0)
        if not a:
            continue  # pushed twice, or cancelled since
        row = row_at[p]
        b = row[p]
        g = gcd(a, b)
        if g != 1:
            a //= g
            b //= g
        if b != 1:
            scale *= b
            for j in v:
                v[j] *= b
        for j, x in row.items():
            if j != p:
                y = v.get(j)
                if y is None:
                    v[j] = -a * x
                    if j in row_at:
                        heappush(heap, j)
                else:
                    y -= a * x
                    if y:
                        v[j] = y
                    else:
                        del v[j]
    return scale


class _Ring(NamedTuple):
    """A span's gcd domain: how a vector enters it, its gcd, and the primitive row of a vector."""
    clear: Callable
    gcd: Callable
    primitive: Callable


def _clear_rational(v: dict) -> tuple[dict, int]:
    """(w, den): the rational vector v times the lcm den of its denominators, on ints."""
    try:
        den = lcm(*(a.denominator for a in v.values()))
    except AttributeError:
        raise TypeError("a span of rational vectors takes rational entries only") from None
    return {j: a.numerator * (den // a.denominator) for j, a in v.items()}, den


def _primitive_int(w: dict) -> dict:
    """The nonzero integer vector w divided by its content, signed so its first entry is positive."""
    c = gcd(*w.values())
    if w[min(w)] < 0:
        c = -c
    return w if c == 1 else {j: a // c for j, a in w.items()}


def _clear_poly(v: dict) -> tuple[dict, int]:
    """(v, 1) for a vector of Poly entries."""
    if not all(isinstance(a, Poly) for a in v.values()):
        raise TypeError("a span of Poly vectors takes Poly entries only")
    return v, 1


def _primitive_poly(w: dict) -> dict:
    """The nonzero Poly vector w divided by the gcd of its entries and the constant that makes it monic at its pivot."""
    entries = iter(w.values())
    g = next(entries)
    for a in entries:
        if g.degree == 0:
            break
        g = Poly.gcd(g, a)
    c = g.monic() * w[min(w)].leading()
    return w if c == 1 else {j: a // c for j, a in w.items()}


_INTEGERS = _Ring(_clear_rational, gcd, _primitive_int)
_POLYNOMIALS = _Ring(_clear_poly, Poly.gcd, _primitive_poly)


def slot_width(bound: int) -> int:
    """The least w with 2^(w-1) > bound: a w-bit slot holds every c with |c| <= bound."""
    return bound.bit_length() + 1


def kronecker_values(mats, terms: int, spans=(1,)) -> tuple[int, list[list[ExactMatrix]]]:
    """w and the integer matrices D * m(2^(w s)) for each s in spans and m in mats.

    Each m is a square matrix with Poly or rational entries, or the list of
    rational x^d coefficient matrices of one; D is the lcm of every
    denominator.  The w-bit slots of a sum of `terms` products of two values
    are the coefficients of D^2 times the same sum of polynomial products, each
    at most terms * dim * M^2 (M the largest cleared coefficient) when the two
    factors of every product are read at different spans or one is constant in
    x.  Two polynomials in one variable sum up to min(len) coefficient products.
    """
    lists = [[m] if isinstance(m, ExactMatrix) else m for m in mats]
    # each entry as (d, i, j, numerators, denominator), d its power of x
    cells = [[(d, i, j, *((v.nums, v.denom) if isinstance(v, Poly) else ((v.numerator,), v.denominator)))
              for d, c in enumerate(cs) for i, j, v in c.entries()] for cs in lists]
    den = lcm(1, *(q for cs in cells for *_, q in cs))
    big = max((abs(n) * (den // q) for cs in cells for *_, nums, q in cs for n in nums), default=0)
    w = slot_width(terms * lists[0][0].nrows * big * big)
    out = []
    for s in spans:
        out.append(values := [ExactMatrix(cs[0].nrows, cs[0].ncols) for cs in lists])
        for value, cs in zip(values, cells):
            for d, i, j, nums, q in cs:  # Horner at 2^(w s)
                v = functools.reduce(lambda acc, n: (acc << w * s) + n, reversed(nums), 0)
                value.add_to(i, j, v * (den // q) << w * s * d)
    return w, out


def kronecker_slots(value: int, w: int) -> list[int]:
    """The slots c_0, c_1, ... of value = sum_t c_t 2^(w t), |c_t| < 2^(w-1), up to the last nonzero one.

    They are unique: the lowest nonzero slot is the residue of value mod 2^w
    in [-2^(w-1), 2^(w-1)), so a zero value has none.
    """
    out, half = [], 1 << (w - 1)
    while value:
        out.append(((value + half) & ((1 << w) - 1)) - half)
        value = (value - out[-1]) >> w
    return out


def product_slots(terms, w: int) -> set[int]:
    """The slots nonzero in some entry of sum c * (a @ b) over terms (c, a, b) of integer matrices, c = 0 skipped."""
    total: dict[tuple[int, int], int] = {}
    for c, a, b in terms:
        for i, j, v in (a @ b).entries() if c else ():
            total[i, j] = total.get((i, j), 0) + c * v
    return {t for v in total.values() for t, s in enumerate(kronecker_slots(v, w)) if s}


def first_noncommuting(p, q) -> "tuple[int, int] | None":
    """The lexicographically first (a, b) with [P_a, Q_b] != 0, P_a, Q_b the x^a, x^b coefficients; else None.

    p and q are matrices with Poly or rational entries, or non-empty lists of coefficient matrices.  With
    span the number of coefficients of p, [P_a, Q_b] is slot a + span b of [p(2^w), q(2^(w span))].
    """
    if isinstance(p, ExactMatrix):
        span = 1 + max((v.degree for _, _, v in p.entries() if isinstance(v, Poly)), default=0)
    else:
        span = len(p)
    w, ([x1, _], [_, x2]) = kronecker_values([p, q], 2, (1, span))
    slots = product_slots([(1, x1, x2), (-1, x2, x1)], w)
    return min(((t % span, t // span) for t in slots), default=None)


def joint_generalized_eigenspaces(
    ops: Sequence[ExactMatrix],
    chars: Sequence[Sequence[Scalar]],
) -> list[tuple[list[dict], list[dict]]]:
    """Per character: (eigenspace basis, generalized eigenspace basis).

    Operators must commute pairwise and be square on a common space; that
    is decided by first_noncommuting on the family as a coefficient list,
    when two of them are not scalar, so a scalar pair is never multiplied.
    A shifted operator that is zero (a scalar operator at its own value, a
    zero operator at 0) constrains nothing and is dropped; an empty family leaves
    the whole space.  Each other shifted operator s is raised only to the
    first power j with rank(s^j) = rank(s^(j+1)): from there on the kernel of
    s^j no longer grows (Fitting's lemma), so it is the generalized kernel,
    the one that s^dim has.  Raises ValueError("family not commutative:
    operators i and j"), naming the first non-commuting pair, otherwise.
    """
    ops = list(ops)
    if not ops:
        raise ValueError("empty operator family")
    n = ops[0].nrows
    for op in ops:
        if not op.nrows == op.ncols == n:
            raise ValueError("operators must be square on one space")
    # [O_i, O_i] = 0 and [O_j, O_i] = -[O_i, O_j], so the first pair found has i < j
    pair = first_noncommuting(ops, ops) if sum(not op.is_scalar() for op in ops) > 1 else None
    if pair:
        raise ValueError(f"family not commutative: operators {pair[0]} and {pair[1]}")
    out = []
    for ch in chars:
        if len(ch) != len(ops):
            raise ValueError("character length mismatch")
        shifted = (op - ExactMatrix.identity(n, Fraction(1)) * c for op, c in zip(ops, ch))
        shifted = [s for s in shifted if not s.is_zero()]
        eig = ExactMatrix.vstack(shifted or [ExactMatrix(0, n)]).kernel()
        gen = ExactMatrix.vstack([_fitting_power(s) for s in shifted] or [ExactMatrix(0, n)]).kernel()
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
