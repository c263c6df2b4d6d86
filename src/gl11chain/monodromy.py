"""Monodromy pencils on tensor products of evaluation modules.

A chain is a chain.ModuleSpec.  The monodromy entries are kept pole-free:
the pencil stores That_ij(x) = prod_s(x - b_s) T_ij(x) as one matrix with
Poly entries, normalized so the x^k coefficient of That_ij is delta_ij
times the identity.  coefficient_matrices gives the x^d
coefficient matrices of such a matrix, for the checks that read them, and
laurent_coefficients the Laurent coefficients at infinity of its product
with a scalar rational function, from one scalar series.

Check is the package's one verdict record: every check of an identity, in
this module and the others, returns Check(ok, label, witness), and a suite
item is a Check whose label is the item name.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import product
from math import lcm
from typing import NamedTuple, Sequence

from .exactnum import Poly, RatFun, laurent_expand, scalar
from . import linalg
from .chain import ModuleSpec, Weight
from .superlin import E_PARITY, SuperSpace, e_matrix, kron_signed, leg_generator

# Also bound here because perfbench reads them under this module's name: run.py parses
# chain files with monodromy.ModuleSpec, and tracer.py wraps monodromy.cyclicity_and_irreducibility.
from .chain import cyclicity_and_irreducibility  # noqa: F401


class MonodromyPencil(NamedTuple):
    """Normalized 2x2 pencil That_ij(x) on a chain module, as Poly-entry matrices."""

    space: SuperSpace
    entries: dict[tuple[int, int], linalg.ExactMatrix]
    normalizer: Poly

    def entry(self, i: int, j: int) -> linalg.ExactMatrix:
        return self.entries[(i, j)]

    @property
    def dim(self) -> int:
        return self.space.dim


def evaluation_monodromy(wt: Weight, b) -> MonodromyPencil:
    """Single-site pencil on the two-dimensional (or trivial) weight module."""
    b = scalar(b)
    if not wt.is_polynomial():
        raise ValueError(f"weight {tuple(wt)} is not polynomial")
    if not wt.is_nondegenerate() and (wt.l1, wt.l2) != (0, 0):
        raise ValueError(f"weight {tuple(wt)} is degenerate")
    trivial = not wt.is_nondegenerate()
    dim = 1 if trivial else 2
    space = SuperSpace([(0,)]) if trivial else SuperSpace.tensor_power(1)
    xminusb = Poly((-b, 1))
    entries: dict[tuple[int, int], linalg.ExactMatrix] = {}
    # That_ij(x) = delta_ij (x - b) + (-1)^{|j|} e_ji
    for i, j in product((1, 2), repeat=2):
        sign = -1 if j == 2 else 1
        eji = leg_generator(wt, j, i).map_entries(lambda v: Poly((v * sign,)))
        entries[(i, j)] = linalg.ExactMatrix.identity(dim, xminusb) + eji if i == j else eji
    return MonodromyPencil(space, entries, xminusb)


def coefficient_matrices(m: linalg.ExactMatrix) -> list[linalg.ExactMatrix]:
    """x^d coefficient matrices of a Poly-entry matrix, d = 0 up to its degree."""
    out: list[linalg.ExactMatrix] = []
    for i, j, p in m.entries():
        for d, c in enumerate(p.coeffs):
            while len(out) <= d:
                out.append(linalg.ExactMatrix(m.nrows, m.ncols))
            out[d].put(i, j, c)
    return out


def _pair_tensor(
    amat: linalg.ExactMatrix, bmat: linalg.ExactMatrix, space_u: SuperSpace, space_w: SuperSpace, parity_b: int
) -> linalg.ExactMatrix:
    """Matrix of (A (x) B) on U (x) W with the Koszul sign of B against U."""
    dim_w = space_w.dim
    out = linalg.ExactMatrix(space_u.dim * dim_w, space_u.dim * dim_w)
    for u, up, av in amat.entries():
        if parity_b and space_u.parity(up):
            av = -av
        for w, wp, bv in bmat.entries():
            out.add_to(u * dim_w + w, up * dim_w + wp, av * bv)
    return out


def _combine(first: MonodromyPencil, rest: MonodromyPencil) -> MonodromyPencil:
    """Coproduct of two pencils: first factor receives T_rj, second T_ir."""
    space = first.space.concat(rest.space)
    entries: dict[tuple[int, int], linalg.ExactMatrix] = {}
    for i, j in product((1, 2), repeat=2):
        acc = linalg.ExactMatrix(space.dim, space.dim)
        for r in (1, 2):
            acc = acc + _pair_tensor(
                first.entry(r, j), rest.entry(i, r), first.space, rest.space, E_PARITY[(i, r)]
            )
        entries[(i, j)] = acc
    return MonodromyPencil(space, entries, first.normalizer * rest.normalizer)


@functools.cache
def tensor_monodromy(spec: ModuleSpec) -> MonodromyPencil:
    """Iterated-coproduct pencil on the full chain module.

    Memoised per chain: the pencil is shared and must not be mutated.
    """
    pencils = [evaluation_monodromy(wt, b) for wt, b in zip(spec.weights, spec.points)]
    out = pencils[-1]
    for p in reversed(pencils[:-1]):
        out = _combine(p, out)
    return out


def lax_product(points: Sequence) -> tuple[list[linalg.ExactMatrix], SuperSpace]:
    """x-coefficients of (x - z_n + P^(0,n)) ... (x - z_1 + P^(0,1)) on aux (x) V.

    Site parameters may be Fractions or symbolic ring elements (anything the
    matrix entries can multiply), so the same product serves the numeric
    chains and the polynomial-coefficient model.
    """
    n = len(points)
    vspace = SuperSpace.tensor_power(n)
    full = SuperSpace.tensor_power(n + 1)
    dim_full = full.dim
    ident = linalg.ExactMatrix.identity(dim_full)
    lax = [ident]
    for site in range(n, 0, -1):
        flip = linalg.ExactMatrix(dim_full, dim_full)
        for h, j in product((1, 2), repeat=2):
            par = E_PARITY[(h, j)]
            sign = -1 if j == 2 else 1
            term = kron_signed(full, {0: (e_matrix(h, j), par), site: (e_matrix(j, h), par)})
            flip = flip + term * sign
        const = flip + ident * (-points[site - 1])
        # times (const + x): the x^d coefficient is lax_{d-1} + lax_d const
        lax = [lax[0] @ const] + [lax[d - 1] + lax[d] @ const for d in range(1, len(lax))] + [lax[-1]]
    return lax, vspace


def lax_blocks(lax: Sequence[linalg.ExactMatrix], dim_v: int) -> dict[tuple[int, int], list[linalg.ExactMatrix]]:
    """x-coefficients of the normalized entries from the global product.

    Global aux-major blocks equal (-1)^{(|i|+|j|)|j|} T_ij, so the (1,2)
    block carries a sign.  Each list ends at the entry's degree.
    """
    entries: dict[tuple[int, int], list[linalg.ExactMatrix]] = {key: [] for key in product((1, 2), repeat=2)}
    for c in lax:
        blocks = {key: linalg.ExactMatrix(dim_v, dim_v) for key in entries}
        for gi, gj, v in c.entries():
            ai, vi = divmod(gi, dim_v)
            aj, vj = divmod(gj, dim_v)
            blocks[(ai + 1, aj + 1)].put(vi, vj, -v if (ai, aj) == (0, 1) else v)
        for key, block in blocks.items():
            entries[key].append(block)
    for coeffs in entries.values():
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
    return entries


def lax_monodromy(points: Sequence) -> MonodromyPencil:
    """Pencil on the n-fold vector representation from the local Lax product.

    Equals tensor_monodromy of n weight-(1,0) sites at the same points.
    """
    pts = [scalar(a) for a in points]
    lax, vspace = lax_product(pts)
    entries: dict[tuple[int, int], linalg.ExactMatrix] = {}
    for key, coeffs in lax_blocks(lax, vspace.dim).items():
        m = linalg.ExactMatrix(vspace.dim, vspace.dim)
        for d, c in enumerate(coeffs):
            m = m + c.map_entries(lambda v: Poly([0] * d + [v]))
        entries[key] = m
    return MonodromyPencil(vspace, entries, Poly.from_roots(pts))


class Check(NamedTuple):
    """The verdict of one check: ok, what was checked, and on failure the text a report shows.

    witness is "" when ok.
    """

    ok: bool
    label: str = ""
    witness: str = ""

    def __bool__(self):
        return self.ok


def verify_rtt(pencil: MonodromyPencil) -> Check:
    """Exact bivariate check of the defining exchange relations.

    For every index choice (i, j, r, s) the identity
      (x1 - x2) [That_ij(x1), That_rs(x2)]
        = sign * (That_rj(x2) That_is(x1) - That_rj(x1) That_is(x2))
    is verified coefficient by coefficient, with the supercommutator taken
    with respect to the entry parities.  On mismatch the witness is
    "(i, j, r, s, deg_x1, deg_x2)".

    Every term of the identity is a product of two x-coefficient matrices of
    the pencil.  The check therefore runs on the integer matrices D * C_d,
    with D the lcm of the entries' denominators: this multiplies both sides
    by D^2 != 0, which changes neither the verdict nor the first failing
    index.  At each (deg_x1, deg_x2) the six signed products are summed into
    one dict and tested for zero; a term of negative degree is skipped.
    """
    den = lcm(*(p.denom for m in pencil.entries.values() for _, _, p in m.entries()))
    coeffs = {e: _integer_coefficients(m, den) for e, m in pencil.entries.items()}
    deg = max(len(cs) for cs in coeffs.values()) - 1
    dim = pencil.dim
    cache: dict[tuple, dict[int, int]] = {}

    def prod(e1, d1, e2, d2) -> dict[int, int]:
        """C_e1[d1] @ C_e2[d2] as {row * dim + col: value}, zeros allowed."""
        key = (e1, d1, e2, d2)
        out = cache.get(key)
        if out is None:
            out = cache[key] = {}
            a, b = coeffs[e1], coeffs[e2]
            if d1 < len(a) and d2 < len(b):
                brows = b[d2]
                for i, row in a[d1].items():
                    base = i * dim
                    for k, x in row.items():
                        brow = brows.get(k)
                        if brow:
                            for j, y in brow.items():
                                out[base + j] = out.get(base + j, 0) + x * y
        return out

    for i, j, r, s in product((1, 2), repeat=4):
        sigma = -1 if E_PARITY[(i, j)] and E_PARITY[(r, s)] else 1
        exp = (i == 2) * (r == 2) + (s == 2) * (i == 2) + (s == 2) * (r == 2)
        sgn = -1 if exp % 2 else 1
        ij, rs, rj, is_ = (i, j), (r, s), (r, j), (i, s)
        for dd in range(deg + 2):
            for ee in range(deg + 2):
                # the x1^dd x2^ee coefficient of left side minus right side
                terms = [(-sgn, prod(rj, ee, is_, dd)), (sgn, prod(rj, dd, is_, ee))]
                if dd:
                    terms += [(1, prod(ij, dd - 1, rs, ee)), (-sigma, prod(rs, ee, ij, dd - 1))]
                if ee:
                    terms += [(-1, prod(ij, dd, rs, ee - 1)), (sigma, prod(rs, ee - 1, ij, dd))]
                acc: dict[int, int] = {}
                for c, p in terms:
                    for key, v in p.items():
                        acc[key] = acc.get(key, 0) + c * v
                if any(acc.values()):
                    return Check(False, witness=str((i, j, r, s, dd, ee)))
    return Check(True)


def _integer_coefficients(m: linalg.ExactMatrix, den: int) -> list[dict[int, dict[int, int]]]:
    """Rows {i: {j: v}} of den * (x^d coefficient matrix of m), for den a multiple of every entry's denom."""
    out: list[dict[int, dict[int, int]]] = []
    for i, j, p in m.entries():
        scale = den // p.denom
        for d, v in enumerate(p.nums):
            while len(out) <= d:
                out.append({})
            if v:
                out[d].setdefault(i, {})[j] = v * scale
    return out


def transfer_pencil(pencil: MonodromyPencil, twist) -> linalg.ExactMatrix:
    """Twisted transfer pencil q1 That_11 - q2 That_22, a Poly-entry matrix."""
    q1, q2 = scalar(twist[0]), scalar(twist[1])
    return pencil.entry(1, 1) * q1 - pencil.entry(2, 2) * q2


@functools.cache
def chain_transfer_pencil(spec: ModuleSpec) -> linalg.ExactMatrix:
    """The chain's transfer pencil That_Q, built once per chain: shared, must not be mutated."""
    return transfer_pencil(tensor_monodromy(spec), spec.twist)


def reduce_lambda2(spec: ModuleSpec) -> tuple[ModuleSpec, RatFun]:
    """Shift all weight second components to zero; returns the twist series.

    The reduced chain has weights (l1 + l2, 0) at points b + l2; the two
    normalized pencils coincide entrywise, so the reduced transfer matrix
    equals xi(x) times the original one with
    xi = prod (x - b_s) / (x - b_s - l2^(s)).
    """
    new_weights = tuple(Weight(wt.l1 + wt.l2, 0) for wt in spec.weights)
    new_points = tuple(b + wt.l2 for wt, b in zip(spec.weights, spec.points))
    num = Poly.from_roots(spec.points)
    den = Poly.from_roots([b + wt.l2 for wt, b in zip(spec.weights, spec.points)])
    return ModuleSpec(new_weights, new_points, spec.twist), RatFun(num, den)


def string_points(spec: ModuleSpec) -> tuple[Fraction, ...]:
    """Union of the point strings {b_s, ..., b_s - l1 + 1}, sorted descending.

    Requires the reduced (l2 = 0) form; apply reduce_lambda2 first.
    """
    if any(wt.l2 != 0 for wt in spec.weights):
        raise ValueError("string points require the reduced l2=0 form")
    pts = []
    for wt, b in zip(spec.weights, spec.points):
        pts.extend(b - i for i in range(int(wt.l1)))
    return tuple(sorted(pts, reverse=True))


def laurent_coefficients(m: linalg.ExactMatrix, num: Poly, den: Poly, order: int) -> list[linalg.ExactMatrix]:
    """Coefficients of x^0, x^-1, ..., x^-order at infinity of (num/den) * m.

    m is a Poly-entry matrix with x^d coefficient matrices C_d.  With
    num/den = sum_t g_t x^-t, the x^-r coefficient is sum_d g_(d+r) C_d, so
    one scalar series serves every entry.  Raises
    ValueError("not expandable at infinity") when an entry p of m has
    deg(num * p) > deg den.
    """
    cms = coefficient_matrices(m)
    out = [linalg.ExactMatrix(m.nrows, m.ncols) for _ in range(order + 1)]
    if not cms:
        return out
    if num.degree + len(cms) - 1 > den.degree:
        raise ValueError("not expandable at infinity")
    series = laurent_expand(RatFun(num, den), len(cms) - 1 + order)
    for r, acc in enumerate(out):
        for d, c in enumerate(cms):
            g = series[d + r]
            if g:
                for a, b, v in c.entries():
                    acc.add_to(a, b, g * v)
    return out


def t_coefficient(pencil: MonodromyPencil, i: int, j: int, r: int) -> linalg.ExactMatrix:
    """Laurent coefficient T_ij^(r) of the unnormalized series at infinity."""
    return laurent_coefficients(pencil.entry(i, j), Poly((1,)), pencil.normalizer, r)[r]
