"""Monodromy pencils on tensor products of evaluation modules.

A chain is a chain.ModuleSpec.  The monodromy entries are kept pole-free:
the pencil stores That_ij(x) = prod_s(x - b_s) T_ij(x) as one matrix with
Poly entries, normalized so the x^k coefficient of That_ij is delta_ij
times the identity.  coefficient_matrices gives the x^d
coefficient matrices of such a matrix, for the checks that read them.  The
series T_ij(x) = That_ij(x) / N(x) is never expanded at infinity: N is
monic, so zero_mode reads T_ij^(1) off two x-coefficients of That_ij.

The exchange relations, their signs held by exchange_signs, are decided at
one Kronecker point by the codec of linalg.py.

Check is the package's one verdict record: every check of an identity, in
this module and the others, returns Check(ok, label, witness), and a suite
item is a Check whose label is the item name.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import product
from typing import NamedTuple, Sequence

from .exactnum import Poly, scalar
from . import linalg
from .chain import ModuleSpec, Weight
from .superlin import E_PARITY, SuperSpace, leg_generator, leg_units

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
    """Single-site pencil on the two-dimensional weight module."""
    b = scalar(b)
    if not wt.is_polynomial():
        raise ValueError(f"weight {tuple(wt)} is not polynomial")
    if not wt.is_nondegenerate():
        raise ValueError(f"weight {tuple(wt)} is degenerate")
    xminusb = Poly((-b, 1))
    entries: dict[tuple[int, int], linalg.ExactMatrix] = {}
    # That_ij(x) = delta_ij (x - b) + (-1)^{|j|} e_ji
    for i, j in product((1, 2), repeat=2):
        sign = -1 if j == 2 else 1
        eji = leg_generator(wt, j, i).map_entries(lambda v: Poly((v * sign,)))
        entries[(i, j)] = linalg.ExactMatrix.identity(2, xminusb) + eji if i == j else eji
    return MonodromyPencil(SuperSpace.tensor_power(1), entries, xminusb)


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
            flip = flip + leg_units(full, ((0, h, j), (site, j, h)), Fraction(-1 if j == 2 else 1))
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


def exchange_signs(i: int, j: int, r: int, s: int) -> tuple[int, int]:
    """(sigma, sgn) of the exchange relation of That_ij with That_rs (verify_rtt): the RTT sign table."""
    return (-1 if E_PARITY[(i, j)] and E_PARITY[(r, s)] else 1,
            -1 if ((i == 2) * (r == 2) + (s == 2) * (i == 2) + (s == 2) * (r == 2)) % 2 else 1)


def verify_rtt(pencil: MonodromyPencil) -> Check:
    """Exact bivariate check of the defining exchange relations.

    For every index choice (i, j, r, s) the identity
      (x1 - x2) [That_ij(x1), That_rs(x2)]
        = sgn * (That_rj(x2) That_is(x1) - That_rj(x1) That_is(x2))
    is verified, [A, B] = AB - sigma BA and (sigma, sgn) = exchange_signs(i, j, r, s).
    On mismatch the witness is "(i, j, r, s, deg_x1, deg_x2)".

    Each identity is decided at one Kronecker point (linalg.kronecker_values):
    x1 = 2^w and x2 = 2^(w (deg + 2)), so the x1-degrees 0..deg + 1 of a
    power of x2 never reach the next one.  The x1^d1 x2^d2 coefficient of
    D^2 (left side minus right side) is a sum of six products of two cleared
    x-coefficient matrices, so w holds 6 dim M^2.  The witness is the first
    nonzero slot of the first failing (i, j, r, s), deg_x1 before deg_x2.
    """
    entries = pencil.entries
    span = max((p.degree for m in entries.values() for _, _, p in m.entries()), default=0) + 2
    w, (at1, at2) = linalg.kronecker_values(list(entries.values()), 6, (1, span))
    x1, x2 = dict(zip(entries, at1)), dict(zip(entries, at2))
    x1_minus_x2 = (1 << w) - (1 << w * span)
    for i, j, r, s in product((1, 2), repeat=4):
        sigma, sgn = exchange_signs(i, j, r, s)
        slots = linalg.product_slots([
            (x1_minus_x2, x1[i, j], x2[r, s]), (-sigma * x1_minus_x2, x2[r, s], x1[i, j]),
            (-sgn, x2[r, j], x1[i, s]), (sgn, x1[r, j], x2[i, s]),
        ], w)
        if slots:
            first = min(slots, key=lambda t: (t % span, t // span))
            return Check(False, witness=str((i, j, r, s, first % span, first // span)))
    return Check(True)


def transfer_pencil(pencil: MonodromyPencil, twist) -> linalg.ExactMatrix:
    """Twisted transfer pencil q1 That_11 - q2 That_22, a Poly-entry matrix."""
    q1, q2 = scalar(twist[0]), scalar(twist[1])
    return pencil.entry(1, 1) * q1 - pencil.entry(2, 2) * q2


@functools.cache
def chain_transfer_pencil(spec: ModuleSpec) -> linalg.ExactMatrix:
    """The chain's transfer pencil That_Q, built once per chain: shared, must not be mutated."""
    return transfer_pencil(tensor_monodromy(spec), spec.twist)


@functools.cache
def chain_transfer_coefficients(spec: ModuleSpec) -> tuple[linalg.ExactMatrix, ...]:
    """The x^d coefficient matrices C_0..C_k of That_Q, split once per chain: shared, must not be mutated."""
    return tuple(coefficient_matrices(chain_transfer_pencil(spec)))


def zero_mode(pencil: MonodromyPencil, i: int, j: int) -> linalg.ExactMatrix:
    """The zero mode T_ij^(1), the x^-1 coefficient at infinity of T_ij(x) = That_ij(x) / N(x).

    N = prod_s (x - b_s) = x^k - (b_1 + ... + b_k) x^(k-1) + ..., so
    1/N = x^-k (1 + (b_1 + ... + b_k) x^-1 + O(x^-2)) and, with C_d the x^d
    coefficient of That_ij, T_ij^(1) = C_(k-1) + (b_1 + ... + b_k) C_k: on a
    normalized pencil C_(k-1) + (b_1 + ... + b_k) delta_ij I.  Raises
    ValueError("not expandable at infinity") when That_ij has degree above k.
    """
    k, m = pencil.normalizer.degree, pencil.entry(i, j)
    if any(p.degree > k for _, _, p in m.entries()):
        raise ValueError("not expandable at infinity")
    b_sum = -pencil.normalizer.coeff(k - 1)
    return m.map_entries(lambda p: p.coeff(k - 1) + b_sum * p.coeff(k))
