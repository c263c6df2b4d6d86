"""The commuting coefficient algebra on weight (singular) subspaces.

Generators: the central scalars C_1..C_n (elementary symmetric functions of
the chain's string points) and the operators B_1..B_n defined by

    prod_i (x - a_i) * TransferQ(x) = x^n ((q1 - q2) + sum_i B_i x^{-i}),

extracted exactly from the Laurent expansion at infinity.  This module
analyzes that family on a fixed weight or singular-weight subspace:
dimension, commutant, regular-representation structure, the
symmetric-function presentation of its spectrum, and joint eigenspaces.
Each family builds its generated algebra once (`fam.algebra`); commutativity
is tested once, by the joint eigenspace solver in `spectral_analysis`.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import comb
from typing import NamedTuple, Sequence

from .exactnum import Poly, RatFun, elementary_symmetric, laurent_expand
from .linalg import ExactMatrix, SpanBasis, joint_generalized_eigenspaces
from .chain import ModuleSpec, cyclicity_and_irreducibility
from .monodromy import Check, chain_transfer_pencil, laurent_coefficients, reduce_lambda2, string_points
from .bethe import (
    Divisor,
    char_pair,
    eigenvalue_pencil,
    level_subspace,
    restrict_operators,
)


class CoefficientFamily:
    """Restricted commuting operators with their construction data."""

    def __init__(
        self, spec: ModuleSpec, level: int, singular: bool, basis: list[list[Fraction]],
        ops: list[ExactMatrix], strings: tuple[Fraction, ...],
    ):
        self.spec = spec
        self.level = level
        self.singular = singular
        self.basis = basis
        self.ops = ops
        self.strings = strings

    @property
    def dim(self) -> int:
        return len(self.basis)

    @functools.cached_property
    def algebra(self) -> tuple[ExactMatrix, ...]:
        """Matrix basis of the unital algebra the operators generate; shared, must not be mutated."""
        return tuple(algebra_dimension(self)[1])


def coefficient_family(spec: ModuleSpec, level: int, singular_only: bool) -> CoefficientFamily:
    """B_1..B_n and C_1..C_n restricted to a level subspace.

    Equal twist entries require singular_only=True (the family preserves
    only singular weight vectors there).
    """
    if not spec.is_twisted() and not singular_only:
        raise ValueError("equal twist requires the singular subspace")
    basis = level_subspace(spec, level, singular_only)
    if not basis:
        raise ValueError(f"empty subspace at level {level}")
    reduced, _ = reduce_lambda2(spec)
    strings = string_points(reduced)
    n = len(strings)
    astr = Poly.from_roots(strings)
    tq = chain_transfer_pencil(spec)
    bmats = laurent_coefficients(tq, astr, spec.normalizer() * Poly([0] * n + [1]), n)
    ops, _ = restrict_operators(bmats[1:], basis)
    for c in elementary_symmetric(list(strings)):
        ops.append(ExactMatrix.identity(len(basis)) * c)
    return CoefficientFamily(spec, level, singular_only, basis, ops, strings)


def _flatten(m: ExactMatrix) -> list[Fraction]:
    return [m.get(i, j) for i in range(m.nrows) for j in range(m.ncols)]


def algebra_dimension(fam: CoefficientFamily) -> tuple[int, list[ExactMatrix]]:
    """Dimension and matrix basis of the unital algebra generated by fam.

    Span saturation: repeatedly multiply basis elements by generators until
    the span stabilizes; the subspace dimension squared caps the loop.
    """
    d = fam.dim
    span = SpanBasis()
    basis_mats: list[ExactMatrix] = []

    def insert(m: ExactMatrix) -> bool:
        if span.add(_flatten(m)):
            basis_mats.append(m)
            return True
        return False

    insert(ExactMatrix.identity(d))
    for op in fam.ops:
        insert(op)
    for _ in range(d * d):
        grew = False
        for m in list(basis_mats):
            for op in fam.ops:
                if insert(m @ op):
                    grew = True
        if not grew:
            break
    return len(basis_mats), basis_mats


def commutant_dimension(fam: CoefficientFamily) -> int:
    """Dimension of {X : [X, op] = 0 for all generators} in End(subspace)."""
    d = fam.dim
    rows: list[ExactMatrix] = []
    for op in fam.ops:
        cm = ExactMatrix(d * d, d * d)
        for i in range(d):
            for j in range(d):
                r = i * d + j
                for a in range(d):
                    v = op.get(i, a)
                    if v:
                        cm.add_to(r, a * d + j, v)
                    w = op.get(a, j)
                    if w:
                        cm.add_to(r, i * d + a, -w)
        rows.append(cm)
    stacked = ExactMatrix.vstack(rows)
    return d * d - stacked.rank()


def double_commutant_check(fam: CoefficientFamily) -> Check:
    """The commutant of the family equals the generated algebra; the witness is "algebra dim vs commutant dim"."""
    adim = len(fam.algebra)
    cdim = commutant_dimension(fam)
    return Check(adim == cdim, witness="" if adim == cdim else f"{adim} vs {cdim}")


def regular_rep_check(fam: CoefficientFamily) -> Check:
    """Search for a cyclic vector generating the subspace under the algebra.

    Requires a cyclic chain; a non-cyclic one fails with the witness "chain
    is not cyclic".  Deterministic candidates: coordinate vectors, then
    small integer-weighted sums.  On failure the witness names the algebra
    and subspace dimensions.
    """
    cyclic, _ = cyclicity_and_irreducibility(fam.spec)
    if not cyclic:
        return Check(False, witness="chain is not cyclic")
    mats = fam.algebra
    adim, d = len(mats), fam.dim
    candidates = []
    for i in range(d):
        v = [Fraction(0)] * d
        v[i] = Fraction(1)
        candidates.append(v)
    candidates.append([Fraction(1)] * d)
    candidates.append([Fraction(i + 1) for i in range(d)])
    candidates.append([Fraction((i + 1) ** 2) for i in range(d)])
    for cand in candidates:
        span = SpanBasis()
        for m in mats:
            span.add(m.apply(cand))
        if span.dim == d == adim:
            return Check(True)
    return Check(False, witness=f"algebra dim {adim}, subspace dim {d}")


def presentation_check(spec: ModuleSpec, level: int) -> Check:
    """Divisor eigenvalues against the symmetric-function presentation.

    gamma factors as lead * prod (x - w_i); for every degree-l divisor y with
    roots w_1..w_l and complementary roots w_{l+1}.., the transfer eigenvalue
    must equal lead * prod_{i<=l} (x - w_i - 1) * prod_{j>l} (x - w_j).
    """
    cp = char_pair(spec)
    divisors = cp.divisors[level] if level in range(len(cp.divisors)) else ()
    lead = cp.gamma.leading()
    q1, q2 = spec.twist
    expected_lead = (q1 - q2) if spec.is_twisted() else q1 * spec.n
    if lead != expected_lead:
        return Check(False, witness="leading coefficient mismatch")
    all_roots: list[Fraction] = []
    for r, m in cp.roots:
        all_roots.extend([r] * m)
    # Vieta identity pinning the epsilon parameters of the presentation
    sig = elementary_symmetric(all_roots)
    kk = len(all_roots)
    recon = Poly([0] * kk + [1])
    for i, e in enumerate(sig, start=1):
        recon = recon + Poly([0] * (kk - i) + [1]) * (e if i % 2 == 0 else -e)
    if recon * lead != cp.gamma:
        return Check(False, witness="epsilon parameters do not reproduce gamma")
    for dv in divisors:
        complement = list(all_roots)
        for r in dv.root_list():
            complement.remove(r)
        expected = Poly((lead,))
        for w in dv.root_list():
            expected = expected * Poly((-w - 1, 1))
        for w in complement:
            expected = expected * Poly((-w, 1))
        if expected != eigenvalue_pencil(dv, spec):
            return Check(False, witness=f"divisor {dv.label()}")
    return Check(True)


def divisor_character(fam: CoefficientFamily, dv: Divisor) -> list[Fraction]:
    """Values of B_1..B_n, C_1..C_n on the eigenvector indexed by dv."""
    spec = fam.spec
    n = len(fam.strings)
    astr = Poly.from_roots(fam.strings)
    ehat = eigenvalue_pencil(dv, spec)
    coeffs = laurent_expand(RatFun(astr * ehat, spec.normalizer() * Poly([0] * n + [1])), n)
    sig = elementary_symmetric(list(fam.strings))
    return [coeffs[d] for d in range(1, n + 1)] + list(sig)


class SpectralEntry(NamedTuple):
    divisor: Divisor
    eigen_dim: int
    generalized_dim: int
    expected_generalized: int
    cyclic_module: bool


def spectral_analysis(fam: CoefficientFamily, divisors: Sequence[Divisor]) -> list[SpectralEntry]:
    """Joint eigen/generalized dimensions per divisor character.

    The expected generalized dimension is the independent binomial-product
    oracle over root multiplicities; each generalized eigenspace is also
    checked to be cyclic over the algebra.
    """
    chars = [divisor_character(fam, dv) for dv in divisors]
    spaces = joint_generalized_eigenspaces(fam.ops, chars)
    roots = char_pair(fam.spec).roots or []
    out = []
    for dv, (eig, gen) in zip(divisors, spaces):
        expected = 1
        for r, m in roots:
            expected *= comb(m, dv.mult(r))
        cyc = _generalized_cyclic(fam.algebra, gen)
        out.append(SpectralEntry(dv, len(eig), len(gen), expected, cyc))
    return out


def _generalized_cyclic(algebra_mats: Sequence[ExactMatrix], gen_basis: Sequence[Sequence[Fraction]]) -> bool:
    """A single vector of the generalized eigenspace generating it under the algebra."""
    if not gen_basis:
        return True
    d = len(gen_basis[0])
    target = SpanBasis()
    for v in gen_basis:
        target.add(v)
    candidates = list(gen_basis)
    candidates.append([sum(col) for col in zip(*gen_basis)])
    for cand in candidates:
        span = SpanBasis()
        for m in algebra_mats:
            w = m.apply(list(cand))
            if target.contains(w):
                span.add(w)
        if span.dim == len(gen_basis):
            return True
    return False
