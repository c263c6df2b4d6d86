"""The Bethe algebra on a level's subspace, generated by its transfer coefficients.

The level's `bethe.TransferFamily` is the one Bethe-algebra object: its
operators are That_Q's coefficients C_0..C_k restricted to the level
subspace, and the unital algebra they generate is the level's Bethe algebra.
The coefficients that are scalar on the level (C_k = (q1 - q2) I, the zero
padding, every coefficient of a one-dimensional level) add nothing to it and
are left out of the generators.  This module analyzes that algebra:
dimension, commutant, regular-representation structure and the
symmetric-function presentation of its spectrum; the joint eigenspaces are
the transfer family's.  Each family's algebra is built once (`algebra`);
commutativity is tested once, by the joint eigenspace solver.

Remark: with astr the monic polynomial of the string points and
astr / (N x^n) = sum_t g_t x^{-t}, the operators B_r = sum_d g_(d+r) C_d of
astr(x) That_Q(x) = x^n ((q1 - q2) + sum_r B_r x^{-r}) generate the same
algebra, since g_t = 0 for t < k and g_k = 1.  That route is the test oracle
tests/bethealgoracle.py.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import comb
from typing import Sequence

from .exactnum import Poly, elementary_symmetric
from .linalg import ExactMatrix, SpanBasis
from .chain import ModuleSpec, cyclicity_and_irreducibility
from .monodromy import Check
from .bethe import SpectralEntry, TransferFamily, char_pair, eigenvalue_pencil, transfer_family


def coefficient_family(spec: ModuleSpec, level: int) -> TransferFamily:
    """The level's transfer family, the algebra suite's entry point; raises ValueError on an empty level."""
    fam = transfer_family(spec, level)
    if not fam.dim:
        raise ValueError(f"empty subspace at level {level}")
    return fam


def generators(fam: TransferFamily) -> list[ExactMatrix]:
    """The family's coefficients that are not scalar on its level."""
    return [op for op in fam.ops if not op.is_scalar()]


@functools.cache
def algebra(fam: TransferFamily) -> tuple[ExactMatrix, ...]:
    """Matrix basis of the unital algebra the family generates, built once per family; shared, must not be mutated."""
    return tuple(algebra_dimension(fam)[1])


def algebra_dimension(fam: TransferFamily) -> tuple[int, list[ExactMatrix]]:
    """Dimension and matrix basis of the unital algebra generated by fam.

    Span saturation: repeatedly multiply basis elements by generators until
    the span stabilizes; the subspace dimension squared caps the loop.
    """
    d = fam.dim
    ops = generators(fam)
    span = SpanBasis()
    basis_mats: list[ExactMatrix] = []

    def insert(m: ExactMatrix) -> bool:
        if span.add({i * d + j: v for i, j, v in m.entries()}):
            basis_mats.append(m)
            return True
        return False

    insert(ExactMatrix.identity(d))
    for op in ops:
        insert(op)
    for _ in range(d * d):
        grew = False
        for m in list(basis_mats):
            for op in ops:
                if insert(m @ op):
                    grew = True
        if not grew:
            break
    return len(basis_mats), basis_mats


def commutant_dimension(fam: TransferFamily) -> int:
    """Dimension of {X : [X, op] = 0 for all generators} in End(subspace)."""
    d = fam.dim
    rows: list[ExactMatrix] = []
    for op in generators(fam):
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
    stacked = ExactMatrix.vstack(rows or [ExactMatrix(0, d * d)])
    return d * d - stacked.rank()


def double_commutant_check(fam: TransferFamily) -> Check:
    """The commutant of the family equals the generated algebra; the witness is "algebra dim vs commutant dim"."""
    adim = len(algebra(fam))
    cdim = commutant_dimension(fam)
    return Check(adim == cdim, witness="" if adim == cdim else f"{adim} vs {cdim}")


def _generates(mats: Sequence[ExactMatrix], candidates: Sequence[Sequence[Fraction]], target: SpanBasis) -> bool:
    """Some candidate whose images under the algebra basis, those inside the target span, span it."""
    for cand in candidates:
        span = SpanBasis()
        for m in mats:
            w = m.apply(list(cand))
            if target.contains(w):
                span.add(w)
        if span.dim == target.dim:
            return True
    return False


def regular_rep_check(fam: TransferFamily) -> Check:
    """Search for a cyclic vector generating the subspace under the algebra.

    Requires a cyclic chain; a non-cyclic one fails with the witness "chain
    is not cyclic".  Deterministic candidates: coordinate vectors, then
    small integer-weighted sums.  On failure the witness names the algebra
    and subspace dimensions.
    """
    cyclic, _ = cyclicity_and_irreducibility(fam.spec)
    if not cyclic:
        return Check(False, witness="chain is not cyclic")
    mats = algebra(fam)
    adim, d = len(mats), fam.dim
    candidates = [[Fraction(i == j) for i in range(d)] for j in range(d)]
    whole = SpanBasis()
    for v in candidates:
        whole.add(v)
    candidates.append([Fraction(1)] * d)
    candidates.append([Fraction(i + 1) for i in range(d)])
    candidates.append([Fraction((i + 1) ** 2) for i in range(d)])
    if adim == d and _generates(mats, candidates, whole):
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


def spectral_analysis(fam: TransferFamily) -> list[SpectralEntry]:
    """Joint eigen/generalized dimensions per divisor of the level, from the transfer family's spaces.

    The expected generalized dimension is the independent binomial-product
    oracle over root multiplicities; each generalized eigenspace is also
    checked to be cyclic over the algebra.  Raises ValueError when the
    transfer family does not commute.
    """
    roots = char_pair(fam.spec).roots or []
    out = []
    for dv, (eig, gen) in zip(fam.divisors, fam.spaces):
        expected = 1
        for r, m in roots:
            expected *= comb(m, dv.mult(r))
        cyc = _generalized_cyclic(algebra(fam), gen)
        out.append(SpectralEntry(dv, len(eig), len(gen), expected, cyc))
    return out


def _generalized_cyclic(algebra_mats: Sequence[ExactMatrix], gen_basis: Sequence[Sequence[Fraction]]) -> bool:
    """A single vector of the generalized eigenspace generating it under the algebra."""
    if not gen_basis:
        return True
    target = SpanBasis()
    for v in gen_basis:
        target.add(v)
    return _generates(algebra_mats, [*gen_basis, [sum(col) for col in zip(*gen_basis)]], target)
