"""The Bethe algebra on a level's subspace, generated by its transfer coefficients.

The level's `bethe.TransferFamily` is the one Bethe-algebra object: its
operators are That_Q's coefficients C_0..C_k restricted to the level
subspace, and the unital algebra they generate is the level's Bethe algebra.
The coefficients that are scalar on the level (C_k = (q1 - q2) I, the zero
padding, every coefficient of a one-dimensional level) add nothing to it and
are left out of the generators.  This module analyzes that algebra:
dimension, commutant, regular-representation structure and the
symmetric-function presentation of its spectrum; the joint eigenspaces are
the transfer family's.  Each family's algebra (`algebra`) and its radical
(`radical`), which decides cyclicity by one rank, are built once;
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

from .exactnum import Poly
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


@functools.cache
def radical(fam: TransferFamily) -> tuple[ExactMatrix, ...]:
    """Matrix basis of the radical J of the family's algebra A, the kernel of its trace form; shared, must not be mutated.

    Nilpotents have trace 0, so J lies in the kernel of G_ab = tr(a_a a_b).
    The level V is faithful, so on A/J = prod k_i the form is
    sum_i c_i Tr_{k_i/Q} with every c_i >= 1; in characteristic 0 that is
    non-degenerate, so the kernel is J (Atiyah-Macdonald, 1969, Ch. 8).
    """
    mats = algebra(fam)
    gram = ExactMatrix(len(mats), len(mats))
    for r, a in enumerate(mats):
        for c, b in enumerate(mats):
            gram.put(r, c, sum((v * b.get(j, i) for i, j, v in a.entries()), Fraction(0)))
    return tuple(sum((mats[c] * x for c, x in v.items()), ExactMatrix(fam.dim, fam.dim)) for v in gram.kernel())


def _head_dim(fam: TransferFamily, vectors: Sequence[dict]) -> int:
    """dim W/JW, W the span of the independent vectors, A-invariant; by Nakayama, W's generators per residue field."""
    span = SpanBasis()
    for j in radical(fam):
        for v in vectors:
            span.add(j.apply(v))
    return len(vectors) - span.dim


def regular_rep_check(fam: TransferFamily) -> Check:
    """The level V is the algebra's regular representation: dim A = dim V and V is cyclic.

    Requires a cyclic chain; a non-cyclic one fails with the witness "chain
    is not cyclic".  V is faithful, so dim V/JV >= dim A/J, with equality
    exactly when V is cyclic; no divisor is read, so non-split chains are
    decided too.  On failure the witness names dim A, dim V, dim J, dim JV.
    """
    cyclic, _ = cyclicity_and_irreducibility(fam.spec)
    if not cyclic:
        return Check(False, witness="chain is not cyclic")
    adim, d, jdim = len(algebra(fam)), fam.dim, len(radical(fam))
    head = _head_dim(fam, [{j: Fraction(1)} for j in range(d)])
    if adim == d and head == adim - jdim:
        return Check(True)
    return Check(False, witness=f"algebra dim {adim}, subspace dim {d}, radical dim {jdim}, J V dim {d - head}")


def presentation_check(spec: ModuleSpec, level: int) -> Check:
    """Divisor eigenvalues against the symmetric-function presentation.

    gamma factors as lead * prod (x - w_i); for every degree-l divisor y with
    roots w_1..w_l and complementary roots w_{l+1}.., the transfer eigenvalue
    must equal lead * prod_{i<=l} (x - w_i - 1) * prod_{j>l} (x - w_j).
    """
    cp = char_pair(spec)
    divisors = cp.divisors[level] if level in range(len(cp.divisors)) else ()
    lead = cp.gamma.leading()  # char_pair has checked it: q1 - q2 when twisted, q1 n when not
    all_roots: list[Fraction] = []
    for r, m in cp.roots:
        all_roots.extend([r] * m)
    # Vieta identity pinning the epsilon parameters of the presentation
    if Poly.from_roots(all_roots) * lead != cp.gamma:
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
    oracle over root multiplicities.  Each generalized eigenspace V_y is
    cyclic exactly when V_y / J V_y is a line: J V_y = m_y V_y.  Empty when
    gamma does not split; raises ValueError when the family does not commute.
    """
    roots = char_pair(fam.spec).roots or []
    out = []
    for dv, (eig, gen) in zip(fam.divisors, fam.spaces):
        expected = 1
        for r, m in roots:
            expected *= comb(m, dv.mult(r))
        cyc = not gen or _head_dim(fam, gen) == 1
        out.append(SpectralEntry(dv, len(eig), len(gen), expected, cyc))
    return out
