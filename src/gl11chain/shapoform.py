"""Contravariant bilinear form from ordered R-matrix products; norms.

The form on the chain module is G = G0 @ R, where G0 is the diagonal tensor
form (highest vector normalized to 1, lowering-image squared norm
-(l1 + l2) per site, with the usual sign convention for tensor factors) and
R is the ordered product of two-site R-matrices over pairs i < j, i running
first.  Contravariance pins every sign: B(X w1, w2) equals
(-1)^{|X||w1|} B(w1, iota(X) w2) with iota the transpose-with-signs
anti-automorphism of the generating series.

Norm bookkeeping: with the conventions above the on-shell square norm
satisfies

    B(Bhat, Bhat) = (-1)^l prod_i Wr(phi, psi)(t_i) / y'(t_i)

for simple-root divisors, verified exactly on every suite chain (twisted
and untwisted, levels 0..3).  The textbook statement carries (q2/q1)^l and
no sign; norm_check records both values instead of resolving silently.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import NamedTuple, Sequence

from .exactnum import (
    NonRemovableSingularity,
    Poly,
    RatFun,
    eps_limit,
    format_scalar,
    scalar,
)
from .linalg import ExactMatrix
from .chain import ModuleSpec, Weight
from .monodromy import Check, laurent_coefficients, tensor_monodromy
from .superlin import E_PARITY, SuperSpace, e_matrix, kron_signed
from .bethe import Divisor, bethe_vector, char_pair, eps_components


def r_matrix(wt_i: Weight, wt_j: Weight, x) -> ExactMatrix:
    """Two-site R-matrix on the 4-dimensional product, exact in x.

    Raises on the pole l1^(j) + l2^(i) + x = 0.
    """
    return _embedded_r_matrix(SuperSpace.tensor_power(2), 0, 1, wt_i, wt_j, x)


def _embedded_r_matrix(space: SuperSpace, i: int, j: int, wt_i: Weight, wt_j: Weight, x) -> ExactMatrix:
    """The R-matrix of sites i < j as its six terms E_ab (x) E_cd, each embedded at legs (i, j) of space."""
    x = scalar(x)
    den = wt_j.l1 + wt_i.l2 + x
    if den == 0:
        raise ValueError("R-matrix undefined")
    terms = [
        ((1, 1), (1, 1), Fraction(1)),
        ((2, 2), (2, 2), -(wt_i.l1 + wt_j.l2 - x) / den),
        ((1, 1), (2, 2), (wt_j.l1 - wt_i.l1 + x) / den),
        ((2, 2), (1, 1), (wt_i.l2 - wt_j.l2 + x) / den),
        ((1, 2), (2, 1), -(wt_i.l1 + wt_i.l2) / den),
        ((2, 1), (1, 2), (wt_j.l1 + wt_j.l2) / den),
    ]
    out = ExactMatrix(space.dim, space.dim)
    for (a, b), (c, d), coef in terms:
        if coef:
            out = out + kron_signed(
                space,
                {i: (e_matrix(a, b) * coef, E_PARITY[(a, b)]), j: (e_matrix(c, d), E_PARITY[(c, d)])},
            )
    return out


def _tensor_form(spec: ModuleSpec) -> ExactMatrix:
    """Diagonal Gram matrix of the product form before the R-twist."""
    space = spec.space()
    out = ExactMatrix(space.dim, space.dim)
    for idx in range(space.dim):
        odd = space.level(idx)
        # sign convention for a tensor product of even forms
        val = Fraction(-1 if (odd * (odd - 1) // 2) % 2 else 1)
        for wt, comp in zip(spec.weights, space.multi_index(idx)):
            if comp:
                val *= -(wt.l1 + wt.l2)
        out.put(idx, idx, val)
    return out


def r_product(spec: ModuleSpec) -> ExactMatrix:
    """Ordered product of embedded R-matrices over pairs i < j."""
    space = spec.space()
    out = ExactMatrix.identity(space.dim)
    for i in range(spec.k):
        for j in range(i + 1, spec.k):
            wt_i, wt_j = spec.weights[i], spec.weights[j]
            out = out @ _embedded_r_matrix(space, i, j, wt_i, wt_j, spec.points[i] - spec.points[j])
    return out


@functools.cache
def form_matrix(spec: ModuleSpec) -> ExactMatrix:
    """Gram matrix of the contravariant form on the chain module.

    Memoised per chain: the matrix is shared and must not be mutated.
    """
    return _tensor_form(spec) @ r_product(spec)


def form_value(gram: ExactMatrix, u: Sequence, w: Sequence):
    acc = None
    for i, row in gram.rows.items():
        if not u[i]:
            continue
        for j, g in row.items():
            if w[j]:
                term = u[i] * g * w[j]
                acc = term if acc is None else acc + term
    return acc if acc is not None else Fraction(0)


def iota_sign(i: int, j: int) -> int:
    """Sign of iota on the (i, j) generating series: E_12 -> +, E_21 -> -."""
    return -1 if ((i == 2) * (j == 2) + (i == 2)) % 2 else 1


def check_iota_contract(spec: ModuleSpec) -> Check:
    """Contravariance of the form for the series coefficients up to k+1.

    Passes when every coefficient T_ij^(r), r = 1..k+1, satisfies it; else
    the witness names the first failing (i, j, r).
    """
    pencil = tensor_monodromy(spec)
    gram = form_matrix(spec)
    space = pencil.space
    one = Poly((1,))
    series = {
        (i, j): laurent_coefficients(pencil.entry(i, j), one, pencil.normalizer, spec.k + 1)
        for i in (1, 2)
        for j in (1, 2)
    }
    for r in range(1, spec.k + 2):
        for (i, j) in ((1, 1), (1, 2), (2, 1), (2, 2)):
            x = series[(i, j)][r]
            ix = series[(j, i)][r] * iota_sign(i, j)
            par = E_PARITY[(i, j)]
            lhs = x.transpose() @ gram
            rhs = gram @ ix
            if par:
                signed = ExactMatrix(space.dim, space.dim)
                for a, b, v in rhs.entries():
                    signed.put(a, b, -v if space.parity(a) else v)
                rhs = signed
            if lhs != rhs:
                return Check(False, witness=f"first failing (i, j, r) {(i, j, r)}")
    return Check(True)


def wronskian(spec: ModuleSpec) -> Poly:
    cp = char_pair(spec)
    return cp.phi * cp.psi.derivative() - cp.phi.derivative() * cp.psi


class NormRecord(NamedTuple):
    divisor: Divisor
    lhs: Fraction
    rhs_stated: "Fraction | None"
    rhs_resolved: Fraction
    equal: bool
    repeated_roots: bool

    def __bool__(self):
        return self.equal

    def to_dict(self) -> dict:
        return {
            "divisor": self.divisor.poly.to_strings(),
            "lhs": format_scalar(self.lhs),
            "rhs": format_scalar(self.rhs_resolved),
            "rhs_textbook": None if self.rhs_stated is None else format_scalar(self.rhs_stated),
            "equal": self.equal,
            "repeated_roots": self.repeated_roots,
        }


def norm_check(spec: ModuleSpec, y: Divisor) -> NormRecord:
    """Square norm of the on-shell vector against the Wronskian product.

    Simple roots are evaluated directly; repeated roots through the
    regularization extension on both sides, with the record flagged.
    """
    gram = form_matrix(spec)
    q1, q2 = spec.twist
    level = y.degree
    wr = wronskian(spec)
    repeated = any(m > 1 for _, m in y.roots)
    if not repeated:
        vec = bethe_vector(spec, y.root_list())
        lhs = form_value(gram, vec, vec)
        yprime = y.poly.derivative()
        prod = Fraction(1)
        for t in y.root_list():
            prod *= wr(t) / yprime(t)
    else:
        lhs, prod = _norm_eps(y, tensor_monodromy(spec), gram, wr)
        if lhs is None:
            return NormRecord(y, Fraction(0), None, Fraction(0), False, True)
    stated = (q2 / q1) ** level * prod
    resolved = (-1) ** level * prod
    return NormRecord(y, lhs, stated, resolved, lhs == resolved, repeated)


def _norm_eps(y, pencil, gram, wr):
    """Both norm sides as eps -> 0 limits at a repeated-root divisor."""
    points, bval = eps_components(y.root_list(), pencil)
    # rhs: same perturbation applied to the divisor polynomial
    prod_rf = RatFun(Poly((1,)))
    for idx, pt in enumerate(points):
        dy = Poly((1,))
        for jdx, other in enumerate(points):
            if jdx != idx:
                dy = dy * (pt - other)
        prod_rf = prod_rf * RatFun(wr(pt)) / RatFun(dy)
    try:
        return eps_limit(form_value(gram, bval, bval)), eps_limit(prod_rf)
    except NonRemovableSingularity:
        return None, None


def orthogonality_check(spec: ModuleSpec, y1: Divisor, y2: Divisor) -> Check:
    """B(Bhat(y1), Bhat(y2)) = 0 exactly for distinct divisors y1, y2; the witness is the form value."""
    value = bethe_pairing(spec, y1, y2)
    return Check(value == 0, witness="" if value == 0 else f"form value {format_scalar(value)}")


def bethe_pairing(spec: ModuleSpec, y1: Divisor, y2: Divisor) -> Fraction:
    """The form value B(Bhat(y1), Bhat(y2)) of the Bethe vectors of distinct divisors y1, y2."""
    if y1 == y2:
        raise ValueError("divisors must differ")
    return form_value(form_matrix(spec), bethe_vector(spec, y1.root_list()), bethe_vector(spec, y2.root_list()))
