"""Contravariant bilinear form from ordered R-matrix products; norms.

The form on the chain module is G = G0 @ R, where G0 is the diagonal tensor
form (highest vector normalized to 1, lowering-image squared norm
-(l1 + l2) per site, with the usual sign convention for tensor factors) and
R is the ordered product of two-site R-matrices over pairs i < j, i running
first.  Contravariance pins every sign: B(X w1, w2) equals
(-1)^{|X||w1|} B(w1, iota(X) w2) with iota the transpose-with-signs
anti-automorphism of the generating series.  check_iota_contract decides
it for the series coefficients on the pencil's own x-coefficients: the
normalizer is monic, so no series is expanded.

Norm bookkeeping: for every monic divisor y of degree l of
gamma = q1*phi - q2*psi (exactly, as char_pair builds it), repeated roots
included, the on-shell square norm is

    B(Bhat, Bhat) = q1^(-l) Res(y, psi * gamma/y)
                  = q1^(-l) prod_{t root of y, with multiplicity} psi(t) (gamma/y)(t),

a closed formula in y, phi and psi with no derivative and no limit.  At
simple roots it is the Wronskian form (-1)^l prod_i Wr(phi, psi)(t_i) / y'(t_i):
at a root t of gamma, phi(t) = (q2/q1) psi(t), so
Wr(t) = phi psi' - phi' psi = -psi(t) gamma'(t) / q1, and
gamma'(t) = y'(t) (gamma/y)(t).  norm_check compares the formula with the
form value of the Bethe vector, an independent computation; the identity
holds exactly on every suite chain (twisted and untwisted, levels 0..3).
The textbook statement carries (q2/q1)^l and no sign;
norm_check records both values instead of resolving silently.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import NamedTuple

from .exactnum import format_scalar, scalar
from .linalg import ExactMatrix, kronecker_values, product_slots
from .chain import ModuleSpec, Weight
from .monodromy import Check, tensor_monodromy
from .superlin import E_PARITY, SuperSpace, leg_units
from .bethe import Divisor, bethe_vector, char_pair


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
            out = out + leg_units(space, ((i, a, b), (j, c, d)), coef)
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


def form_value(gram: ExactMatrix, u: dict, w: dict):
    """B(u, w) = u^T G w for the vectors u and w."""
    terms = (u[i] * g * w[j] for i, row in gram.rows.items() if i in u for j, g in row.items() if j in w)
    return sum(terms, Fraction(0))


def iota_sign(i: int, j: int) -> int:
    """Sign of iota on the (i, j) generating series: E_12 -> +, E_21 -> -."""
    return -1 if ((i == 2) * (j == 2) + (i == 2)) % 2 else 1


def check_iota_contract(spec: ModuleSpec) -> Check:
    """Contravariance of the form for every series coefficient.

    Passes when every coefficient T_ij^(r), r >= 0, satisfies
    T_ij^(r)^T G = iota_sign(i, j) S G T_ji^(r), with S = (-1)^{|a|} on
    row a when e_ij is odd and S = 1 otherwise; else the witness names the
    first failing (i, j, r), r before (i, j).

    The check reads the pencil, not the series.  With
    P_ij(x) = That_ij(x)^T G - iota_sign(i, j) S G That_ji(x), the series
    T_ij = That_ij / N gives
      sum_{r >= 0} (T_ij^(r)^T G - iota_sign(i, j) S G T_ji^(r)) x^-r = P_ij(x) / N(x).
    On a normalized pencil the r = 0 term vanishes: T^(0) = delta_ij I and,
    for i = j, iota_sign = +1 and S = 1.  N is monic of degree k, so when
    P_ij != 0 has top nonzero x-degree e the first failing r is k - e, and
    every r holds exactly when P_ij = 0.  r = 0 fails only when an x^k
    coefficient is broken.

    Each P_ij is read at one Kronecker point (linalg.kronecker_values):
    with D the lcm of the denominators of G and the pencil, slot d of
    D That_ij(2^w)^T D G - iota_sign(i, j) S D G D That_ji(2^w) is D^2 times
    the x^d coefficient of P_ij, a sum of two products: w holds 2 dim M^2.
    """
    pencil = tensor_monodromy(spec)
    order = ((1, 1), (1, 2), (2, 1), (2, 2))
    w, ([*values, g],) = kronecker_values([*(pencil.entry(*e) for e in order), form_matrix(spec)], 2)
    at = dict(zip(order, values))
    signed = ExactMatrix(g.nrows, g.ncols, {a: {b: -v for b, v in row.items()} if pencil.space.parity(a) else row
                                            for a, row in g.rows.items()})
    # (r, i, j) sorts r first, then (i, j) in the order above
    failures = [(spec.k - max(slots), i, j) for i, j in order if (slots := product_slots([
        (1, at[(i, j)].transpose(), g), (-iota_sign(i, j), signed if E_PARITY[(i, j)] else g, at[(j, i)]),
    ], w))]
    if failures:
        r, i, j = min(failures)
        return Check(False, witness=f"first failing (i, j, r) {(i, j, r)}")
    return Check(True)


class NormRecord(NamedTuple):
    divisor: Divisor
    lhs: Fraction
    rhs_stated: Fraction
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
            "rhs_textbook": format_scalar(self.rhs_stated),
            "equal": self.equal,
            "repeated_roots": self.repeated_roots,
        }


def norm_check(spec: ModuleSpec, y: Divisor) -> NormRecord:
    """Square norm of the on-shell vector against q1^(-l) Res(y, psi * gamma/y).

    Raises ValueError when y does not divide gamma.
    """
    cp = char_pair(spec)
    cofactor = cp.cofactor(y)
    q1, q2 = spec.twist
    roots = y.root_list()
    vec = bethe_vector(spec, roots)
    lhs = form_value(form_matrix(spec), vec, vec)
    resolved = Fraction(1) / q1 ** y.degree
    for t in roots:
        resolved *= cp.psi(t) * cofactor(t)
    stated = (-q2 / q1) ** y.degree * resolved
    return NormRecord(y, lhs, stated, resolved, lhs == resolved, any(m > 1 for _, m in y.roots))


def orthogonality_check(spec: ModuleSpec, y1: Divisor, y2: Divisor) -> Check:
    """B(Bhat(y1), Bhat(y2)) = 0 exactly for distinct divisors y1, y2; the witness is the form value."""
    value = bethe_pairing(spec, y1, y2)
    return Check(value == 0, witness="" if value == 0 else f"form value {format_scalar(value)}")


def bethe_pairing(spec: ModuleSpec, y1: Divisor, y2: Divisor) -> Fraction:
    """The form value B(Bhat(y1), Bhat(y2)) of the Bethe vectors of distinct divisors y1, y2."""
    if y1 == y2:
        raise ValueError("divisors must differ")
    return form_value(form_matrix(spec), bethe_vector(spec, y1.root_list()), bethe_vector(spec, y2.root_list()))
