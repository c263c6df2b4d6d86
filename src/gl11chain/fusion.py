"""Higher transfer matrices, Berezinian, and the difference-operator algebra.

Working representation: operators on the chain module are sparse matrices
with RatFun entries; a DiffOp is a finite dict {tau power: matrix} under
the twisted product tau f(x) = f(x - 1) tau.  Inverses are exact for a
single-term operator and truncated geometric series when the tau^0 part is
invertible; all identities checked here are decidable equalities between
RatFun coefficient matrices.

The Manin-matrix entries of the generating operator are K_ij = q_j T_ji(x) tau,
so that the Berezinian K_11 (K_22 - K_21 K_11^{-1} K_12)^{-1} collapses to a
tau-free scalar.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exactnum import Poly, RatFun, scalar
from .linalg import ExactMatrix
from .monodromy import ModuleSpec, MonodromyPencil, tensor_monodromy
from .superlin import (
    E_PARITY,
    EVEN,
    SuperSpace,
    e_matrix,
    kron_signed,
    partial_supertrace,
    permutation_sign,
    symmetric_group_action,
)
from .bethe import Divisor, bethe_vector, char_pair


# ---------------------------------------------------------------------------
# symmetrizers
# ---------------------------------------------------------------------------


def symmetrizers(m: int) -> tuple[ExactMatrix, ExactMatrix]:
    """Normalized graded antisymmetrizer and symmetrizer on m tensor factors."""
    if m < 1:
        raise ValueError("m must be positive")
    space = SuperSpace.tensor_power(m)
    action = symmetric_group_action(space)
    a = ExactMatrix(space.dim, space.dim)
    h = ExactMatrix(space.dim, space.dim)
    for perm, mat in action.items():
        h = h + mat
        a = a + mat * permutation_sign(perm)
    return a * Fraction(1, len(action)), h * Fraction(1, len(action))


# ---------------------------------------------------------------------------
# RatFun matrices of the monodromy entries
# ---------------------------------------------------------------------------


def t_entry_matrix(pencil: MonodromyPencil, i: int, j: int, shift: int = 0) -> ExactMatrix:
    """T_ij(x - shift) as a RatFun-entry matrix on the module."""
    ent = pencil.entry(i, j)
    if shift:
        ent = ent.shift(shift)
    den = Poly((1,))
    for b in pencil.points:
        den = den * Poly((-b - shift, 1))
    return ent.as_ratfun_matrix(den)


def transfer_ratfun(pencil: MonodromyPencil, twist, shift: int = 0) -> ExactMatrix:
    """TransferQ(x - shift) as a RatFun-entry matrix."""
    q1, q2 = scalar(twist[0]), scalar(twist[1])
    return t_entry_matrix(pencil, 1, 1, shift) * q1 - t_entry_matrix(pencil, 2, 2, shift) * q2


def _shift_matrix(m: ExactMatrix, a: int) -> ExactMatrix:
    if a == 0:
        return m
    return m.map_entries(lambda r: r.shift(a) if isinstance(r, RatFun) else RatFun(Poly((r,))).shift(a))


def _rat_identity(dim: int) -> ExactMatrix:
    return ExactMatrix.identity(dim, RatFun(Poly((1,))))


# ---------------------------------------------------------------------------
# higher transfer matrices (two independent routes)
# ---------------------------------------------------------------------------


def higher_transfer_supertrace(
    pencil: MonodromyPencil, twist, m: int, projector: ExactMatrix
) -> ExactMatrix:
    """Route A: signed partial trace of P Q T(x) Q T(x-1) ... over m legs.

    P is one of the projectors from symmetrizers(m): A_m gives the m-th
    transfer matrix T_m, H_m its symmetric analog.
    """
    q = (scalar(twist[0]), scalar(twist[1]))
    module = pencil.space
    full = SuperSpace([SuperSpace.standard_leg()] * m + [module.parities])
    dmod = module.dim
    prod = _lift_leading(projector, dmod).map_entries(lambda v: RatFun(Poly((v,))))
    qmat = ExactMatrix(2, 2)
    qmat.put(0, 0, q[0])
    qmat.put(1, 1, q[1])
    for leg in range(m):
        tleg = ExactMatrix(full.dim, full.dim)
        for a, b in ((1, 1), (1, 2), (2, 1), (2, 2)):
            tm = t_entry_matrix(pencil, a, b, leg)
            par = E_PARITY[(a, b)]
            tleg = tleg + kron_signed(full, {leg: (e_matrix(a, b), par), m: (tm, par)})
        qleg = kron_signed(full, {leg: (qmat, EVEN)})
        prod = prod @ qleg @ tleg
    return partial_supertrace(prod, SuperSpace.tensor_power(m), dmod)


def _lift_leading(block: ExactMatrix, rest_dim: int) -> ExactMatrix:
    out = ExactMatrix(block.nrows * rest_dim, block.ncols * rest_dim)
    for i, j, v in block.entries():
        for r in range(rest_dim):
            out.put(i * rest_dim + r, j * rest_dim + r, v)
    return out


def higher_transfer_expansion(pencil: MonodromyPencil, twist, m: int) -> ExactMatrix:
    """Route B: the explicit entrywise expansion of the m-th transfer matrix."""
    q1, q2 = scalar(twist[0]), scalar(twist[1])
    dim = pencil.dim
    if m == 1:
        return transfer_ratfun(pencil, twist)
    t22 = [t_entry_matrix(pencil, 2, 2, i) for i in range(m)]

    def t22_range(lo: int, hi: int) -> ExactMatrix:
        out = _rat_identity(dim)
        for i in range(lo, hi + 1):
            out = out @ t22[i]
        return out

    tilde = -(transfer_ratfun(pencil, twist) @ t22_range(1, m - 1))
    for s in range(1, m):
        term = t_entry_matrix(pencil, 1, 2, 0) * q1
        term = term @ t22_range(1, s - 1)
        term = term @ t_entry_matrix(pencil, 2, 1, s)
        term = term @ t22_range(s + 1, m - 1)
        tilde = tilde + term
    sign = Fraction(-1) ** m
    return tilde * (sign * q2 ** (m - 1))


@dataclass
class RouteComparison:
    ok: bool
    matrix: ExactMatrix
    witness: "tuple | None" = None

    def __bool__(self):
        return self.ok


@functools.cache
def higher_transfer(spec: ModuleSpec, m: int) -> RouteComparison:
    """m-th transfer matrix; hard failure when the two routes disagree.

    Memoised per (chain, m): the result is shared and must not be mutated.
    """
    pencil = tensor_monodromy(spec)
    via_trace = higher_transfer_supertrace(pencil, spec.twist, m, symmetrizers(m)[0])
    via_expansion = higher_transfer_expansion(pencil, spec.twist, m)
    if via_trace != via_expansion:
        diff = via_trace - via_expansion
        i, j, _ = next(diff.entries())
        return RouteComparison(False, via_expansion, (m, i, j))
    return RouteComparison(True, via_expansion)


# ---------------------------------------------------------------------------
# difference operators
# ---------------------------------------------------------------------------


@dataclass
class DiffOp:
    """Finite tau-polynomial with RatFun-matrix coefficients."""

    dim: int
    coeffs: dict[int, ExactMatrix]

    def __post_init__(self):
        self.coeffs = {p: c for p, c in self.coeffs.items() if not c.is_zero()}

    @staticmethod
    def scalar_term(dim: int, power: int, value: RatFun) -> "DiffOp":
        return DiffOp(dim, {power: _rat_identity(dim) * value})

    @staticmethod
    def one(dim: int) -> "DiffOp":
        return DiffOp(dim, {0: _rat_identity(dim)})

    def coeff(self, p: int) -> ExactMatrix:
        return self.coeffs.get(p, ExactMatrix(self.dim, self.dim))

    def powers(self) -> list[int]:
        return sorted(self.coeffs)

    def __add__(self, other: "DiffOp") -> "DiffOp":
        out = dict(self.coeffs)
        for p, c in other.coeffs.items():
            out[p] = out[p] + c if p in out else c
        return DiffOp(self.dim, out)

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        return self + other.scale(Fraction(-1))

    def scale(self, v) -> "DiffOp":
        return DiffOp(self.dim, {p: c * v for p, c in self.coeffs.items()})

    def mul(self, other: "DiffOp", hi: Optional[int] = None, lo: Optional[int] = None) -> "DiffOp":
        """Product with the tau-shift rule, truncated to powers in [lo, hi]."""
        out: dict[int, ExactMatrix] = {}
        for p, a in self.coeffs.items():
            for q, b in other.coeffs.items():
                r = p + q
                if hi is not None and r > hi:
                    continue
                if lo is not None and r < lo:
                    continue
                term = a @ _shift_matrix(b, p)
                out[r] = out[r] + term if r in out else term
        return DiffOp(self.dim, out)

    def inverse_single(self) -> "DiffOp":
        """Exact inverse of a single-term operator A tau^p."""
        if len(self.coeffs) != 1:
            raise ValueError("inverse_single needs a single tau power")
        (p, a), = self.coeffs.items()
        ainv = _shift_matrix(a.inverse(), -p)
        return DiffOp(self.dim, {-p: ainv})

    def inverse_series(self, hi: int) -> "DiffOp":
        """Inverse up to tau^hi of c0 + (positive tau powers), c0 invertible."""
        if any(p < 0 for p in self.coeffs):
            raise ValueError("inverse_series expects nonnegative powers")
        c0 = self.coeff(0)
        if c0.is_zero():
            raise ValueError("non-invertible constant term")
        c0inv = DiffOp(self.dim, {0: c0.inverse()})
        rest = DiffOp(self.dim, {p: c for p, c in self.coeffs.items() if p > 0})
        nil = c0inv.mul(rest, hi=hi)
        out = DiffOp.one(self.dim)
        power = DiffOp.one(self.dim)
        for _ in range(hi):
            power = nil.mul(power, hi=hi).scale(Fraction(-1))
            if not power.coeffs:
                break
            out = out + power
        return out.mul(c0inv, hi=hi)

    def __eq__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self.dim == other.dim and self.coeffs == other.coeffs

    __hash__ = None

    def truncate(self, hi: int, lo: Optional[int] = None) -> "DiffOp":
        return DiffOp(
            self.dim,
            {p: c for p, c in self.coeffs.items() if p <= hi and (lo is None or p >= lo)},
        )


def manin_entries(pencil: MonodromyPencil, twist) -> dict[tuple[int, int], DiffOp]:
    """K_ij = q_j T_ji(x) tau for the generating operator."""
    q = (scalar(twist[0]), scalar(twist[1]))
    out = {}
    for i in (1, 2):
        for j in (1, 2):
            out[(i, j)] = DiffOp(pencil.dim, {1: t_entry_matrix(pencil, j, i) * q[j - 1]})
    return out


# ---------------------------------------------------------------------------
# Berezinian
# ---------------------------------------------------------------------------


@dataclass
class BerezinianValue:
    value: RatFun
    forms_agree: bool
    tau_free: bool
    central: bool

    def __bool__(self):
        return self.forms_agree and self.tau_free and self.central


@functools.cache
def berezinian(spec: ModuleSpec) -> BerezinianValue:
    """Berezinian of the generating operator on the chain module.

    Computed mechanically in the difference-operator algebra; asserts that
    only the tau^0 coefficient survives, that all four quotient expressions
    agree, that the value is the scalar (q1/q2) phi/psi, and that it
    commutes with every pencil coefficient.  Memoised per chain: the
    result is shared and must not be mutated.
    """
    pencil = tensor_monodromy(spec)
    k = manin_entries(pencil, spec.twist)
    k11, k12, k21, k22 = k[(1, 1)], k[(1, 2)], k[(2, 1)], k[(2, 2)]
    f1 = k11.mul((k22 - k21.mul(k11.inverse_single()).mul(k12)).inverse_single())
    f2 = (k22 + k12.mul(k11.inverse_single()).mul(k21)).inverse_single().mul(k11)
    f3 = k22.inverse_single().mul(k11 - k12.mul(k22.inverse_single()).mul(k21))
    f4 = (k11 + k21.mul(k22.inverse_single()).mul(k12)).mul(k22.inverse_single())
    forms_agree = f1 == f2 == f3 == f4
    tau_free = f1.powers() == [0]
    mat = f1.coeff(0)
    cp = char_pair(spec)
    q1, q2 = spec.twist
    expected = RatFun(cp.phi * q1, cp.psi * q2)
    scalar_ok = mat == _rat_identity(pencil.dim) * expected
    central = True
    for (i, j), ent in pencil.entries.items():
        for c in ent.coeffs:
            lifted = c.map_entries(lambda v: RatFun(Poly((v,))))
            if not mat.commutes_with(lifted):
                central = False
    return BerezinianValue(expected if scalar_ok else RatFun(Poly()), forms_agree and scalar_ok, tau_free, central)


def generating_oper(spec: ModuleSpec, order: int) -> DiffOp:
    """Ber(1 - Z^Q) as a tau series up to tau^order."""
    pencil = tensor_monodromy(spec)
    k = manin_entries(pencil, spec.twist)
    one = DiffOp.one(pencil.dim)
    k11 = one - k[(1, 1)]
    k12 = DiffOp(pencil.dim, {}) - k[(1, 2)]
    k21 = DiffOp(pencil.dim, {}) - k[(2, 1)]
    k22 = one - k[(2, 2)]
    inner = k22 - k21.mul(k11.inverse_series(order), hi=order).mul(k12, hi=order)
    return k11.mul(inner.inverse_series(order), hi=order).truncate(order)


# ---------------------------------------------------------------------------
# fusion identities
# ---------------------------------------------------------------------------


@dataclass
class FusionCheck:
    ok: bool
    label: str
    witness: "object | None" = None

    def __bool__(self):
        return self.ok


def expansion_matches_routes(spec: ModuleSpec, order: int) -> list[FusionCheck]:
    """Ber(1 - Z) = sum (-1)^m T_m tau^m, checked coefficient by coefficient."""
    oper = generating_oper(spec, order)
    out = []
    for m in range(order + 1):
        if m == 0:
            want = _rat_identity(oper.dim)
        else:
            rc = higher_transfer(spec, m)
            if not rc.ok:
                out.append(FusionCheck(False, f"route disagreement at m={m}", rc.witness))
                continue
            want = rc.matrix * (Fraction(-1) ** m)
        got = oper.coeff(m)
        out.append(FusionCheck(got == want, f"tau^{m} coefficient of the generating operator"))
    return out


def transfer_relation_check(spec: ModuleSpec, m: int) -> list[FusionCheck]:
    """Both product identities relating T_m, H_m to the first transfer matrix.

    T_m(x) prod_{i<m} (1 - Ber(x-i)) = prod_{i<=m} TransferQ(x-i+1), and the
    H_m identity with the extra Berezinian product on the right; H_m is also
    matched against the inverse tau series of the generating operator.
    """
    pencil = tensor_monodromy(spec)
    out = []
    ber = berezinian(spec)
    if not ber:
        return [FusionCheck(False, "berezinian inconsistent")]
    dim = pencil.dim
    rc = higher_transfer(spec, m)
    if not rc.ok:
        return [FusionCheck(False, f"route disagreement at m={m}", rc.witness)]
    scal = RatFun(Poly((1,)))
    for i in range(1, m):
        scal = scal * (1 - ber.value.shift(i))
    lhs = rc.matrix * scal
    rhs = _rat_identity(dim)
    for i in range(1, m + 1):
        rhs = rhs @ transfer_ratfun(pencil, spec.twist, i - 1)
    out.append(FusionCheck(lhs == rhs, f"antisymmetric transfer relation m={m}"))

    hm = higher_transfer_supertrace(pencil, spec.twist, m, symmetrizers(m)[1])
    scal_h = RatFun(Poly((1,)))
    berprod = RatFun(Poly((1,)))
    for i in range(1, m):
        scal_h = scal_h * (ber.value.shift(i) - 1)
        berprod = berprod * ber.value.shift(i)
    lhs_h = hm * scal_h
    rhs_h = rhs * berprod
    out.append(FusionCheck(lhs_h == rhs_h, f"symmetric transfer relation m={m}"))

    oper = generating_oper(spec, m)
    inv = oper.inverse_series(m)
    out.append(FusionCheck(inv.coeff(m) == hm, f"inverse series coefficient m={m}"))
    return out


def dy_coefficient(spec: ModuleSpec, y: Divisor, m: int) -> RatFun:
    """tau^m coefficient of the rational difference operator attached to y."""
    if m == 0:
        return RatFun(Poly((1,)))
    cp = char_pair(spec)
    q1, q2 = spec.twist
    ypoly = y.poly
    val = (cp.zeta1 * q1 - cp.zeta2 * q2) * RatFun(ypoly.shift(m), ypoly) * (q2 ** (m - 1))
    for i in range(1, m):
        val = val * cp.zeta2.shift(i)
    return -val


def oper_action_check(spec: ModuleSpec, y: Divisor, order: int) -> list[FusionCheck]:
    """Generating-operator action on Bhat against the scalar divisor operator.

    Requires a simple-root divisor and order >= 2; each tau coefficient is
    compared exactly on the Bethe vector.
    """
    if any(mult > 1 for _, mult in y.roots):
        raise ValueError("simple-root divisor required")
    if order < 2:
        raise ValueError("order must be at least 2")
    bv = bethe_vector(spec, y.root_list())
    vec = [RatFun(Poly((v,))) for v in bv.vector]
    out = []
    for m in range(1, order + 1):
        rc = higher_transfer(spec, m)
        if not rc.ok:
            out.append(FusionCheck(False, f"route disagreement at m={m}", rc.witness))
            continue
        lhs = rc.matrix.apply(vec)
        scalar_coeff = dy_coefficient(spec, y, m) * (Fraction(-1) ** m)
        rhs = [scalar_coeff * v for v in vec]
        ok = all(a == b for a, b in zip(lhs, rhs))
        out.append(FusionCheck(ok, f"oper action tau^{m} on divisor {y.label()}"))
    return out


def universal_oper_check(spec: ModuleSpec, order: int) -> list[FusionCheck]:
    """The two universal quotient forms reproduce the generating operator.

    Needs Ber - 1 invertible as a rational function, i.e. a nonzero
    characteristic polynomial.
    """
    pencil = tensor_monodromy(spec)
    ber = berezinian(spec)
    if not ber:
        return [FusionCheck(False, "berezinian inconsistent")]
    if not (ber.value - 1):
        raise ValueError("Ber - 1 not invertible for this chain")
    dim = pencil.dim
    oper = generating_oper(spec, order)
    tq = transfer_ratfun(pencil, spec.twist)
    bm1 = ber.value - 1
    one = DiffOp.one(dim)
    n1 = one - DiffOp(dim, {1: tq * (ber.value / bm1)})
    n2 = one - DiffOp(dim, {1: tq * (1 / bm1)})
    rhs1 = n1.mul(n2.inverse_series(order), hi=order)
    checks = [FusionCheck(oper == rhs1.truncate(order), "universal oper, first form")]
    shifted = ber.value.shift(-1)
    m1 = DiffOp.scalar_term(dim, 0, 1 - shifted) + DiffOp(dim, {1: tq * ber.value})
    m2 = DiffOp.scalar_term(dim, 0, 1 - shifted) + DiffOp(dim, {1: tq})
    rhs2 = m1.mul(m2.inverse_series(order), hi=order)
    checks.append(FusionCheck(oper == rhs2.truncate(order), "universal oper, second form"))
    return checks


def ber_twist_independence(spec: ModuleSpec) -> bool:
    """Ber * q2/q1 must not depend on the twist."""
    q1, q2 = spec.twist
    other = spec.replace_twist((q1 + q2, q2))
    b1 = berezinian(spec)
    b2 = berezinian(other)
    if not (b1 and b2):
        return False
    return b1.value * (q2 / q1) == b2.value * (other.twist[1] / other.twist[0])
