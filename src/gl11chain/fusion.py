"""Higher transfer matrices, Berezinian, and the difference-operator algebra.

Working representation: an operator on the chain module is a FracMatrix, a
sparse matrix with Poly entries over one monic scalar Poly denominator.
Every monodromy entry T_ij(x - a) is That_ij(x - a) / N(x - a), with N the
normalizer prod_s (x - b_s), so t_entry wraps the pencil's Poly-entry
matrix as it is.  Products multiply numerators and denominators, sums use
the lcm of the denominators, equality cross-multiplies, and only
FracMatrix.inverse canonicalises entries: it eliminates fraction-free on the
Poly rows of [num | 1] (SpanBasis over Q[x]) and divides each row by one gcd.
A DiffOp is a finite dict {tau power: FracMatrix} under the twisted product
tau f(x) = f(x - 1) tau.  Inverses are exact for a single-term operator;
when the tau^0 part c_0 is invertible, the inverse up to tau^hi is solved
coefficient by coefficient from D U = 1, u_r = -c_0^-1 sum_{p=1..r} c_p
u_(r-p)(x - p), with O(hi^2) products and none by an identity c_0.

The Manin-matrix entries of the generating operator are K_ij = q_j T_ji(x) tau,
so that the Berezinian K_11 (K_22 - K_21 K_11^{-1} K_12)^{-1} collapses to a
tau-free scalar.  Each derived object is built once per chain: berezinian
(four inverses for its four quotient forms) and higher_transfer per m are
memoised, generating_oper is built at the largest order asked for and read
truncated at lower ones, and transfer_relation_check checks m = 1..top in
one pass over one inverse series.

T_m and its symmetric analog are supertraces over m aux legs with the graded
antisymmetrizer A_m or symmetrizer H_m.  Both have rank 2 and the closed form
P = E[b..b, b..b] + (1/m) sum_{p,q} s^(p+q) E[w_p, w_q], w_p being b on every
leg but p and the other state there: b odd and s = -1 for A_m, b even and
s = 1 for H_m (AUX_IMAGE).  The adjacent graded flips F_i alone decide that P
is the group average G = (1/m!) sum_g s^|g| g (symmetrizer_check): let W be
the common s-eigenspace of the F_i.  F_i P = s P puts im P in W, so rank P =
dim W makes im P = W, where P^2 = P is the identity; G maps into W, so P G =
G; and P F_i = s P gives P g = s^|g| P, so P G = P = G.  Route A reads P from
this image basis, route B expands T_m entrywise, and higher_transfer
compares the two.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import NamedTuple, Optional

from .exactnum import Poly, RatFun, scalar
from .linalg import ExactMatrix, first_noncommuting
from .chain import ModuleSpec
from .monodromy import Check, MonodromyPencil, chain_transfer_pencil, tensor_monodromy
from .superlin import EVEN, ODD, SuperSpace, adjacent_flip
from .bethe import Divisor, bethe_vector, char_pair


# ---------------------------------------------------------------------------
# symmetrizers
# ---------------------------------------------------------------------------


# (b, s) of the image basis of A_m (True) and H_m (False); see the module docstring
AUX_IMAGE = {True: (ODD, -1), False: (EVEN, 1)}


@functools.cache
def symmetrizers(m: int) -> tuple[ExactMatrix, ExactMatrix]:
    """(A_m, H_m) in closed form, m^2 + 1 entries each.  Memoised per m: shared, must not be mutated."""
    if m < 1:
        raise ValueError("m must be positive")
    space = SuperSpace.tensor_power(m)
    out = []
    for base, s in (AUX_IMAGE[True], AUX_IMAGE[False]):
        pure = space.index((base,) * m)
        marked = [space.index([base ^ (leg == p) for leg in range(m)]) for p in range(m)]
        rows = {row: {col: Fraction(s ** (p + q), m) for q, col in enumerate(marked)} for p, row in enumerate(marked)}
        out.append(ExactMatrix(space.dim, space.dim, {pure: {pure: Fraction(1)}, **rows}))
    return out[0], out[1]


def symmetrizer_check(m: int) -> Check:
    """The flip argument of the module docstring on symmetrizers(m); the witness names m, P and what failed."""
    space = SuperSpace.tensor_power(m)
    ident = ExactMatrix.identity(space.dim)
    flips = [adjacent_flip(space, i) for i in range(m - 1)]
    for (name, s), proj in zip((("A", -1), ("H", 1)), symmetrizers(m)):
        bad = next((i for i, f in enumerate(flips) if not f @ proj == proj * s == proj @ f), None)
        if bad is not None:
            return Check(False, "symmetrizer", f"{name}_{m} fails F_{bad} {name} = {'-' * (s < 0)}{name} = {name} F_{bad}")
        nullity = space.dim - ExactMatrix.vstack([f - ident * s for f in flips] or [ExactMatrix(1, space.dim)]).rank()
        if proj @ proj != proj or proj.rank() != nullity:
            return Check(False, "symmetrizer", f"{name}_{m}: idempotent {proj @ proj == proj}, rank {proj.rank()} vs {nullity}")
    return Check(True, "symmetrizer")


# ---------------------------------------------------------------------------
# numerator matrices over one scalar denominator
# ---------------------------------------------------------------------------


_ONE = Poly((1,))


class FracMatrix:
    """Matrix num / den: num has Poly entries, den is one monic Poly."""

    __slots__ = ("num", "den")

    def __init__(self, num: ExactMatrix, den: Poly = _ONE):
        self.num = num
        self.den = den

    @staticmethod
    def identity(dim: int) -> "FracMatrix":
        return FracMatrix(ExactMatrix.identity(dim, _ONE))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __matmul__(self, other: "FracMatrix") -> "FracMatrix":
        return FracMatrix(self.num @ other.num, self.den * other.den)

    def __add__(self, other: "FracMatrix") -> "FracMatrix":
        if self.den == other.den:
            return FracMatrix(self.num + other.num, self.den)
        g = Poly.gcd(self.den, other.den)
        mine, theirs = other.den // g, self.den // g
        return FracMatrix(self.num * mine + other.num * theirs, self.den * mine)

    def __neg__(self) -> "FracMatrix":
        return FracMatrix(-self.num, self.den)

    def scale(self, c) -> "FracMatrix":
        """Multiply by a scalar, Poly or RatFun."""
        if isinstance(c, RatFun):
            return FracMatrix(self.num * c.num, self.den * c.den)
        return FracMatrix(self.num * c, self.den)

    def shift(self, a) -> "FracMatrix":
        """Return M(x - a)."""
        if not a:
            return self
        return FracMatrix(self.num.map_entries(lambda p: p.shift(a)), self.den.shift(a))

    def inverse(self) -> "FracMatrix":
        """den num^-1 over the lcm of its entries' lowest denominators.

        The back-substituted rows of [num | 1] over Q[x] are primitive, [d_p e_p | R_p] with
        R_p num = d_p e_p, so row p is den R_p / d_p, in lowest terms over d_p / gcd(d_p, den).
        """
        n = self.num.nrows
        rows = self.num.augmented_span(_ONE).echelon_rows()
        den = _ONE
        for p, row in rows.items():
            d = row[p] // Poly.gcd(row[p], self.den)
            if den % d:
                den = Poly.lcm(den, d)
        scale = {p: self.den * den // row[p] for p, row in rows.items()}
        num = {p: {j - n: a * scale[p] for j, a in row.items() if j >= n} for p, row in rows.items()}
        return FracMatrix(ExactMatrix(n, n, num), den)

    def first_difference(self, other: "FracMatrix") -> "tuple[int, int] | None":
        """Smallest (i, j) where the two matrices differ, by cross-multiplying."""
        keys = {(i, j) for i, j, _ in self.num.entries()} | {(i, j) for i, j, _ in other.num.entries()}
        same_den = self.den == other.den
        for i, j in sorted(keys):
            a, b = self.num.get(i, j), other.num.get(i, j)
            if not same_den:
                a, b = a * other.den, b * self.den
            if a != b:
                return i, j
        return None

    def __eq__(self, other):
        if not isinstance(other, FracMatrix):
            return NotImplemented
        return self.first_difference(other) is None

    __hash__ = None

    def __repr__(self):
        return f"FracMatrix({self.num!r} / {self.den!r})"


def t_entry(pencil: MonodromyPencil, i: int, j: int, shift: int = 0) -> FracMatrix:
    """T_ij(x - shift) = That_ij(x - shift) / N(x - shift)."""
    return FracMatrix(pencil.entry(i, j), pencil.normalizer).shift(shift)


def transfer(spec: ModuleSpec, shift: int = 0) -> FracMatrix:
    """TransferQ(x - shift) = q1 T_11(x - shift) - q2 T_22(x - shift), from the chain's one pencil."""
    return FracMatrix(chain_transfer_pencil(spec), tensor_monodromy(spec).normalizer).shift(shift)


# ---------------------------------------------------------------------------
# higher transfer matrices (two independent routes)
# ---------------------------------------------------------------------------


def higher_transfer_supertrace(pencil: MonodromyPencil, twist, m: int, antisymmetric: bool) -> FracMatrix:
    """Route A: supertrace over m aux legs of P Q T(x) Q T(x-1) ... Q T(x-m+1), P = A_m or H_m.

    With aux multi-indices a, c in {0, 1}^m (0 the even index 1, 1 the odd index 2),

        str = [sum_{a,c} (-1)^|a| P_{a,c} prod_{l<m} eps_l q_{c_l} That_{c_l a_l}(x - l)] / prod_{l<m} N(x - l),

    the product ordered l = 0 .. m-1 from left to right; eps_l =
    (-1)^((c_l + a_l)(a_l + sum_{q>l} c_q)) is leg_unit's Koszul sign for
    E_{c_l a_l} on aux leg l times That_{c_l a_l} on the module, on a vector
    whose aux legs read a_q for q < l and c_q for q > l (the sum_{q<l} a_q
    terms of the two factors cancel).  P's terms
    come from its image basis (AUX_IMAGE): the pure term b..b is one chain of
    That_bb blocks, and the m^2 pairs (w_p, w_q) are summed by a recurrence
    over the legs.  Its state after leg l has bit 0 set when p <= l (the row's
    marked leg is placed) and bit 1 when q <= l (the column's); leg l moves a
    state to one that places p, q, both or neither there, with the block
    That_{c_l a_l} and the factor q_{c_l} eps_l s^l per index placed, where
    sum_{q>l} c_q = b (m - 1 - l), plus 1 while q is still to come.  That is
    9 block products per inner leg and 5 on the last, 9m - 13 for m >= 2,
    against (m^2 + 1)(m - 1) for P's entries one by one.
    """
    q = (scalar(twist[0]), scalar(twist[1]))
    base, s = AUX_IMAGE[antisymmetric]
    that = {(c, a, l): t_entry(pencil, c + 1, a + 1, l).num for c in (0, 1) for a in (0, 1) for l in range(m)}

    def leg(l: int, before: int, after: int) -> ExactMatrix:
        """Leg l's block from state `before` to state `after`, times its scalar."""
        a, c = base ^ ((before ^ after) & 1), base ^ ((before ^ after) >> 1)
        later = base * (m - 1 - l) + 1 - (after >> 1)
        return that[c, a, l] * (q[c] * s ** (l * (a != base) + l * (c != base)) * (-1) ** ((c + a) * (a + later)))

    sums = {state: leg(0, 0, state) for state in range(4)}
    for l in range(1, m):
        sums = {
            after: functools.reduce(ExactMatrix.__add__, (sums[b] @ leg(l, b, after) for b in range(4) if b | after == after))
            for after in (range(4) if l < m - 1 else (0, 3))
        }
    num = sums[0] * (-1) ** (base * m) + sums[3] * Fraction((-1) ** (base * (m - 1) + 1 - base), m)
    return FracMatrix(num, functools.reduce(Poly.__mul__, (pencil.normalizer.shift(l) for l in range(m))))


def higher_transfer_expansion(spec: ModuleSpec, m: int) -> FracMatrix:
    """Route B: the explicit entrywise expansion of the m-th transfer matrix.

    With T22[i] = T_22(x - i), T_m is (-1)^m q2^(m-1) times

        -TransferQ(x) T22[1..m-1] + sum_{s=1}^{m-1} q1 T_12(x) T22[1..s-1] T_21(x - s) T22[s+1..m-1].

    The suffix products T22[i..m-1] are built once, right to left, and the
    prefixes q1 T_12(x) T22[1..s-1] by one running product: 4m - 6 matrix
    products, none by an identity.
    """
    pencil = tensor_monodromy(spec)
    q1, q2 = scalar(spec.twist[0]), scalar(spec.twist[1])
    if m == 1:
        return transfer(spec)
    t22 = {i: t_entry(pencil, 2, 2, i) for i in range(1, m)}
    suffix = {m - 1: t22[m - 1]}  # suffix[i] = T22[i] ... T22[m-1]
    for i in range(m - 2, 0, -1):
        suffix[i] = t22[i] @ suffix[i + 1]
    tilde = -(transfer(spec) @ suffix[1])
    prefix = t_entry(pencil, 1, 2, 0).scale(q1)
    for s in range(1, m):
        term = prefix @ t_entry(pencil, 2, 1, s)
        if s < m - 1:
            term = term @ suffix[s + 1]
            prefix = prefix @ t22[s]
        tilde = tilde + term
    sign = Fraction(-1) ** m
    return tilde.scale(sign * q2 ** (m - 1))


class RouteComparison(NamedTuple):
    check: Check
    matrix: FracMatrix


@functools.cache
def higher_transfer(spec: ModuleSpec, m: int) -> RouteComparison:
    """m-th transfer matrix, with the check that the two routes agree.

    The matrix is route B's.  A failed check is reported in place of every
    identity on T_m; its witness is "(m, i, j)", the first differing entry.
    Memoised per (chain, m): the result is shared and must not be mutated.
    """
    via_trace = higher_transfer_supertrace(tensor_monodromy(spec), spec.twist, m, True)
    via_expansion = higher_transfer_expansion(spec, m)
    diff = via_trace.first_difference(via_expansion)
    witness = "" if diff is None else str((m, *diff))
    return RouteComparison(Check(diff is None, f"route disagreement at m={m}", witness), via_expansion)


# ---------------------------------------------------------------------------
# difference operators
# ---------------------------------------------------------------------------


class DiffOp:
    """Finite tau-polynomial with FracMatrix coefficients; zero coefficients are dropped."""

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim: int, coeffs: dict[int, FracMatrix]):
        self.dim = dim
        self.coeffs = {p: c for p, c in coeffs.items() if not c.is_zero()}

    @staticmethod
    def scalar_term(dim: int, power: int, value: RatFun) -> "DiffOp":
        return DiffOp(dim, {power: FracMatrix.identity(dim).scale(value)})

    @staticmethod
    def one(dim: int) -> "DiffOp":
        return DiffOp(dim, {0: FracMatrix.identity(dim)})

    def frac_coeff(self, p: int) -> FracMatrix:
        return self.coeffs.get(p) or FracMatrix(ExactMatrix(self.dim, self.dim))

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
        return DiffOp(self.dim, {p: c.scale(v) for p, c in self.coeffs.items()})

    def mul(self, other: "DiffOp", hi: Optional[int] = None) -> "DiffOp":
        """Product with the tau-shift rule, truncated to powers up to hi."""
        out: dict[int, FracMatrix] = {}
        for p, a in self.coeffs.items():
            for q, b in other.coeffs.items():
                r = p + q
                if hi is not None and r > hi:
                    continue
                term = a @ b.shift(p)
                out[r] = out[r] + term if r in out else term
        return DiffOp(self.dim, out)

    def inverse_single(self) -> "DiffOp":
        """Exact inverse of a single-term operator A tau^p."""
        if len(self.coeffs) != 1:
            raise ValueError("inverse_single needs a single tau power")
        (p, a), = self.coeffs.items()
        return DiffOp(self.dim, {-p: a.inverse().shift(-p)})

    def inverse_series(self, hi: int) -> "DiffOp":
        """Inverse up to tau^hi of c_0 + (positive tau powers), c_0 invertible, by its coefficient recurrence.

        Under the twisted product the tau^r coefficient of D U = 1 is
        sum_{p<=r} c_p u_(r-p)(x - p), so u_0 = c_0^-1 and
        u_r = -c_0^-1 sum_{p=1..r} c_p u_(r-p)(x - p): O(hi^2) products.
        The truncated inverse is unique, so it is the Neumann series'.  An
        identity c_0 is neither inverted nor multiplied by.
        """
        if any(p < 0 for p in self.coeffs):
            raise ValueError("inverse_series expects nonnegative powers")
        if 0 not in self.coeffs:
            raise ValueError("non-invertible constant term")
        c0 = self.coeffs[0]
        unit = c0.num.is_scalar() and c0.num.get(0, 0) == c0.den
        lead = None if unit else -c0.inverse()  # -c_0^-1
        out = {0: FracMatrix.identity(self.dim) if unit else -lead}
        for r in range(1, hi + 1):
            terms = [c @ out[r - p].shift(p) for p, c in self.coeffs.items() if 0 < p <= r and r - p in out]
            if not terms:
                continue
            total = functools.reduce(FracMatrix.__add__, terms)
            if not total.is_zero():
                out[r] = -total if lead is None else lead @ total
        return DiffOp(self.dim, out)

    def first_difference(self, other: "DiffOp") -> "tuple[int, int, int] | None":
        """(tau power, i, j) of the first differing coefficient entry, or None."""
        for p in sorted(self.coeffs.keys() | other.coeffs.keys()):
            diff = self.frac_coeff(p).first_difference(other.frac_coeff(p))
            if diff is not None:
                return (p, *diff)
        return None

    def __eq__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self.dim == other.dim and self.first_difference(other) is None

    __hash__ = None


def manin_entries(pencil: MonodromyPencil, twist) -> dict[tuple[int, int], DiffOp]:
    """K_ij = q_j T_ji(x) tau for the generating operator."""
    q = (scalar(twist[0]), scalar(twist[1]))
    return {(i, j): DiffOp(pencil.dim, {1: t_entry(pencil, j, i).scale(q[j - 1])}) for i in (1, 2) for j in (1, 2)}


# ---------------------------------------------------------------------------
# Berezinian
# ---------------------------------------------------------------------------


class BerezinianValue(NamedTuple):
    value: RatFun
    forms_agree: bool
    tau_free: bool
    central: bool

    def __bool__(self):
        return self.forms_agree and self.tau_free and self.central

    def failed(self) -> str:
        """Names of the failed conditions, comma-separated."""
        return ", ".join(f for f in ("forms_agree", "tau_free", "central") if not getattr(self, f))


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
    k11inv, k22inv = k11.inverse_single(), k22.inverse_single()
    f1 = k11.mul((k22 - k21.mul(k11inv).mul(k12)).inverse_single())
    f2 = (k22 + k12.mul(k11inv).mul(k21)).inverse_single().mul(k11)
    f3 = k22inv.mul(k11 - k12.mul(k22inv).mul(k21))
    f4 = (k11 + k21.mul(k22inv).mul(k12)).mul(k22inv)
    forms_agree = f1 == f2 == f3 == f4
    tau_free = f1.powers() == [0]
    mat = f1.frac_coeff(0)
    cp = char_pair(spec)
    q1, q2 = spec.twist
    expected = RatFun(cp.phi * q1, cp.psi * q2)
    scalar_ok = mat == FracMatrix.identity(pencil.dim).scale(expected)
    # den is a scalar, so mat commutes with a matrix exactly when its numerator does
    central = not any(first_noncommuting(mat.num, ent) for ent in pencil.entries.values())
    return BerezinianValue(expected if scalar_ok else RatFun(Poly()), forms_agree and scalar_ok, tau_free, central)


_oper_orders: dict[ModuleSpec, int] = {}  # chain -> the largest order asked for


def generating_oper(spec: ModuleSpec, order: int) -> DiffOp:
    """Ber(1 - Z^Q) as a tau series up to tau^order.

    The tau^j coefficient is the same for every order >= j: every power in
    the construction is nonnegative, so mul(..., hi=order) and
    inverse_series(order) drop only powers above the order.  So a chain's
    operator is built at the largest order asked for so far (callers ask
    for it first) and lower orders are read from it, truncated.  The result
    is shared and must not be mutated.
    """
    top = _oper_orders[spec] = max(order, _oper_orders.get(spec, order))
    oper = _generating_oper(spec, top)
    return oper if top == order else DiffOp(oper.dim, {p: c for p, c in oper.coeffs.items() if p <= order})


@functools.cache
def _generating_oper(spec: ModuleSpec, order: int) -> DiffOp:
    """The generating operator up to tau^order, built; memoised per (chain, order)."""
    pencil = tensor_monodromy(spec)
    k = manin_entries(pencil, spec.twist)
    one = DiffOp.one(pencil.dim)
    k11, k22 = one - k[(1, 1)], one - k[(2, 2)]
    # the off-diagonal entries of 1 - K are -K12 and -K21; their signs cancel in the product
    inner = k22 - k[(2, 1)].mul(k11.inverse_series(order), hi=order).mul(k[(1, 2)], hi=order)
    return k11.mul(inner.inverse_series(order), hi=order)


# ---------------------------------------------------------------------------
# fusion identities
# ---------------------------------------------------------------------------


def _equality_check(lhs, rhs, label: str) -> Check:
    """lhs == rhs for two FracMatrix or two DiffOp; the witness is the first differing entry."""
    diff = lhs.first_difference(rhs)
    return Check(diff is None, label, "" if diff is None else str(diff))


def expansion_matches_routes(spec: ModuleSpec, order: int) -> list[Check]:
    """Ber(1 - Z) = sum (-1)^m T_m tau^m, checked coefficient by coefficient."""
    oper = generating_oper(spec, order)
    out = []
    for m in range(order + 1):
        rc = higher_transfer(spec, m) if m else RouteComparison(Check(True), FracMatrix.identity(oper.dim))
        label = f"tau^{m} coefficient of the generating operator"
        out.append(_equality_check(oper.frac_coeff(m), rc.matrix.scale((-1) ** m), label) if rc.check else rc.check)
    return out


def transfer_relation_check(spec: ModuleSpec, top: int) -> list[list[Check]]:
    """Both product identities relating T_m, H_m to the first transfer matrix, m = 1..top.

    T_m(x) prod_{i<m} (1 - Ber(x-i)) = prod_{i<=m} TransferQ(x-i+1), and the
    H_m identity with the extra Berezinian product on the right; its scalar
    prod_{i<m} (Ber(x-i) - 1) is (-1)^(m-1) times T_m's.  H_m is also
    matched against the inverse tau series of the generating operator.
    One list of checks per m: the inverse series is built once, at order top,
    and both products grow by one factor per m.
    """
    if top < 1:
        return []
    ber = berezinian(spec)
    if not ber:
        return [[Check(False, "berezinian inconsistent", ber.failed())] for _ in range(top)]
    pencil = tensor_monodromy(spec)
    inv = generating_oper(spec, top).inverse_series(top)
    scal = berprod = RatFun(Poly((1,)))
    rhs = transfer(spec)
    out = []
    for m in range(1, top + 1):
        if m > 1:
            shifted = ber.value.shift(m - 1)
            scal, berprod = scal * (1 - shifted), berprod * shifted
            rhs = rhs @ transfer(spec, m - 1)
        rc = higher_transfer(spec, m)
        if not rc.check:
            out.append([rc.check])
            continue
        hm = higher_transfer_supertrace(pencil, spec.twist, m, False)
        out.append([
            _equality_check(rc.matrix.scale(scal), rhs, f"antisymmetric transfer relation m={m}"),
            _equality_check(hm.scale(scal * (-1) ** (m - 1)), rhs.scale(berprod), f"symmetric transfer relation m={m}"),
            _equality_check(inv.frac_coeff(m), hm, f"inverse series coefficient m={m}"),
        ])
    return out


def higher_family_commutes(spec: ModuleSpec) -> Check:
    """Every x-coefficient of T_1 commutes with every x-coefficient of T_2.

    The coefficients are those of route B's numerators, each divided by the
    monic gcd of its entries.  T_1(x) and T_2(y) commute exactly when
    g(x) T_1(x) and h(y) T_2(y) do, for nonzero scalar polynomials g and h,
    so the verdict does not depend on the denominators or the contents.  On
    failure the witness names the first non-commuting coefficient pair (a, b).
    """
    pair = first_noncommuting(*(_without_content(higher_transfer(spec, m).matrix.num) for m in (1, 2)))
    return Check(pair is None, "higher family commutes", "" if pair is None else f"coefficient pair {pair}")


def _without_content(num: ExactMatrix) -> ExactMatrix:
    """The Poly-entry matrix divided by the monic gcd of its entries."""
    g = Poly()
    for _, _, p in num.entries():
        g = Poly.gcd(g, p)
        if g.degree == 0:
            return num
    return num.map_entries(lambda p: p // g) if g else num


def dy_coefficient(spec: ModuleSpec, y: Divisor, m: int) -> RatFun:
    """tau^m coefficient of the rational difference operator attached to y."""
    if m == 0:
        return RatFun(Poly((1,)))
    cp = char_pair(spec)
    q1, q2 = spec.twist
    val = (cp.zeta1 * q1 - cp.zeta2 * q2) * RatFun(y.poly.shift(m), y.poly) * (q2 ** (m - 1))
    for i in range(1, m):
        val = val * cp.zeta2.shift(i)
    return -val


def oper_action_check(spec: ModuleSpec, y: Divisor, order: int) -> list[Check]:
    """Generating-operator action on Bhat against the scalar divisor operator.

    Requires a simple-root divisor and order >= 2; each tau coefficient is
    compared exactly on the Bethe vector, and the witness is the first
    differing component.
    """
    if any(mult > 1 for _, mult in y.roots):
        raise ValueError("simple-root divisor required")
    if order < 2:
        raise ValueError("order must be at least 2")
    vec = bethe_vector(spec, y.root_list())
    out = []
    for m in range(1, order + 1):
        rc = higher_transfer(spec, m)
        if not rc.check:
            out.append(rc.check)
            continue
        lhs, den = rc.matrix.num.apply(vec), rc.matrix.den
        s = dy_coefficient(spec, y, m) * (Fraction(-1) ** m)
        # lhs_i / den == s v_i, cross-multiplied
        bad = next((i for i, (a, v) in enumerate(zip(lhs, vec)) if a * s.den != s.num * v * den), None)
        out.append(Check(bad is None, f"oper action tau^{m} on divisor {y.label()}", "" if bad is None else str(bad)))
    return out


def universal_oper_check(spec: ModuleSpec, order: int) -> list[Check]:
    """The two universal quotient forms reproduce the generating operator.

    Needs Ber - 1 invertible as a rational function, i.e. a nonzero
    characteristic polynomial.
    """
    pencil = tensor_monodromy(spec)
    ber = berezinian(spec)
    if not ber:
        return [Check(False, "berezinian inconsistent", ber.failed())]
    bm1 = ber.value - 1
    if not bm1:
        raise ValueError("Ber - 1 not invertible for this chain")
    dim = pencil.dim
    oper = generating_oper(spec, order)
    tq = transfer(spec)
    one = DiffOp.one(dim)
    n1 = one - DiffOp(dim, {1: tq.scale(ber.value / bm1)})
    n2 = one - DiffOp(dim, {1: tq.scale(1 / bm1)})
    rhs1 = n1.mul(n2.inverse_series(order), hi=order)
    checks = [_equality_check(oper, rhs1, "universal oper, first form")]
    shifted = ber.value.shift(-1)
    m1 = DiffOp.scalar_term(dim, 0, 1 - shifted) + DiffOp(dim, {1: tq.scale(ber.value)})
    m2 = DiffOp.scalar_term(dim, 0, 1 - shifted) + DiffOp(dim, {1: tq})
    rhs2 = m1.mul(m2.inverse_series(order), hi=order)
    checks.append(_equality_check(oper, rhs2, "universal oper, second form"))
    return checks


def ber_twist_independence(spec: ModuleSpec) -> Check:
    """Ber * q2/q1 must not depend on the twist.

    The re-twist is (q1 + q2, q2), or (q1 - q2, q2) when q1 = -q2, so both
    its entries are nonzero.  The witness names the chain whose Berezinian
    failed, with its failed conditions, or says that the two values differ.
    """
    label = "berezinian twist independence"
    q1, q2 = spec.twist
    other = spec.replace_twist((q1 + q2 or q1 - q2, q2))
    b1, b2 = berezinian(spec), berezinian(other)
    for which, ber in (("chain", b1), ("re-twisted chain", b2)):
        if not ber:
            return Check(False, label, f"{which}: {ber.failed()}")
    same = b1.value * (q2 / q1) == b2.value * (other.twist[1] / other.twist[0])
    return Check(same, label, "" if same else "values differ")
