"""Monodromy pencils on tensor products of evaluation modules.

A chain is a ModuleSpec: polynomial non-degenerate weights, rational
evaluation points and an invertible diagonal twist.  The monodromy entries
are kept pole-free: the pencil stores That_ij(x) = prod_s(x - b_s) T_ij(x)
as operator-valued polynomials (OpPoly), normalized so the x^k coefficient
of That_ij is delta_ij times the identity.

Spec files are JSON with fields
  weights = [[l1, l2], ...]   (nonnegative integers)
  points  = ["p/q", ...]
  twist   = ["q1", "q2"]
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence, Union

from .exactnum import Poly, RatFun, format_scalar, scalar
from .linalg import ExactMatrix
from .superlin import (
    E_PARITY,
    SuperSpace,
    Weight,
    e_matrix,
    kron_signed,
    leg_generator,
)


@dataclass(frozen=True)
class ModuleSpec:
    """Weights, evaluation points and twist defining the physical chain."""

    weights: tuple[Weight, ...]
    points: tuple[Fraction, ...]
    twist: tuple[Fraction, Fraction]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(self.weights))
        object.__setattr__(self, "points", tuple(scalar(b) for b in self.points))
        object.__setattr__(self, "twist", tuple(scalar(q) for q in self.twist))
        if len(self.weights) != len(self.points):
            raise ValueError("weights and points must have equal length")
        if not self.weights:
            raise ValueError("empty chain")
        for wt in self.weights:
            text = "(" + ", ".join(wt.to_strings()) + ")"
            if not wt.is_polynomial():
                raise ValueError(f"weight {text} is not polynomial")
            if not wt.is_nondegenerate():
                raise ValueError(f"weight {text} is degenerate")
        q1, q2 = self.twist
        if q1 == 0 or q2 == 0:
            raise ValueError("twist entries must be nonzero")
        if q1 == q2 and self.n == 0:
            raise ValueError("exceptional case rejected: equal twist with total weight zero")

    @property
    def k(self) -> int:
        return len(self.weights)

    @property
    def n(self) -> Fraction:
        return sum((wt.l1 + wt.l2 for wt in self.weights), Fraction(0))

    def space(self) -> SuperSpace:
        return SuperSpace([SuperSpace.standard_leg()] * self.k)

    def normalizer(self) -> Poly:
        return Poly.from_roots(self.points)

    def is_twisted(self) -> bool:
        return self.twist[0] != self.twist[1]

    def replace_twist(self, twist) -> "ModuleSpec":
        return ModuleSpec(self.weights, self.points, (scalar(twist[0]), scalar(twist[1])))

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "weights": [[int(wt.l1), int(wt.l2)] for wt in self.weights],
            "points": [format_scalar(b) for b in self.points],
            "twist": [format_scalar(q) for q in self.twist],
        }

    @staticmethod
    def from_dict(d: dict) -> "ModuleSpec":
        """Parse a chain-file object; a malformed one raises ValueError."""
        if not isinstance(d, dict):
            raise ValueError("chain file must be a JSON object")
        missing = [key for key in ("weights", "points", "twist") if key not in d]
        if missing:
            raise ValueError(f"chain file lacks the key(s) {', '.join(missing)}")
        weights, points, twist = d["weights"], d["points"], d["twist"]
        if not all(isinstance(v, list) for v in (weights, points, twist)):
            raise ValueError("weights, points and twist must be lists")
        for w in weights:
            if not (isinstance(w, list) and len(w) == 2 and all(type(a) is int for a in w)):
                raise ValueError(f"each weight must be a pair of integers, got {w!r}")
        for v in points + twist:
            if type(v) is not int and not isinstance(v, str):
                raise ValueError(f'points and twist entries must be integers or "p/q" strings, got {v!r}')
        if len(twist) != 2:
            raise ValueError(f"twist must have exactly two entries, got {len(twist)}")
        return make_spec(weights, points, twist)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @staticmethod
    def from_json(text: str) -> "ModuleSpec":
        return ModuleSpec.from_dict(json.loads(text))

    @staticmethod
    def from_file(path) -> "ModuleSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return ModuleSpec.from_json(fh.read())


def make_spec(weights, points, twist=(1, 1)) -> ModuleSpec:
    """Convenience constructor from plain ints/strings."""
    return ModuleSpec(
        tuple(Weight(scalar(a), scalar(b)) for a, b in weights),
        tuple(scalar(p) for p in points),
        (scalar(twist[0]), scalar(twist[1])),
    )


def phi_psi(spec: ModuleSpec) -> tuple[Poly, Poly]:
    """The two vacuum polynomials prod(x - b_s + l1) and prod(x - b_s - l2)."""
    phi = Poly((1,))
    psi = Poly((1,))
    for wt, b in zip(spec.weights, spec.points):
        phi = phi * Poly((-b + wt.l1, 1))
        psi = psi * Poly((-b - wt.l2, 1))
    return phi, psi


class OpPoly:
    """Operator-valued polynomial: list of ExactMatrix coefficients in x."""

    __slots__ = ("coeffs", "dim")

    def __init__(self, coeffs: Sequence[ExactMatrix], dim: "int | None" = None):
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        if dim is None:
            if not cs:
                raise ValueError("dimension required for the zero OpPoly")
            dim = cs[0].nrows
        self.coeffs = cs
        self.dim = dim

    @staticmethod
    def zero(dim: int) -> "OpPoly":
        return OpPoly([], dim)

    @staticmethod
    def constant(m: ExactMatrix) -> "OpPoly":
        return OpPoly([m], m.nrows)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, d: int) -> ExactMatrix:
        if 0 <= d < len(self.coeffs):
            return self.coeffs[d]
        return ExactMatrix(self.dim, self.dim)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "OpPoly") -> "OpPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return OpPoly([self.coeff(d) + other.coeff(d) for d in range(n)], self.dim)

    def __sub__(self, other: "OpPoly") -> "OpPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return OpPoly([self.coeff(d) - other.coeff(d) for d in range(n)], self.dim)

    def __neg__(self) -> "OpPoly":
        return OpPoly([-c for c in self.coeffs], self.dim)

    def __matmul__(self, other: "OpPoly") -> "OpPoly":
        if self.is_zero() or other.is_zero():
            return OpPoly.zero(self.dim)
        out = [ExactMatrix(self.dim, self.dim) for _ in range(self.degree + other.degree + 1)]
        for a, ca in enumerate(self.coeffs):
            if ca.is_zero():
                continue
            for b, cb in enumerate(other.coeffs):
                if not cb.is_zero():
                    out[a + b] = out[a + b] + (ca @ cb)
        return OpPoly(out, self.dim)

    def scale(self, p: Union[Poly, Fraction, int]) -> "OpPoly":
        """Multiply by a scalar polynomial or scalar."""
        if isinstance(p, (int, Fraction)):
            p = Poly((p,))
        out = [ExactMatrix(self.dim, self.dim) for _ in range(self.degree + p.degree + 1)] if not (self.is_zero() or p.is_zero()) else []
        for a, ca in enumerate(self.coeffs):
            for b, cb in enumerate(p.coeffs):
                if cb:
                    out[a + b] = out[a + b] + ca * cb
        return OpPoly(out, self.dim)

    def shift(self, a) -> "OpPoly":
        """Return p(x - a)."""
        a = scalar(a)
        shifted = OpPoly.zero(self.dim)
        base = Poly((-a, 1))
        for d, cd in enumerate(self.coeffs):
            if not cd.is_zero():
                shifted = shifted + OpPoly.constant(cd).scale(base**d)
        return shifted

    def __call__(self, v):
        """Evaluate at a scalar or Poly point; entries follow the point type."""
        out = ExactMatrix(self.dim, self.dim)
        power = Fraction(1) if isinstance(v, (int, Fraction)) else Poly((1,))
        for cd in self.coeffs:
            if not cd.is_zero():
                out = out + cd.map_entries(lambda e: e * power)
            power = power * v
        return out

    def __eq__(self, other):
        if not isinstance(other, OpPoly):
            return NotImplemented
        return self.dim == other.dim and len(self.coeffs) == len(other.coeffs) and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    __hash__ = None

    def entry_poly(self, i: int, j: int) -> Poly:
        return Poly([c.get(i, j) for c in self.coeffs])

    def poly_matrix(self) -> ExactMatrix:
        """The same operator as one matrix with Poly entries."""
        polys: dict[tuple[int, int], list] = {}
        for d, c in enumerate(self.coeffs):
            for i, j, v in c.entries():
                polys.setdefault((i, j), [0] * len(self.coeffs))[d] = v
        out = ExactMatrix(self.dim, self.dim)
        for (i, j), cs in polys.items():
            out.put(i, j, Poly(cs))
        return out

    def __repr__(self):
        return f"OpPoly(degree={self.degree}, dim={self.dim})"


@dataclass
class MonodromyPencil:
    """Normalized 2x2 pencil That_ij(x) on a chain module."""

    space: SuperSpace
    leg_weights: tuple[Weight, ...]
    points: tuple[Fraction, ...]
    entries: dict[tuple[int, int], OpPoly]
    normalizer: Poly

    def entry(self, i: int, j: int) -> OpPoly:
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
    space = SuperSpace([(0,)] if trivial else [SuperSpace.standard_leg()])
    ident = ExactMatrix.identity(dim)
    xminusb = OpPoly([ident * (-b), ident])
    entries: dict[tuple[int, int], OpPoly] = {}
    # That_ij(x) = delta_ij (x - b) + (-1)^{|j|} e_ji
    for i, j in product((1, 2), repeat=2):
        sign = -1 if j == 2 else 1
        eji = leg_generator(wt, j, i) * sign
        entries[(i, j)] = (xminusb if i == j else OpPoly.zero(dim)) + OpPoly.constant(eji)
    return MonodromyPencil(space, (wt,), (b,), entries, Poly((-b, 1)))


def _pair_tensor(
    amat: ExactMatrix, bmat: ExactMatrix, space_u: SuperSpace, space_w: SuperSpace, parity_b: int
) -> ExactMatrix:
    """Matrix of (A (x) B) on U (x) W with the Koszul sign of B against U."""
    dim_w = space_w.dim
    out = ExactMatrix(space_u.dim * dim_w, space_u.dim * dim_w)
    for u, up, av in amat.entries():
        sign = -1 if (parity_b and space_u.parity(up)) else 1
        for w, wp, bv in bmat.entries():
            out.add_to(u * dim_w + w, up * dim_w + wp, sign * av * bv)
    return out


def _oppoly_pair_tensor(
    a: OpPoly, b: OpPoly, space_u: SuperSpace, space_w: SuperSpace, parity_b: int
) -> OpPoly:
    dim = space_u.dim * space_w.dim
    if a.is_zero() or b.is_zero():
        return OpPoly.zero(dim)
    out = [ExactMatrix(dim, dim) for _ in range(a.degree + b.degree + 1)]
    for da, ca in enumerate(a.coeffs):
        if ca.is_zero():
            continue
        for db, cb in enumerate(b.coeffs):
            if not cb.is_zero():
                out[da + db] = out[da + db] + _pair_tensor(ca, cb, space_u, space_w, parity_b)
    return OpPoly(out, dim)


def _combine(first: MonodromyPencil, rest: MonodromyPencil) -> MonodromyPencil:
    """Coproduct of two pencils: first factor receives T_rj, second T_ir."""
    space = first.space.concat(rest.space)
    entries: dict[tuple[int, int], OpPoly] = {}
    for i, j in product((1, 2), repeat=2):
        acc = OpPoly.zero(space.dim)
        for r in (1, 2):
            acc = acc + _oppoly_pair_tensor(
                first.entry(r, j), rest.entry(i, r), first.space, rest.space, E_PARITY[(i, r)]
            )
        entries[(i, j)] = acc
    return MonodromyPencil(
        space,
        first.leg_weights + rest.leg_weights,
        first.points + rest.points,
        entries,
        first.normalizer * rest.normalizer,
    )


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


def lax_oppoly(points: Sequence) -> tuple[OpPoly, SuperSpace]:
    """Product (x - z_n + P^(0,n)) ... (x - z_1 + P^(0,1)) on aux (x) V.

    Site parameters may be Fractions or symbolic ring elements (anything the
    matrix entries can multiply), so the same product serves the numeric
    chains and the polynomial-coefficient model.
    """
    n = len(points)
    vspace = SuperSpace.tensor_power(n)
    full = SuperSpace([SuperSpace.standard_leg()]).concat(vspace)
    dim_full = full.dim
    ident = ExactMatrix.identity(dim_full)
    lax = OpPoly.constant(ident)
    for site in range(n, 0, -1):
        flip = ExactMatrix(dim_full, dim_full)
        for h, j in product((1, 2), repeat=2):
            par = E_PARITY[(h, j)]
            sign = -1 if j == 2 else 1
            term = kron_signed(full, {0: (e_matrix(h, j), par), site: (e_matrix(j, h), par)})
            flip = flip + term * sign
        factor = OpPoly([flip + ident * (-points[site - 1]), ident])
        lax = lax @ factor
    return lax, vspace


def lax_blocks(lax: OpPoly, dim_v: int) -> dict[tuple[int, int], OpPoly]:
    """Normalized entries from the global product; (1,2) carries a sign.

    Global aux-major blocks equal (-1)^{(|i|+|j|)|j|} T_ij.
    """
    entries: dict[tuple[int, int], OpPoly] = {}
    for i, j in product((1, 2), repeat=2):
        coeffs = []
        for c in lax.coeffs:
            block = ExactMatrix(dim_v, dim_v)
            for gi, gj, v in c.entries():
                ai, vi = divmod(gi, dim_v)
                aj, vj = divmod(gj, dim_v)
                if ai == i - 1 and aj == j - 1:
                    block.put(vi, vj, v)
            if (i, j) == (1, 2):
                block = -block
            coeffs.append(block)
        entries[(i, j)] = OpPoly(coeffs, dim_v)
    return entries


def lax_monodromy(points: Sequence) -> MonodromyPencil:
    """Pencil on the n-fold vector representation from the local Lax product.

    Equals tensor_monodromy of n weight-(1,0) sites at the same points.
    """
    pts = [scalar(a) for a in points]
    lax, vspace = lax_oppoly(pts)
    entries = lax_blocks(lax, vspace.dim)
    return MonodromyPencil(
        vspace,
        tuple(Weight(1, 0) for _ in pts),
        tuple(pts),
        entries,
        Poly.from_roots(pts),
    )


@dataclass
class RttResult:
    ok: bool
    witness: "tuple | None" = None

    def __bool__(self):
        return self.ok


def verify_rtt(pencil: MonodromyPencil) -> RttResult:
    """Exact bivariate check of the defining exchange relations.

    For every index choice (i, j, r, s) the identity
      (x1 - x2) [That_ij(x1), That_rs(x2)]
        = sign * (That_rj(x2) That_is(x1) - That_rj(x1) That_is(x2))
    is verified coefficient by coefficient, with the supercommutator taken
    with respect to the entry parities.  On mismatch the witness carries
    (i, j, r, s, deg_x1, deg_x2).
    """
    deg = max(p.degree for p in pencil.entries.values())
    cache: dict[tuple, ExactMatrix] = {}

    def prod(e1, d1, e2, d2):
        key = (e1, d1, e2, d2)
        if key not in cache:
            cache[key] = pencil.entries[e1].coeff(d1) @ pencil.entries[e2].coeff(d2)
        return cache[key]

    par = lambda i, j: E_PARITY[(i, j)]
    zero = ExactMatrix(pencil.dim, pencil.dim)
    for i, j, r, s in product((1, 2), repeat=4):
        pa, pb = par(i, j), par(r, s)
        sigma = -1 if pa and pb else 1
        exp = (i == 2) * (r == 2) + (s == 2) * (i == 2) + (s == 2) * (r == 2)
        sgn = -1 if exp % 2 else 1

        def sc(d, e):
            if d < 0 or e < 0:
                return zero
            m = prod((i, j), d, (r, s), e) - sigma * prod((r, s), e, (i, j), d)
            return m

        for dd in range(deg + 2):
            for ee in range(deg + 2):
                lhs = sc(dd - 1, ee) - sc(dd, ee - 1)
                rhs = (prod((r, j), ee, (i, s), dd) - prod((r, j), dd, (i, s), ee)) * sgn
                if lhs != rhs:
                    return RttResult(False, (i, j, r, s, dd, ee))
    return RttResult(True)


def transfer_pencil(pencil: MonodromyPencil, twist) -> OpPoly:
    """Twisted transfer pencil q1 That_11 - q2 That_22."""
    q1, q2 = scalar(twist[0]), scalar(twist[1])
    return pencil.entry(1, 1).scale(q1) - pencil.entry(2, 2).scale(q2)


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


def cyclicity_and_irreducibility(spec: ModuleSpec) -> tuple[bool, bool]:
    """(cyclic, irreducible) from the arithmetic conditions on the points.

    Irreducible means gcd(phi, psi) = 1.  Both are products of known linear
    factors (see phi_psi), with roots b_s - l1_s and b_s + l2_s, so they are
    coprime exactly when the two root sets are disjoint.
    """
    cyclic = True
    for i in range(spec.k):
        for j in range(i + 1, spec.k):
            if spec.points[j] == spec.points[i] + spec.weights[i].l2 + spec.weights[j].l1:
                cyclic = False
    phi_roots = {b - wt.l1 for wt, b in zip(spec.weights, spec.points)}
    irreducible = phi_roots.isdisjoint(b + wt.l2 for wt, b in zip(spec.weights, spec.points))
    return cyclic, irreducible


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


def t_coefficient(pencil: MonodromyPencil, i: int, j: int, r: int) -> ExactMatrix:
    """Laurent coefficient T_ij^(r) of the unnormalized series at infinity."""
    from .exactnum import laurent_expand

    out = ExactMatrix(pencil.dim, pencil.dim)
    for a, b, p in pencil.entry(i, j).poly_matrix().entries():
        coeffs = laurent_expand(RatFun(p, pencil.normalizer), r)
        if coeffs[r]:
            out.put(a, b, coeffs[r])
    return out
