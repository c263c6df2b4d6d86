"""Bethe ansatz: divisors, Bethe vectors, eigenvalues, completeness.

A level-l solution is a monic degree-l divisor y of the characteristic
polynomial gamma = q1*phi - q2*psi.  The normalized Bethe vector is

    Bhat(t) = prod_{i<j} (t_j - t_i + 1)^{-1} That_12(t_1) ... That_12(t_l) |0>

which is polynomial in all parameters (the pole factors of the textbook
formula cancel against the pencil normalizer).  When an ordering with
t_j - t_i + 1 = 0 cannot be avoided, the vector is computed over the
regularization extension t_i -> t_i + i*eps and specialized at eps = 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

from .exactnum import (
    NonRemovableSingularity,
    Poly,
    RatFun,
    eps_limit,
    format_scalar,
    roots_with_multiplicity,
    scalar,
)
from .linalg import ExactMatrix, SpanBasis, solve_in_span
from .monodromy import (
    ModuleSpec,
    MonodromyPencil,
    cyclicity_and_irreducibility,
    phi_psi,
    tensor_monodromy,
    transfer_pencil,
)
from .superlin import Weight, singular_subspace, weight_spaces


@dataclass(frozen=True)
class CharPair:
    """Vacuum polynomials and the characteristic polynomial gamma."""

    phi: Poly
    psi: Poly
    gamma: Poly
    zeta1: RatFun
    zeta2: RatFun


def char_pair(spec: ModuleSpec) -> CharPair:
    phi, psi = phi_psi(spec)
    q1, q2 = spec.twist
    gamma = phi * q1 - psi * q2
    norm = spec.normalizer()
    cp = CharPair(phi, psi, gamma, RatFun(phi, norm), RatFun(psi, norm))
    if spec.is_twisted():
        assert gamma.degree == spec.k and gamma.leading() == q1 - q2
    else:
        assert gamma.degree == spec.k - 1 and gamma.leading() == q1 * spec.n
    return cp


@dataclass(frozen=True)
class Divisor:
    """Monic divisor of gamma with its root multiset."""

    poly: Poly
    roots: tuple[tuple[Fraction, int], ...]  # sorted (root, multiplicity)

    @staticmethod
    def from_roots(roots: Sequence[tuple[Fraction, int]]) -> "Divisor":
        roots = tuple(sorted((scalar(r), int(m)) for r, m in roots))
        expanded = [r for r, m in roots for _ in range(m)]
        return Divisor(Poly.from_roots(expanded), roots)

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.roots)

    def mult(self, a) -> int:
        a = scalar(a)
        for r, m in self.roots:
            if r == a:
                return m
        return 0

    def root_list(self) -> tuple[Fraction, ...]:
        return tuple(r for r, m in self.roots for _ in range(m))

    def label(self) -> str:
        return ",".join(format_scalar(r) for r in self.root_list()) or "(empty)"


def enumerate_divisors(gamma: Poly, level: int) -> list[Divisor]:
    """All monic degree-l divisors of a rationally split polynomial."""
    rm = roots_with_multiplicity(gamma)
    if rm is None:
        raise ValueError("requires split characteristic polynomial")
    out = []
    ranges = [range(m + 1) for _, m in rm]
    for combo in itertools.product(*ranges):
        if sum(combo) == level:
            out.append(Divisor.from_roots([(r, c) for (r, _), c in zip(rm, combo) if c]))
    out.sort(key=lambda d: d.poly.coeffs)
    return out


@dataclass(frozen=True)
class BetheVector:
    """Exact module vector with its source roots and construction provenance."""

    vector: tuple[Fraction, ...]
    roots: tuple[Fraction, ...]
    normalized: bool
    eps_used: bool

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.vector)


def _pair_factors_ok(order: Sequence[Fraction]) -> bool:
    return all(
        order[j] - order[i] + 1 != 0
        for i in range(len(order))
        for j in range(i + 1, len(order))
    )


def _vacuum(dim: int) -> list[Fraction]:
    v = [Fraction(0)] * dim
    v[0] = Fraction(1)
    return v


def bethe_vector(spec: ModuleSpec, roots: Sequence) -> BetheVector:
    """Normalized Bethe vector Bhat at the given root configuration."""
    t = [scalar(v) for v in roots]
    if len(t) > spec.k:
        raise ValueError("level exceeds the number of chain sites")
    pencil = tensor_monodromy(spec)
    t12 = pencil.entry(1, 2)
    for order in (t, list(reversed(t)), sorted(t), sorted(t, reverse=True)):
        if _pair_factors_ok(order):
            vec = _vacuum(pencil.dim)
            for ti in reversed(order):
                vec = t12(ti).apply(vec)
            pref = Fraction(1)
            for i in range(len(order)):
                for j in range(i + 1, len(order)):
                    pref /= order[j] - order[i] + 1
            return BetheVector(tuple(v * pref for v in vec), tuple(sorted(t)), True, False)
    return bethe_vector_eps(spec, t)


def eps_components(t: Sequence[Fraction], pencil: MonodromyPencil) -> tuple[list[Poly], list]:
    """The points t_i + i*eps and the components of Bhat over them, before eps -> 0."""
    t12 = pencil.entry(1, 2)
    # perturbation directions c_i = i, distinct integers for reproducibility
    points = [Poly((ti, i + 1)) for i, ti in enumerate(t)]
    vec: list = _vacuum(pencil.dim)
    for pt in reversed(points):
        vec = t12(pt).apply(vec)
    pref = RatFun(Poly((1,)))
    for i in range(len(t)):
        for j in range(i + 1, len(t)):
            pref = pref / RatFun(Poly((t[j] - t[i] + 1, j - i)))
    return points, [pref * comp for comp in vec]


def bethe_vector_eps(spec: ModuleSpec, roots: Sequence) -> BetheVector:
    """Bhat via the regularization extension t_i -> t_i + i*eps at eps -> 0."""
    t = [scalar(v) for v in roots]
    _, comps = eps_components(t, tensor_monodromy(spec))
    try:
        out = [eps_limit(c) for c in comps]
    except NonRemovableSingularity as exc:
        raise ValueError("Bethe vector undefined at this configuration") from exc
    return BetheVector(tuple(out), tuple(sorted(t)), True, True)


def eigenvalue_pencil(y: Union[Divisor, Poly], spec: ModuleSpec) -> Poly:
    """Eigenvalue of the normalized transfer pencil: y(x-1) * gamma(x) / y(x)."""
    ypoly = y.poly if isinstance(y, Divisor) else y
    gamma = char_pair(spec).gamma
    quot, rem = divmod(gamma, ypoly)
    if not rem.is_zero():
        raise ValueError("not a divisor of the characteristic polynomial")
    return ypoly.shift(1) * quot


@dataclass
class OnShellResult:
    ok: bool
    bethe: BetheVector
    eigenvalue: Optional[Poly]
    witness: "tuple | None" = None

    def __bool__(self):
        return self.ok


def verify_on_shell(spec: ModuleSpec, y: Union[Divisor, Sequence]) -> OnShellResult:
    """Check y(x) * That_Q(x) Bhat = y(x-1) * gamma(x) * Bhat exactly.

    Accepts a Divisor or a raw root sequence (the latter supports off-shell
    negative controls).  On failure the witness is (x-degree, component).
    """
    roots = y.root_list() if isinstance(y, Divisor) else tuple(scalar(v) for v in y)
    ypoly = y.poly if isinstance(y, Divisor) else Poly.from_roots(roots)
    bv = bethe_vector(spec, roots)
    gamma = char_pair(spec).gamma
    tq = transfer_pencil(tensor_monodromy(spec), spec.twist)
    lhs = tq.scale(ypoly)  # y(x) * That_Q(x)
    rhs = ypoly.shift(1) * gamma
    eig = None
    if (gamma % ypoly).is_zero() if not ypoly.is_zero() else False:
        eig = eigenvalue_pencil(ypoly, spec)
    vec = list(bv.vector)
    for d in range(max(lhs.degree, rhs.degree) + 1):
        want = [rhs.coeff(d) * v for v in vec]
        got = lhs.coeff(d).apply(vec)
        for comp, (a, b) in enumerate(zip(got, want)):
            if a != b:
                return OnShellResult(False, bv, eig, (d, comp))
    return OnShellResult(True, bv, eig)


# ---------------------------------------------------------------------------
# completeness report
# ---------------------------------------------------------------------------


@dataclass
class DivisorEntry:
    divisor: Divisor
    eigenvalue: Poly
    onshell: bool
    nonzero: bool
    eigen_dim: int
    generalized_dim: int
    spans_eigenspace: bool

    def to_dict(self) -> dict:
        return {
            "divisor": self.divisor.poly.to_strings(),
            "roots": [format_scalar(r) for r in self.divisor.root_list()],
            "eigenvalue": self.eigenvalue.to_strings(),
            "onshell": self.onshell,
            "nonzero": self.nonzero,
            "eigen_dim": self.eigen_dim,
            "generalized_dim": self.generalized_dim,
            "spans_eigenspace": self.spans_eigenspace,
        }


@dataclass
class LevelReport:
    level: int
    weight: Weight
    subspace_dim: int
    entries: list[DivisorEntry]
    complete: bool
    diagonalizable: bool

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "weight": self.weight.to_strings(),
            "subspace_dim": self.subspace_dim,
            "divisors": [e.to_dict() for e in self.entries],
            "complete": self.complete,
            "diagonalizable": self.diagonalizable,
        }


@dataclass
class CompletenessReport:
    spec: ModuleSpec
    cyclic: bool
    irreducible: bool
    split: bool
    levels: list[LevelReport] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "cyclic": self.cyclic,
            "irreducible": self.irreducible,
            "split": self.split,
            "levels": [lv.to_dict() for lv in self.levels],
        }

    def all_ok(self) -> bool:
        return self.split and all(lv.complete for lv in self.levels)


def restrict_operator(m: ExactMatrix, basis: Sequence[Sequence[Fraction]]) -> ExactMatrix:
    """Matrix of m on the invariant span of the given basis vectors."""
    # coordinates are taken w.r.t. the original (non-echelonized) basis
    cols = []
    mat_basis = ExactMatrix.from_columns(list(basis), m.nrows)
    for v in basis:
        image = m.apply(list(v))
        coords = solve_in_span(mat_basis, image)
        if coords is None:
            raise ValueError("subspace is not invariant under the operator")
        cols.append(coords)
    return ExactMatrix.from_columns(cols, len(basis))


def level_weight(spec: ModuleSpec, level: int) -> Weight:
    l1 = sum((wt.l1 for wt in spec.weights), Fraction(0)) - level
    l2 = sum((wt.l2 for wt in spec.weights), Fraction(0)) + level
    return Weight(l1, l2)


def level_subspace(
    spec: ModuleSpec, level: int, singular_only: bool
) -> list[list[Fraction]]:
    """Basis of the level weight space, or its singular part."""
    space = spec.space()
    wt = level_weight(spec, level)
    if singular_only:
        return singular_subspace(space, list(spec.weights), wt)
    for w, idxs in weight_spaces(space, list(spec.weights)):
        if (w.l1, w.l2) == (wt.l1, wt.l2):
            basis = []
            for idx in idxs:
                v = [Fraction(0)] * space.dim
                v[idx] = Fraction(1)
                basis.append(v)
            return basis
    return []


def completeness_report(spec: ModuleSpec) -> CompletenessReport:
    """Divisors, Bethe vectors and spectral data per level.

    For distinct twist entries the transfer family is analyzed on full weight
    spaces; for equal entries on their singular parts.  Requires a split
    characteristic polynomial for the divisor enumeration; a non-split gamma
    is reported, not raised.
    """
    pencil = tensor_monodromy(spec)
    cp = char_pair(spec)
    cyclic, irred = cyclicity_and_irreducibility(spec)
    split = roots_with_multiplicity(cp.gamma) is not None
    report = CompletenessReport(spec, cyclic, irred, split)
    if not split:
        return report
    from .linalg import joint_generalized_eigenspaces

    singular_only = not spec.is_twisted()
    tq = transfer_pencil(pencil, spec.twist)
    for level in range(spec.k + 1):
        basis = level_subspace(spec, level, singular_only)
        dim = len(basis)
        divisors = enumerate_divisors(cp.gamma, level) if level <= cp.gamma.degree else []
        if dim == 0 and not divisors:
            continue
        ops = [restrict_operator(tq.coeff(d), basis) for d in range(spec.k + 1)]
        entries = []
        eig_total = 0
        gen_total = 0
        chars = []
        eigs = []
        for dv in divisors:
            ev = eigenvalue_pencil(dv, spec)
            eigs.append(ev)
            chars.append([ev.coeff(d) for d in range(spec.k + 1)])
        spaces = joint_generalized_eigenspaces(ops, chars) if divisors else []
        for dv, ev, (eig_basis, gen_basis) in zip(divisors, eigs, spaces):
            res = verify_on_shell(spec, dv)
            bcoords = solve_in_span(ExactMatrix.from_columns(basis, pencil.dim), res.bethe.vector)
            spans = False
            if bcoords is not None and len(eig_basis) == 1 and not res.bethe.is_zero():
                span = SpanBasis(dim)
                span.add(eig_basis[0])
                spans = not span.add(bcoords)
            entries.append(
                DivisorEntry(
                    dv,
                    ev,
                    bool(res),
                    not res.bethe.is_zero(),
                    len(eig_basis),
                    len(gen_basis),
                    spans,
                )
            )
            eig_total += len(eig_basis)
            gen_total += len(gen_basis)
        complete = gen_total == dim and all(
            e.onshell and e.nonzero and e.eigen_dim == 1 and e.spans_eigenspace for e in entries
        )
        report.levels.append(
            LevelReport(level, level_weight(spec, level), dim, entries, complete, eig_total == dim)
        )
    return report
