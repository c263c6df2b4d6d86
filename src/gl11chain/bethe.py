"""Bethe ansatz: divisors, Bethe vectors, eigenvalues, completeness.

A level-l solution is a monic degree-l divisor y of the characteristic
polynomial gamma = q1*phi - q2*psi.  The memoised `char_pair` builds gamma's
roots (the chain's one split test) and divisors once per chain, on first use.
The normalized Bethe vector is

    Bhat(t) = prod_{i<j} (t_j - t_i + 1)^{-1} That_12(t_1) ... That_12(t_l) |0>

which is polynomial in all parameters (the pole factors of the textbook
formula cancel against the pencil normalizer) and symmetric in the roots.
`bethe_vector` multiplies in the given order when every pair factor
t_j - t_i + 1 is nonzero, and in ascending order otherwise; ascending order
is always safe, since each factor is then at least 1.  The regularization
extension t_i -> t_i + i*eps at eps = 0 (`bethe_vector_eps`) is an
independent oracle for the direct product, not a fallback: the suite compares
the two, and the repeated-root norm reads its components.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

from .exactnum import (
    NonRemovableSingularity,
    Poly,
    RatFun,
    eps_limit,
    format_scalar,
    roots_with_multiplicity,
    scalar,
)
from .linalg import ExactMatrix, SpanBasis, SpanCoordinates, joint_generalized_eigenspaces
from .chain import ModuleSpec, Weight, cyclicity_and_irreducibility, phi_psi
from .monodromy import Check, MonodromyPencil, chain_transfer_pencil, coefficient_matrices, tensor_monodromy
from .superlin import singular_subspace, weight_spaces


class CharPair:
    """Vacuum polynomials and the characteristic polynomial gamma.

    zeta1 = phi / normalizer, zeta2 = psi / normalizer, gamma's roots and its
    divisors are built on first use and shared.  A `RootSearchTooLarge` from
    the split test is raised on every access, never cached.
    """

    def __init__(self, phi: Poly, psi: Poly, gamma: Poly, spec: ModuleSpec):
        self.phi = phi
        self.psi = psi
        self.gamma = gamma
        self.spec = spec

    @functools.cached_property
    def zeta1(self) -> RatFun:
        return RatFun(self.phi, self.spec.normalizer())

    @functools.cached_property
    def zeta2(self) -> RatFun:
        return RatFun(self.psi, self.spec.normalizer())

    @functools.cached_property
    def roots(self) -> "list[tuple[Fraction, int]] | None":
        """Sorted (root, multiplicity) pairs of gamma; None when gamma does not split."""
        return roots_with_multiplicity(self.gamma)

    @functools.cached_property
    def divisors(self) -> tuple[tuple[Divisor, ...], ...]:
        """Entry l: the monic degree-l divisors of gamma, l = 0..deg gamma, sorted by coefficients."""
        rm = self.roots
        if rm is None:
            raise ValueError("requires split characteristic polynomial")
        levels: list[list[Divisor]] = [[] for _ in range(self.gamma.degree + 1)]
        for combo in itertools.product(*(range(m + 1) for _, m in rm)):
            levels[sum(combo)].append(Divisor.from_roots([(r, c) for (r, _), c in zip(rm, combo) if c]))
        return tuple(tuple(sorted(lv, key=lambda d: d.poly.coeffs)) for lv in levels)


@functools.cache
def char_pair(spec: ModuleSpec) -> CharPair:
    """Memoised per chain: the result is shared and must not be mutated."""
    phi, psi = phi_psi(spec)
    q1, q2 = spec.twist
    gamma = phi * q1 - psi * q2
    cp = CharPair(phi, psi, gamma, spec)
    if spec.is_twisted():
        deg, lead = spec.k, q1 - q2
    else:
        deg, lead = spec.k - 1, q1 * spec.n
    if gamma.degree != deg or gamma.leading() != lead:
        raise ArithmeticError(f"gamma = {gamma!r}, expected degree {deg} and lead {lead}")
    return cp


class Divisor(NamedTuple):
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


def bethe_vector(spec: ModuleSpec, roots: Sequence) -> tuple[Fraction, ...]:
    """Normalized Bethe vector Bhat at the given root configuration.

    Memoised per (chain, roots in the given order): the tuple is shared.
    """
    return _bethe_vector(spec, tuple(scalar(v) for v in roots))


@functools.cache
def _bethe_vector(spec: ModuleSpec, t: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    if len(t) > spec.k:
        raise ValueError("level exceeds the number of chain sites")
    order = t if _pair_factors_ok(t) else sorted(t)
    pencil = tensor_monodromy(spec)
    t12 = pencil.entry(1, 2)
    vec = _vacuum(pencil.dim)
    for ti in reversed(order):
        vec = t12.map_entries(lambda p: p(ti)).apply(vec)
    pref = Fraction(1)
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            pref /= order[j] - order[i] + 1
    return tuple(v * pref for v in vec)


def eps_components(t: Sequence[Fraction], pencil: MonodromyPencil) -> tuple[list[Poly], list]:
    """The points t_i + i*eps and the components of Bhat over them, before eps -> 0."""
    t12 = pencil.entry(1, 2)
    # perturbation directions c_i = i, distinct integers for reproducibility
    points = [Poly((ti, i + 1)) for i, ti in enumerate(t)]
    vec: list = _vacuum(pencil.dim)
    for pt in reversed(points):
        vec = t12.map_entries(lambda p: p(pt)).apply(vec)
    pref = RatFun(Poly((1,)))
    for i in range(len(t)):
        for j in range(i + 1, len(t)):
            pref = pref / RatFun(Poly((t[j] - t[i] + 1, j - i)))
    return points, [pref * comp for comp in vec]


def bethe_vector_eps(spec: ModuleSpec, roots: Sequence) -> tuple[Fraction, ...]:
    """Bhat via the regularization extension t_i -> t_i + i*eps at eps -> 0."""
    t = [scalar(v) for v in roots]
    _, comps = eps_components(t, tensor_monodromy(spec))
    try:
        return tuple(eps_limit(c) for c in comps)
    except NonRemovableSingularity as exc:
        raise ValueError("Bethe vector undefined at this configuration") from exc


def eigenvalue_pencil(y: Divisor, spec: ModuleSpec) -> Poly:
    """Eigenvalue of the normalized transfer pencil: y(x-1) * gamma(x) / y(x)."""
    quot, rem = divmod(char_pair(spec).gamma, y.poly)
    if not rem.is_zero():
        raise ValueError("not a divisor of the characteristic polynomial")
    return y.poly.shift(1) * quot


def verify_on_shell(spec: ModuleSpec, y: Union[Divisor, Sequence]) -> Check:
    """Check y(x) * That_Q(x) Bhat = y(x-1) * gamma(x) * Bhat exactly.

    Accepts a Divisor or a raw root sequence (the latter supports off-shell
    negative controls).  On failure the witness is "(x-degree, component)".
    """
    roots = y.root_list() if isinstance(y, Divisor) else tuple(scalar(v) for v in y)
    ypoly = y.poly if isinstance(y, Divisor) else Poly.from_roots(roots)
    vec = bethe_vector(spec, roots)
    rhs = ypoly.shift(1) * char_pair(spec).gamma
    # component polynomials of y(x) That_Q(x) Bhat minus the right-hand side
    diffs = [a - rhs * v for a, v in zip((chain_transfer_pencil(spec) * ypoly).apply(vec), vec)]
    bad = [(min(d for d, c in enumerate(p.nums) if c), comp) for comp, p in enumerate(diffs) if p]
    return Check(not bad, witness=str(min(bad)) if bad else "")


# ---------------------------------------------------------------------------
# completeness report
# ---------------------------------------------------------------------------


class DivisorEntry(NamedTuple):
    divisor: Divisor
    eigenvalue: Poly
    onshell: bool
    nonzero: bool
    eigen_dim: int
    generalized_dim: int
    spans_eigenspace: bool

    @property
    def ok(self) -> bool:
        """On shell, nonzero, and spanning its divisor's one-dimensional eigenspace."""
        return self.onshell and self.nonzero and self.eigen_dim == 1 and self.spans_eigenspace

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


class LevelReport(NamedTuple):
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


class CompletenessReport(NamedTuple):
    spec: ModuleSpec
    cyclic: bool
    irreducible: bool
    split: bool
    levels: list[LevelReport]

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


def restrict_operators(
    ms: Sequence[ExactMatrix], basis: Sequence[Sequence[Fraction]]
) -> tuple[list[ExactMatrix], SpanCoordinates]:
    """Matrices of each m in ms (at least one) on the invariant span of the basis vectors.

    Coordinates are taken w.r.t. the basis as given (not echelonized), by one
    SpanCoordinates over it; that solver is returned too, for further
    coordinate queries in the same basis.
    """
    span = SpanCoordinates(ms[0].nrows, basis)
    ops = []
    for m in ms:
        cols = []
        for v in basis:
            coords = span.coordinates(m.apply(list(v)))
            if coords is None:
                raise ValueError("subspace is not invariant under the operator")
            cols.append(coords)
        ops.append(ExactMatrix.from_columns(cols, len(basis)))
    return ops, span


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
    split = cp.roots is not None
    report = CompletenessReport(spec, cyclic, irred, split, [])
    if not split:
        return report
    singular_only = not spec.is_twisted()
    tq = coefficient_matrices(chain_transfer_pencil(spec))
    tq += [ExactMatrix(pencil.dim, pencil.dim)] * (spec.k + 1 - len(tq))
    for level in range(spec.k + 1):
        basis = level_subspace(spec, level, singular_only)
        dim = len(basis)
        divisors = cp.divisors[level] if level < len(cp.divisors) else ()
        if dim == 0 and not divisors:
            continue
        ops, in_basis = restrict_operators(tq, basis)
        eigs = [eigenvalue_pencil(dv, spec) for dv in divisors]
        chars = [[ev.coeff(d) for d in range(spec.k + 1)] for ev in eigs]
        spaces = joint_generalized_eigenspaces(ops, chars) if divisors else []
        entries = []
        for dv, ev, (eig_basis, gen_basis) in zip(divisors, eigs, spaces):
            onshell = verify_on_shell(spec, dv).ok
            vec = bethe_vector(spec, dv.root_list())  # built by the on-shell check
            nonzero = any(vec)
            bcoords = in_basis.coordinates(vec)
            spans = False
            if bcoords is not None and len(eig_basis) == 1 and nonzero:
                span = SpanBasis()
                span.add(eig_basis[0])
                spans = span.contains(bcoords)
            entries.append(DivisorEntry(dv, ev, onshell, nonzero, len(eig_basis), len(gen_basis), spans))
        complete = sum(e.generalized_dim for e in entries) == dim and all(e.ok for e in entries)
        diagonalizable = sum(e.eigen_dim for e in entries) == dim
        report.levels.append(LevelReport(level, level_weight(spec, level), dim, entries, complete, diagonalizable))
    return report
