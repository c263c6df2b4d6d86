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
the two.  Each (chain, level) has one memoised `transfer_family`: the transfer
coefficients on the level subspace with their joint spaces at the divisors'
eigenvalues, read by the completeness report and the Bethe algebra (bethealg).
The levels' basis indices and the columns of the coefficients are taken
once per chain (`level_indices`, `transfer_columns`) and shared by the levels.
A level's basis (unit vectors, or the kernel of e_12 on the weight space) is
in coordinate form, so a vector's coordinates are its entries at the basis's
indices: no second elimination solves for them.
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
from .linalg import ExactMatrix, SpanBasis, joint_generalized_eigenspaces, sparse_vector
from .chain import ModuleSpec, Weight, cyclicity_and_irreducibility, phi_psi
from .monodromy import Check, chain_transfer_coefficients, chain_transfer_pencil, tensor_monodromy
from .superlin import level_weight, singular_subspace, weight_spaces


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

    def cofactor(self, y: "Divisor") -> Poly:
        """gamma / y; raises ValueError when y does not divide gamma."""
        quot, rem = divmod(self.gamma, y.poly)
        if not rem.is_zero():
            raise ValueError("not a divisor of the characteristic polynomial")
        return quot


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


def bethe_vector_eps(spec: ModuleSpec, roots: Sequence) -> tuple[Fraction, ...]:
    """Bhat via the regularization extension t_i -> t_i + i*eps at eps -> 0."""
    t = [scalar(v) for v in roots]
    pencil = tensor_monodromy(spec)
    t12 = pencil.entry(1, 2)
    vec: list = _vacuum(pencil.dim)
    # perturbation directions c_i = i, distinct integers for reproducibility
    for i in reversed(range(len(t))):
        pt = Poly((t[i], i + 1))
        vec = t12.map_entries(lambda p: p(pt)).apply(vec)
    pref = RatFun(Poly((1,)))
    for i in range(len(t)):
        for j in range(i + 1, len(t)):
            pref = pref / RatFun(Poly((t[j] - t[i] + 1, j - i)))
    try:
        return tuple(eps_limit(pref * comp) for comp in vec)
    except NonRemovableSingularity as exc:
        raise ValueError("Bethe vector undefined at this configuration") from exc


def eigenvalue_pencil(y: Divisor, spec: ModuleSpec) -> Poly:
    """Eigenvalue of the normalized transfer pencil: y(x-1) * gamma(x) / y(x)."""
    return y.poly.shift(1) * char_pair(spec).cofactor(y)


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
    diffs = [ypoly * a - rhs * v for a, v in zip(chain_transfer_pencil(spec).apply(vec), vec)]
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


class SpectralEntry(NamedTuple):
    divisor: Divisor
    eigen_dim: int
    generalized_dim: int
    expected_generalized: int
    cyclic_module: bool


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
    columns: Sequence[dict], basis: Sequence[Sequence[Fraction]]
) -> tuple[list[ExactMatrix], list[int]]:
    """Matrices of each operator on the invariant span of the basis vectors, and the basis's index.

    Each operator is given by its columns {j: {i: m_ij}}, as `m.transpose().rows`
    reads them, and there is at least one.  The basis must be in coordinate
    form, as kernel vectors and unit vectors are: vector c is 1 at index[c],
    its last nonzero index, and every other vector is 0 there.  So a vector's
    coordinates are its entries at index, and it lies in the span exactly
    when it equals that combination.  Each image m v is summed from the
    columns of m at v's nonzero entries.
    """
    cols = [sparse_vector(v) for v in basis]
    index = [max(col, default=-1) for col in cols]
    at = {i: c for c, i in enumerate(index)}
    if any(col.get(index[c]) != 1 or any(at.get(j, c) != c for j in col) for c, col in enumerate(cols)):
        raise ValueError("basis is not in coordinate form")
    ops = []
    for mcols in columns:
        op = ExactMatrix(len(basis), len(basis))
        for c, col in enumerate(cols):
            image: dict = {}
            for j, a in col.items():
                for i, b in mcols.get(j, {}).items():
                    image[i] = image[i] + b * a if i in image else b * a
            coords = _coordinates(image, index, cols)
            if coords is None:
                raise ValueError("subspace is not invariant under the operator")
            for r, x in enumerate(coords):
                op.put(r, c, x)
        ops.append(op)
    return ops, index


def _coordinates(vec: dict, index: Sequence[int], cols: Sequence[dict]) -> "list[Fraction] | None":
    """The sparse vec's entries at index, or None when vec is not the combination of the sparse cols with them."""
    rest = dict(vec)
    for i, col in zip(index, cols):
        for j, a in col.items() if i in vec else ():
            rest[j] = rest[j] - vec[i] * a if j in rest else -vec[i] * a
    return None if any(rest.values()) else [vec.get(i, Fraction(0)) for i in index]


@functools.cache
def level_indices(spec: ModuleSpec) -> dict[int, list[int]]:
    """Level l -> the basis indices of its weight space, grouped once per chain: shared, must not be mutated.

    weight_spaces lists one entry per level, level 0 first, and every level
    0..k of the chain's space is nonempty.
    """
    return dict(enumerate(idxs for _, idxs in weight_spaces(spec.space(), list(spec.weights))))


def level_subspace(spec: ModuleSpec, level: int) -> list[list[Fraction]]:
    """Basis of the level weight space; its singular part when the twist entries are equal."""
    space = spec.space()
    idxs = level_indices(spec).get(level, [])
    if not spec.is_twisted():
        return singular_subspace(space, list(spec.weights), idxs)
    return [[Fraction(i == idx) for i in range(space.dim)] for idx in idxs]


class TransferFamily:
    """The transfer coefficients C_0..C_k of That_Q on one level subspace: the level's Bethe algebra.

    `ops` are C_0..C_k restricted to `basis` (zero past the pencil's degree)
    and `index` the basis's coordinate indices, at which `coordinates` reads
    a vector.  The divisors of the level, their transfer eigenvalues and the
    joint (eigen, generalized) spaces of the C's at each eigenvalue's
    coefficients are built on first use and shared.
    """

    def __init__(
        self, spec: ModuleSpec, level: int, basis: list[list[Fraction]],
        index: list[int], ops: list[ExactMatrix],
    ):
        self.spec = spec
        self.level = level
        self.basis = basis
        self.index = index
        self.ops = ops

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coordinates(self, vec: Sequence[Fraction]) -> "list[Fraction] | None":
        """The coordinates of vec in the basis, its entries at index; None when vec lies outside the span."""
        return _coordinates(sparse_vector(vec), self.index, [sparse_vector(v) for v in self.basis])

    @functools.cached_property
    def divisors(self) -> tuple[Divisor, ...]:
        """The level's divisors of gamma; () when gamma does not split."""
        cp = char_pair(self.spec)
        return () if cp.roots is None or self.level >= len(cp.divisors) else cp.divisors[self.level]

    @functools.cached_property
    def eigenvalues(self) -> tuple[Poly, ...]:
        return tuple(eigenvalue_pencil(dv, self.spec) for dv in self.divisors)

    @functools.cached_property
    def spaces(self) -> tuple[tuple[list, list], ...]:
        """Per divisor: (eigenspace basis, generalized eigenspace basis), in coordinates of the basis."""
        if not self.divisors:
            return ()
        chars = [[ev.coeff(d) for d in range(len(self.ops))] for ev in self.eigenvalues]
        return tuple(joint_generalized_eigenspaces(self.ops, chars))


@functools.cache
def transfer_columns(spec: ModuleSpec) -> tuple[dict, ...]:
    """The columns {j: {i: entry}} of That_Q's C_0..C_k (empty past its degree), taken once per chain: shared."""
    cols = [m.transpose().rows for m in chain_transfer_coefficients(spec)]
    return tuple(cols + [{}] * (spec.k + 1 - len(cols)))


@functools.cache
def transfer_family(spec: ModuleSpec, level: int) -> TransferFamily:
    """Memoised per (chain, level): the family is shared and must not be mutated."""
    basis = level_subspace(spec, level)
    ops, index = restrict_operators(transfer_columns(spec), basis)
    return TransferFamily(spec, level, basis, index, ops)


def completeness_report(spec: ModuleSpec) -> CompletenessReport:
    """Divisors, Bethe vectors and spectral data per level.

    Each level reads its `transfer_family`: full weight spaces for distinct
    twist entries, their singular parts for equal ones.  Requires a split
    characteristic polynomial for the divisor enumeration; a non-split gamma
    is reported, not raised.
    """
    cp = char_pair(spec)
    cyclic, irred = cyclicity_and_irreducibility(spec)
    split = cp.roots is not None
    report = CompletenessReport(spec, cyclic, irred, split, [])
    if not split:
        return report
    for level in range(spec.k + 1):
        fam = transfer_family(spec, level)
        if fam.dim == 0 and not fam.divisors:
            continue
        entries = []
        for dv, ev, (eig_basis, gen_basis) in zip(fam.divisors, fam.eigenvalues, fam.spaces):
            onshell = verify_on_shell(spec, dv).ok
            vec = bethe_vector(spec, dv.root_list())  # built by the on-shell check
            nonzero = any(vec)
            bcoords = fam.coordinates(vec)
            spans = False
            if bcoords is not None and len(eig_basis) == 1 and nonzero:
                span = SpanBasis()
                span.add(eig_basis[0])
                spans = span.contains(bcoords)
            entries.append(DivisorEntry(dv, ev, onshell, nonzero, len(eig_basis), len(gen_basis), spans))
        complete = sum(e.generalized_dim for e in entries) == fam.dim and all(e.ok for e in entries)
        diagonalizable = sum(e.eigen_dim for e in entries) == fam.dim
        wt = level_weight(spec.weights, level)
        report.levels.append(LevelReport(level, wt, fam.dim, entries, complete, diagonalizable))
    return report
