"""Polynomial-coefficient model: the vector power tensored with C[z_1..z_n].

Vectors are dicts {basis index of the n-fold vector power: MPoly}, where
MPoly is a sparse exact multivariate polynomial over Fraction.  Two
symmetric-group actions matter:

  standard   s_i = graded flip composed with the z_i <-> z_{i+1} swap;
  modified   shat_i = standard + divided difference (exact, degree-lowering).

The divided difference (f - f^swap)/(z_i - z_{i+1}) is computed termwise
from the factored geometric sum, so no generic polynomial division occurs.

Invariant dimensions use the averaging projector over the modified action
(the relations are verified separately), and the singular refinement uses
the projector raise . lower / n, exact because raise-lower + lower-raise
acts by the scalar n on the whole space.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .exactnum import q_pochhammer_inverse, scalar, series_mul
from .linalg import ExactMatrix, SpanBasis, solve_in_span
from .monodromy import lax_blocks, lax_oppoly, make_spec, tensor_monodromy
from .superlin import SuperSpace, permutation_closure


class MPoly:
    """Sparse multivariate polynomial: {exponent tuple: Fraction}."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Optional[dict] = None):
        self.n = n
        self.terms = {e: c for e, c in (terms or {}).items() if c}

    @staticmethod
    def const(n: int, c) -> "MPoly":
        c = scalar(c) if isinstance(c, (int, str)) else c
        return MPoly(n, {(0,) * n: c} if c else {})

    @staticmethod
    def var(n: int, idx: int, power: int = 1) -> "MPoly":
        e = [0] * n
        e[idx] = power
        return MPoly(n, {tuple(e): Fraction(1)})

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        other = _mpoly(other, self.n)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __add__(self, other):
        other = _mpoly(other, self.n)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return MPoly(self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = _mpoly(other, self.n)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _mpoly(other, self.n) + (-self)

    def __mul__(self, other):
        other = _mpoly(other, self.n)
        if other is NotImplemented:
            return NotImplemented
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return MPoly(self.n, out)

    __rmul__ = __mul__

    def swap(self, i: int, j: int) -> "MPoly":
        out: dict = {}
        for e, c in self.terms.items():
            le = list(e)
            le[i], le[j] = le[j], le[i]
            out[tuple(le)] = c
        return MPoly(self.n, out)

    def divided_difference(self, i: int) -> "MPoly":
        """(f - f^swap)/(z_i - z_{i+1}), exact and termwise."""
        out: dict = {}
        j = i + 1
        for e, c in self.terms.items():
            a, b = e[i], e[j]
            if a == b:
                continue
            sign = 1 if a > b else -1
            lo, hi = min(a, b), max(a, b)
            for u in range(hi - lo):
                le = list(e)
                le[i] = lo + u
                le[j] = lo + (hi - lo - 1 - u)
                key = tuple(le)
                out[key] = out.get(key, Fraction(0)) + sign * c
        return MPoly(self.n, out)

    def __repr__(self):
        return f"MPoly({self.terms})"


def _mpoly(v, n: int):
    if isinstance(v, MPoly):
        return v
    if isinstance(v, (int, Fraction)):
        return MPoly.const(n, Fraction(v))
    return NotImplemented


def elementary_mpoly(n: int, i: int) -> MPoly:
    """Elementary symmetric polynomial of degree i in n variables."""
    out: dict = {}
    for combo in itertools.combinations(range(n), i):
        e = [0] * n
        for idx in combo:
            e[idx] = 1
        out[tuple(e)] = Fraction(1)
    return MPoly(n, out)


# ---------------------------------------------------------------------------
# coordinates on the truncated space
# ---------------------------------------------------------------------------


def monomials_upto(n: int, d: int) -> list[tuple[int, ...]]:
    out = []
    def rec(prefix, rest, budget):
        if rest == 0:
            out.append(tuple(prefix))
            return
        for e in range(budget + 1):
            rec(prefix + [e], rest - 1, budget - e)
    rec([], n, d)
    out.sort(key=lambda e: (sum(e), e))
    return out


@dataclass
class Coords:
    """Coordinate chart on (weight-l component of V) tensor polynomials <= d."""

    n: int
    components: list[int]
    monomials: list[tuple[int, ...]]
    index: dict[tuple[int, tuple[int, ...]], int]

    @staticmethod
    def build(n: int, level: "int | None", d: int) -> "Coords":
        space = SuperSpace.tensor_power(n)
        comps = [
            c
            for c in range(space.dim)
            if level is None or sum(space.multi_index(c)) == level
        ]
        monos = monomials_upto(n, d)
        index = {}
        for ci, c in enumerate(comps):
            for mi, m in enumerate(monos):
                index[(c, m)] = ci * len(monos) + mi
        return Coords(n, comps, monos, index)

    @property
    def dim(self) -> int:
        return len(self.components) * len(self.monomials)

    def to_vector(self, f: dict) -> list[Fraction]:
        v = [Fraction(0)] * self.dim
        for c, p in f.items():
            for e, coef in p.terms.items():
                v[self.index[(c, e)]] = coef
        return v

    def from_vector(self, v: Sequence[Fraction]) -> dict:
        nm = len(self.monomials)
        out: dict = {}
        for pos, coef in enumerate(v):
            if coef:
                c = self.components[pos // nm]
                e = self.monomials[pos % nm]
                out.setdefault(c, MPoly(self.n, {}))
                out[c] = out[c] + MPoly(self.n, {e: coef})
        return out

    def matrix_of(self, fn: Callable[[dict], dict]) -> ExactMatrix:
        """Matrix of a degree-respecting map in these coordinates."""
        return self.matrix_into(self, fn)

    def matrix_into(self, dst: "Coords", fn: Callable[[dict], dict]) -> ExactMatrix:
        """Matrix of a map from these coordinates into dst."""
        m = ExactMatrix(dst.dim, self.dim)
        nm = len(self.monomials)
        for ci, c in enumerate(self.components):
            for mi, e in enumerate(self.monomials):
                image = fn({c: MPoly(self.n, {e: Fraction(1)})})
                for cc, p in image.items():
                    for ee, coef in p.terms.items():
                        row = dst.index.get((cc, ee))
                        if row is None:
                            raise ValueError("map leaves the target coordinates")
                        m.add_to(row, ci * nm + mi, coef)
        return m


# ---------------------------------------------------------------------------
# the two symmetric-group actions and the current-algebra action
# ---------------------------------------------------------------------------


def flip_components(space: SuperSpace, c: int, i: int) -> tuple[int, int]:
    """Swap legs i, i+1 of component c; sign -1 when both legs are odd."""
    multi = list(space.multi_index(c))
    a, b = multi[i], multi[i + 1]
    multi[i], multi[i + 1] = b, a
    sign = -1 if a == 1 and b == 1 else 1
    return space.index(multi), sign


def standard_action(space: SuperSpace, i: int, f: dict) -> dict:
    out: dict = {}
    for c, p in f.items():
        cc, sign = flip_components(space, c, i)
        q = p.swap(i, i + 1)
        out[cc] = out.get(cc, MPoly(q.n, {})) + (q if sign == 1 else -q)
    return out


def modified_action(space: SuperSpace, i: int, f: dict) -> dict:
    """shat_i = flip-with-swap plus the divided difference."""
    out = standard_action(space, i, f)
    for c, p in f.items():
        out[c] = out.get(c, MPoly(p.n, {})) + p.divided_difference(i)
    return {c: p for c, p in out.items() if p}


def current_action(space: SuperSpace, i: int, j: int, r: int, f: dict) -> dict:
    """e_ij[r]: sum over sites with Koszul signs times z_s^r."""
    n = space.nlegs()
    odd = (i + j) % 2  # operator parity for (i, j) in {(1,2),(2,1)}
    out: dict = {}
    for c, p in f.items():
        multi = space.multi_index(c)
        passed = 0
        for s in range(n):
            comp = multi[s]
            target = None
            if (i, j) == (1, 1) and comp == 0:
                target = comp
            elif (i, j) == (2, 2) and comp == 1:
                target = comp
            elif (i, j) == (2, 1) and comp == 0:
                target = 1
            elif (i, j) == (1, 2) and comp == 1:
                target = 0
            if target is not None:
                nm = list(multi)
                nm[s] = target
                cc = space.index(nm)
                sign = -1 if (odd and passed % 2) else 1
                term = p * MPoly.var(p.n, s, r) if r else p
                out[cc] = out.get(cc, MPoly(p.n, {})) + (term if sign == 1 else -term)
            passed += space.legs[s][comp]
    return {c: p for c, p in out.items() if p}


def vacuum_vector(n: int) -> dict:
    return {0: MPoly.const(n, 1)}


# ---------------------------------------------------------------------------
# graded invariant dimensions
# ---------------------------------------------------------------------------


def check_sn_relations(n: int, d: int, level: "int | None" = None) -> bool:
    """Involutivity, braid and distant-commutation for the modified action."""
    space = SuperSpace.tensor_power(n)
    coords = Coords.build(n, level, d)
    mats = [coords.matrix_of(lambda f, i=i: modified_action(space, i, f)) for i in range(n - 1)]
    ident = ExactMatrix.identity(coords.dim)
    for m in mats:
        if (m @ m) != ident:
            return False
    for i in range(n - 2):
        lhs = mats[i] @ mats[i + 1] @ mats[i]
        rhs = mats[i + 1] @ mats[i] @ mats[i + 1]
        if lhs != rhs:
            return False
    for i in range(n - 1):
        for j in range(i + 2, n - 1):
            if (mats[i] @ mats[j]) != (mats[j] @ mats[i]):
                return False
    return True


def _trace(m: ExactMatrix) -> Fraction:
    total = Fraction(0)
    for i, row in m.rows.items():
        v = row.get(i)
        if v:
            total += v
    return total


def invariant_dimensions(n: int, level: int, d: int, singular_only: bool) -> list[int]:
    """Graded dimensions (degrees 0..d) of the modified-action invariants.

    Uses the exact group-averaging trace formula; the singular part composes
    with the projector raise.lower/n.  Filtered dimensions are converted to
    graded ones by differencing.
    """
    space = SuperSpace.tensor_power(n)
    filtered = []
    for delta in range(d + 1):
        coords = Coords.build(n, level, delta)
        if coords.dim == 0:
            filtered.append(0)
            continue
        mats = [
            coords.matrix_of(lambda f, i=i: modified_action(space, i, f))
            for i in range(n - 1)
        ]
        group = list(permutation_closure(mats, coords.dim).values())
        proj = None
        if singular_only:
            up_coords = Coords.build(n, level + 1, delta)
            raise_m = coords.matrix_into(up_coords, lambda f: current_action(space, 2, 1, 0, f))
            lower_m = up_coords.matrix_into(coords, lambda f: current_action(space, 1, 2, 0, f))
            proj = (lower_m @ raise_m) * Fraction(1, n)
        total = Fraction(0)
        for g in group:
            total += _trace(proj @ g) if proj is not None else _trace(g)
        dim = total / len(group)
        assert dim.denominator == 1
        filtered.append(int(dim))
    return [filtered[0]] + [filtered[i] - filtered[i - 1] for i in range(1, d + 1)]


def character_series(n: int, level: int, d: int, singular_only: bool) -> list[int]:
    """Generating-function coefficients for the graded invariant dimensions."""
    if singular_only:
        if level > n - 1:
            return [0] * (d + 1)
        shift = level * (level + 1) // 2
        series = series_mul(
            q_pochhammer_inverse(level, d), q_pochhammer_inverse(n - 1 - level, d), d
        )
        geom = [Fraction(1 if i % n == 0 else 0) for i in range(d + 1)]
        series = series_mul(series, geom, d)
    else:
        shift = level * (level - 1) // 2
        series = series_mul(
            q_pochhammer_inverse(level, d), q_pochhammer_inverse(n - level, d), d
        )
    out = [0] * (d + 1)
    for i, c in enumerate(series):
        if i + shift <= d:
            assert c.denominator == 1
            out[i + shift] = int(c)
    return out


# ---------------------------------------------------------------------------
# free generating sets over the symmetric polynomials
# ---------------------------------------------------------------------------


@dataclass
class ModelCheck:
    ok: bool
    label: str

    def __bool__(self):
        return self.ok


def _apply_e21_word(space: SuperSpace, rs: Sequence[int], base: dict) -> dict:
    out = base
    for r in reversed(rs):
        out = current_action(space, 2, 1, r, out)
    return out


def current_model_checks(n: int, level: int, d: int) -> list[ModelCheck]:
    """Free-generator and relation checks in the standard-action model."""
    space = SuperSpace.tensor_power(n)
    checks = []
    v_plus = vacuum_vector(n)

    # lowering-word generators and their independence over symmetric polynomials
    words = list(itertools.combinations(range(n), level))
    gens = {w: _apply_e21_word(space, w, v_plus) for w in words}
    cap = d + sum(range(n - level, n)) + 1
    coords = Coords.build(n, level, cap)
    sym_monos = _symmetric_monomials(n, d)
    span = SpanBasis(coords.dim)
    count = 0
    independent = True
    for w, g in gens.items():
        for sm in sym_monos:
            vec = {c: sm * p for c, p in g.items()}
            count += 1
            if not span.add(coords.to_vector(vec)):
                independent = False
    checks.append(ModelCheck(independent and span.dim == count, f"free generators at level {level}"))

    # overflow relation: e21[n] v+ = sum (-1)^(i-1) sigma_i e21[n-i] v+
    lhs = current_action(space, 2, 1, n, v_plus)
    rhs: dict = {}
    for i in range(1, n + 1):
        sig = elementary_mpoly(n, i)
        term = current_action(space, 2, 1, n - i, v_plus)
        sgn = 1 if (i - 1) % 2 == 0 else -1
        for c, p in term.items():
            add = sig * p
            rhs[c] = rhs.get(c, MPoly(n, {})) + (add if sgn == 1 else -add)
    crd = Coords.build(n, 1, n)
    checks.append(ModelCheck(crd.to_vector(lhs) == crd.to_vector(rhs), "overflow relation"))

    # anticommutation of the lowering modes
    if n >= 2:
        a = current_action(space, 2, 1, 1, current_action(space, 2, 1, 0, v_plus))
        b = current_action(space, 2, 1, 0, current_action(space, 2, 1, 1, v_plus))
        crd2 = Coords.build(n, 2, 2)
        va = crd2.to_vector(a)
        vb = crd2.to_vector(b)
        checks.append(ModelCheck(va == [-x for x in vb], "lowering modes anticommute"))

    # singular generators: annihilated by the raising zero mode, eigenvalue n
    if level <= n - 1:
        sing_words = [w for w in itertools.combinations(range(1, n), level)]
        ok = True
        for w in sing_words:
            u = _apply_e21_word(space, w, v_plus)
            wvec = current_action(space, 1, 2, 0, current_action(space, 2, 1, 0, u))
            crd3 = Coords.build(n, level, cap)
            if any(crd3.to_vector(current_action(space, 1, 2, 0, wvec))):
                ok = False
            scaled = {c: MPoly.const(n, n) * p for c, p in wvec.items()}
            back = current_action(space, 1, 2, 0, current_action(space, 2, 1, 0, wvec))
            if crd3.to_vector(back) != crd3.to_vector(scaled):
                ok = False
        checks.append(ModelCheck(ok, "singular generators"))
    return checks


def _symmetric_monomials(n: int, d: int) -> list[MPoly]:
    """Products of elementary symmetric polynomials of weighted degree <= d."""
    base = [elementary_mpoly(n, i) for i in range(1, n + 1)]
    out = [MPoly.const(n, 1)]
    exps = []
    def rec(prefix, i, budget):
        if i > n:
            exps.append(tuple(prefix))
            return
        e = 0
        while e * i <= budget:
            rec(prefix + [e], i + 1, budget - e * i)
            e += 1
    rec([], 1, d)
    for e in exps:
        if not any(e):
            continue
        m = MPoly.const(n, 1)
        for i, p in enumerate(e):
            for _ in range(p):
                m = m * base[i]
        out.append(m)
    return out


# ---------------------------------------------------------------------------
# specialization to the numeric chain
# ---------------------------------------------------------------------------


@dataclass
class SpecializationResult:
    ok: bool
    detail: str

    def __bool__(self):
        return self.ok


def gamma_coefficient_ops(n: int) -> dict[tuple[int, int], "OpPoly"]:
    """x-coefficients of the symbolic Lax entries as maps on vectors."""
    points = [MPoly.var(n, i) for i in range(n)]
    lax, vspace = lax_oppoly(points)
    return lax_blocks(lax, vspace.dim)


def _apply_mpoly_matrix(space: SuperSpace, mat: ExactMatrix, f: dict, n: int) -> dict:
    out: dict = {}
    for i, row in mat.rows.items():
        acc = MPoly(n, {})
        touched = False
        for j, entry in row.items():
            p = f.get(j)
            if p is None or p.is_zero():
                continue
            term = (entry * p) if isinstance(entry, MPoly) else _mpoly(entry, n) * p
            acc = acc + term
            touched = True
        if touched and acc:
            out[i] = acc
    return out


def modified_invariant_basis_kernel(n: int, level: int, d: int) -> list[dict]:
    """Invariant basis by direct kernel intersection (reference oracle)."""
    space = SuperSpace.tensor_power(n)
    coords = Coords.build(n, level, d)
    mats = [coords.matrix_of(lambda f, i=i: modified_action(space, i, f)) for i in range(n - 1)]
    stacked = ExactMatrix.vstack([m - ExactMatrix.identity(coords.dim) for m in mats]) if mats else ExactMatrix(0, coords.dim)
    return [coords.from_vector(v) for v in stacked.kernel()]


def modified_invariant_basis(n: int, level: int, d: int) -> list[dict]:
    """Basis of the degree-<=d invariants of the modified action.

    Columns of the group-averaging projector are collected until the exact
    trace-formula dimension is reached; much cheaper than a kernel at these
    sizes and validated against the kernel route in the tests.
    """
    space = SuperSpace.tensor_power(n)
    coords = Coords.build(n, level, d)
    if coords.dim == 0:
        return []
    target = sum(invariant_dimensions(n, level, d, False))
    mats = [coords.matrix_of(lambda f, i=i: modified_action(space, i, f)) for i in range(n - 1)]
    group = list(permutation_closure(mats, coords.dim).values())
    av = ExactMatrix(coords.dim, coords.dim)
    for g in group:
        av = av + g
    av = av * Fraction(1, len(group))
    span = SpanBasis(coords.dim)
    out: list[dict] = []
    for j in range(coords.dim):
        col = av.column(j)
        if any(col) and span.add(col):
            out.append(coords.from_vector(col))
            if len(out) == target:
                break
    assert len(out) == target
    return out


def cyclicity_by_degree(n: int, d: int) -> bool:
    """Span growth from the vacuum under the entry coefficients fills each degree."""
    space = SuperSpace.tensor_power(n)
    blocks = gamma_coefficient_ops(n)
    cap = d
    coords_all = [Coords.build(n, lv, cap) for lv in range(n + 1)]
    ops = []
    for (i, j), op in blocks.items():
        for c in op.coeffs:
            ops.append((i, j, c))
    # generate within the degree cap, then compare against invariant dims
    frontier = [vacuum_vector(n)]
    spans = {lv: SpanBasis(coords_all[lv].dim) for lv in range(n + 1)}
    spans[0].add(coords_all[0].to_vector(vacuum_vector(n)))
    while frontier:
        nxt = []
        for f in frontier:
            for i, j, c in ops:
                g = _apply_mpoly_matrix(space, c, f, n)
                if not g:
                    continue
                deg = max(p.degree() for p in g.values())
                if deg > cap:
                    continue
                lv = sum(space.multi_index(next(iter(g))))
                if spans[lv].add(coords_all[lv].to_vector(g)):
                    nxt.append(g)
        frontier = nxt
    for lv in range(n + 1):
        want = sum(invariant_dimensions(n, lv, cap, False))
        if spans[lv].dim != want:
            return False
    return True


def gamma_commutes_with_modified(n: int, d: int) -> bool:
    """The entry coefficients commute with the modified action on degrees <= d."""
    space = SuperSpace.tensor_power(n)
    blocks = gamma_coefficient_ops(n)
    coords = Coords.build(n, None, d + n)
    small = Coords.build(n, None, d)
    for i_leg in range(n - 1):
        for (i, j), op in blocks.items():
            for c in op.coeffs:
                for ci, comp in enumerate(small.components):
                    for e in small.monomials:
                        f = {comp: MPoly(n, {e: Fraction(1)})}
                        a = modified_action(space, i_leg, _apply_mpoly_matrix(space, c, f, n))
                        b = _apply_mpoly_matrix(space, c, modified_action(space, i_leg, f), n)
                        if coords.to_vector(a) != coords.to_vector(b):
                            return False
    return True


class _QuotientLevel:
    """One weight level of the model modulo the evaluation ideal."""

    def __init__(self, n: int, level: int, sig_vals: Sequence[Fraction], dcap: int):
        self.n = n
        self.level = level
        self.coords = Coords.build(n, level, dcap + n)
        self.ideal = SpanBasis(self.coords.dim)
        lowinv = modified_invariant_basis(n, level, dcap + n - 1)
        for i in range(1, n + 1):
            shifter = elementary_mpoly(n, i) - MPoly.const(n, sig_vals[i - 1])
            for w in lowinv:
                deg = max((p.degree() for p in w.values()), default=0)
                if deg + i > dcap + n:
                    continue
                self.ideal.add(self.coords.to_vector({c: shifter * p for c, p in w.items()}))
        self.reps: list[dict] = []
        probe = SpanBasis(self.coords.dim)
        for row in self.ideal.rows:
            probe.add(row)
        for w in modified_invariant_basis(n, level, dcap):
            if probe.add(self.coords.to_vector(w)):
                self.reps.append(w)
        self.rep_matrix = ExactMatrix.from_columns(
            [self.ideal.reduce(self.coords.to_vector(w)) for w in self.reps], self.coords.dim
        )

    @property
    def dim(self) -> int:
        return len(self.reps)

    def class_coords(self, f: dict):
        red = self.ideal.reduce(self.coords.to_vector(f))
        return solve_in_span(self.rep_matrix, red)


def specialization_check(n: int, points: Sequence) -> SpecializationResult:
    """Quotient of the invariant model at fixed symmetric values vs the chain.

    Requires the ordering a_i != a_j + 1 for i > j.  The quotient by the
    ideal (sigma_i(z) - sigma_i(a)) is built per weight level, its dimensions
    compared with the binomial count, and the vacuum-generated correspondence
    with the numeric chain verified to intertwine every entry coefficient.
    """
    a = [scalar(v) for v in points]
    for i in range(n):
        for j in range(i):
            if a[i] == a[j] + 1:
                return SpecializationResult(False, "ordering precondition violated")
    space = SuperSpace.tensor_power(n)
    from math import comb

    from .exactnum import elementary_symmetric

    sig_vals = elementary_symmetric(a)
    spec = make_spec([(1, 0)] * n, [str(v) for v in a], (1, 1))
    pencil = tensor_monodromy(spec)
    blocks = gamma_coefficient_ops(n)
    dcap = max(lv * (lv - 1) // 2 + lv * (n - lv) for lv in range(n + 1))
    levels = [_QuotientLevel(n, lv, sig_vals, dcap) for lv in range(n + 1)]
    for lv, q in enumerate(levels):
        if q.dim != comb(n, lv):
            return SpecializationResult(False, f"quotient dimension at level {lv}")
    offsets = []
    total = 0
    for q in levels:
        offsets.append(total)
        total += q.dim
    level_shift = {(1, 1): 0, (2, 2): 0, (1, 2): 1, (2, 1): -1}

    def q_apply(key, f):
        """Apply an entry coefficient to a quotient vector."""
        (i, j, d) = key
        c = blocks[(i, j)].coeff(d)
        out = [Fraction(0)] * total
        for lv, q in enumerate(levels):
            tgt = lv + level_shift[(i, j)]
            if not (0 <= tgt <= n) or levels[tgt].dim == 0:
                continue
            for ri in range(q.dim):
                coef = f[offsets[lv] + ri]
                if not coef:
                    continue
                img = _apply_mpoly_matrix(space, c, q.reps[ri], n)
                if not img:
                    continue
                sol = levels[tgt].class_coords(img)
                if sol is None:
                    raise ValueError("action does not preserve the quotient")
                for pos, v in enumerate(sol):
                    out[offsets[tgt] + pos] += coef * v
        return out

    keys = [(i, j, d) for (i, j) in blocks for d in range(blocks[(i, j)].degree + 1)]
    vmats = {
        (i, j, d): pencil.entry(i, j).coeff(d)
        for (i, j) in pencil.entries
        for d in range(n + 1)
    }
    # lockstep generation from the two vacua
    q_vac = [Fraction(0)] * total
    q_vac[offsets[0]] = levels[0].class_coords(vacuum_vector(n))[0]
    v_vac = [Fraction(0)] * (2**n)
    v_vac[0] = Fraction(1)
    span = SpanBasis(total)
    pairs: list[tuple[list[Fraction], list[Fraction]]] = []
    span.add(q_vac)
    pairs.append((q_vac, v_vac))
    frontier = [(q_vac, v_vac)]
    while frontier and span.dim < total:
        nxt = []
        for qu, vu in frontier:
            for key in keys:
                qi = q_apply(key, qu)
                vi = vmats[key].apply(vu)
                if span.add(qi):
                    pairs.append((qi, vi))
                    nxt.append((qi, vi))
                else:
                    coords = solve_in_span(ExactMatrix.from_columns([p[0] for p in pairs], total), qi)
                    if coords is None:
                        return SpecializationResult(False, "span bookkeeping failure")
                    if ExactMatrix.from_columns([p[1] for p in pairs], 2**n).apply(coords) != vi:
                        return SpecializationResult(False, "relation mismatch between the models")
        frontier = nxt
    if span.dim != total:
        return SpecializationResult(False, "quotient not generated from the vacuum")
    qmat = ExactMatrix.from_columns([p[0] for p in pairs], total)
    vmat = ExactMatrix.from_columns([p[1] for p in pairs], 2**n)
    if vmat.rank() != 2**n:
        return SpecializationResult(False, "correspondence not invertible")
    # intertwining on the generated basis: M X_Q = X_V M
    for key in keys:
        for qu, vu in pairs:
            coords = solve_in_span(qmat, q_apply(key, qu))
            if coords is None:
                return SpecializationResult(False, "image escapes the generated span")
            if vmat.apply(coords) != vmats[key].apply(vu):
                return SpecializationResult(False, f"intertwining fails on {key}")
    return SpecializationResult(True, "isomorphic")
