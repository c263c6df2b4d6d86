"""Polynomial-coefficient model: the vector power tensored with C[z_1..z_n].

Vectors are dicts {basis index of the n-fold vector power: MPoly}, where
MPoly is a sparse exact multivariate polynomial (Fraction coefficients,
or int where every coefficient is known to be integral).  Two symmetric-group
actions matter:

  standard   s_i = graded flip composed with the z_i <-> z_{i+1} swap;
  modified   shat_i = standard + divided difference (exact, degree-lowering).

The divided difference (f - f^swap)/(z_i - z_{i+1}) is computed termwise
from the factored geometric sum, so no generic polynomial division occurs.

Invariant dimensions come from the trace of the averaging projector,
(1/n!) sum_g tr(g).  A trace is a class function, so the sum runs over the
cycle types of S_n: one word in the s_i per type (a k-cycle on positions
a..a+k-1 is s_a s_{a+1} ... s_{a+k-2}), weighted by the class size n!/z.
The singular refinement composes with the projector e12[0] e21[0] / n
(raise, then lower), exact because raise-lower + lower-raise acts by the
scalar n on the whole space.  The divided difference strictly lowers degree
and the zero-mode currents keep it, so each graded trace is that of the
standard action's leading block: a signed trace on the 2^n components times
a count of the monomials the word's variable permutation fixes.  No
polynomial is multiplied; invariant_dimensions checks both premises.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, factorial
from typing import Callable, Optional, Sequence

from .exactnum import elementary_symmetric, q_pochhammer_inverse, scalar, series_mul
from .linalg import ExactMatrix, SpanBasis, solve_in_span
from .monodromy import coefficient_matrices, lax_blocks, lax_product, make_spec, tensor_monodromy
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
            out[e] = out.get(e, 0) + c
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
                out[key] = out.get(key, 0) + c1 * c2
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
                out[key] = out.get(key, 0) + sign * c
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


def check_sn_relations(n: int, d: int, level: "int | None" = None) -> "SpecializationResult":
    """Involutivity, braid and distant-commutation for the modified action.

    On failure the detail names the first broken relation: involutivity of
    s_i, the braid relation at i, or the commutation of (i, j).
    """
    space = SuperSpace.tensor_power(n)
    coords = Coords.build(n, level, d)
    mats = [coords.matrix_of(lambda f, i=i: modified_action(space, i, f)) for i in range(n - 1)]
    ident = ExactMatrix.identity(coords.dim)
    for i, m in enumerate(mats):
        if (m @ m) != ident:
            return SpecializationResult(False, f"involutivity of s_{i}")
    for i in range(n - 2):
        lhs = mats[i] @ mats[i + 1] @ mats[i]
        rhs = mats[i + 1] @ mats[i] @ mats[i + 1]
        if lhs != rhs:
            return SpecializationResult(False, f"braid relation at {i}")
    for i in range(n - 1):
        for j in range(i + 2, n - 1):
            if (mats[i] @ mats[j]) != (mats[j] @ mats[i]):
                return SpecializationResult(False, f"commutation of ({i}, {j})")
    return SpecializationResult(True, "")


def _class_words(n: int) -> list[tuple[list[int], int]]:
    """One word in s_0 .. s_{n-2} per cycle type of S_n, with the class size.

    A part k placed on positions a .. a+k-1 is the k-cycle s_a s_{a+1} ...
    s_{a+k-2}; the class of cycle type lambda has n!/z_lambda elements, with
    z_lambda = prod_k k^(m_k) m_k! for m_k parts equal to k.
    """
    out = []

    def rec(prefix: list[int], rest: int, largest: int) -> None:
        if rest == 0:
            word: list[int] = []
            z = 1
            a = 0
            for k in prefix:
                word.extend(range(a, a + k - 1))
                a += k
            for k in set(prefix):
                m = prefix.count(k)
                z *= k**m * factorial(m)
            out.append((word, factorial(n) // z))
            return
        for k in range(min(rest, largest), 0, -1):
            rec(prefix + [k], rest - k, k)

    rec([], n, n)
    return out


def _fixed_monomial_counts(n: int, word: Sequence[int], d: int) -> list[int]:
    """Counts (degrees 0..d) of the monomials fixed by the word's variable permutation.

    A fixed monomial has one exponent per cycle, so the counts are the
    coefficients of prod over the cycles of 1/(1 - q^len).
    """
    perm = list(range(n))
    for i in word:
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    counts = [1] + [0] * d
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = perm[k]
            length += 1
        for delta in range(length, d + 1):
            counts[delta] += counts[delta - length]
    return counts


def _check_divided_differences(n: int, d: int) -> None:
    """Raise ArithmeticError unless each divided difference lowers the degree of each monomial up to d."""
    for e in monomials_upto(n, d):
        mono = MPoly(n, {e: 1})
        for i in range(n - 1):
            if mono.divided_difference(i).degree() >= sum(e):
                raise ArithmeticError(f"divided difference at s_{i} does not lower the degree of {e}")


def _zero_mode_map(space: SuperSpace, i: int, j: int, comps: Sequence[int]) -> dict[int, dict[int, int]]:
    """e_ij[0] on the constants (c, 1) for c in comps, as {c: {image component: coefficient}}.

    Raises ArithmeticError unless every image has degree 0.
    """
    n = space.nlegs()
    zero = (0,) * n
    out = {}
    for c in comps:
        image = current_action(space, i, j, 0, {c: MPoly(n, {zero: 1})})
        if any(p.degree() != 0 for p in image.values()):
            raise ArithmeticError(f"zero mode e{i}{j}[0] moves component {c} off degree 0")
        out[c] = {cc: p.terms[zero] for cc, p in image.items()}
    return out


def invariant_dimensions(n: int, level: int, d: int, singular_only: bool) -> list[int]:
    """Graded dimensions (degrees 0..d) of the modified-action invariants.

    The invariants have dimension tr(averaging projector) = (1/n!) sum_g
    tr(g), and tr(g) depends only on the cycle type of g: each word from
    _class_words counts for its whole class.  For the singular part the
    projector e12[0] e21[0] / n (raise, then lower) follows g.

    Lemma (traces from the leading block).  The modified s_i is the standard
    s_i plus a divided difference that strictly lowers degree, and e12[0],
    e21[0] keep degree.  So every operator here is triangular for the degree
    filtration, and its trace on the degree-delta piece equals the trace of
    its standard-action block.  That block is the word's signed permutation
    of the level-`level` components (followed by e12[0] e21[0] when
    singular_only) tensored with its permutation sigma of the variables, so
    the trace factors: the signed trace on the components, a 2^n-sized
    degree-0 computation, times the number of degree-delta monomials fixed by
    sigma, the q^delta coefficient of prod over the cycles of sigma of
    1/(1 - q^len).  No polynomial is multiplied.

    Both premises are checked here: each divided difference must lower the
    degree of every monomial of degree <= d, and e21[0], e12[0] must map
    every constant (c, 1) they are applied to into degree 0.  A failure
    raises ArithmeticError, as does a total that n! does not divide.
    """
    space = SuperSpace.tensor_power(n)
    comps = Coords.build(n, level, 0).components
    _check_divided_differences(n, d)
    if singular_only:
        raise_map = _zero_mode_map(space, 2, 1, comps)
        lower_map = _zero_mode_map(space, 1, 2, Coords.build(n, level + 1, 0).components)
    totals = [0] * (d + 1)
    for word, size in _class_words(n):
        trace = 0
        for c in comps:
            cc, sign = c, 1
            for i in reversed(word):
                cc, s = flip_components(space, cc, i)
                sign *= s
            if singular_only:
                trace += sign * sum(a * lower_map[u].get(c, 0) for u, a in raise_map[cc].items())
            elif cc == c:
                trace += sign
        if trace:
            for delta, count in enumerate(_fixed_monomial_counts(n, word, d)):
                totals[delta] += size * trace * count
    norm = factorial(n) * (n if singular_only else 1)
    out = []
    for delta, total in enumerate(totals):
        dim, rem = divmod(total, norm)
        if rem:
            raise ArithmeticError(
                f"invariant dimension {Fraction(total, norm)} at degree {delta} is not an integer"
            )
        out.append(dim)
    return out


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
            if c.denominator != 1:
                raise ArithmeticError(f"character coefficient {c} at degree {i + shift} is not an integer")
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


def gamma_coefficient_ops(n: int) -> dict[tuple[int, int], list[ExactMatrix]]:
    """x-coefficients of the symbolic Lax entries as maps on vectors."""
    points = [MPoly.var(n, i) for i in range(n)]
    lax, vspace = lax_product(points)
    return lax_blocks(lax, vspace.dim)


def _mpoly_apply(space: SuperSpace, mat: ExactMatrix, f: dict, n: int) -> dict:
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
    if len(out) != target:
        raise ArithmeticError(f"averaging spans {len(out)} invariants, trace formula gives {target}")
    return out


def cyclicity_by_degree(n: int, d: int) -> SpecializationResult:
    """Span growth from the vacuum under the entry coefficients fills each degree.

    On failure the detail names the first level whose span falls short, with
    its spanned dimension and the invariant count.
    """
    space = SuperSpace.tensor_power(n)
    blocks = gamma_coefficient_ops(n)
    cap = d
    coords_all = [Coords.build(n, lv, cap) for lv in range(n + 1)]
    ops = []
    for (i, j), op in blocks.items():
        for c in op:
            ops.append((i, j, c))
    # generate within the degree cap, then compare against invariant dims
    frontier = [vacuum_vector(n)]
    spans = {lv: SpanBasis(coords_all[lv].dim) for lv in range(n + 1)}
    spans[0].add(coords_all[0].to_vector(vacuum_vector(n)))
    while frontier:
        nxt = []
        for f in frontier:
            for i, j, c in ops:
                g = _mpoly_apply(space, c, f, n)
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
            detail = f"level {lv}: spanned dimension {spans[lv].dim}, invariant count {want}"
            return SpecializationResult(False, detail)
    return SpecializationResult(True, "")


def gamma_commutes_with_modified(n: int, d: int) -> SpecializationResult:
    """The entry coefficients commute with the modified action on degrees <= d.

    On failure the detail names the first failing leg, entry (i, j),
    x-degree, component and monomial.
    """
    space = SuperSpace.tensor_power(n)
    blocks = gamma_coefficient_ops(n)
    coords = Coords.build(n, None, d + n)
    small = Coords.build(n, None, d)
    for i_leg in range(n - 1):
        for (i, j), op in blocks.items():
            for deg, c in enumerate(op):
                for comp in small.components:
                    for e in small.monomials:
                        f = {comp: MPoly(n, {e: Fraction(1)})}
                        a = modified_action(space, i_leg, _mpoly_apply(space, c, f, n))
                        b = _mpoly_apply(space, c, modified_action(space, i_leg, f), n)
                        if coords.to_vector(a) != coords.to_vector(b):
                            where = f"leg {i_leg}, entry ({i}, {j}), x^{deg}"
                            return SpecializationResult(False, f"{where}, component {comp}, monomial {e}")
    return SpecializationResult(True, "")


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
        probe = self.ideal.copy()
        for w in modified_invariant_basis(n, level, dcap):
            if probe.add(self.coords.to_vector(w)):
                self.reps.append(w)
        r = len(self.reps)
        self.rep_matrix = ExactMatrix.from_columns(
            [self.ideal.reduce(self.coords.to_vector(w)) for w in self.reps], self.coords.dim
        )
        # the reps are independent modulo the ideal, so rep_matrix has full
        # column rank: solve on r independent rows, once per level
        rows = SpanBasis(r)
        self._solve_rows = []
        for i in sorted(self.rep_matrix.rows):
            if rows.dim == r:
                break
            if rows.add([self.rep_matrix.get(i, j) for j in range(r)]):
                self._solve_rows.append(i)
        self._solve_inv = self.rep_matrix.submatrix(self._solve_rows, range(r)).inverse()

    @property
    def dim(self) -> int:
        return len(self.reps)

    def class_coords(self, f: dict):
        """Coordinates of f's class in the reps, or None when f is outside their span."""
        red = self.ideal.reduce(self.coords.to_vector(f))
        x = self._solve_inv.apply([red[i] for i in self._solve_rows])
        return x if self.rep_matrix.apply(x) == red else None


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
    @cache
    def rep_image(key, lv, ri):
        """Class coordinates of an entry coefficient applied to a rep, None for 0."""
        (i, j, d) = key
        img = _mpoly_apply(space, blocks[(i, j)][d], levels[lv].reps[ri], n)
        if not img:
            return None
        sol = levels[lv + level_shift[(i, j)]].class_coords(img)
        if sol is None:
            raise ValueError("action does not preserve the quotient")
        return sol

    def q_apply(key, f):
        """Apply an entry coefficient to a quotient vector."""
        out = [Fraction(0)] * total
        for lv, q in enumerate(levels):
            tgt = lv + level_shift[key[:2]]
            if not (0 <= tgt <= n) or levels[tgt].dim == 0:
                continue
            for ri in range(q.dim):
                coef = f[offsets[lv] + ri]
                if not coef:
                    continue
                sol = rep_image(key, lv, ri)
                if sol is None:
                    continue
                for pos, v in enumerate(sol):
                    out[offsets[tgt] + pos] += coef * v
        return out

    keys = [(i, j, d) for (i, j), op in blocks.items() for d in range(len(op))]
    vmats = {
        (i, j, d): c for (i, j), m in pencil.entries.items() for d, c in enumerate(coefficient_matrices(m))
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
