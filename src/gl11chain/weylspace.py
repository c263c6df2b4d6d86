"""Polynomial-coefficient model: the vector power tensored with C[z_1..z_n].

Vectors are dicts {basis index of the n-fold vector power: MPoly}, where
MPoly is a sparse exact multivariate polynomial.  Every coefficient the model
builds is an integer, so coefficients are int; a Fraction appears only when a
non-integral rational is multiplied in.  The sparse vectors handed to
SpanBasis and the matrices of the actions are then integer too.

An MPoly stores each monomial z^e as one int, its packed key: slot i (W =
_SLOT_BITS = 16 bits from bit W*i) holds e_i, and slot n holds the total
degree.  A product of monomials is the sum of their keys, the degree of a
polynomial is its largest key shifted down by W*n, a swap of z_i and z_j adds
(e_j - e_i)(2^(W i) - 2^(W j)), and a divided difference steps from a base
key.  The bound: a slot holds at most 2^W - 1 = 65535, so a total degree of
2^W or more raises OverflowError where a key is packed (the constructor, var)
and before a product is formed, from the operands' degrees; no key carries
into the next slot.  Exponent tuples remain at the edges: the constructor
MPoly(n, {tuple: c}), the `terms` view, and the witnesses that name a monomial.
_monomial_keys enumerates the keys of one degree, in exponent-tuple order.
Two symmetric-group actions matter:

  standard   s_i = graded flip composed with the z_i <-> z_{i+1} swap;
  modified   shat_i = standard + divided difference (exact, degree-lowering).

The graded flip and each level's components are SuperSpace.flip and
level_indices.  The current e_ij[r] is one leg operator, memoised: the
superlin.leg_units sum over the sites s of E_ij on leg s with coefficient
z_s^r, applied to a vector by _mpoly_apply.  This module never reads the legs.

The divided difference (f - f^swap)/(z_i - z_{i+1}) is computed termwise
from the factored geometric sum, so no generic polynomial division occurs.
shat_i is read from one memoised monomial table, _monomial_image(n, i, key):
the swapped key and the divided-difference terms of each monomial, built
once from MPoly.swap and MPoly.divided_difference.  modified_action, the
relation matrices of check_sn_relations and the degree premise of
invariant_dimensions all read it, so each monomial's images are computed
once per process and every check sees the images the model applies.

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

Freeness over the symmetric polynomials is decided one way, by values: if
generators have independent values at one point a, a maximal minor of their
matrix is a nonzero polynomial, so every product sigma^e g is independent
over Q.  current_model_checks applies it to the lowering words at
a = (0, 1, ..., n-1).  The specialization to a numeric chain applies it to
the generators g_D = B_{d_1} ... B_{d_l} vac built from the (1,2) entry,
at the chain's points; the products sigma^e g_D are as many as
invariant_dimensions counts, so they are a basis, counted and never built.
Evaluation at z = a takes the symbolic entry coefficients to the numeric
ones, so it is the isomorphism of the quotient at sigma(z) = sigma(a) onto
the chain: no group and no elimination in a chart.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import comb, factorial
from typing import Optional, Sequence

from .exactnum import q_pochhammer_inverse, scalar, series_mul
from .linalg import ExactMatrix, SpanBasis
from .chain import make_spec
from .monodromy import Check, coefficient_matrices, lax_blocks, lax_product, tensor_monodromy
from .superlin import SuperSpace, leg_units


# Slot width of a packed key (see the module docstring).  At 16 bits no
# degree the model can reach in practice hits the bound: two variables alone
# have 2^31 monomials of degree below 2^16.
_SLOT_BITS = 16
_SLOT = (1 << _SLOT_BITS) - 1  # the largest degree a slot holds


def _pack(e: Sequence[int]) -> int:
    """The packed key of the exponent vector e."""
    key = 0
    for i, k in enumerate(e):
        if k < 0:
            raise ValueError(f"negative exponent in {tuple(e)}")
        key |= k << (_SLOT_BITS * i)
    total = sum(e)
    if total > _SLOT:
        raise OverflowError(f"degree {total} of {tuple(e)} exceeds the slot bound {_SLOT}")
    return key | total << (_SLOT_BITS * len(e))


def _unpack(key: int, n: int) -> tuple[int, ...]:
    """The exponent vector of a packed key in n variables."""
    return tuple(key >> (_SLOT_BITS * i) & _SLOT for i in range(n))


def _check_product(n: int, top1: int, top2: int) -> None:
    """Raise OverflowError unless the product of terms with largest keys top1, top2 fits the slots."""
    degree = (top1 + top2) >> (_SLOT_BITS * n)
    if degree > _SLOT:
        raise OverflowError(f"product degree {degree} exceeds the slot bound {_SLOT}")


class MPoly:
    """Sparse multivariate polynomial in z_1 .. z_n: {packed key: int or Fraction}.

    Coefficients stay int unless a non-integral Fraction enters.  The
    constructor takes {exponent tuple: coefficient}; `terms` gives the same
    view back.  The packed dict holds no zero coefficient.
    """

    __slots__ = ("n", "_packed")

    def __init__(self, n: int, terms: Optional[dict] = None):
        self.n = n
        packed = {}
        for e, c in (terms or {}).items():
            if len(e) != n:
                raise ValueError(f"exponent {tuple(e)} is not in {n} variables")
            if c:
                packed[_pack(e)] = c
        self._packed = packed

    @staticmethod
    def _raw(n: int, packed: dict) -> "MPoly":
        """The polynomial with these packed terms, which must hold no zero coefficient."""
        p = object.__new__(MPoly)
        p.n = n
        p._packed = packed
        return p

    @staticmethod
    def const(n: int, c) -> "MPoly":
        c = scalar(c) if isinstance(c, str) else c
        if isinstance(c, Fraction) and c.denominator == 1:
            c = c.numerator  # integral scalars enter the model as int
        return MPoly._raw(n, {0: c} if c else {})

    @staticmethod
    def var(n: int, idx: int, power: int = 1) -> "MPoly":
        e = [0] * n
        e[idx] = power
        return MPoly._raw(n, {_pack(e): 1})

    @property
    def terms(self) -> dict:
        """{exponent tuple: coefficient}, a fresh dict."""
        return {_unpack(key, self.n): c for key, c in self._packed.items()}

    def degree(self) -> int:
        return max(self._packed) >> (_SLOT_BITS * self.n) if self._packed else -1

    def is_zero(self) -> bool:
        return not self._packed

    def __bool__(self):
        return bool(self._packed)

    def __eq__(self, other):
        other = _mpoly(other, self.n)
        if other is NotImplemented:
            return NotImplemented
        return self._packed == other._packed

    __hash__ = None

    def __add__(self, other):
        other = _mpoly(other, self.n)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._packed)
        for key, c in other._packed.items():
            total = out.get(key, 0) + c
            if total:
                out[key] = total
            else:
                del out[key]
        return MPoly._raw(self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return MPoly._raw(self.n, {key: -c for key, c in self._packed.items()})

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
        t1, t2 = self._packed, other._packed
        if not (t1 and t2):
            return MPoly._raw(self.n, {})
        _check_product(self.n, max(t1), max(t2))
        out: dict = {}
        _add_product(out, t1, t2)
        return MPoly._raw(self.n, {key: c for key, c in out.items() if c})

    __rmul__ = __mul__

    def swap(self, i: int, j: int) -> "MPoly":
        si, sj = _SLOT_BITS * i, _SLOT_BITS * j
        # adding (e_j - e_i)(2^si - 2^sj) exchanges the slots; the degree stays
        step = (1 << si) - (1 << sj)
        return MPoly._raw(
            self.n, {key + ((key >> sj & _SLOT) - (key >> si & _SLOT)) * step: c for key, c in self._packed.items()}
        )

    def evaluate(self, point: Sequence) -> "int | Fraction":
        """The value at z = point."""
        if len(point) != self.n:
            raise ValueError(f"{len(point)} values for {self.n} variables")
        total = 0
        for key, c in self._packed.items():
            for v in point:
                k = key & _SLOT
                if k:
                    c *= v**k
                key >>= _SLOT_BITS
            total += c
        return total

    def divided_difference(self, i: int) -> "MPoly":
        """(f - f^swap)/(z_i - z_{i+1}), exact and termwise.

        z_i^a z_j^b (a > b) gives the sum over u < a - b of z_i^(b+u) z_j^(a-1-u),
        one degree lower; its keys run from a base key in steps of 2^si - 2^sj.
        """
        si, sj = _SLOT_BITS * i, _SLOT_BITS * (i + 1)
        unit_i, unit_j = 1 << si, 1 << sj
        step = unit_i - unit_j
        down = 1 << (_SLOT_BITS * self.n)
        out: dict = {}
        get = out.get
        for key, c in self._packed.items():
            a, b = key >> si & _SLOT, key >> sj & _SLOT
            if a == b:
                continue
            # slot i to min(a, b), slot j to max(a, b) - 1, degree down by one
            if a > b:
                base = key - down + (b - a) * unit_i + (a - b - 1) * unit_j
                stop = base + (a - b) * step
            else:
                base = key - down - unit_j
                stop = base + (b - a) * step
                c = -c
            for k in range(base, stop, step):
                out[k] = get(k, 0) + c
        return MPoly._raw(self.n, {key: c for key, c in out.items() if c})

    def __repr__(self):
        return f"MPoly({self.terms})"


def _add_product(out: dict, t1: dict, t2: dict) -> None:
    """Add the product of the packed term dicts t1 and t2 into out; _check_product has passed."""
    get = out.get
    for k1, c1 in t1.items():
        for k2, c2 in t2.items():
            key = k1 + k2
            out[key] = get(key, 0) + c1 * c2


def _mpoly(v, n: int):
    if isinstance(v, MPoly):
        return v
    if isinstance(v, (int, Fraction)):
        return MPoly.const(n, v)
    return NotImplemented


def elementary_mpoly(n: int, i: int) -> MPoly:
    """Elementary symmetric polynomial of degree i in n variables."""
    out: dict = {}
    for combo in itertools.combinations(range(n), i):
        e = [0] * n
        for idx in combo:
            e[idx] = 1
        out[tuple(e)] = 1
    return MPoly(n, out)


def _monomial_keys(n: int, delta: int):
    """The packed keys of the monomials of degree delta in n variables, in increasing exponent-tuple order.

    Stars and bars: each placement of n - 1 bars among delta + n - 1 slots is
    one monomial, e_i the number of stars between bars i - 1 and i.
    """
    for bars in itertools.combinations(range(delta + n - 1), n - 1):
        yield _pack([b - a - 1 for a, b in zip((-1, *bars), (*bars, delta + n - 1))])


# ---------------------------------------------------------------------------
# the modified symmetric-group action and the current-algebra action
# ---------------------------------------------------------------------------


@functools.cache
def _monomial_image(n: int, i: int, key: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """shat_i of z^key less the flip: the swapped key and the (key, coefficient) terms of its divided difference.

    Memoised per (n, i, key): every path of the model reads shat_i from this
    one table, built from MPoly.swap and MPoly.divided_difference, so the
    table and the tested primitives cannot drift apart.
    """
    mono = MPoly._raw(n, {key: 1})
    (swapped,) = mono.swap(i, i + 1)._packed
    return swapped, tuple(mono.divided_difference(i)._packed.items())


def modified_action(space: SuperSpace, i: int, f: dict) -> dict:
    """shat_i = flip-with-swap plus the divided difference, term by term from the monomial table.

    Summed in the order of the whole-polynomial composition: each
    component's divided difference in full with its zeros dropped, then added
    to the swapped parts.  So a cancellation between an int and an integral
    Fraction leaves the coefficient type the composition leaves.
    """
    n = space.n
    out: dict = {}
    lowered_parts = []
    for c, p in f.items():
        cc, sign = space.flip(c, i)
        # the flip permutes the components and the swap the keys, so nothing collides here
        swapped = out[cc] = {}
        lowered: dict = {}
        for key, coef in p._packed.items():
            skey, terms = _monomial_image(n, i, key)
            swapped[skey] = sign * coef
            for k, t in terms:
                lowered[k] = lowered.get(k, 0) + t * coef
        lowered_parts.append((c, lowered))
    for c, lowered in lowered_parts:
        target = out.setdefault(c, {})
        for k, v in lowered.items():
            if v:
                total = target.get(k, 0) + v
                if total:
                    target[k] = total
                else:
                    del target[k]
    return {c: MPoly._raw(n, t) for c, t in out.items() if t}


@functools.cache
def _current_operator(space: SuperSpace, i: int, j: int, r: int) -> ExactMatrix:
    """e_ij[r] as a matrix of MPoly entries.  Memoised per (space, i, j, r): shared, must not be mutated."""
    return leg_units(space, ((((s, i, j),), MPoly.var(space.n, s, r)) for s in range(space.n)))


def current_action(space: SuperSpace, i: int, j: int, r: int, f: dict) -> dict:
    """e_ij[r]: sum over sites s of E_ij on leg s, with its Koszul sign, times z_s^r."""
    return _mpoly_apply(_current_operator(space, i, j, r), f, space.n)


def vacuum_vector(n: int) -> dict:
    return {0: MPoly.const(n, 1)}


# ---------------------------------------------------------------------------
# graded invariant dimensions
# ---------------------------------------------------------------------------


def check_sn_relations(n: int, d: int) -> Check:
    """Involutivity, braid and distant-commutation for the modified action.

    On failure the witness names the first broken relation: involutivity of
    s_i, the braid relation at i, or the commutation of (i, j).
    """
    space = SuperSpace.tensor_power(n)
    comps = range(space.dim)
    keys = (key for delta in range(d + 1) for key in _monomial_keys(n, delta))
    position = {key: m for m, key in enumerate(keys)}
    mats = [_relation_matrix(space, comps, position, i) for i in range(n - 1)]
    ident = ExactMatrix.identity(len(comps) * len(position), 1)
    for i, m in enumerate(mats):
        if (m @ m) != ident:
            return Check(False, witness=f"involutivity of s_{i}")
    for i in range(n - 2):
        lhs = mats[i] @ mats[i + 1] @ mats[i]
        rhs = mats[i + 1] @ mats[i] @ mats[i + 1]
        if lhs != rhs:
            return Check(False, witness=f"braid relation at {i}")
    for i in range(n - 1):
        for j in range(i + 2, n - 1):
            if (mats[i] @ mats[j]) != (mats[j] @ mats[i]):
                return Check(False, witness=f"commutation of ({i}, {j})")
    return Check(True)


def _relation_matrix(space: SuperSpace, comps: Sequence[int], position: dict[int, int], i: int) -> ExactMatrix:
    """The matrix of shat_i on comps times the monomials of `position`, {packed key: position}.

    The basis vector (comps[ci], key) is column ci * len(position) +
    position[key]; each column is read from the flip of its component and
    the monomial table.
    """
    size = len(position)
    start = {c: ci * size for ci, c in enumerate(comps)}
    rows: dict = {}
    for c in comps:
        cc, sign = space.flip(c, i)
        for key, m in position.items():
            col = start[c] + m
            skey, terms = _monomial_image(space.n, i, key)
            rows.setdefault(start[cc] + position[skey], {})[col] = sign  # the column's first entry
            for k, t in terms:
                row = rows.setdefault(start[c] + position[k], {})
                row[col] = row.get(col, 0) + t
    rows = {r: {col: v for col, v in row.items() if v} for r, row in rows.items()}
    dim = len(comps) * size
    return ExactMatrix(dim, dim, {r: row for r, row in rows.items() if row})


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


@functools.cache
def _check_degree_drop(n: int, delta: int) -> None:
    """Raise ArithmeticError unless each divided difference lowers the degree of each monomial of degree delta.

    Memoised per (n, delta), so every level, part and cap checks each monomial
    once.  The divided differences are read from the monomial table, so the
    premise holds for the images the model applies.
    """
    for key in _monomial_keys(n, delta):
        for i in range(n - 1):
            if any(k >> (_SLOT_BITS * n) >= delta for k, _ in _monomial_image(n, i, key)[1]):
                raise ArithmeticError(f"divided difference at s_{i} does not lower the degree of {_unpack(key, n)}")


def _zero_mode_map(space: SuperSpace, i: int, j: int, comps: Sequence[int]) -> dict[int, dict[int, int]]:
    """e_ij[0] on the constants (c, 1) for c in comps, as {c: {image component: coefficient}}.

    Raises ArithmeticError unless every image has degree 0.
    """
    n = space.n
    out = {}
    for c in comps:
        image = current_action(space, i, j, 0, {c: MPoly.const(n, 1)})
        if any(p.degree() != 0 for p in image.values()):
            raise ArithmeticError(f"zero mode e{i}{j}[0] moves component {c} off degree 0")
        out[c] = {cc: p._packed[0] for cc, p in image.items()}
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
    comps = space.level_indices[level]
    for delta in range(d + 1):
        _check_degree_drop(n, delta)
    if singular_only:
        raise_map = _zero_mode_map(space, 2, 1, comps)
        lower_map = _zero_mode_map(space, 1, 2, space.level_indices[level + 1] if level < n else ())
    totals = [0] * (d + 1)
    for word, size in _class_words(n):
        trace = 0
        for c in comps:
            cc, sign = c, 1
            for i in reversed(word):
                cc, s = space.flip(cc, i)
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
        geom = [1 if i % n == 0 else 0 for i in range(d + 1)]
        series = series_mul(series, geom, d)
    else:
        shift = level * (level - 1) // 2
        series = series_mul(
            q_pochhammer_inverse(level, d), q_pochhammer_inverse(n - level, d), d
        )
    return ([0] * shift + series)[: d + 1]


# ---------------------------------------------------------------------------
# free generating sets over the symmetric polynomials
# ---------------------------------------------------------------------------


def _difference(a: dict, b: dict) -> "str | None":
    """The first entry where the vectors a and b differ, by component, then degree, then exponent; None when equal."""
    ta, tb = ({c: p.terms for c, p in f.items()} for f in (a, b))
    entries = {(c, e) for t in (ta, tb) for c, terms in t.items() for e in terms}
    for c, e in sorted(entries, key=lambda ce: (ce[0], sum(ce[1]), ce[1])):
        x, y = (t[c].get(e, 0) if c in t else 0 for t in (ta, tb))
        if x != y:
            return f"component {c}, monomial {e}: {x} vs {y}"
    return None


def _apply_e21_word(space: SuperSpace, rs: Sequence[int], base: dict) -> dict:
    out = base
    for r in reversed(rs):
        out = current_action(space, 2, 1, r, out)
    return out


def current_model_checks(n: int, level: int, d: int) -> list[Check]:
    """Free-generator and relation checks in the standard-action model.

    Freeness, as in step (b) of specialization_check: the lowering-word
    generators g_w at the level have independent values g_w(a) at the
    distinct points a = (0, 1, ..., n-1).  So a maximal minor of [g_w(z)] is
    a nonzero polynomial, the g_w are independent over Q(z) and, the sigma_i
    being algebraically independent, so are the products sigma^e g_w over Q.
    No product is built.  The singular generators e12(0) e21(0) g_w, for the
    words w in {1..n-1}, are decided the same way: each is nonzero and their
    values at a are independent.  They are singular whatever g_w is, since
    e12(0)^2 = 0, so that is the claim that can fail.

    A failed check's witness names the level of the vectors compared, the
    relation, and the first dependent generator or differing entry: the
    vectors are compared as dicts, so an entry of any degree is compared.
    """
    space = SuperSpace.tensor_power(n)
    results = []  # (level of the vectors compared, label, the first difference or None)
    v_plus = vacuum_vector(n)

    # lowering-word generators, independent by their values at the point
    point = tuple(range(n))
    values = SpanBasis()
    dependent = None
    for w in itertools.combinations(range(n), level):
        g = _apply_e21_word(space, w, v_plus)
        if not values.add({c: p.evaluate(point) for c, p in g.items()}):
            dependent = f"g_{w} at z = {point} depends on the earlier generators' values"
            break
    results.append((level, f"free generators at level {level}", dependent))

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
    results.append((1, "overflow relation", _difference(lhs, rhs)))

    # anticommutation of the lowering modes
    if n >= 2:
        a = current_action(space, 2, 1, 1, current_action(space, 2, 1, 0, v_plus))
        b = current_action(space, 2, 1, 0, current_action(space, 2, 1, 1, v_plus))
        results.append((2, "lowering modes anticommute", _difference(a, {c: -p for c, p in b.items()})))

    # singular generators e12(0) e21(0) g_w, w in {1..n-1}: nonzero, with independent values at a
    if level <= n - 1:
        values, diff = SpanBasis(), None
        for w in itertools.combinations(range(1, n), level):
            wvec = current_action(space, 1, 2, 0, current_action(space, 2, 1, 0, _apply_e21_word(space, w, v_plus)))
            if not wvec:
                diff = f"the generator of {w} is zero"
            elif not values.add({c: p.evaluate(point) for c, p in wvec.items()}):
                diff = f"the generator of {w} at z = {point} depends on the earlier generators' values"
            if diff is not None:
                break
        results.append((level, "singular generators", diff))
    return [Check(diff is None, label, "" if diff is None else f"level {lv}, {label}: {diff}")
            for lv, label, diff in results]


# ---------------------------------------------------------------------------
# specialization to the numeric chain
# ---------------------------------------------------------------------------


@functools.cache
def gamma_coefficient_ops(n: int) -> dict[tuple[int, int], list[ExactMatrix]]:
    """x-coefficients of the symbolic Lax entries as maps on vectors.

    Memoised per n: the dict, its lists and matrices are shared and must not be mutated.
    """
    points = [MPoly.var(n, i) for i in range(n)]
    lax, vspace = lax_product(points)
    return lax_blocks(lax, vspace.dim)


def _mpoly_apply(mat: ExactMatrix, f: dict, n: int) -> dict:
    """The vector mat f, for a matrix of MPoly or scalar entries: ExactMatrix.apply's vector, summed in one packed dict.

    apply sums MPolys, copying the partial sum at every term; on the n = 5
    specialization that is about a tenth slower.
    """
    tops = {j: max(p._packed) for j, p in f.items() if p._packed}
    out: dict = {}
    for i, row in mat.rows.items():
        acc: dict = {}
        for j, entry in row.items():
            top = tops.get(j)
            if top is None:
                continue
            terms = _mpoly(entry, n)._packed
            _check_product(n, max(terms), top)
            _add_product(acc, terms, f[j]._packed)
        acc = {key: c for key, c in acc.items() if c}
        if acc:
            out[i] = MPoly._raw(n, acc)
    return out


def _degree(f: dict) -> int:
    return max(p.degree() for p in f.values())


def cyclicity_by_degree(n: int, d: int) -> Check:
    """Span growth from the vacuum under the entry coefficients fills each degree.

    On failure the witness names the first level whose span falls short, with
    its spanned dimension and the invariant count.
    """
    space = SuperSpace.tensor_power(n)
    ops = [c for op in gamma_coefficient_ops(n).values() for c in op]
    spans = [SpanBasis() for _ in range(n + 1)]
    # grow within the degree cap, each vector entering its level's span as
    # {(packed key << n) | component: coefficient}; only the new ones are applied further
    frontier = [vacuum_vector(n)]
    while frontier:
        images = []
        for f in frontier:
            vec = {(key << n) | c: v for c, p in f.items() for key, v in p._packed.items()}
            if spans[space.level(next(iter(f)))].add(vec):
                images.extend(_mpoly_apply(c, f, n) for c in ops)
        frontier = [g for g in images if g and _degree(g) <= d]
    for lv in range(n + 1):
        want = sum(invariant_dimensions(n, lv, d, False))
        if spans[lv].dim != want:
            return Check(False, witness=f"level {lv}: spanned dimension {spans[lv].dim}, invariant count {want}")
    return Check(True)


def gamma_commutes_with_modified(n: int, d: int) -> Check:
    """The entry coefficients commute with the modified action on degrees <= d.

    On failure the witness names the first failing leg, entry (i, j),
    x-degree, component and monomial.
    """
    space = SuperSpace.tensor_power(n)
    blocks = gamma_coefficient_ops(n)
    keys = [key for delta in range(d + 1) for key in _monomial_keys(n, delta)]
    monomials = {(comp, key): {comp: MPoly._raw(n, {key: 1})} for comp in range(space.dim) for key in keys}
    for i_leg in range(n - 1):
        # the action on a basis monomial depends on neither the entry nor its coefficient
        acted = {at: modified_action(space, i_leg, f) for at, f in monomials.items()}
        for (i, j), op in blocks.items():
            for deg, c in enumerate(op):
                for (comp, key), f in monomials.items():
                    a = modified_action(space, i_leg, _mpoly_apply(c, f, n))
                    b = _mpoly_apply(c, acted[comp, key], n)
                    if a != b:
                        where = f"leg {i_leg}, entry ({i}, {j}), x^{deg}"
                        return Check(False, witness=f"{where}, component {comp}, monomial {_unpack(key, n)}")
    return Check(True)


def _generators(n: int, blocks: dict) -> list[list[tuple[tuple[int, ...], dict]]]:
    """(D, g_D) per level l for the words D = (d_1 < ... < d_l < n) with g_D != 0.

    g_D = B_{d_1} ... B_{d_l} vac, B_d the x^d coefficient of the (1,2) entry.
    """
    out = []
    for lv in range(n + 1):
        level = []
        for word in itertools.combinations(range(n), lv):
            g = vacuum_vector(n)
            for d in reversed(word):
                g = _mpoly_apply(blocks[(1, 2)][d], g, n)
            if g:
                level.append((word, g))
        out.append(level)
    return out


def _product_count(n: int, budget: int) -> int:
    """Number of the sigma^e of weighted degree <= budget (partitions into parts <= n); none when budget < 0."""
    return sum(q_pochhammer_inverse(n, budget)) if budget >= 0 else 0


def specialization_check(points: Sequence) -> Check:
    """Quotient of the invariant model at fixed symmetric values vs the chain.

    The chain has n = len(points) sites at the points a, with a_i != a_j + 1
    for i > j.  The modified-action invariants W are free over the symmetric
    polynomials on the generators g_D = B_{d_1} ... B_{d_l} vac
    (d_1 < ... < d_l < n) at level l, B_d the x^d coefficient of the symbolic
    (1,2) entry.  Let F be the Q[sigma]-module they span.  Five steps, each
    with its witness:

    a. every g_D is fixed by every modified s_i, and the nonzero g_D at level
       l number C(n, l) (witness: the generator and s_i, or the level);
    b. the numeric partners g_D(a), the columns of M, are independent.  So
       each level's det[g_D(z)] is a nonzero polynomial and, the sigma_i being
       algebraically independent, the products sigma^e g_D are independent
       over Q (witness: the level and the generator);
    c. the products up to the level's cap, the largest degree of its images,
       are as many as the invariants up to the cap (invariant_dimensions):
       with b they are a basis of them, and no group is built (witness: the
       level);
    d. every image X g_D is fixed by every modified s_i.  Its degree is at
       most the cap, so by c it lies in F (witness: the key, the generator
       and s_i);
    e. every symbolic coefficient matrix at z = a equals the numeric one
       entry for entry, a key missing on one side read as zero (witness: the
       key and the entry).  So evaluation at a intertwines X with V_X, kills
       (sigma - sigma(a)) F and, by b, is the isomorphism M of the quotient
       onto the chain: Q_X = M^-1 V_X M holds by construction.
    """
    a = [scalar(v) for v in points]
    n = len(a)
    for i in range(n):
        for j in range(i):
            if a[i] == a[j] + 1:
                return Check(False, witness="ordering precondition violated")
    space = SuperSpace.tensor_power(n)
    pencil = tensor_monodromy(make_spec([(1, 0)] * n, [str(v) for v in a], (1, 1)))
    blocks = gamma_coefficient_ops(n)
    smats = {(i, j, d): c for (i, j), op in blocks.items() for d, c in enumerate(op)}
    vmats = {
        (i, j, d): c for (i, j), m in pencil.entries.items() for d, c in enumerate(coefficient_matrices(m))
    }

    # a. the generators lie in the invariants
    gens = _generators(n, blocks)
    for lv, level in enumerate(gens):
        for word, g in level:
            for i in range(n - 1):
                if modified_action(space, i, g) != g:
                    return Check(False, witness=f"generator {word} not fixed by s_{i}")
        if len(level) != comb(n, lv):
            return Check(False, witness=f"level {lv}: {len(level)} of {comb(n, lv)} generators nonzero")

    # b. the partners g_D(a) are independent
    partners = SpanBasis()
    for lv, level in enumerate(gens):
        for word, g in level:
            if not partners.add({c: p.evaluate(a) for c, p in g.items()}):
                return Check(False, witness=f"level {lv}: partner of {word} depends on the earlier partners")

    # images X g_D as (key, source generator, image), and the cap of each target level
    level_shift = {(1, 1): 0, (2, 2): 0, (1, 2): 1, (2, 1): -1}
    images = []
    caps = [0] * (n + 1)
    for key, op in smats.items():
        for lv, level in enumerate(gens):
            for word, g in level:
                img = _mpoly_apply(op, g, n)
                if img:
                    images.append((key, word, img))
                    tgt = lv + level_shift[key[:2]]
                    caps[tgt] = max(caps[tgt], _degree(img))

    # c. as many products sigma^e g_D up to the cap as invariants
    for lv, level in enumerate(gens):
        count = sum(_product_count(n, caps[lv] - _degree(g)) for _, g in level)
        want = sum(invariant_dimensions(n, lv, caps[lv], False))
        if count != want:
            return Check(False, witness=f"level {lv}: {count} products, {want} invariants up to degree {caps[lv]}")

    # d. the images lie in the invariants
    for key, word, img in images:
        for i in range(n - 1):
            if modified_action(space, i, img) != img:
                return Check(False, witness=f"image of {key} on generator {word} not fixed by s_{i}")

    # e. evaluation at a carries each symbolic coefficient matrix to the numeric one
    zero = ExactMatrix(2**n, 2**n)
    for key in list(smats) + [k for k in vmats if k not in smats]:
        sym, num = smats.get(key, zero), vmats.get(key, zero)
        for r, c in sorted({(r, c) for m in (sym, num) for r, c, _ in m.entries()}):
            value = sym.get(r, c)
            if isinstance(value, MPoly):
                value = value.evaluate(a)
            if value != num.get(r, c):
                return Check(False, witness=f"evaluation differs on {key} at entry ({r}, {c})")
    return Check(True)
