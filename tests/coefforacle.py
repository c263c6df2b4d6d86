"""Coefficient-by-coefficient routes to the identities the package decides at one Kronecker point (test oracles).

The package decides the contravariance of the form, the self-adjointness of
the transfer pencil, every commutation identity (the transfer coefficients
with each other and with the diagonal action, T_1 with T_2, the Berezinian
with the pencil) and the zero-mode exchange relations by evaluating each
polynomial matrix at one integer point 2^w (`linalg.kronecker_values`,
`linalg.first_noncommuting`).  These are the loops it replaced: one pair of
x-coefficient (or Laurent-coefficient) matrices at a time, as `ExactMatrix`
products over Fractions, stopping at the first failure in the same order.
`chains` draws small chains and `corrupted` spoils a pencil or one matrix,
for the differentials against them; `corrupted_below_top` spoils a pencil
below the x^k coefficients that the Laurent route reads as T^(0).

The Laurent route at infinity lives here too: `laurent_expand` (the scalar
series of a proper rational function), `laurent_coefficients` (a matrix of
polynomials times one scalar series) and `t_coefficient` (T_ij^(r) of a
pencil).  The package reads contravariance and the zero modes off the
pencil's own x-coefficients, since its normalizer is monic.

`elementary_symmetric` gives e_1..e_n of a list of values, the Vieta
coefficients; `bethealg.presentation_check` checks gamma's against
`Poly.from_roots`.

`neumann_inverse_series` is the truncated geometric series that
`fusion.DiffOp.inverse_series` summed before it solved the coefficient
recurrence: the powers of c_0^-1 times the positive tau part, by `DiffOp.mul`.
"""

from fractions import Fraction as F
from itertools import product

from hypothesis import strategies as st

from gl11chain import fusion
from gl11chain.chain import make_spec
from gl11chain.exactnum import Poly, RatFun
from gl11chain.linalg import ExactMatrix
from gl11chain.monodromy import Check, coefficient_matrices
from gl11chain.shapoform import iota_sign
from gl11chain.superlin import E_PARITY, gl_generator


def elementary_symmetric(values) -> list[F]:
    """e_1..e_n of the given values (e_0 omitted)."""
    es = [F(1)] + [F(0)] * len(values)
    for k, v in enumerate(values, start=1):
        for i in range(k, 0, -1):
            es[i] += v * es[i - 1]
    return es[1:]


def laurent_expand(f, order: int) -> list[F]:
    """Coefficients of x^0, x^-1, ..., x^-order in the expansion at infinity.

    The input (a RatFun or a Poly) must be proper at infinity (deg num <=
    deg den); geometric expansion of each 1/(x - z) style factor is exact.
    """
    f = f if isinstance(f, RatFun) else RatFun(f)
    n, d = f.num, f.den
    if n.degree > d.degree:
        raise ValueError("not expandable at infinity")
    big = d.degree
    # substitute x = 1/u and clear u^big from both parts
    rn = [n.coeff(big - i) for i in range(big + 1)]
    rd = [d.coeff(big - i) for i in range(big + 1)]
    out: list[F] = []
    lead = rd[0]
    rem = list(rn) + [F(0)] * (order + 1)
    for i in range(order + 1):
        c = rem[i] / lead
        out.append(c)
        if c:
            for j, dc in enumerate(rd):
                if i + j <= order:
                    rem[i + j] -= c * dc
    return out


def laurent_coefficients(m: ExactMatrix, num: Poly, den: Poly, order: int) -> list[ExactMatrix]:
    """Coefficients of x^0, x^-1, ..., x^-order at infinity of (num/den) * m.

    m is a Poly-entry matrix with x^d coefficient matrices C_d.  With
    num/den = sum_t g_t x^-t, the x^-r coefficient is sum_d g_(d+r) C_d, so
    one scalar series serves every entry.  Raises
    ValueError("not expandable at infinity") when an entry p of m has
    deg(num * p) > deg den.
    """
    cms = coefficient_matrices(m)
    out = [ExactMatrix(m.nrows, m.ncols) for _ in range(order + 1)]
    if not cms:
        return out
    if num.degree + len(cms) - 1 > den.degree:
        raise ValueError("not expandable at infinity")
    series = laurent_expand(RatFun(num, den), len(cms) - 1 + order)
    for r, acc in enumerate(out):
        for d, c in enumerate(cms):
            g = series[d + r]
            if g:
                for a, b, v in c.entries():
                    acc.add_to(a, b, g * v)
    return out


def t_coefficient(pencil, i: int, j: int, r: int) -> ExactMatrix:
    """Laurent coefficient T_ij^(r) of the unnormalized series at infinity."""
    return laurent_coefficients(pencil.entry(i, j), Poly((1,)), pencil.normalizer, r)[r]


def commute(a, b) -> bool:
    """a b == b a, by two ExactMatrix products."""
    return a @ b == b @ a


def noncommuting_pair(tq):
    """The first (a, b), a < b, with C_a C_b != C_b C_a, C_d the x^d coefficients of tq; None when all commute."""
    cs = coefficient_matrices(tq)
    return next(((a, b) for a in range(len(cs)) for b in range(a + 1, len(cs)) if not commute(cs[a], cs[b])), None)


def symmetry_failure(space, weights, gens, tq):
    """The first generator, then degree, whose e_g does not commute with C_d, as the suite words it; else None."""
    cs = coefficient_matrices(tq)
    for g in gens:
        e = gl_generator(space, weights, *g)
        for d, c in enumerate(cs):
            if not commute(c, e):
                return f"generator e_{g[0]}{g[1]}, x^{d} coefficient"
    return None


def higher_family_commutes(spec) -> Check:
    """fusion.higher_family_commutes by its coefficient loop: every x-coefficient pair of T_1 and T_2, a before b."""
    t1, t2 = (coefficient_matrices(fusion._without_content(fusion.higher_transfer(spec, m).matrix.num)) for m in (1, 2))
    for a, ca in enumerate(t1):
        for b, cb in enumerate(t2):
            if not commute(ca, cb):
                return Check(False, "higher family commutes", f"coefficient pair {(a, b)}")
    return Check(True, "higher family commutes")


def berezinian_central(pencil, twist) -> bool:
    """The Berezinian's tau^0 numerator (first quotient form) commutes with every x-coefficient of every entry."""
    k = fusion.manin_entries(pencil, twist)
    inner = k[(2, 2)] - k[(2, 1)].mul(k[(1, 1)].inverse_single()).mul(k[(1, 2)])
    num = k[(1, 1)].mul(inner.inverse_single()).frac_coeff(0).num
    return all(commute(num, c) for ent in pencil.entries.values() for c in coefficient_matrices(ent))


def zero_mode_failure(pencil):
    """[T_ij^(1), That_rs(x)] against the exchange relations, one x^d coefficient at a time, as the suite words it.

    d runs up to the largest degree of That_rs, That_rj and That_is, so the
    top terms of the right-hand side are checked too.
    """
    coeffs = {e: coefficient_matrices(m) for e, m in pencil.entries.items()}
    zero = ExactMatrix(pencil.dim, pencil.dim)
    for i, j, r, s in product((1, 2), repeat=4):
        t1 = t_coefficient(pencil, i, j, 1)
        sigma = -1 if (i + j) % 2 and (r + s) % 2 else 1
        sgn = -1 if ((i == 2) * (r == 2) + (s == 2) * (i == 2) + (s == 2) * (r == 2)) % 2 else 1
        for d in range(max(len(coeffs[e]) for e in ((r, s), (r, j), (i, s)))):
            m, rj, is_ = (coeffs[e][d] if d < len(coeffs[e]) else zero for e in ((r, s), (r, j), (i, s)))
            if t1 @ m - (m @ t1) * sigma != rj * (sgn * (i == s)) - is_ * (sgn * (r == j)):
                return f"generator T_{i}{j}^(1) against That_{r}{s}, x^{d} coefficient"
    return None


def self_adjoint_failure(tq, gram):
    """The least d with C_d^T G != G C_d, or None."""
    return next((d for d, c in enumerate(coefficient_matrices(tq)) if (c.transpose() @ gram) != (gram @ c)), None)


def iota_contract(pencil, gram, k) -> Check:
    """Contravariance for r = 1..k+1, r before (i, j), one (i, j, r) at a time."""
    space = pencil.space
    series = {
        (i, j): laurent_coefficients(pencil.entry(i, j), Poly((1,)), pencil.normalizer, k + 1)
        for i in (1, 2)
        for j in (1, 2)
    }
    for r in range(1, k + 2):
        for (i, j) in ((1, 1), (1, 2), (2, 1), (2, 2)):
            lhs = series[(i, j)][r].transpose() @ gram
            rhs = gram @ (series[(j, i)][r] * iota_sign(i, j))
            if E_PARITY[(i, j)]:
                signed = ExactMatrix(space.dim, space.dim)
                for a, b, v in rhs.entries():
                    signed.put(a, b, -v if space.parity(a) else v)
                rhs = signed
            if lhs != rhs:
                return Check(False, witness=f"first failing (i, j, r) {(i, j, r)}")
    return Check(True)


def neumann_inverse_series(d, hi: int):
    """Inverse up to tau^hi of c0 + (positive tau powers), c0 invertible, as a truncated geometric series."""
    if any(p < 0 for p in d.coeffs):
        raise ValueError("inverse_series expects nonnegative powers")
    if 0 not in d.coeffs:
        raise ValueError("non-invertible constant term")
    c0inv = fusion.DiffOp(d.dim, {0: d.coeffs[0].inverse()})
    rest = fusion.DiffOp(d.dim, {p: c for p, c in d.coeffs.items() if p > 0})
    nil = c0inv.mul(rest, hi=hi)
    out = fusion.DiffOp.one(d.dim)
    power = fusion.DiffOp.one(d.dim)
    for _ in range(hi):
        power = nil.mul(power, hi=hi).scale(F(-1))
        if not power.coeffs:
            break
        out = out + power
    return out.mul(c0inv, hi=hi)


@st.composite
def chains(draw, max_k=3):
    """Chains of 1..max_k sites with small weights, half-integer points and either twist."""
    k = draw(st.integers(1, max_k))
    weights = [(draw(st.integers(1, 2)), draw(st.integers(0, 1))) for _ in range(k)]
    points = [str(F(draw(st.integers(-6, 6)), 2)) for _ in range(k)]
    return make_spec(weights, points, draw(st.sampled_from([("1", "1"), ("2", "3")])))


def corrupted_matrix(m, draw):
    """A copy of a Poly-entry or rational matrix negated, with one coefficient scaled by 3/2, or one element shifted by 1/7."""
    kind = draw(st.sampled_from(["negate", "scale", "shift"]))
    if kind == "negate":
        return -m
    m = m.copy()
    poly = any(isinstance(v, Poly) for _, _, v in m.entries())
    if kind == "scale":
        a, b = draw(st.sampled_from(sorted((a, b) for a, b, _ in m.entries())))
        v = m.get(a, b)
        if poly:
            coeffs = list(v.coeffs)
            d = draw(st.sampled_from([d for d, c in enumerate(coeffs) if c]))
            coeffs[d] *= F(3, 2)
            m.put(a, b, Poly(coeffs))
        else:
            m.put(a, b, v * F(3, 2))
    else:
        a, b = draw(st.integers(0, m.nrows - 1)), draw(st.integers(0, m.ncols - 1))
        m.put(a, b, m.get(a, b) + (Poly((F(1, 7),)) if poly else F(1, 7)))
    return m


def corrupted(pencil, draw):
    """A copy of the pencil with one entry matrix corrupted as corrupted_matrix does."""
    e = draw(st.sampled_from(sorted(pencil.entries)))
    return pencil._replace(entries={**pencil.entries, e: corrupted_matrix(pencil.entries[e], draw)})


def corrupted_below_top(pencil, draw):
    """A copy of the pencil with c x^d added at one element of one entry, d below the normalizer's degree k."""
    e = draw(st.sampled_from(sorted(pencil.entries)))
    m = pencil.entries[e].copy()
    a, b = draw(st.integers(0, m.nrows - 1)), draw(st.integers(0, m.ncols - 1))
    d = draw(st.integers(0, pencil.normalizer.degree - 1))
    m.put(a, b, m.get(a, b) + Poly([0] * d + [draw(st.sampled_from([F(1, 7), F(-3, 2)]))]))
    return pencil._replace(entries={**pencil.entries, e: m})
