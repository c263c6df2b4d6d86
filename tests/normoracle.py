"""Two independent routes to the on-shell square norm, kept as test oracles.

`shapoform.norm_check` takes its right side from q1^(-l) Res(y, psi * gamma/y).
These are the routes it replaced: the Wronskian product
(-1)^l prod_i Wr(phi, psi)(t_i) / y'(t_i) at simple roots, and at any divisor
the eps -> 0 limit of both sides under t_i -> t_i + i*eps.

The eps limit of the Wronskian product is the norm only where it is 0: at a
repeated root t of y with psi(t) = 0 both vanish.  At a repeated root where
psi does not vanish the perturbed points leave the roots of gamma, the limit
is -2 Wr'(t)^2 at a double root, and it differs from the form value; see
`test_eps_wronskian_limit_misses_a_double_root_off_psi` in test_shapoform.py.
"""

from fractions import Fraction

from gl11chain.bethe import bethe_vector_eps, char_pair
from gl11chain.exactnum import Poly, RatFun, eps_limit
from gl11chain.shapoform import form_matrix, form_value, norm_check


def derivative(p: Poly) -> Poly:
    return Poly(i * c for i, c in enumerate(p.coeffs) if i)


def wronskian(spec) -> Poly:
    cp = char_pair(spec)
    return cp.phi * derivative(cp.psi) - derivative(cp.phi) * cp.psi


def wronskian_norm(spec, y) -> Fraction:
    """(-1)^l prod_i Wr(t_i) / y'(t_i) over the roots of y; they must be simple."""
    wr, yprime = wronskian(spec), derivative(y.poly)
    out = Fraction((-1) ** y.degree)
    for t in y.root_list():
        out *= wr(t) / yprime(t)
    return out


def eps_norm(spec, y) -> tuple[Fraction, Fraction]:
    """Both sides as eps -> 0 limits at t_i + i*eps: the form value of the limit vector, and the Wronskian product."""
    vec = bethe_vector_eps(spec, y.root_list())
    points = [Poly((t, i + 1)) for i, t in enumerate(y.root_list())]
    wr = wronskian(spec)
    prod = RatFun(Poly((1,)))
    for idx, pt in enumerate(points):
        yprime = Poly((1,))
        for jdx, other in enumerate(points):
            if jdx != idx:
                yprime = yprime * (pt - other)
        prod = prod * RatFun(wr(pt)) / RatFun(yprime)
    return form_value(form_matrix(spec), vec, vec), (-1) ** y.degree * eps_limit(prod)


def assert_norm_matches_the_oracles(spec, y) -> None:
    """norm_check holds at y and agrees with the old routes where they apply.

    At simple roots its right side is the Wronskian product.  At repeated
    roots its left side is the eps limit's, and so is its right side where
    psi vanishes at a repeated root.
    """
    rec = norm_check(spec, y)
    assert rec.equal
    if rec.repeated_roots:
        lhs, rhs = eps_norm(spec, y)
        assert rec.lhs == lhs
        if any(char_pair(spec).psi(t) == 0 for t, m in y.roots if m > 1):
            assert rec.rhs_resolved == rhs
    else:
        assert rec.rhs_resolved == wronskian_norm(spec, y)
    q1, q2 = spec.twist
    assert rec.rhs_stated == (-q2 / q1) ** y.degree * rec.rhs_resolved
