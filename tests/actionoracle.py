"""The symmetric-group actions and their chart matrices by whole-polynomial composition (oracles).

`composed_modified_action` is shat_i as the graded flip with the swap of
z_i, z_{i+1}, plus the divided difference, each computed on the whole
polynomial by MPoly.swap and MPoly.divided_difference.  The model reads the
same action from its memoised monomial table; the tests compare the two.
`matrix_of` and `matrix_into` build a map's matrix one basis vector at a
time, by applying the map to it.
"""

from gl11chain.linalg import ExactMatrix
from gl11chain.weylspace import MPoly


def standard_action(space, i, f):
    """s_i = graded flip composed with the z_i <-> z_{i+1} swap."""
    out = {}
    for c, p in f.items():
        cc, sign = space.flip(c, i)  # flip permutes the components: each cc is hit once
        q = p.swap(i, i + 1)
        out[cc] = q if sign == 1 else -q
    return out


def composed_modified_action(space, i, f):
    """shat_i = flip-with-swap plus the divided difference, on whole polynomials."""
    out = standard_action(space, i, f)
    for c, p in f.items():
        dd = p.divided_difference(i)
        if dd:
            out[c] = out[c] + dd if c in out else dd
    return {c: p for c, p in out.items() if p}


def matrix_into(src, dst, fn):
    """Matrix of the map fn from the chart src into the chart dst."""
    m = ExactMatrix(dst.dim, src.dim)
    nm = len(src.monomials)
    rows = {(c, e): ci * len(dst.monomials) + mi
            for ci, c in enumerate(dst.components) for mi, e in enumerate(dst.monomials)}
    for ci, c in enumerate(src.components):
        for mi, e in enumerate(src.monomials):
            for cc, p in fn({c: MPoly(src.n, {e: 1})}).items():
                for ee, coef in p.terms.items():
                    if (cc, ee) not in rows:
                        raise ValueError("map leaves the target coordinates")
                    m.add_to(rows[(cc, ee)], ci * nm + mi, coef)
    return m


def matrix_of(coords, fn):
    """Matrix of a degree-respecting map in the chart coords."""
    return matrix_into(coords, coords, fn)
