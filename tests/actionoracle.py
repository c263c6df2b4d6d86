"""The symmetric-group actions, a coordinate chart and chart matrices by whole-polynomial composition (oracles).

`composed_modified_action` is shat_i as the graded flip with the swap of
z_i, z_{i+1}, plus the divided difference, each computed on the whole
polynomial by MPoly.swap and MPoly.divided_difference.  The model reads the
same action from its memoised monomial table; the tests compare the two.
`Coords` is a dense chart on a level's components times the monomials up to
a degree, listed by `monomials_upto`; the dense-kernel oracles eliminate in
it, and the model, which hands SpanBasis sparse vectors, never builds one.
`matrix_of` and `matrix_into` build a map's matrix one basis vector at a
time, by applying the map to it.
"""

from typing import NamedTuple

from gl11chain.linalg import ExactMatrix
from gl11chain.weylspace import MPoly, _pack, level_components


def monomials_upto(n, d):
    """Exponent tuples of the monomials of degree <= d in n variables, by degree, then lexicographically."""
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


class Coords(NamedTuple):
    """Coordinate chart on (level-l components of V) tensor polynomials of degree <= d.

    keys holds the packed key of each monomial; the index is keyed by
    (component, packed key of the monomial).
    """

    n: int
    components: list
    monomials: list
    keys: list
    index: dict

    @staticmethod
    def build(n, level, d):
        comps = level_components(n, level)
        monos = monomials_upto(n, d)
        keys = [_pack(m) for m in monos]
        index = {(c, key): ci * len(monos) + mi for ci, c in enumerate(comps) for mi, key in enumerate(keys)}
        return Coords(n, comps, monos, keys, index)

    @property
    def dim(self):
        return len(self.components) * len(self.monomials)

    def to_vector(self, f):
        v = [0] * self.dim
        for c, p in f.items():
            for key, coef in p._packed.items():
                v[self.index[(c, key)]] = coef
        return v


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
