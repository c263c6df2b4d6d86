"""The general leg model the package used before SuperSpace became a tensor power (test oracle).

A LegSpace is an ordered tensor product of legs, each given by the parities
of its basis vectors: (0, 1) is the standard leg, and a leg may be any parity
tuple, the whole chain module included.  Global basis vectors are indexed
lexicographically in the leg multi-index, leftmost leg most significant, so
on standard legs the index agrees with SuperSpace's.  `kron_signed` builds a
product of per-leg operators with its own Koszul loop over the source
components, independently of `SuperSpace.leg_unit`.
"""

from fractions import Fraction
from itertools import product

from gl11chain.linalg import ExactMatrix

STANDARD = (0, 1)


class LegSpace:
    """Ordered tensor product of legs with fixed basis parities."""

    def __init__(self, legs):
        self.legs = tuple(tuple(leg) for leg in legs)
        self.dims = tuple(len(leg) for leg in self.legs)
        self.multis = tuple(product(*[range(d) for d in self.dims]))
        self.dim = len(self.multis)

    @staticmethod
    def tensor_power(n):
        return LegSpace([STANDARD] * n)

    def nlegs(self):
        return len(self.legs)

    def index(self, multi):
        idx = 0
        for d, i in zip(self.dims, multi):
            idx = idx * d + i
        return idx

    def multi_index(self, idx):
        return self.multis[idx]


def e_matrix(i, j, dim=2):
    """Matrix unit E_ij on a single leg (1-based indices)."""
    m = ExactMatrix(dim, dim)
    m.put(i - 1, j - 1, Fraction(1))
    return m


def kron_signed(space, slot_ops):
    """Global matrix of a product of per-leg operators with Koszul signs.

    slot_ops maps leg positions to (matrix, parity); omitted legs act as the
    identity.  The sign on a source basis vector is determined by the
    parities of the source components each operator factor moves past.
    """
    per_leg = []
    for s in range(space.nlegs()):
        if s in slot_ops:
            mat, _par = slot_ops[s]
            if not mat.nrows == mat.ncols == space.dims[s]:
                raise ValueError("leg dimension mismatch")
            per_leg.append([(i, j, v) for i, j, v in mat.entries()])
        else:
            per_leg.append([(i, i, None) for i in range(space.dims[s])])
    out = ExactMatrix(space.dim, space.dim)
    op_slots = sorted(slot_ops)
    for combo in product(*per_leg):
        rows = [c[0] for c in combo]
        cols = [c[1] for c in combo]
        coef = Fraction(1)
        for c in combo:
            if c[2] is not None:
                coef = coef * c[2]
        for s in op_slots:
            if slot_ops[s][1] and sum(space.legs[q][cols[q]] for q in range(s)) % 2:
                coef = -coef
        out.add_to(space.index(rows), space.index(cols), coef)
    return out
