"""Super vector spaces, Koszul signs and the two-dimensional weight modules.

Basis conventions.  Every space here is an ordered tensor product of small
"legs".  A leg is described by the parities of its basis vectors: the
standard leg is (0, 1), i.e. an even highest vector followed by its odd
image under the lowering generator; a trivial one-dimensional leg is (0,).
Global basis vectors are indexed lexicographically in the leg multi-index
(leftmost leg most significant), so on two standard legs the order is
11, 12, 21, 22.  Basis indices serialize as strings of leg digits ("1221").

Sign convention: (A (x) B)(v (x) w) = (-1)^{|B||v|} Av (x) Bw, extended to
any number of factors with the operator factor picking up the parities of
all vector factors it moves past.

SuperSpace states the leg rules, each once, on one basis index: `level`
counts the legs in their odd state, `flip` is the graded flip of two adjacent
legs and `leg_unit` the matrix unit E_ij on one leg with its Koszul sign.  No
other module reads the legs.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import permutations, product
from typing import Sequence

from .chain import Weight
from . import linalg

EVEN, ODD = 0, 1


class SuperSpace:
    """Ordered tensor product of legs with fixed basis parities.

    An immutable value, so tensor_power shares one space per n.
    """

    __slots__ = ("legs", "dims", "dim", "multis", "levels", "parities")

    def __init__(self, legs: Sequence[Sequence[int]]):
        self.legs = tuple(tuple(leg) for leg in legs)
        self.dims = tuple(len(leg) for leg in self.legs)
        self.multis = tuple(product(*[range(d) for d in self.dims]))
        self.dim = len(self.multis)
        self.levels = tuple(sum(leg[i] for leg, i in zip(self.legs, multi)) for multi in self.multis)
        self.parities = tuple(lv % 2 for lv in self.levels)

    @staticmethod
    @functools.cache
    def tensor_power(n: int) -> "SuperSpace":
        """n standard legs; memoised per n."""
        return SuperSpace([(EVEN, ODD)] * n)

    def nlegs(self) -> int:
        return len(self.legs)

    def index(self, multi: Sequence[int]) -> int:
        idx = 0
        for d, i in zip(self.dims, multi):
            idx = idx * d + i
        return idx

    def multi_index(self, idx: int) -> tuple[int, ...]:
        return self.multis[idx]

    def parity(self, idx: int) -> int:
        return self.parities[idx]

    def level(self, idx: int) -> int:
        """Number of legs in their odd state at basis index idx."""
        return self.levels[idx]

    def flip(self, idx: int, i: int) -> tuple[int, int]:
        """Graded flip of legs i and i+1 on basis index idx: (image, sign), -1 when both states are odd."""
        multi = list(self.multis[idx])
        a, b = multi[i], multi[i + 1]
        multi[i], multi[i + 1] = b, a
        return self.index(multi), -1 if self.legs[i][a] and self.legs[i + 1][b] else 1

    def leg_unit(self, idx: int, s: int, i: int, j: int) -> "tuple[int, int] | None":
        """E_ij (1-based) on leg s at basis index idx: (image, sign), or None when it kills idx.

        The sign is -1 when E_ij is odd and the legs before s are in an odd state in total.
        """
        multi = list(self.multis[idx])
        leg = self.legs[s]
        if multi[s] != j - 1 or i > len(leg):
            return None
        passed = sum(self.legs[q][multi[q]] for q in range(s)) if leg[i - 1] != leg[j - 1] else 0
        multi[s] = i - 1
        return self.index(multi), -1 if passed % 2 else 1

    def concat(self, other: "SuperSpace") -> "SuperSpace":
        return SuperSpace(self.legs + other.legs)


def kron_signed(
    space: SuperSpace,
    slot_ops: "dict[int, tuple[linalg.ExactMatrix, int]]",
) -> linalg.ExactMatrix:
    """Global matrix of a product of per-leg operators with Koszul signs.

    slot_ops maps leg positions to (matrix, parity); omitted legs act as the
    identity.  The sign on a source basis vector is determined by the
    parities of the source components each operator factor moves past.
    """
    nlegs = space.nlegs()
    per_leg: list[list[tuple[int, int, object]]] = []
    for s in range(nlegs):
        if s in slot_ops:
            mat, _par = slot_ops[s]
            if not mat.nrows == mat.ncols == space.dims[s]:
                raise ValueError("leg dimension mismatch")
            per_leg.append([(i, j, v) for i, j, v in mat.entries()])
        else:
            per_leg.append([(i, i, None) for i in range(space.dims[s])])
    out = linalg.ExactMatrix(space.dim, space.dim)
    op_slots = sorted(slot_ops)
    for combo in product(*per_leg):
        rows = [c[0] for c in combo]
        cols = [c[1] for c in combo]
        coef = Fraction(1)
        for c in combo:
            if c[2] is not None:
                coef = coef * c[2]
        for s in op_slots:
            par = slot_ops[s][1]
            if par:
                passed = sum(space.legs[q][cols[q]] for q in range(s)) % 2
                if passed:
                    coef = -coef
        out.add_to(space.index(rows), space.index(cols), coef)
    return out


def e_matrix(i: int, j: int, dim: int = 2) -> linalg.ExactMatrix:
    """Matrix unit E_ij on a single leg (1-based indices)."""
    m = linalg.ExactMatrix(dim, dim)
    m.put(i - 1, j - 1, Fraction(1))
    return m


E_PARITY = {(1, 1): EVEN, (1, 2): ODD, (2, 1): ODD, (2, 2): EVEN}


def leg_generator(wt: Weight, i: int, j: int) -> linalg.ExactMatrix:
    """Action of e_ij on the two-dimensional module of highest weight wt.

    Basis: highest vector, then its image under e_21.  A degenerate weight
    (0, 0) yields the trivial one-dimensional leg with zero action.
    """
    if not wt.is_nondegenerate():
        if (wt.l1, wt.l2) != (0, 0):
            raise ValueError("degenerate nonzero weight has no polynomial module")
        return linalg.ExactMatrix(1, 1)
    m = linalg.ExactMatrix(2, 2)
    if (i, j) == (1, 1):
        m.put(0, 0, wt.l1)
        m.put(1, 1, wt.l1 - 1)
    elif (i, j) == (2, 2):
        m.put(0, 0, wt.l2)
        m.put(1, 1, wt.l2 + 1)
    elif (i, j) == (2, 1):
        m.put(1, 0, Fraction(1))
    else:
        m.put(0, 1, wt.l1 + wt.l2)
    return m


def gl_generator(space: SuperSpace, leg_weights: Sequence[Weight], i: int, j: int) -> linalg.ExactMatrix:
    """Diagonal action of e_ij on a tensor product of weight modules."""
    if len(leg_weights) != space.nlegs():
        raise ValueError(f"{len(leg_weights)} leg weights for {space.nlegs()} legs")
    total = linalg.ExactMatrix(space.dim, space.dim)
    par = E_PARITY[(i, j)]
    for s, wt in enumerate(leg_weights):
        total = total + kron_signed(space, {s: (leg_generator(wt, i, j), par)})
    return total


def basis_weights(space: SuperSpace, leg_weights: Sequence[Weight]) -> list[Weight]:
    """Weight of each basis vector: the sum of the leg weights minus level * (1, -1)."""
    l1 = sum((wt.l1 for wt in leg_weights), Fraction(0))
    l2 = sum((wt.l2 for wt in leg_weights), Fraction(0))
    return [Weight(l1 - lv, l2 + lv) for lv in space.levels]


def weight_spaces(space: SuperSpace, leg_weights: Sequence[Weight]) -> list[tuple[Weight, list[int]]]:
    """Weight decomposition as (weight, basis index list), dims summing to total.

    The diagonal generators are diagonal in the tensor basis for every module
    built here; a non-diagonal action is rejected.
    """
    for gen in ((1, 1), (2, 2)):
        m = gl_generator(space, list(leg_weights), *gen)
        if any(i != j for i, j, _ in m.entries()):
            raise ValueError("diagonal generators do not act diagonalizably")
    buckets: dict[tuple[Fraction, Fraction], list[int]] = {}
    for idx, wt in enumerate(basis_weights(space, leg_weights)):
        buckets.setdefault((wt.l1, wt.l2), []).append(idx)
    out = [(Weight(k[0], k[1]), v) for k, v in buckets.items()]
    out.sort(key=lambda item: (-item[0].l1, item[0].l2))
    return out


def singular_subspace(
    space: SuperSpace, leg_weights: Sequence[Weight], weight: Weight
) -> list[list[Fraction]]:
    """Basis of ker(e_12) inside the given weight space, as global vectors."""
    idxs = [
        i
        for i, wt in enumerate(basis_weights(space, leg_weights))
        if (wt.l1, wt.l2) == (weight.l1, weight.l2)
    ]
    if not idxs:
        return []
    e12 = gl_generator(space, list(leg_weights), 1, 2)
    block = e12.submatrix(list(range(space.dim)), idxs)
    basis = []
    for vec in block.kernel():
        full = [Fraction(0)] * space.dim
        for local, v in enumerate(vec):
            full[idxs[local]] = v
        basis.append(full)
    return basis


def symmetric_group_action(space: SuperSpace) -> dict[tuple[int, ...], linalg.ExactMatrix]:
    """Matrices of all permutations of the legs of a tensor power, with Koszul signs.

    Keys are permutation tuples p: the state of leg i moves to leg p[i], with
    sign -1 to the number of pairs of odd states whose order p reverses.  No
    module of the package calls it: the symmetrizers have a closed form in
    fusion.py.  It stays as a named target of the per-layer benchmark.
    """
    n = space.nlegs()
    out = {}
    for perm in permutations(range(n)):
        out[perm] = mat = linalg.ExactMatrix(space.dim, space.dim)
        for idx, multi in enumerate(space.multis):
            odd = [i for i in range(n) if space.legs[i][multi[i]]]
            image = space.index([multi[perm.index(i)] for i in range(n)])
            mat.put(image, idx, Fraction(-1) ** sum(perm[a] > perm[b] for a in odd for b in odd if a < b))
    return out


def kron_signed_adjacent_flip(space: SuperSpace, i: int) -> linalg.ExactMatrix:
    """Graded flip of legs i and i+1 inside a tensor power of standard legs."""
    out = linalg.ExactMatrix(space.dim, space.dim)
    for idx in range(space.dim):
        image, sign = space.flip(idx, i)
        out.add_to(image, idx, Fraction(sign))
    return out
