"""Super vector spaces, Koszul signs and the two-dimensional weight modules.

Basis conventions.  Every space here is a tensor power of the standard leg:
the module of a nondegenerate weight, an even highest vector (state 0)
followed by its odd image under the lowering generator (state 1), so a leg's
state is its parity.  A basis index is the binary number of the leg states,
leg 0 the most significant bit, so on two legs the order is 11, 12, 21, 22.
Basis indices serialize as strings of leg digits ("1221").

Sign convention: (A (x) B)(v (x) w) = (-1)^{|B||v|} Av (x) Bw, extended to
any number of factors with the operator factor picking up the parities of
all vector factors it moves past.

SuperSpace states the leg rules, each once, on the bits of one basis index:
`level` counts the legs in their odd state, `flip` is the graded flip of two
adjacent legs and `leg_unit` the matrix unit E_ij on one leg with its Koszul
sign, the one statement of the rule above.  Every signed leg operator of the
package, a sum of products of matrix units on chosen legs, is built from
`leg_unit`: `leg_units` for one product, `gl_generator` for the diagonal
action.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import permutations
from typing import Sequence

from .chain import Weight
from . import linalg

EVEN, ODD = 0, 1


class SuperSpace:
    """The n-fold tensor power of the standard leg.

    An immutable value, so tensor_power shares one space per n.
    """

    __slots__ = ("n", "dim", "levels", "parities")

    def __init__(self, n: int):
        self.n = n
        self.dim = 1 << n
        self.levels = tuple(idx.bit_count() for idx in range(self.dim))
        self.parities = tuple(lv % 2 for lv in self.levels)

    @staticmethod
    @functools.cache
    def tensor_power(n: int) -> "SuperSpace":
        """n standard legs; memoised per n."""
        return SuperSpace(n)

    def index(self, multi: Sequence[int]) -> int:
        idx = 0
        for state in multi:
            idx = idx * 2 + state
        return idx

    def multi_index(self, idx: int) -> tuple[int, ...]:
        """The leg states at basis index idx, leg 0 first."""
        return tuple(idx >> bit & 1 for bit in range(self.n - 1, -1, -1))

    def parity(self, idx: int) -> int:
        return self.parities[idx]

    def level(self, idx: int) -> int:
        """Number of legs in their odd state at basis index idx."""
        return self.levels[idx]

    def flip(self, idx: int, i: int) -> tuple[int, int]:
        """Graded flip of legs i and i+1 on basis index idx: (image, sign), -1 when both states are odd."""
        low = self.n - 2 - i
        pair = idx >> low & 3
        if pair in (1, 2):
            return idx ^ 3 << low, 1
        return idx, -1 if pair == 3 else 1

    def leg_unit(self, idx: int, s: int, i: int, j: int) -> "tuple[int, int] | None":
        """E_ij (1-based) on leg s at basis index idx: (image, sign), or None when it kills idx.

        The sign is -1 when E_ij is odd and the legs before s are in an odd state in total.
        """
        bit = self.n - 1 - s
        if idx >> bit & 1 != j - 1:
            return None
        if i == j:
            return idx, 1
        return idx ^ 1 << bit, -1 if (idx >> bit + 1).bit_count() % 2 else 1

    def concat(self, other: "SuperSpace") -> "SuperSpace":
        return SuperSpace.tensor_power(self.n + other.n)


def leg_units(space: SuperSpace, units: Sequence[tuple[int, int, int]], coef) -> linalg.ExactMatrix:
    """coef times the product of the units E_ij on distinct legs, each unit given as (leg, i, j).

    The units act from the highest leg down, so each leg_unit sign reads the
    source states of the legs before it: (A (x) B)(v (x) w) = (-1)^{|B||v|} Av (x) Bw.
    """
    units = sorted(units, reverse=True)
    out = linalg.ExactMatrix(space.dim, space.dim)
    for idx in range(space.dim):
        image, sign = idx, 1
        for s, i, j in units:
            hit = space.leg_unit(image, s, i, j)
            if hit is None:
                break
            image, sign = hit[0], sign * hit[1]
        else:
            out.put(image, idx, coef if sign > 0 else -coef)
    return out


E_PARITY = {(1, 1): EVEN, (1, 2): ODD, (2, 1): ODD, (2, 2): EVEN}


def leg_generator(wt: Weight, i: int, j: int) -> linalg.ExactMatrix:
    """Action of e_ij on the two-dimensional module of the nondegenerate highest weight wt.

    Basis: highest vector, then its image under e_21.
    """
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
    """Diagonal action of e_ij on a tensor product of weight modules: leg_generator's entries on every leg.

    Memoised per (legs, weights, i, j): the matrix is shared and must not be mutated.
    """
    return _gl_generator(space, tuple(leg_weights), i, j)


@functools.cache
def _gl_generator(space: SuperSpace, leg_weights: tuple[Weight, ...], i: int, j: int) -> linalg.ExactMatrix:
    if len(leg_weights) != space.n:
        raise ValueError(f"{len(leg_weights)} leg weights for {space.n} legs")
    total = linalg.ExactMatrix(space.dim, space.dim)
    for s, wt in enumerate(leg_weights):
        for a, b, v in leg_generator(wt, i, j).entries():
            total = total + leg_units(space, ((s, a + 1, b + 1),), v)
    return total


def level_weight(leg_weights: Sequence[Weight], level: int) -> Weight:
    """Weight of the basis vectors with `level` odd legs: the sum of the leg weights minus level * (1, -1)."""
    l1 = sum((wt.l1 for wt in leg_weights), Fraction(0))
    l2 = sum((wt.l2 for wt in leg_weights), Fraction(0))
    return Weight(l1 - level, l2 + level)


def weight_spaces(space: SuperSpace, leg_weights: Sequence[Weight]) -> list[tuple[Weight, list[int]]]:
    """Weight decomposition as (weight, basis index list), one entry per level, highest weight first."""
    buckets: dict[int, list[int]] = {}
    for idx, lv in enumerate(space.levels):
        buckets.setdefault(lv, []).append(idx)
    return [(level_weight(leg_weights, lv), idxs) for lv, idxs in sorted(buckets.items())]


def singular_subspace(space: SuperSpace, leg_weights: Sequence[Weight], idxs: Sequence[int]) -> list[dict]:
    """Basis of ker(e_12) inside the span of the basis vectors at idxs (increasing), as global vectors.

    It stays in coordinate form, as ExactMatrix.kernel gives it.
    """
    if not idxs:
        return []
    e12 = gl_generator(space, leg_weights, 1, 2)
    block = e12.submatrix(list(range(space.dim)), idxs)
    return [{idxs[j]: v for j, v in vec.items()} for vec in block.kernel()]


def symmetric_group_action(space: SuperSpace) -> dict[tuple[int, ...], linalg.ExactMatrix]:
    """Matrices of all permutations of the legs of a tensor power, with Koszul signs.

    Keys are permutation tuples p: the state of leg i moves to leg p[i], with
    sign -1 to the number of pairs of odd states whose order p reverses.  No
    module of the package calls it: the symmetrizers have a closed form in
    fusion.py.  It stays as a named target of the per-layer benchmark.
    """
    n = space.n
    out = {}
    for perm in permutations(range(n)):
        out[perm] = mat = linalg.ExactMatrix(space.dim, space.dim)
        for idx in range(space.dim):
            multi = space.multi_index(idx)
            odd = [i for i in range(n) if multi[i]]
            image = space.index([multi[perm.index(i)] for i in range(n)])
            mat.put(image, idx, Fraction(-1) ** sum(perm[a] > perm[b] for a in odd for b in odd if a < b))
    return out


def adjacent_flip(space: SuperSpace, i: int) -> linalg.ExactMatrix:
    """Graded flip of legs i and i+1 inside a tensor power of standard legs."""
    out = linalg.ExactMatrix(space.dim, space.dim)
    for idx in range(space.dim):
        image, sign = space.flip(idx, i)
        out.add_to(image, idx, Fraction(sign))
    return out
