"""Test oracles: the symmetric group built from its adjacent transpositions.

`permutation_closure` multiplies out every word in the matrices of s_1 ..
s_{n-1}, breadth first, and `group_average_symmetrizers` averages the graded
flips over the whole of S_m, signed or not.  This is how the package built
A_m and H_m before their closed form; it is kept here as the independent
route the closed form is checked against.
"""

from fractions import Fraction
from typing import Sequence

from gl11chain.linalg import ExactMatrix
from gl11chain.superlin import SuperSpace, graded_flip


def permutation_closure(adjacent: Sequence[ExactMatrix], dim: int) -> dict[tuple[int, ...], ExactMatrix]:
    """All products of the matrices of the adjacent transpositions s_1 .. s_{n-1}.

    Keys are permutation tuples p with p[i] = image of position i.  With no
    generators the group is trivial (n = 1).
    """
    n = len(adjacent) + 1
    gens = []
    for i, m in enumerate(adjacent):
        p = list(range(n))
        p[i], p[i + 1] = p[i + 1], p[i]
        gens.append((tuple(p), m))
    ident = tuple(range(n))
    action = {ident: ExactMatrix.identity(dim)}
    frontier = [ident]
    while frontier:
        nxt = []
        for sigma in frontier:
            msig = action[sigma]
            for gp, gm in gens:
                # compose: apply the generator first, then sigma
                tau = tuple(sigma[gp[i]] for i in range(n))
                if tau not in action:
                    action[tau] = msig @ gm
                    nxt.append(tau)
        frontier = nxt
    return action


def permutation_sign(perm: Sequence[int]) -> int:
    """(-1) to the number of even-length cycles."""
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def group_average_symmetrizers(m: int) -> tuple[ExactMatrix, ExactMatrix]:
    """(A_m, H_m) as the signed and the plain average of the graded flips' group."""
    space = SuperSpace.tensor_power(m)
    action = permutation_closure([graded_flip(space, i, i + 1) for i in range(m - 1)], space.dim)
    a = h = ExactMatrix(space.dim, space.dim)
    for perm, mat in action.items():
        h = h + mat
        a = a + mat * permutation_sign(perm)
    return a * Fraction(1, len(action)), h * Fraction(1, len(action))
