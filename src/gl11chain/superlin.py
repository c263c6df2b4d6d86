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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

from .exactnum import format_scalar, scalar
from .linalg import ExactMatrix

EVEN, ODD = 0, 1


@dataclass(frozen=True)
class Weight:
    """A pair (l1, l2); the diagonal generators act by l1 and l2."""

    l1: Fraction
    l2: Fraction

    def __post_init__(self):
        object.__setattr__(self, "l1", scalar(self.l1))
        object.__setattr__(self, "l2", scalar(self.l2))

    def is_nondegenerate(self) -> bool:
        return self.l1 + self.l2 != 0

    def is_polynomial(self) -> bool:
        ok_int = self.l1.denominator == 1 and self.l2.denominator == 1
        return ok_int and self.l1 >= 0 and self.l2 >= 0 and (self.l1 > 0 or self.l2 == 0)

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(self.l1 + other.l1, self.l2 + other.l2)

    def __iter__(self):
        return iter((self.l1, self.l2))

    def to_strings(self) -> list[str]:
        return [format_scalar(self.l1), format_scalar(self.l2)]


class SuperSpace:
    """Ordered tensor product of legs with fixed basis parities."""

    __slots__ = ("legs", "dims", "parities", "dim")

    def __init__(self, legs: Sequence[Sequence[int]]):
        self.legs = tuple(tuple(leg) for leg in legs)
        self.dims = tuple(len(leg) for leg in self.legs)
        self.dim = 1
        for d in self.dims:
            self.dim *= d
        pars = []
        for multi in product(*[range(d) for d in self.dims]):
            pars.append(sum(self.legs[s][i] for s, i in enumerate(multi)) % 2)
        self.parities = tuple(pars)

    @staticmethod
    def standard_leg() -> tuple[int, int]:
        return (EVEN, ODD)

    @staticmethod
    def tensor_power(n: int) -> "SuperSpace":
        return SuperSpace([(EVEN, ODD)] * n)

    def nlegs(self) -> int:
        return len(self.legs)

    def index(self, multi: Sequence[int]) -> int:
        idx = 0
        for d, i in zip(self.dims, multi):
            idx = idx * d + i
        return idx

    def multi_index(self, idx: int) -> tuple[int, ...]:
        out = []
        for d in reversed(self.dims):
            out.append(idx % d)
            idx //= d
        return tuple(reversed(out))

    def parity(self, idx: int) -> int:
        return self.parities[idx]

    def basis_label(self, idx: int) -> str:
        """Bit-string label, digits 1/2 per standard leg."""
        return "".join(str(i + 1) for i in self.multi_index(idx))

    def concat(self, other: "SuperSpace") -> "SuperSpace":
        return SuperSpace(self.legs + other.legs)


def kron_signed(
    space: SuperSpace,
    slot_ops: "dict[int, tuple[ExactMatrix, int]]",
) -> ExactMatrix:
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
            assert mat.nrows == mat.ncols == space.dims[s], "leg dimension mismatch"
            per_leg.append([(i, j, v) for i, j, v in mat.entries()])
        else:
            per_leg.append([(i, i, None) for i in range(space.dims[s])])
    out = ExactMatrix(space.dim, space.dim)
    op_slots = sorted(slot_ops)
    for combo in product(*per_leg):
        rows = [c[0] for c in combo]
        cols = [c[1] for c in combo]
        val = Fraction(1)
        for c in combo:
            if c[2] is not None:
                val = val * c[2]
        sign = 1
        for s in op_slots:
            par = slot_ops[s][1]
            if par:
                passed = sum(space.legs[q][cols[q]] for q in range(s)) % 2
                if passed:
                    sign = -sign
        out.add_to(space.index(rows), space.index(cols), sign * val)
    return out


def e_matrix(i: int, j: int, dim: int = 2) -> ExactMatrix:
    """Matrix unit E_ij on a single leg (1-based indices)."""
    m = ExactMatrix(dim, dim)
    m.put(i - 1, j - 1, Fraction(1))
    return m


E_PARITY = {(1, 1): EVEN, (1, 2): ODD, (2, 1): ODD, (2, 2): EVEN}


def leg_generator(wt: Weight, i: int, j: int) -> ExactMatrix:
    """Action of e_ij on the two-dimensional module of highest weight wt.

    Basis: highest vector, then its image under e_21.  A degenerate weight
    (0, 0) yields the trivial one-dimensional leg with zero action.
    """
    if not wt.is_nondegenerate():
        if (wt.l1, wt.l2) != (0, 0):
            raise ValueError("degenerate nonzero weight has no polynomial module")
        return ExactMatrix(1, 1)
    m = ExactMatrix(2, 2)
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


def gl_generator(space: SuperSpace, leg_weights: Sequence[Weight], i: int, j: int) -> ExactMatrix:
    """Diagonal action of e_ij on a tensor product of weight modules."""
    assert len(leg_weights) == space.nlegs()
    total = ExactMatrix(space.dim, space.dim)
    par = E_PARITY[(i, j)]
    for s, wt in enumerate(leg_weights):
        total = total + kron_signed(space, {s: (leg_generator(wt, i, j), par)})
    return total


def basis_weights(space: SuperSpace, leg_weights: Sequence[Weight]) -> list[Weight]:
    out = []
    for idx in range(space.dim):
        multi = space.multi_index(idx)
        l1 = Fraction(0)
        l2 = Fraction(0)
        for s, comp in enumerate(multi):
            wt = leg_weights[s]
            if comp == 0:
                l1 += wt.l1
                l2 += wt.l2
            else:
                l1 += wt.l1 - 1
                l2 += wt.l2 + 1
        out.append(Weight(l1, l2))
    return out


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


def supertrace(m: ExactMatrix, space: SuperSpace):
    """Signed trace: diagonal entries weighted by (-1)^parity."""
    assert m.nrows == m.ncols == space.dim
    total = Fraction(0)
    for i in range(space.dim):
        v = m.get(i, i)
        if v:
            total = total + (v if space.parity(i) == EVEN else -v)
    return total


def partial_supertrace(m: ExactMatrix, aux: SuperSpace, rest_dim: int) -> ExactMatrix:
    """Supertrace over the leading aux factor of an even operator.

    Valid for globally even operators, where only even-even blocks hit the
    diagonal and the naive signed block sum is exact.
    """
    assert m.nrows == m.ncols == aux.dim * rest_dim
    out = ExactMatrix(rest_dim, rest_dim)
    for i, j, v in m.entries():
        a, r = divmod(i, rest_dim)
        b, c = divmod(j, rest_dim)
        if a == b:
            out.add_to(r, c, v if aux.parity(a) == EVEN else -v)
    return out


def supertranspose(m: ExactMatrix, space: SuperSpace) -> ExactMatrix:
    """(A^st)[i, j] = (-1)^{|i||j| + |j|} A[j, i] on basis parities."""
    out = ExactMatrix(m.ncols, m.nrows)
    for i, j, v in m.entries():
        pi, pj = space.parity(i), space.parity(j)
        sign = -1 if (pi * pj + pi) % 2 else 1
        out.put(j, i, sign * v)
    return out


def graded_flip() -> ExactMatrix:
    """The two-leg flip P: v (x) w -> (-1)^{|v||w|} w (x) v on standard legs."""
    space = SuperSpace([(EVEN, ODD), (EVEN, ODD)])
    out = ExactMatrix(space.dim, space.dim)
    for a in range(2):
        for b in range(2):
            src = space.index((a, b))
            dst = space.index((b, a))
            sign = -1 if (space.legs[0][a] and space.legs[1][b]) else 1
            out.put(dst, src, Fraction(sign))
    return out


def symmetric_group_action(space: SuperSpace) -> dict[tuple[int, ...], ExactMatrix]:
    """Matrices of all permutations acting by graded flips on a tensor power.

    Keys are permutation tuples p with p[i] = image of position i.  The map
    is a group homomorphism because the graded flips satisfy the braid and
    involution relations.
    """
    flips = [kron_signed_adjacent_flip(space, i) for i in range(space.nlegs() - 1)]
    return permutation_closure(flips, space.dim)


def permutation_closure(adjacent: Sequence[ExactMatrix], dim: int) -> dict[tuple[int, ...], ExactMatrix]:
    """All products of the matrices of the adjacent transpositions s_1 .. s_{n-1}.

    Breadth-first over words in the generators; keys as in
    symmetric_group_action.  With no generators the group is trivial (n = 1).
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
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def kron_signed_adjacent_flip(space: SuperSpace, i: int) -> ExactMatrix:
    """Graded flip of legs i and i+1 inside a tensor power of standard legs."""
    out = ExactMatrix(space.dim, space.dim)
    for idx in range(space.dim):
        multi = list(space.multi_index(idx))
        a, b = multi[i], multi[i + 1]
        multi[i], multi[i + 1] = b, a
        sign = -1 if (space.legs[i][a] and space.legs[i + 1][b]) else 1
        out.add_to(space.index(multi), idx, Fraction(sign))
    return out
