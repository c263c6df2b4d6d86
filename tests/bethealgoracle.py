"""The B-route to the Bethe algebra of a level (test oracle).

`reduce_lambda2` shifts every second weight component to zero and
`string_points` reads the point strings of the reduced chain.  `b_operators`
expands astr(x) * That_Q(x) / (N(x) x^n) at infinity on the full chain
module, reads B_1..B_n off its x^-1..x^-n coefficients and restricts them to
the level subspace; `divisor_character` expands astr * eigenvalue the same
way, and `b_spaces` solves the joint spaces of the B's at those characters.
`generated_algebra` closes the identity and the B's under products.  The
package builds no B: its Bethe algebra is generated by the level's transfer
coefficients C_0..C_k, and its spaces are the C's; this route shares neither
step.
"""

from fractions import Fraction

from gl11chain.bethe import char_pair, eigenvalue_pencil, level_subspace, restrict_operators
from gl11chain.chain import ModuleSpec, Weight
from gl11chain.exactnum import Poly, RatFun
from gl11chain.linalg import ExactMatrix, SpanBasis, joint_generalized_eigenspaces
from gl11chain.monodromy import chain_transfer_pencil
from coefforacle import laurent_coefficients, laurent_expand


def reduce_lambda2(spec: ModuleSpec) -> tuple[ModuleSpec, RatFun]:
    """Shift all weight second components to zero; returns the twist series.

    The reduced chain has weights (l1 + l2, 0) at points b + l2; the two
    normalized pencils coincide entrywise, so the reduced transfer matrix
    equals xi(x) times the original one with
    xi = prod (x - b_s) / (x - b_s - l2^(s)).
    """
    new_weights = tuple(Weight(wt.l1 + wt.l2, 0) for wt in spec.weights)
    new_points = tuple(b + wt.l2 for wt, b in zip(spec.weights, spec.points))
    num = Poly.from_roots(spec.points)
    den = Poly.from_roots(new_points)
    return ModuleSpec(new_weights, new_points, spec.twist), RatFun(num, den)


def string_points(spec: ModuleSpec) -> tuple[Fraction, ...]:
    """Union of the point strings {b_s, ..., b_s - l1 + 1}, sorted descending.

    Requires the reduced (l2 = 0) form; apply reduce_lambda2 first.
    """
    if any(wt.l2 != 0 for wt in spec.weights):
        raise ValueError("string points require the reduced l2=0 form")
    pts = []
    for wt, b in zip(spec.weights, spec.points):
        pts.extend(b - i for i in range(int(wt.l1)))
    return tuple(sorted(pts, reverse=True))


def _denominator(spec: ModuleSpec, n: int) -> Poly:
    return spec.normalizer() * Poly([0] * n + [1])


def b_operators(spec: ModuleSpec, level: int) -> list:
    """B_1..B_n expanded on the full module, then restricted to the level subspace."""
    strings = string_points(reduce_lambda2(spec)[0])
    n = len(strings)
    bmats = laurent_coefficients(chain_transfer_pencil(spec), Poly.from_roots(strings), _denominator(spec, n), n)
    ops, _ = restrict_operators([m.transpose().rows for m in bmats[1:]], level_subspace(spec, level))
    return ops


def divisor_character(spec: ModuleSpec, dv) -> list[Fraction]:
    """Values of B_1..B_n on the eigenvector indexed by dv."""
    strings = string_points(reduce_lambda2(spec)[0])
    n = len(strings)
    num = Poly.from_roots(strings) * eigenvalue_pencil(dv, spec)
    return laurent_expand(RatFun(num, _denominator(spec, n)), n)[1:]


def b_spaces(spec: ModuleSpec, level: int) -> list:
    """Joint (eigen, generalized) spaces of the B's at each level divisor's character."""
    chars = [divisor_character(spec, dv) for dv in char_pair(spec).divisors[level]]
    return joint_generalized_eigenspaces(b_operators(spec, level), chars)


def generated_algebra(ops: list, dim: int) -> list:
    """A matrix basis of the unital algebra the operators generate: words in them, longest last."""
    span, basis = SpanBasis(), []
    words = [ExactMatrix.identity(dim)]
    while words:
        fresh = [w for w in words if span.add({i * dim + j: v for i, j, v in w.entries()})]
        basis += fresh
        words = [w @ op for w in fresh for op in ops]
    return basis
