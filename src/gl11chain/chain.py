"""The chain layer: weights, chain specs, the vacuum polynomials and cyclicity.

A chain is a ModuleSpec: polynomial non-degenerate weights, rational
evaluation points and an invertible diagonal twist.  Its vacuum polynomials
phi and psi, whose combination gamma = q1 phi - q2 psi labels the
eigenvectors by its monic divisors, and the cyclicity condition
b_j != b_i + l2_i + l1_j (i < j) are read off the chain's vacuum roots.

This module imports only the leaf module rational on load.  It loads
exactnum on first use of a `Poly` (`phi_psi`, `normalizer`), so
`random-spec` runs it without the polynomial layer: `screen_candidate`
decides cyclicity and the split of gamma on the integer vacuum root pairs
of a drawn (weights, points, twist), before any spec is built.

Spec files are JSON with fields
  weights = [[l1, l2], ...]   (nonnegative integers)
  points  = ["p/q", ...]
  twist   = ["q1", "q2"]
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import exactnum  # lazy: loads on first use of exactnum.Poly
from .rational import format_scalar, primitive, rational_roots, root_pair_product, scalar


class Weight:
    """A pair (l1, l2); the diagonal generators act by l1 and l2.

    A value: immutable, compared and hashed by (l1, l2), and shown as
    `Weight(l1=..., l2=...)`.  Both entries are coerced to Fraction; the
    checks read their integer numerators and denominators.
    """

    __slots__ = ("l1", "l2")

    def __init__(self, l1, l2):
        object.__setattr__(self, "l1", scalar(l1))
        object.__setattr__(self, "l2", scalar(l2))

    def __setattr__(self, name, value):
        raise AttributeError(f"Weight is immutable: cannot assign {name!r}")

    def __eq__(self, other):
        if other.__class__ is not Weight:
            return NotImplemented
        return (self.l1, self.l2) == (other.l1, other.l2)

    def __hash__(self):
        return hash((self.l1, self.l2))

    def __repr__(self):
        return f"Weight(l1={self.l1!r}, l2={self.l2!r})"

    def is_nondegenerate(self) -> bool:
        """l1 + l2 != 0, read off the integer numerator n1 d2 + n2 d1 of the sum."""
        l1, l2 = self.l1, self.l2
        return l1.numerator * l2.denominator + l2.numerator * l1.denominator != 0

    def is_polynomial(self) -> bool:
        """Integers l1 >= 0, l2 >= 0 with l1 > 0 unless l2 = 0."""
        l1, l2 = self.l1, self.l2
        if l1.denominator != 1 or l2.denominator != 1:
            return False
        a, b = l1.numerator, l2.numerator
        return a >= 0 and b >= 0 and (a > 0 or b == 0)

    def __iter__(self):
        return iter((self.l1, self.l2))

    def to_strings(self) -> list[str]:
        return [format_scalar(self.l1), format_scalar(self.l2)]


def _weight_text(wt: Weight) -> str:
    return "(" + ", ".join(wt.to_strings()) + ")"


class ModuleSpec:
    """Weights, evaluation points and twist defining the physical chain.

    A value and a functools.cache key: immutable, compared and hashed by its
    three tuples.  The hash and the vacuum roots are computed on first use
    and kept in slots, so a spec that is never hashed or screened never
    computes them.  Its repr, `ModuleSpec(weights=..., points=..., twist=...)`,
    names the chain.
    """

    __slots__ = ("weights", "points", "twist", "_hash", "_vacuum")

    def __init__(self, weights, points, twist):
        object.__setattr__(self, "weights", tuple(weights))
        object.__setattr__(self, "points", tuple(scalar(b) for b in points))
        object.__setattr__(self, "twist", tuple(scalar(q) for q in twist))
        if len(self.weights) != len(self.points):
            raise ValueError("weights and points must have equal length")
        if not self.weights:
            raise ValueError("empty chain")
        for wt in self.weights:
            if not wt.is_polynomial():
                raise ValueError(f"weight {_weight_text(wt)} is not polynomial")
            if not wt.is_nondegenerate():
                raise ValueError(f"weight {_weight_text(wt)} is degenerate")
        q1, q2 = self.twist
        if q1 == 0 or q2 == 0:
            raise ValueError("twist entries must be nonzero")

    def __setattr__(self, name, value):
        raise AttributeError(f"ModuleSpec is immutable: cannot assign {name!r}")

    def __eq__(self, other):
        if other.__class__ is not ModuleSpec:
            return NotImplemented
        return (self.weights, self.points, self.twist) == (other.weights, other.points, other.twist)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.weights, self.points, self.twist))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self):
        return f"ModuleSpec(weights={self.weights!r}, points={self.points!r}, twist={self.twist!r})"

    @property
    def k(self) -> int:
        return len(self.weights)

    @property
    def n(self) -> Fraction:
        """Total weight; the weights are integers, checked on construction."""
        return Fraction(sum(wt.l1.numerator + wt.l2.numerator for wt in self.weights))

    def space(self) -> "SuperSpace":
        # imported here, so the chain layer does not load superlin and linalg
        from .superlin import SuperSpace

        return SuperSpace.tensor_power(self.k)

    def normalizer(self) -> "exactnum.Poly":
        return exactnum.Poly.from_roots(self.points)

    def is_twisted(self) -> bool:
        return self.twist[0] != self.twist[1]

    def replace_twist(self, twist) -> "ModuleSpec":
        return ModuleSpec(self.weights, self.points, (scalar(twist[0]), scalar(twist[1])))

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "weights": [[int(wt.l1), int(wt.l2)] for wt in self.weights],
            "points": [format_scalar(b) for b in self.points],
            "twist": [format_scalar(q) for q in self.twist],
        }

    @staticmethod
    def from_dict(d: dict) -> "ModuleSpec":
        """Parse a chain-file object; a malformed one raises ValueError."""
        if not isinstance(d, dict):
            raise ValueError("chain file must be a JSON object")
        missing = [key for key in ("weights", "points", "twist") if key not in d]
        if missing:
            raise ValueError(f"chain file lacks the key(s) {', '.join(missing)}")
        weights, points, twist = d["weights"], d["points"], d["twist"]
        if not all(isinstance(v, list) for v in (weights, points, twist)):
            raise ValueError("weights, points and twist must be lists")
        for w in weights:
            if not (isinstance(w, list) and len(w) == 2 and all(type(a) is int for a in w)):
                raise ValueError(f"each weight must be a pair of integers, got {w!r}")
        for v in points + twist:
            if type(v) is not int and not isinstance(v, str):
                raise ValueError(f'points and twist entries must be integers or "p/q" strings, got {v!r}')
        if len(twist) != 2:
            raise ValueError(f"twist must have exactly two entries, got {len(twist)}")
        return make_spec(weights, points, twist)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @staticmethod
    def from_json(text: str) -> "ModuleSpec":
        return ModuleSpec.from_dict(json.loads(text))

    @staticmethod
    def from_file(path) -> "ModuleSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return ModuleSpec.from_json(fh.read())


def make_spec(weights, points, twist=(1, 1)) -> ModuleSpec:
    """Convenience constructor from plain ints/strings; Weight and ModuleSpec coerce them."""
    return ModuleSpec(tuple(Weight(a, b) for a, b in weights), points, (twist[0], twist[1]))


def _root_pairs(sites) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
    """Roots b - l1 of phi and b + l2 of psi, in site order, as (numerator, denominator) pairs.

    `sites` yields (l1, l2, b) with l1, l2 ints and b an int or Fraction.
    With b = p/q in lowest terms the roots are (p - l1 q)/q and (p + l2 q)/q,
    and both pairs are in lowest terms: gcd(p - l1 q, q) = gcd(p + l2 q, q) =
    gcd(p, q) = 1.  So two roots are equal exactly when their pairs are.
    """
    phi_roots, psi_roots = [], []
    for l1, l2, b in sites:
        p, q = b.numerator, b.denominator
        phi_roots.append((p - l1 * q, q))
        psi_roots.append((p + l2 * q, q))
    return tuple(phi_roots), tuple(psi_roots)


def _vacuum_roots(spec: ModuleSpec) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
    """The chain's `_root_pairs`; the weights are integers, checked on construction.

    Computed once per chain and kept in a slot of the spec.
    """
    try:
        return spec._vacuum
    except AttributeError:
        roots = _root_pairs((wt.l1.numerator, wt.l2.numerator, b) for wt, b in zip(spec.weights, spec.points))
        object.__setattr__(spec, "_vacuum", roots)
        return roots


def _is_cyclic(phi_roots, psi_roots) -> bool:
    """No psi root of a site equal to the phi root of a later site: b_j != b_i + l2_i + l1_j for i < j."""
    return not any(phi_roots[j] in psi_roots[:j] for j in range(1, len(phi_roots)))


def phi_psi(spec: ModuleSpec) -> "tuple[exactnum.Poly, exactnum.Poly]":
    """The two vacuum polynomials prod(x - b_s + l1) and prod(x - b_s - l2)."""
    phi_roots, psi_roots = _vacuum_roots(spec)
    return exactnum.Poly.from_root_pairs(phi_roots), exactnum.Poly.from_root_pairs(psi_roots)


def cyclicity_and_irreducibility(spec: ModuleSpec) -> tuple[bool, bool]:
    """(cyclic, irreducible) from the arithmetic conditions on the points.

    Irreducible means gcd(phi, psi) = 1.  Both are products of known linear
    factors (see phi_psi), with roots b_s - l1_s and b_s + l2_s, so they are
    coprime exactly when the two root sets are disjoint.  Cyclic means no
    b_j = b_i + l2_i + l1_j with i < j, that is no psi root of a site equal
    to the phi root of a later site.
    """
    phi_roots, psi_roots = _vacuum_roots(spec)
    return _is_cyclic(phi_roots, psi_roots), set(phi_roots).isdisjoint(psi_roots)


def gamma_splits(phi_roots, psi_roots, twist) -> bool:
    """Whether gamma = q1 phi - q2 psi splits over Q, by the split test on its primitive integer form.

    A site's phi and psi roots share their denominator q, so both
    `root_pair_product`s come over the same positive D.  With q1 = a1/b1
    and q2 = a2/b2, a1 b2 (D phi) - a2 b1 (D psi) is D b1 b2 gamma, a
    positive multiple, so its primitive form is that of gamma, sign
    included.  gamma is nonzero on polynomial nondegenerate weights (l1 >= 1
    at every site): for q1 = q2 its x^(k-1) coefficient is q1 sum(l1 + l2).
    Raises RootSearchTooLarge as `rational_roots` does.
    """
    q1, q2 = twist
    a = q1.numerator * q2.denominator
    b = q2.numerator * q1.denominator
    phi, _ = root_pair_product(phi_roots)
    psi, _ = root_pair_product(psi_roots)
    ints = [a * x - b * y for x, y in zip(phi, psi)]
    while not ints[-1]:
        ints.pop()
    return rational_roots(primitive(ints)) is not None


def screen_candidate(weights, points, twist, split: bool) -> bool:
    """Whether `random-spec` keeps a drawn chain: cyclic and, under `split`, gamma splits over Q.

    `weights` are (l1, l2) int pairs, `points` ints or Fractions and
    `twist` two nonzero ints or Fractions; nothing is validated or built,
    so a kept candidate still goes through `make_spec`.  The verdicts are
    those of `cyclicity_and_irreducibility(spec)[0]` and of
    `roots_with_multiplicity(q1 phi - q2 psi) is not None` on its spec.
    """
    phi_roots, psi_roots = _root_pairs((l1, l2, b) for (l1, l2), b in zip(weights, points))
    return _is_cyclic(phi_roots, psi_roots) and (not split or gamma_splits(phi_roots, psi_roots, twist))
