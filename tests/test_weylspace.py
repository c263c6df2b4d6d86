from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl11chain.linalg import SpanBasis
from gl11chain.superlin import SuperSpace
from gl11chain.weylspace import (
    Coords,
    MPoly,
    character_series,
    check_sn_relations,
    current_action,
    current_model_checks,
    cyclicity_by_degree,
    gamma_commutes_with_modified,
    invariant_dimensions,
    modified_action,
    modified_invariant_basis,
    modified_invariant_basis_kernel,
    specialization_check,
)


def count_pairs_of_partitions(l, m, d):
    """Partitions into at most l parts times partitions into parts <= m."""
    def count(parts_max, total):
        if total == 0:
            return 1
        if parts_max == 0:
            return 0
        return sum(count(parts_max - 1, total - parts_max * j) for j in range(total // parts_max + 1))

    return sum(count(l, a) * count(m, d - a) for a in range(d + 1))


class TestMPoly:
    def test_divided_difference_exact(self):
        p = MPoly.var(2, 0, 2)  # z1^2
        dd = p.divided_difference(0)
        # (z1^2 - z2^2)/(z1 - z2) = z1 + z2
        assert dd == MPoly.var(2, 0) + MPoly.var(2, 1)

    def test_divided_difference_symmetric_kills(self):
        p = MPoly.var(2, 0) * MPoly.var(2, 1)
        assert p.divided_difference(0).is_zero()

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-5, 5)), max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_divided_difference_identity(self, terms):
        p = MPoly(2, {})
        for a, b, c in terms:
            p = p + MPoly(2, {(a, b): F(c)})
        dd = p.divided_difference(0)
        # (z1 - z2) * dd == p - p^swap
        recon = (MPoly.var(2, 0) - MPoly.var(2, 1)) * dd
        assert recon == p - p.swap(0, 1)


class TestModifiedAction:
    def test_constants_swap(self):
        sp = SuperSpace.tensor_power(2)
        f = {sp.index((0, 1)): MPoly.const(2, 1)}
        out = modified_action(sp, 0, f)
        assert out == {sp.index((1, 0)): MPoly.const(2, 1)}

    def test_polynomial_example(self):
        # z1 on the doubly-even vector maps to (z2 + 1) on it
        sp = SuperSpace.tensor_power(2)
        f = {0: MPoly.var(2, 0)}
        out = modified_action(sp, 0, f)
        assert out == {0: MPoly.var(2, 1) + MPoly.const(2, 1)}

    def test_involution_on_random_vectors(self):
        sp = SuperSpace.tensor_power(2)
        import random

        rng = random.Random(11)
        for _ in range(10):
            f = {}
            for c in range(4):
                terms = {}
                for _ in range(3):
                    e = (rng.randint(0, 3), rng.randint(0, 3))
                    terms[e] = F(rng.randint(-4, 4))
                f[c] = MPoly(2, terms)
            twice = modified_action(sp, 0, modified_action(sp, 0, f))
            crd = Coords.build(2, None, 8)
            assert crd.to_vector(twice) == crd.to_vector({c: p for c, p in f.items() if p})

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_relations(self, n):
        assert check_sn_relations(n, 3 if n < 4 else 2)


class TestInvariantDimensions:
    @pytest.mark.parametrize("n,l", [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2), (3, 3)])
    def test_match_series(self, n, l):
        d = 4
        assert invariant_dimensions(n, l, d, False) == character_series(n, l, d, False)

    @pytest.mark.parametrize("n,l", [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
    def test_singular_match_series(self, n, l):
        d = 4
        assert invariant_dimensions(n, l, d, True) == character_series(n, l, d, True)

    def test_frozen_values(self):
        assert invariant_dimensions(2, 1, 3, False) == [1, 2, 3, 4]
        assert invariant_dimensions(2, 1, 3, True) == [0, 1, 1, 2]

    def test_series_against_partition_oracle(self):
        # independent combinatorial expansion of the plain character
        for n, l in ((2, 1), (3, 1), (3, 2), (4, 2)):
            d = 4
            shift = l * (l - 1) // 2
            want = [
                count_pairs_of_partitions(l, n - l, deg - shift) if deg >= shift else 0
                for deg in range(d + 1)
            ]
            assert character_series(n, l, d, False) == want

    def test_level_zero_counts_partitions(self):
        # plain level-0 invariants are the symmetric polynomials
        def partitions_parts_atmost(m, total):
            if total == 0:
                return 1
            if m == 0:
                return 0
            return sum(partitions_parts_atmost(m - 1, total - m * j) for j in range(total // m + 1))

        n, d = 3, 4
        got = invariant_dimensions(n, 0, d, False)
        assert got == [partitions_parts_atmost(n, deg) for deg in range(d + 1)]

    def test_projector_basis_matches_kernel(self):
        for n, l, d in ((2, 1, 3), (3, 2, 3)):
            a = modified_invariant_basis(n, l, d)
            b = modified_invariant_basis_kernel(n, l, d)
            crd = Coords.build(n, l, d)
            span = SpanBasis(crd.dim)
            for w in b:
                span.add(crd.to_vector(w))
            assert len(a) == len(b)
            assert all(span.contains(crd.to_vector(w)) for w in a)


class TestCurrentModel:
    @pytest.mark.parametrize("n,l", [(2, 0), (2, 1), (3, 1), (3, 2)])
    def test_checks_pass(self, n, l):
        for c in current_model_checks(n, l, 3):
            assert c.ok, c.label

    def test_raising_lowering_scalar(self):
        # raise-lower plus lower-raise equals the site count on every vector
        n = 3
        sp = SuperSpace.tensor_power(n)
        f = {sp.index((0, 1, 0)): MPoly.var(n, 1)}
        a = current_action(sp, 1, 2, 0, current_action(sp, 2, 1, 0, f))
        b = current_action(sp, 2, 1, 0, current_action(sp, 1, 2, 0, f))
        crd = Coords.build(n, None, 2)
        got = [x + y for x, y in zip(crd.to_vector(a), crd.to_vector(b))]
        want = [x * n for x in crd.to_vector(f)]
        assert got == want


class TestGammaInteraction:
    def test_commutes_with_modified_action(self):
        assert gamma_commutes_with_modified(2, 2)

    def test_commutes_three_sites(self):
        assert gamma_commutes_with_modified(3, 2)

    def test_vacuum_generates(self):
        assert cyclicity_by_degree(2, 3)

    def test_vacuum_generates_three_sites(self):
        assert cyclicity_by_degree(3, 3)


class TestSpecialization:
    def test_trivial(self):
        assert specialization_check(1, [F(0)]).ok

    def test_two_sites(self):
        assert specialization_check(2, [F(1, 2), F(0)]).ok

    def test_ordering_rejected(self):
        res = specialization_check(2, [F(0), F(1)])
        assert not res.ok and "ordering" in res.detail

    def test_reordered_points_accepted(self):
        assert specialization_check(2, [F(1), F(0)]).ok
