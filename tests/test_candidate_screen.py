"""The integer candidate screen against the loops it replaced.

`Poly.from_roots` multiplies integer factors (q x - p) and canonicalises
once, and the chain's vacuum roots are reduced integer pairs, from which
`phi_psi` builds both polynomials through the same integer product and
`cyclicity_and_irreducibility` reads both conditions.  The oracles are the
earlier code: a product of linear Poly factors, the factor-by-factor
phi/psi loop, the pairwise cyclicity loop and the screen on Fraction
vacuum roots; irreducibility is checked against its definition,
gcd(phi, psi) = 1.  The weight checks of every
candidate (`is_polynomial`, `is_nondegenerate`, the total weight `n`) read
integer numerators and denominators; their oracles are the Fraction checks
they replaced.

`random-spec` screens each drawn candidate with `screen_candidate`, on the
integer vacuum root pairs and the primitive integer form of gamma, and
builds a spec only for the chain it writes.  Its verdicts are checked
against `cyclicity_and_irreducibility` and `roots_with_multiplicity` on the
built spec, and its output over a seed table against the loop it replaced,
kept here as `random_spec_oracle`.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gl11chain.cli import main
from gl11chain.exactnum import Poly, RootSearchTooLarge, format_scalar, roots_with_multiplicity, scalar
from gl11chain.chain import (
    Weight,
    _vacuum_roots,
    cyclicity_and_irreducibility,
    gamma_splits,
    make_spec,
    phi_psi,
    screen_candidate,
)


def product_of_linear_factors(roots) -> Poly:
    p = Poly((1,))
    for r in roots:
        p = p * Poly((-F(r), 1))
    return p


def phi_psi_loop(spec) -> tuple[Poly, Poly]:
    phi = Poly((1,))
    psi = Poly((1,))
    for wt, b in zip(spec.weights, spec.points):
        phi = phi * Poly((-b + wt.l1, 1))
        psi = psi * Poly((-b - wt.l2, 1))
    return phi, psi


def cyclicity_pairwise(spec) -> bool:
    for i in range(spec.k):
        for j in range(i + 1, spec.k):
            if spec.points[j] == spec.points[i] + spec.weights[i].l2 + spec.weights[j].l1:
                return False
    return True


def screen_mismatches(spec, screen=cyclicity_and_irreducibility) -> list[str]:
    """Where phi_psi or `screen` disagrees with the oracles on this chain."""
    out = []
    phi, psi = phi_psi_loop(spec)
    if phi_psi(spec) != (phi, psi):
        out.append("phi_psi")
    cyclic, irreducible = screen(spec)
    if cyclic != cyclicity_pairwise(spec):
        out.append("cyclic")
    if irreducible != (Poly.gcd(phi, psi) == 1):
        out.append("irreducible")
    return out


def vacuum_roots_fractions(spec) -> tuple[list[F], list[F]]:
    """The Fraction vacuum roots the integer pairs replaced: b_s - l1_s of phi and b_s + l2_s of psi."""
    return (
        [b - wt.l1 for wt, b in zip(spec.weights, spec.points)],
        [b + wt.l2 for wt, b in zip(spec.weights, spec.points)],
    )


def phi_psi_fractions(spec) -> tuple[Poly, Poly]:
    phi_roots, psi_roots = vacuum_roots_fractions(spec)
    return Poly.from_roots(phi_roots), Poly.from_roots(psi_roots)


def screen_fractions(spec) -> tuple[bool, bool]:
    """cyclicity_and_irreducibility on the Fraction vacuum roots."""
    phi_roots, psi_roots = vacuum_roots_fractions(spec)
    cyclic = not any(phi_roots[j] in psi_roots[:j] for j in range(1, spec.k))
    return cyclic, set(phi_roots).isdisjoint(psi_roots)


def cyclicity_both_orders(spec) -> tuple[bool, bool]:
    """Mutant screen: it also tests the pairs with j < i."""
    k = spec.k
    cyclic = not any(
        spec.points[j] == spec.points[i] + spec.weights[i].l2 + spec.weights[j].l1
        for i in range(k) for j in range(k) if i != j
    )
    return cyclic, cyclicity_and_irreducibility(spec)[1]


# A small pool, so repeated roots and coinciding vacuum roots are common.
POOL = [F(n, d) for d in (1, 2, 3) for n in range(-4, 5)]
roots = st.sampled_from(POOL) | st.builds(F, st.integers(-30, 30), st.integers(1, 12)) | st.integers(-5, 5)
chains = st.lists(
    st.tuples(st.integers(1, 2), st.integers(0, 2), st.sampled_from(POOL)), min_size=1, max_size=5
).map(lambda sites: make_spec([s[:2] for s in sites], [s[2] for s in sites]))


@pytest.mark.parametrize(
    "rs",
    [[], [F(0)], [F(-3, 2), F(-3, 2), F(2)], [F(1, 2), F(-2, 3), 0, F(5, 6)], [-1, "1/3", F(-7, 4)]],
    ids=["empty-is-one", "zero", "repeated-negative", "mixed-denominators", "int-str-fraction"],
)
def test_from_roots_named(rs):
    p, q = Poly.from_roots(rs), product_of_linear_factors(rs)
    assert (p.nums, p.denom) == (q.nums, q.denom)
    assert p.leading() == 1 and all(p(F(r)) == 0 for r in rs)


@given(st.lists(roots, max_size=7))
@settings(max_examples=300)
def test_from_roots_matches_the_product_of_linear_factors(rs):
    p, q = Poly.from_roots(rs), product_of_linear_factors(rs)
    assert (p.nums, p.denom) == (q.nums, q.denom)


# name: (weights, points, (cyclic, irreducible)); a non-cyclic chain is never irreducible.
CHAINS = {
    "cyclic-irreducible": ([(1, 0), (1, 0)], [0, "1/2"], (True, True)),
    "cyclic-reversed-string": ([(1, 0), (1, 0)], [1, 0], (True, False)),
    "non-cyclic-string": ([(1, 0), (1, 0)], [0, 1], (False, False)),
    "non-cyclic-l2": ([(1, 1), (1, 0)], [0, 2], (False, False)),
    "repeated-point": ([(2, 1), (1, 0), (1, 0)], ["1/2", "1/2", "-1/3"], (True, True)),
}


@pytest.mark.parametrize("name", CHAINS)
def test_screen_on_named_chains(name):
    weights, points, verdict = CHAINS[name]
    spec = make_spec(weights, points)
    assert cyclicity_and_irreducibility(spec) == verdict
    assert screen_mismatches(spec) == []


@given(chains)
@settings(max_examples=300)
def test_screen_matches_the_oracles(spec):
    assert screen_mismatches(spec) == []


# Twisted chains with l2 > 0 and negative, rational points, so vacuum roots of different sites coincide often.
twisted_chains = st.builds(
    lambda sites, twist: make_spec([s[:2] for s in sites], [s[2] for s in sites], twist),
    st.lists(st.tuples(st.integers(1, 3), st.integers(0, 3), roots), min_size=1, max_size=6),
    st.tuples(st.sampled_from([1, 2, F(-3, 2), F(5, 7)]), st.sampled_from([1, 3, F(-1, 4)])),
)


@given(twisted_chains)
@example(make_spec([(1, 1), (1, 0)], [0, 2], (2, 1)))
@example(make_spec([(2, 3), (1, 2)], [F(-7, 3), F(8, 3)], (F(-3, 2), 3)))
@settings(max_examples=300)
def test_integer_vacuum_roots_match_the_fraction_screen(spec):
    """The reduced pairs are the Fraction roots in lowest terms, and phi, psi and the screen agree."""
    want = vacuum_roots_fractions(spec)
    assert _vacuum_roots(spec) == tuple(tuple((r.numerator, r.denominator) for r in rs) for rs in want)
    got, expected = phi_psi(spec), phi_psi_fractions(spec)
    assert [(p.nums, p.denom) for p in got] == [(p.nums, p.denom) for p in expected]
    assert cyclicity_and_irreducibility(spec) == screen_fractions(spec)


def test_differential_catches_a_screen_that_tests_both_orders():
    weights, points, _ = CHAINS["cyclic-reversed-string"]
    spec = make_spec(weights, points)
    assert screen_mismatches(spec, cyclicity_both_orders) == ["cyclic"]


def weight_checks_on_fractions(l1, l2) -> tuple[bool, bool]:
    """(is_polynomial, is_nondegenerate) by Fraction arithmetic, as before the integer checks."""
    l1, l2 = scalar(l1), scalar(l2)
    ok_int = l1.denominator == 1 and l2.denominator == 1
    return ok_int and l1 >= 0 and l2 >= 0 and (l1 > 0 or l2 == 0), l1 + l2 != 0


# Weight entries as int, "p/q" string and Fraction; integral values come in all three forms.
entries = (
    st.integers(-2, 3)
    | st.builds(lambda p, q: f"{p}/{q}", st.integers(-6, 6), st.integers(1, 3))
    | st.builds(F, st.integers(-6, 6), st.integers(1, 3))
)


@given(entries, entries)
@example("4/2", 0)
@example(F(1, 2), F(-1, 2))
@example("1/2", "-1/3")
@example(0, "2")
@example(-1, 1)
@settings(max_examples=300)
def test_weight_checks_match_the_fraction_checks(l1, l2):
    wt = Weight(l1, l2)
    assert (wt.is_polynomial(), wt.is_nondegenerate()) == weight_checks_on_fractions(l1, l2)


@given(st.lists(st.tuples(entries, entries), min_size=1, max_size=3))
@example([(2, "1/1"), (F(3), 0)])
@example([(1, 0), ("1/2", 0)])
@example([("3/3", 0), (0, 0)])
@settings(max_examples=300)
def test_chain_weight_checks_match_the_fraction_checks(weights):
    """make_spec accepts exactly the chains the Fraction checks accept, with the same error text and n."""
    verdicts = [weight_checks_on_fractions(a, b) for a, b in weights]
    bad = [(w, poly) for w, (poly, nondeg) in zip(weights, verdicts) if not (poly and nondeg)]
    try:
        spec = make_spec(weights, range(len(weights)))
    except ValueError as exc:
        (a, b), poly = bad[0]
        reason = "degenerate" if poly else "not polynomial"
        assert str(exc) == f"weight ({format_scalar(a)}, {format_scalar(b)}) is {reason}"
    else:
        assert bad == []
        n = sum((scalar(a) + scalar(b) for a, b in weights), F(0))
        assert spec.n == n and type(spec.n) is F


# -- the integer candidate screen of random-spec ------------------------------

screen_points = st.builds(F, st.integers(-9, 9), st.integers(1, 3)) | st.integers(-4, 4)
screen_twists = st.integers(-4, 4).filter(bool) | st.builds(F, st.integers(-7, 7).filter(bool), st.integers(1, 3))


@st.composite
def candidates(draw):
    """A drawn (weights, points, twist) in random-spec's ranges, widened to negative and Fraction twists."""
    k = draw(st.integers(1, 4))
    weights = [(draw(st.integers(1, 2)), draw(st.integers(0, 1))) for _ in range(k)]
    points = [draw(screen_points) for _ in range(k)]
    return weights, points, (draw(screen_twists), draw(screen_twists))


def screen_oracle(weights, points, twist) -> tuple[bool, bool]:
    """(cyclic, gamma splits) on the built spec, with gamma from the product of linear Poly factors."""
    spec = make_spec(weights, points, twist)
    phi, psi = phi_psi_loop(spec)
    q1, q2 = spec.twist
    return cyclicity_and_irreducibility(spec)[0], roots_with_multiplicity(phi * q1 - psi * q2) is not None


@given(candidates())
@example(([(1, 0), (1, 0)], [0, 1], (1, 1)))  # non-cyclic string
@example(([(1, 0), (1, 0)], [0, F(1, 2)], (1, 1)))  # untwisted k = 2: gamma is linear and splits
@example(([(1, 1), (2, 0), (1, 0)], [F(-1, 3), F(2, 3), 0], (F(-3, 2), 2)))
@example(([(2, 1), (2, 0), (1, 1), (1, 0)], [F(-7, 3), 5, F(1, 2), -4], (3, F(5, 3))))
@settings(max_examples=300)
def test_screen_verdicts_match_the_built_spec(candidate):
    weights, points, twist = candidate
    cyclic, splits = screen_oracle(weights, points, twist)
    assert screen_candidate(weights, points, twist, split=False) == cyclic
    assert screen_candidate(weights, points, twist, split=True) == (cyclic and splits)
    spec = make_spec(weights, points, twist)
    assert gamma_splits(*_vacuum_roots(spec), spec.twist) == splits


def test_screen_refuses_above_the_bound():
    # untwisted k = 2 has a linear gamma, 2x + 1 - 10^15 here: it splits, so the sieve passes it to the bound check
    weights, points, twist = [(1, 0), (1, 0)], [10**15, 0], (1, 1)
    spec = make_spec(weights, points, twist)
    phi, psi = phi_psi_loop(spec)
    assert (phi - psi).nums == (1 - 10**15, 2)
    with pytest.raises(RootSearchTooLarge, match="split test refused"):
        screen_candidate(weights, points, twist, split=True)
    with pytest.raises(RootSearchTooLarge, match="split test refused"):
        roots_with_multiplicity(phi - psi)
    assert screen_candidate(weights, points, twist, split=False)


def random_spec_oracle(seed: int, k: int, budget: int, twisted: bool, split: bool) -> "str | None":
    """The random-spec loop before the integer screen: a spec and Polys for every candidate."""
    rng = random.Random(seed)
    cands = [F(n, d) for d in (1, 2, 3) for n in range(-9, 10)]
    for _ in range(20000):
        weights = []
        left = budget
        for s in range(k):
            hi = max(1, left - (k - s - 1))
            l1 = rng.randint(1, min(2, hi))
            l2 = rng.randint(0, min(1, hi - l1))
            weights.append((l1, l2))
            left -= l1 + l2
        points = tuple(rng.choice(cands) for _ in range(k))
        q1 = F(rng.randint(1, 4))
        q2 = F(rng.randint(1, 4))
        if twisted and q1 == q2:
            continue
        if not twisted:
            q1 = q2 = F(1)
        try:
            spec = make_spec(weights, points, (q1, q2))
        except ValueError:
            continue
        if not cyclicity_pairwise(spec):
            continue
        if split:
            phi, psi = phi_psi_loop(spec)
            if roots_with_multiplicity(phi * q1 - psi * q2) is None:
                continue
        return spec.to_json()
    return None


# name: (k, weight budget, twisted); each is drawn with and without --split
SEED_CONFIGS = {"k3-twisted": (3, 5, True), "k4": (4, 6, False), "k2": (2, 4, False), "k2-twisted": (2, 4, True),
                "k3-budget-4": (3, 4, False)}


@pytest.mark.parametrize("split", [True, False], ids=["split", "any"])
@pytest.mark.parametrize("name", SEED_CONFIGS)
def test_random_spec_matches_the_oracle_loop(name, split, capsys):
    k, budget, twisted = SEED_CONFIGS[name]
    flags = ["--k", str(k), "--weight-budget", str(budget)] + ["--twisted"] * twisted + ["--split"] * split
    for seed in range(1, 41):
        assert main(["random-spec", "--seed", str(seed), *flags]) == 0
        assert capsys.readouterr().out == random_spec_oracle(seed, k, budget, twisted, split), seed
