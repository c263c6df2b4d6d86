"""Acceptance gate: every criterion is an exact identity (tolerance zero).

Run with `pytest -s tests/test_acceptance.py` to see one line per criterion.
"""

import time
from fractions import Fraction as F
from math import comb

from gl11chain.exactnum import Poly, RatFun, roots_with_multiplicity
from gl11chain.linalg import ExactMatrix, joint_generalized_eigenspaces
from gl11chain.chain import cyclicity_and_irreducibility, make_spec
from gl11chain.monodromy import (
    coefficient_matrices,
    lax_monodromy,
    tensor_monodromy,
    transfer_pencil,
    verify_rtt,
)
from gl11chain.bethe import (
    char_pair,
    completeness_report,
    eigenvalue_pencil,
    level_subspace,
    restrict_operators,
    verify_on_shell,
)
from gl11chain import bethealg, fusion, shapoform, weylspace
from gl11chain.suites import suite_specs


def report(num: int, label: str, ok: bool):
    print(f"ACCEPTANCE {num:2d} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label})"


SPECS = suite_specs()
SPLIT_SPECS = {
    name: spec
    for name, spec in SPECS.items()
    if roots_with_multiplicity(char_pair(spec).gamma) is not None
}
IRREDUCIBLE_SPLIT = {
    name: spec
    for name, spec in SPLIT_SPECS.items()
    if cyclicity_and_irreducibility(spec)[1]
}


def test_criterion_01_rtt_identity():
    t0 = time.monotonic()
    ok = True
    # arbitrary polynomial weights, k <= 3, n <= 5
    tensor_cases = [
        ([(1, 0)], ["0"]),
        ([(2, 1), (1, 1)], ["0", "5/3"]),
        ([(2, 1), (1, 0), (1, 0)], ["1/4", "2", "-2"]),
        ([(3, 0), (1, 1)], ["0", "-7/2"]),
        ([(2, 0), (2, 1)], ["1", "1/3"]),
    ]
    for wts, pts in tensor_cases:
        assert sum(a + b for a, b in wts) <= 5 and len(wts) <= 3
        if not verify_rtt(tensor_monodromy(make_spec(wts, pts, ("1", "1")))).ok:
            ok = False
    # vector chains up to five sites
    pts = ["0", "1/2", "-1", "3", "-5/2"]
    for n in range(1, 6):
        if not verify_rtt(lax_monodromy(pts[:n])).ok:
            ok = False
    elapsed = time.monotonic() - t0
    report(1, f"RTT identity, {elapsed:.1f}s < 10s", ok and elapsed < 10.0)


def test_criterion_02_transfer_eigenvalues():
    ok = True
    for name, spec in SPLIT_SPECS.items():
        cyclic, _ = cyclicity_and_irreducibility(spec)
        if not cyclic:
            continue
        cp = char_pair(spec)
        for level in range(cp.gamma.degree + 1):
            for dv in cp.divisors[level]:
                if not verify_on_shell(spec, dv).ok:
                    ok = False
    # frozen eigenvalue sets for the two reference chains
    e1_eigs = {
        tuple(eigenvalue_pencil(dv, SPECS["E1"]).coeffs)
        for level in (0, 1)
        for dv in char_pair(SPECS["E1"]).divisors[level]
    }
    ok &= e1_eigs == {(F(2), F(1)), (F(1), F(1))}  # x+2 and x+1
    e2_eigs = {
        tuple(eigenvalue_pencil(dv, SPECS["E2"]).coeffs)
        for level in (0, 1)
        for dv in char_pair(SPECS["E2"]).divisors[level]
    }
    ok &= e2_eigs == {(F(1, 2), F(2)), (F(-3, 2), F(2))}  # 2x+1/2 and 2x-3/2
    # joint-eigenvalue oracle re-derivation
    for name in ("E1", "E2"):
        spec = SPECS[name]
        pencil = tensor_monodromy(spec)
        tq = coefficient_matrices(transfer_pencil(pencil, spec.twist))
        tq += [ExactMatrix(pencil.dim, pencil.dim)] * (spec.k + 1 - len(tq))
        cp = char_pair(spec)
        singular = not spec.is_twisted()
        for level in range(cp.gamma.degree + 1):
            basis = level_subspace(spec, level, singular)
            ops, _ = restrict_operators(tq, basis)
            for dv in cp.divisors[level]:
                ev = eigenvalue_pencil(dv, spec)
                (eig, _), = joint_generalized_eigenspaces(
                    ops, [[ev.coeff(d) for d in range(spec.k + 1)]]
                )
                if len(eig) != 1:
                    ok = False
    report(2, "transfer eigenvalue identity", ok)


def test_criterion_03_completeness():
    ok = True
    for name, spec in IRREDUCIBLE_SPLIT.items():
        rep = completeness_report(spec)
        if not rep.all_ok():
            ok = False
        squarefree = all(m == 1 for _, m in roots_with_multiplicity(char_pair(spec).gamma))
        for lv in rep.levels:
            # bijection with eigenspaces of dimension exactly one
            if any(e.eigen_dim != 1 or not e.spans_eigenspace for e in lv.entries):
                ok = False
            if squarefree:
                want = comb(spec.k, lv.level) if spec.is_twisted() else comb(spec.k - 1, lv.level)
                if len(lv.entries) != want or not lv.diagonalizable:
                    ok = False
    report(3, "completeness", ok and len(IRREDUCIBLE_SPLIT) >= 3)


def test_criterion_04_jordan_structure():
    e3 = SPECS["E3"]
    cp = char_pair(e3)
    ok = cp.gamma == Poly((F(1, 2), 1)) ** 2 * 3
    rep = completeness_report(e3)
    by_level = {lv.level: lv for lv in rep.levels}
    lv1 = by_level[1]
    ok &= len(lv1.entries) == 1
    ok &= lv1.entries[0].eigen_dim == 1
    ok &= lv1.entries[0].generalized_dim == 2 == comb(2, 1)
    lv2 = by_level[2]
    ok &= lv2.entries[0].generalized_dim == 1 == comb(2, 2)
    report(4, "Jordan structure at the double root", ok)


def test_criterion_05_bethe_algebra_structure():
    t0 = time.monotonic()
    ok = True
    for name, spec in SPLIT_SPECS.items():
        if spec.k > 3:
            continue
        cyclic, _ = cyclicity_and_irreducibility(spec)
        if not cyclic:
            continue
        singular = not spec.is_twisted()
        top = spec.k - 1 if singular else spec.k
        for level in range(top + 1):
            try:
                fam = bethealg.coefficient_family(spec, level, singular)
            except ValueError:
                continue
            want = comb(spec.k - 1, level) if singular else comb(spec.k, level)
            adim, _ = bethealg.algebra_dimension(fam)
            if adim != want:
                ok = False
            if not bethealg.double_commutant_check(fam).ok:
                ok = False
            if not bethealg.regular_rep_check(fam).ok:
                ok = False
            if not bethealg.presentation_check(spec, level).ok:
                ok = False
    elapsed = time.monotonic() - t0
    report(5, f"coefficient algebra structure, {elapsed:.1f}s < 30s", ok and elapsed < 30.0)


def test_criterion_06_norm_formula():
    ok = True
    ratio_records = set()
    for name, spec in SPLIT_SPECS.items():
        cp = char_pair(spec)
        q1, q2 = spec.twist
        divisors = [
            dv
            for level in range(cp.gamma.degree + 1)
            for dv in cp.divisors[level]
        ]
        for dv in divisors:
            rec = shapoform.norm_check(spec, dv)
            if not rec.equal:
                ok = False
            if not rec.repeated_roots:
                # resolved prefactor: (-1)^l, against the textbook (q2/q1)^l
                if rec.lhs != 0:
                    ratio_records.add(rec.lhs / rec.rhs_stated == (-1) ** dv.degree * (q1 / q2) ** dv.degree)
        for a in range(len(divisors)):
            for b in range(a + 1, len(divisors)):
                if not shapoform.orthogonality_check(spec, divisors[a], divisors[b]):
                    ok = False
    report(6, "norm formula and orthogonality (prefactor resolved: (-1)^l)", ok and ratio_records == {True})


def test_criterion_07_fusion_relations():
    ok = True
    hand = False
    for name in ("E1", "E2", "E4", "E5", "E6"):
        spec = SPECS[name]
        assert spec.n <= 4
        for checks in fusion.transfer_relation_check(spec, 3):
            if not all(c.ok for c in checks):
                ok = False
        for c in fusion.expansion_matches_routes(spec, 3):
            if not c.ok:
                ok = False
    # the hand-derived single-site m=2 product
    rc = fusion.higher_transfer(SPECS["E1"], 2)
    ber = fusion.berezinian(SPECS["E1"])
    lhs = RatFun(rc.matrix.num.get(0, 0), rc.matrix.den) * (1 - ber.value.shift(1))
    want = RatFun(Poly((2, 1)) * Poly((1, 1)), Poly((0, 1)) * Poly((-1, 1)))
    hand = rc.check.ok and lhs == want
    report(7, "fusion transfer relations", ok and hand)


def test_criterion_08_berezinian():
    ok = True
    for name in ("E1", "E2", "E4", "E6"):
        spec = SPECS[name]
        ber = fusion.berezinian(spec)
        cp = char_pair(spec)
        q1, q2 = spec.twist
        if not (ber.tau_free and ber.forms_agree and ber.central):
            ok = False
        if ber.value != RatFun(cp.phi * q1, cp.psi * q2):
            ok = False
        if not fusion.ber_twist_independence(spec):
            ok = False
    report(8, "Berezinian", ok)


def test_criterion_09_oper_action():
    ok = True
    for name, spec in SPLIT_SPECS.items():
        if spec.k > 2:
            continue
        cp = char_pair(spec)
        for level in range(cp.gamma.degree + 1):
            for dv in cp.divisors[level]:
                if any(m > 1 for _, m in dv.roots):
                    continue
                for c in fusion.oper_action_check(spec, dv, 3):
                    if not c.ok:
                        ok = False
        order = int(spec.n) + 2
        for c in fusion.universal_oper_check(spec, order):
            if not c.ok:
                ok = False
    report(9, "difference-operator action", ok)


def test_criterion_10_polynomial_model():
    t0 = time.monotonic()
    ok = True
    for n in (2, 3, 4):
        d = 4
        for level in range(n + 1):
            if weylspace.invariant_dimensions(n, level, d, False) != weylspace.character_series(n, level, d, False):
                ok = False
            if weylspace.invariant_dimensions(n, level, d, True) != weylspace.character_series(n, level, d, True):
                ok = False
    for n in (2, 3):
        for level in range(n):
            for c in weylspace.current_model_checks(n, level, 3):
                if not c.ok:
                    ok = False
    if not weylspace.specialization_check([F(0)]).ok:
        ok = False
    if not weylspace.specialization_check([F(1, 2), F(0)]).ok:
        ok = False
    if not weylspace.specialization_check([F(1, 2), F(0), F(-2)]).ok:
        ok = False
    if weylspace.specialization_check([F(0), F(1)]).ok:
        ok = False
    elapsed = time.monotonic() - t0
    report(10, f"polynomial-coefficient model, {elapsed:.1f}s < 60s", ok and elapsed < 60.0)
