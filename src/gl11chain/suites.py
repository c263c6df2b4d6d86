"""Named verification suites over a fixed family of benchmark chains.

Every item is exact: a suite passes only when each identity holds on the
nose.  The chains cover twisted and untwisted cases, a double root of the
characteristic polynomial (Jordan blocks), a reducible-but-cyclic chain, a
non-cyclic chain, and nonzero second weight components.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb
from typing import Optional

from .exactnum import roots_with_multiplicity
from . import bethe, bethealg, fusion, monodromy, shapoform, weylspace
from .monodromy import ModuleSpec, make_spec
from .superlin import gl_generator


def suite_specs() -> dict[str, ModuleSpec]:
    return {
        # one site, twisted
        "E1": make_spec([(1, 0)], ["0"], ("2", "1")),
        # two sites, untwisted, square-free
        "E2": make_spec([(1, 0), (1, 0)], ["0", "1/2"], ("1", "1")),
        # three sites, untwisted, double root of the characteristic polynomial
        "E3": make_spec([(1, 0), (1, 0), (1, 0)], ["0", "1/2", "-1/2"], ("1", "1")),
        # two sites, twisted, square-free, irreducible
        "E4": make_spec([(1, 0), (1, 0)], ["2", "-3/2"], ("1", "2")),
        # three sites, twisted, square-free, irreducible
        "E5": make_spec([(1, 0), (1, 0), (1, 0)], ["6", "-7", "-1/2"], ("2", "3")),
        # nonzero second weight component, untwisted
        "E6": make_spec([(2, 1), (1, 0)], ["0", "4"], ("1", "1")),
        # cyclic but reducible
        "E7": make_spec([(1, 0), (1, 0), (1, 0)], ["1", "0", "-1"], ("1", "1")),
    }


@dataclass
class SuiteItem:
    name: str
    ok: bool
    detail: str = ""

    def __bool__(self):
        return self.ok


def _item(name: str, ok: bool, detail: str = "") -> SuiteItem:
    return SuiteItem(name, bool(ok), detail if not ok else "")


# ---------------------------------------------------------------------------


def run_rtt_suite(max_k: int = 3, max_n: int = 5, inject_sign_bug: bool = False) -> list[SuiteItem]:
    items: list[SuiteItem] = []
    tensor_cases = [
        ("E1", [(1, 0)], ["0"]),
        ("E2", [(1, 0), (1, 0)], ["0", "1/2"]),
        ("k2 weights (2,1),(1,1)", [(2, 1), (1, 1)], ["0", "5/3"]),
        ("k3 weights (2,0),(1,0),(1,0)", [(2, 0), (1, 0), (1, 0)], ["0", "7", "-3"]),
        ("k3 weights (2,1),(1,0),(1,0)", [(2, 1), (1, 0), (1, 0)], ["1/4", "2", "-2"]),
    ]
    for name, wts, pts in tensor_cases:
        if len(wts) > max_k or sum(a + b for a, b in wts) > max_n:
            continue
        pencil = monodromy.tensor_monodromy(make_spec(wts, pts, ("1", "1")))
        if inject_sign_bug:
            # negative-control harness: a corrupted copy must be caught
            pencil = replace(pencil, entries={**pencil.entries, (2, 1): -pencil.entries[(2, 1)]})
        res = monodromy.verify_rtt(pencil)
        items.append(_item(f"rtt tensor {name}", res.ok, f"witness {res.witness}"))
        if inject_sign_bug:
            return items
    lax_points = ["0", "1/2", "-1", "3", "-5/2"][:max_n]
    for n in range(1, len(lax_points) + 1):
        pencil = monodromy.lax_monodromy(lax_points[:n])
        items.append(_item(f"rtt lax n={n}", monodromy.verify_rtt(pencil).ok))
    # local product against the coproduct construction
    for n in (1, 2, 3):
        if n > max_n:
            continue
        pts = lax_points[:n]
        lx = monodromy.lax_monodromy(pts)
        tn = monodromy.tensor_monodromy(make_spec([(1, 0)] * n, pts, ("1", "1")))
        same = all(lx.entry(i, j) == tn.entry(i, j) for i in (1, 2) for j in (1, 2))
        items.append(_item(f"lax equals coproduct n={n}", same))
    # coassociativity on three factors
    s3 = make_spec([(1, 0), (2, 0), (1, 1)], ["0", "3/2", "-1"], ("1", "1"))
    p_all = monodromy.tensor_monodromy(s3)
    left = monodromy._combine(
        monodromy._combine(
            monodromy.evaluation_monodromy(s3.weights[0], s3.points[0]),
            monodromy.evaluation_monodromy(s3.weights[1], s3.points[1]),
        ),
        monodromy.evaluation_monodromy(s3.weights[2], s3.points[2]),
    )
    same = all(p_all.entry(i, j) == left.entry(i, j) for i in (1, 2) for j in (1, 2))
    items.append(_item("coassociativity", same))
    # transfer family commutes and respects the diagonal symmetry
    for name, spec in suite_specs().items():
        pencil = monodromy.tensor_monodromy(spec)
        tq = monodromy.transfer_pencil(pencil, spec.twist)
        comm = all(
            tq.coeff(a).commutes_with(tq.coeff(b))
            for a in range(tq.degree + 1)
            for b in range(a + 1, tq.degree + 1)
        )
        items.append(_item(f"transfer pencil commutes {name}", comm))
        space = pencil.space
        gens = [(1, 1), (2, 2)] if spec.is_twisted() else [(1, 1), (2, 2), (1, 2), (2, 1)]
        sym = True
        for g in gens:
            e = gl_generator(space, list(spec.weights), *g)
            if not all(tq.coeff(d).commutes_with(e) for d in range(tq.degree + 1)):
                sym = False
        items.append(_item(f"transfer pencil symmetry {name}", sym))
    # zero-mode exchange relation with the diagonal action
    e2 = suite_specs()["E2"]
    pencil = monodromy.tensor_monodromy(e2)
    items.append(_item("zero-mode exchange", _zero_mode_check(pencil)))
    return items


def _zero_mode_check(pencil) -> bool:
    """[T_ij^(1), That_rs(x)] from the exchange relations, all index choices."""
    from itertools import product as iproduct

    from .monodromy import t_coefficient

    dim = pencil.dim
    for i, j, r, s in iproduct((1, 2), repeat=4):
        t1 = t_coefficient(pencil, i, j, 1)
        pa = (i + j) % 2
        pb = (r + s) % 2
        sgn = -1 if ((i == 2) * (r == 2) + (s == 2) * (i == 2) + (s == 2) * (r == 2)) % 2 else 1
        for d in range(pencil.entry(r, s).degree + 1):
            m = pencil.entry(r, s).coeff(d)
            lhs = t1 @ m - (m @ t1 if not (pa and pb) else -(m @ t1))
            rhs = None
            if i == s:
                rhs = pencil.entry(r, j).coeff(d) * sgn
            if r == j:
                term = pencil.entry(i, s).coeff(d) * (-sgn)
                rhs = term if rhs is None else rhs + term
            if rhs is None:
                rhs = m * 0
            if lhs != rhs:
                return False
    return True


def run_bethe_suite(max_k: int = 3, max_n: int = 4) -> list[SuiteItem]:
    items: list[SuiteItem] = []
    for name, spec in suite_specs().items():
        if spec.k > max_k or spec.n > max_n:
            continue
        cp = bethe.char_pair(spec)
        if roots_with_multiplicity(cp.gamma) is None:
            continue
        for level in range(cp.gamma.degree + 1):
            for dv in bethe.enumerate_divisors(cp.gamma, level):
                res = bethe.verify_on_shell(spec, dv)
                items.append(_item(f"on-shell {name} y={dv.label()}", res.ok, str(res.witness)))
        # off-shell negative control at a non-root point
        bad = Fraction(17, 5)
        while cp.gamma(bad) == 0:
            bad += 1
        items.append(_item(f"off-shell control {name}", not bethe.verify_on_shell(spec, [bad]).ok))
        rep = bethe.completeness_report(spec)
        cyclic, irred = monodromy.cyclicity_and_irreducibility(spec)
        if cyclic:
            items.append(
                _item(
                    f"spectrum complete {name}",
                    all(lv.subspace_dim == sum(e.generalized_dim for e in lv.entries) for lv in rep.levels),
                )
            )
        if irred:
            items.append(_item(f"bethe basis {name}", rep.all_ok()))
    # regularized route agrees with the direct one
    e2 = suite_specs()["E2"]
    bd = bethe.bethe_vector(e2, [Fraction(-1, 4)])
    be = bethe.bethe_vector_eps(e2, [Fraction(-1, 4)])
    items.append(_item("regularized route agrees", bd.vector == be.vector))
    e3 = suite_specs()["E3"]
    bd3 = bethe.bethe_vector(e3, [Fraction(-1, 2), Fraction(-1, 2)])
    be3 = bethe.bethe_vector_eps(e3, [Fraction(-1, 2), Fraction(-1, 2)])
    items.append(_item("regularized route agrees (double root)", bd3.vector == be3.vector and not bd3.is_zero()))
    perm = bethe.bethe_vector(e3, [Fraction(0), Fraction(1)])
    perm2 = bethe.bethe_vector(e3, [Fraction(1), Fraction(0)])
    items.append(_item("root permutation symmetry", perm.vector == perm2.vector))
    # equal twist entries force singular on-shell vectors
    for name in ("E2", "E3", "E6"):
        spec = suite_specs()[name]
        e12 = gl_generator(spec.space(), list(spec.weights), 1, 2)
        ok = True
        cp = bethe.char_pair(spec)
        for level in range(cp.gamma.degree + 1):
            for dv in bethe.enumerate_divisors(cp.gamma, level):
                bv = bethe.bethe_vector(spec, dv.root_list())
                if any(e12.apply(list(bv.vector))):
                    ok = False
        items.append(_item(f"on-shell vectors singular {name}", ok))
    return items


def run_algebra_suite(max_k: int = 3, max_n: int = 4) -> list[SuiteItem]:
    items: list[SuiteItem] = []
    for name, spec in suite_specs().items():
        if spec.k > max_k or spec.n > max_n:
            continue
        cp = bethe.char_pair(spec)
        if roots_with_multiplicity(cp.gamma) is None:
            continue
        cyclic, _ = monodromy.cyclicity_and_irreducibility(spec)
        singular = not spec.is_twisted()
        top = spec.k - 1 if singular else spec.k
        for level in range(0, top + 1):
            try:
                fam = bethealg.coefficient_family(spec, level, singular)
            except ValueError:
                continue
            expected = comb(spec.k - 1, level) if singular else comb(spec.k, level)
            adim, _mats = bethealg.algebra_dimension(fam)
            items.append(_item(f"algebra dim {name} l={level}", adim == expected, f"{adim} != {expected}"))
            eq, ad, cd = bethealg.double_commutant_check(fam)
            items.append(_item(f"double commutant {name} l={level}", eq, f"{ad} vs {cd}"))
            rr = bethealg.regular_rep_check(fam)
            if cyclic:
                items.append(_item(f"regular representation {name} l={level}", rr.ok))
            else:
                items.append(_item(f"regular representation skipped {name} l={level}", rr.skipped))
            items.append(_item(f"presentation {name} l={level}", bethealg.presentation_check(spec, level).ok))
            divisors = bethe.enumerate_divisors(cp.gamma, level)
            total_gen = 0
            ok_dims = True
            for entry in bethealg.spectral_analysis(fam, divisors):
                total_gen += entry.generalized_dim
                if entry.generalized_dim != entry.expected_generalized or not entry.cyclic_module:
                    ok_dims = False
                if entry.eigen_dim != 1:
                    ok_dims = False
            items.append(_item(f"spectral dims {name} l={level}", ok_dims))
            if cyclic:
                items.append(_item(f"spectral sum {name} l={level}", total_gen == fam.dim, f"{total_gen} != {fam.dim}"))
    return items


def run_norms_suite(max_k: int = 3, max_n: int = 4) -> list[SuiteItem]:
    items: list[SuiteItem] = []
    for name, spec in suite_specs().items():
        if spec.k > max_k or spec.n > max_n:
            continue
        pencil = monodromy.tensor_monodromy(spec)
        gram = shapoform.form_matrix(spec)
        items.append(_item(f"gram symmetric {name}", gram == gram.transpose()))
        items.append(_item(f"vacuum normalized {name}", gram.get(0, 0) == 1))
        items.append(_item(f"contravariance {name}", shapoform.check_iota_contract(spec)))
        # transfer self-adjointness
        tq = monodromy.transfer_pencil(pencil, spec.twist)
        selfadj = all(
            (tq.coeff(d).transpose() @ gram) == (gram @ tq.coeff(d)) for d in range(tq.degree + 1)
        )
        items.append(_item(f"transfer self-adjoint {name}", selfadj))
        _, irred = monodromy.cyclicity_and_irreducibility(spec)
        if irred:
            items.append(_item(f"form non-degenerate {name}", gram.det() != 0))
        cp = bethe.char_pair(spec)
        if roots_with_multiplicity(cp.gamma) is None:
            continue
        divisors = []
        for level in range(cp.gamma.degree + 1):
            divisors.extend(bethe.enumerate_divisors(cp.gamma, level))
        for dv in divisors:
            rec = shapoform.norm_check(spec, dv)
            items.append(
                _item(
                    f"norm {name} y={dv.label()}",
                    rec.equal,
                    f"lhs={rec.lhs} rhs={rec.rhs_resolved}",
                )
            )
            if not rec.repeated_roots and rec.rhs_stated is not None:
                q1, q2 = spec.twist
                want_ratio = (Fraction(-1) ** dv.degree) * (q1 / q2) ** dv.degree
                ratio_ok = (
                    rec.rhs_stated == 0
                    if rec.lhs == 0
                    else rec.lhs / rec.rhs_stated == want_ratio
                )
                items.append(_item(f"norm ratio to textbook {name} y={dv.label()}", ratio_ok))
        for a in range(len(divisors)):
            for b in range(a + 1, len(divisors)):
                items.append(
                    _item(
                        f"orthogonal {name} {divisors[a].label()} | {divisors[b].label()}",
                        shapoform.orthogonality_check(spec, divisors[a], divisors[b]),
                    )
                )
    return items


def run_fusion_suite(max_m: int = 3, max_n: int = 4, tau_order: Optional[int] = None) -> list[SuiteItem]:
    items: list[SuiteItem] = []
    fusion_specs = {k: v for k, v in suite_specs().items() if k in ("E1", "E2", "E4", "E6")}
    for name, spec in fusion_specs.items():
        if spec.n > max_n:
            continue
        items.append(_item(f"berezinian {name}", bool(fusion.berezinian(spec))))
        items.append(_item(f"berezinian twist independence {name}", fusion.ber_twist_independence(spec)))
        order = tau_order if tau_order is not None else int(spec.n) + 2
        for c in fusion.expansion_matches_routes(spec, min(order, max_m)):
            items.append(_item(f"{name}: {c.label}", c.ok, str(c.witness)))
        for m in range(1, max_m + 1):
            for c in fusion.transfer_relation_check(spec, m):
                items.append(_item(f"{name}: {c.label}", c.ok, str(c.witness)))
        # mutual commutativity of the higher family
        mats = [fusion.higher_transfer(spec, m).matrix for m in (1, 2)]
        polys = [monodromy.ratfun_matrix_to_oppoly(m)[0] for m in mats]
        comm = all(
            polys[0].coeff(a).commutes_with(polys[1].coeff(b))
            for a in range(polys[0].degree + 1)
            for b in range(polys[1].degree + 1)
        )
        items.append(_item(f"higher family commutes {name}", comm))
        cp = bethe.char_pair(spec)
        # oper_action_check needs order >= 2
        if max_m >= 2 and roots_with_multiplicity(cp.gamma) is not None:
            for level in range(cp.gamma.degree + 1):
                for dv in bethe.enumerate_divisors(cp.gamma, level):
                    if any(m > 1 for _, m in dv.roots):
                        continue
                    for c in fusion.oper_action_check(spec, dv, max_m):
                        items.append(_item(f"{name}: {c.label}", c.ok, str(c.witness)))
        if spec.k <= 2:
            for c in fusion.universal_oper_check(spec, order):
                items.append(_item(f"{name}: {c.label}", c.ok, str(c.witness)))
    for m in range(1, 5):
        a, h = fusion.symmetrizers(m)
        ok = (a @ a) == a and (h @ h) == h and a.rank() == 2 and h.rank() == 2
        items.append(_item(f"symmetrizer ranks m={m}", ok))
    return items


def run_weyl_suite(max_n: int = 4, degree_cap: int = 4) -> list[SuiteItem]:
    items: list[SuiteItem] = []
    for n in range(2, max_n + 1):
        d = degree_cap
        items.append(_item(f"modified action relations n={n}", weylspace.check_sn_relations(n, min(d, 3))))
        for level in range(n + 1):
            got = weylspace.invariant_dimensions(n, level, d, False)
            want = weylspace.character_series(n, level, d, False)
            items.append(_item(f"characters n={n} l={level}", got == want, f"{got} vs {want}"))
            gots = weylspace.invariant_dimensions(n, level, d, True)
            wants = weylspace.character_series(n, level, d, True)
            items.append(_item(f"singular characters n={n} l={level}", gots == wants, f"{gots} vs {wants}"))
    for n in (2, 3):
        for level in range(0, n + 1):
            for c in weylspace.current_model_checks(n, level, min(degree_cap, 3)):
                items.append(_item(f"model n={n} l={level}: {c.label}", c.ok))
    items.append(_item("entry action commutes with modified action", weylspace.gamma_commutes_with_modified(2, 2)))
    items.append(_item("vacuum generates by degree", weylspace.cyclicity_by_degree(2, 3)))
    items.append(_item("specialization n=1", weylspace.specialization_check(1, [Fraction(0)]).ok))
    items.append(
        _item("specialization n=2", weylspace.specialization_check(2, [Fraction(1, 2), Fraction(0)]).ok)
    )
    items.append(
        _item(
            "specialization ordering rejected",
            not weylspace.specialization_check(2, [Fraction(0), Fraction(1)]).ok,
        )
    )
    if max_n >= 3:
        items.append(
            _item(
                "specialization n=3",
                weylspace.specialization_check(3, [Fraction(1, 2), Fraction(0), Fraction(-2)]).ok,
            )
        )
    return items


# Suite names in the order `verify --suite all` runs them; run_suite dispatches on them.
SUITES = ("rtt", "bethe", "algebra", "norms", "fusion", "weyl")


def run_suite(name: str, max_k: int = 3, max_n: int = 4, max_m: int = 3,
              degree_cap: int = 4, tau_order: Optional[int] = None,
              inject_sign_bug: bool = False) -> list[SuiteItem]:
    if name == "rtt":
        return run_rtt_suite(max_k, max_n, inject_sign_bug)
    if name == "bethe":
        return run_bethe_suite(max_k, max_n)
    if name == "algebra":
        return run_algebra_suite(max_k, max_n)
    if name == "norms":
        return run_norms_suite(max_k, max_n)
    if name == "fusion":
        return run_fusion_suite(max_m, max_n, tau_order)
    if name == "weyl":
        return run_weyl_suite(max_n, degree_cap)
    raise KeyError(name)
