"""Named verification suites over a fixed family of benchmark chains.

Every item is exact: a suite passes only when each identity holds on the
nose.  The chains cover twisted and untwisted cases, a double root of the
characteristic polynomial (Jordan blocks), a reducible-but-cyclic chain, a
non-cyclic chain, and nonzero second weight components.  An item is a
monodromy.Check whose label is the item name and whose witness, on failure,
is the detail a report shows.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import product
from math import comb
from typing import Optional

from .exactnum import format_scalar
from .linalg import ExactMatrix, first_noncommuting, kronecker_values, product_slots
from . import bethe, bethealg, fusion, monodromy, shapoform, weylspace
from .chain import ModuleSpec, cyclicity_and_irreducibility, make_spec
from .monodromy import Check
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


def _item(name: str, ok: bool, witness: str = "") -> Check:
    """The item `name`; the witness is kept only on failure."""
    return Check(bool(ok), name, witness if not ok else "")


def _vectors_item(name: str, a: dict, b: dict) -> Check:
    """Item for the equality of two vectors; on failure, the first differing index, a missing entry read as 0."""
    if a == b:
        return _item(name, True)
    zero = Fraction(0)
    i = min(i for i in a.keys() | b.keys() if a.get(i, zero) != b.get(i, zero))
    x, y = a.get(i, zero), b.get(i, zero)
    return _item(name, False, f"first differing index {i}: {format_scalar(x)} vs {format_scalar(y)}")


# ---------------------------------------------------------------------------


def rtt_tensor_cases(max_k: int, max_n: int) -> list[tuple[str, list, list]]:
    """The (name, weights, points) of the rtt suite's tensor chains within the caps; the sign bug goes in the first."""
    cases = [
        ("E1", [(1, 0)], ["0"]),
        ("E2", [(1, 0), (1, 0)], ["0", "1/2"]),
        ("k2 weights (2,1),(1,1)", [(2, 1), (1, 1)], ["0", "5/3"]),
        ("k3 weights (2,0),(1,0),(1,0)", [(2, 0), (1, 0), (1, 0)], ["0", "7", "-3"]),
        ("k3 weights (2,1),(1,0),(1,0)", [(2, 1), (1, 0), (1, 0)], ["1/4", "2", "-2"]),
    ]
    return [case for case in cases if len(case[1]) <= max_k and sum(map(sum, case[1])) <= max_n]


def run_rtt_suite(max_k: int = 3, max_n: int = 5, inject_sign_bug: bool = False) -> list[Check]:
    items: list[Check] = []
    for name, wts, pts in rtt_tensor_cases(max_k, max_n):
        pencil = monodromy.tensor_monodromy(make_spec(wts, pts, ("1", "1")))
        if inject_sign_bug:
            # negative-control harness: a corrupted copy must be caught
            pencil = pencil._replace(entries={**pencil.entries, (2, 1): -pencil.entries[(2, 1)]})
        res = monodromy.verify_rtt(pencil)
        items.append(_item(f"rtt tensor {name}", res.ok, f"witness {res.witness}"))
        if inject_sign_bug:
            return items
    lax_points = ["0", "1/2", "-1", "3", "-5/2"][:max_n]
    # one Lax pencil per point list, for its exchange check and its coproduct comparison
    laxes = [monodromy.lax_monodromy(lax_points[:n]) for n in range(1, len(lax_points) + 1)]
    for n, lx in enumerate(laxes, 1):
        res = monodromy.verify_rtt(lx)
        items.append(_item(f"rtt lax n={n}", res.ok, f"witness {res.witness}"))
    # local product against the coproduct construction
    for n, lx in enumerate(laxes[:3], 1):
        tn = monodromy.tensor_monodromy(make_spec([(1, 0)] * n, lax_points[:n], ("1", "1")))
        diff = _first_differing_entry(lx, tn)
        items.append(_item(f"lax equals coproduct n={n}", diff is None, f"first differing entry {diff}"))
    # coassociativity on three factors; gated on k alone, so its n = 5 chain runs at the default caps
    if max_k >= 3:
        s3 = make_spec([(1, 0), (2, 0), (1, 1)], ["0", "3/2", "-1"], ("1", "1"))
        p_all = monodromy.tensor_monodromy(s3)
        left = reduce(monodromy._combine, map(monodromy.evaluation_monodromy, s3.weights, s3.points))
        diff = _first_differing_entry(p_all, left)
        items.append(_item("coassociativity", diff is None, f"first differing entry {diff}"))
    # transfer family commutes and respects the diagonal symmetry, on the chains within the caps
    specs = {name: spec for name, spec in suite_specs().items() if spec.k <= max_k and spec.n <= max_n}
    for name, spec in specs.items():
        tq = monodromy.chain_transfer_pencil(spec)
        pair = first_noncommuting(tq, tq)  # the first pair a < b: [C_a, C_a] = 0, [C_b, C_a] = -[C_a, C_b]
        items.append(_item(f"transfer pencil commutes {name}", pair is None, f"coefficient pair {pair}"))
        gens = [(1, 1), (2, 2)] if spec.is_twisted() else [(1, 1), (2, 2), (1, 2), (2, 1)]
        failure = _symmetry_failure(spec.space(), list(spec.weights), gens, tq)
        items.append(_item(f"transfer pencil symmetry {name}", failure is None, failure))
    # zero-mode exchange relation with the diagonal action
    if "E2" in specs:
        failure = _zero_mode_failure(monodromy.tensor_monodromy(specs["E2"]))
        items.append(_item("zero-mode exchange", failure is None, failure))
    return items


def _first_differing_entry(p, q) -> "tuple[int, int] | None":
    return next(((i, j) for i in (1, 2) for j in (1, 2) if p.entry(i, j) != q.entry(i, j)), None)


def _symmetry_failure(space, weights, gens, tq) -> "str | None":
    """The first generator e, then the least d, with [e, C_d] != 0, from the generators as one list; else None."""
    pair = first_noncommuting([gl_generator(space, weights, *g) for g in gens], tq)
    return pair and "generator e_{}{}, x^{} coefficient".format(*gens[pair[0]], pair[1])


def _zero_mode_failure(pencil) -> "str | None":
    """[T_ij^(1), That_rs(x)]_sigma = sgn (That_rj if i == s) - sgn (That_is if r == j) at x = 2^w, every i, j, r, s.

    (sigma, sgn) = monodromy.exchange_signs(i, j, r, s).  None when every relation holds, else the first
    failing generator, entry and degree."""
    t1s = [monodromy.zero_mode(pencil, *e) for e in pencil.entries]
    w, ([one, *values],) = kronecker_values([ExactMatrix.identity(pencil.dim), *t1s, *pencil.entries.values()], 4)
    t1, at = dict(zip(pencil.entries, values)), dict(zip(pencil.entries, values[len(t1s):]))
    for i, j, r, s in product((1, 2), repeat=4):
        sigma, sgn = monodromy.exchange_signs(i, j, r, s)
        slots = product_slots([
            (1, t1[i, j], at[r, s]), (-sigma, at[r, s], t1[i, j]),
            (-sgn * (i == s), one, at[r, j]), (sgn * (r == j), one, at[i, s]),
        ], w)
        if slots:
            return f"generator T_{i}{j}^(1) against That_{r}{s}, x^{min(slots)} coefficient"
    return None


def run_bethe_suite(max_k: int = 3, max_n: int = 4) -> list[Check]:
    items: list[Check] = []
    # every item, the fixed ones too, runs only on chains within the caps
    specs = {name: spec for name, spec in suite_specs().items() if spec.k <= max_k and spec.n <= max_n}
    for name, spec in specs.items():
        cp = bethe.char_pair(spec)
        if cp.roots is None:
            continue
        rep = bethe.completeness_report(spec)
        onshell = {e.divisor: e.onshell for lv in rep.levels for e in lv.entries}
        for divisors in cp.divisors:
            for dv in divisors:
                # the report's verdict; the check runs again only to name a failure's witness
                check = Check(True) if onshell.get(dv) else bethe.verify_on_shell(spec, dv)
                items.append(check._replace(label=f"on-shell {name} y={dv.label()}"))
        # off-shell negative control at a non-root point
        bad = Fraction(17, 5)
        while cp.gamma(bad) == 0:
            bad += 1
        off_shell = not bethe.verify_on_shell(spec, [bad])
        witness = "" if off_shell else f"off-shell point {format_scalar(bad)} passed"
        items.append(_item(f"off-shell control {name}", off_shell, witness))
        cyclic, irred = cyclicity_and_irreducibility(spec)
        if cyclic:
            short = next(filter(None, map(_dims_failure, rep.levels)), None)
            items.append(_item(f"spectrum complete {name}", short is None, short or ""))
        if irred:
            ok = rep.all_ok()
            items.append(_item(f"bethe basis {name}", ok, "" if ok else _incomplete_level(rep)))
    # regularized route agrees with the direct one
    if "E2" in specs:
        bd = bethe.bethe_vector(specs["E2"], [Fraction(-1, 4)])
        be = bethe.bethe_vector_eps(specs["E2"], [Fraction(-1, 4)])
        items.append(_vectors_item("regularized route agrees", bd, be))
    if "E3" in specs:
        e3 = specs["E3"]
        bd3 = bethe.bethe_vector(e3, [Fraction(-1, 2), Fraction(-1, 2)])
        be3 = bethe.bethe_vector_eps(e3, [Fraction(-1, 2), Fraction(-1, 2)])
        if not bd3:
            items.append(_item("regularized route agrees (double root)", False, "direct vector is zero"))
        else:
            items.append(_vectors_item("regularized route agrees (double root)", bd3, be3))
        # both orders are pair-safe, so each is multiplied as given
        perm = bethe.bethe_vector(e3, [Fraction(0), Fraction(2)])
        perm2 = bethe.bethe_vector(e3, [Fraction(2), Fraction(0)])
        items.append(_vectors_item("root permutation symmetry", perm, perm2))
    # equal twist entries force singular on-shell vectors
    for name in ("E2", "E3", "E6"):
        if name not in specs:
            continue
        spec = specs[name]
        e12 = gl_generator(spec.space(), spec.weights, 1, 2)
        divisors = (dv for level in bethe.char_pair(spec).divisors for dv in level)
        vectors = ((dv, bethe.bethe_vector(spec, dv.root_list())) for dv in divisors)
        moved = next((dv for dv, vec in vectors if e12.apply(vec)), None)
        witness = "" if moved is None else f"E12 does not kill y={moved.label()}"
        items.append(_item(f"on-shell vectors singular {name}", moved is None, witness))
    return items


def _dims_failure(lv) -> "str | None":
    """None when the generalized eigenspaces of a level add up to it, else the level and both dimensions."""
    total = sum(e.generalized_dim for e in lv.entries)
    if total == lv.subspace_dim:
        return None
    return f"level {lv.level}: generalized dims sum to {total}, subspace dim {lv.subspace_dim}"


def _incomplete_level(rep) -> str:
    """The first level of a split report that is not complete, with its first failing divisor or its dimensions."""
    lv = next(lv for lv in rep.levels if not lv.complete)
    e = next((e for e in lv.entries if not e.ok), None)
    if e is None:
        return _dims_failure(lv)
    return (f"level {lv.level} y={e.divisor.label()}: on-shell {e.onshell}, nonzero {e.nonzero}, "
            f"eigen {e.eigen_dim}, spans eigenspace {e.spans_eigenspace}")


def run_algebra_suite(max_k: int = 3, max_n: int = 4) -> list[Check]:
    items: list[Check] = []
    # k5 (n = 7) has levels that C_0 alone does not generate; the other chains have none
    k5 = make_spec([(1, 1), (1, 0), (1, 0), (1, 1), (1, 0)], ["1", "0", "-2", "0", "-3"], ("1", "1"))
    for name, spec in {**suite_specs(), "k5": k5}.items():
        if spec.k > max_k or spec.n > max_n:
            continue
        cp = bethe.char_pair(spec)
        if cp.roots is None:
            continue
        cyclic, _ = cyclicity_and_irreducibility(spec)
        # equal twist entries: the singular parts, empty at the top level
        top = spec.k if spec.is_twisted() else spec.k - 1
        for level in range(0, top + 1):
            try:
                fam = bethealg.coefficient_family(spec, level)
            except ValueError:
                continue  # empty subspace
            expected = comb(top, level)
            adim = len(bethealg.algebra(fam))
            items.append(_item(f"algebra dim {name} l={level}", adim == expected, f"{adim} != {expected}"))
            items.append(bethealg.double_commutant_check(fam)._replace(label=f"double commutant {name} l={level}"))
            if cyclic:
                rr = bethealg.regular_rep_check(fam)
                items.append(rr._replace(label=f"regular representation {name} l={level}"))
            else:
                items.append(Check(True, f"regular representation skipped {name} l={level}"))
            pres = bethealg.presentation_check(spec, level)
            items.append(pres._replace(label=f"presentation {name} l={level}"))
            try:
                entries = bethealg.spectral_analysis(fam)
            except ValueError as exc:  # the family does not commute
                entries, failure = [], str(exc)
            else:
                failure = _spectral_failure(entries)
            items.append(_item(f"spectral dims {name} l={level}", failure is None, failure))
            if cyclic:
                total_gen = sum(e.generalized_dim for e in entries)
                items.append(_item(f"spectral sum {name} l={level}", total_gen == fam.dim, f"{total_gen} != {fam.dim}"))
    return items


def _spectral_failure(entries) -> "str | None":
    """None when each divisor has a 1-dim eigenspace in a cyclic generalized one of the expected dimension.

    Otherwise the first failing divisor with its dimensions and cyclicity flag.
    """
    for e in entries:
        if e.eigen_dim != 1 or e.generalized_dim != e.expected_generalized or not e.cyclic_module:
            return (f"y={e.divisor.label()}: eigen {e.eigen_dim}, generalized {e.generalized_dim}, "
                    f"expected {e.expected_generalized}, cyclic {e.cyclic_module}")
    return None


def run_norms_suite(max_k: int = 3, max_n: int = 4) -> list[Check]:
    items: list[Check] = []
    for name, spec in suite_specs().items():
        if spec.k > max_k or spec.n > max_n:
            continue
        gram = shapoform.form_matrix(spec)
        symmetric = gram == gram.transpose()
        items.append(_item(f"gram symmetric {name}", symmetric, "" if symmetric else _asymmetry(gram)))
        vac = gram.get(0, 0)
        items.append(_item(f"vacuum normalized {name}", vac == 1, f"gram[0, 0] = {format_scalar(vac)}"))
        items.append(shapoform.check_iota_contract(spec)._replace(label=f"contravariance {name}"))
        # transfer self-adjointness
        degree = _self_adjoint_failure(monodromy.chain_transfer_pencil(spec), gram)
        items.append(_item(f"transfer self-adjoint {name}", degree is None, f"x^{degree} coefficient"))
        _, irred = cyclicity_and_irreducibility(spec)
        if irred:
            nondegenerate = gram.det() != 0
            items.append(_item(f"form non-degenerate {name}", nondegenerate,
                               "" if nondegenerate else f"rank {gram.rank()} of {gram.nrows}"))
        cp = bethe.char_pair(spec)
        if cp.roots is None:
            continue
        divisors = [dv for level in cp.divisors for dv in level]
        for dv in divisors:
            rec = shapoform.norm_check(spec, dv)
            items.append(_item(f"norm {name} y={dv.label()}", rec.equal, f"lhs={rec.lhs} rhs={rec.rhs_resolved}"))
            if not rec.repeated_roots:
                want_ratio = (-spec.twist[0] / spec.twist[1]) ** dv.degree
                found = None if rec.rhs_stated == 0 else rec.lhs / rec.rhs_stated
                ratio_ok = rec.lhs == 0 if found is None else found == want_ratio
                ratio = f"lhs={rec.lhs}, textbook rhs 0" if found is None else f"ratio {found}, wanted {want_ratio}"
                items.append(_item(f"norm ratio to textbook {name} y={dv.label()}", ratio_ok, ratio))
        for a in range(len(divisors)):
            for b in range(a + 1, len(divisors)):
                ya, yb = divisors[a], divisors[b]
                check = shapoform.orthogonality_check(spec, ya, yb)
                items.append(check._replace(label=f"orthogonal {name} {ya.label()} | {yb.label()}"))
    return items


def _self_adjoint_failure(tq, gram) -> "int | None":
    """The least d with C_d^T G != G C_d (slot d of tq(2^w)^T G - G tq(2^w)), or None."""
    w, ([p, g],) = kronecker_values([tq, gram], 2)
    return min(product_slots([(1, p.transpose(), g), (-1, g, p)], w), default=None)


def _asymmetry(gram: ExactMatrix) -> str:
    """The first (a, b), in row order, with gram[a, b] != gram[b, a]."""
    a, b = next((a, b) for a in range(gram.nrows) for b in range(gram.ncols) if gram.get(a, b) != gram.get(b, a))
    return f"first asymmetric entry ({a}, {b})"


def run_fusion_suite(max_m: int = 3, max_n: int = 4, tau_order: Optional[int] = None) -> list[Check]:
    items: list[Check] = []
    fusion_specs = {k: v for k, v in suite_specs().items() if k in ("E1", "E2", "E4", "E6")}
    for name, spec in fusion_specs.items():
        if spec.n > max_n:
            continue
        ber = fusion.berezinian(spec)
        items.append(_item(f"berezinian {name}", bool(ber), f"failed: {ber.failed()}"))
        tw = fusion.ber_twist_independence(spec)
        items.append(tw._replace(label=f"berezinian twist independence {name}"))
        order = tau_order if tau_order is not None else int(spec.n) + 2
        # the largest order asked for below first, so lower orders are read from it
        fusion.generating_oper(spec, max(order, max_m))
        checks = fusion.expansion_matches_routes(spec, min(order, max_m))
        for per_m in fusion.transfer_relation_check(spec, max_m):
            checks += per_m
        items += [c._replace(label=f"{name}: {c.label}") for c in checks]
        items.append(fusion.higher_family_commutes(spec)._replace(label=f"higher family commutes {name}"))
        checks = []
        cp = bethe.char_pair(spec)
        # oper_action_check needs order >= 2
        if max_m >= 2 and cp.roots is not None:
            for divisors in cp.divisors:
                for dv in divisors:
                    if any(m > 1 for _, m in dv.roots):
                        continue
                    checks += fusion.oper_action_check(spec, dv, max_m)
        checks += fusion.universal_oper_check(spec, order)
        items += [c._replace(label=f"{name}: {c.label}") for c in checks]
    items += [fusion.symmetrizer_check(m)._replace(label=f"symmetrizer ranks m={m}") for m in range(1, 5)]
    return items


def run_weyl_suite(max_n: int = 4, degree_cap: int = 4) -> list[Check]:
    items: list[Check] = []
    for n in range(2, max_n + 1):
        d = degree_cap
        items.append(weylspace.check_sn_relations(n, min(d, 3))._replace(label=f"modified action relations n={n}"))
        for level in range(n + 1):
            got = weylspace.invariant_dimensions(n, level, d, False)
            want = weylspace.character_series(n, level, d, False)
            items.append(_item(f"characters n={n} l={level}", got == want, f"{got} vs {want}"))
            gots = weylspace.invariant_dimensions(n, level, d, True)
            wants = weylspace.character_series(n, level, d, True)
            items.append(_item(f"singular characters n={n} l={level}", gots == wants, f"{gots} vs {wants}"))
    for n in range(2, min(max_n, 3) + 1):
        for level in range(0, n + 1):
            for c in weylspace.current_model_checks(n, level, min(degree_cap, 3)):
                items.append(c._replace(label=f"model n={n} l={level}: {c.label}"))
    if max_n >= 2:
        res = weylspace.gamma_commutes_with_modified(2, 2)
        items.append(res._replace(label="entry action commutes with modified action"))
        items.append(weylspace.cyclicity_by_degree(2, 3)._replace(label="vacuum generates by degree"))
    # (least max_n, label, points, expected verdict); n = 4 and n = 5 wait one cap longer for their cost
    cases = [
        (1, "specialization n=1", [Fraction(0)], True),
        (2, "specialization n=2", [Fraction(1, 2), Fraction(0)], True),
        (2, "specialization ordering rejected", [Fraction(0), Fraction(1)], False),
        (3, "specialization n=3", [Fraction(1, 2), Fraction(0), Fraction(-2)], True),
        (5, "specialization n=4", [Fraction(1, 2), Fraction(0), Fraction(-2), Fraction(3)], True),
        (6, "specialization n=5", [Fraction(1, 2), Fraction(0), Fraction(-2), Fraction(3), Fraction(-7, 3)], True),
    ]
    for least, name, points, expect in cases:
        if max_n < least:
            continue
        res = weylspace.specialization_check(points)
        # a chain accepted where it should be rejected is reported as the isomorphism found
        items.append(_item(name, res.ok == expect, res.witness or "isomorphic"))
    return items


def run_suite(name: str, max_k: int = 3, max_n: int = 4, max_m: int = 3,
              degree_cap: int = 4, tau_order: Optional[int] = None,
              inject_sign_bug: bool = False) -> list[Check]:
    runs = {
        "rtt": lambda: run_rtt_suite(max_k, max_n, inject_sign_bug),
        "bethe": lambda: run_bethe_suite(max_k, max_n),
        "algebra": lambda: run_algebra_suite(max_k, max_n),
        "norms": lambda: run_norms_suite(max_k, max_n),
        "fusion": lambda: run_fusion_suite(max_m, max_n, tau_order),
        "weyl": lambda: run_weyl_suite(max_n, degree_cap),
    }
    return runs[name]()
