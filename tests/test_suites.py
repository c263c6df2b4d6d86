import json
from fractions import Fraction
from pathlib import Path

import pytest

from gl11chain import bethe, bethealg, cli, exactnum, fusion, monodromy, shapoform, suites, weylspace
from gl11chain.suites import run_suite, suite_specs
from gl11chain.fusion import FracMatrix, berezinian, higher_transfer
from gl11chain.chain import cyclicity_and_irreducibility
from gl11chain.monodromy import Check, tensor_monodromy
from gl11chain.bethe import char_pair
from gl11chain.exactnum import Poly
from gl11chain.linalg import ExactMatrix
from gl11chain.shapoform import form_matrix
from conftest import clear_builder_caches, memoised_builders

# five sites with a double root of gamma
K5 = '{"weights":[[1,1],[1,0],[1,0],[1,1],[1,0]],"points":["1","0","-2","0","-3"],"twist":["1","1"]}'


def test_suite_specs_cover_the_cases():
    specs = suite_specs()
    flags = {name: cyclicity_and_irreducibility(s) for name, s in specs.items()}
    assert flags["E3"] == (True, False)  # double root, cyclic, reducible
    assert flags["E7"] == (True, False)
    assert all(flags[n] == (True, True) for n in ("E1", "E2", "E4", "E5", "E6"))
    twisted = {n for n, s in specs.items() if s.is_twisted()}
    assert twisted == {"E1", "E4", "E5"}
    # the double-root chain really has a double root
    from gl11chain.exactnum import roots_with_multiplicity

    rm = roots_with_multiplicity(char_pair(specs["E3"]).gamma)
    assert rm is not None and max(m for _, m in rm) == 2


@pytest.mark.parametrize("name", ["rtt", "bethe", "algebra", "norms"])
def test_fast_suites_green(name):
    items = run_suite(name, max_k=3, max_n=4)
    bad = [it for it in items if not it.ok]
    assert not bad, bad


def test_fusion_suite_small_caps():
    items = run_suite("fusion", max_n=2, max_m=2, tau_order=2)
    bad = [it for it in items if not it.ok]
    assert not bad, bad


def test_weyl_suite_small_caps():
    items = run_suite("weyl", max_n=2, degree_cap=3)
    bad = [it for it in items if not it.ok]
    assert not bad, bad


def test_specialization_items_carry_the_detail(monkeypatch):
    monkeypatch.setattr(weylspace, "specialization_check", lambda points: Check(False, witness="x"))
    items = {it.label: it for it in run_suite("weyl", max_n=3, degree_cap=0)}
    for name in ("specialization n=1", "specialization n=2", "specialization n=3"):
        assert not items[name].ok and items[name].witness == "x"
    rejected = items["specialization ordering rejected"]
    assert rejected.ok and rejected.witness == ""


def test_four_site_specialization_item_needs_max_n_five(monkeypatch):
    calls = []
    monkeypatch.setattr(
        weylspace, "specialization_check", lambda points: calls.append(points) or Check(True)
    )
    assert "specialization n=4" not in {it.label for it in run_suite("weyl", max_n=4, degree_cap=0)}
    items = {it.label: it for it in run_suite("weyl", max_n=5, degree_cap=0)}
    assert items["specialization n=4"].ok
    assert calls[-1] == [Fraction(1, 2), 0, -2, 3]
    # a chain accepted where it should be rejected fails with a witness
    assert items["specialization ordering rejected"] == (False, "specialization ordering rejected", "isomorphic")


def test_model_items_carry_the_witness(monkeypatch):
    # negative control: sigma_n doubled in the overflow relation's right-hand side
    real = weylspace.elementary_mpoly

    def doubled(n, i):
        return real(n, i) * weylspace.MPoly.const(n, 2) if i == n else real(n, i)

    monkeypatch.setattr(weylspace, "elementary_mpoly", doubled)
    monkeypatch.setattr(weylspace, "specialization_check", lambda points: Check(True))
    items = {it.label: it for it in run_suite("weyl", max_n=2, degree_cap=0)}
    failed = [it for name, it in items.items() if name.startswith("model ") and not it.ok]
    assert failed and all(it.label.endswith(": overflow relation") for it in failed)
    assert all(it.witness.startswith("level 1, overflow relation: component ") for it in failed)


def test_entry_action_item_names_the_witness(monkeypatch):
    real = weylspace.gamma_coefficient_ops

    def corrupted(n):
        # x^0 coefficient of That_11 replaced by multiplication by z_1
        blocks = real(n)
        times_z1 = ExactMatrix.identity(2**n, weylspace.MPoly.var(n, 0))
        return {**blocks, (1, 1): [times_z1] + blocks[(1, 1)][1:]}

    monkeypatch.setattr(weylspace, "gamma_coefficient_ops", corrupted)
    monkeypatch.setattr(weylspace, "specialization_check", lambda points: Check(True))
    items = {it.label: it for it in run_suite("weyl", max_n=2, degree_cap=0)}
    item = items["entry action commutes with modified action"]
    assert not item.ok
    assert item.witness == "leg 0, entry (1, 1), x^0, component 0, monomial (0, 0)"


def test_vacuum_generation_item_names_the_level(monkeypatch):
    monkeypatch.setattr(weylspace, "gamma_coefficient_ops", lambda n: {})
    monkeypatch.setattr(weylspace, "specialization_check", lambda points: Check(True))
    items = {it.label: it for it in run_suite("weyl", max_n=2, degree_cap=0)}
    item = items["vacuum generates by degree"]
    want = sum(weylspace.invariant_dimensions(2, 0, 3, False))
    assert not item.ok
    assert item.witness == f"level 0: spanned dimension 1, invariant count {want}"


def test_relations_item_names_the_relation(monkeypatch):
    real = weylspace.modified_action

    def doubled_s0(space, i, f):
        out = real(space, i, f)
        return {c: p * 2 for c, p in out.items()} if i == 0 else out

    monkeypatch.setattr(weylspace, "modified_action", doubled_s0)
    monkeypatch.setattr(weylspace, "specialization_check", lambda points: Check(True))
    items = {it.label: it for it in run_suite("weyl", max_n=3, degree_cap=0)}
    for n in (2, 3):
        item = items[f"modified action relations n={n}"]
        assert not item.ok and item.witness == "involutivity of s_0"


def test_relations_check_names_the_braid(monkeypatch):
    # s_1 by the standard action: both generators stay involutions, but the
    # braid relation between them breaks
    real = weylspace.modified_action

    def standard_s1(space, i, f):
        return weylspace.standard_action(space, i, f) if i == 1 else real(space, i, f)

    monkeypatch.setattr(weylspace, "modified_action", standard_s1)
    res = weylspace.check_sn_relations(3, 2)
    assert not res.ok and res.witness == "braid relation at 0"


def _negate_entry(pencil, entry):
    return pencil._replace(entries={**pencil.entries, entry: -pencil.entries[entry]})


def test_coassociativity_item_names_the_entry(monkeypatch):
    real = monodromy.tensor_monodromy
    coassociativity_points = (0, Fraction(3, 2), -1)

    def corrupted(spec):
        pencil = real(spec)
        return _negate_entry(pencil, (1, 2)) if spec.points == coassociativity_points else pencil

    monkeypatch.setattr(monodromy, "tensor_monodromy", corrupted)
    bad = {it.label: it.witness for it in run_suite("rtt", max_k=3, max_n=4) if not it.ok}
    assert bad == {"coassociativity": "first differing entry (1, 2)"}


def test_zero_mode_item_names_the_generator(monkeypatch):
    real = monodromy.t_coefficient

    def corrupted(pencil, i, j, r):
        out = real(pencil, i, j, r)
        return out * 2 if (i, j) == (2, 1) else out

    monkeypatch.setattr(monodromy, "t_coefficient", corrupted)
    bad = {it.label: it.witness for it in run_suite("rtt", max_k=3, max_n=4) if not it.ok}
    assert list(bad) == ["zero-mode exchange"]
    assert bad["zero-mode exchange"].startswith("generator T_21^(1) against That_")


def test_zero_mode_computes_each_generator_once(monkeypatch):
    real = monodromy.t_coefficient
    calls = []

    def counted(pencil, i, j, r):
        calls.append((i, j, r))
        return real(pencil, i, j, r)

    monkeypatch.setattr(monodromy, "t_coefficient", counted)
    run_suite("rtt", max_k=1, max_n=1)
    assert sorted(calls) == [(i, j, 1) for i in (1, 2) for j in (1, 2)]


def _corrupted_gram(real):
    """form_matrix returning a copy of the Gram matrix with 1 added at (0, 1); the memoised matrix is untouched."""

    def corrupted(spec):
        gram = real(spec).copy()
        gram.put(0, 1, gram.get(0, 1) + 1)
        return gram

    return corrupted


def _shifted_series(real):
    """laurent_coefficients with 1 added at (0, 1) of every coefficient: breaks contravariance."""

    def corrupted(m, num, den, order):
        out = real(m, num, den, order)
        for c in out:
            c.put(0, 1, c.get(0, 1) + 1)
        return out

    return corrupted


def _scaled_gram(real):
    """form_matrix returning twice the Gram matrix: the vacuum is no longer normalized."""
    return lambda spec: real(spec) * 2


def _degenerate_gram(real):
    """form_matrix with its last column zeroed: the form is degenerate."""

    def corrupted(spec):
        gram = real(spec)
        proj = ExactMatrix.identity(gram.ncols)
        proj.put(gram.ncols - 1, gram.ncols - 1, 0)
        return gram @ proj

    return corrupted


def _tripled_textbook_norm(real):
    """norm_check with the textbook right-hand side tripled."""

    def corrupted(spec, y):
        rec = real(spec, y)
        return rec if rec.rhs_stated is None else rec._replace(rhs_stated=rec.rhs_stated * 3)

    return corrupted


def _zero_textbook_norm(real):
    """norm_check with the textbook right-hand side 0 while the left side stays nonzero."""

    def corrupted(spec, y):
        rec = real(spec, y)
        return rec if rec.rhs_stated is None else rec._replace(rhs_stated=Fraction(0))

    return corrupted


@pytest.mark.parametrize(
    "module, attr, corrupt, prefix, detail",
    [
        (shapoform, "form_matrix", _corrupted_gram, "gram symmetric", "first asymmetric entry (0, 1)"),
        (shapoform, "laurent_coefficients", _shifted_series, "contravariance", "first failing (i, j, r) ("),
        (
            monodromy,
            "chain_transfer_pencil",
            lambda real: lambda spec: _constant_pencil(real(spec).nrows, {(0, 1): [1]}),
            "transfer self-adjoint",
            "x^0 coefficient",
        ),
        (shapoform, "form_matrix", _scaled_gram, "vacuum normalized", "gram[0, 0] = 2"),
        (shapoform, "form_matrix", _degenerate_gram, "form non-degenerate", "rank "),
        (shapoform, "norm_check", _tripled_textbook_norm, "norm ratio to textbook", "ratio "),
        (shapoform, "norm_check", _zero_textbook_norm, "norm ratio to textbook", "lhs="),
        (
            shapoform,
            "bethe_pairing",
            lambda real: lambda spec, y1, y2: real(spec, y1, y2) + 1,
            "orthogonal",
            "form value 1",
        ),
    ],
    ids=[
        "gram-symmetric", "contravariance", "transfer-self-adjoint",
        "vacuum-normalized", "form-non-degenerate", "norm-ratio", "norm-ratio-textbook-zero", "orthogonal",
    ],
)
def test_norms_items_carry_the_witness(monkeypatch, module, attr, corrupt, prefix, detail):
    monkeypatch.setattr(module, attr, corrupt(getattr(module, attr)))
    items = [it for it in run_suite("norms", max_k=2, max_n=2) if it.label.startswith(prefix)]
    assert items
    for item in items:
        assert not item.ok and item.witness.startswith(detail)


def test_norms_suite_builds_each_bethe_vector_once():
    # the norm and every pairing of a divisor read one memoised vector
    clear_builder_caches()
    assert all(run_suite("norms"))
    assert bethe._bethe_vector.cache_info().misses == 25


def test_bethe_vectors_built_once_per_chain_and_roots(tmp_path, monkeypatch):
    # the on-shell items, the completeness reports and the vector items
    # request some vectors more than once; each (chain, roots) is built once
    requests = []
    real = bethe.bethe_vector
    monkeypatch.setattr(bethe, "bethe_vector", lambda spec, roots: requests.append((spec, tuple(roots))) or real(spec, roots))
    clear_builder_caches()
    assert cli.main(["verify", "--suite", "bethe", "--json", str(tmp_path / "bethe.json")]) == 0
    assert bethe._bethe_vector.cache_info().misses == len(set(requests)) == 34
    assert len(requests) > len(set(requests))
    # spectrum: the completeness report and the norm table share one vector per divisor
    clear_builder_caches()
    chain = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures" / "k3.json"
    assert cli.main(["spectrum", "--spec", str(chain), "--json", str(tmp_path / "k3.json")]) == 0
    assert bethe._bethe_vector.cache_info().misses == 4


def test_norms_negative_control(monkeypatch, tmp_path):
    out = tmp_path / "verify.json"
    monkeypatch.setattr(shapoform, "form_matrix", _corrupted_gram(shapoform.form_matrix))
    assert cli.main(["verify", "--suite", "norms", "--json", str(out)]) == 1
    failures = json.loads(out.read_text())["suites"]["norms"]["failures"]
    assert failures[0] == {"name": "gram symmetric E1", "detail": "first asymmetric entry (0, 1)"}
    monkeypatch.undo()
    assert not [it for it in run_suite("norms") if not it.ok]


def _corrupt_component(fn, when):
    """fn with component 1 of the returned vector shifted by 1 wherever when(roots)."""

    def corrupted(spec, roots):
        vec = list(fn(spec, roots))
        if when(roots):
            vec[1] += 1
        return tuple(vec)

    return corrupted


@pytest.mark.parametrize(
    "target, when, names",
    [
        (
            "bethe_vector_eps",
            lambda roots: True,
            ["regularized route agrees", "regularized route agrees (double root)"],
        ),
        ("bethe_vector", lambda roots: list(roots) == [2, 0], ["root permutation symmetry"]),
    ],
    ids=["regularized-route", "root-permutation"],
)
def test_vector_items_carry_the_first_differing_index(monkeypatch, target, when, names):
    monkeypatch.setattr(bethe, target, _corrupt_component(getattr(bethe, target), when))
    items = run_suite("bethe", max_k=3, max_n=4)
    bad = {it.label: it.witness for it in items if not it.ok}
    assert sorted(bad) == sorted(names)
    for name in names:
        assert bad[name].startswith("first differing index 1: ")


def test_bethe_suite_checks_each_divisor_on_shell_once(monkeypatch):
    # the on-shell items read the completeness report's verdicts; the off-shell controls add one check per chain
    requests = []
    real = bethe.verify_on_shell

    def counted(spec, y):
        requests.append((spec, y if isinstance(y, bethe.Divisor) else tuple(y)))
        return real(spec, y)

    monkeypatch.setattr(bethe, "verify_on_shell", counted)
    assert all(run_suite("bethe"))
    assert len(requests) == len(set(requests)) == 32


def test_on_shell_item_carries_the_witness(monkeypatch):
    # a divisor the report finds off shell is checked again, for the witness its item shows
    real = bethe.verify_on_shell
    monkeypatch.setattr(bethe, "verify_on_shell", lambda spec, y: Check(False, witness="(0, 1)")
                        if isinstance(y, bethe.Divisor) and y.degree == 1 else real(spec, y))
    items = [it for it in run_suite("bethe") if it.label.startswith("on-shell E")]
    assert {it.witness for it in items if not it.ok} == {"(0, 1)"}
    assert any(it.ok for it in items)


def _passing_off_shell(real):
    """verify_on_shell reporting every raw root sequence (the off-shell controls pass one) as on shell."""
    return lambda spec, y: real(spec, y) if isinstance(y, bethe.Divisor) else Check(True)


def _first_level_changed(change):
    """A corruption of completeness_report: a copy whose first level is change(level)."""

    def corrupt(real):
        def corrupted(spec):
            rep = real(spec)
            return rep._replace(levels=[change(rep.levels[0])] + rep.levels[1:])

        return corrupted

    return corrupt


def _first_entry_off_eigenspace(lv):
    return lv._replace(complete=False, entries=[lv.entries[0]._replace(spans_eigenspace=False)] + lv.entries[1:])


@pytest.mark.parametrize(
    "module, attr, corrupt, prefix, detail",
    [
        (bethe, "verify_on_shell", _passing_off_shell, "off-shell control", "off-shell point "),
        (
            bethe,
            "completeness_report",
            _first_level_changed(lambda lv: lv._replace(subspace_dim=lv.subspace_dim + 1)),
            "spectrum complete",
            "level 0: generalized dims sum to ",
        ),
        (
            bethe,
            "completeness_report",
            _first_level_changed(_first_entry_off_eigenspace),
            "bethe basis",
            "level 0 y=(empty): on-shell True, nonzero True, eigen 1, spans eigenspace False",
        ),
        (
            suites,
            "gl_generator",
            lambda real: lambda space, weights, i, j: ExactMatrix.identity(space.dim),
            "on-shell vectors singular",
            "E12 does not kill y=(empty)",
        ),
    ],
    ids=["off-shell-control", "spectrum-complete", "bethe-basis", "on-shell-singular"],
)
def test_bethe_items_carry_the_witness(monkeypatch, module, attr, corrupt, prefix, detail):
    monkeypatch.setattr(module, attr, corrupt(getattr(module, attr)))
    items = [it for it in run_suite("bethe") if it.label.startswith(prefix)]
    assert items
    for item in items:
        assert not item.ok and item.witness.startswith(detail)


def test_injected_bug_caught():
    items = run_suite("rtt", inject_sign_bug=True)
    assert any(not it.ok for it in items)


def test_injected_bug_leaves_shared_pencils_intact():
    # the corrupted pencil is a copy: a clean run in the same process still passes
    injected = run_suite("rtt", inject_sign_bug=True)
    clean = run_suite("rtt")
    assert any(not it.ok for it in injected)
    assert not [it for it in clean if not it.ok]


def test_memoised_builders_found():
    assert {f"{fn.__module__}.{fn.__qualname__}" for fn in memoised_builders()} == {
        "gl11chain.superlin.SuperSpace.tensor_power",
        "gl11chain.monodromy.tensor_monodromy",
        "gl11chain.monodromy.chain_transfer_pencil",
        "gl11chain.bethe.char_pair",
        "gl11chain.bethe._bethe_vector",
        "gl11chain.shapoform.form_matrix",
        "gl11chain.fusion.berezinian",
        "gl11chain.fusion.higher_transfer",
        "gl11chain.fusion._generating_oper",
        "gl11chain.fusion.symmetrizers",
        "gl11chain.weylspace._check_degree_drop",
        "gl11chain.weylspace.gamma_coefficient_ops",
    }


def test_weyl_degree_premise_checked_once_per_argument(tmp_path, monkeypatch):
    # every level, both parts, the specialization's counts, the CLI's
    # character tables and every cap share one degree-premise check per
    # (n, exact degree), so each monomial is checked once
    clear_builder_caches()
    memo = weylspace._check_degree_drop
    requests = []
    monkeypatch.setattr(weylspace, memo.__name__, lambda *args: requests.append(args) or memo(*args))
    assert cli.main(["verify", "--suite", "weyl", "--json", str(tmp_path / "weyl.json")]) == 0
    assert memo.cache_info().misses == len(set(requests))
    assert len(requests) > 2 * len(set(requests))
    # each n asks for every degree up to its largest cap, each built once
    degrees = {}
    for n, delta in set(requests):
        degrees.setdefault(n, set()).add(delta)
    assert all(got == set(range(max(got) + 1)) for got in degrees.values())
    # the suite asks for the symbolic entry coefficients at n = 2, 2, 1, 2, 3: one build per n
    assert weylspace.gamma_coefficient_ops.cache_info().misses == 3


def test_derived_objects_built_once_per_chain(tmp_path, monkeypatch):
    builders = (tensor_monodromy, form_matrix, berezinian, higher_transfer, fusion._generating_oper,
                monodromy.chain_transfer_pencil)
    clear_builder_caches()
    chain = tmp_path / "e4.json"
    chain.write_text(suite_specs()["E4"].to_json())
    assert cli.main(["spectrum", "--spec", str(chain), "--json", str(tmp_path / "report.json")]) == 0
    assert [fn.cache_info().misses for fn in builders] == [1, 1, 1, 3, 1, 1]
    # the Bethe suite: one transfer pencil per chain, for every divisor's on-shell check
    monodromy.chain_transfer_pencil.cache_clear()
    run_suite("bethe")
    assert monodromy.chain_transfer_pencil.cache_info().misses == len(suite_specs())
    form_matrix.cache_clear()
    run_suite("norms")
    assert form_matrix.cache_info().misses == len(suite_specs())
    # the fusion suite: one generating operator per chain, built at the largest order it asks for
    fusion._generating_oper.cache_clear()
    items = run_suite("fusion")
    assert fusion._generating_oper.cache_info().misses == 4
    assert len(items) == 106 and all(items)
    # four inverses in the Berezinian, two in the generating operator, one for its inverse series
    clear_builder_caches()
    inverses = []
    real = FracMatrix.inverse

    def counted(self):
        inverses.append(self)
        return real(self)

    monkeypatch.setattr(FracMatrix, "inverse", counted)
    chain.write_text(K5)
    assert cli.main(["spectrum", "--spec", str(chain), "--json", str(tmp_path / "report.json")]) == 0
    assert len(inverses) <= 7


def test_rtt_suite_builds_each_lax_pencil_once(monkeypatch):
    # the exchange check and the coproduct comparison of a point list share one pencil
    requests = []
    real = monodromy.lax_monodromy
    monkeypatch.setattr(monodromy, "lax_monodromy", lambda points: requests.append(tuple(points)) or real(points))
    assert all(run_suite("rtt"))
    assert len(requests) == len(set(requests)) == 4


def test_rtt_lax_item_carries_the_witness(monkeypatch):
    real = monodromy.lax_monodromy
    monkeypatch.setattr(monodromy, "lax_monodromy", lambda points: _negate_entry(real(points), (2, 1)))
    items = {it.label: it for it in run_suite("rtt", max_k=3, max_n=3)}
    for n in (1, 2, 3):
        item = items[f"rtt lax n={n}"]
        assert not item.ok and item.witness.startswith("witness (") and item.witness != "witness None"


def test_lax_coproduct_item_names_the_entry(monkeypatch):
    # a diagonal gauge of the auxiliary space keeps the RTT relation but
    # changes the off-diagonal entries
    real = monodromy.lax_monodromy

    def gauged(points):
        pencil = real(points)
        b, c = pencil.entries[(1, 2)], pencil.entries[(2, 1)]
        return pencil._replace(entries={**pencil.entries, (1, 2): b * 2, (2, 1): c * Fraction(1, 2)})

    monkeypatch.setattr(monodromy, "lax_monodromy", gauged)
    bad = {it.label: it.witness for it in run_suite("rtt", max_k=3, max_n=3) if not it.ok}
    assert bad == {f"lax equals coproduct n={n}": "first differing entry (1, 2)" for n in (1, 2, 3)}


def _constant_pencil(dim, coefficients):
    """Poly-entry matrix with the given {(row, col): [x^0, x^1, ...]} entries."""
    m = ExactMatrix(dim, dim)
    for (i, j), coeffs in coefficients.items():
        m.put(i, j, Poly(coeffs))
    return m


def test_transfer_commutes_item_names_the_pair(monkeypatch):
    # x^0 coefficient E_01, x^1 coefficient E_10: they do not commute
    real = monodromy.chain_transfer_pencil
    monkeypatch.setattr(
        monodromy, "chain_transfer_pencil", lambda spec: _constant_pencil(real(spec).nrows, {(0, 1): [1], (1, 0): [0, 1]})
    )
    items = {it.label: it for it in run_suite("rtt", max_k=3, max_n=4)}
    for name in suite_specs():
        item = items[f"transfer pencil commutes {name}"]
        assert not item.ok and item.witness == "coefficient pair (0, 1)"


def test_transfer_symmetry_item_names_the_generator(monkeypatch):
    # one coefficient swapping basis vectors 0 and 1 commutes with itself but
    # not with the diagonal generator e_11, which weighs them differently
    real = monodromy.chain_transfer_pencil
    monkeypatch.setattr(
        monodromy, "chain_transfer_pencil", lambda spec: _constant_pencil(real(spec).nrows, {(0, 1): [1], (1, 0): [1]})
    )
    items = {it.label: it for it in run_suite("rtt", max_k=3, max_n=4)}
    for name in suite_specs():
        assert items[f"transfer pencil commutes {name}"].ok
        item = items[f"transfer pencil symmetry {name}"]
        assert not item.ok and item.witness == "generator e_11, x^0 coefficient"


def _corrupted_b1(real, target):
    """coefficient_family whose B_1 at the target (spec, level) is a copy with 1 added at (0, 1)."""

    def corrupted(spec, level, singular_only):
        fam = real(spec, level, singular_only)
        if (spec, level) != target:
            return fam
        b1 = fam.ops[0].copy()
        b1.put(0, 1, b1.get(0, 1) + 1)
        return bethealg.CoefficientFamily(
            fam.spec, fam.level, fam.singular, fam.basis, [b1] + fam.ops[1:], fam.strings
        )

    return corrupted


def test_noncommuting_family_fails_spectral_dims(monkeypatch):
    # E4 at level 1 is 2-dimensional and B_2 is not scalar there, so the corrupted B_1 does not commute with it
    clean = [it.label for it in run_suite("algebra")]
    target = (suite_specs()["E4"], 1)
    assert bethealg.coefficient_family(*target, False).dim == 2
    monkeypatch.setattr(bethealg, "coefficient_family", _corrupted_b1(bethealg.coefficient_family, target))
    items = run_suite("algebra")
    assert [it.label for it in items] == clean
    bad = {it.label: it.witness for it in items if not it.ok}
    assert bad["spectral dims E4 l=1"] == "family not commutative: operators 0 and 1"
    assert all(detail for detail in bad.values())


def _shifted_eigenvalue(real):
    return lambda y, spec: real(y, spec) + Poly((1,))


def _identity_algebra(real):
    return lambda fam: (1, [ExactMatrix.identity(fam.dim)])


def _shifted_character(real):
    return lambda fam, dv: [c + 1 for c in real(fam, dv)]


@pytest.mark.parametrize(
    "attr, corrupt, prefix",
    [
        ("eigenvalue_pencil", _shifted_eigenvalue, "presentation "),
        ("algebra_dimension", _identity_algebra, "regular representation "),
        ("divisor_character", _shifted_character, "spectral dims "),
    ],
    ids=["presentation", "regular-representation", "spectral-dims"],
)
def test_algebra_items_carry_the_witness(monkeypatch, attr, corrupt, prefix):
    monkeypatch.setattr(bethealg, attr, corrupt(getattr(bethealg, attr)))
    bad = [it for it in run_suite("algebra") if it.label.startswith(prefix) and not it.ok]
    assert bad
    assert all(it.witness for it in bad), bad


def test_algebra_suite_builds_each_algebra_once(monkeypatch):
    real = bethealg.algebra_dimension
    calls = []

    def counted(fam):
        calls.append((fam.spec, fam.level))
        return real(fam)

    monkeypatch.setattr(bethealg, "algebra_dimension", counted)
    families = [it for it in run_suite("algebra") if it.label.startswith("algebra dim ")]
    assert len(calls) == len(set(calls)) == len(families) == 19


@pytest.mark.parametrize("name", ["bethe", "algebra", "norms"])
def test_split_test_runs_once_per_chain(monkeypatch, name):
    clear_builder_caches()
    real = exactnum.roots_with_multiplicity
    calls = []

    def counted(p):
        calls.append(p)
        return real(p)

    # every module binding of the split test, as the benchmark tracer wraps them
    for module in (exactnum, bethe, bethealg, cli, shapoform, fusion, monodromy):
        if getattr(module, "roots_with_multiplicity", None) is real:
            monkeypatch.setattr(module, "roots_with_multiplicity", counted)
    run_suite(name)
    assert 0 < len(calls) <= len(suite_specs())


def test_fusion_negative_control(monkeypatch, tmp_path):
    real = fusion.tensor_monodromy
    clear_builder_caches()
    monkeypatch.setattr(fusion, "tensor_monodromy", lambda spec: _negate_entry(real(spec), (2, 1)))
    out = tmp_path / "verify.json"
    try:
        assert cli.main(["verify", "--suite", "fusion", "--json", str(out)]) == 1
    finally:
        monkeypatch.undo()
        clear_builder_caches()
    failures = json.loads(out.read_text())["suites"]["fusion"]["failures"]
    berezinian_items = [f for f in failures if f["name"] in {f"berezinian {n}" for n in suite_specs()}]
    assert berezinian_items
    for item in berezinian_items:
        assert item["detail"].startswith("failed: ") and item["detail"] != "failed: "
    # every failing item carries a witness
    assert all(f["detail"] not in ("", "None") for f in failures), failures
    assert not [it for it in run_suite("fusion") if not it.ok]
