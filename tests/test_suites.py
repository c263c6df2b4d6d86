import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from gl11chain import bethe, bethealg, cli, exactnum, fusion, monodromy, shapoform, suites, superlin, weylspace
from gl11chain.suites import run_suite, suite_specs
from gl11chain.fusion import FracMatrix, berezinian, higher_transfer
from gl11chain.chain import ModuleSpec, cyclicity_and_irreducibility
from gl11chain.monodromy import Check, tensor_monodromy
from gl11chain.bethe import char_pair, completeness_report
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


# The n of each weyl item whose label does not name it.
WEYL_ITEM_N = {
    "entry action commutes with modified action": 2, "vacuum generates by degree": 2,
    "specialization ordering rejected": 2,
}


@pytest.mark.parametrize("max_n, count", [(0, 0), (1, 1), (2, 23)], ids=["max-n-0", "max-n-1", "max-n-2"])
def test_weyl_max_n_gates_each_item_on_its_n(max_n, count):
    # every item runs from the max_n of its own n: no n = 2 item at max_n 1, no n = 3 item at max_n 2
    labels = [it.label for it in run_suite("weyl", max_n=max_n, degree_cap=3)]
    ns = [WEYL_ITEM_N.get(label) or int(re.search(r"\bn=(\d+)", label).group(1)) for label in labels]
    assert len(labels) == count and max(ns, default=0) == max_n
    assert ("specialization n=1" in labels) == (max_n >= 1)
    assert ("model n=2 l=2: overflow relation" in labels) == (max_n >= 2)


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


def test_five_site_specialization_item_needs_max_n_six(monkeypatch):
    calls = []
    monkeypatch.setattr(
        weylspace, "specialization_check", lambda points: calls.append(points) or Check(True)
    )
    for max_n in (4, 5):
        labels = {it.label for it in run_suite("weyl", max_n=max_n, degree_cap=0)}
        assert "specialization n=5" not in labels
    assert all(len(points) < 5 for points in calls)
    calls.clear()
    items = {it.label: it for it in run_suite("weyl", max_n=6, degree_cap=0)}
    assert items["specialization n=5"].ok
    assert calls == [
        [0], [Fraction(1, 2), 0], [0, 1], [Fraction(1, 2), 0, -2], [Fraction(1, 2), 0, -2, 3],
        [Fraction(1, 2), 0, -2, 3, Fraction(-7, 3)],
    ]


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
    # negative control: s_0 without its swap (each monomial's swapped key is
    # the key itself) in the monomial table; shat_0^2 = 1 + 2 flip.d_0 then
    # moves z_1, so the chart reaches degree 1
    real = weylspace._monomial_image

    def unswapped_s0(n, i, key):
        swapped, terms = real(n, i, key)
        return (key if i == 0 else swapped), terms

    monkeypatch.setattr(weylspace, "_monomial_image", unswapped_s0)
    monkeypatch.setattr(weylspace, "specialization_check", lambda points: Check(True))
    items = {it.label: it for it in run_suite("weyl", max_n=3, degree_cap=1)}
    for n in (2, 3):
        item = items[f"modified action relations n={n}"]
        assert not item.ok and item.witness == "involutivity of s_0"


def test_relations_check_names_the_braid(monkeypatch):
    # s_1 by the standard action, its divided-difference terms dropped from
    # the monomial table: both generators stay involutions, but the braid
    # relation between them breaks
    real = weylspace._monomial_image

    def standard_s1(n, i, key):
        swapped, terms = real(n, i, key)
        return swapped, (() if i == 1 else terms)

    monkeypatch.setattr(weylspace, "_monomial_image", standard_s1)
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
    # the zero modes are read from a copy of the pencil with That_21 doubled, so T_21^(1) alone is off
    real = monodromy.zero_mode

    def corrupted(pencil, i, j):
        return real(pencil._replace(entries={**pencil.entries, (2, 1): pencil.entry(2, 1) * 2}), i, j)

    monkeypatch.setattr(monodromy, "zero_mode", corrupted)
    bad = {it.label: it.witness for it in run_suite("rtt", max_k=3, max_n=4) if not it.ok}
    assert list(bad) == ["zero-mode exchange"]
    assert bad["zero-mode exchange"].startswith("generator T_21^(1) against That_")


def test_rtt_items_run_within_the_caps():
    # every per-chain item runs on chains within the caps; coassociativity (n = 5) is gated on k alone
    def labels(max_k, max_n):
        return [it.label for it in run_suite("rtt", max_k=max_k, max_n=max_n)]

    assert labels(0, 0) == []
    small = labels(2, 2)
    inside = [name for name, spec in suite_specs().items() if spec.k <= 2 and spec.n <= 2]
    assert inside == ["E1", "E2", "E4"]
    assert [label for label in small if label.startswith("transfer pencil commutes")] == [
        f"transfer pencil commutes {name}" for name in inside
    ]
    assert "zero-mode exchange" in small and "coassociativity" not in small
    assert "zero-mode exchange" not in labels(1, 1)
    assert "coassociativity" in labels(3, 4)


def test_zero_mode_computes_each_generator_once(monkeypatch):
    real = monodromy.zero_mode
    calls = []

    def counted(pencil, i, j):
        calls.append((i, j))
        return real(pencil, i, j)

    monkeypatch.setattr(monodromy, "zero_mode", counted)
    run_suite("rtt", max_k=2, max_n=2)  # E2's caps, where the zero-mode item runs
    assert sorted(calls) == [(i, j) for i in (1, 2) for j in (1, 2)]


def _corrupted_gram(real):
    """form_matrix returning a copy of the Gram matrix with 1 added at (0, 1); the memoised matrix is untouched."""

    def corrupted(spec):
        gram = real(spec).copy()
        gram.put(0, 1, gram.get(0, 1) + 1)
        return gram

    return corrupted


def _shifted_pencil(real):
    """tensor_monodromy returning a copy of the pencil with 1 added at (0, 1) of every entry: breaks contravariance."""

    def corrupted(spec):
        pencil = real(spec)
        entries = {e: m.copy() for e, m in pencil.entries.items()}
        for m in entries.values():
            m.put(0, 1, m.get(0, 1) + Poly((1,)))
        return pencil._replace(entries=entries)

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
        return rec._replace(rhs_stated=rec.rhs_stated * 3)

    return corrupted


def _zero_textbook_norm(real):
    """norm_check with the textbook right-hand side 0 while the left side stays nonzero."""

    def corrupted(spec, y):
        rec = real(spec, y)
        return rec._replace(rhs_stated=Fraction(0))

    return corrupted


@pytest.mark.parametrize(
    "module, attr, corrupt, prefix, detail",
    [
        (shapoform, "form_matrix", _corrupted_gram, "gram symmetric", "first asymmetric entry (0, 1)"),
        (shapoform, "tensor_monodromy", _shifted_pencil, "contravariance", "first failing (i, j, r) ("),
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
def test_norms_items_carry_the_witness(monkeypatch, fresh_caches, module, attr, corrupt, prefix, detail):
    # fresh caches: the memoised coefficient split is then taken from a corrupted pencil, and not kept
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


def test_norms_fail_with_phi_in_place_of_psi(monkeypatch, tmp_path):
    # phi(t) = (q2/q1) psi(t) at a root t of gamma, so every nonempty divisor of a twisted chain fails;
    # on untwisted chains q1 = q2 and the swap changes nothing
    out = tmp_path / "verify.json"
    real = shapoform.char_pair
    monkeypatch.setattr(shapoform, "char_pair", lambda spec: bethe.CharPair(real(spec).phi, real(spec).phi, real(spec).gamma, spec))
    assert cli.main(["verify", "--suite", "norms", "--json", str(out)]) == 1
    failures = json.loads(out.read_text())["suites"]["norms"]["failures"]
    divisors = [f"{name} y={dv.label()}" for name, spec in suite_specs().items() if spec.is_twisted()
                for level in char_pair(spec).divisors[1:] for dv in level]
    assert len(divisors) == 11 and {name.split()[0] for name in divisors} == {"E1", "E4", "E5"}
    assert [f["name"] for f in failures] == [
        label for d in divisors for label in (f"norm {d}", f"norm ratio to textbook {d}")
    ]


def _corrupt_component(fn, when):
    """fn with component 1 of the returned vector shifted by 1 wherever when(roots)."""

    def corrupted(spec, roots):
        vec = dict(fn(spec, roots))
        if when(roots):
            vec[1] = vec.get(1, 0) + 1
        return {j: a for j, a in vec.items() if a}

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


def test_vectors_item_reads_a_missing_entry_as_zero():
    # the vectors differ at indices 1 and 2, first at 1, where only the second has an entry
    a = {0: Fraction(1), 2: Fraction(2)}
    b = {0: Fraction(1), 1: Fraction(3), 2: Fraction(5)}
    assert suites._vectors_item("pair", a, b) == Check(False, "pair", "first differing index 1: 0 vs 3")
    assert suites._vectors_item("pair", b, a).witness == "first differing index 1: 3 vs 0"
    assert suites._vectors_item("pair", a, a) == Check(True, "pair", "")


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
        "gl11chain.superlin._gl_generator",
        "gl11chain.monodromy.tensor_monodromy",
        "gl11chain.monodromy.chain_transfer_pencil",
        "gl11chain.monodromy.chain_transfer_coefficients",
        "gl11chain.bethe.char_pair",
        "gl11chain.bethe._bethe_vector",
        "gl11chain.bethe.transfer_family",
        "gl11chain.bethe.transfer_columns",
        "gl11chain.bethe.level_indices",
        "gl11chain.bethealg.algebra",
        "gl11chain.bethealg.radical",
        "gl11chain.shapoform.form_matrix",
        "gl11chain.fusion.berezinian",
        "gl11chain.fusion.higher_transfer",
        "gl11chain.fusion._generating_oper",
        "gl11chain.fusion.symmetrizers",
        "gl11chain.weylspace._check_degree_drop",
        "gl11chain.weylspace._monomial_image",
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
                monodromy.chain_transfer_pencil, monodromy.chain_transfer_coefficients)
    clear_builder_caches()
    chain = tmp_path / "e4.json"
    chain.write_text(suite_specs()["E4"].to_json())
    assert cli.main(["spectrum", "--spec", str(chain), "--json", str(tmp_path / "report.json")]) == 0
    assert [fn.cache_info().misses for fn in builders] == [1, 1, 1, 3, 1, 1, 1]
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


def test_transfer_commutes_item_names_the_pair(monkeypatch, fresh_caches):
    # x^0 coefficient E_01, x^1 coefficient E_10: they do not commute
    real = monodromy.chain_transfer_pencil
    monkeypatch.setattr(
        monodromy, "chain_transfer_pencil", lambda spec: _constant_pencil(real(spec).nrows, {(0, 1): [1], (1, 0): [0, 1]})
    )
    items = {it.label: it for it in run_suite("rtt", max_k=3, max_n=4)}
    for name in suite_specs():
        item = items[f"transfer pencil commutes {name}"]
        assert not item.ok and item.witness == "coefficient pair (0, 1)"


def test_transfer_symmetry_item_names_the_generator(monkeypatch, fresh_caches):
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


def _corrupted_c1(real, target):
    """transfer_family whose C_1 at the target (spec, level) is a copy with 1 added at (0, 1)."""

    def corrupted(spec, level):
        fam = real(spec, level)
        if (spec, level) != target:
            return fam
        c1 = fam.ops[1].copy()
        c1.put(0, 1, c1.get(0, 1) + 1)
        return bethe.TransferFamily(fam.spec, fam.level, fam.basis, fam.index, [fam.ops[0], c1, *fam.ops[2:]])

    return corrupted


def test_noncommuting_family_fails_spectral_dims(monkeypatch):
    # E4 at level 1 is 2-dimensional and C_0 is not scalar there, so the corrupted C_1 does not
    # commute with it; the copy leaves the shared family intact
    clean = [it.label for it in run_suite("algebra")]
    target = (suite_specs()["E4"], 1)
    assert bethe.transfer_family(*target).dim == 2
    monkeypatch.setattr(bethealg, "transfer_family", _corrupted_c1(bethealg.transfer_family, target))
    items = run_suite("algebra")
    assert [it.label for it in items] == clean
    bad = {it.label: it.witness for it in items if not it.ok}
    assert bad["spectral dims E4 l=1"] == "family not commutative: operators 0 and 1"
    assert all(detail for detail in bad.values())


def _shifted_eigenvalue(real):
    return lambda y, spec: real(y, spec) + Poly((1,))


def _identity_algebra(real):
    return lambda fam: (1, [ExactMatrix.identity(fam.dim)])


@pytest.mark.parametrize(
    "module, attr, corrupt, prefix",
    [
        (bethealg, "eigenvalue_pencil", _shifted_eigenvalue, "presentation "),
        (bethealg, "algebra_dimension", _identity_algebra, "regular representation "),
        # the characters the level's transfer family reads: its eigenvalues' coefficients
        (bethe, "eigenvalue_pencil", _shifted_eigenvalue, "spectral dims "),
    ],
    ids=["presentation", "regular-representation", "spectral-dims"],
)
def test_algebra_items_carry_the_witness(monkeypatch, fresh_caches, module, attr, corrupt, prefix):
    monkeypatch.setattr(module, attr, corrupt(getattr(module, attr)))
    bad = [it for it in run_suite("algebra") if it.label.startswith(prefix) and not it.ok]
    assert bad
    assert all(it.witness for it in bad), bad


def test_algebra_suite_builds_each_algebra_once(monkeypatch):
    # the algebra is memoised per family, so a run after an earlier one would build none
    clear_builder_caches()
    real = bethealg.algebra_dimension
    calls = []

    def counted(fam):
        calls.append((fam.spec, fam.level))
        return real(fam)

    monkeypatch.setattr(bethealg, "algebra_dimension", counted)
    families = [it for it in run_suite("algebra") if it.label.startswith("algebra dim ")]
    assert len(calls) == len(set(calls)) == len(families) == 19


def test_algebra_suite_tells_a_dropped_generator(monkeypatch, fresh_caches):
    # on every default chain C_0 alone generates each level's algebra; on k5, which joins from
    # --max-k 5 --max-n 7, the first non-scalar coefficient spans 2 of 4 at l=1 and 3 of 6 at l=2
    assert not [it for it in run_suite("algebra") if "k5" in it.label]
    full = run_suite("algebra", max_k=5, max_n=7)
    assert all(full) and "algebra dim k5 l=1" in [it.label for it in full]
    clear_builder_caches()
    real = bethealg.generators
    monkeypatch.setattr(bethealg, "generators", lambda fam: real(fam)[:1])
    bad = {it.label: it.witness for it in run_suite("algebra", max_k=5, max_n=7) if not it.ok}
    assert bad["algebra dim k5 l=1"] == "2 != 4"
    assert bad["algebra dim k5 l=2"] == "3 != 6"
    assert all(" k5 " in label for label in bad)


@pytest.mark.parametrize("name, products", [("bethe", 22), ("algebra", 40)])
def test_suite_matrix_products(monkeypatch, name, products):
    # from empty caches: the commutativity test multiplies no pair with a scalar coefficient, and
    # each algebra is saturated over the non-scalar coefficients alone
    clear_builder_caches()
    calls = []
    matmul = ExactMatrix.__matmul__
    monkeypatch.setattr(ExactMatrix, "__matmul__", lambda self, other: calls.append(1) or matmul(self, other))
    assert all(run_suite(name))
    assert len(calls) == products


def _count_fraction_products(monkeypatch) -> dict:
    """Count FracMatrix products, the ExactMatrix products they reach, and FracMatrix inverses from here on."""
    counts = {"@": 0, "matmul": 0, "inverse": 0}
    real_matmul, real_exact, real_inverse = FracMatrix.__matmul__, ExactMatrix.__matmul__, FracMatrix.inverse
    depth = [0]

    def matmul(self, other):
        counts["@"] += 1
        depth[0] += 1
        try:
            return real_matmul(self, other)
        finally:
            depth[0] -= 1

    def exact(self, other):
        counts["matmul"] += depth[0] > 0
        return real_exact(self, other)

    def inverse(self):
        counts["inverse"] += 1
        return real_inverse(self)

    monkeypatch.setattr(FracMatrix, "__matmul__", matmul)
    monkeypatch.setattr(ExactMatrix, "__matmul__", exact)
    monkeypatch.setattr(FracMatrix, "inverse", inverse)
    return counts


def test_fusion_suite_fraction_products(monkeypatch):
    # from empty caches: the inverse tau-series by its coefficient recurrence, an identity tau^0 term
    # not inverted (576 products and 52 inverses by the Neumann series).  A product with a scalar factor
    # is a scaling: 482 FracMatrix products, 63 of them inverse_series's by -c_0^-1 = -1, reach
    # ExactMatrix @ 282 times (419 of 419 when every product was a matrix product)
    clear_builder_caches()
    counts = _count_fraction_products(monkeypatch)
    assert all(run_suite("fusion"))
    assert counts["matmul"] <= 282 and counts["@"] <= 482 and counts["inverse"] <= 36


def test_spectrum_fraction_products_on_k3(monkeypatch):
    # the k3 fixture's spectrum phases: 70 products and 7 inverses by the Neumann series; the
    # 58 FracMatrix products reach ExactMatrix @ 36 times (49 of 49 before the scalings)
    clear_builder_caches()
    spec = ModuleSpec.from_json((Path(__file__).resolve().parent.parent / "perfbench" / "fixtures" / "k3.json").read_text())
    counts = _count_fraction_products(monkeypatch)
    assert completeness_report(spec).all_ok() and berezinian(spec)
    assert all(c.ok for per_m in fusion.transfer_relation_check(spec, 3) for c in per_m)
    assert counts["matmul"] <= 36 and counts["@"] <= 58 and counts["inverse"] <= 4


def test_level_data_built_once_per_chain(monkeypatch):
    # over every level of k5, each coefficient C_d is transposed once and the weight spaces are grouped once
    clear_builder_caches()
    spec = ModuleSpec.from_json(K5)
    coefficients = monodromy.chain_transfer_coefficients(spec)
    transposed, grouped = [], []
    real_transpose, real_group = ExactMatrix.transpose, bethe.weight_spaces
    monkeypatch.setattr(ExactMatrix, "transpose", lambda self: transposed.append(id(self)) or real_transpose(self))
    monkeypatch.setattr(bethe, "weight_spaces", lambda *args: grouped.append(args) or real_group(*args))
    families = [bethe.transfer_family(spec, level) for level in range(spec.k + 1)]
    assert sum(fam.dim for fam in families) > 0
    assert [transposed.count(id(m)) for m in coefficients] == [1] * len(coefficients)
    assert len(transposed) == len(coefficients) and len(grouped) == 1


def test_bethe_and_algebra_suites_share_one_family_per_level(monkeypatch):
    # the completeness reports and the algebra suite read one transfer family per (chain, level),
    # whose joint spaces are solved once per (chain, level) that has divisors
    clear_builder_caches()
    memo = bethe.transfer_family
    requests = []
    for module in (bethe, bethealg):
        monkeypatch.setattr(module, "transfer_family", lambda *key: requests.append(key) or memo(*key))
    real = bethe.joint_generalized_eigenspaces
    solves = []
    monkeypatch.setattr(bethe, "joint_generalized_eigenspaces", lambda ops, chars: solves.append(1) or real(ops, chars))
    assert all(run_suite("bethe")) and all(run_suite("algebra"))
    keys = set(requests)
    assert memo.cache_info().misses == len(keys) < len(requests)
    assert len(solves) == len([key for key in keys if memo(*key).divisors])


def test_gl_generators_built_once_per_key(monkeypatch):
    # e_11, e_22 and e_12 of a chain are shared by the rtt suite's symmetry checks,
    # the singular subspaces and the bethe suite's singular-vector checks
    clear_builder_caches()
    memo = superlin._gl_generator
    requests = []
    monkeypatch.setattr(superlin, "_gl_generator", lambda *key: requests.append(key) or memo(*key))
    for name in ("rtt", "bethe", "algebra", "norms"):
        assert all(run_suite(name))
    assert memo.cache_info().misses == len(set(requests)) == 14


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
