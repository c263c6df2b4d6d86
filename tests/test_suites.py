import pytest

from gl11chain import cli
from gl11chain.suites import run_suite, suite_specs
from gl11chain.fusion import berezinian, higher_transfer
from gl11chain.monodromy import cyclicity_and_irreducibility, tensor_monodromy
from gl11chain.bethe import char_pair
from gl11chain.shapoform import form_matrix


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


def test_injected_bug_caught():
    items = run_suite("rtt", inject_sign_bug=True)
    assert any(not it.ok for it in items)


def test_injected_bug_leaves_shared_pencils_intact():
    # the corrupted pencil is a copy: a clean run in the same process still passes
    injected = run_suite("rtt", inject_sign_bug=True)
    clean = run_suite("rtt")
    assert any(not it.ok for it in injected)
    assert not [it for it in clean if not it.ok]


def test_derived_objects_built_once_per_chain(tmp_path):
    builders = (tensor_monodromy, form_matrix, berezinian, higher_transfer)
    for fn in builders:
        fn.cache_clear()
    chain = tmp_path / "e4.json"
    chain.write_text(suite_specs()["E4"].to_json())
    assert cli.main(["spectrum", "--spec", str(chain), "--json", str(tmp_path / "report.json")]) == 0
    assert [fn.cache_info().misses for fn in builders] == [1, 1, 1, 3]
    form_matrix.cache_clear()
    run_suite("norms")
    assert form_matrix.cache_info().misses == len(suite_specs())
