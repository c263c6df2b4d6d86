"""Generic-parameter robustness: pipeline checks on generated chains.

The deterministic generator supplies cyclic chains with split
characteristic polynomials; the identities must hold for all of them, not
just the hand-picked benchmarks.
"""

import pytest

from gl11chain.cli import main
from gl11chain.chain import ModuleSpec, cyclicity_and_irreducibility
from gl11chain.monodromy import tensor_monodromy, verify_rtt
from gl11chain.bethe import char_pair, completeness_report, verify_on_shell
from gl11chain.shapoform import form_matrix, norm_check


@pytest.fixture(params=[11, 23, 37], ids=lambda s: f"seed{s}")
def generated_spec(request, tmp_path):
    out = tmp_path / "chain.json"
    code = main(
        ["random-spec", "--seed", str(request.param), "--k", "2", "--split", "--out", str(out)]
    )
    assert code == 0
    return ModuleSpec.from_file(out)


def test_generated_chain_full_pipeline(generated_spec):
    spec = generated_spec
    cyclic, irreducible = cyclicity_and_irreducibility(spec)
    assert cyclic
    assert verify_rtt(tensor_monodromy(spec)).ok
    cp = char_pair(spec)
    gram = form_matrix(spec)
    assert gram == gram.transpose() and gram.get(0, 0) == 1
    for level in range(cp.gamma.degree + 1):
        for dv in cp.divisors[level]:
            assert verify_on_shell(spec, dv).ok
            assert norm_check(spec, dv).equal
    rep = completeness_report(spec)
    assert all(
        lv.subspace_dim == sum(e.generalized_dim for e in lv.entries) for lv in rep.levels
    )
    if irreducible:
        assert rep.all_ok()


def test_generated_twisted_chain(tmp_path):
    out = tmp_path / "chain.json"
    assert main(["random-spec", "--seed", "4", "--k", "3", "--split", "--twisted", "--out", str(out)]) == 0
    spec = ModuleSpec.from_file(out)
    assert spec.is_twisted()
    assert verify_rtt(tensor_monodromy(spec)).ok
    cp = char_pair(spec)
    for level in range(cp.gamma.degree + 1):
        for dv in cp.divisors[level]:
            assert verify_on_shell(spec, dv).ok
