import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gl11chain import cli, suites
from gl11chain.cli import SUITES, main
from gl11chain.exactnum import RootSearchTooLarge, parse_scalar, roots_with_multiplicity
from gl11chain.chain import ModuleSpec
from conftest import clear_builder_caches


E2_TEXT = '{"weights": [[1,0],[1,0]], "points": ["0","1/2"], "twist": ["1","1"]}\n'
E3_TEXT = '{"weights": [[1,0],[1,0],[1,0]], "points": ["0","1/2","-1/2"], "twist": ["1","1"]}\n'


@pytest.fixture
def e2_file(tmp_path):
    p = tmp_path / "e2.json"
    p.write_text(E2_TEXT)
    return str(p)


@pytest.fixture
def e3_file(tmp_path):
    p = tmp_path / "e3.json"
    p.write_text(E3_TEXT)
    return str(p)


class TestSpectrum:
    def test_e2_levels_and_eigenvalues(self, e2_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["spectrum", "--spec", e2_file, "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        eigs = [lv["divisors"][0]["eigenvalue"] for lv in doc["levels"]]
        assert eigs == [["1/2", "2"], ["-3/2", "2"]]
        assert doc["consistent"] is True

    def test_double_root_generalized_dims(self, e3_file, tmp_path):
        out = tmp_path / "report.json"
        assert main(["spectrum", "--spec", e3_file, "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        dims = [e["generalized_dim"] for lv in doc["levels"] for e in lv["divisors"]]
        assert dims == [1, 2, 1]

    def test_level_filter(self, e2_file, tmp_path):
        out = tmp_path / "report.json"
        assert main(["spectrum", "--spec", e2_file, "--level", "1", "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert [lv["level"] for lv in doc["levels"]] == [1]

    @pytest.mark.parametrize("level", ["-1", "3"], ids=["negative", "above-site-count"])
    def test_level_out_of_range_exits_2(self, e2_file, capsys, level):
        assert main(["spectrum", "--spec", e2_file, "--level", level]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --level {level} is outside 0..2 for a chain of 2 sites\n"

    def test_level_at_site_count_accepted(self, e2_file, tmp_path):
        # E2 is untwisted: level 2 has no singular vectors, so no level is reported
        out = tmp_path / "report.json"
        assert main(["spectrum", "--spec", e2_file, "--level", "2", "--json", str(out)]) == 0
        assert json.loads(out.read_text())["levels"] == []

    def test_malformed_twist_exits_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"weights": [[1,0]], "points": ["0"], "twist": ["0","1"]}')
        assert main(["spectrum", "--spec", str(p)]) == 2

    @pytest.mark.parametrize(
        "text, needle",
        [
            ('{"weights": [[1]], "points": ["0"], "twist": ["1","1"]}', "pair of integers"),
            ('{"weights": [[1,0]], "points": [0.5], "twist": ["1","1"]}', "0.5"),
            ('{"weights": [[1,0]], "points": ["0"], "twist": ["1"]}', "exactly two"),
            ("[1,2]", "JSON object"),
            ('{"weights": [[true,0]], "points": ["0"], "twist": ["1","1"]}', "pair of integers"),
            ('{"weights": [[1,0]], "points": ["1/0"], "twist": ["1","1"]}', "zero denominator"),
            ('{"weights": [[1,0],[1,0]], "points": ["0","1"], "twist": ["1","1"]}', "not cyclic"),
            ('{"points": ["0"], "twist": ["1","1"]}', "weights"),
            ('{"weights": [[0,0]], "points": ["0"], "twist": ["1","2"]}', "weight (0, 0) is degenerate"),
            ('{"weights": [[0,0]], "points": ["0"], "twist": ["1","1"]}', "weight (0, 0) is degenerate"),
            ('{"weights": [[0,1]], "points": ["0"], "twist": ["1","2"]}', "weight (0, 1) is not polynomial"),
            # gammas whose split test would enumerate divisors of 18- and 19-digit integers
            (
                '{"weights": [[1,0],[1,0]], "points": ["1000000000000000003","1"], "twist": ["1","1"]}',
                "split test refused",
            ),
            (
                '{"weights": [[1,0],[1,0],[1,0]], "points": ["349523/487926","-733256/756115","709067/735017"],'
                ' "twist": ["1","1"]}',
                "split test refused",
            ),
        ],
        ids=[
            "short-weight", "float-point", "short-twist", "top-level-list", "bool-weight", "zero-denominator",
            "non-cyclic", "missing-key", "degenerate-weight", "degenerate-weight-equal-twist",
            "non-polynomial-weight", "huge-point", "six-digit-rational-points",
        ],
    )
    def test_malformed_spec_exits_2(self, tmp_path, capsys, text, needle):
        p = tmp_path / "bad.json"
        p.write_text(text)
        assert main(["spectrum", "--spec", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip()) > len("error:")
        assert needle in err and "Fraction(" not in err

    def test_missing_file_exits_2(self):
        assert main(["spectrum", "--spec", "/nonexistent/chain.json"]) == 2

    def test_report_numbers_are_exact_strings(self, e2_file, tmp_path):
        out = tmp_path / "report.json"
        main(["spectrum", "--spec", e2_file, "--json", str(out)])
        doc = json.loads(out.read_text())
        for norm in doc["norms"]:
            parse_scalar(norm["lhs"])
            parse_scalar(norm["rhs"])

    def test_determinism(self, e2_file, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["spectrum", "--spec", e2_file, "--json", str(a)])
        main(["spectrum", "--spec", e2_file, "--json", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestVerify:
    def test_rtt_suite_passes(self, tmp_path):
        out = tmp_path / "verify.json"
        code = main(["verify", "--suite", "rtt", "--max-n", "3", "--json", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["ok"] is True
        assert doc["suites"]["rtt"]["failed"] == 0

    def test_injected_bug_fails_with_witness(self, tmp_path):
        out = tmp_path / "verify.json"
        code = main(["verify", "--suite", "rtt", "--max-n", "3", "--inject-sign-bug", "--json", str(out)])
        assert code == 1
        doc = json.loads(out.read_text())
        failures = doc["suites"]["rtt"]["failures"]
        assert failures == [{"name": "rtt tensor E1", "detail": "witness (1, 2, 2, 1, 0, 1)"}]

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["--suite", "fusion", "--max-n", "2", "--max-m", "1"], 0),
            (["--suite", "fusion", "--max-n", "2", "--max-m", "0"], 0),
            (["--suite", "fusion", "--max-m", "-1"], 2),
            (["--suite", "weyl", "--max-n", "2", "--degree-cap", "-1"], 2),
            (["--suite", "fusion", "--tau-order", "-1"], 2),
            (["--suite", "rtt", "--max-k", "-1"], 2),
            (["--suite", "rtt", "--max-n", "-1"], 2),
        ],
        ids=["max-m-1", "max-m-0", "neg-max-m", "neg-degree-cap", "neg-tau-order", "neg-max-k", "neg-max-n"],
    )
    def test_cap_exit_codes(self, tmp_path, capsys, argv, code):
        try:
            got = main(["verify", *argv, "--json", str(tmp_path / "verify.json")])
        except SystemExit as exc:
            got = exc.code
        assert got == code
        if code == 2:
            assert "non-negative" in capsys.readouterr().err

    def test_every_suite_name_dispatches(self, monkeypatch, capsys):
        for name in SUITES:
            monkeypatch.setattr(suites, f"run_{name}_suite", lambda *args, name=name: [name])
        assert [suites.run_suite(name) for name in SUITES] == [[name] for name in SUITES]
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus"])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_verify_json_deterministic(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["verify", "--suite", "rtt", "--max-n", "2", "--json", str(a)])
        main(["verify", "--suite", "rtt", "--max-n", "2", "--json", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestRandomSpec:
    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["random-spec", "--seed", "1", "--k", "2", "--out", str(a)]) == 0
        assert main(["random-spec", "--seed", "1", "--k", "2", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_cyclic_by_construction(self, tmp_path):
        from gl11chain.chain import cyclicity_and_irreducibility

        for seed in (1, 2, 3, 7):
            p = tmp_path / f"s{seed}.json"
            assert main(["random-spec", "--seed", str(seed), "--k", "2", "--out", str(p)]) == 0
            spec = ModuleSpec.from_file(p)
            assert cyclicity_and_irreducibility(spec)[0]

    def test_split_candidates_are_not_memoised(self, tmp_path):
        # every rejected candidate is a fresh chain: memoising its char_pair would only grow the cache
        from gl11chain.bethe import char_pair

        clear_builder_caches()
        assert main(["random-spec", "--seed", "3", "--k", "4", "--split", "--out", str(tmp_path / "c.json")]) == 0
        assert char_pair.cache_info().currsize == 0

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["--k", "0"], 2, "--k must be a positive integer"),
            (["--k", "-1"], 2, "--k must be a positive integer"),
            (["--k", "2", "--weight-budget", "-3"], 2, "below --k"),
            (["--k", "3", "--weight-budget", "2"], 2, "below --k"),
            (["--k", "2", "--weight-budget", "2"], 0, ""),
        ],
        ids=["k-0", "k-negative", "budget-negative", "budget-below-k", "budget-equals-k"],
    )
    def test_argument_contract(self, capsys, argv, code, message):
        assert main(["random-spec", "--seed", "1", *argv]) == code
        captured = capsys.readouterr()
        if code == 2:
            assert captured.out == "" and captured.err.startswith("error: ") and message in captured.err
        else:
            weights = json.loads(captured.out)["weights"]
            assert sum(l1 + l2 for l1, l2 in weights) <= 2

    def test_refused_split_test_exits_2(self, monkeypatch, capsys):
        def refuse(p):
            raise RootSearchTooLarge("split test refused: stand-in")

        monkeypatch.setattr(cli.exactnum, "roots_with_multiplicity", refuse)
        assert main(["random-spec", "--seed", "1", "--k", "2", "--split"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: split test refused: stand-in\n"

    def test_split_mode(self, tmp_path):
        from gl11chain.bethe import char_pair

        p = tmp_path / "s.json"
        assert main(["random-spec", "--seed", "5", "--k", "3", "--split", "--twisted", "--out", str(p)]) == 0
        spec = ModuleSpec.from_file(p)
        assert spec.is_twisted()
        gamma = char_pair(spec).gamma
        assert roots_with_multiplicity(gamma) is not None


def test_spectral_survey_script():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "spectral_survey.py")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert sum(line.startswith("== ") for line in lines) == 7
    assert sum("equal=True" in line for line in lines) == 25
    assert "equal=False" not in proc.stdout


# --help runs the CLI alone.  random-spec adds the chain layer, every other command the pencils
# as well, and verify the suites.
CHAIN = {"chain", "exactnum"}
PENCILS = CHAIN | {"monodromy", "superlin", "linalg"}
VERIFY = PENCILS | {"suites"}
# Prints, after the command, the gl11chain modules that were run (type() does not load a lazy module),
# and which of dataclasses and inspect were loaded that the interpreter had not loaded before gl11chain.
LOAD_PROBE = """\
import json, sys, types
STDLIB = {"dataclasses", "inspect"}
preloaded = STDLIB & set(sys.modules)
from gl11chain.cli import main
try:
    sys.exit(main(sys.argv[1:]))
finally:
    names = (n for n, m in sys.modules.items() if n.startswith("gl11chain.") and type(m) is types.ModuleType)
    print(json.dumps([sorted(n.split(".")[1] for n in names), sorted(STDLIB & set(sys.modules) - preloaded)]))
"""
LAZY_PROBE = """\
import importlib, json, sys, types
import gl11chain
names = [f"gl11chain.{m}" for m in gl11chain._LAZY]
unloaded = [n for n in names if type(sys.modules[n]) is not types.ModuleType]
defined = {n: [k for k, v in vars(importlib.import_module(n)).items() if getattr(v, "__module__", None) == n]
           for n in names}
print(json.dumps([names, unloaded, defined]))
"""


def _probe(code: str, *argv: str) -> list:
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120, cwd=root
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["--help"], set()),
        (["random-spec", "--seed", "1", "--k", "3", "--weight-budget", "5", "--split", "--twisted"], CHAIN),
        (["verify", "--suite", "rtt"], VERIFY),
        (["verify", "--suite", "bethe"], VERIFY | {"bethe"}),
        (["verify", "--suite", "algebra"], VERIFY | {"bethe", "bethealg"}),
        (["verify", "--suite", "norms"], VERIFY | {"bethe", "shapoform"}),
        (["verify", "--suite", "fusion"], VERIFY | {"bethe", "fusion"}),
        (["verify", "--suite", "weyl"], VERIFY | {"weylspace"}),
        (["spectrum", "--spec", "E2"], PENCILS | {"bethe", "fusion", "shapoform"}),
    ],
    ids=["help", "random-spec", "rtt", "bethe", "algebra", "norms", "fusion", "weyl", "spectrum"],
)
def test_command_runs_only_the_modules_it_uses(e2_file, argv, extra):
    argv = [e2_file if a == "E2" else a for a in argv]
    modules, stdlib = _probe(LOAD_PROBE, *argv)
    assert set(modules) == {"cli"} | extra
    assert stdlib == []


def test_lazy_modules_load_on_import():
    names, unloaded, defined = _probe(LAZY_PROBE)
    assert len(names) == 11 and unloaded == names
    assert all(defined[n] for n in names), defined
