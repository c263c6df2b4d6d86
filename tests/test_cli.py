import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gl11chain.cli import main
from gl11chain.exactnum import parse_scalar, roots_with_multiplicity
from gl11chain.monodromy import ModuleSpec


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

    def test_malformed_twist_exits_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"weights": [[1,0]], "points": ["0"], "twist": ["0","1"]}')
        assert main(["spectrum", "--spec", str(p)]) == 2

    @pytest.mark.parametrize(
        "text",
        [
            '{"weights": [[1]], "points": ["0"], "twist": ["1","1"]}',
            '{"weights": [[1,0]], "points": [0.5], "twist": ["1","1"]}',
            '{"weights": [[1,0]], "points": ["0"], "twist": ["1"]}',
            "[1,2]",
            '{"weights": [[true,0]], "points": ["0"], "twist": ["1","1"]}',
            '{"weights": [[1,0]], "points": ["1/0"], "twist": ["1","1"]}',
        ],
        ids=["short-weight", "float-point", "short-twist", "top-level-list", "bool-weight", "zero-denominator"],
    )
    def test_malformed_spec_exits_2(self, tmp_path, capsys, text):
        p = tmp_path / "bad.json"
        p.write_text(text)
        assert main(["spectrum", "--spec", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip()) > len("error:")

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
        assert failures and "witness" in failures[0]["detail"]

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
        from gl11chain.monodromy import cyclicity_and_irreducibility

        for seed in (1, 2, 3, 7):
            p = tmp_path / f"s{seed}.json"
            assert main(["random-spec", "--seed", str(seed), "--k", "2", "--out", str(p)]) == 0
            spec = ModuleSpec.from_file(p)
            assert cyclicity_and_irreducibility(spec)[0]

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
