"""Tests of the benchmark itself: the output checker must be able to fail.

Run with: python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run

BETHE = run.Command("verify-bethe", ("verify", "--suite", "bethe"), "verify")


@pytest.fixture
def bench(tmp_path):
    """A verify_core run whose command list the test sets, writing under tmp_path."""
    reference = run.load_reference()
    b = run.Run("verify_core", 1, 0, reference["outputs"])
    b.out_dir = tmp_path
    return b


def fail_ratio(b: run.Run) -> float:
    return b.failed / b.attempted


def test_correct_report_passes(bench):
    bench.cmds = [BETHE]
    bench.one_pass()
    assert fail_ratio(bench) == 0


def test_tampered_report_counts_as_failure(bench, monkeypatch):
    real_execute = run.execute

    def execute_then_tamper(argv, stderr_path, deadline):
        result = real_execute(argv, stderr_path, deadline)
        report = Path(argv[argv.index("--json") + 1])
        doc = json.loads(report.read_text())
        doc["suites"]["bethe"]["passed"] += 1
        report.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return result

    monkeypatch.setattr(run, "execute", execute_then_tamper)
    bench.cmds = [BETHE]
    outcomes = bench.one_pass()
    assert outcomes[0].failure == "output differs from the reference digest"
    assert fail_ratio(bench) == 1


def test_injected_sign_bug_counts_as_failure(bench):
    # The negative-control flag makes the rtt suite fail; run as if it should pass.
    bench.cmds = [run.Command("verify-rtt", ("verify", "--suite", "rtt", "--inject-sign-bug"), "verify")]
    outcomes = bench.one_pass()
    assert outcomes[0].failure == "exit code 1"
    assert fail_ratio(bench) == 1


def test_traced_call_counts_repeat(tmp_path):
    reference = run.load_reference()["outputs"]
    aggs = []
    for i in range(2):
        trace_dir = tmp_path / f"trace-{i}"
        trace_dir.mkdir()
        outcomes = run.run_pass([BETHE], tmp_path, reference, time.monotonic() + 120, trace_dir)
        assert outcomes[0].failure is None
        traces, agg = run.merge_traces(trace_dir, outcomes)
        assert traces[0]["spans"][0][3] == "cli.main"
        aggs.append(agg)
    assert aggs[0]["calls"] == aggs[1]["calls"]
    assert aggs[0]["calls"]["bethe.completeness_report"] > 0
    assert aggs[0]["calls"]["exactnum.RatFun"] > 0
    # bethe and suites call it through their own `from .exactnum import` copies
    assert aggs[0]["calls"]["exactnum.roots_with_multiplicity"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "weyl", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
