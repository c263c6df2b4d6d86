"""scripts/ab_pairs.py: one table per workload of a comma-separated --workload list."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load():
    spec = importlib.util.spec_from_file_location("ab_pairs", ROOT / "scripts" / "ab_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_workload_gets_its_pairs_and_table(monkeypatch, capsys):
    ab = _load()
    calls = []
    parent = ROOT / "parent"
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]

    def fake_run(checkout, workload, seed, seconds):
        calls.append((workload, seed))
        value = 1.0 if checkout == parent else 0.5
        return {"correct": True, "failed": 0, "metrics": {n: {"value": value + seed / 1000} for n in names}}

    monkeypatch.setattr(ab, "run_once", fake_run)
    assert ab.main([str(parent), str(ROOT), "--workload", "verify_core,fusion", "--pairs", "2",
                    "--seed-base", "7"]) == 0
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("==")] == ["== verify_core", "== fusion"]
    assert calls == [(w, s) for w in ("verify_core", "fusion") for s in (7, 7, 8, 8)]
    assert out.count("won 2/2  gain") == 2 * len(names)
