"""scripts/ab_pairs.py: one table per workload of a comma-separated --workload list, on checkouts without bytecode."""

import importlib.util
import json
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load():
    spec = importlib.util.spec_from_file_location("ab_pairs", ROOT / "scripts" / "ab_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _checkout(path: Path) -> Path:
    """A stand-in checkout: the benchmark's declaration and a package tree with no bytecode."""
    (path / "src" / "gl11chain").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", path / "BENCHMARK.json")
    return path


def test_each_workload_gets_its_pairs_and_table(monkeypatch, capsys, tmp_path):
    ab = _load()
    calls = []
    parent, change = _checkout(tmp_path / "parent"), _checkout(tmp_path / "change")
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]

    def fake_run(checkout, workload, seed, seconds):
        calls.append((workload, seed))
        value = 1.0 if checkout == parent else 0.5
        return {"correct": True, "failed": 0, "metrics": {n: {"value": value + seed / 1000} for n in names}}

    monkeypatch.setattr(ab, "run_once", fake_run)
    assert ab.main([str(parent), str(change), "--workload", "verify_core,fusion", "--pairs", "2",
                    "--seed-base", "7"]) == 0
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("==")] == ["== verify_core", "== fusion"]
    assert calls == [(w, s) for w in ("verify_core", "fusion") for s in (7, 7, 8, 8)]
    assert out.count("won 2/2  gain") == 2 * len(names)


def test_a_checkout_with_bytecode_is_refused_before_any_run(monkeypatch, capsys, tmp_path):
    ab = _load()
    calls = []
    parent, change = _checkout(tmp_path / "parent"), _checkout(tmp_path / "change")
    cache = change / "src" / "gl11chain" / "__pycache__"
    cache.mkdir()
    (cache / "chain.cpython-311.pyc").write_bytes(b"")
    monkeypatch.setattr(ab, "run_once", lambda *args: calls.append(args))
    assert ab.main([str(parent), str(change), "--workload", "fusion", "--pairs", "2", "--seed-base", "7"]) == 2
    assert calls == []
    assert str(cache) in capsys.readouterr().err
    assert (cache / "chain.cpython-311.pyc").exists()  # nothing is deleted
