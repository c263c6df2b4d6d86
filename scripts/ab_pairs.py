#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, summarised by the gain rule.

Usage:
  python3 scripts/ab_pairs.py PARENT CHANGE --workload split_search --pairs 10 --seed-base 101
  python3 scripts/ab_pairs.py PARENT CHANGE --workload verify_core,fusion,weyl --pairs 3 --seed-base 101

PARENT and CHANGE are two checkouts of the repository.  Pair i runs
`perfbench/run.py --workload W --seed (seed-base + i) --trace 0` in each, the
parent first in even pairs and the change first in odd ones, so a drift in
machine speed falls on both sides.  --workload takes a comma-separated list;
the workloads run one after another, each with its own pairs and table.  Each run writes its outputs in its own
checkout's perfbench/out; this script writes nothing itself.

For every end-to-end metric of the change's BENCHMARK.json it prints both
medians, both quartiles and the number of pairs the change won (ties count
for neither side).  A gain holds when the change won at least nine tenths of
the pairs and the medians differ by more than the parent's quartile
distance.  Exits 1 when a run fails or reports an incorrect output.

Before any pair runs, it exits 2 when the src tree of either checkout holds a
`__pycache__` directory, and names the first: compiled bytecode makes that
side's commands about 30 % faster, since each benchmark command compiles the
package afresh.  It deletes nothing; remove the caches and rerun.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles


def run_once(checkout: Path, workload: str, seed: int, seconds: "float | None") -> dict:
    """The last stdout line of one benchmark run: {correct, attempted, failed, metrics}."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        argv += ["--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{checkout}: run.py exited {proc.returncode}: {proc.stderr[-400:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def bytecode_cache(checkout: Path) -> "Path | None":
    """The first `__pycache__` directory under checkout/src, in path order; None when there is none."""
    return next((path for path in sorted((checkout / "src").rglob("__pycache__")) if path.is_dir()), None)


def summarise(name: str, better: str, parent: list[float], change: list[float]) -> str:
    """One table row: medians, quartiles, wins and the verdict of the gain rule."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    q1p, _, q3p = quantiles(parent, n=4)
    q1c, _, q3c = quantiles(change, n=4)
    mp, mc = median(parent), median(change)
    gain = wins >= 0.9 * len(parent) and sign * (mp - mc) > q3p - q1p
    return (f"{name:14s} parent {mp:10.5g} [{q1p:.5g}, {q3p:.5g}]  change {mc:10.5g} [{q1c:.5g}, {q3c:.5g}]  "
            f"{(mc - mp) / mp:+7.1%}  won {wins}/{len(parent)}  {'gain' if gain else 'no gain'}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None, help="passed to run.py; its default when omitted")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, for quartiles")
    for checkout in (args.parent, args.change):
        cache = bytecode_cache(checkout)
        if cache is not None:
            print(f"error: {cache} holds compiled bytecode, which would speed that side up; remove it and rerun",
                  file=sys.stderr)
            return 2

    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    bad = 0
    for workload in args.workload.split(","):
        print(f"== {workload}", flush=True)
        bad += run_pairs(args, workload, metrics)
    print(f"runs with an incorrect output or a failed command: {bad}")
    return 1 if bad else 0


def run_pairs(args, workload: str, metrics: list[dict]) -> int:
    """Run and print the pairs of one workload, then its table; the number of bad runs."""
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    bad = 0
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            doc = run_once(getattr(args, side), workload, seed, args.seconds)
            runs[side].append(doc)
            bad += not doc["correct"] or doc["failed"] > 0
        values = {side: runs[side][-1]["metrics"] for side in runs}
        print(f"pair {i + 1} seed {seed} ({order[0]} first): " + "  ".join(
            f"{m['name']} {values['parent'][m['name']]['value']:.5g} -> {values['change'][m['name']]['value']:.5g}"
            for m in metrics), flush=True)
    for m in metrics:
        parent = [doc["metrics"][m["name"]]["value"] for doc in runs["parent"]]
        change = [doc["metrics"][m["name"]]["value"] for doc in runs["change"]]
        print(summarise(m["name"], m["better"], parent, change))
    return bad


if __name__ == "__main__":
    sys.exit(main())
