"""Command line interface: spectral reports, verification suites, chain files.

Exit codes: 0 all checks passed, 1 a verification failed, 2 bad input,
an output path that cannot be written and caps under which a suite runs no
item included.  A command creates or empties its output file before it
computes.
Reports are JSON with every number rendered as an exact "p/q" string; the
same inputs always produce byte-identical report files (wall-clock timing
goes to stderr only).
A command process skips the interpreter's teardown collections: `main`
registers `gc.freeze` to run at exit, so the collector leaves the objects
the command built and every module's graph to the operating system.  An
in-process `main()` caller is unaffected: nothing is frozen until the
interpreter exits.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import random
import sys
import time
from fractions import Fraction

# every gl11chain module is lazy (see __init__), so a command runs only the modules it reads
from . import bethe, chain, fusion, rational, shapoform, suites, weylspace

# Suite names in the order `verify --suite all` runs them; suites.run_suite dispatches on them.
SUITES = ("rtt", "bethe", "algebra", "norms", "fusion", "weyl")


def _write_output(path: "str | None", text: str) -> bool:
    """Write text to path, or to standard output without one; False, after an error line, when path cannot be written.

    Each command first writes "" to its output path, which creates or
    empties the file, so an unwritable path exits 2 before any work.
    """
    if not path:
        sys.stdout.write(text)
        return True
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def cmd_spectrum(args) -> int:
    try:
        spec = chain.ModuleSpec.from_file(args.spec)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.level is not None and not 0 <= args.level <= spec.k:
        print(f"error: --level {args.level} is outside 0..{spec.k} for a chain of {spec.k} sites", file=sys.stderr)
        return 2
    cyclic, _ = chain.cyclicity_and_irreducibility(spec)
    if not cyclic:
        print("error: chain is not cyclic (some b_j = b_i + l2_i + l1_j with i < j)", file=sys.stderr)
        return 2
    if not _write_output(args.json, ""):
        return 2
    try:
        report = bethe.completeness_report(spec)
    except rational.RootSearchTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    doc = report.to_dict()
    if args.level is not None:
        doc["levels"] = [lv for lv in doc["levels"] if lv["level"] == args.level]
    # norm table for split chains
    if report.split:
        norms = []
        for level, divisors in enumerate(bethe.char_pair(spec).divisors):
            if args.level is not None and level != args.level:
                continue
            for dv in divisors:
                norms.append(shapoform.norm_check(spec, dv).to_dict())
        doc["norms"] = norms
    # fusion block: per-m pass/fail with the first failing label
    fusion_block = {"berezinian": bool(fusion.berezinian(spec)), "relations": []}
    for m, checks in enumerate(fusion.transfer_relation_check(spec, 3), 1):
        bad = next((c for c in checks if not c.ok), None)
        fusion_block["relations"].append(
            {"m": m, "ok": bad is None, "first_failure": None if bad is None else bad.label}
        )
    doc["fusion"] = fusion_block
    doc["gamma"] = bethe.char_pair(spec).gamma.to_strings()
    ok = (
        report.split
        and all(r["equal"] for r in doc["norms"])
        and all(lv.subspace_dim == sum(e.generalized_dim for e in lv.entries) for lv in report.levels)
        and fusion_block["berezinian"]
        and all(r["ok"] for r in fusion_block["relations"])
    )
    doc["consistent"] = ok
    if not _write_output(args.json, _json_text(doc)):
        return 2
    return 0 if ok else 1


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    if args.inject_sign_bug and ("rtt" not in names or not suites.rtt_tensor_cases(args.max_k, args.max_n)):
        why = "no rtt tensor case within the caps" if "rtt" in names else f"--suite {args.suite} does not run rtt"
        print(f"error: --inject-sign-bug has nothing to corrupt: {why}", file=sys.stderr)
        return 2
    if not _write_output(args.json, ""):
        return 2
    summary = {}
    failed, empty = [], []
    for name in names:
        t0 = time.monotonic()
        items = suites.run_suite(
            name,
            max_k=args.max_k,
            max_n=args.max_n,
            max_m=args.max_m,
            degree_cap=args.degree_cap,
            tau_order=args.tau_order,
            inject_sign_bug=args.inject_sign_bug,
        )
        dt = time.monotonic() - t0
        bad = [it for it in items if not it.ok]
        if not items:
            empty.append(name)
        summary[name] = {
            "passed": len(items) - len(bad),
            "failed": len(bad),
            "failures": [{"name": it.label, "detail": it.witness} for it in bad],
        }
        print(f"suite {name}: {len(items) - len(bad)}/{len(items)} passed ({dt:.1f}s)", file=sys.stderr)
        for it in bad:
            failed.append(f"{name}: {it.label}")
            print(f"  FAIL {it.label}: {it.witness}", file=sys.stderr)
    # a suite with no item within the caps decides nothing, so it is refused rather than passed
    if empty:
        print(f"error: no item within the caps in suite {', '.join(empty)}", file=sys.stderr)
        return 2
    doc = {"suites": summary, "ok": not failed}
    if "weyl" in names:
        tables = {}
        for n in range(2, min(args.max_n, 4) + 1):
            tables[str(n)] = {
                str(level): weylspace.invariant_dimensions(n, level, args.degree_cap, False)
                for level in range(n + 1)
            }
        doc["character_tables"] = tables
    if not _write_output(args.json, _json_text(doc)):
        return 2
    return 0 if not failed else 1


def cmd_random_spec(args) -> int:
    if args.k < 1:
        print(f"error: --k must be a positive integer, got {args.k}", file=sys.stderr)
        return 2
    if args.weight_budget < args.k:
        print(
            f"error: --weight-budget {args.weight_budget} is below --k {args.k}; every site needs l1 >= 1",
            file=sys.stderr,
        )
        return 2
    if not _write_output(args.out, ""):
        return 2
    rng = random.Random(args.seed)
    cands = [Fraction(n, d) for d in (1, 2, 3) for n in range(-9, 10)]
    for _ in range(20000):
        weights = []
        budget = args.weight_budget
        for s in range(args.k):
            remaining_sites = args.k - s - 1
            hi = max(1, budget - remaining_sites)
            l1 = rng.randint(1, min(2, hi))
            l2 = rng.randint(0, min(1, hi - l1))
            weights.append((l1, l2))
            budget -= l1 + l2
        points = tuple(rng.choice(cands) for _ in range(args.k))
        q1 = rng.randint(1, 4)
        q2 = rng.randint(1, 4)
        if args.twisted and q1 == q2:
            continue
        if not args.twisted:
            q1 = q2 = 1
        # screened on the integer vacuum roots; a spec is built only for the chain kept
        try:
            if not chain.screen_candidate(weights, points, (q1, q2), args.split):
                continue
        except rational.RootSearchTooLarge as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            spec = chain.make_spec(weights, points, (q1, q2))
        except ValueError:
            continue
        return 0 if _write_output(args.out, spec.to_json()) else 2
    print("error: no chain found within the sampling budget", file=sys.stderr)
    return 2


def _nonneg_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gl11chain", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="divisors, eigenvalues and spectral data for a chain file")
    sp.add_argument("--spec", required=True, help="chain file (JSON)")
    sp.add_argument("--level", type=int, default=None, help="restrict to one level")
    sp.add_argument("--json", default=None, help="write the report to this path")
    sp.set_defaults(func=cmd_spectrum)

    vp = sub.add_parser("verify", help="run a verification suite")
    vp.add_argument("--suite", default="all", choices=sorted(SUITES) + ["all"])
    vp.add_argument("--max-k", type=_nonneg_int, default=3)
    vp.add_argument("--max-n", type=_nonneg_int, default=4)
    vp.add_argument("--max-m", type=_nonneg_int, default=3)
    vp.add_argument("--degree-cap", type=_nonneg_int, default=4)
    vp.add_argument("--tau-order", type=_nonneg_int, default=None)
    vp.add_argument("--json", default=None)
    vp.add_argument("--inject-sign-bug", action="store_true", help="negative-control harness: flip one pencil sign")
    vp.set_defaults(func=cmd_verify)

    rp = sub.add_parser("random-spec", help="deterministic pseudo-random cyclic chain file")
    rp.add_argument("--seed", type=int, required=True)
    rp.add_argument("--k", type=int, default=2)
    rp.add_argument("--weight-budget", type=int, default=4)
    rp.add_argument("--split", action="store_true", help="force a rationally split characteristic polynomial")
    rp.add_argument("--twisted", action="store_true", help="force distinct twist entries")
    rp.add_argument("--out", default=None)
    rp.set_defaults(func=cmd_random_spec)
    return ap


def main(argv=None) -> int:
    # At exit, freeze every object into the permanent generation, which the shutdown collections skip.
    # Safe because no gl11chain module defines __del__ or a weakref finalizer, every output file is written
    # under `with` and closed before main returns, and the interpreter flushes stdout and stderr before it
    # tears down modules, whatever the collector does.  Unregistering first keeps one handler per process.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
