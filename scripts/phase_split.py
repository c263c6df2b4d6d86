#!/usr/bin/env python3
"""Median start-up, work and exit milliseconds of one CLI command over fresh processes.

Usage:
  python3 scripts/phase_split.py ARGS... --runs N
  python3 scripts/phase_split.py random-spec --seed 1 --runs 20
  python3 scripts/phase_split.py verify --suite rtt --runs 20

ARGS are the gl11chain command line; --runs N (default 20) may stand
anywhere in it.  Each run starts a fresh interpreter on this checkout's src/
that records two wall-clock stamps: just before it imports gl11chain.cli and
just after `main` returns (or raises SystemExit, as `--help` and a usage
error do).  It writes them to a side file, so the command's own standard
error is untouched, then exits normally, so exit handlers and the
interpreter's teardown run as they do for the console script.  The parent
stamps the spawn and the reap around each child:

  start-up  spawn -> just before `import gl11chain.cli` (interpreter and site)
  work      import of gl11chain.cli, compiling if no bytecode is cached, and main
  exit      main returned -> child reaped (exit handlers and teardown)

The command's standard output and error are discarded.  Exits 1 when the
command's exit code differs between runs or a child wrote no stamps.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

SRC = Path(__file__).resolve().parent.parent / "src"
CHILD = """\
import sys, time
started = time.time()
from gl11chain.cli import main
try:
    code = main(sys.argv[2:])
except SystemExit as exc:
    code = exc.code
returned = time.time()
with open(sys.argv[1], "w") as fh:
    fh.write(f"{started!r} {returned!r}")
sys.exit(code)
"""


def parse(argv: list[str]) -> tuple[list[str], int]:
    """The command line without `--runs N`, and N."""
    argv = list(argv)
    runs = 20
    if "--runs" in argv:
        i = argv.index("--runs")
        if i + 1 == len(argv) or not argv[i + 1].isdecimal() or int(argv[i + 1]) < 1:
            raise SystemExit("phase_split.py: --runs needs a positive integer")
        runs = int(argv[i + 1])
        del argv[i:i + 2]
    return argv, runs


def run_once(args: list[str], stamps: Path) -> tuple[int, float, float, float]:
    """One fresh process: its exit code and its start-up, work and exit seconds."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    stamps.write_text("")
    spawned = time.time()
    proc = subprocess.run([sys.executable, "-c", CHILD, str(stamps), *args], env=env, stdin=subprocess.DEVNULL,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, check=False)
    reaped = time.time()
    text = stamps.read_text()
    if not text:
        raise RuntimeError(f"the child wrote no stamps (exit code {proc.returncode}): {proc.stderr[-400:]}")
    started, returned = map(float, text.split())
    return proc.returncode, started - spawned, returned - started, reaped - returned


def main(argv=None) -> int:
    args, runs = parse(sys.argv[1:] if argv is None else argv)
    phases: list[tuple[float, float, float]] = []
    codes = set()
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(runs):
            try:
                code, *times = run_once(args, Path(tmp) / "stamps")
            except RuntimeError as exc:
                print(f"phase_split.py: {exc}", file=sys.stderr)
                return 1
            codes.add(code)
            phases.append(tuple(times))
    startup, work, exit_ = (1000 * median(col) for col in zip(*phases))
    print(f"command: gl11chain {' '.join(args)}  runs: {runs}  exit code: {', '.join(map(str, sorted(codes)))}")
    print(f"median ms  start-up {startup:.1f}  work {work:.1f}  exit {exit_:.1f}")
    return 0 if len(codes) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
