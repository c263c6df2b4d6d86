"""gl11chain benchmark: the command line driven end to end.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all       # every workload, one table

Closed loop with a single client: each CLI command starts after the previous
one has ended, each in a fresh interpreter started the way the installed
`gl11chain` console script starts, because a CLI user pays interpreter
start-up and module import on every call.  No threads are used.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  It times
`gl11chain --help` several times (set-up), then repeats passes over the
workload's command list while the next pass still fits in --seconds (at
least one pass), and reports medians over the passes.

Times are reported at a reference machine speed.  On a shared 2-vCPU VM
(Intel Xeon, 2.0 GHz) the speed of one vCPU changed by up to 2x within a
minute, user CPU time as much as wall time, and the two vCPUs slowed
independently, so raw times of the same commands spread 20-35% (quartile
distance over median) between runs.  The benchmark pins itself and its
children to one CPU and, on that CPU, times a fixed stdlib probe (`probe`)
before, every PROBE_INTERVAL_S during, and after each command.  A command's
wall and CPU times are divided by its slowdown, the mean probe time over
the command divided by PROBE_REF_S.  The measured times and slowdowns are
printed beside the metrics.

--trace 1 reports the per-layer metrics.  It alternates a plain pass with a
pass in which every command runs under tracer.py, and reports counts (which
must repeat exactly), median self times, and the tracing overhead (traced
minus plain pass wall time).

Every command's output is checked: exit code, the report's verdict, the
sha256 digest in reference.json, and for chain files a re-parse through
ModuleSpec.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import select
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
FIXTURES = HERE / "fixtures"

WORKLOADS = ("fusion", "verify_core", "weyl", "split_search")
CHAINS = ("k2", "t2", "k3")
CORE_SUITES = ("rtt", "bethe", "algebra", "norms")
# random-spec cost per seed varies about 400-fold (how many candidates are
# drawn before a split one), so a seed-dependent list would make the pass
# time a property of the seed.  The seeds are fixed; the workload seed only
# orders the commands.
SPLIT_SEEDS = range(1, 11)
SPLIT_CONFIGS = {
    "k3t": ("--k", "3", "--weight-budget", "5", "--twisted"),
    "k4": ("--k", "4", "--weight-budget", "6"),
}
SETUP_REPEATS = 11
# Any command still running this long after the run started is killed and
# counted as failed, so a hung program cannot hold the run past 180 s.
RUN_LIMIT_S = 170.0
CONSOLE_SCRIPT = "import sys; from gl11chain.cli import main; sys.exit(main())"
PROBE_REF_S = 0.010  # probe CPU time that defines the reference speed
PROBE_INTERVAL_S = 0.25


@dataclass(frozen=True)
class Command:
    name: str  # unique across workloads; names the output file and its digest
    args: tuple[str, ...]
    kind: str  # "help", "spectrum", "verify" or "chain"

    def output(self, out_dir: Path) -> Path:
        return out_dir / f"{self.name}.json"

    def cli_args(self, out_dir: Path) -> list[str]:
        if self.kind == "help":
            return list(self.args)
        flag = "--out" if self.kind == "chain" else "--json"
        return [*self.args, flag, str(self.output(out_dir))]


HELP = Command("help", ("--help",), "help")


def workload_commands(workload: str, seed: int) -> list[Command]:
    if workload == "fusion":
        cmds = [Command(f"spectrum-{c}", ("spectrum", "--spec", str(FIXTURES / f"{c}.json")), "spectrum") for c in CHAINS]
        cmds.append(Command("verify-fusion", ("verify", "--suite", "fusion"), "verify"))
    elif workload == "verify_core":
        cmds = [Command(f"verify-{s}", ("verify", "--suite", s), "verify") for s in CORE_SUITES]
    elif workload == "weyl":
        cmds = [Command("verify-weyl", ("verify", "--suite", "weyl"), "verify")]
    elif workload == "split_search":
        cmds = [
            Command(f"random-spec-{cfg}-{s}", ("random-spec", "--split", "--seed", str(s), *flags), "chain")
            for cfg, flags in SPLIT_CONFIGS.items()
            for s in SPLIT_SEEDS
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(cmds)
    return cmds


@dataclass
class Outcome:
    command: Command
    wall_s: float  # at reference speed
    cpu_s: float  # at reference speed
    rss_mib: float
    slowdown: float  # measured times are these times multiplied by the slowdown
    failure: "str | None"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def probe() -> float:
    """CPU seconds of a fixed exact-arithmetic loop on this CPU."""
    start = time.thread_time()
    x = Fraction(0)
    for i in range(1, 2000):
        x += Fraction(i % 97 + 1, i % 89 + 2) * Fraction(3, 7)
    return time.thread_time() - start


def execute(argv: list[str], stderr_path: Path, deadline: float) -> tuple[int, float, float, float, float]:
    """Run one child to completion.

    Returns the exit code, the measured wall seconds (less the CPU time of the
    probes that preempted the child on the shared CPU), the child's CPU
    seconds, its peak RSS in MiB and the slowdown.  The child's own rusage
    comes from os.wait4; RUSAGE_CHILDREN would give a running maximum over all
    children and hide one command's growth.  A child still running at the
    deadline is killed.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probes = [probe()]
    paused = 0.0
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err, env=env, cwd=ROOT)
    pidfd = os.pidfd_open(proc.pid)
    try:
        while not select.select([pidfd], [], [], PROBE_INTERVAL_S)[0]:
            if time.monotonic() > deadline:
                proc.kill()
            cpu = probe()
            probes.append(cpu)
            paused += cpu
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        os.close(pidfd)
    wall = time.perf_counter() - start - paused
    proc.returncode = os.waitstatus_to_exitcode(status)
    probes.append(probe())
    slowdown = sum(probes) / len(probes) / PROBE_REF_S
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, slowdown


def check(cmd: Command, exit_code: int, out_dir: Path, reference: dict) -> "str | None":
    """Why the command's result is wrong, or None when it is right."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    if cmd.kind == "help":
        return None
    try:
        data = cmd.output(out_dir).read_bytes()
    except OSError as exc:
        return f"no output: {exc}"
    if sha256(data) != reference.get(cmd.name):
        return "output differs from the reference digest"
    try:
        doc = json.loads(data)
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    if cmd.kind == "chain":
        return check_chain(cmd, data.decode("utf-8"), doc)
    verdict = "consistent" if cmd.kind == "spectrum" else "ok"
    if doc.get(verdict) is not True:
        return f"report verdict {verdict} is {doc.get(verdict)!r}"
    return None


def check_chain(cmd: Command, text: str, doc: dict) -> "str | None":
    from gl11chain.monodromy import ModuleSpec

    try:
        spec = ModuleSpec.from_dict(doc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"chain does not parse: {exc!r}"
    if spec.to_json() != text:
        return "chain file is not in canonical form"
    if spec.k != int(cmd.args[cmd.args.index("--k") + 1]):
        return f"chain has {spec.k} sites"
    if spec.is_twisted() != ("--twisted" in cmd.args):
        return "twist does not match the request"
    return None


def run_pass(cmds: list[Command], out_dir: Path, reference: dict, deadline: float,
             trace_dir: "Path | None" = None) -> list[Outcome]:
    outcomes = []
    for i, cmd in enumerate(cmds):
        cmd.output(out_dir).unlink(missing_ok=True)
        if trace_dir is None:
            argv = [sys.executable, "-c", CONSOLE_SCRIPT]
        else:
            trace_path = trace_dir / f"{i}.json"
            trace_path.unlink(missing_ok=True)
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(trace_path), str(i)]
        argv += cmd.cli_args(out_dir)
        code, wall, cpu, rss, slowdown = execute(argv, out_dir / f"{cmd.name}.stderr", deadline)
        failure = check(cmd, code, out_dir, reference)
        if failure is not None:
            tail = (out_dir / f"{cmd.name}.stderr").read_text(errors="replace")[-400:]
            print(f"FAIL {cmd.name}: {failure}\n{tail}", file=sys.stderr)
        outcomes.append(Outcome(cmd, wall / slowdown, cpu / slowdown, rss, slowdown, failure))
    return outcomes


def end_to_end(setup: list[Outcome], passes: list[list[Outcome]]) -> dict[str, float]:
    return {
        "setup_s": median([o.wall_s for o in setup]),
        "wall_s": median([sum(o.wall_s for o in p) for p in passes]),
        "cmd_p50_s": median([median([o.wall_s for o in p]) for p in passes]),
        "cpu_s": median([sum(o.cpu_s for o in p) for p in passes]),
        "peak_rss_mib": median([max(o.rss_mib for o in p) for p in passes]),
    }


def merge_traces(trace_dir: Path, outcomes: list[Outcome]) -> tuple[list[dict], dict]:
    """Per-command traces of one traced pass, and their sums per name.

    Self times are scaled to reference speed by each command's slowdown.  A
    command killed before it wrote its trace has already failed its check.
    """
    traces = []
    calls: dict[str, int] = {}
    self_ns: dict[str, float] = {}
    chains: dict[str, int] = {}
    for i, outcome in enumerate(outcomes):
        path = trace_dir / f"{i}.json"
        if not path.is_file():
            continue
        tr = json.loads(path.read_text())
        traces.append(tr)
        for name, (c, s) in tr["totals"].items():
            calls[name] = calls.get(name, 0) + c
            self_ns[name] = self_ns.get(name, 0) + s / outcome.slowdown
        for name, d in tr["distinct_chains"].items():
            chains[name] = chains.get(name, 0) + d
    split = sum(tr["split_verdicts"] for tr in traces)
    return traces, {"calls": calls, "self_ns": self_ns, "chains": chains, "split": split}


def layer_value(metric: str, agg: dict) -> float:
    if metric == "exactnum.split_yield":
        tests = agg["calls"].get("exactnum.roots_with_multiplicity", 0)
        return agg["split"] / tests if tests else 0.0
    name, stat = metric.rsplit(".", 1)
    calls = agg["calls"].get(name, 0)
    if stat == "calls":
        return calls
    if stat == "self_s":
        return agg["self_ns"].get(name, 0) / 1e9
    if stat == "per_chain":
        chains = agg["chains"].get(name, 0)
        return calls / chains if chains else 0.0
    raise ValueError(f"per-layer metric {metric!r} has no rule")


class Run:
    """One benchmark run of one workload; counts every command it starts."""

    def __init__(self, workload: str, seed: int, seconds: float, reference: dict):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.reference = reference
        self.cmds = workload_commands(workload, seed)
        self.out_dir = OUT / workload
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.outcomes: list[Outcome] = []
        self.problems: list[str] = []  # failures that belong to no single command

    def one_pass(self, trace_dir: "Path | None" = None) -> list[Outcome]:
        result = run_pass(self.cmds, self.out_dir, self.reference, self.deadline, trace_dir)
        self.outcomes += result
        return result

    def repeat(self, body) -> None:
        """Call body until the next call would end past --seconds (at least once)."""
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            body()
            now = time.monotonic()
            if now + (now - t0) - start > self.seconds or now > self.deadline:
                return

    def end_to_end(self) -> dict[str, float]:
        run_pass([HELP], self.out_dir, self.reference, self.deadline)  # untimed: fills the bytecode cache
        setup = run_pass([HELP] * SETUP_REPEATS, self.out_dir, self.reference, self.deadline)
        self.outcomes += setup
        passes: list[list[Outcome]] = []
        self.repeat(lambda: passes.append(self.one_pass()))
        return end_to_end(setup, passes)

    def per_layer(self, metrics: list[str]) -> dict[str, float]:
        plain: list[float] = []
        traced: list[float] = []
        aggs: list[dict] = []
        kept: list[list[dict]] = []

        def pair():
            plain.append(sum(o.wall_s for o in self.one_pass()))
            trace_dir = self.out_dir / f"trace-{len(traced)}"
            trace_dir.mkdir(exist_ok=True)
            outcomes = self.one_pass(trace_dir)
            traced.append(sum(o.wall_s for o in outcomes))
            traces, agg = merge_traces(trace_dir, outcomes)
            kept.append(traces)
            aggs.append(agg)

        self.repeat(pair)
        if any(a["calls"] != aggs[0]["calls"] for a in aggs):
            self.problems.append("call counts differ between traced passes")
            print("FAIL trace: call counts differ between traced passes", file=sys.stderr)
        with open(OUT / f"trace-{self.workload}-seed{self.seed}.json", "w", encoding="utf-8") as fh:
            json.dump({"workload": self.workload, "seed": self.seed, "passes": kept}, fh)
        values = {}
        for metric in metrics:
            if metric == "trace.overhead_s":
                values[metric] = median(traced) - median(plain)
            elif metric.endswith(".calls"):  # equal in every traced pass
                values[metric] = layer_value(metric, aggs[0])
            else:
                values[metric] = median([layer_value(metric, a) for a in aggs])
        return values

    @property
    def failed(self) -> int:
        return sum(o.failure is not None for o in self.outcomes) + len(self.problems)

    @property
    def attempted(self) -> int:
        return len(self.outcomes) + len(self.problems)


def load_reference() -> dict:
    """The reference digests, after checking that sources and fixtures are there."""
    if not (SRC / "gl11chain" / "cli.py").is_file():
        raise FileNotFoundError(f"no gl11chain sources under {SRC}")
    reference = json.loads((HERE / "reference.json").read_text())
    for name, want in reference["fixtures"].items():
        if sha256((FIXTURES / name).read_bytes()) != want:
            raise ValueError(f"fixture {name} differs from its reference digest")
    return reference


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        reference = load_reference()
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One CPU for the benchmark, its children and the speed probe (see above).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[kind]}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    for workload in names:
        run = Run(workload, args.seed, args.seconds, reference["outputs"])
        values = run.per_layer(list(units)) if args.trace else run.end_to_end()
        attempted += run.attempted
        failed += run.failed
        prefix = f"{workload}." if args.workload == "all" else ""
        for name, unit in units.items():
            metrics[prefix + name] = {"value": values[name], "unit": unit}
            print(f"{workload:13s} {name:45s} {values[name]:>14.6g} {unit}")
        print(f"{workload:13s} {'fail_ratio':45s} {run.failed}/{run.attempted} commands "
              f"({len(run.cmds)} per pass)")
        print(f"{workload:13s} {'measured wall s of all commands, slowdown':45s} "
              f"{sum(o.wall_s * o.slowdown for o in run.outcomes):.4g} s, median "
              f"{median(o.slowdown for o in run.outcomes):.4g}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
