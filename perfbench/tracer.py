"""Span tracer for gl11chain, applied from outside the program.

`install` replaces each function in TARGETS by a timing wrapper: module
functions at every module binding (``from .x import f`` makes a copy in the
importing module), methods on their class.  The program's source is not
touched.  Spans stay in memory and `Tracer.dump` writes them as JSON once
the command has ended.

A span's self time is its duration minus the time covered by its child
spans.  Kernel targets (exact-arithmetic and matrix primitives, called up to
millions of times per command) are not stored one by one: they add to the
per-name totals and to a call count on the enclosing stored span.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute in that module, metric name, kernel?)
TARGETS = [
    ("exactnum", "RatFun.__init__", "exactnum.RatFun", True),
    ("exactnum", "Poly.gcd", "exactnum.Poly.gcd", True),
    ("exactnum", "roots_with_multiplicity", "exactnum.roots_with_multiplicity", False),
    ("linalg", "ExactMatrix.__matmul__", "linalg.ExactMatrix.matmul", True),
    ("linalg", "ExactMatrix.rref", "linalg.ExactMatrix.rref", True),
    ("linalg", "ExactMatrix.inverse", "linalg.ExactMatrix.inverse", True),
    ("linalg", "ExactMatrix.det", "linalg.ExactMatrix.det", True),
    ("linalg", "SpanBasis.add", "linalg.SpanBasis.add", True),
    ("linalg", "SpanBasis.reduce", "linalg.SpanBasis.reduce", True),
    ("linalg", "joint_generalized_eigenspaces", "linalg.joint_generalized_eigenspaces", False),
    ("superlin", "weight_spaces", "superlin.weight_spaces", False),
    ("superlin", "symmetric_group_action", "superlin.symmetric_group_action", False),
    ("monodromy", "tensor_monodromy", "monodromy.tensor_monodromy", False),
    ("monodromy", "verify_rtt", "monodromy.verify_rtt", False),
    ("monodromy", "cyclicity_and_irreducibility", "monodromy.cyclicity_and_irreducibility", False),
    ("bethe", "char_pair", "bethe.char_pair", False),
    ("bethe", "verify_on_shell", "bethe.verify_on_shell", False),
    ("bethe", "completeness_report", "bethe.completeness_report", False),
    ("bethealg", "coefficient_family", "bethealg.coefficient_family", False),
    ("bethealg", "algebra_dimension", "bethealg.algebra_dimension", False),
    ("bethealg", "double_commutant_check", "bethealg.double_commutant_check", False),
    ("shapoform", "form_matrix", "shapoform.form_matrix", False),
    ("shapoform", "norm_check", "shapoform.norm_check", False),
    ("shapoform", "orthogonality_check", "shapoform.orthogonality_check", False),
    ("fusion", "higher_transfer", "fusion.higher_transfer", False),
    ("fusion", "berezinian", "fusion.berezinian", False),
    ("fusion", "generating_oper", "fusion.generating_oper", False),
    ("fusion", "transfer_relation_check", "fusion.transfer_relation_check", False),
    ("fusion", "oper_action_check", "fusion.oper_action_check", False),
    ("weylspace", "invariant_dimensions", "weylspace.invariant_dimensions", False),
    ("weylspace", "character_series", "weylspace.character_series", False),
    ("weylspace", "specialization_check", "weylspace.specialization_check", False),
    # The suite runner is traced so that cli.main's self time is the CLI's
    # own work (arguments, dispatch, JSON) rather than untraced suite code.
    ("suites", "run_suite", "suites.run_suite", False),
    ("cli", "main", "cli.main", False),
]

# Functions whose first argument is a chain (ModuleSpec): the tracer counts
# the distinct chains, so calls per chain shows repeated derivations.
PER_CHAIN = ("monodromy.tensor_monodromy", "shapoform.form_matrix")
# roots_with_multiplicity returns None when the polynomial does not split.
SPLIT_TEST = "exactnum.roots_with_multiplicity"


class Tracer:
    """Spans and per-name totals of one CLI command (one process)."""

    def __init__(self, cmd_id: int):
        self.cmd_id = cmd_id
        # stored span: [command id, span id, parent span id, name, start ns, end ns,
        #               self ns, {kernel name: calls}]
        self.spans: list[list] = []
        self.totals: dict[str, list[int]] = {}  # name -> [calls, self ns]
        self.chains: dict[str, set] = {name: set() for name in PER_CHAIN}
        self.split_verdicts = 0
        self._child_ns: list[list[int]] = []  # one cell per open span, kernel or not
        self._open: "list | None" = None  # innermost open stored span

    def wrap(self, name: str, fn, kernel: bool):
        totals = self.totals.setdefault(name, [0, 0])
        child_ns = self._child_ns
        clock = time.perf_counter_ns

        def close(cell, start):
            end = clock()
            child_ns.pop()
            dur = end - start
            if child_ns:
                child_ns[-1][0] += dur
            own = dur - cell[0]
            totals[0] += 1
            totals[1] += own
            return end, own

        if kernel:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                cell = [0]
                child_ns.append(cell)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(cell, start)
                    if self._open is not None:
                        counts = self._open[7]
                        counts[name] = counts.get(name, 0) + 1
            return traced

        chains = self.chains.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open
            record = [self.cmd_id, len(self.spans), None if parent is None else parent[1], name, 0, 0, 0, {}]
            self.spans.append(record)
            self._open = record
            cell = [0]
            child_ns.append(cell)
            start = record[4] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[5], record[6] = close(cell, start)
                self._open = parent
            if chains is not None:
                chains.add(repr(args[0]))
            if name == SPLIT_TEST and result is not None:
                self.split_verdicts += 1
            return result

        return traced

    def to_dict(self) -> dict:
        return {
            "cmd": self.cmd_id,
            "totals": self.totals,
            "distinct_chains": {name: len(seen) for name, seen in self.chains.items()},
            "split_verdicts": self.split_verdicts,
            "spans": self.spans,
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)


def install(tracer: Tracer) -> None:
    """Wrap every target; gl11chain.cli imports all gl11chain modules."""
    import gl11chain.cli  # noqa: F401

    package = [m for n, m in list(sys.modules.items()) if n == "gl11chain" or n.startswith("gl11chain.")]
    for modname, attr, name, kernel in TARGETS:
        module = sys.modules[f"gl11chain.{modname}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, staticmethod):
                setattr(cls, meth, staticmethod(tracer.wrap(name, raw.__func__, kernel)))
            else:
                setattr(cls, meth, tracer.wrap(name, raw, kernel))
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(name, original, kernel)
        for mod in package:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
