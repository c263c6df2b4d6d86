"""Rules the library source keeps, checked on its syntax tree.

Invariants raise exceptions instead of using `assert`, so they still hold
under `python -O`, and the arithmetic is exact, so no float literal or
`float` name appears anywhere in the package.  Every name the benchmark
tracer wraps exists in the package.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "gl11chain").glob("*.py"))


def _violations(tree: ast.AST) -> list[str]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            out.append(f"line {node.lineno}: assert statement")
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            out.append(f"line {node.lineno}: float literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            out.append(f"line {node.lineno}: name float")
    return out


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"exactnum.py", "linalg.py", "monodromy.py", "fusion.py"}


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_assert_and_no_float(path):
    assert _violations(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_rules_catch_each_violation():
    code = "assert x\ny = 0.5\nz = float(y)\n"
    found = _violations(ast.parse(code))
    assert found == ["line 1: assert statement", "line 2: float literal 0.5", "line 3: name float"]


def _tracer_targets() -> list[tuple]:
    """TARGETS of perfbench/tracer.py, read from its syntax tree without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError("no TARGETS assignment in perfbench/tracer.py")


def test_tracer_targets_resolve():
    targets = _tracer_targets()
    assert targets
    missing = []
    for module, attribute, *_ in targets:
        obj = importlib.import_module(f"gl11chain.{module}")
        for part in attribute.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{attribute}")
    assert missing == []
