"""Rules the library source keeps, checked on its syntax tree.

Invariants raise exceptions instead of using `assert`, so they still hold
under `python -O`, and the arithmetic is exact, so no float literal or
`float` name appears anywhere in the package.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "gl11chain").glob("*.py"))


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
