"""Rules the library source keeps, checked on its syntax tree.

Invariants raise exceptions instead of using `assert`, so they still hold
under `python -O`, and the arithmetic is exact, so no float literal or
`float` name appears anywhere in the package.  The split test
`roots_with_multiplicity` runs once per chain, inside `CharPair`; only
`random-spec`, which tests each fresh candidate once, calls it directly.
Every name the benchmark tracer wraps exists in the package.  Matrices over
Q(x) have one form, FracMatrix: linalg.py never names RatFun, and no source
file defines `from_ratfun`.  The start-up core that `--help` and
`random-spec` load (cli, chain and exactnum) never imports from monodromy,
superlin, linalg or suites when it is imported, so those load only when a
command uses them.  No source file imports
`dataclasses`, which loads `inspect` on every command's start-up: records
are NamedTuples or plain classes.  The legs of a `SuperSpace` are read in
superlin.py alone; every other module asks the space for levels, flips and
leg actions.  A verdict has one record, monodromy.Check: no other class
declares a field named `ok`, `witness` or `detail`.  A verdict carries no
built object: `fusion.RouteComparison` is the one record with a field
annotated `Check`.  The packed monomial keys
of MPoly are read in weylspace.py alone: no other module names the packed
term dict or the slot width.  No module builds the symmetric group to average
over it: none defines a permutation closure or a permutation sign, none calls
`symmetric_group_action`, and `itertools.permutations` runs only inside it.
The image basis of the symmetrizers, `AUX_IMAGE`, is assigned once, in
fusion.py, which alone names it, and both `symmetrizers` and route A read it.
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


# Top-level definitions allowed to call the split test, per source file.
SPLIT_TEST_CALLERS = {"bethe.py": {"CharPair"}, "cli.py": {"cmd_random_spec"}}


def _split_test_callers(tree: ast.Module) -> list[str]:
    """The top-level definition around each call of roots_with_multiplicity, in source order."""
    out = []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "roots_with_multiplicity":
                    out.append(getattr(top, "name", f"line {node.lineno}"))
    return out


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_split_test_called_only_from_char_pair_and_random_spec(path):
    callers = set(_split_test_callers(ast.parse(path.read_text(encoding="utf-8"))))
    assert callers <= SPLIT_TEST_CALLERS.get(path.name, set())


def test_split_test_rule_catches_a_direct_call():
    code = (
        "class CharPair:\n    def roots(self):\n        return roots_with_multiplicity(self.gamma)\n"
        "def report(cp):\n    return exactnum.roots_with_multiplicity(cp.gamma) is None\n"
        "split = roots_with_multiplicity(gamma)\n"
    )
    assert _split_test_callers(ast.parse(code)) == ["CharPair", "report", "line 6"]
    assert set(_split_test_callers(ast.parse(code))) - SPLIT_TEST_CALLERS["bethe.py"] == {"report", "line 6"}


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


def _ratfun_violations(tree: ast.AST, linalg: bool) -> list[str]:
    """Definitions of from_ratfun and, in linalg.py, every use or import of the name RatFun."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "from_ratfun":
            out.append(f"line {node.lineno}: defines from_ratfun")
        if not linalg:
            continue
        if (isinstance(node, ast.Name) and node.id == "RatFun") or (
            isinstance(node, ast.Attribute) and node.attr == "RatFun"
        ):
            out.append(f"line {node.lineno}: names RatFun")
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and "RatFun" in (a.name.split(".")[-1] for a in node.names):
            out.append(f"line {node.lineno}: imports RatFun")
    return out


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_one_rational_function_matrix_type(path):
    assert _ratfun_violations(ast.parse(path.read_text(encoding="utf-8")), path.name == "linalg.py") == []


def test_ratfun_rule_catches_each_violation():
    code = (
        "from .exactnum import Poly, RatFun\n"
        "class FracMatrix:\n    @staticmethod\n    def from_ratfun(m):\n        return m\n"
        "x = exactnum.RatFun(1)\ny = RatFun(2)\n"
    )
    assert _ratfun_violations(ast.parse(code), linalg=True) == [
        "line 1: imports RatFun", "line 4: defines from_ratfun", "line 6: names RatFun", "line 7: names RatFun",
    ]
    assert _ratfun_violations(ast.parse(code), linalg=False) == ["line 4: defines from_ratfun"]


# The modules `--help` and `random-spec` load, and the lazy modules they must not load on import.
STARTUP_CORE = ("cli.py", "chain.py", "exactnum.py")
NOT_AT_STARTUP = ("monodromy", "superlin", "linalg", "suites")


def _eager_imports(tree: ast.Module) -> list[str]:
    """`from .X import`, X in NOT_AT_STARTUP, run on import: outside every function body."""
    out = []
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in NOT_AT_STARTUP:
            out.append(f"line {node.lineno}: from .{node.module} import")
        stack.extend(ast.iter_child_nodes(node))
    return sorted(out, key=lambda v: int(v.split()[1].rstrip(":")))


@pytest.mark.parametrize("name", STARTUP_CORE)
def test_startup_core_imports_linalg_and_suites_lazily(name):
    path = ROOT / "src" / "gl11chain" / name
    assert _eager_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_eager_import_rule_catches_each_violation():
    code = (
        "from .linalg import ExactMatrix\n"
        "from . import linalg, suites\n"
        "if True:\n    from .suites import run_suite\n"
        "class Table:\n    from .linalg import SpanBasis\n"
        "def cmd(args):\n    from .suites import run_suite\n    return run_suite\n"
        "from .monodromy import Check\n"
        "class ModuleSpec:\n    def space(self):\n        from .superlin import SuperSpace\n        return SuperSpace\n"
        "from .superlin import Weight\nfrom .exactnum import Poly\nfrom . import monodromy\n"
    )
    assert _eager_imports(ast.parse(code)) == [
        "line 1: from .linalg import", "line 4: from .suites import", "line 6: from .linalg import",
        "line 10: from .monodromy import", "line 15: from .superlin import",
    ]


def _dataclasses_imports(tree: ast.AST) -> list[str]:
    """Every `import dataclasses` and `from dataclasses import`, nested ones included."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "dataclasses" for a in node.names):
            out.append(f"line {node.lineno}: import dataclasses")
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "dataclasses":
            out.append(f"line {node.lineno}: from dataclasses import")
    return sorted(out)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_dataclasses(path):
    assert _dataclasses_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_dataclasses_rule_catches_each_violation():
    code = (
        "from dataclasses import dataclass\n"
        "import json, dataclasses\n"
        "def record():\n    from dataclasses import replace\n    return replace\n"
        "from .dataclasses import local\n"
    )
    assert _dataclasses_imports(ast.parse(code)) == [
        "line 1: from dataclasses import", "line 2: import dataclasses", "line 4: from dataclasses import",
    ]


def _legs_reads(tree: ast.AST) -> list[str]:
    """Every read of an attribute named `legs`."""
    return [f"line {node.lineno}: reads .legs" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "legs"]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_only_superlin_reads_legs(path):
    if path.name != "superlin.py":
        assert _legs_reads(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_legs_rule_catches_a_planted_read():
    code = "def sign(space, c):\n    multi = space.multi_index(c)\n    return space.legs[0][multi[0]]\n"
    assert _legs_reads(ast.parse(code)) == ["line 3: reads .legs"]


VERDICT_FIELDS = ("ok", "witness", "detail")


def _verdict_fields(tree: ast.AST) -> list[str]:
    """Every annotated field named ok, witness or detail in a class other than Check."""
    return [f"line {stmt.lineno}: {node.name}.{stmt.target.id}" for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name != "Check"
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and getattr(stmt.target, "id", None) in VERDICT_FIELDS]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_check_is_the_one_verdict_record(path):
    assert _verdict_fields(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_verdict_rule_catches_a_planted_record():
    code = (
        "class R(NamedTuple):\n    ok: bool\n"
        "class Check(NamedTuple):\n    ok: bool\n    label: str = ''\n    witness: str = ''\n"
        "class Item(NamedTuple):\n    name: str\n    detail: str = ''\n"
    )
    assert _verdict_fields(ast.parse(code)) == ["line 2: R.ok", "line 9: Item.detail"]


# The one record that carries a built object beside its verdict.
CHECK_CARRIERS = {"fusion.py": ["RouteComparison.check"]}


def _check_fields(tree: ast.AST) -> list[str]:
    """Every class field annotated `Check`, as "Class.field"."""
    def names_check(ann: ast.expr) -> bool:
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            ann = ast.parse(ann.value, mode="eval").body
        return (isinstance(ann, ast.Name) and ann.id == "Check") or (
            isinstance(ann, ast.Attribute) and ann.attr == "Check")

    return [f"{node.name}.{stmt.target.id}" for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name) and names_check(stmt.annotation)]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_verdicts_carry_no_built_object(path):
    assert _check_fields(ast.parse(path.read_text(encoding="utf-8"))) == CHECK_CARRIERS.get(path.name, [])


def test_check_field_rule_catches_a_planted_record():
    code = (
        "class OnShellResult(NamedTuple):\n    check: Check\n    bethe: tuple\n"
        "class Pair(NamedTuple):\n    left: 'monodromy.Check'\n    size: int\n"
        "class Entry(NamedTuple):\n    onshell: bool\n"
    )
    assert _check_fields(ast.parse(code)) == ["OnShellResult.check", "Pair.left"]


# The packed term dict of MPoly and the slot width of its keys.
PACKED_NAMES = ("_packed", "_SLOT_BITS", "_SLOT")


def _packed_reads(tree: ast.AST) -> list[str]:
    """Every name, attribute or import of the packed term dict or the slot width."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in PACKED_NAMES:
            out.append(f"line {node.lineno}: reads .{node.attr}")
        elif isinstance(node, ast.Name) and node.id in PACKED_NAMES:
            out.append(f"line {node.lineno}: reads {node.id}")
        elif isinstance(node, ast.ImportFrom):
            out += [f"line {node.lineno}: imports {a.name}" for a in node.names if a.name in PACKED_NAMES]
    return sorted(out)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_only_weylspace_reads_packed_monomials(path):
    if path.name != "weylspace.py":
        assert _packed_reads(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_packed_rule_catches_each_planted_read():
    code = (
        "from .weylspace import MPoly, _SLOT_BITS\n"
        "def top(p):\n    return max(p._packed) >> (weylspace._SLOT * p.n)\n"
        "width = _SLOT_BITS\n"
    )
    assert _packed_reads(ast.parse(code)) == [
        "line 1: imports _SLOT_BITS", "line 3: reads ._SLOT", "line 3: reads ._packed", "line 4: reads _SLOT_BITS",
    ]


GROUP_BUILDERS = ("permutation_closure", "permutation_sign")


def _group_averages(tree: ast.AST) -> list[str]:
    """Definitions of a group closure or sign, calls of the group action, and permutations outside it."""
    out = []
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "symmetric_group_action":
            inside |= {id(n) for n in ast.walk(node)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in GROUP_BUILDERS:
            out.append(f"line {node.lineno}: defines {node.name}")
        elif isinstance(node, ast.Call):
            name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
            if name == "symmetric_group_action" or (name == "permutations" and id(node) not in inside):
                out.append(f"line {node.lineno}: calls {name}")
    return sorted(out, key=lambda v: int(v.split()[1].rstrip(":")))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_symmetric_group_average(path):
    assert _group_averages(ast.parse(path.read_text(encoding="utf-8"))) == []


def _image_homes(tree: ast.AST) -> tuple[list[int], dict[str, int]]:
    """Lines assigning AUX_IMAGE, and per top-level definition the number of its reads of AUX_IMAGE."""
    assigned = [t.lineno for node in ast.walk(tree) if isinstance(node, (ast.Assign, ast.AnnAssign))
                for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
                if getattr(t, "id", None) == "AUX_IMAGE"]
    reads = {}
    for top in getattr(tree, "body", []):
        n = sum(isinstance(node, ast.Name) and node.id == "AUX_IMAGE" and isinstance(node.ctx, ast.Load)
                for node in ast.walk(top))
        if n:
            reads[getattr(top, "name", f"line {top.lineno}")] = n
    return assigned, reads


def test_aux_image_has_one_home():
    for path in SOURCES:
        assigned, reads = _image_homes(ast.parse(path.read_text(encoding="utf-8")))
        if path.name == "fusion.py":
            assert len(assigned) == 1
            assert set(reads) == {"symmetrizers", "higher_transfer_supertrace"}
        else:
            assert (assigned, reads) == ([], {}), path.name


def test_group_rules_catch_each_planted_violation():
    code = (
        "def permutation_closure(gens, dim):\n    return {}\n"
        "def symmetrizer(space):\n    return sum(symmetric_group_action(space).values())\n"
        "def average(m):\n    return [p for p in itertools.permutations(range(m))]\n"
        "def symmetric_group_action(space):\n    return dict.fromkeys(permutations(range(3)))\n"
        "AUX_IMAGE = {True: (1, -1)}\n"
        "def route(m):\n    return AUX_IMAGE[True]\n"
    )
    tree = ast.parse(code)
    assert _group_averages(tree) == [
        "line 1: defines permutation_closure", "line 4: calls symmetric_group_action", "line 6: calls permutations",
    ]
    assert _image_homes(tree) == ([9], {"route": 1})
