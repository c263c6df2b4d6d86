"""Rules the library source keeps, checked on its syntax tree.

Invariants raise exceptions instead of using `assert`, so they still hold
under `python -O`, and the arithmetic is exact, so no float literal or
`float` name appears anywhere in the package.  The split test has one
home: only rational.py defines the sieve, the peel and the divisor list,
and its `rational_roots` is called only by `exactnum.roots_with_multiplicity`
and by `chain.gamma_splits`, which screens each fresh `random-spec`
candidate once; `roots_with_multiplicity` runs once per chain, inside
`CharPair`.
Every name the benchmark tracer wraps exists in the package.  Matrices over
Q(x) have one form, FracMatrix: linalg.py never names RatFun, and no source
file defines `from_ratfun`.  The start-up core that `--help` and
`random-spec` load (cli, chain and rational) never imports from exactnum,
monodromy, superlin, linalg or suites when it is imported, so those load
only when a command uses them.  No source file imports
`dataclasses`, which loads `inspect` on every command's start-up: records
are NamedTuples or plain classes.  There is one leg type: only superlin.py
calls `SuperSpace(`, and no module reads a leg list or leg dimensions
(`.legs`, `.dims`).  superlin reads the leg states off the bits of a basis
index; every other module asks the space for levels, flips and leg
actions.  A verdict has one record, monodromy.Check: no other class
declares a field named `ok`, `witness` or `detail`.  A verdict carries no
built object: `fusion.RouteComparison` is the one record with a field
annotated `Check`.  The packed monomial keys
of MPoly are read in weylspace.py alone: no other module names the packed
term dict or the slot width.  No module builds the symmetric group to average
over it: none defines a permutation closure or a permutation sign, none calls
`symmetric_group_action`, and `itertools.permutations` runs only inside it.
The image basis of the symmetrizers, `AUX_IMAGE`, is assigned once, in
fusion.py, which alone names it, and both `symmetrizers` and route A read it.
The eps regularization has two homes: no module but exactnum.py and bethe.py
names `eps_limit` or `NonRemovableSingularity`, so the norm layer takes no
limit; suites.py still compares `bethe.bethe_vector_eps` with the direct vector.
The modified action has one source: only the monomial table `_monomial_image`
calls `.swap(` or `.divided_difference(`, and every weyl path reads the table.
The package builds no dense coordinate chart: spans take sparse vectors, and
no module defines `Coords`, `monomials_upto` or `to_vector`; the chart is the
tests' oracle, in tests/actionoracle.py.
A level's coordinates are read at its basis's own indices: no module
defines or names `SpanCoordinates` or `basis_weights`, so no second
elimination solves for coordinates; the tag coordinates are the tests' field
oracle, tests/densemat.py.
A level's Bethe algebra has one object, the transfer family of bethe.py:
no module defines `CoefficientFamily`, and bethealg.py defines no class, so
the operators B_r of the string-point expansion are built only by the tests'
oracle, tests/bethealgoracle.py.  Nothing in the package expands at
infinity: no module defines, imports or names `laurent_expand`,
`laurent_coefficients` or `t_coefficient`; that route is the tests' oracle,
tests/coefforacle.py.
Commutation has one decider: only linalg.py defines the Kronecker codec
(`slot_width`, `kronecker_values`, `kronecker_slots`, `product_slots`) and
`first_noncommuting`, and monodromy does not re-export them; no module
defines or calls `commutes_with`; and the RTT sign table, the sigma and sgn
expressions of the exchange relations, is written only in
`monodromy.exchange_signs`.
The inverse tau-series has one route in the package, its coefficient
recurrence: no `inverse_series` calls `.mul(`, so the Neumann powers are
the tests' oracle, tests/coefforacle.py.
The process policy has one home: only cli.py imports `gc` or `atexit`, and
the one use of the collector is the `gc.freeze` that `main` hands to
`atexit`, so no library module freezes, disables or forces a collection.
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


# The split test's two entry points, and the top-level definitions allowed to call them, per source file.
SPLIT_TESTS = ("roots_with_multiplicity", "rational_roots")
SPLIT_TEST_CALLERS = {
    "bethe.py": {"CharPair"}, "exactnum.py": {"roots_with_multiplicity"}, "chain.py": {"gamma_splits"},
}


def _split_test_callers(tree: ast.Module) -> list[str]:
    """The top-level definition around each call of a split test, in source order."""
    out = []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in SPLIT_TESTS:
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
        "def cmd_random_spec(args):\n    return rational.rational_roots(primitive(ints)) is None\n"
    )
    assert _split_test_callers(ast.parse(code)) == ["CharPair", "report", "line 6", "cmd_random_spec"]
    assert set(_split_test_callers(ast.parse(code))) - SPLIT_TEST_CALLERS["bethe.py"] == {
        "report", "line 6", "cmd_random_spec",
    }


# The split test's integer helpers, each defined in rational.py alone.
SPLIT_HELPERS = ("_root_count_mod", "_peel", "_divisors")


def _split_helper_definitions(tree: ast.AST) -> list[str]:
    """Every definition, at any depth, of a name in SPLIT_HELPERS."""
    found = [f"line {node.lineno}: defines {node.name}" for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in SPLIT_HELPERS]
    return sorted(found, key=lambda v: int(v.split()[1].rstrip(":")))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_one_split_test(path):
    found = sorted(v.split()[-1] for v in _split_helper_definitions(ast.parse(path.read_text(encoding="utf-8"))))
    assert found == (sorted(SPLIT_HELPERS) if path.name == "rational.py" else [])


def test_split_helper_rule_catches_each_planted_definition():
    code = (
        "from .rational import _peel\n"
        "def _root_count_mod(ints, ell):\n    return 0\n"
        "class Screen:\n    def _divisors(self, m):\n        return [1]\n"
        "def screen(ints):\n    def _peel(ints, p, q):\n        return None\n    return _peel(ints, 1, 1)\n"
    )
    assert _split_helper_definitions(ast.parse(code)) == [
        "line 2: defines _root_count_mod", "line 5: defines _divisors", "line 8: defines _peel",
    ]


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
STARTUP_CORE = ("cli.py", "chain.py", "rational.py")
NOT_AT_STARTUP = ("monodromy", "superlin", "linalg", "suites", "exactnum")


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
        "line 10: from .monodromy import", "line 15: from .superlin import", "line 16: from .exactnum import",
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


def _leg_model_reads(tree: ast.AST) -> list[str]:
    """Every read of an attribute named `legs` or `dims`, the general leg model's fields, in line order."""
    found = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr in ("legs", "dims")]
    return [f"line {node.lineno}: reads .{node.attr}" for node in sorted(found, key=lambda node: node.lineno)]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_only_superlin_reads_legs(path):
    # superlin reads the leg states off the bits of a basis index; no module reads a leg list
    assert _leg_model_reads(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_legs_rule_catches_a_planted_read():
    code = (
        "def sign(space, c):\n    multi = space.multi_index(c)\n    return space.legs[0][multi[0]]\n"
        "def size(space):\n    return space.dims[0]\n"
    )
    assert _leg_model_reads(ast.parse(code)) == ["line 3: reads .legs", "line 5: reads .dims"]


def _space_constructions(tree: ast.AST) -> list[str]:
    """Every call of `SuperSpace(` or `<module>.SuperSpace(`, in line order."""
    found = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and "SuperSpace" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    return [f"line {node.lineno}: calls SuperSpace" for node in sorted(found, key=lambda node: node.lineno)]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_only_superlin_builds_a_space(path):
    if path.name != "superlin.py":
        assert _space_constructions(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_space_rule_catches_a_planted_call():
    code = (
        "from . import superlin\nfrom .superlin import SuperSpace\n"
        "def aux(m):\n    return SuperSpace(m)\n"
        "trivial = superlin.SuperSpace([(0,)])\nshared = SuperSpace.tensor_power(2)\n"
    )
    assert _space_constructions(ast.parse(code)) == ["line 4: calls SuperSpace", "line 5: calls SuperSpace"]


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


# The modules allowed to name the eps limit and its exception.
EPS_HOMES = ("exactnum.py", "bethe.py")
EPS_NAMES = ("eps_limit", "NonRemovableSingularity")


def _eps_names(tree: ast.AST) -> list[str]:
    """Every name, attribute or import of eps_limit or NonRemovableSingularity."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in EPS_NAMES:
            out.append(f"line {node.lineno}: names {node.id}")
        elif isinstance(node, ast.Attribute) and node.attr in EPS_NAMES:
            out.append(f"line {node.lineno}: names .{node.attr}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out += [f"line {node.lineno}: imports {a.name}" for a in node.names if a.name in EPS_NAMES]
    return sorted(out)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_eps_limit_stays_in_exactnum_and_bethe(path):
    if path.name not in EPS_HOMES:
        assert _eps_names(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_eps_rule_catches_each_planted_name():
    code = (
        "from .exactnum import Poly, eps_limit\n"
        "def norm(v):\n    try:\n        return exactnum.eps_limit(v)\n"
        "    except NonRemovableSingularity:\n        return None\n"
        "def vector(spec, roots):\n    return bethe.bethe_vector_eps(spec, roots)\n"
    )
    assert _eps_names(ast.parse(code)) == [
        "line 1: imports eps_limit", "line 4: names .eps_limit", "line 5: names NonRemovableSingularity",
    ]


# The one definition that applies the swap and divided-difference primitives: the monomial table.
TABLE_BUILDER = "_monomial_image"
PRIMITIVES = ("swap", "divided_difference")


def _primitive_calls(tree: ast.AST) -> list[str]:
    """Every call of `.swap(` or `.divided_difference(` outside the monomial table's definition."""
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == TABLE_BUILDER:
            inside |= {id(n) for n in ast.walk(node)}
    found = [f"line {node.lineno}: calls .{node.func.attr}" for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in PRIMITIVES and id(node) not in inside]
    return sorted(found, key=lambda v: int(v.split()[1].rstrip(":")))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_only_the_monomial_table_applies_the_primitives(path):
    assert _primitive_calls(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_primitive_rule_catches_each_planted_call():
    code = (
        "def _monomial_image(n, i, key):\n    mono = MPoly._raw(n, {key: 1})\n"
        "    return mono.swap(i, i + 1), mono.divided_difference(i)\n"
        "def modified_action(space, i, f):\n"
        "    return {c: p.swap(i, i + 1) + p.divided_difference(i) for c, p in f.items()}\n"
        "lowered = poly.divided_difference(0)\n"
    )
    assert _primitive_calls(ast.parse(code)) == [
        "line 5: calls .swap", "line 5: calls .divided_difference", "line 6: calls .divided_difference",
    ]


# The dense chart of the polynomial model is a test oracle (tests/actionoracle.py), not package code.
CHART_NAMES = ("Coords", "monomials_upto", "to_vector")


def _chart_definitions(tree: ast.AST) -> list[str]:
    """Every class, function or assigned name called Coords, monomials_upto or to_vector, in line order."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in CHART_NAMES:
            found.append((node.lineno, node.name))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id in CHART_NAMES:
            found.append((node.lineno, node.id))
    return [f"line {line}: defines {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_coordinate_chart(path):
    assert _chart_definitions(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_chart_rule_catches_each_planted_definition():
    code = (
        "class Coords:\n    def to_vector(self, f):\n        return []\n"
        "monomials_upto = sorted\n"
        "v = chart.to_vector(f)\n"
    )
    assert _chart_definitions(ast.parse(code)) == [
        "line 1: defines Coords", "line 2: defines to_vector", "line 4: defines monomials_upto",
    ]


# A level's coordinates are read at its basis's own indices (bethe.restrict_operators): no second elimination solves
# for them, so no module defines or names SpanCoordinates, and a basis vector's weight is read off weight_spaces,
# so none defines or names basis_weights.  The tag coordinates are the tests' field oracle (tests/densemat.py).
SOLVER_NAMES = ("SpanCoordinates", "basis_weights")


def _solver_names(tree: ast.AST) -> list[str]:
    """Every definition, import or use of SpanCoordinates or basis_weights, in line order."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in SOLVER_NAMES:
            found.append((node.lineno, f"defines {node.name}"))
        elif isinstance(node, ast.Name) and node.id in SOLVER_NAMES:
            found.append((node.lineno, f"{'defines' if isinstance(node.ctx, ast.Store) else 'names'} {node.id}"))
        elif isinstance(node, ast.Attribute) and node.attr in SOLVER_NAMES:
            found.append((node.lineno, f"names .{node.attr}"))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [(node.lineno, f"imports {a.name}") for a in node.names if a.name.split(".")[-1] in SOLVER_NAMES]
    return [f"line {line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_coordinate_solver(path):
    assert _solver_names(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_solver_rule_catches_each_planted_violation():
    code = (
        "from .linalg import ExactMatrix, SpanCoordinates\n"
        "class SpanCoordinates:\n    pass\n"
        "span = linalg.SpanCoordinates(4, basis)\n"
        "def basis_weights(space, leg_weights):\n    return []\n"
        "weights = basis_weights(space, legs)\n"
        "basis_weights = weight_spaces\n"
    )
    assert _solver_names(ast.parse(code)) == [
        "line 1: imports SpanCoordinates", "line 2: defines SpanCoordinates", "line 4: names .SpanCoordinates",
        "line 5: defines basis_weights", "line 7: names basis_weights", "line 8: defines basis_weights",
    ]
    # the index reading names neither
    assert _solver_names(ast.parse("ops, index = bethe.restrict_operators(tq, basis)\n")) == []


# The B-route to the Bethe algebra is a test oracle (tests/bethealgoracle.py), not package code, and so is
# the Laurent route at infinity (tests/coefforacle.py).
B_FAMILY = "CoefficientFamily"
SERIES_NAMES = ("laurent_expand", "laurent_coefficients", "t_coefficient")


def _b_route(tree: ast.AST, bethealg: bool) -> list[str]:
    """Every definition of CoefficientFamily, every use of a Laurent-route name and, in bethealg.py, every class."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and (bethealg or node.name == B_FAMILY):
            found.append((node.lineno, f"defines class {node.name}"))
        elif isinstance(node, ast.FunctionDef) and node.name in (B_FAMILY, *SERIES_NAMES):
            found.append((node.lineno, f"defines {node.name}"))
        elif isinstance(node, ast.Name) and node.id in (B_FAMILY, *SERIES_NAMES):
            if isinstance(node.ctx, ast.Store):
                found.append((node.lineno, f"defines {node.id}"))
            elif node.id in SERIES_NAMES:
                found.append((node.lineno, f"names {node.id}"))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [(node.lineno, f"imports {a.name}") for a in node.names if a.name.split(".")[-1] in SERIES_NAMES]
        elif isinstance(node, ast.Attribute) and node.attr in SERIES_NAMES:
            found.append((node.lineno, f"names .{node.attr}"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_b_operators_only_in_the_oracle(path):
    assert _b_route(ast.parse(path.read_text(encoding="utf-8")), path.name == "bethealg.py") == []


def test_b_route_rule_catches_each_planted_violation():
    code = (
        "from .exactnum import Poly, laurent_expand\n"
        "class CoefficientFamily:\n    pass\n"
        "class SpectralEntry(NamedTuple):\n    ok: bool\n"
        "g = exactnum.laurent_expand(r, 3)\n"
        "CoefficientFamily = TransferFamily\n"
        "def laurent_coefficients(m, num, den, order):\n    return t_coefficient(m, 1, 1, order)\n"
        "from .monodromy import t_coefficient as tc\n"
        "t_coefficient = monodromy.zero_mode\n"
    )
    series = [
        "line 8: defines laurent_coefficients", "line 9: names t_coefficient", "line 10: imports t_coefficient",
        "line 11: defines t_coefficient",
    ]
    assert _b_route(ast.parse(code), bethealg=True) == [
        "line 1: imports laurent_expand", "line 2: defines class CoefficientFamily",
        "line 4: defines class SpectralEntry", "line 6: names .laurent_expand", "line 7: defines CoefficientFamily",
        *series,
    ]
    assert _b_route(ast.parse(code), bethealg=False) == [
        "line 1: imports laurent_expand", "line 2: defines class CoefficientFamily", "line 6: names .laurent_expand",
        "line 7: defines CoefficientFamily", *series,
    ]
    # the package's one zero-mode reader names none of them
    assert _b_route(ast.parse("t1 = monodromy.zero_mode(pencil, 2, 1)\n"), bethealg=False) == []


# The Kronecker codec and the one commutation decider, all defined in linalg.py.
CODEC_NAMES = ("slot_width", "kronecker_values", "kronecker_slots", "product_slots", "first_noncommuting")


def _codec_definitions(tree: ast.AST) -> list[str]:
    """Every definition of a codec name and every call, name or definition of commutes_with, in line order."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in CODEC_NAMES + ("commutes_with",):
            found.append((node.lineno, f"defines {node.name}"))
        elif isinstance(node, ast.Name) and node.id in CODEC_NAMES and isinstance(node.ctx, ast.Store):
            found.append((node.lineno, f"defines {node.id}"))
        elif isinstance(node, ast.Attribute) and node.attr == "commutes_with":
            found.append((node.lineno, "names .commutes_with"))
        elif isinstance(node, ast.Name) and node.id == "commutes_with":
            found.append((node.lineno, "names commutes_with"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_one_commutator_decider(path):
    found = [f.split(": ", 1)[1] for f in _codec_definitions(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == ([f"defines {name}" for name in CODEC_NAMES] if path.name == "linalg.py" else [])


def test_monodromy_does_not_reexport_the_codec():
    monodromy = importlib.import_module("gl11chain.monodromy")
    assert [name for name in CODEC_NAMES if hasattr(monodromy, name)] == []


def test_codec_rule_catches_each_planted_violation():
    code = (
        "def slot_width(bound):\n    return bound.bit_length() + 1\n"
        "kronecker_values = linalg.kronecker_values\n"
        "class ExactMatrix:\n    def commutes_with(self, other):\n        return True\n"
        "ok = a.commutes_with(b)\n"
        "check = commutes_with\n"
        "w, vals = kronecker_values([m], 2)\n"
    )
    assert _codec_definitions(ast.parse(code)) == [
        "line 1: defines slot_width", "line 3: defines kronecker_values", "line 5: defines commutes_with",
        "line 7: names .commutes_with", "line 8: names commutes_with",
    ]


def _is_level_two_test(node) -> bool:
    """A comparison `x == 2`."""
    return (isinstance(node, ast.Compare) and len(node.ops) == 1 and isinstance(node.ops[0], ast.Eq)
            and isinstance(node.comparators[0], ast.Constant) and node.comparators[0].value == 2)


def _is_parity_test(node) -> bool:
    """An odd-generator test: `E_PARITY[...]` or `(a + b) % 2`."""
    if isinstance(node, ast.Subscript):
        return getattr(node.value, "id", None) == "E_PARITY"
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod) and isinstance(node.left, ast.BinOp)


def _addends(node) -> list:
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _addends(node.left) + _addends(node.right)
    return [node]


def _rtt_sign_sites(tree: ast.AST) -> list[str]:
    """Every sgn expression (a sum of three products of `== 2` tests) and every sigma expression (an `and`
    of two parity tests), with the top-level definition around it."""
    out = []
    for top in getattr(tree, "body", []):
        where = getattr(top, "name", f"line {top.lineno}")
        for node in ast.walk(top):
            terms = _addends(node) if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add) else []
            if len(terms) >= 3 and all(isinstance(t, ast.BinOp) and isinstance(t.op, ast.Mult)
                                       and _is_level_two_test(t.left) and _is_level_two_test(t.right) for t in terms):
                out.append(f"{where}: sgn at line {node.lineno}")
            elif isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And) and len(node.values) == 2 and all(
                    map(_is_parity_test, node.values)):
                out.append(f"{where}: sigma at line {node.lineno}")
    return out


def test_rtt_sign_table_has_one_home():
    for path in SOURCES:
        sites = _rtt_sign_sites(ast.parse(path.read_text(encoding="utf-8")))
        if path.name == "monodromy.py":
            assert [site.split(":")[0] for site in sites] == ["exchange_signs", "exchange_signs"]
        else:
            assert sites == [], path.name


def test_sign_rule_catches_each_planted_copy():
    code = (
        "def exchange_signs(i, j, r, s):\n"
        "    return (-1 if E_PARITY[(i, j)] and E_PARITY[(r, s)] else 1,\n"
        "            -1 if ((i == 2) * (r == 2) + (s == 2) * (i == 2) + (s == 2) * (r == 2)) % 2 else 1)\n"
        "def _zero_mode_failure(pencil):\n"
        "    sigma = -1 if (i + j) % 2 and (r + s) % 2 else 1\n"
        "    sgn = -1 if ((i == 2) * (r == 2) + (s == 2) * (i == 2) + (s == 2) * (r == 2)) % 2 else 1\n"
        "def iota_sign(i, j):\n"
        "    return -1 if ((i == 2) * (j == 2) + (i == 2)) % 2 else 1\n"
    )
    assert sorted(_rtt_sign_sites(ast.parse(code))) == [
        "_zero_mode_failure: sgn at line 6", "_zero_mode_failure: sigma at line 5",
        "exchange_signs: sgn at line 3", "exchange_signs: sigma at line 2",
    ]


# The modules of the process policy, imported by cli.py alone.
POLICY_MODULES = ("gc", "atexit")


def _collector_uses(tree: ast.AST) -> list[str]:
    """Every import of gc or atexit and every `gc.<name>` other than an argument of atexit.register/unregister."""
    handed = {
        id(arg) for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and getattr(node.func.value, "id", None) == "atexit" and node.func.attr in ("register", "unregister")
        for arg in node.args if isinstance(arg, ast.Attribute) and getattr(arg.value, "id", None) == "gc"
        and arg.attr == "freeze"
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, f"imports {a.name}") for a in node.names if a.name in POLICY_MODULES]
        elif isinstance(node, ast.ImportFrom) and node.module in POLICY_MODULES:
            found.append((node.lineno, f"imports from {node.module}"))
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "gc" and id(node) not in handed:
            found.append((node.lineno, f"names gc.{node.attr}"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_collector_policy_only_in_cli(path):
    found = [f.split(": ", 1)[1] for f in _collector_uses(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == (["imports atexit", "imports gc"] if path.name == "cli.py" else [])


def test_collector_rule_catches_each_planted_violation():
    code = (
        "import gc\n"
        "from atexit import register\n"
        "atexit.unregister(gc.freeze)\natexit.register(gc.freeze)\n"
        "gc.disable()\n"
        "gc.freeze()\n"
        "atexit.register(gc.collect)\n"
        "import os, atexit\n"
    )
    assert _collector_uses(ast.parse(code)) == [
        "line 1: imports gc", "line 2: imports from atexit", "line 5: names gc.disable", "line 6: names gc.freeze",
        "line 7: names gc.collect", "line 8: imports atexit",
    ]


# The inverse tau-series is solved by its coefficient recurrence: no inverse_series in the package multiplies whole
# operators with DiffOp.mul, so the Neumann powers live only in the tests' oracle (tests/coefforacle.py).
def _series_products(tree: ast.AST) -> list[str]:
    """Every .mul( call inside a function named inverse_series, in line order."""
    found = set()
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name == "inverse_series":
            found |= {
                node.lineno for node in ast.walk(fn)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "mul"
            }
    return [f"line {line}: inverse_series calls .mul(" for line in sorted(found)]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_inverse_series_multiplies_no_operators(path):
    assert _series_products(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_series_rule_catches_each_planted_product():
    code = (
        "class DiffOp:\n"
        "    def inverse_series(self, hi):\n"
        "        nil = c0inv.mul(rest, hi=hi)\n"
        "        return out.mul(c0inv, hi=hi)\n"
        "    def mul(self, other, hi=None):\n"
        "        return self.mul(other)\n"
        "def inverse_series(d, hi):\n"
        "    return [power.mul(nil) for _ in range(hi)]\n"
    )
    assert _series_products(ast.parse(code)) == [
        "line 3: inverse_series calls .mul(", "line 4: inverse_series calls .mul(", "line 8: inverse_series calls .mul(",
    ]
    # the recurrence's products are FracMatrix @, not DiffOp.mul
    assert _series_products(ast.parse("def inverse_series(self, hi):\n    return c @ u.shift(p)\n")) == []
