"""Exact-arithmetic toolkit for gl(1|1) supersymmetric XXX spin chains.

Everything is computed over the rationals with no rounding: monodromy
pencils on tensor products of evaluation modules, the Bethe ansatz
(divisors, Bethe vectors, eigenvalues, completeness), the Bethe algebra
the transfer coefficients generate on weight subspaces, the contravariant
form and norms, and the higher transfer matrices with their Berezinian and
difference-operator identities.

Every submodule but `cli` loads on first use, so a command runs only the
modules it touches.  `--help` runs `cli` alone.  `random-spec` adds the
chain layer, `chain` and the leaf module `rational` (scalars and the
integer split test), and every other command also adds `exactnum`,
`monodromy`, `superlin` and `linalg`.  `verify` adds `suites`,
and its suites add bethe (bethe, algebra, norms, fusion), bethealg
(algebra), shapoform (norms), fusion (fusion) and weylspace (weyl).
`spectrum` adds bethe, fusion and shapoform.  `from . import bethe` at the
top of a module is lazy; `from .bethe import f` loads bethe.  An import
error in a lazy module surfaces at its first use.  `LazyLoader` is not
thread-safe on Python 3.11, and gl11chain starts no threads.

Records are `typing.NamedTuple`s, or plain classes with an explicit
`__init__` where they coerce, validate or cache (`Weight`, `ModuleSpec`,
`CharPair`, `TransferFamily`, `fusion.DiffOp`).  The standard record
decorator is not used: its module loads `inspect`, which would lengthen
every command's start-up.
"""

import importlib.util
import sys

_LAZY = (
    "bethe", "bethealg", "chain", "exactnum", "fusion", "linalg", "monodromy", "rational", "shapoform", "suites",
    "superlin", "weylspace",
)
for _name in _LAZY:
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    # also bound on the package, so `from . import X` does not import X, which reads X.__spec__ and so loads X
    sys.modules[_spec.name] = globals()[_name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_spec.name])
del _name, _spec
