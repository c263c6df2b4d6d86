#!/usr/bin/env python3
"""Survey the benchmark chains: divisors, eigenvalues, Jordan data, norms.

Usage: python scripts/spectral_survey.py [chain.json ...]
Without arguments the built-in benchmark chains are surveyed.
"""

import sys

from gl11chain.exactnum import format_scalar
from gl11chain.chain import ModuleSpec, cyclicity_and_irreducibility
from gl11chain.bethe import char_pair, completeness_report
from gl11chain.shapoform import norm_check
from gl11chain.suites import suite_specs


def poly_str(p):
    if p.is_zero():
        return "0"
    parts = []
    for i, c in enumerate(p.coeffs):
        if not c:
            continue
        head = format_scalar(c)
        if i == 0:
            parts.append(head)
        else:
            x = "x" if i == 1 else f"x^{i}"
            parts.append(x if c == 1 else f"{head} {x}")
    return " + ".join(reversed(parts))


def survey(name, spec):
    cp = char_pair(spec)
    cyc, irr = cyclicity_and_irreducibility(spec)
    print(f"== {name}: weights={[list(map(int, w)) for w in spec.weights]} "
          f"points={[format_scalar(b) for b in spec.points]} twist={[format_scalar(q) for q in spec.twist]}")
    print(f"   gamma = {poly_str(cp.gamma)}   cyclic={cyc} irreducible={irr}")
    if cp.roots is None:
        print("   gamma does not split over the rationals; no divisor survey")
        return
    rep = completeness_report(spec)
    for lv in rep.levels:
        print(f"   level {lv.level}: dim {lv.subspace_dim}, "
              f"diagonalizable={lv.diagonalizable}, complete={lv.complete}")
        for e in lv.entries:
            rec = norm_check(spec, e.divisor)
            print(f"      y = {poly_str(e.divisor.poly):<24s} E = {poly_str(e.eigenvalue):<24s} "
                  f"eig/gen = {e.eigen_dim}/{e.generalized_dim}  "
                  f"norm = {format_scalar(rec.lhs)} (formula {format_scalar(rec.rhs_resolved)}, equal={rec.equal})")


def main() -> int:
    if len(sys.argv) > 1:
        chains = {path: ModuleSpec.from_file(path) for path in sys.argv[1:]}
    else:
        chains = suite_specs()
    for name, spec in chains.items():
        survey(name, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
