"""Run every verification suite and print the report.

The suites cover: exhaustive agreement of the two dominance routes, the
dominance relation's structure (reflexive and antisymmetric on the full
one-count grid, intransitive), exact conditional selection probabilities,
the selection growth inequalities from the exact selection law, the
level-function validator and its reference potential, the standalone
numeric inequalities (grids and an exact binomial sum), and the
product-occupancy drift statements as exact sums over the offspring law,
with a chi-square cross-check of the engine against that law.

Equivalent to `coevo check`; a nonzero exit means some suite failed.

Run:  python3 demos/verification_suite.py
"""

import sys
import time

from coevo.harness import run_checks

start = time.perf_counter()
results = run_checks("all")
failed = [r for r in results if not r.passed]

width = max(len(r.name) for r in results)
for r in results:
    status = "PASS" if r.passed else "FAIL"
    print(f"[{status}] {r.name:<{width}}  {r.detail}")

print(f"\n{len(results) - len(failed)}/{len(results)} suites passed "
      f"in {time.perf_counter() - start:.1f} s")
sys.exit(2 if failed else 0)
