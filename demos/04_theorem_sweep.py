"""Run the exhaustive verifier and prove it can fail.

The suite enumerates every poset up to the bound (deduplicated up to
isomorphism) and evaluates both sides of every registered identity.
The second half plants a fault of its own, a wrong closure on the
finite engines, and shows the unchanged suite fail with a witness.
"""

import sys
import time

from priestley import oracle
from priestley import spectrum as sp

bound = 5  # bump to 6 for the full run (the acceptance suite does)

t0 = time.time()
cases = oracle.run_suite(bound=bound)
summary = oracle.summarize(cases)
# the wall time goes to stderr, so stdout is the same on every run
print(f"bound {bound}: {summary['verified']}/{summary['total']} cases verified")
print(f"verified in {time.time() - t0:.1f}s", file=sys.stderr)
for c in summary["failures"]:
    print("  FAILED", c.theorem_id, "on", c.instance, "|", c.witness)

per_theorem = {}
for c in cases:
    per_theorem.setdefault(c.theorem_id, 0)
    per_theorem[c.theorem_id] += 1
print("cases per theorem:")
for tid in sorted(per_theorem):
    print(f"  {tid:32} {per_theorem[tid]}")

print()
print("fault injection:")
# closure sends every nonempty upset to the whole space, so d does too
closure = sp.FiniteEngine.closure
sp.FiniteEngine.closure = lambda E, a: E.full if a else a
try:
    failed = oracle.summarize(oracle.run_suite(bound=bound))["failures"]
finally:
    sp.FiniteEngine.closure = closure
print(f"  a wrong FiniteEngine.closure: {'caught' if failed else 'MISSED'}, "
      f"{len(failed)} failed cases")
failed_by_theorem = {}
for c in failed:
    failed_by_theorem.setdefault(c.theorem_id, []).append(c.witness)
for tid in sorted(failed_by_theorem):
    witnesses = failed_by_theorem[tid]
    print(f"  {tid:32} {len(witnesses):3} failed, first: {witnesses[0]}")
