"""Run the exhaustive verifier and prove it can fail.

The suite enumerates every poset up to the bound (deduplicated up to
isomorphism) and evaluates both sides of every registered identity.
The second half injects the shipped faults and shows each one caught.
"""

import sys
import time

from priestley import oracle

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
for name, (caught, mcases) in sorted(oracle.run_mutations().items()):
    first = next((c for c in mcases if not c.ok()), None)
    mark = "caught" if caught else "MISSED"
    print(f"  {name:24} {mark}: {first.witness if first else '-'}")
