#!/usr/bin/env python3
"""Exhaustive and randomized equivalence sweeps at desk scale.

Every decision procedure in the library is paired with an independent
route (brute-force enumeration, axiom scans, or a second
characterization); the sweeps run both sides over small instance families
and demand zero disagreements.  Each sweep's description printed below
is the first line of its docstring.

    python demos/05_verification_sweeps.py
"""

import sys

from proxigraph.theorems import SWEEPS

# Small bounds keep this demo under a minute; the test suite runs the
# full-size versions (all 1024 graphs on 5 vertices, 1000 random
# ultrametric spaces, and so on).
BOUNDS = {
    "t3.9": dict(max_n=4),
    "t3.4": dict(max_n=4),
    "t3.6": dict(max_n=4),
    "c2.9": dict(max_n=4),
    "c3.10": dict(max_n=5),
    "t3.16": dict(max_n=5),
    "c3.12": dict(max_n=5),
    "p3.22": dict(max_n=4),
    "p3.9": dict(max_n=4, count=2, seed=1),
    "t2.1": dict(count=100, seed=1),
    "t3.10": dict(max_n=5, count=100, seed=1),
    "t3.5": dict(count=100, seed=1),
}

failures = 0
for sweep_id in sorted(SWEEPS):
    spec = SWEEPS[sweep_id]
    result = spec.run(**BOUNDS[sweep_id])
    status = "ok " if result.ok else "FAIL"
    print(f"[{status}] {sweep_id:6s} {spec.description}: {result.checked} instances")
    for note in result.notes:
        print(f"        {note}")
    if not result.ok:
        failures += 1
        print(f"        first counterexample: {result.counterexamples[0]}")

print()
print("all sweeps clean" if failures == 0 else f"{failures} sweeps FAILED")
sys.exit(0 if failures == 0 else 1)
