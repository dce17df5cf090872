"""Recovering the prime-field diamond towers by degeneration.

Two limits of the finite-type construction land back in the prime field:

  * sigma = 0 (so rho = 1): the eigenvectors collapse to a q-dimensional
    Zassenhaus subalgebra and every diamond has type -1;
  * eps = 0: the algebra degenerates to a central extension; gradings with
    sigma/rho a nonzero prime-field ratio other than -1 survive, the loop
    algebra of the center quotient is thin, and the progression
    mu_t = -1 + (t-2) sigma/rho now walks through the prime field, turning
    into a fake diamond whenever it hits 0 or 1.

The demo exits 1 if any run fails.
"""

import sys

from thinlie.verify import run_eps_zero, run_sigma_zero

failed = []

print("sigma = 0 (all diamonds of type -1):")
for p in (3, 5):
    run = run_sigma_zero(p, 1)
    rep = run.report
    types = [str(d.type) for d in rep.diamonds[1:5]]
    if not run.ok:
        failed.append(f"sigma = 0 at p={p}")
    print(f"  p={p}: subalgebra dim {p}, covering {rep.covering.verdict()},"
          f" types {types}, ok {run.ok}")

print("\neps = 0 (prime-field progressions with fakes at 0 and 1):")
for p, ratio in [(3, 1), (5, 1), (5, 2), (5, 3)]:
    run = run_eps_zero(p, 1, ratio)
    rep = run.report
    if not run.ok:
        failed.append(f"eps = 0 at p={p}, ratio {ratio}")
    pattern = [
        f"{d.degree}:{d.kind if d.kind != 'genuine' else d.type}"
        for d in rep.diamonds[1:8]
    ]
    print(f"  p={p}, sigma/rho={ratio}: {' '.join(pattern)}  ok={run.ok}")

print("\nThe excluded ratio -1 would make X the central element e[1,0];")
print("the ratio 0 (rho = 0) kills the covering property instead of grading thinly.")

if failed:
    print(f"\nfailed: {', '.join(failed)}")
    sys.exit(1)
