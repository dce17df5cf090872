"""A thin loop algebra with diamond types -1 and infinity.

Assigning the monomial x^(i) y^(j) the degree (1-q)i - j + q modulo (q-1)r
turns H(2;n;Phi(1)) into a cyclically graded algebra whose degree-one
component is spanned by X = x and Y = ybar.  The loop algebra it generates
is thin: diamonds sit in every degree congruent to 1 mod (q-1), with type
-1 exactly in degrees congruent to q mod (q-1)r and type infinity at all
the others.  The demo exits 1 if any run fails.
"""

import sys

from thinlie.verify import run_mixed

failed = []

for p, n1, n2 in [(3, 1, 1), (5, 1, 1), (3, 1, 2)]:
    q, r = p ** n2, p ** n1
    run = run_mixed(p, n1, n2)
    rep = run.report
    if not run.ok:
        failed.append(f"p={p}, n=({n1},{n2})")
    print(f"p={p}, q={q}, r={r}: modulus {(q-1)*r}, depth {rep.depth}, "
          f"covering {rep.covering.verdict()}, pattern "
          f"{'matches' if run.ok else 'MISMATCH: ' + '; '.join(run.mismatches)}")
    shown = [f"deg {d.degree}: {d.type if d.kind == 'genuine' else d.kind}"
             for d in rep.diamonds[1:7]]
    print("   diamonds:", " | ".join(shown))
    print("   per-degree dimensions:", rep.dims[: 2 * (q - 1) * r])

print("\nIn characteristic two the same recipe runs inside the derived")
print("subalgebra, and the type -1 = 1 diamonds become fake:")
run = run_mixed(2, 1, 2)
rep = run.report
if not run.ok:
    failed.append("p=2, n=(1,2)")
print(f"p=2, q=4: covering {rep.covering.verdict()}, k = {rep.k},"
      f" dim at k = {rep.dim_at(rep.k)}")
print("   slots:", [(d.degree, d.kind) for d in rep.diamonds[:6]])

if failed:
    print(f"\nfailed: {', '.join(failed)}")
    sys.exit(1)
