"""Prescribing the third diamond type outside the prime field.

The toral element e_0 = y + sigma^(p-1) xbar y acts diagonally on
H(2;(1,n);Phi(1)); its eigenvectors e[r, alpha], alpha = r rho + s sigma,
carry a grading modulo (q-1)p in which X = e[1, rho+sigma] and
Y = e[2-q, 2 rho + sigma] have degree one.  The loop algebra is thin with
second diamond in degree q and types in arithmetic progression
mu_t = -1 + (t-2) sigma/rho.  Prescribing mu_3 outside the prime field
determines (sigma, rho) exactly, and distinct mu_3 give distinct towers.
The demo exits 1 if any run fails.
"""

import sys

from thinlie import field_create, in_prime_field, params_from_mu3
from thinlie.verify import run_finite

failed = []


def record(name, run):
    """run.ok, recording name as failed when it is not."""
    if not run.ok:
        failed.append(name)
    return run.ok


F9 = field_create(3, 2)
print("All six mu3 in F_9 \\ F_3, via sigma^p (1/(mu3^p+1) - 1/(mu3+1)) = 1:")
for mu3 in F9.elements():
    if in_prime_field(mu3):
        continue
    params = params_from_mu3(mu3)
    run = run_finite(3, 1, mu3=mu3)
    types = [str(d.type) for d in run.report.diamonds[1:5]]
    print(f"  mu3 = {mu3}: sigma = {params.sigma}, rho = {params.rho}, "
          f"types {types} -> {'thin' if record(f'mu3 = {mu3}', run) else 'FAIL'}")

print("\nThe q = 25-element field version, one prescription:")
F25 = field_create(5, 2)
run = run_finite(5, 1, mu3=F25.generator())
record("q = 5 over F_25", run)
rep = run.report
print(f"  covering {rep.covering.verdict()}, second diamond at {rep.diamonds[1].degree},"
      f" third type {rep.diamonds[2].type}, k = {rep.k}")
print(f"  first chain <Y>: {rep.chains.first_ok}, second chain: {rep.chains.second_ok}")

print("\nOver F_49 the full second-chain hypotheses (p > 5) hold as well:")
run = run_finite(7, 1, mu3=field_create(7, 2).generator())
print(f"  q = 7: pattern ok {record('q = 7 over F_49', run)}, chains "
      f"{run.report.chains.first_ok}/{run.report.chains.second_ok},"
      f" proviso: {run.report.chains.proviso}")

if failed:
    print(f"\nfailed: {', '.join(failed)}")
    sys.exit(1)
