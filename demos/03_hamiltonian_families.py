"""The graded Hamiltonian families on divided-power monomials.

Three algebras share the monomial bookkeeping x^(i) y^(j), 0 <= (i,j) <=
(p^n1 - 1, p^n2 - 1), and differ in which monomials survive and how the
Poisson coefficient N(i,j,k,l) is twisted:

  * H(2;n)^(2)          monomials strictly between 1 and the corner,
                        dimension p^|n| - 2;
  * H(2;n;Phi(tau))^(1) everything but the constant, products twisted by
                        (1 + corner), dimension p^|n| - 1;
  * H(2;n;Phi(1))       all monomials, pure-y products pick up an extra
                        xbar (scaled by the deformation parameter eps),
                        dimension p^|n|.

The demo exits 1 if any check fails.
"""

import sys

from thinlie import (
    bracket,
    build_H2_phi1,
    build_H2_phi_tau_derived,
    build_H2_second_derived,
    build_albert_frank,
    center,
    field_create,
    frobenius,
    validate_table,
    AlbertFrankSpec,
)
from thinlie.cartan import phi1_monomials

failed = []


def check(name, ok):
    """ok, recording name as failed when it is not."""
    if not ok:
        failed.append(name)
    return ok


for p, n1, n2 in [(3, 1, 1), (5, 1, 1), (3, 1, 2)]:
    d = p ** (n1 + n2)
    dims = (
        build_H2_second_derived(p, n1, n2).dim,
        build_H2_phi_tau_derived(p, n1, n2).dim,
        build_H2_phi1(p, n1, n2).dim,
    )
    check(f"dimensions at p={p}, n=({n1},{n2})", dims == (d - 2, d - 1, d))
    print(f"p={p}, n=({n1},{n2}):  H^(2) {dims[0]} = {d}-2,"
          f"  Phi(tau)^(1) {dims[1]} = {d}-1,  Phi(1) {dims[2]} = {d}")

print("\nThe Phi(1) bracket in coordinates (p = 3, n = (1,1)):")
F3 = field_create(3)
H = build_H2_phi1(3, 1, 1, F3, 1)
mons = phi1_monomials(3, 1, 1)
idx = {m: i for i, m in enumerate(mons)}
y, ybar, one = (H.basis_element(idx[m]) for m in ((0, 1), (0, 2), (0, 0)))
print("  {y, ybar} =", bracket(y, ybar), "   (equals 2 xbar ybar)")
print("  {1, ybar} =", bracket(one, ybar), "  (constants act nontrivially here)")

print("\nSetting eps = 0 degenerates Phi(1) to a central extension:")
Hhat = build_H2_phi1(3, 1, 1, F3, 0)
z = center(Hhat)
check("eps = 0 center", z == (idx[(0, 0)],))
print("  center:", [Hhat.labels[i] for i in z], "(one-dimensional, the constant)")
F9 = field_create(3, 2)
simple = build_H2_phi1(3, 1, 1, F9, 1)
trivial = check("eps = 1 center", center(simple) == ())
print("  eps = 1 has trivial center:", trivial)

print("\nAlbert-Frank presentation: [u_a, u_b] = (b - a + a T(b) - b T(a)) u_{a+b}")
group = tuple(F9.elements())
theta = {a: frobenius(a) - a for a in group}
af = build_albert_frank(AlbertFrankSpec(group, theta))
jacobi = check("Albert-Frank Jacobi", validate_table(af).ok)
print(f"  twisted by T = Frobenius - id over F_9: dim {af.dim},"
      f" Jacobi {'PASS' if jacobi else 'FAIL'}")

if failed:
    print(f"\nfailed: {', '.join(failed)}")
    sys.exit(1)
