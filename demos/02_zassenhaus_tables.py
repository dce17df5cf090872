"""The Zassenhaus algebra W(1;n) in its two bases.

W(1;n) is p^n-dimensional with graded basis E_-1 .. E_{p^n-2} and binomial
structure constants.  It also carries a basis e_alpha indexed by the field
F_{p^n} itself, with [e_a, e_b] = (b - a) e_{a+b}; the explicit transition
between the two is verified here by conjugating the structure constants.
"""

from thinlie import (
    bracket,
    build_W1n,
    change_basis,
    field_create,
    validate_table,
    zassenhaus_group_basis,
)

W = build_W1n(3, 2)
print(f"W(1;2) over F_3: dimension {W.dim}")
report = validate_table(W)
print(f"Jacobi identity, proved from a generating set: {'PASS' if report.ok else 'FAIL'}")

e_m1, e_0, e_1 = (W.basis_element(i) for i in range(3))
print(f"[E_-1, E_1] = {bracket(e_m1, e_1)}")
print(f"[E_0,  E_1] = {bracket(e_0, e_1)}")

print("\nGroup basis over F_9: e_alpha for alpha in the field, with")
print("[e_a, e_b] = (b - a) e_{a+b}.")
F9 = field_create(3, 2)
group, transition = zassenhaus_group_basis(3, 2, F9)
assert validate_table(group).ok

print("Conjugating the E-basis table by the transition matrix")
print("e_alpha = E_{p^n-2} + sum_i alpha^(i+1) E_i  (with 0^0 = 1):")
conjugated = change_basis(build_W1n(3, 2, F9), transition, group.labels)
print("  reproduces the group-basis constants exactly:",
      conjugated.brackets == group.brackets)

print("\nIn characteristic two W(1;n) is not simple; its derived subalgebra")
print("drops E_{p^n-2} but the same transition formulas still apply:")
F4 = field_create(2, 2)
group2, transition2 = zassenhaus_group_basis(2, 2, F4)
conjugated2 = change_basis(build_W1n(2, 2, F4), transition2, group2.labels)
print("  char-2 conjugation matches:", conjugated2.brackets == group2.brackets)
