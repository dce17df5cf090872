"""The Zassenhaus algebra W(1;n) in its two bases.

W(1;n) is p^n-dimensional with graded basis E_-1 .. E_{p^n-2} and binomial
structure constants.  It also carries a basis e_alpha indexed by the field
F_{p^n} itself, with [e_a, e_b] = (b - a) e_{a+b}; the explicit transition
between the two is proved an isomorphism here: a homomorphism by
check_structure_map on every pair of basis vectors, injective because the
transition is a Vandermonde matrix plus a fixed row (suite.transition_rank).
The demo exits 1 if any check fails.
"""

import sys

from thinlie import (
    bracket,
    build_W1n,
    check_structure_map,
    field_create,
    validate_table,
    zassenhaus_group_basis,
)
from thinlie.suite import transition_rank

failed = []


def verdict(name, outcome):
    """PASS, or FAIL with the outcome (a report or MapCheck) and a record of name."""
    if outcome:
        return "PASS"
    failed.append(name)
    return f"FAIL ({outcome})"


W = build_W1n(3, 2)
print(f"W(1;2) over F_3: dimension {W.dim}")
report = validate_table(W)
print(f"Jacobi identity, proved from a generating set: {verdict('Jacobi on W(1;2)', report)}")

e_m1, e_0, e_1 = (W.basis_element(i) for i in range(3))
print(f"[E_-1, E_1] = {bracket(e_m1, e_1)}")
print(f"[E_0,  E_1] = {bracket(e_0, e_1)}")

print("\nGroup basis over F_9: e_alpha for alpha in the field, with")
print("[e_a, e_b] = (b - a) e_{a+b}.")
F9 = field_create(3, 2)
group, transition = zassenhaus_group_basis(3, 2, F9)
print(f"Jacobi identity on the group basis: {verdict('Jacobi on the group basis', validate_table(group))}")

print("The transition e_alpha = E_{p^n-2} + sum_i alpha^(i+1) E_i  (with 0^0 = 1)")
W9 = build_W1n(3, 2, F9)
check = check_structure_map(group, W9, [W9.element(c) for c in transition]) and transition_rank(F9, transition)
print(f"  is an isomorphism onto the E-basis table: {verdict('F_9 transition', check)}")

print("\nIn characteristic two W(1;n) is not simple; its derived subalgebra")
print("drops E_{p^n-2} but the same transition formulas still apply:")
F4 = field_create(2, 2)
group2, transition2 = zassenhaus_group_basis(2, 2, F4)
W4 = build_W1n(2, 2, F4)
check2 = check_structure_map(group2, W4, [W4.element(c) for c in transition2]) and transition_rank(F4, transition2)
print(f"  char-2 transition: {verdict('F_4 transition', check2)}")
# the restriction of an isomorphism to a span its brackets do not leave
keep = {m for m, a in enumerate(F4.elements()) if a}
closed = all(k in keep for (i, j), terms in group2.brackets.items() if i in keep and j in keep for k, _ in terms)
print(f"  restricted to the derived subalgebra: {verdict('F_4 derived restriction', closed)}")

if failed:
    print(f"\nfailed: {', '.join(failed)}")
    sys.exit(1)
