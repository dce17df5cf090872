import gc
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from thinlie import cartan, suite
from thinlie.cartan import (
    AlbertFrankSpec,
    binom_mod_p,
    build_albert_frank,
    build_H2_phi1,
    build_H2_phi_tau_derived,
    build_H2_second_derived,
    build_W1n,
    coeff_N,
    coeff_Nprime,
    monomials,
    phi1_monomials,
    zassenhaus_group_basis,
)
from thinlie.errors import CriterionFailed, NotAdditivelyClosed, NotASubalgebra, ThetaNotAdditive
from thinlie.ffield import field_create, frobenius, in_prime_field
from thinlie.liealg import DegreeMap, bracket, check_structure_map, validate_grading, validate_table

from oracles import (
    change_basis,
    dense_row,
    derived_subalgebra,
    full_subspace,
    oracle_cartan_table,
    oracle_center,
    pascal_binom,
    poisson_coefficient,
)


def test_binom_examples():
    assert binom_mod_p(7, 3, 5) == 0 == pascal_binom(7, 3, 5)
    for a in (0, 3, 11):
        assert binom_mod_p(a, 0, 7) == 1
    assert binom_mod_p(1, -1, 3) == 0
    assert binom_mod_p(2, 3, 3) == 0


@pytest.mark.parametrize("p", [2, 3, 5])
def test_binom_against_pascal(p):
    for a in range(30):
        for b in range(-1, a + 2):
            assert binom_mod_p(a, b, p) == pascal_binom(a, b, p), (a, b, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_lucas_pascal_is_the_additive_triangle(p):
    # every top up to 2p^3 + 1, so rows a of one to four base-p digits,
    # against the triangle built by addition alone
    top = 2 * p ** 3 + 1
    rows = [[1]]
    for _ in range(top):
        rows.append([1] + [(x + y) % p for x, y in zip(rows[-1], rows[-1][1:])] + [1])
    for t in range(top + 1):
        assert cartan._pascal(t, p) == rows[:t + 1], t


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_coeff_N_x2_y(p):
    # {x^(2), y} = -x: the derivation oracle gives the same value
    assert coeff_N(2, 0, 0, 1, p) == (-1) % p == poisson_coefficient(2, 0, 0, 1, p)


@pytest.mark.parametrize("p", [3, 5])
def test_coeff_N_matches_derivation_oracle(p):
    for i in range(4):
        for j in range(4):
            for k in range(4):
                for l in range(4):
                    assert coeff_N(i, j, k, l, p) == poisson_coefficient(i, j, k, l, p)


def test_N_and_Nprime_exceptional_sets():
    p = 5
    for j in range(1, 5):
        for l in range(1, 5):
            assert coeff_N(0, j, 0, l, p) == 0
            expected = (binom_mod_p(j + l - 1, l, p) - binom_mod_p(j + l - 1, j, p)) % p
            assert coeff_Nprime(0, j, 0, l, p) == expected
    for i in range(5):
        for j in range(5):
            for k in range(5):
                for l in range(5):
                    if (i or k) and (j or l):
                        assert coeff_N(i, j, k, l, p) == coeff_Nprime(i, j, k, l, p)


def test_w1n_small_brackets():
    t = build_W1n(3, 1)
    assert t.dim == 3
    assert bracket(t.basis_element(0), t.basis_element(2)) == t.basis_element(1)
    assert bracket(t.basis_element(1), t.basis_element(2)) == t.basis_element(2)
    assert t.labels == ("E_-1", "E_0", "E_1")


def test_w1n_char_two_not_simple():
    t = build_W1n(2, 2)
    assert t.dim == 4
    assert derived_subalgebra(t, full_subspace(t)).dim == 3


def test_w1n_jacobi():
    assert validate_table(build_W1n(3, 2)).ok


def test_group_basis_brackets():
    f3 = field_create(3)
    group, transition = zassenhaus_group_basis(3, 1, f3)
    # e_a sits at the canonical index of a, its coordinate over F_3
    e1 = group.basis_element(f3.element(1).coords[0])
    e2 = group.basis_element(f3.element(2).coords[0])
    e0 = group.basis_element(0)
    assert bracket(e1, e2) == e0  # (2 - 1) e_{1+2} = e_0
    assert not bracket(e1, e1)
    w = build_W1n(3, 1, f3)
    rows = [dense_row(f3, w.dim, coords) for coords in transition]
    assert change_basis(w, rows, group.labels).brackets == group.brackets


@pytest.mark.parametrize("case,check", [
    ((3, 1), "intertwining"), ((3, 2), "intertwining"), ((5, 1), "intertwining"), ((2, 2), "rank"),
])
def test_row_03_fails_on_a_one_coefficient_mutation(case, check, monkeypatch):
    # e_0 = E_-1 + E_{p^n-2} loses its E_{p^n-2} coefficient in one case of the row
    real = suite.zassenhaus_group_basis

    def mutated(p, n, field):
        group, transition = real(p, n, field)
        if (p, n) == case:
            del transition[0][p ** n - 1]
        return group, transition

    monkeypatch.setattr(suite, "zassenhaus_group_basis", mutated)
    with pytest.raises(CriterionFailed, match=f"{check} fails"):
        suite.criterion_03_basis_transition()


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (2, 2)])
def test_every_one_coefficient_mutation_of_the_transition_fails(p, n):
    field = field_create(p, n)
    group, transition = zassenhaus_group_basis(p, n, field)
    w = build_W1n(p, n, field)
    assert check_structure_map(group, w, [w.element(c) for c in transition])
    for m in range(len(transition)):
        for k in range(w.dim):
            for d in filter(None, field.elements()):
                images = [w.element(c) for c in transition]
                images[m] = w.element({**transition[m], k: transition[m].get(k, field.zero) + d})
                assert not check_structure_map(group, w, images), (m, k, d)


@pytest.mark.parametrize("p,n1,n2,expected", [(3, 1, 1, 7), (5, 1, 1, 23), (3, 1, 2, 25)])
def test_h2_second_derived_dimensions(p, n1, n2, expected):
    t = build_H2_second_derived(p, n1, n2)
    assert t.dim == expected
    assert validate_table(t).ok


def test_phi_tau_small():
    t = build_H2_phi_tau_derived(2, 1, 1)
    assert t.dim == 3
    # the three-dimensional simple Lie algebra: [x,y]=xy, [x,xy]=x, [y,xy]=y
    labels = list(t.labels)
    x, y, xy = (t.basis_element(labels.index(l)) for l in ("x1y0", "x0y1", "x1y1"))
    assert bracket(x, y) == xy and bracket(x, xy) == x and bracket(y, xy) == y
    t8 = build_H2_phi_tau_derived(3, 1, 1)
    assert t8.dim == 8 and validate_table(t8).ok


def test_phi1_quoted_brackets():
    f3 = field_create(3)
    t = build_H2_phi1(3, 1, 1, f3, 1)
    mons = phi1_monomials(3, 1, 1)
    idx = {m: i for i, m in enumerate(mons)}
    y, ybar, one = (t.basis_element(idx[m]) for m in ((0, 1), (0, 2), (0, 0)))
    xbar_ybar = t.basis_element(idx[(2, 2)])
    xbar_y = t.basis_element(idx[(2, 1)])
    assert bracket(y, ybar) == xbar_ybar.scale(f3.element(2))
    assert bracket(one, ybar) == xbar_y.scale(f3.element(-1))


def test_phi1_eps_zero_center_and_interpolation():
    f3 = field_create(3)
    hhat = build_H2_phi1(3, 1, 1, f3, 0)
    assert oracle_center(hhat, full_subspace(hhat)).dim == 1
    # tables for different eps differ only on pure-y basis pairs
    mons = phi1_monomials(3, 1, 1)
    tables = {e: build_H2_phi1(3, 1, 1, f3, e) for e in (0, 1, 2)}
    keys = set().union(*(t.brackets.keys() for t in tables.values()))
    for i, j in keys:
        entries = {e: t.brackets.get((i, j)) for e, t in tables.items()}
        if len({str(v) for v in entries.values()}) > 1:
            assert mons[i][0] == 0 and mons[j][0] == 0, "non-pure-y pair changed"


def test_phi1_z2_degree_additivity():
    # H(2;n)^(2) carries the Z^2-grading: check both factor gradings
    p, n1, n2 = 3, 1, 2
    t = build_H2_second_derived(p, n1, n2)
    basis = [m for m in monomials(p ** n1 - 1, p ** n2 - 1)
             if m != (0, 0) and m != (p ** n1 - 1, p ** n2 - 1)]
    big = 4 * p ** n2  # wraparound-free modulus for the y-exponent factor
    assert validate_grading(t, DegreeMap(big, tuple((j - 1) % big for _, j in basis)))
    bigx = 4 * p ** n1
    assert validate_grading(t, DegreeMap(bigx, tuple((i - 1) % bigx for i, _ in basis)))


def test_phi1_cyclic_by_integer_grading():
    # Phi(1) is graded over Z/p^{n1}Z x Z; check both cyclic factors
    p, n1, n2 = 3, 1, 1
    t = build_H2_phi1(p, n1, n2)
    mons = phi1_monomials(p, n1, n2)
    r = p ** n1
    assert validate_grading(t, DegreeMap(r, tuple((i - 1) % r for i, _ in mons)))
    big = 4 * p ** n2
    assert validate_grading(t, DegreeMap(big, tuple((j - 1) % big for _, j in mons)))


def test_albert_frank_theta_zero_is_group_basis():
    f9 = field_create(3, 2)
    group_table, _ = zassenhaus_group_basis(3, 2, f9)
    group = tuple(f9.elements())
    af = build_albert_frank(AlbertFrankSpec(group, {a: f9.zero for a in group}))
    assert af.brackets == group_table.brackets
    assert not bracket(af.basis_element(4), af.basis_element(4))


def test_albert_frank_frobenius_twist_jacobi():
    f9 = field_create(3, 2)
    group = tuple(f9.elements())
    theta = {a: frobenius(a) - a for a in group}
    af = build_albert_frank(AlbertFrankSpec(group, theta))
    assert validate_table(af).ok
    assert af.dim == 9


def test_albert_frank_validation_errors():
    f9 = field_create(3, 2)
    t = f9.generator()
    with pytest.raises(NotAdditivelyClosed):
        spec = AlbertFrankSpec((f9.zero, t), {f9.zero: f9.zero, t: f9.zero})
        build_albert_frank(spec)
    group = tuple(f9.elements())
    theta = {a: f9.zero for a in group}
    theta[t] = f9.one  # breaks additivity
    with pytest.raises(ThetaNotAdditive):
        build_albert_frank(AlbertFrankSpec(group, theta))


def test_monomial_order_is_row_major():
    assert monomials(1, 2) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]


def test_random_small_tables_pass_jacobi():
    rng = random.Random(3)
    params = [(2, 1, 2), (3, 2, 1), (5, 1, 1)]
    p, n1, n2 = params[rng.randrange(3)]
    for builder in (build_H2_second_derived, build_H2_phi_tau_derived, build_H2_phi1):
        assert validate_table(builder(p, n1, n2)).ok


BUILDERS = {
    "W": build_W1n,
    "Hsecond": build_H2_second_derived,
    "Hphitau": build_H2_phi_tau_derived,
    "Hphi1": build_H2_phi1,
}
# every shape of dimension at most 125 over p = 2, 3, 5, 7
SHAPES = {
    "W": [(p, (n,)) for p in (2, 3, 5, 7) for n in range(1, 7) if p ** n <= 125],
    "H": [(p, (n1, n2)) for p in (2, 3, 5, 7) for n1 in range(1, 6) for n2 in range(1, 6)
          if p ** (n1 + n2) <= 125],
}


@st.composite
def builder_cases(draw):
    """A builder and shape; for Phi(1) also eps: 0, 1, a nonzero prime-field
    scalar, or an element of F_{p^2} outside F_p in a table over F_{p^2}."""
    kind = draw(st.sampled_from(sorted(BUILDERS)))
    p, shape = draw(st.sampled_from(SHAPES["W" if kind == "W" else "H"]))
    field, eps = field_create(p), 1
    if kind == "Hphi1":
        which = draw(st.sampled_from(["zero", "one", "scalar", "extension"]))
        if which == "extension":
            field = field_create(p, 2)
            eps = draw(st.sampled_from([a for a in field.elements() if not in_prime_field(a)]))
        elif which == "scalar":
            eps = draw(st.integers(1, p - 1))
        else:
            eps = 0 if which == "zero" else 1
    return kind, p, shape, field, eps


@settings(max_examples=60, deadline=None)
@given(builder_cases())
def test_builders_match_the_per_pair_oracle(case):
    kind, p, shape, field, eps = case
    builder = BUILDERS[kind]
    extra = (eps,) if kind == "Hphi1" else ()
    t = builder(p, *shape, field, *extra)
    want = oracle_cartan_table(kind, p, shape, field, eps)
    assert json.dumps(t.to_json()) == json.dumps(want.to_json())
    assert list(t.brackets) == list(want.brackets)
    if kind == "Hphi1" and not eps:
        assert validate_table(t).encoding_ok


def _bumped_pascal(entry):
    """cartan._pascal with one entry of the triangle raised by one."""
    pascal = cartan._pascal

    def bumped(top, p):
        rows = pascal(top, p)
        a, b = entry
        rows[a][b] = (rows[a][b] + 1) % p
        return rows
    return bumped


@pytest.mark.parametrize("builder,args,entry,product", [
    (build_W1n, (5, 1), (6, 3), r"\(2,3\)"),  # [E_2, E_3] = (C(6,3) - C(6,2)) E_5, past E_3
    # {y^(2), x y^(2)} reads Y1[2][2] = C(3,1): target y^(3), past y^(2)
    (build_H2_second_derived, (3, 1, 1), (3, 1), r"\(0,2,1,2\)"),
    (build_H2_phi_tau_derived, (3, 1, 1), (3, 1), r"\(0,2,1,2\)"),
    (build_H2_phi1, (3, 1, 1), (3, 1), r"\(0,2,1,2\)"),
    # the pure-y product {y^(7), y^(8)} = C(14,6) - C(14,7) lands past y^(8);
    # at eps = 0 too, since the check reads the binomials, not the scaled product
    (build_H2_phi1, (3, 1, 2), (14, 6), r"\(0,7,0,8\)"),
    (build_H2_phi1, (3, 1, 2, None, 0), (14, 6), r"\(0,7,0,8\)"),
])
def test_escaping_product_is_caught(monkeypatch, builder, args, entry, product):
    # a binomial made nonzero on one product that leaves the basis
    monkeypatch.setattr(cartan, "_pascal", _bumped_pascal(entry))
    with pytest.raises(NotASubalgebra, match=product):
        builder(*args)


@pytest.mark.parametrize("builder, args, entry", [
    (build_W1n, (5, 1), (6, 3)),
    (build_H2_phi1, (3, 1, 1), (3, 1)),
])
def test_escaping_build_restores_the_collector(monkeypatch, builder, args, entry):
    # the build raises inside the loop that runs with the collector paused
    monkeypatch.setattr(cartan, "_pascal", _bumped_pascal(entry))
    was = gc.isenabled()
    try:
        for on in (True, False):
            (gc.enable if on else gc.disable)()
            with pytest.raises(NotASubalgebra):
                builder(*args)
            assert gc.isenabled() == on
    finally:
        (gc.enable if was else gc.disable)()
