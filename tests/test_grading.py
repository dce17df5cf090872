from collections import Counter

import pytest

from oracles import dense_row, eigen_bracket_check, oracle_rref, phi1_monomials
from test_sweep import ACCEPTED
from thinlie.cartan import build_H2_phi1
from thinlie.errors import Mu3InPrimeField, NoRootInField
from thinlie.ffield import field_create, in_prime_field
from thinlie.grading import (
    eigenbasis,
    generator_positions,
    grade_finite,
    grade_mixed,
    params_from_mu3,
    sigma_zero_subalgebra,
    toral_element,
    toral_params,
)
from thinlie.liealg import bracket, validate_grading, validate_table
from thinlie.verify import _eigenvectors

F3 = field_create(3)
F9 = field_create(3, 2)


@pytest.fixture(scope="module")
def f9_basis():
    table = build_H2_phi1(3, 1, 1, F9, 1)
    params = params_from_mu3(F9.generator())
    basis = eigenbasis(params, 3)
    return table, params, basis, _eigenvectors(basis, table)


def test_grade_mixed_degrees():
    table = build_H2_phi1(3, 1, 1, F3, 1)
    dm = grade_mixed(table, 3, 3)
    mons = phi1_monomials(3, 1, 1)
    assert dm.modulus == 6
    assert dm.degrees[mons.index((1, 0))] == 1  # x
    assert dm.degrees[mons.index((0, 2))] == 1  # ybar
    counts = Counter(dm.degrees)
    assert [counts[d % 6] for d in range(1, 7)] == [2, 1, 2, 1, 2, 1]


def test_toral_element_forms():
    f27 = field_create(3, 3)
    table27 = build_H2_phi1(3, 1, 1, f27, 1)
    params = toral_params(f27, 1, eps=1)  # sigma = 1 gives pi = 1
    assert params.pi == f27.one
    e0 = toral_element(table27, params)
    mons = phi1_monomials(3, 1, 1)
    assert e0.coords == {
        mons.index((0, 1)): f27.one,
        mons.index((2, 1)): f27.one,
    }
    table = build_H2_phi1(3, 1, 1, F3, 1)
    z = toral_params(F3, 0, eps=1)
    assert toral_element(table, z).coords == {mons.index((0, 1)): F3.one}


def test_eigen_equation_holds_for_all_vectors(f9_basis):
    table, params, basis, vectors = f9_basis
    e0 = toral_element(table, params)
    for (r, s, alpha), v in zip(basis.entries, vectors):
        assert bracket(e0, v) == v.scale(alpha)


def test_eigenvalues_distinct_within_slice(f9_basis):
    basis = f9_basis[2]
    for r in (1, 0, -1):
        alphas = [a for rr, _, a in basis.entries if rr == r]
        assert len(alphas) == 3 and len({a.coords for a in alphas}) == 3


def test_x_eigenvector_is_geometric_series(f9_basis):
    table, params, basis, vectors = f9_basis
    mons = phi1_monomials(3, 1, 1)
    x = vectors[basis.position(1, 1)]
    lam = params.rho + params.sigma
    expected = {mons.index((i, 0)): lam ** i for i in range(3)}
    assert x.coords == {k: v for k, v in expected.items() if v}


def test_central_eigenvector_is_constant_monomial():
    table = build_H2_phi1(3, 1, 1, F3, 0)
    params = toral_params(F3, 1, eps=0, rho=1)
    basis = eigenbasis(params, 3)
    mons = phi1_monomials(3, 1, 1)
    central = next(m for m, (r, _, a) in enumerate(basis.entries) if r == 1 and not a)
    assert _eigenvectors(basis, table)[central] == table.basis_element(mons.index((0, 0)))


def test_eigen_change_of_basis_invertible(f9_basis):
    table, _, _, vectors = f9_basis
    rows = [dense_row(F9, table.dim, v.coords) for v in vectors]
    assert len(oracle_rref(F9, rows)) == table.dim


def test_eigen_bracket_check_and_formulas(f9_basis):
    _, params, basis, _ = f9_basis
    assert eigen_bracket_check(basis)
    et = basis.eigen_table
    q = basis.q
    rho, sigma = params.rho, params.sigma
    x_pos, y_pos = generator_positions(basis)
    x = et.basis_element(x_pos)
    y = et.basis_element(y_pos)
    for m, (r, s, alpha) in enumerate(basis.entries):
        e = et.basis_element(m)
        ex = bracket(e, x)
        # {e, X} = (rho + sigma) e_{r+1, alpha + rho + sigma} within range
        if r + 1 <= 1:
            expected = et.basis_element(basis.position(r + 1, (s + 1) % 3)).scale(rho + sigma)
            assert ex == expected
        else:
            assert not ex
        ey = bracket(e, y)
        j = 1 - r
        if 2 <= j <= q - 1:
            assert not ey
        elif j == 1:
            coeff = alpha + 2 * rho + sigma
            if coeff:
                assert ey == et.basis_element(basis.position(2 - q, (s + 1) % 3)).scale(coeff)
            else:
                assert not ey


def _finite_input(args):
    opts = dict(zip(args[::2], args[1::2]))
    return int(opts["--p"]), int(opts["--q"]), opts["--mu3"]


# (p, q, mu3) of every finite input the sweep accepts, and q = 2, which
# only grade reaches (verify rejects it)
FINITE_INPUTS = [_finite_input(args) for args in ACCEPTED if args[1] == "finite"] + [(2, 2, "0,1"), (2, 2, "1,1")]


@pytest.mark.parametrize("p, q, mu3", FINITE_INPUTS, ids=str)
def test_grade_finite_degrees(p, q, mu3):
    mu3 = field_create(p, 2).element([int(c) for c in mu3.split(",")])
    basis = eigenbasis(params_from_mu3(mu3), q)
    dm = grade_finite(basis)
    n = (q - 1) * p
    assert dm.modulus == n
    x_pos, y_pos = generator_positions(basis)
    assert dm.degrees[x_pos] == 1 and dm.degrees[y_pos] == 1
    counts = Counter(dm.degrees)
    # the slices r = 1 and r = 2-q share a residue mod q-1: twice each degree of it
    assert [counts[d % n] for d in range(1, n + 1)] == [1 + ((d - 1) % (q - 1) == 0) for d in range(1, n + 1)]
    assert sum(counts.values()) == p * q
    assert validate_grading(basis.eigen_table, dm)


def test_ad_e0_slice_spectrum(f9_basis):
    # roots of the characteristic polynomial on each slice: (1-j)rho + F_p sigma
    table, params, _, _ = f9_basis
    e0 = toral_element(table, params)
    mons = phi1_monomials(3, 1, 1)
    for j in range(3):
        slice_idx = [mons.index((i, j)) for i in range(3)]
        pos = {b: n for n, b in enumerate(slice_idx)}
        rows = []
        for b in slice_idx:
            img = bracket(e0, table.basis_element(b))
            assert set(img.coords) <= set(slice_idx)
            rows.append([img.coords.get(c, F9.zero) for c in slice_idx])
        eigenvalues = set()
        for lam in F9.elements():
            shifted = [
                [rows[r][c] - (lam if r == c else F9.zero) for c in range(3)]
                for r in range(3)
            ]
            if len(oracle_rref(F9, shifted)) < 3:
                eigenvalues.add(lam)
        r = 1 - j
        expected = {F9.element(r) * params.rho + F9.element(c) * params.sigma for c in range(3)}
        assert eigenvalues == expected


def test_params_from_mu3_roundtrip_and_errors():
    for mu3 in F9.elements():
        if in_prime_field(mu3):
            with pytest.raises(Mu3InPrimeField):
                params_from_mu3(mu3)
        else:
            params = params_from_mu3(mu3)
            assert -F9.one + params.sigma / params.rho == mu3
            assert not (params.rho ** 3 - params.pi * params.rho - F9.one)


def test_no_root_in_field():
    # sigma = 1 over F_3: Z^3 - Z - 1 has no root
    with pytest.raises(NoRootInField):
        toral_params(F3, 1, eps=1)


def test_sigma_zero_subalgebra():
    basis = eigenbasis(toral_params(field_create(5), 0, eps=1), 5)
    assert basis.partial
    assert basis.certificate, basis.certificate
    dm = sigma_zero_subalgebra(basis)
    sub, (x_pos, y_pos) = basis.eigen_table, generator_positions(basis)
    assert sub.dim == 5
    assert dm.modulus == 4
    assert dm.degrees[x_pos] == 1 and dm.degrees[y_pos] == 1
    assert validate_table(sub).ok
