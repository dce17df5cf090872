"""The eigen-equation [e_0, v] = alpha v of the toral eigenvectors, which
no code checks vector by vector: verify.identify proves it from the basis
map phi, since phi(e[0,0]) = e_0, the rule's row of e[0,0] is diagonal,
and phi is a homomorphism once the monomial table is Lie, which identify
proves last (liealg.validate_table).

- On every finite, sigma-zero and eps-zero input of test_sweep identify
  passes and the scan by bracket, oracles.oracle_eigen_equation, holds.
- On hypothesis-drawn changes of one coefficient of the monomial table on a
  pair that ad e_0 reads, whenever the scan fails, identify fails (at
  eps = 0 a stored zero is a mismatch of the center, which is read off
  one-term tables only); at eps-zero p = 3 with the pair (1, 3) set to 0,
  identify and suite row 11 fail on that mismatch, with no exception.
- A change that no generator's image reads passes the map certificate and
  breaks the Jacobi identity: at finite p = 5, mu3 = (1,4), the (1, 23)
  coefficient doubled, identify and suite row 11 fail on the violation
  validate_table finds, and verify, which reads no monomial table, passes.
- A rule whose row of e[0,0] is not diagonal, and an image of e[0,0] other
  than e_0, fail identify as an eigen-equation; the first makes verify
  exit 1.
- The eigenvectors are built with no product of the monomial table read.
"""

import pytest
from hypothesis import given, settings, strategies as st

from oracles import monomial_images, oracle_eigen_equation, oracle_jacobi_violations
from test_az_rule import TORAL, _basis, _id, _params
from thinlie import cli, grading, verify
from thinlie.cartan import build_H2_phi1
from thinlie.ffield import field_create
from thinlie.grading import params_from_mu3, toral_element, toral_params
from thinlie.liealg import MapCheck
from thinlie.verify import _eigenvectors, identify, run_finite


@pytest.mark.parametrize("args", TORAL, ids=_id)
def test_identify_and_eigen_equation_hold_on_every_toral_input(args):
    p, n2, params = _params(args)
    assert identify(p, n2, params) == []
    basis = _basis(p, n2, params)
    assert oracle_eigen_equation(basis, *monomial_images(basis)) is None


# dim p q <= 25
SMALL = [args for args in TORAL if int(args[3]) * int(args[5]) <= 25]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL), st.data())
def test_a_changed_coefficient_that_breaks_the_eigen_equation_fails_identify(args, data):
    p, n2, params = _params(args)
    basis = _basis(p, n2, params)
    table, vectors = monomial_images(basis)
    support = toral_element(table, params).coords
    key = data.draw(st.sampled_from(sorted(key for key in table.brackets if key[0] in support or key[1] in support)))
    terms = table.brackets[key]
    t = data.draw(st.integers(0, len(terms) - 1))
    k, c = terms[t]
    new = data.draw(st.sampled_from([a for a in table.field.elements() if a != c]))  # zero: a stored zero
    table.brackets[key] = terms[:t] + ((k, new),) + terms[t + 1:]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "build_H2_phi1", lambda *a: table)
        mismatches = identify(p, n2, params)
    if not params.eps and not new:  # at eps = 0 the center is read off one-term tables only
        assert mismatches[0].startswith("center of the eps = 0 extension: the center is read off one-term tables"), key
    if oracle_eigen_equation(basis, table, vectors) is not None:
        assert mismatches, key


def test_a_stored_zero_at_eps_zero_is_a_center_mismatch(monkeypatch, capsys):
    params = toral_params(field_create(3), 1, eps=0, rho=1)

    def zeroed(*args):
        table = build_H2_phi1(*args)
        if args[0] == 3 and not args[4]:
            ((k, _),) = table.brackets[1, 3]
            table.brackets[1, 3] = ((k, table.field.zero),)
        return table

    monkeypatch.setattr(verify, "build_H2_phi1", zeroed)
    text = "center of the eps = 0 extension: the center is read off one-term tables only: the pair (1, 3) stores"
    mismatches = identify(3, 1, params)
    assert mismatches[0].startswith(text) and len(mismatches) == 2
    assert mismatches[1].startswith("eigen table certificate: ")
    assert cli.main(["suite", "--only", "11"]) == 1
    out, err = capsys.readouterr()
    assert "11-hamiltonian-identification: FAIL" in out and text in out and "internal error" not in err


def test_a_doubled_coefficient_off_the_images_fails_identify_on_the_jacobi_identity(monkeypatch, capsys):
    params = params_from_mu3(field_create(5, 2).element([1, 4]))

    def doubled(*args):
        table = build_H2_phi1(*args)
        if args[:3] == (5, 1, 1) and table.field.size == 25:
            ((k, c),) = table.brackets[1, 23]
            table.brackets[1, 23] = ((k, c + c),)
        return table

    monkeypatch.setattr(verify, "build_H2_phi1", doubled)
    table = doubled(5, 1, 1, params.field, 1)
    (i, j, k) = oracle_jacobi_violations(table, 1)[0]
    triple = ", ".join(table.labels[m] for m in (i, j, k))
    assert run_finite(5, 1, params=params).ok
    assert identify(5, 1, params) == [
        f"validate_table: the Jacobi identity fails on the monomial table at ({triple})",
    ]
    assert cli.main(["suite", "--only", "11"]) == 1
    out, err = capsys.readouterr()
    assert "11-hamiltonian-identification: FAIL" in out and triple in out and "internal error" not in err


# one slice pair (1, l) of each kind, 1 < l < q - 1: the target slice moved on
MOVED_RUNS = pytest.mark.parametrize("args", [
    ["--grading", "finite", "--p", "5", "--q", "5", "--mu3", "0,1"],
    ["--grading", "eps-zero", "--p", "5", "--q", "5", "--ratio", "1"],
    ["--grading", "sigma-zero", "--p", "5", "--q", "5"],
], ids=["finite", "eps-zero", "sigma-zero"])


def _moved_row(monkeypatch):
    # [e[0,0], e(2, t)] lands on slice 3: e[0,0]'s row is not diagonal
    real = grading.AZBrackets._slice_pair

    def moved(rule, ja, jb):
        jc, b1, b2 = real(rule, ja, jb)
        return (jc + 1, b1, b2) if (ja, jb) == (1, 2) else (jc, b1, b2)

    monkeypatch.setattr(grading.AZBrackets, "_slice_pair", moved)


@MOVED_RUNS
def test_a_rule_whose_row_of_e00_is_not_diagonal_fails_the_eigen_equation(args, monkeypatch, capsys):
    _moved_row(monkeypatch)
    p, n2, params = _params(args)
    basis = _basis(p, n2, params)
    labels = basis.eigen_table.labels
    want = MapCheck("eigen-equation", f"[{labels[basis.position(0, 0)]}, {labels[basis.position(-1, 0)]}]")
    assert identify(p, n2, params) == [f"eigen table certificate: {want}"]
    assert cli.main(["verify"] + args) == 1
    out, err = capsys.readouterr()
    assert "verdict: FAIL" in out and "internal error" not in err


@MOVED_RUNS
def test_an_image_of_e00_other_than_e0_fails_the_eigen_equation(args, monkeypatch):
    p, n2, params = _params(args)
    basis = _basis(p, n2, params)
    e00 = basis.position(0, 0)

    def doubled(basis, table):
        vectors = _eigenvectors(basis, table)
        vectors[e00] = vectors[e00] + vectors[e00]
        return vectors

    table, _ = monomial_images(basis)
    # 2 e_0 is still an eigenvector, but the proof needs phi(e[0,0]) = e_0
    assert oracle_eigen_equation(basis, table, doubled(basis, table)) is None
    monkeypatch.setattr(verify, "_eigenvectors", doubled)
    want = MapCheck("eigen-equation", f"{basis.eigen_table.labels[e00]} does not map to e_0")
    assert identify(p, n2, params) == [f"eigen table certificate: {want}"]


class UnreadDict(dict):
    """A bracket dict that must not be read."""

    def get(self, key, default=None):
        raise AssertionError(f"monomial product {key} read")

    __getitem__ = get


@pytest.mark.parametrize("args", TORAL[::9], ids=_id)
def test_eigenvectors_read_no_monomial_product(args):
    p, n2, params = _params(args)
    table = build_H2_phi1(p, 1, n2, params.field, params.eps)
    table.brackets = UnreadDict(table.brackets)
    basis = grading.eigenbasis(params, p ** n2)
    assert len(_eigenvectors(basis, table)) == basis.eigen_table.dim
    assert toral_element(table, params)
