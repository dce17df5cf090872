"""The eigen-equation [e_0, v] = alpha v of the toral eigenbasis, which
grading.eigenbasis no longer checks vector by vector: certify_eigenbasis
proves it from the basis map phi, since phi(e[0,0]) = e_0, the rule's row
of e[0,0] is diagonal, and phi is a homomorphism.

- On every finite, sigma-zero and eps-zero input of test_sweep the
  certificate passes and the scan by bracket, oracles.oracle_eigen_equation,
  holds.
- On hypothesis-drawn changes of one coefficient of the monomial table on a
  pair that ad e_0 reads, whenever the scan fails, the certificate fails or
  the changed table is not Lie (liealg.validate_table).  The certificate
  proves the eigen-equation on a Lie monomial table only: a change that no
  generator's image reads passes it, and breaks the Jacobi identity.
- A rule whose row of e[0,0] is not diagonal, and an image of e[0,0] other
  than e_0, fail the certificate as an eigen-equation; verify then exits 1.
- Outside its certificate, eigenbasis reads no product of the monomial
  table.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from oracles import oracle_eigen_equation
from test_az_rule import TORAL, _basis, _id, _params
from thinlie import cli, grading
from thinlie.cartan import build_H2_phi1
from thinlie.grading import certify_eigenbasis, toral_element
from thinlie.liealg import MapCheck, validate_table


@pytest.mark.parametrize("args", TORAL, ids=_id)
def test_certificate_and_eigen_equation_hold_on_every_toral_input(args):
    basis = _basis(*_params(args))
    assert basis.certificate, basis.certificate
    assert oracle_eigen_equation(basis) is None


# dim p q <= 25
SMALL = [args for args in TORAL if int(args[3]) * int(args[5]) <= 25]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL), st.data())
def test_a_changed_coefficient_that_breaks_the_eigen_equation_fails_the_certificate_or_jacobi(args, data):
    basis = _basis(*_params(args))
    table = basis.table
    support = toral_element(table, basis.params).coords
    key = data.draw(st.sampled_from(sorted(key for key in table.brackets if key[0] in support or key[1] in support)))
    terms = table.brackets[key]
    t = data.draw(st.integers(0, len(terms) - 1))
    k, c = terms[t]
    new = data.draw(st.sampled_from([a for a in table.field.elements() if a != c]))  # zero: a stored zero
    table.brackets[key] = terms[:t] + ((k, new),) + terms[t + 1:]
    if oracle_eigen_equation(basis) is not None:
        assert not certify_eigenbasis(basis) or not validate_table(table), key


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
    basis = _basis(*_params(args))
    labels = basis.eigen_table.labels
    want = MapCheck("eigen-equation", f"[{labels[basis.position(0, 0)]}, {labels[basis.position(-1, 0)]}]")
    assert basis.certificate == want
    assert cli.main(["verify"] + args) == 1
    out, err = capsys.readouterr()
    assert "verdict: FAIL" in out and f"eigen table certificate: {want}" in out
    assert "internal error" not in err


@MOVED_RUNS
def test_an_image_of_e00_other_than_e0_fails_the_eigen_equation(args):
    basis = _basis(*_params(args))
    e00 = basis.position(0, 0)
    vectors = list(basis.vectors)
    vectors[e00] = vectors[e00] + vectors[e00]
    changed = dataclasses.replace(basis, vectors=vectors)
    # 2 e_0 is still an eigenvector, but the proof needs phi(e[0,0]) = e_0
    assert oracle_eigen_equation(changed) is None
    assert certify_eigenbasis(changed) == MapCheck("eigen-equation", f"{basis.eigen_table.labels[e00]} does not map to e_0")


class UnreadDict(dict):
    """A bracket dict that must not be read."""

    def get(self, key, default=None):
        raise AssertionError(f"monomial product {key} read")

    __getitem__ = get


@pytest.mark.parametrize("args", TORAL[::9], ids=_id)
def test_eigenbasis_reads_no_monomial_product_outside_its_certificate(args, monkeypatch):
    p, n2, params = _params(args)
    table = build_H2_phi1(p, 1, n2, params.field, params.eps)
    table.brackets = UnreadDict(table.brackets)
    monkeypatch.setattr(grading, "certify_eigenbasis", lambda basis: MapCheck())
    basis = grading.eigenbasis(table, params)
    assert basis.certificate and len(basis.vectors) == basis.eigen_table.dim
