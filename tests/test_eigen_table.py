"""The closed Albert-Zassenhaus eigen table and its generator certificate.

The closed table is checked byte for byte against the change of basis it
replaced, and against the pair-by-pair formula oracle.  The certificate
(check_structure_map from a generating set) must fail on a changed
coefficient away from the generators, on a generating set that does not
generate, on swapped images and on images of too low rank.  A failed
certificate is a verdict: verify and grade exit 1 and name the failed
check, also when a moved target puts a bracket in the wrong degree.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from oracles import change_basis, dense_row, eigen_bracket_check
from thinlie.cartan import build_H2_phi1
from thinlie.errors import DenominatorZero
from thinlie.ffield import field_create, in_prime_field
from thinlie.grading import ToralParams, eigenbasis, generator_positions, params_from_mu3
from thinlie.liealg import (
    StructureTable,
    check_structure_map,
    extend_to_generators,
    subalgebra_generated,
)

F3 = field_create(3)


def _mu3_values(fieldspec):
    out = []
    for mu3 in fieldspec.elements():
        if in_prime_field(mu3):
            continue
        try:
            params_from_mu3(mu3)
        except DenominatorZero:
            continue
        out.append(mu3)
    return out


def _finite_basis(mu3):
    table = build_H2_phi1(mu3.spec.p, 1, 1, mu3.spec, 1)
    return eigenbasis(table, params_from_mu3(mu3))


def _eps_zero_basis(p, ratio):
    fieldspec = field_create(p)
    table = build_H2_phi1(p, 1, 1, fieldspec, 0)
    return eigenbasis(table, ToralParams(fieldspec.element(ratio), fieldspec.one, fieldspec.zero))


def _rho_zero_basis():
    # the basis of tests/test_covering.py whose covering fails
    return eigenbasis(build_H2_phi1(3, 1, 1, F3, 0), ToralParams(F3.one, F3.zero, F3.zero))


def _assert_matches_oracles(basis):
    et = basis.eigen_table
    t = basis.table
    rows = [dense_row(t.field, t.dim, v.coords) for v in basis.vectors]
    conj = change_basis(t, rows, basis.labels)
    assert json.dumps(et.to_json()) == json.dumps(conj.to_json())
    assert list(et.brackets) == list(conj.brackets)
    assert eigen_bracket_check(basis)
    assert basis.certificate, basis.certificate


@pytest.mark.parametrize("k_field", [(3, 2), (5, 2)], ids=["F9", "F25"])
def test_closed_table_equals_change_basis_every_mu3(k_field):
    for mu3 in _mu3_values(field_create(*k_field)):
        _assert_matches_oracles(_finite_basis(mu3))


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(_mu3_values(field_create(7, 2))))
def test_closed_table_equals_change_basis_over_f49(mu3):
    _assert_matches_oracles(_finite_basis(mu3))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_closed_table_equals_change_basis_eps_zero_every_ratio(p):
    for ratio in range(1, p - 1):
        _assert_matches_oracles(_eps_zero_basis(p, ratio))


def test_closed_table_equals_change_basis_rho_zero():
    _assert_matches_oracles(_rho_zero_basis())


@pytest.mark.parametrize("make, generated", [
    (_rho_zero_basis, 4),
    (lambda: _eps_zero_basis(5, 1), 24),
    (lambda: _eps_zero_basis(5, 2), 24),
    (lambda: _finite_basis(field_create(5, 2).generator()), 25),
], ids=["rho-zero", "eps-zero-5-1", "eps-zero-5-2", "finite-F25"])
def test_extend_to_generators_against_subalgebra_generated(make, generated):
    # each added generator is the lowest basis vector outside the subalgebra
    # the earlier ones generate, and together they generate the table
    basis = make()
    et = basis.eigen_table
    xy = list(generator_positions(basis))
    gens = extend_to_generators(et, xy)
    assert gens[:2] == xy
    assert subalgebra_generated(et, [et.basis_element(g) for g in xy]).dim == generated
    for k in range(2, len(gens) + 1):
        span = subalgebra_generated(et, [et.basis_element(g) for g in gens[:k]])
        outside = [i for i in range(et.dim) if not span.contains(et.basis_element(i))]
        assert outside[:1] == gens[k:k + 1]


def _with_entry(table, key, terms):
    brackets = dict(table.brackets)
    if terms:
        brackets[key] = tuple(terms)
    else:
        brackets.pop(key, None)
    return StructureTable(table.field, table.labels, brackets)


@pytest.fixture(scope="module")
def f25_basis():
    basis = _finite_basis(field_create(5, 2).generator())
    gens = extend_to_generators(basis.eigen_table, generator_positions(basis))
    return basis, gens


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_certificate_fails_on_a_changed_coefficient_off_the_generators(f25_basis, data):
    basis, gens = f25_basis
    et = basis.eigen_table
    others = [m for m in range(et.dim) if m not in gens]
    a, b = sorted(data.draw(st.lists(st.sampled_from(others), min_size=2, max_size=2, unique=True)))
    target = data.draw(st.integers(0, et.dim - 1))
    delta = data.draw(st.sampled_from([c for c in et.field.elements() if c]))
    terms = dict(et.basis_bracket(a, b))
    terms[target] = terms.get(target, et.field.zero) + delta
    changed = _with_entry(et, (a, b), sorted((k, c) for k, c in terms.items() if c))
    cert = check_structure_map(changed, basis.table, basis.vectors, gens)
    assert not cert
    assert cert.check in ("derivation", "generation")


def test_certificate_reports_non_generation_for_x_and_y_alone():
    # eps = 0, p = 5, ratio 1: X and Y generate 24 of the 25 dimensions
    basis = _eps_zero_basis(5, 1)
    x_pos, y_pos = generator_positions(basis)
    cert = check_structure_map(basis.eigen_table, basis.table, basis.vectors, [x_pos, y_pos])
    assert cert.check == "generation"
    assert "24 of 25" in cert.detail
    assert basis.certificate  # the greedy extension does generate


def test_certificate_fails_on_every_swap_of_two_images():
    basis = _finite_basis(field_create(3, 2).generator())
    gens = extend_to_generators(basis.eigen_table, generator_positions(basis))
    for i in range(len(basis.vectors)):
        for j in range(i + 1, len(basis.vectors)):
            images = list(basis.vectors)
            images[i], images[j] = images[j], images[i]
            cert = check_structure_map(basis.eigen_table, basis.table, images, gens)
            assert cert.check == "intertwining", (i, j)


def test_certificate_fails_on_zero_images():
    # the zero map intertwines every bracket; only the rank shows it
    basis = _finite_basis(field_create(3, 2).generator())
    gens = extend_to_generators(basis.eigen_table, generator_positions(basis))
    zero = basis.table.element({})
    cert = check_structure_map(basis.eigen_table, basis.table, [zero] * 9, gens)
    assert cert.check == "rank"
    assert "0 of 9" in cert.detail


def _mutate(how):
    """closed_eigen_table with the last stored bracket away from X and Y
    changed: its coefficient doubled, or its target moved one position on,
    which also puts it in the wrong degree."""
    from thinlie import grading

    closed = grading.closed_eigen_table

    def changed(basis):
        et = closed(basis)
        gens = set(generator_positions(basis))
        key = [k for k in et.brackets if not gens & set(k)][-1]
        (target, c), = et.brackets[key]
        term = (target, c + c) if how == "doubled" else ((target + 1) % et.dim, c)
        return _with_entry(et, key, [term])

    return changed


CERTIFIED_RUNS = pytest.mark.parametrize("args", [
    ["--grading", "finite", "--p", "3", "--q", "3", "--mu3", "0,1"],
    ["--grading", "eps-zero", "--p", "5", "--q", "5", "--ratio", "1"],
], ids=["finite", "eps-zero"])


def _assert_certificate_verdict(args, how, tmp_path, monkeypatch, capsys):
    from thinlie import cli, grading

    monkeypatch.setattr(grading, "closed_eigen_table", _mutate(how))
    out = tmp_path / "run.json"
    assert cli.main(["verify", "--out", str(out)] + args) == 1
    assert "verdict: FAIL" in capsys.readouterr().out
    data = json.loads(out.read_text())
    assert data["verdict"] == "FAIL"
    mismatch = next(m for m in data["pattern_mismatches"] if m.startswith("eigen table certificate"))
    assert "derivation fails: ad e[" in mismatch and " on [e[" in mismatch


@CERTIFIED_RUNS
def test_failing_certificate_is_a_verdict(args, tmp_path, monkeypatch, capsys):
    _assert_certificate_verdict(args, "doubled", tmp_path, monkeypatch, capsys)


@CERTIFIED_RUNS
def test_misgraded_eigen_table_is_a_verdict(args, tmp_path, monkeypatch, capsys):
    # the moved target leaves the degree rule no grading of the table
    _assert_certificate_verdict(args, "moved", tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("how", ["doubled", "moved"])
def test_grade_exits_one_on_a_failing_certificate(how, tmp_path, monkeypatch, capsys):
    from thinlie import cli, grading

    monkeypatch.setattr(grading, "closed_eigen_table", _mutate(how))
    out = tmp_path / "dm.json"
    args = ["grade", "--grading", "finite", "--p", "3", "--n2", "1", "--mu3", "0,1", "--out", str(out)]
    assert cli.main(args) == 1
    printed = capsys.readouterr().out
    assert "eigen table certificate: derivation fails: ad e[" in printed
    assert not out.exists()
