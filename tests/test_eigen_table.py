"""The closed Albert-Zassenhaus eigen table, read by rule, and its
certificates.

The rule table is checked byte for byte against the change of basis it
replaced, and against the pair-by-pair formula oracle; at sigma = 0 against
the subalgebra table of the partial eigenbasis.  The generator certificate
the library used before the grid (oracle_check_structure_map, on the
materialized table) must fail on a changed coefficient away from the
generators (and refuse, with ValueError, a change that puts a second term
on a pair), on a generating set that does not generate, on swapped images
and on images of too low rank.  A failed certificate is a verdict: verify
and grade exit 1 and name the failed check, when a binomial of one slice
pair of the rule is doubled and when a moved target puts its products in
the wrong degree.  The rule against its oracles, and the grid certificate
against the all-pairs one, are in test_az_rule.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    change_basis,
    dense_row,
    eigen_bracket_check,
    extend_to_generators,
    monomial_images,
    oracle_check_structure_map,
    oracle_subalgebra_table,
    subalgebra_generated,
)
from test_sweep import SIGMA_ZERO_INPUTS
from thinlie.errors import DenominatorZero
from thinlie.ffield import field_create, in_prime_field
from thinlie.grading import (
    ToralParams,
    eigenbasis,
    generator_positions,
    params_from_mu3,
    toral_params,
)
from thinlie.liealg import StructureTable

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
    return eigenbasis(params_from_mu3(mu3), mu3.spec.p)


def _eps_zero_basis(p, ratio):
    fieldspec = field_create(p)
    return eigenbasis(ToralParams(fieldspec.element(ratio), fieldspec.one, fieldspec.zero), p)


def _rho_zero_basis():
    # the basis of tests/test_covering.py whose covering fails
    return eigenbasis(ToralParams(F3.one, F3.zero, F3.zero), 3)


def _sigma_zero_basis(p, q):
    return eigenbasis(toral_params(field_create(p), 0, eps=1), q)


def _assert_matches_oracles(basis):
    et = basis.eigen_table
    t, vectors = monomial_images(basis)
    rows = [dense_row(t.field, t.dim, v.coords) for v in vectors]
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


@pytest.mark.parametrize("p, q", SIGMA_ZERO_INPUTS)
def test_sigma_zero_closed_table_is_the_subalgebra_x_and_y_generate(p, q):
    basis = _sigma_zero_basis(p, q)
    et = basis.eigen_table
    table, vectors = monomial_images(basis)
    sub = oracle_subalgebra_table(table, vectors, basis.labels)
    assert json.dumps(et.to_json()) == json.dumps(sub.to_json())
    assert eigen_bracket_check(basis)
    xy = list(generator_positions(basis))
    assert extend_to_generators(et, xy) == xy
    assert basis.certificate, basis.certificate
    x, y = (vectors[i] for i in xy)
    assert subalgebra_generated(table, [x, y]).dim == q


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
    return basis, gens, monomial_images(basis)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_certificate_fails_on_a_changed_coefficient_off_the_generators(f25_basis, data):
    basis, gens, images = f25_basis
    et = basis.eigen_table
    others = [m for m in range(et.dim) if m not in gens]
    a, b = sorted(data.draw(st.lists(st.sampled_from(others), min_size=2, max_size=2, unique=True)))
    target = data.draw(st.integers(0, et.dim - 1))
    delta = data.draw(st.sampled_from([c for c in et.field.elements() if c]))
    terms = dict(et.basis_bracket(a, b))
    terms[target] = terms.get(target, et.field.zero) + delta
    changed = _with_entry(et, (a, b), sorted((k, c) for k, c in terms.items() if c))
    if len(changed.brackets.get((a, b), ())) > 1:
        # a second term: no longer one-term, so no generating set certifies it
        with pytest.raises(ValueError, match="one-term"):
            oracle_check_structure_map(changed, *images, gens)
        return
    cert = oracle_check_structure_map(changed, *images, gens)
    assert not cert
    assert cert.check in ("derivation", "generation")


def test_certificate_reports_non_generation_for_x_and_y_alone():
    # eps = 0, p = 5, ratio 1: X and Y generate 24 of the 25 dimensions
    basis = _eps_zero_basis(5, 1)
    x_pos, y_pos = generator_positions(basis)
    cert = oracle_check_structure_map(basis.eigen_table, *monomial_images(basis), [x_pos, y_pos])
    assert cert.check == "generation"
    assert "24 of 25" in cert.detail
    assert basis.certificate  # the greedy extension does generate


def test_certificate_fails_on_every_swap_of_two_images():
    basis = _finite_basis(field_create(3, 2).generator())
    gens = extend_to_generators(basis.eigen_table, generator_positions(basis))
    table, vectors = monomial_images(basis)
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            images = list(vectors)
            images[i], images[j] = images[j], images[i]
            cert = oracle_check_structure_map(basis.eigen_table, table, images, gens)
            assert cert.check == "intertwining", (i, j)


def test_certificate_fails_on_zero_images():
    # the zero map intertwines every bracket; only the rank shows it
    basis = _finite_basis(field_create(3, 2).generator())
    gens = extend_to_generators(basis.eigen_table, generator_positions(basis))
    table, _ = monomial_images(basis)
    cert = oracle_check_structure_map(basis.eigen_table, table, [table.element({})] * 9, gens)
    assert cert.check == "rank"
    assert "0 of 9" in cert.detail


def _mutate(how):
    """AZBrackets._slice_pair changed on the last slice pair (ja, jb) with
    1 < ja <= jb < q - 1, off the slices of X and Y and off the row of
    e[0,0] (slice 1, whose row the eigen-equation reads), that has a nonzero
    product (u != 0, or more than one eigenvalue per slice): both binomials
    doubled, or the target moved one slice on, which also puts its
    products in the wrong degree."""
    from thinlie import grading

    real = grading.AZBrackets._slice_pair

    def has_products(rule, a, b):
        _, b1, b2 = real(rule, a, b)
        return (b1 or b2) and (((1 - b) * b1 - (1 - a) * b2) % rule._p or rule._width > 1)

    def changed(rule, ja, jb):
        q, pair = rule._q, real(rule, ja, jb)
        chosen = [(a, b) for a in range(2, q - 1) for b in range(a, q - 1)
                  if has_products(rule, a, b) and (how == "doubled" or real(rule, a, b)[0] + 1 < q)][-1]
        if (ja, jb) != chosen:
            return pair
        jc, b1, b2 = pair
        return (jc, 2 * b1 % rule._p, 2 * b2 % rule._p) if how == "doubled" else (jc + 1, b1, b2)

    return changed


CERTIFIED_RUNS = pytest.mark.parametrize("args", [
    ["--grading", "finite", "--p", "3", "--q", "9", "--mu3", "0,1"],
    ["--grading", "eps-zero", "--p", "5", "--q", "5", "--ratio", "1"],
    ["--grading", "sigma-zero", "--p", "7", "--q", "7"],
], ids=["finite", "eps-zero", "sigma-zero"])


def _assert_certificate_verdict(args, how, tmp_path, monkeypatch, capsys):
    from thinlie import cli, grading

    monkeypatch.setattr(grading.AZBrackets, "_slice_pair", _mutate(how))
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

    monkeypatch.setattr(grading.AZBrackets, "_slice_pair", _mutate(how))
    out = tmp_path / "dm.json"
    args = ["grade", "--grading", "finite", "--p", "3", "--n2", "2", "--mu3", "0,1", "--out", str(out)]
    assert cli.main(args) == 1
    printed = capsys.readouterr().out
    assert "eigen table certificate: derivation fails: ad e[" in printed
    assert not out.exists()


def test_sigma_zero_verify_exits_one_on_a_changed_coefficient_under_python_O():
    # python -O strips assert statements; the failed certificate must still fail the run
    script = (
        "import sys\n"
        "from thinlie import cli, grading\n"
        "real = grading.AZBrackets._slice_pair\n"
        "def changed(rule, ja, jb):\n"
        "    pair = real(rule, ja, jb)\n"
        "    return (pair[0], 2 * pair[1] % 5, 2 * pair[2] % 5) if (ja, jb) == (2, 3) else pair\n"
        "grading.AZBrackets._slice_pair = changed\n"
        "sys.exit(cli.main(['verify', '--grading', 'sigma-zero', '--p', '5', '--q', '5']))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 1, proc.stderr
    assert "eigen table certificate: derivation fails: ad e[" in proc.stdout
