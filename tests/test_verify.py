from dataclasses import replace
from types import SimpleNamespace

import pytest

from thinlie.cartan import build_H2_phi1
from thinlie.errors import ThinlieError
from thinlie.ffield import field_create
from thinlie.grading import ToralParams, eigenbasis, generator_positions, grade_mixed, params_from_mu3, toral_params
from thinlie import grading, verify
from thinlie.liealg import MapCheck, StructureTable, Subspace, center, centralizer_in
from thinlie.thinloop import INFINITY
from thinlie.verify import Grading, _center, _derived_in_char_two, run_eps_zero, run_finite, run_sigma_zero, toral_grading


def test_sigma_zero_char_two_q8_all_fake1():
    run = run_sigma_zero(2, 3)
    assert run.ok, run.mismatches
    kinds = [d.kind for d in run.report.diamonds]
    assert kinds[0] == "genuine" and len(kinds) > 1
    assert set(kinds[1:]) == {"fake1"}


@pytest.mark.parametrize("k", [2, 3])
def test_finite_char_two_follows_the_progression(k):
    # at even t the progression -1 + (t-2) sigma/rho is -1 = 1: a fake1
    run = run_finite(2, 2, mu3=field_create(2, k).generator())
    assert run.ok, run.mismatches
    assert all(d.kind == "fake1" for d in run.report.diamonds if d.ordinal % 2 == 0)


def test_char_two_restriction_checks_the_derived_subalgebra():
    table = build_H2_phi1(2, 1, 2, field_create(2), 1)
    grading = Grading(table, grade_mixed(table, 4, 2), 4, 1, 2, lambda rec: INFINITY, drop=table.dim - 1)
    restricted = _derived_in_char_two(grading)
    assert restricted.table.dim == table.dim - 1 and (restricted.x_pos, restricted.y_pos) == (1, 2)
    with pytest.raises(ThinlieError, match="derived subalgebra"):
        _derived_in_char_two(replace(grading, drop=0))


@pytest.mark.parametrize("p, n2", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2)])
def test_eps_zero_center_in_two_steps_is_the_center(p, n2):
    # every ratio run_eps_zero allows: nonzero and other than -1
    field = field_create(p)
    hhat = build_H2_phi1(p, 1, n2, field, 0)
    want = center(hhat, hhat.full_subspace())
    for ratio in range(1, p - 1):
        basis = eigenbasis(hhat, ToralParams(field.element(ratio), field.one, field.zero))
        assert _center(hhat, [basis.vectors[i] for i in generator_positions(basis)]) == want


def test_center_needs_the_second_centralizer_step():
    # [a0, a1] = a2: C(a0) = <a0, a2, a3> is larger than Z = <a2, a3>
    f3 = field_create(3)
    t = StructureTable(f3, ["a0", "a1", "a2", "a3"], {(0, 1): ((2, f3.one),)})
    full = t.full_subspace()
    g = [t.basis_element(0)]
    first = centralizer_in(t, full, Subspace.from_elements(t, g))
    assert first == Subspace.from_elements(t, [t.basis_element(i) for i in (0, 2, 3)])
    assert _center(t, g) == center(t, full) == Subspace.from_elements(t, [t.basis_element(i) for i in (2, 3)])


def test_front_half_mismatches_come_before_the_certificate(monkeypatch):
    # no shipped table fails these checks, so stand-ins fail them: the
    # center check runs first and its mismatch precedes a failed certificate
    monkeypatch.setattr(verify, "_center", lambda t, gens: t.full_subspace())
    run = run_eps_zero(5, 1, 1)
    assert not run.ok and run.mismatches == ["center of the eps = 0 extension is not the constant line"]
    monkeypatch.setattr(grading, "check_structure_map", lambda *a: MapCheck("rank", "forced"))
    run = run_eps_zero(5, 1, 1)
    assert run.report is None and run.mismatches == [
        "center of the eps = 0 extension is not the constant line",
        "eigen table certificate: rank fails: forced",
    ]
    monkeypatch.undo()
    monkeypatch.setattr(verify, "_ReachedSpan", lambda t, gens: SimpleNamespace(rank=len(gens)))
    run = run_sigma_zero(5, 1)
    assert not run.ok and run.mismatches == ["generated subalgebra has dim 2, expected 5"]


@pytest.mark.parametrize("p, params", [
    (5, toral_params(field_create(5), 1, eps=0, rho=1)),
    (5, toral_params(field_create(5), 0)),
    (3, params_from_mu3(field_create(3, 2).generator())),
])
def test_toral_grading_builds_the_table_of_params_eps(p, params):
    # eps is read from params alone: eps = 0 gives the central extension
    g, basis = toral_grading(p, 1, params)
    want = build_H2_phi1(p, 1, 1, params.field, params.eps)
    assert basis.table.to_json() == want.to_json()
    assert center(basis.table, basis.table.full_subspace()).dim == (0 if params.eps else 1)
    assert g.table is basis.eigen_table and g.degmap.modulus == (p - 1) * (p if params.sigma else 1)
