from dataclasses import replace
from types import SimpleNamespace

import pytest

from oracles import centralizer_in, coordinate_span, full_subspace, oracle_center
from thinlie.cartan import build_H2_phi1
from thinlie.errors import ThinlieError
from thinlie.ffield import field_create
from thinlie.grading import grade_mixed, params_from_mu3, toral_params
from thinlie import grading, verify
from thinlie.liealg import MapCheck, StructureTable, center
from thinlie.thinloop import INFINITY
from thinlie.verify import Grading, _derived_in_char_two, run_eps_zero, run_finite, run_sigma_zero, toral_grading


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


def _without_pairs_of(t, m):
    """t with every stored pair that holds position m removed: b_m central."""
    return StructureTable(t.field, t.labels, {key: terms for key, terms in t.brackets.items() if m not in key})


@pytest.mark.parametrize("p, n2", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2)])
def test_eps_zero_center_in_two_steps_is_the_center(p, n2):
    # the lookup center against the nullspace oracle on the eps = 0 and
    # eps = 1 tables of the eps-zero sweep, and on the eps = 0 table with
    # every stored pair of the corner monomial removed
    field = field_create(p)
    hhat = build_H2_phi1(p, 1, n2, field, 0)
    corner = hhat.dim - 1
    cases = [(hhat, (0,)), (build_H2_phi1(p, 1, n2, field, 1), ()), (_without_pairs_of(hhat, corner), (0, corner))]
    for t, want in cases:
        assert center(t) == want
        assert oracle_center(t, full_subspace(t)) == coordinate_span(t, want)


def test_center_needs_the_second_centralizer_step():
    # [a0, a1] = a2: C(a0) = <a0, a2, a3> is larger than Z = <a2, a3>
    f3 = field_create(3)
    t = StructureTable(f3, ["a0", "a1", "a2", "a3"], {(0, 1): ((2, f3.one),)})
    full = full_subspace(t)
    first = centralizer_in(t, full, coordinate_span(t, [0]))
    assert first == coordinate_span(t, [0, 2, 3])
    assert centralizer_in(t, first, full) == oracle_center(t, full) == coordinate_span(t, [2, 3])
    assert center(t) == (2, 3)


def test_center_reads_only_one_term_support_injective_tables():
    # ad a2 sends a0 and a1 to a3, so a0 - a1 is central, and ad a0 sends a1
    # and a2 to a3: no set of basis positions spans either center; and a
    # pair of two terms is not read
    f3 = field_create(3)
    one = f3.one
    labels = ["a0", "a1", "a2", "a3"]
    for pairs in [((0, 2), (1, 2)), ((0, 1), (0, 2))]:
        merged = StructureTable(f3, labels, {key: ((3, one),) for key in pairs})
        assert oracle_center(merged, full_subspace(merged)).dim == 2
        with pytest.raises(ValueError, match="support-injective"):
            center(merged)
    with pytest.raises(ValueError, match="one-term"):
        center(StructureTable(f3, labels, {(0, 1): ((2, one), (3, one))}))


def test_front_half_mismatches_come_before_the_certificate(monkeypatch):
    # the center check runs first and its mismatch precedes a failed
    # certificate: on the eps = 0 table with one more central monomial (the
    # eigenbasis, which rejects any table with pairs removed, reads the
    # whole one), and, since no shipped table fails the later checks,
    # through stand-ins
    hhat = build_H2_phi1(5, 1, 1, field_create(5), 0)
    monkeypatch.setattr(verify, "build_H2_phi1", lambda *a: _without_pairs_of(hhat, hhat.dim - 1))
    monkeypatch.setattr(verify, "eigenbasis", lambda t, params: grading.eigenbasis(hhat, params))
    run = run_eps_zero(5, 1, 1)
    assert not run.ok and run.mismatches == ["center of the eps = 0 extension is not the constant line"]
    monkeypatch.undo()
    monkeypatch.setattr(verify, "center", lambda t: (0, 1))
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
    assert oracle_center(basis.table, full_subspace(basis.table)).dim == (0 if params.eps else 1)
    assert center(basis.table) == (() if params.eps else (0,))
    assert g.table is basis.eigen_table and g.degmap.modulus == (p - 1) * (p if params.sigma else 1)
