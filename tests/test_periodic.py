"""Periodic reuse in loop_expand, check_covering and detect_diamonds, the
two-bracket centralizer chains and the ideal rule of parameter_k, against
the full-depth oracles, which bracket and decide every degree afresh.

Whole thin reports must serialise byte for byte alike on every accepted
mixed input of the sweep and on a sample of toral runs, each at depths
N+1, 2N+2, 2N+3, 3N and 3N+5; a depth below 2q - 2 (sigma-zero at N+1)
must be rejected instead.  On hand-built tables (sl_2, whose L''
is zero in degree 4 and full from degree 5 on; an abelian table, s = 2;
and nilpotent tables whose expansion dies after the first period) the
three layers are compared one by one, and a mutant that takes
the period start to be 1 without comparing components must be told apart
from the oracle wherever s > 1.
"""

import inspect
import json
from functools import lru_cache

import pytest

from oracles import (
    oracle_check_covering,
    oracle_loop_expand,
    oracle_parameter_k,
    oracle_thin_report,
)
from test_sweep import MIXED_INPUTS
from thinlie import thinloop, verify
from thinlie.errors import NotStabilized
from thinlie.ffield import field_create
from thinlie.liealg import DegreeMap, StructureTable, validate_table
from thinlie.thinloop import check_covering, loop_expand, parameter_k, thin_report

F3, F4, F9, F25 = field_create(3), field_create(2, 2), field_create(3, 2), field_create(5, 2)


@lru_cache(maxsize=None)
def _grading(run, *args):
    """The Grading record a verify driver builds, without checking it."""
    real = verify._verify
    verify._verify = lambda g, depth: g
    try:
        return getattr(verify, run)(*args)
    finally:
        verify._verify = real


def _depths(n):
    return [n + 1, 2 * n + 2, 2 * n + 3, 3 * n, 3 * n + 5]


def _first_repeat(components, n):
    """The first s with M_{s+N} = M_s, by a scan of the oracle components."""
    return next((s for s in range(1, len(components) - n + 1)
                 if components[s + n - 1] == components[s - 1]), None)


def _assert_reports_agree(g):
    t = g.table
    x, y = t.basis_element(g.x_pos), t.basis_element(g.y_pos)
    for depth in _depths(g.degmap.modulus):
        if depth < 2 * g.q - 2:
            # only sigma-zero (N = q - 1) reaches such a depth, at N+1
            with pytest.raises(ValueError, match="below 2q-2"):
                thin_report(t, g.degmap, g.q, depth, X=x, Y=y)
            continue
        rep = thin_report(t, g.degmap, g.q, depth, X=x, Y=y)
        want = oracle_thin_report(t, g.degmap, g.q, depth, X=x, Y=y)
        assert json.dumps(rep.to_json()) == json.dumps(want.to_json()), depth
        assert rep.expansion.components == want.expansion.components, depth
        assert rep.expansion.period_start == _first_repeat(want.expansion.components, g.degmap.modulus)


@pytest.mark.parametrize("args", MIXED_INPUTS, ids=lambda a: "mixed-%d-%d-%d" % a)
def test_mixed_reports_match_full_depth_oracle(args):
    _assert_reports_agree(_grading("run_mixed", *args))


TORAL = {
    "finite-3-1-F9": ("run_finite", 3, 1, F9.generator()),
    "finite-3-2-F9": ("run_finite", 3, 2, F9.generator()),
    "finite-5-1-F25": ("run_finite", 5, 1, F25.generator()),
    "finite-2-2-F4": ("run_finite", 2, 2, F4.generator()),
    "sigma-zero-5": ("run_sigma_zero", 5, 1),
    "sigma-zero-2-2": ("run_sigma_zero", 2, 2),
    "eps-zero-5-2": ("run_eps_zero", 5, 1, 2),
    "eps-zero-3-2-1": ("run_eps_zero", 3, 2, 1),
}


@pytest.mark.parametrize("name", sorted(TORAL))
def test_toral_reports_match_full_depth_oracle(name):
    _assert_reports_agree(_grading(*TORAL[name]))


@pytest.mark.parametrize("args", [(5, 1, 1), (3, 1, 2), (7, 1, 1)], ids=lambda a: "mixed-%d-%d-%d" % a)
def test_covering_by_one_generator_matches_full_depth_oracle(args):
    # with Y = X covering fails where [u, X] alone misses M_{d+1}, at some
    # degrees of each period and not at others
    g = _grading("run_mixed", *args)
    t, x = g.table, g.table.basis_element(g.x_pos)
    for depth in _depths(g.degmap.modulus):
        expansion = loop_expand(t, g.degmap, depth)
        want = oracle_check_covering(expansion, x, x).failures
        assert check_covering(expansion, x, x).failures == want, depth
    assert 0 < len(want) < depth - 1


def _abelian():
    t = StructureTable.from_entries(F3, ["a", "b"], [])
    return t, DegreeMap(3, (1, 1)), t.basis_element(0), t.basis_element(1)


def _dies_late(n, length):
    """The model filiform algebra <x, y, z_2, ..., z_length> over F_3 with
    [x, y] = z_2, [z_i, x] = z_{i+1} and z_i in degree i mod n: once the
    chain passes n it wraps into the degree-1 slice, and M_{length+1} = 0."""
    labels = ["x", "y"] + [f"z{i}" for i in range(2, length + 1)]
    one = F3.one
    entries = [(0, 1, [(2, one)])] + [(i, 0, [(i + 1, one)]) for i in range(2, length)]
    t = StructureTable.from_entries(F3, labels, entries)
    assert validate_table(t).ok
    degmap = DegreeMap(n, (1, 1) + tuple(i % n for i in range(2, length + 1)))
    return t, degmap, t.basis_element(0), t.basis_element(1)


def _sl2():
    """sl_2 over F_3 with e, f in degree 1 and h in degree 0 mod 2: the
    period starts at 1, L''_4 = [h, h] = 0 is bracketed, and L''_5 =
    [M_2, M_3] = <e, f> is full, so the ideal rule fills every later degree."""
    one = F3.one
    t = StructureTable.from_entries(F3, ["e", "f", "h"], [
        (0, 1, [(2, one)]), (2, 0, [(0, one + one)]), (2, 1, [(1, -(one + one))]),
    ])
    assert validate_table(t).ok
    return t, DegreeMap(2, (1, 1, 0)), t.basis_element(0), t.basis_element(1)


HAND_BUILT = {
    "sl2": _sl2,
    "abelian": _abelian,
    "dies-late-4-6": lambda: _dies_late(4, 6),
    "dies-late-5-8": lambda: _dies_late(5, 8),
    "dies-late-8-6": lambda: _dies_late(8, 6),
}


def _layers(expansion, covering, k_of, x, y) -> str:
    try:
        k = k_of(expansion)
    except NotStabilized as exc:
        k = str(exc)
    report = covering(expansion, x, y)
    return json.dumps({
        "dims": expansion.dims,
        "coincidence": expansion.coincidence,
        "covering": [report.ok, report.failures, report.checked_upto],
        "k": k,
    })


def _oracle_layers(t, degmap, x, y, depth):
    want = oracle_loop_expand(t, degmap, depth)
    return want, _layers(want, oracle_check_covering, oracle_parameter_k, x, y)


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_hand_built_layers_match_full_depth_oracle(name):
    t, degmap, x, y = HAND_BUILT[name]()
    n = degmap.modulus
    for depth in _depths(n) + [5 * n]:
        want, want_layers = _oracle_layers(t, degmap, x, y, depth)
        got = loop_expand(t, degmap, depth)
        assert got.components == want.components, depth
        assert got.period_start == _first_repeat(want.components, n)
        assert _layers(got, check_covering, parameter_k, x, y) == want_layers, depth


def test_abelian_period_starts_at_two():
    t, degmap, x, y = _abelian()
    assert loop_expand(t, degmap, 9).period_start == 2


def _mutant_loop_expand():
    """loop_expand that takes the period to start at 1 without comparing
    M_{N+1} with M_1."""
    source = inspect.getsource(thinloop.loop_expand)
    compare = "if d > n and nxt == components[d - n - 1]:"
    assert compare in source
    namespace = dict(vars(thinloop))
    exec(source.replace(compare, "if d > n:"), namespace)
    return namespace["loop_expand"]


@pytest.mark.parametrize("name", sorted(set(HAND_BUILT) - {"sl2"}))
def test_mutant_assuming_period_one_is_caught(name):
    mutant = _mutant_loop_expand()
    t, degmap, x, y = HAND_BUILT[name]()
    assert loop_expand(t, degmap, 3 * degmap.modulus).period_start > 1
    depth = 3 * degmap.modulus
    _, want_layers = _oracle_layers(t, degmap, x, y, depth)
    assert _layers(mutant(t, degmap, depth), check_covering, parameter_k, x, y) != want_layers


@pytest.mark.parametrize("name", ["eps-zero-3-2-1", "sigma-zero-2-2"])
def test_mutant_is_caught_on_toral_runs_whose_period_starts_at_two(name, monkeypatch):
    g = _grading(*TORAL[name])
    t = g.table
    x, y = t.basis_element(g.x_pos), t.basis_element(g.y_pos)
    depth = 3 * g.degmap.modulus
    want = oracle_thin_report(t, g.degmap, g.q, depth, X=x, Y=y)
    assert _first_repeat(want.expansion.components, g.degmap.modulus) == 2
    monkeypatch.setattr(thinloop, "loop_expand", _mutant_loop_expand())
    got = thin_report(t, g.degmap, g.q, depth, X=x, Y=y)
    assert json.dumps(got.to_json()) != json.dumps(want.to_json())


def test_mutant_agrees_where_the_period_starts_at_one():
    # the mutant differs from loop_expand only where s > 1
    mutant = _mutant_loop_expand()
    g = _grading("run_mixed", 3, 1, 2)
    t = g.table
    x, y = t.basis_element(g.x_pos), t.basis_element(g.y_pos)
    depth = 3 * g.degmap.modulus
    _, want_layers = _oracle_layers(t, g.degmap, x, y, depth)
    assert _layers(mutant(t, g.degmap, depth), check_covering, parameter_k, x, y) == want_layers
