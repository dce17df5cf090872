"""Periodic reuse in loop_expand, check_covering and detect_diamonds, the
centralizer chains and the ideal recursion of parameter_k, against the
full-depth oracles, which bracket and decide every degree afresh on
Subspace components.

Whole thin reports must serialise byte for byte alike on every accepted
mixed input of the sweep and on a sample of toral runs, each at depths
N+1, 2N+2, 2N+3, 3N and 3N+5, and the position components must span the
oracle's Subspaces; a depth below 2q - 2 (sigma-zero at N+1) must be
rejected instead.  On hand-built tables (sl_2, whose L''
is zero in degree 4 and full from degree 5 on; an abelian table, s = 2;
and nilpotent tables whose expansion dies after the first period) the
three layers are compared one by one, and a mutant that takes
the period start to be 1 without comparing components must be told apart
from the oracle wherever s > 1.  Where X and Y do not span a
two-dimensional M_1 (X = Y on mixed inputs, or the dies-late tables whose
chain wraps into degree 1), check_covering raises ValueError instead of a
verdict.  On the same mixed inputs and hand-built
tables, parameter_k's table lookups are counted degree by degree against
the ideal recursion: at most dim L''_{d-1} dim M_1 + dim M_{d-2} dim M_2 up
to the first full degree, none after it.
"""

import inspect
import json
from functools import lru_cache

import pytest

from oracles import (
    Subspace,
    oracle_check_covering,
    oracle_component,
    oracle_loop_expand,
    oracle_parameter_k,
    oracle_second_derived_dims,
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
    verify._verify = lambda depth, grading: grading()
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


def _subspaces(expansion):
    """The position components of a loop expansion as Subspaces."""
    return [oracle_component(expansion, d) for d in range(1, expansion.depth + 1)]


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
        assert _subspaces(rep.expansion) == want.expansion.components, depth
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
def test_covering_by_one_generator_is_rejected(args):
    # with Y = X covering would fail where [u, X] alone misses M_{d+1}, at
    # some degrees of each period and not at others; check_covering reads a
    # one-dimensional M_d as covering, so it takes no such X and Y
    g = _grading("run_mixed", *args)
    t, x = g.table, g.table.basis_element(g.x_pos)
    for depth in _depths(g.degmap.modulus):
        expansion = loop_expand(t, g.degmap, depth)
        with pytest.raises(ValueError, match="two-dimensional M_1"):
            check_covering(expansion, x, x)
    assert 0 < len(oracle_check_covering(expansion, x, x).failures) < depth - 1


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
    try:
        report = covering(expansion, x, y)
        verdict = [report.ok, report.failures, report.checked_upto]
    except ValueError:
        verdict = "ValueError"
    return json.dumps({
        "dims": expansion.dims,
        "coincidence": expansion.coincidence,
        "covering": verdict,
        "k": k,
    })


def _oracle_covering(expansion, x, y):
    """oracle_check_covering where check_covering takes x and y, spanning a
    two-dimensional M_1 (not on the dies-late tables whose chain wraps into
    degree 1), and otherwise the ValueError check_covering raises."""
    m1 = oracle_component(expansion, 1)
    if m1.dim != 2 or Subspace.from_elements(expansion.base, [x, y]) != m1:
        raise ValueError("x and y do not span a two-dimensional M_1")
    return oracle_check_covering(expansion, x, y)


def _oracle_layers(t, degmap, x, y, depth):
    want = oracle_loop_expand(t, degmap, depth)
    return want, _layers(want, _oracle_covering, oracle_parameter_k, x, y)


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_hand_built_layers_match_full_depth_oracle(name):
    t, degmap, x, y = HAND_BUILT[name]()
    n = degmap.modulus
    for depth in _depths(n) + [5 * n]:
        want, want_layers = _oracle_layers(t, degmap, x, y, depth)
        got = loop_expand(t, degmap, depth)
        assert _subspaces(got) == want.components, depth
        assert got.period_start == _first_repeat(want.components, n)
        assert _layers(got, check_covering, parameter_k, x, y) == want_layers, depth


def _lookups_per_degree(expansion, monkeypatch):
    """The table lookups of parameter_k, one count per degree: each degree
    takes the targets of L''_{d-1} with M_1 and of M_{d-2} with M_2, two
    thinloop._targets calls, one lookup per pair of positions."""
    calls = []
    real = thinloop._targets

    def counting(get, left, right):
        calls.append(len(left) * len(right))
        return real(get, left, right)

    with monkeypatch.context() as mp:
        mp.setattr(thinloop, "_targets", counting)
        try:
            parameter_k(expansion)
        except NotStabilized:
            pass
    assert len(calls) % 2 == 0
    return [a + b for a, b in zip(calls[::2], calls[1::2])]


def _assert_ideal_recursion_cost(t, degmap, monkeypatch):
    # before the first full degree f, degree d takes at most
    # dim L''_{d-1} dim M_1 + dim M_{d-2} dim M_2 lookups; from f + 1 on, none
    for depth in _depths(degmap.modulus):
        expansion = loop_expand(t, degmap, depth)
        dims = [0] + expansion.dims
        lpp = oracle_second_derived_dims(expansion)
        first_full = next((d for d in range(3, depth + 1) if lpp[d] == dims[d]), depth)
        counts = _lookups_per_degree(expansion, monkeypatch)
        assert len(counts) == max(first_full - 3, 0), depth
        for d, calls in enumerate(counts, start=4):
            assert calls <= lpp[d - 1] * dims[1] + dims[d - 2] * dims[2], (depth, d)


@pytest.mark.parametrize("args", MIXED_INPUTS, ids=lambda a: "mixed-%d-%d-%d" % a)
def test_parameter_k_brackets_by_the_ideal_recursion_on_mixed_inputs(args, monkeypatch):
    g = _grading("run_mixed", *args)
    _assert_ideal_recursion_cost(g.table, g.degmap, monkeypatch)


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_parameter_k_brackets_by_the_ideal_recursion_on_hand_built_tables(name, monkeypatch):
    t, degmap, _, _ = HAND_BUILT[name]()
    _assert_ideal_recursion_cost(t, degmap, monkeypatch)


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
