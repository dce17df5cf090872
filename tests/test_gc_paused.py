"""The bulk builds run with cyclic garbage collection paused and leave the
collector as they found it: on when it was on, off when the caller had
switched it off, also when the build raises (for a builder that raises,
see test_cartan).  The bulk builds are the builders' bracket loops,
validate_table, StructureTable.to_json, the whole-table read of the eigen
table's rule (grading.AZBrackets), and the Leibniz index and passes of the
generator certificate kept as a test oracle (oracle_check_structure_map)."""

import gc

import pytest

from oracles import closed_eigen_table, extend_to_generators, monomial_images, oracle_check_structure_map
from thinlie import grading, liealg
from thinlie.cartan import (
    AlbertFrankSpec,
    build_albert_frank,
    build_H2_phi1,
    build_H2_phi_tau_derived,
    build_H2_second_derived,
    build_W1n,
    zassenhaus_group_basis,
)
from thinlie.ffield import field_create, frobenius
from thinlie.grading import eigenbasis, generator_positions, params_from_mu3
from thinlie.liealg import StructureTable, validate_table

F9 = field_create(3, 2)


def _albert_frank():
    group = tuple(F9.elements())
    return build_albert_frank(AlbertFrankSpec(group, {a: frobenius(a) - a for a in group}))


BUILDERS = {
    "W": lambda: build_W1n(3, 2),
    "Hsecond": lambda: build_H2_second_derived(3, 1, 1),
    "Hphitau": lambda: build_H2_phi_tau_derived(3, 1, 1),
    "Hphi1": lambda: build_H2_phi1(3, 1, 1),
    "AF": _albert_frank,
    "group-basis": lambda: zassenhaus_group_basis(3, 2, F9),
}


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def collector(request):
    """The collector switched on or off for the test, restored after it."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
def test_builders_restore_the_collector(build, collector):
    build()
    assert gc.isenabled() == collector


def test_validation_and_json_restore_the_collector(collector):
    table = build_W1n(3, 2)
    assert validate_table(table).ok
    assert gc.isenabled() == collector
    table.to_json()
    assert gc.isenabled() == collector


def test_validation_runs_with_the_collector_paused(collector, monkeypatch):
    seen = []

    class Recording(liealg._LeibnizIndex):
        __slots__ = ()

        def __init__(self, t):
            seen.append(gc.isenabled())
            super().__init__(t)

    monkeypatch.setattr(liealg, "_LeibnizIndex", Recording)
    assert validate_table(build_W1n(3, 2)).ok
    assert seen == [False] and gc.isenabled() == collector


def test_raising_validation_and_json_restore_the_collector(collector, monkeypatch):
    def broken(t):
        raise RuntimeError("index")

    monkeypatch.setattr(liealg, "_LeibnizIndex", broken)
    with pytest.raises(RuntimeError, match="index"):
        validate_table(build_W1n(3, 2))
    assert gc.isenabled() == collector
    # a coefficient that is no field element has no to_json
    table = StructureTable(F9, ["a", "b", "c"], {(0, 1): ((2, 1),)})
    with pytest.raises(AttributeError):
        table.to_json()
    assert gc.isenabled() == collector


def _eigenbasis():
    """The finite eigenbasis at p = 3 over F_9, whose certificate takes the
    two generators X and Y, so its Leibniz passes run."""
    return eigenbasis(params_from_mu3(F9.generator()), 3)


def _certify(basis):
    gens = extend_to_generators(basis.eigen_table, generator_positions(basis))
    assert len(gens) < basis.eigen_table.dim
    return oracle_check_structure_map(basis.eigen_table, *monomial_images(basis), gens)


def test_certificate_builds_run_with_the_collector_paused(collector, monkeypatch):
    basis = _eigenbasis()
    seen = {"rule table": [], "index": [], "passes": []}
    pascal, kernel = grading._pascal, liealg._leibniz_failures

    def recording_pascal(*args):
        seen["rule table"].append(gc.isenabled())
        return pascal(*args)

    class Recording(liealg._LeibnizIndex):
        __slots__ = ()

        def __init__(self, t):
            seen["index"].append(gc.isenabled())
            super().__init__(t)

    def recording_passes(index, scans):
        for out in kernel(index, scans):
            seen["passes"].append(gc.isenabled())
            yield out

    monkeypatch.setattr(grading, "_pascal", recording_pascal)
    monkeypatch.setattr(liealg, "_LeibnizIndex", Recording)
    monkeypatch.setattr(liealg, "_leibniz_failures", recording_passes)
    table = dict(grading.AZBrackets(basis).items())  # a fresh rule: its binomial triangle made afresh
    assert gc.isenabled() == collector
    assert table == closed_eigen_table(basis).brackets
    assert _certify(basis)
    assert gc.isenabled() == collector
    assert seen["rule table"] and seen["index"] == [False] and seen["passes"] == [False, False]
    assert not any(seen["rule table"])


def test_raising_certificate_builds_restore_the_collector(collector, monkeypatch):
    basis = _eigenbasis()

    def broken(*args):
        raise RuntimeError("broken")

    with monkeypatch.context() as mp:
        mp.setattr(grading, "_pascal", broken)
        with pytest.raises(RuntimeError, match="broken"):
            grading.AZBrackets(basis).items()
    assert gc.isenabled() == collector
    with monkeypatch.context() as mp:
        mp.setattr(liealg, "_LeibnizIndex", broken)
        with pytest.raises(RuntimeError, match="broken"):
            _certify(basis)
    assert gc.isenabled() == collector
    with monkeypatch.context() as mp:
        mp.setattr(liealg, "_leibniz_failures", broken)
        with pytest.raises(RuntimeError, match="broken"):
            _certify(basis)
    assert gc.isenabled() == collector
