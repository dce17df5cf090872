"""The bulk builds run with cyclic garbage collection paused and leave the
collector as they found it: on when it was on, off when the caller had
switched it off, also when the build raises (for a builder that raises,
see test_cartan)."""

import gc

import pytest

from thinlie import liealg
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
