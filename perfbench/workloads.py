"""The three benchmark workloads and their case lists.

Every case calls the library through its public module attributes at call
time (``getattr(module, name)``), so that the traced run, which replaces
those attributes with timing wrappers, sees each call.

toral   run_finite over extension fields plus the sigma-zero and eps-zero
        degenerations: eigenbasis, change of basis, extension-field scalars
        and covering enumeration over |F|+1 points.
mixed   run_mixed over prime fields with long gradings: loop expansion,
        covering and the parameter k by elimination.  Never changes basis,
        so it is the no-change control for a change-of-basis optimisation.
jacobi  cartan.build_* followed by the full basis-triple Jacobi scan.  Reads
        tables by basis triple and never grades or expands.

A workload's ``cases(pick)`` takes a function that chooses among the
parameter values a case admits: a seeded run picks one, reference
generation takes them all.  Case sizes never depend on the choice.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

from thinlie import cartan, cli, ffield, liealg

Pick = Callable[[list], list]


@dataclass
class Case:
    """One library call and how to serialise its output for the digest."""

    name: str  # seed-independent, e.g. "finite-7-7-F49"
    key: str  # name plus the chosen parameter; the reference digest key
    compute: Callable[[], object]
    serialize: Callable[[object], tuple[str, str, int | None]]  # verdict, text, triples


@dataclass
class Workload:
    cases: Callable[[Pick], list[Case]]
    fields: list[tuple[int, int]]  # (p, k) the workload creates
    largest: str  # case name timed as largest_case_s
    smallest: str  # case name of the one-pass smoke run


def _call(module, name: str, *args, **kwargs) -> Callable[[], object]:
    return lambda: getattr(module, name)(*args, **kwargs)


def _verify_output(run) -> tuple[str, str, None]:
    data = run.to_json()
    return data["verdict"], json.dumps(data, sort_keys=True), None


def _jacobi_output(result) -> tuple[str, str, int]:
    table, report = result
    text = json.dumps(table.to_json(), sort_keys=True)
    return ("PASS" if report.ok else "FAIL"), text, math.comb(table.dim, 3)


def _coords(a) -> str:
    return ",".join(str(c) for c in a.to_json())


def toral_cases(pick: Pick) -> list[Case]:
    cases = []
    for p, n2, k in ((3, 1, 2), (5, 1, 2), (3, 2, 2), (7, 1, 2)):
        field = ffield.field_create(p, k)
        name = f"finite-{p}-{p ** n2}-F{p ** k}"
        nonprime = [a for a in field.elements() if not ffield.in_prime_field(a)]
        for mu3 in pick(nonprime):
            compute = _call(cli, "run_finite", p, n2, mu3=mu3)
            cases.append(Case(name, f"{name} mu3={_coords(mu3)}", compute, _verify_output))
    for p in (3, 5, 7):
        name = f"sigma-zero-{p}"
        cases.append(Case(name, name, _call(cli, "run_sigma_zero", p, 1), _verify_output))
    for ratio in pick([1, 2, 3]):  # nonzero ratios other than -1 in F_5
        compute = _call(cli, "run_eps_zero", 5, 1, ratio)
        cases.append(Case("eps-zero-5", f"eps-zero-5 ratio={ratio}", compute, _verify_output))
    return cases


def mixed_cases(pick: Pick) -> list[Case]:
    cases = []
    for p, n1, n2 in ((3, 1, 1), (5, 1, 1), (3, 1, 2), (7, 1, 1), (3, 2, 1), (5, 1, 2), (2, 1, 3)):
        name = f"mixed-{p}-{n1}-{n2}"
        cases.append(Case(name, name, _call(cli, "run_mixed", p, n1, n2), _verify_output))
    return cases


def _jacobi(builder: str, *args) -> Callable[[], object]:
    def compute():
        table = getattr(cartan, builder)(*args)
        return table, liealg.validate_table(table)
    return compute


def _albert_frank_f9() -> Callable[[], object]:
    f9 = ffield.field_create(3, 2)

    def compute():
        group = tuple(f9.elements())
        theta = {a: ffield.frobenius(a) - a for a in group}
        table = cartan.build_albert_frank(cartan.AlbertFrankSpec(group, theta))
        return table, liealg.validate_table(table)
    return compute


def jacobi_cases(pick: Pick) -> list[Case]:
    f49 = ffield.field_create(7, 2)
    computes = {
        "W-5-3": _jacobi("build_W1n", 5, 3),  # dim 125
        "Hsecond-5-1-2": _jacobi("build_H2_second_derived", 5, 1, 2),  # dim 123
        "Hphitau-5-1-2": _jacobi("build_H2_phi_tau_derived", 5, 1, 2),  # dim 124
        "Hphi1-5-1-2": _jacobi("build_H2_phi1", 5, 1, 2),  # dim 125
        "Hphi1-5-2-1": _jacobi("build_H2_phi1", 5, 2, 1),  # dim 125
        "Hphi1-7-1-1-F49": _jacobi("build_H2_phi1", 7, 1, 1, f49, 1),  # dim 49
        "AF-F9": _albert_frank_f9(),  # dim 9
    }
    return [Case(name, name, compute, _jacobi_output) for name, compute in computes.items()]


WORKLOADS = {
    "toral": Workload(
        toral_cases, [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (7, 2)],
        largest="finite-7-7-F49", smallest="sigma-zero-3",
    ),
    "mixed": Workload(
        mixed_cases, [(2, 1), (3, 1), (5, 1), (7, 1)],
        largest="mixed-5-1-2", smallest="mixed-3-1-1",
    ),
    "jacobi": Workload(
        jacobi_cases, [(3, 2), (5, 1), (7, 2)],
        largest="Hphitau-5-1-2", smallest="AF-F9",
    ),
}
