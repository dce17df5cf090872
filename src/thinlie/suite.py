"""The acceptance matrix: one callable per criterion, exact checks only.

Each criterion raises CriterionFailed on failure, an explicit raise that
python -O keeps; the CLI `suite` command and the test suite both run this
list.  Everything here is a reproduction of a structural statement at desk
scale, so all comparisons are exact.
"""

from __future__ import annotations

import random

from .cartan import (
    AlbertFrankSpec, build_albert_frank, build_H2_phi1, build_H2_phi_tau_derived, build_H2_second_derived,
    build_W1n, coeff_N, coeff_Nprime, monomials, zassenhaus_group_basis,
)
from .errors import CriterionFailed
from .ffield import field_create, frobenius, in_prime_field
from .grading import params_from_mu3, toral_params
from .liealg import MapCheck, check_structure_map, validate_table
from .thinloop import check_covering, covering_criterion_at, thin_report
from .verify import identify, run_eps_zero, run_finite, run_mixed, run_sigma_zero


def _require(ok: bool, detail: object) -> None:
    if not ok:
        raise CriterionFailed(detail)


def _nonprime_elements(fieldspec):
    return [a for a in fieldspec.elements() if not in_prime_field(a)]


def criterion_01_dimension_formulas() -> None:
    """W(1;n) = p^n; H(2;n)^(2) = p^|n| - 2; Phi(tau)^(1) = p^|n| - 1;
    Phi(1) = p^|n|, across |n| <= 3."""
    for p, n in [(2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)]:
        _require(build_W1n(p, n).dim == p ** n, (p, n))
    for p, n1, n2 in [(2, 1, 1), (2, 1, 2), (2, 2, 1), (3, 1, 1), (3, 1, 2),
                      (3, 2, 1), (5, 1, 1), (7, 1, 1)]:
        d = p ** (n1 + n2)
        _require(build_H2_second_derived(p, n1, n2).dim == d - 2, (p, n1, n2))
        _require(build_H2_phi_tau_derived(p, n1, n2).dim == d - 1, (p, n1, n2))
        _require(build_H2_phi1(p, n1, n2).dim == d, (p, n1, n2))


def criterion_02_jacobi_scan() -> None:
    """The Jacobi identity on every family, up to dimension 125: each table
    is proved by validate_table, from a generating set or, failing that,
    by the scan of every basis triple."""
    tables = [
        build_W1n(3, 2),
        build_W1n(2, 3),
        build_W1n(5, 3),  # dim 125
        build_H2_second_derived(3, 1, 2),
        build_H2_second_derived(5, 1, 2),  # dim 123
        build_H2_phi_tau_derived(3, 2, 1),
        build_H2_phi_tau_derived(5, 1, 2),  # dim 124
        build_H2_phi1(3, 1, 2),
        build_H2_phi1(5, 1, 2),  # dim 125
        build_H2_phi1(5, 2, 1),  # dim 125
        build_H2_phi1(3, 1, 1, field_create(3, 2), 1),
        build_H2_phi1(2, 1, 2),
    ]
    f9 = field_create(3, 2)
    group = tuple(f9.elements())
    tables.append(build_albert_frank(
        AlbertFrankSpec(group, {a: frobenius(a) - a for a in group})
    ))
    tables.append(zassenhaus_group_basis(5, 1, field_create(5))[0])
    for t in tables:
        rep = validate_table(t)
        _require(rep.ok, f"Jacobi fails on dim-{t.dim} table: {rep.violations[:3]}")


def transition_rank(field, transition) -> MapCheck:
    """Rank by argument of zassenhaus_group_basis's transition over field:
    row m must be (a^0, ..., a^(q-1)) + e_last (0^0 = 1, e_last at E_{q-2})
    for the m-th of the distinct elements a of field, so the matrix is
    V + 1 e_last^T = V (I + e_1 e_last^T), V Vandermonde: det = det V != 0."""
    alphas = list(field.elements())
    if len(set(alphas)) != len(alphas):
        return MapCheck("rank", "the field elements repeat")
    for a, row in zip(alphas, transition, strict=True):
        want = [a ** pos for pos in range(len(alphas))]
        want[-1] += field.one
        if row != {pos: c for pos, c in enumerate(want) if c}:
            return MapCheck("rank", f"the row of e_{a} is not (a^0, ..., a^(q-1)) + e_last")
    return MapCheck()


def criterion_03_basis_transition() -> None:
    """The transition e_alpha -> its E-coordinates is an isomorphism from the
    group-basis table onto W(1;n): check_structure_map on every pair, the
    statement that conjugating the E-basis table by the transition
    reproduces the group-basis constants exactly, and transition_rank, each
    failing check named; in characteristic two it restricts to the derived
    subalgebra, the span of the e_alpha, alpha != 0, which is closed."""
    for p, n in [(3, 1), (3, 2), (5, 1), (2, 2)]:
        fieldspec = field_create(p, n) if n > 1 else field_create(p)
        group, transition = zassenhaus_group_basis(p, n, fieldspec)
        w = build_W1n(p, n, fieldspec)
        images = [w.element(coords) for coords in transition]
        checks = [check_structure_map(group, w, images), transition_rank(fieldspec, transition)]
        _require(all(checks), (p, n, "; ".join(str(c) for c in checks if not c)))
        if p == 2:
            keep = {m for m, a in enumerate(fieldspec.elements()) if a}
            pairs = (terms for (i, j), terms in group.brackets.items() if i in keep and j in keep)
            _require(all(k in keep for terms in pairs for k, _ in terms), "derived-subalgebra restriction: not closed")


def criterion_04_mixed_grading() -> None:
    """Covering over at least two periods, diamonds exactly in degrees
    congruent to 1 mod (q-1), type -1 exactly at q mod (q-1)r, infinity
    elsewhere, for (3,1,1), (5,1,1), (3,1,2)."""
    for p, n1, n2 in [(3, 1, 1), (5, 1, 1), (3, 1, 2)]:
        run = run_mixed(p, n1, n2)
        modulus = (p ** n2 - 1) * p ** n1
        _require(run.report.depth >= 2 * modulus, "fewer than two periods checked")
        _require(run.ok, (p, n1, n2, run.mismatches))


# (p, n2, field of mu3) of the finite runs of rows 05 and 11
FINITE = [(3, 1, field_create(3, 2)), (5, 1, field_create(5, 2)), (3, 2, field_create(3, 2))]


def criterion_05_finite_grading() -> None:
    """Toral-grading diamond pattern for (3,3) over F_9, (5,5) over F_25,
    (3,9) over F_9, every mu3 outside the prime field; (7,7) additionally
    passes the second centralizer chain."""
    for p, n2, fieldspec in FINITE:
        q = p ** n2
        for mu3 in _nonprime_elements(fieldspec):
            run = run_finite(p, n2, mu3=mu3)
            _require(run.ok, (p, q, str(mu3), run.mismatches))
            second = run.report.diamonds[1]
            _require((second.degree, second.ordinal) == (q, 2) and second.kind == "genuine", "second diamond")
            third = run.report.diamonds[2]
            _require(third.degree == 2 * q - 1 and third.type == mu3, "third diamond type")
    f49 = field_create(7, 2)
    run = run_finite(7, 1, mu3=f49.generator())
    _require(run.ok, run.mismatches)
    _require(run.report.chains.first_ok and run.report.chains.second_ok, "centralizer chains")
    _require(run.report.chains.proviso is None, run.report.chains.proviso)


def criterion_06_assigned_type_roundtrip() -> None:
    """params_from_mu3 then -1 + sigma/rho is the identity on F_9 \\ F_3
    (all 6) and F_25 \\ F_5 (all 20), and satisfies the toral relation."""
    for fieldspec in (field_create(3, 2), field_create(5, 2)):
        p = fieldspec.p
        one = fieldspec.one
        for mu3 in _nonprime_elements(fieldspec):
            params = params_from_mu3(mu3)
            _require(-one + params.sigma / params.rho == mu3, ("roundtrip", str(mu3)))
            _require(not (params.rho ** p - params.pi * params.rho - one), ("toral relation", str(mu3)))


def criterion_07_degenerations() -> None:
    """sigma = 0: q-dimensional Zassenhaus subalgebra, all diamonds type -1;
    eps = 0: one-dimensional center, prime-field progression with fakes
    exactly at 0 and 1."""
    for p in (3, 5):
        run = run_sigma_zero(p, 1)
        _require(run.ok, (p, run.mismatches))
    for p in (3, 5):
        for ratio in range(1, p - 1):  # nonzero ratios other than -1
            run = run_eps_zero(p, 1, ratio)
            _require(run.ok, (p, ratio, run.mismatches))
            kinds = {r.kind for r in run.report.diamonds}
            _require({"fake0", "fake1"} <= kinds, "expected both fake kinds to occur")


def criterion_08_parameter_k() -> None:
    """k = q with a two-dimensional component at q for odd p (q > 3); k = q
    with a one-dimensional component for the two characteristic-two runs."""
    run = run_finite(5, 1, mu3=field_create(5, 2).generator())
    _require(run.report.k == 5 and run.report.dim_at(5) == 2, (run.report.k, run.report.dims))
    run = run_finite(3, 2, mu3=field_create(3, 2).generator())
    _require(run.report.k == 9 and run.report.dim_at(9) == 2, (run.report.k, run.report.dims))
    mixed = run_mixed(3, 1, 2)
    _require(mixed.report.k == 9 and mixed.report.dim_at(9) == 2, (mixed.report.k, mixed.report.dims))
    mixed2 = run_mixed(2, 1, 2)
    _require(mixed2.report.k == 4 and mixed2.report.dim_at(4) == 1, (mixed2.report.k, mixed2.report.dims))
    finite2 = run_finite(2, 2, mu3=field_create(2, 2).generator())
    _require(finite2.report.k == 4 and finite2.report.dim_at(4) == 1, (finite2.report.k, finite2.report.dims))


def criterion_09_char_two_isomorphism() -> None:
    """H(2;(1,n);Phi(tau))^(1) = W(1;n+1)^(1) in characteristic two via the
    monomial-to-E map, for n = 1, 2: check_structure_map into W(1;n+1),
    injective as the basis goes to distinct basis vectors, all but the top."""
    for n in (1, 2):
        f2 = field_create(2)
        src = build_H2_phi_tau_derived(2, 1, n, f2)
        wfull = build_W1n(2, n + 1, f2)
        top_pos = 2 ** (n + 1) - 1  # position of E_{2^{n+1}-2}
        # x^(i) y^(j) -> E_e at position e + 1, e = j - 1 if i == 1 else j + 2^n - 2
        targets = [j if i == 1 else j + 2 ** n - 1 for (i, j) in monomials(1, 2 ** n - 1) if (i, j) != (0, 0)]
        _require(len(set(targets)) == len(targets) == wfull.dim - 1 and top_pos not in targets, f"n = {n}: targets")
        _require(check_structure_map(src, wfull, [wfull.basis_element(t) for t in targets]), f"n = {n}")


def criterion_10_property_suites() -> None:
    """Covering oracle equivalence at every diamond slot of the verified
    runs; classify_type invariance under 50 random generator rescalings;
    exhaustive N = N' agreement off the exceptional index sets."""
    runs = [
        run_mixed(3, 1, 1),
        run_mixed(5, 1, 1),
        run_mixed(3, 1, 2),
        run_finite(3, 1, mu3=field_create(3, 2).generator()),
        run_finite(5, 1, mu3=field_create(5, 2).generator()),
        run_finite(3, 2, mu3=field_create(3, 2).generator()),
    ]
    for run in runs:
        rep = run.report
        expansion = rep.expansion
        x, y = rep.generators.X, rep.generators.Y
        enum_failures = set(check_covering(expansion, x, y).failures)
        for d in range(2, expansion.depth):
            if expansion.dims[d - 1] == 2:
                by_enum = d not in enum_failures
                by_crit = covering_criterion_at(expansion, x, y, d)
                _require(by_enum == by_crit, f"covering oracles disagree at degree {d}")
                _require(by_enum, f"covering fails at degree {d}")

    base = run_finite(3, 1, mu3=field_create(3, 2).generator())
    rep = base.report
    expansion = rep.expansion
    table = expansion.base
    baseline = [(r.degree, r.kind, r.type) for r in rep.diamonds]
    rng = random.Random(172)
    nonzero = [a for a in table.field.elements() if a]
    for _ in range(50):
        lam, nu = rng.choice(nonzero), rng.choice(nonzero)
        scaled = thin_report(
            table, expansion.degmap, rep.q, depth=expansion.depth,
            X=rep.generators.X.scale(lam), Y=rep.generators.Y.scale(nu),
        )
        got = [(r.degree, r.kind, r.type) for r in scaled.diamonds]
        _require(got == baseline, "diamond data changed under generator rescaling")

    p, (tau1, tau2) = 3, (2, 2)
    for i in range(2 * tau1 + 1):
        for k in range(2 * tau1 + 1):
            for j in range(2 * tau2 + 1):
                for l in range(2 * tau2 + 1):
                    agree = coeff_N(i, j, k, l, p) == coeff_Nprime(i, j, k, l, p)
                    exceptional = (i == 0 and k == 0) or (j == 0 and l == 0)
                    if not exceptional:
                        _require(agree, (i, j, k, l))


def criterion_11_hamiltonian_identification() -> None:
    """The rule tables of rows 05 and 07 are those of H(2;(1,n2);Phi(1)) in
    the eigenbasis of its toral element (verify.identify), the monomial
    table proved Lie: every toral case of those rows."""
    cases = [(p, n2, params_from_mu3(mu3)) for p, n2, fieldspec in FINITE for mu3 in _nonprime_elements(fieldspec)]
    cases.append((7, 1, params_from_mu3(field_create(7, 2).generator())))
    for p in (3, 5):
        cases.append((p, 1, toral_params(field_create(p), 0)))
        cases += [(p, 1, toral_params(field_create(p), ratio, eps=0, rho=1)) for ratio in range(1, p - 1)]
    for p, n2, params in cases:
        mismatches = identify(p, n2, params)
        _require(not mismatches, (p, p ** n2, str(params.sigma), str(params.eps), mismatches))


CRITERIA = [
    ("01-dimension-formulas", criterion_01_dimension_formulas),
    ("02-jacobi-scan", criterion_02_jacobi_scan),
    ("03-basis-transition", criterion_03_basis_transition),
    ("04-mixed-grading", criterion_04_mixed_grading),
    ("05-finite-grading", criterion_05_finite_grading),
    ("06-assigned-type-roundtrip", criterion_06_assigned_type_roundtrip),
    ("07-degenerations", criterion_07_degenerations),
    ("08-parameter-k", criterion_08_parameter_k),
    ("09-char2-isomorphism", criterion_09_char_two_isomorphism),
    ("10-property-suites", criterion_10_property_suites),
    ("11-hamiltonian-identification", criterion_11_hamiltonian_identification),
]
