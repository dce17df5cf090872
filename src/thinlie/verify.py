"""Verification drivers: each run_* builds a Grading record and one driver
checks its thin report against the predicted diamond types.  A predicted
type 0 means a fake0, 1 a fake1, anything else a genuine diamond of that
type; so characteristic two, where -1 = 1, needs no case of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from typing import Callable

from .cartan import build_H2_phi1, phi1_monomials
from .errors import StructuralFailure, ThinlieError
from .ffield import FieldElement, FieldSpec, field_create
from .grading import (
    ToralParams,
    eigenbasis,
    generator_positions,
    grade_finite,
    grade_mixed,
    params_from_mu3,
    sigma_zero_subalgebra,
    toral_params,
)
from .liealg import (
    DegreeMap,
    Element,
    StructureTable,
    Subspace,
    _ReachedSpan,
    centralizer_in,
    quotient_by_ideal,
    subalgebra_table,
)
from .thinloop import INFINITY, DiamondRecord, ThinReport, thin_report


SIGMA_ZERO = (
    "sigma = 0 leaves one eigenvalue per slice and so no finite grading: "
    "see verify --grading sigma-zero"
)


@dataclass
class VerifyRun:
    """A thin report together with its deviations from the predicted pattern;
    no report when a failed eigen-table certificate or a structural failure
    inside the thin report stopped the run."""

    report: ThinReport | None
    mismatches: list[str]
    params: ToralParams | None = None

    @property
    def ok(self) -> bool:
        return self.report is not None and self.report.ok and not self.mismatches

    def to_json(self) -> dict:
        out = {} if self.report is None else self.report.to_json()
        out["pattern_mismatches"] = self.mismatches
        out["verdict"] = "PASS" if self.ok else "FAIL"
        return out


@dataclass
class Grading:
    """What one verification run expands and predicts: predicted(rec) is the
    type (field element or INFINITY) at a slot after the first; coincidence
    requires M_{N+1} = M_1; certificate adds the second-diamond relations,
    the first centralizer chain and k = q (for q > 3)."""

    table: StructureTable
    degmap: DegreeMap
    q: int
    x_pos: int
    y_pos: int
    predicted: Callable[[DiamondRecord], object]
    mismatches: list[str] = dc_field(default_factory=list)
    coincidence: bool = False
    certificate: bool = False
    params: ToralParams | None = None


def _check_depth(depth: int | None) -> None:
    """Reject a depth below one; None is thin_report's default, never a
    replacement for a bad value."""
    if depth is not None and depth < 1:
        raise ThinlieError(f"expansion depth must be positive, got {depth}")


def _check_q(q: int) -> None:
    """Reject q = 2 before any work: its second diamond would sit in degree 2."""
    if q == 2:
        raise ThinlieError(
            "q = 2 is outside the class: a second diamond in degree 2 needs dim L_2 = 2, "
            "but L_2 = [L_1, L_1] is at most 1-dimensional"
        )


def _expected(mu) -> tuple[str, object]:
    """Kind and type of a diamond predicted to have type mu."""
    if mu is not INFINITY:
        if not mu:
            return "fake0", None
        if mu == mu.spec.one:
            return "fake1", None
    return "genuine", mu


def _verify(g: Grading, depth: int | None) -> VerifyRun:
    table = g.table
    mismatches = g.mismatches
    x, y = table.basis_element(g.x_pos), table.basis_element(g.y_pos)
    try:
        rep = thin_report(table, g.degmap, g.q, depth, X=x, Y=y)
    except StructuralFailure as exc:
        mismatches.append(f"{type(exc).__name__} at degree {exc.degree}: {exc}")
        return VerifyRun(None, mismatches, g.params)
    if not rep.covering.ok:
        mismatches.append(f"covering fails at {rep.covering.failures}")
    if rep.anomalies:
        mismatches.append("anomalies: " + "; ".join(rep.anomalies))
    if rep.nondiamond_slots:
        mismatches.append(f"slots without a diamond relation: {rep.nondiamond_slots}")
    if g.coincidence and not rep.coincidence:
        mismatches.append("loop algebra does not exhaust the graded components")
    for rec in rep.diamonds[1:]:
        kind, mu = _expected(g.predicted(rec))
        if rec.kind != kind or rec.type != mu:
            want = f"type {mu}" if kind == "genuine" else kind
            mismatches.append(f"slot {rec.degree}: expected {want}, got {rec.kind}/{rec.type}")
    if g.certificate:
        gens = rep.generators
        if not (gens.vxx_zero and gens.vyy_zero):
            mismatches.append("second-diamond relations [V,X,X] = 0 = [V,Y,Y] fail")
        if gens.c_xy is None or gens.c_yx != table.field.element(-2) * gens.c_xy:
            mismatches.append("second-diamond relation [V,Y,X] = -2[V,X,Y] fails")
        if not rep.chains.first_ok:
            mismatches.append("first centralizer chain is not <Y>")
        if g.q > 3 and rep.k != g.q:
            mismatches.append(f"parameter k = {rep.k}, expected {g.q}")
    return VerifyRun(rep, mismatches, g.params)


def _derived_in_char_two(g: Grading, drop: int) -> Grading:
    """In characteristic two, restrict table, degree map and X/Y positions to
    the derived subalgebra, which must be spanned by every basis vector but
    the one at drop; in odd characteristic change nothing.  The table must
    be one-term, as build_H2_phi1 and closed_eigen_table make it: the
    brackets of basis pairs span L', and each is a nonzero multiple of one
    basis vector, so L' is the coordinate span of the stored targets."""
    t = g.table
    if t.field.p != 2:
        return g
    keep = [i for i in range(t.dim) if i != drop]
    if {k for ((k, _),) in t.brackets.values()} != set(keep):
        raise ThinlieError("characteristic-two derived subalgebra has unexpected shape")
    return replace(
        g, table=subalgebra_table(t, keep), degmap=g.degmap.restrict(keep),
        x_pos=keep.index(g.x_pos), y_pos=keep.index(g.y_pos),
    )


def _progression(params: ToralParams) -> Callable[[DiamondRecord], FieldElement]:
    """mu_t = -1 + (t-2) sigma/rho at the t-th diamond."""
    fieldspec = params.field
    step = params.sigma / params.rho
    return lambda rec: -fieldspec.one + fieldspec.element(rec.ordinal - 2) * step


def _center(t: StructureTable, gens: list[Element]) -> Subspace:
    """Z(t) = C_{C_t(G)}(t) for any family G, with no Jacobi identity: for
    small G and C_t(G), far fewer brackets than center on all of t."""
    full = t.full_subspace()
    return centralizer_in(t, centralizer_in(t, full, Subspace.from_elements(t, gens)), full)


def run_mixed(p: int, n1: int, n2: int, depth: int | None = None) -> VerifyRun:
    """Loop algebra of H(2;n;Phi(1)) under the monomial-degree grading.

    Predicted pattern: diamonds in every degree congruent to 1 mod (q-1);
    type -1 exactly in degrees congruent to q mod (q-1)r (fake in
    characteristic two, inside the derived subalgebra), type infinity
    elsewhere.
    """
    q, r = p ** n2, p ** n1
    _check_q(q)
    _check_depth(depth)
    modulus = (q - 1) * r
    fieldspec = field_create(p)
    table = build_H2_phi1(p, n1, n2, fieldspec, 1)
    index = {m: i for i, m in enumerate(phi1_monomials(p, n1, n2))}
    minus_one = -fieldspec.one
    grading = Grading(
        table, grade_mixed(table, q, r), q, index[(1, 0)], index[(0, q - 1)],
        lambda rec: minus_one if rec.degree % modulus == q % modulus else INFINITY,
        coincidence=True,
    )
    return _verify(_derived_in_char_two(grading, index[(r - 1, q - 1)]), depth)


def run_finite(
    p: int,
    n2: int,
    mu3: FieldElement | None = None,
    sigma: FieldElement | None = None,
    rho: FieldElement | None = None,
    field: FieldSpec | None = None,
    depth: int | None = None,
) -> VerifyRun:
    """Loop algebra of H(2;(1,n);Phi(1)) under the toral-eigenvector grading.

    Predicted pattern: the t-th diamond in degree (t-1)(q-1)+1 of type
    mu_t = -1 + (t-2) sigma/rho, an arithmetic progression outside the prime
    field; in characteristic two the run moves into the derived subalgebra.
    """
    q = p ** n2
    _check_q(q)
    _check_depth(depth)
    if mu3 is not None:
        params = params_from_mu3(mu3)
    else:
        if sigma is None or field is None:
            raise ThinlieError("run_finite needs either mu3 or (field, sigma[, rho])")
        params = toral_params(field, sigma, eps=1, rho=rho)
    if not params.sigma:
        raise ThinlieError(SIGMA_ZERO)
    table = build_H2_phi1(p, 1, n2, params.field, 1)
    basis = eigenbasis(table, params)
    if not basis.certificate:  # nothing computed from an unproved table is evidence
        return VerifyRun(None, [f"eigen table certificate: {basis.certificate}"], params)
    grading = Grading(
        basis.eigen_table, grade_finite(basis), q, *generator_positions(basis),
        _progression(params), coincidence=True, certificate=True, params=params,
    )
    return _verify(_derived_in_char_two(grading, basis.position(2 - q, 0)), depth)


def run_sigma_zero(p: int, n2: int, depth: int | None = None) -> VerifyRun:
    """The sigma = 0 degeneration: X and Y generate a q-dimensional
    Zassenhaus subalgebra whose loop algebra has all diamonds of type -1
    (fake in characteristic two, where -1 = 1).  The eigen-table certificate
    proves the closed table a subalgebra; when its generators are X and Y
    alone, they generate all q dimensions."""
    q = p ** n2
    _check_q(q)
    _check_depth(depth)
    fieldspec = field_create(p)
    params = toral_params(fieldspec, 0, eps=1)  # rho = 1
    table = build_H2_phi1(p, 1, n2, fieldspec, 1)
    basis = eigenbasis(table, params)
    if not basis.certificate:
        return VerifyRun(None, [f"eigen table certificate: {basis.certificate}"], params)
    sub, dm, x_pos, y_pos = sigma_zero_subalgebra(basis)
    mismatches = []
    generated = _ReachedSpan(sub)  # the closed table is one-term
    for g in (x_pos, y_pos):
        generated.adjoin(g)
    if generated.rank != q:
        mismatches.append(f"generated subalgebra has dim {generated.rank}, expected {q}")
    minus_one = -fieldspec.one
    grading = Grading(sub, dm, q, x_pos, y_pos, lambda rec: minus_one, mismatches, params=params)
    return _verify(grading, depth)


def run_eps_zero(p: int, n2: int, ratio: int, depth: int | None = None) -> VerifyRun:
    """The eps = 0 deformation limit: the center quotient of the loop algebra
    of the central extension, with prime-field progression step sigma/rho and
    fake diamonds exactly where the progression passes through 0 or 1."""
    if p == 2:
        raise ThinlieError("eps-zero needs odd p: the only nonzero ratio sigma/rho in F_2 is 1 = -1")
    ratio %= p
    if ratio == 0 or ratio == p - 1:
        raise ThinlieError("the ratio sigma/rho must be a nonzero element other than -1")
    q = p ** n2
    _check_q(q)
    _check_depth(depth)
    fieldspec = field_create(p)
    hhat = build_H2_phi1(p, 1, n2, fieldspec, 0)
    params = ToralParams(fieldspec.element(ratio), fieldspec.one, fieldspec.zero)
    basis = eigenbasis(hhat, params)
    mismatches = []
    cent = _center(hhat, [basis.vectors[i] for i in generator_positions(basis)])
    constant = hhat.basis_element(phi1_monomials(p, 1, n2).index((0, 0)))
    if cent.dim != 1 or not cent.contains(constant):
        mismatches.append("center of the eps = 0 extension is not the constant line")
    if not basis.certificate:
        return VerifyRun(None, mismatches + [f"eigen table certificate: {basis.certificate}"], params)
    et = basis.eigen_table
    central = next(m for m, (r, _, alpha) in enumerate(basis.entries) if r == 1 and not alpha)
    if basis.vectors[central] != constant:
        mismatches.append("e[1,0] is not the constant monomial")
    quotient = quotient_by_ideal(et, [central])
    keep = [i for i in range(et.dim) if i != central]
    x_pos, y_pos = (keep.index(i) for i in generator_positions(basis))
    grading = Grading(
        quotient, grade_finite(basis).restrict(keep), q, x_pos, y_pos,
        _progression(params), mismatches, params=params,
    )
    return _verify(grading, depth)
