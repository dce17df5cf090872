"""Verification drivers: each run_* builds a Grading record and _verify
checks its thin report against the predicted diamond types.  A predicted
type 0 means a fake0, 1 a fake1, anything else a genuine diamond of that
type; so characteristic two, where -1 = 1, needs no case of its own.
`thinlie grade` writes the degree map of the Grading of mixed_grading or
finite_grading, taken before any restriction in characteristic two.

A toral run (finite, sigma-zero, eps-zero) is about the loop algebra of
the Albert-Zassenhaus algebra AZ(sigma, rho), read by rule and proved Lie
by the run, with no monomial table; identify (suite row 11) proves this
rule the table of H(2;(1,n2);Phi(1)) in the eigenbasis of its toral
element.  A mixed run reads the Phi(1) rule and proves it Lie nowhere:
`thinlie construct` and suite row 02 do.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from typing import Callable

from .cartan import build_H2_phi1, phi1_rule_table
from .errors import StructuralFailure, ThinlieError
from .ffield import FieldElement, field_create
from .grading import (
    EigenBasis, ToralParams, _generators, eigen_quotient, eigenbasis, generator_positions, grade_finite,
    grade_mixed, params_from_mu3, sigma_zero_subalgebra, toral_element, toral_params,
)
from .liealg import (
    DegreeMap, Element, MapCheck, StructureTable, _gc_paused, _intertwining, _ReachedSpan, center, validate_table,
)
from .thinloop import INFINITY, DiamondRecord, ThinReport, thin_report


SIGMA_ZERO = (
    "sigma = 0 leaves one eigenvalue per slice and so no finite grading: "
    "see verify --grading sigma-zero"
)


class Unproved(Exception):
    """A failed eigen-table certificate; its one arg is the mismatch."""


@dataclass
class VerifyRun:
    """A thin report together with its deviations from the predicted pattern;
    no report when a failed eigen-table certificate or a structural failure
    inside the thin report stopped the run."""

    report: ThinReport | None
    mismatches: list[str]

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
    requires M_{N+1} = M_1; certificate adds the second-diamond relation
    [V,Y,X] = -2[V,X,Y], the first centralizer chain and k = q (for q > 3);
    drop is the basis vector outside L' where characteristic two restricts."""

    table: StructureTable
    degmap: DegreeMap
    q: int
    x_pos: int
    y_pos: int
    predicted: Callable[[DiamondRecord], object]
    mismatches: list[str] = dc_field(default_factory=list)
    coincidence: bool = False
    certificate: bool = False
    drop: int | None = None


def _precheck(q: int, depth: int | None) -> None:
    """Reject before any work q = 2, whose second diamond would sit in degree
    2, and a depth below one (None is thin_report's default depth)."""
    if q == 2:
        raise ThinlieError(
            "q = 2 is outside the class: a second diamond in degree 2 needs dim L_2 = 2, "
            "but L_2 = [L_1, L_1] is at most 1-dimensional"
        )
    if depth is not None and depth < 1:
        raise ThinlieError(f"expansion depth must be positive, got {depth}")


def _expected(mu) -> tuple[str, object]:
    """Kind and type of a diamond predicted to have type mu."""
    if mu is not INFINITY:
        if not mu:
            return "fake0", None
        if mu == mu.spec.one:
            return "fake1", None
    return "genuine", mu


def _verify(depth: int | None, grading: Callable[[], Grading]) -> VerifyRun:
    """Build the Grading and check its thin report against the prediction;
    a failed eigen-table certificate stops the run with no report."""
    try:
        g = grading()
    except Unproved as exc:
        return VerifyRun(None, list(exc.args))
    mismatches = g.mismatches
    x, y = g.table.basis_element(g.x_pos), g.table.basis_element(g.y_pos)
    try:
        rep = thin_report(g.table, g.degmap, g.q, depth, X=x, Y=y)
    except StructuralFailure as exc:
        mismatches.append(f"{type(exc).__name__} at degree {exc.degree}: {exc}")
        return VerifyRun(None, mismatches)
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
        if gens.c_xy is None or gens.c_yx != g.table.field.element(-2) * gens.c_xy:
            mismatches.append("second-diamond relation [V,Y,X] = -2[V,X,Y] fails")
        if not rep.chains.first_ok:
            mismatches.append("first centralizer chain is not <Y>")
        if g.q > 3 and rep.k != g.q:
            mismatches.append(f"parameter k = {rep.k}, expected {g.q}")
    return VerifyRun(rep, mismatches)


def _reindexed(g: Grading, drop: int, table: StructureTable) -> Grading:
    """g moved onto table, whose basis is that of g.table without the
    position drop: the degrees restricted, X and Y renumbered."""
    keep = [i for i in range(g.table.dim) if i != drop]
    return replace(
        g, table=table, degmap=g.degmap.restrict(keep),
        x_pos=keep.index(g.x_pos), y_pos=keep.index(g.y_pos), drop=None,
    )


def _derived_in_char_two(g: Grading) -> Grading:
    """In characteristic two, g on L', which must be spanned by every basis
    vector but g.drop, proved on the rule (RuleBrackets.derived_is_all_but)
    and read as its view without b_drop; else g."""
    t = g.table
    if t.field.p != 2:
        return g
    if not t.brackets.derived_is_all_but(g.drop):
        raise ThinlieError("characteristic-two derived subalgebra has unexpected shape")
    return _reindexed(g, g.drop, t.without(g.drop))


def mixed_grading(p: int, n1: int, n2: int) -> Grading:
    """H(2;(n1,n2);Phi(1)) over F_p, its products read by rule
    (cartan.Phi1Brackets), under the monomial-degree grading, with
    diamonds predicted in the degrees 1 mod (q-1): of type -1 exactly in the
    degrees q mod (q-1)r, else of type infinity.  In characteristic two L'
    lacks only the last monomial, x^(r-1) y^(q-1)."""
    q, r = p ** n2, p ** n1
    modulus = (q - 1) * r
    fieldspec = field_create(p)
    table = phi1_rule_table(p, n1, n2, fieldspec, 1)
    minus_one = -fieldspec.one
    # x^(i)y^(j) sits at i q + j: X = x at q, Y = y^(q-1) at q - 1, the drop last
    return Grading(
        table, grade_mixed(table, q, r), q, q, q - 1,
        lambda rec: minus_one if rec.degree % modulus == q % modulus else INFINITY,
        coincidence=True, drop=r * q - 1,
    )


def toral_grading(p: int, n2: int, params: ToralParams) -> tuple[Grading, EigenBasis]:
    """AZ(sigma, rho) on the q = p^n2 slices of eigenbasis(params, q), once
    its certificate proves the rule table Lie (else Unproved), under the
    finite grading, or for sigma = 0 the slice grading of the Zassenhaus
    algebra; types mu_t = -1 + (t-2) sigma/rho.  No monomial table is
    built: identify links the rule to H(2;(1,n2);Phi(1))."""
    basis = eigenbasis(params, p ** n2)
    if not basis.certificate:
        raise Unproved(f"eigen table certificate: {basis.certificate}")
    gens = generator_positions(basis)
    degmap = grade_finite(basis) if params.sigma else sigma_zero_subalgebra(basis)
    fieldspec, step = params.field, params.sigma / params.rho
    predicted = lambda rec: -fieldspec.one + fieldspec.element(rec.ordinal - 2) * step
    return Grading(basis.eigen_table, degmap, basis.q, *gens, predicted), basis


def finite_grading(p: int, n2: int, params: ToralParams) -> Grading:
    """toral_grading for eps = 1 and sigma != 0, where the loop algebra
    exhausts the components and the certificate checks apply.  In
    characteristic two L' lacks only e[2-q, 0]."""
    if not params.sigma:
        raise ThinlieError(SIGMA_ZERO)
    g, basis = toral_grading(p, n2, params)
    return replace(g, coincidence=True, certificate=True, drop=basis.position(2 - g.q, 0))


def run_mixed(p: int, n1: int, n2: int, depth: int | None = None) -> VerifyRun:
    """Loop algebra of mixed_grading, in characteristic two (where type -1
    is a fake) inside the derived subalgebra."""
    _precheck(p ** n2, depth)
    return _verify(depth, lambda: _derived_in_char_two(mixed_grading(p, n1, n2)))


def run_finite(
    p: int,
    n2: int,
    mu3: FieldElement | None = None,
    params: ToralParams | None = None,
    depth: int | None = None,
) -> VerifyRun:
    """Loop algebra of AZ(sigma, rho) under the toral grading of mu3 or params.

    Predicted pattern: the t-th diamond in degree (t-1)(q-1)+1 of type
    mu_t = -1 + (t-2) sigma/rho, an arithmetic progression outside the prime
    field; in characteristic two the run moves into the derived subalgebra.
    """
    _precheck(p ** n2, depth)
    if mu3 is not None:
        params = params_from_mu3(mu3)
    elif params is None:
        raise ThinlieError("run_finite needs mu3 or params")
    return _verify(depth, lambda: _derived_in_char_two(finite_grading(p, n2, params)))


def run_sigma_zero(p: int, n2: int, depth: int | None = None) -> VerifyRun:
    """The sigma = 0 degeneration: X and Y generate the q-dimensional
    Zassenhaus algebra, the rule on one label per slice, whose loop algebra
    has all diamonds of type -1 (fake in characteristic two, where -1 = 1).
    The eigen-table certificate proves the rule Lie; when its generators
    are X and Y alone, they generate all q dimensions."""
    _precheck(p ** n2, depth)

    def grading() -> Grading:
        g = toral_grading(p, n2, toral_params(field_create(p), 0))[0]  # rho = 1
        rank = _ReachedSpan(g.table, [g.x_pos, g.y_pos]).rank  # the closed table is one-term
        if rank != g.q:
            g.mismatches.append(f"generated subalgebra has dim {rank}, expected {g.q}")
        return g
    return _verify(depth, grading)


def run_eps_zero(p: int, n2: int, ratio: int, depth: int | None = None) -> VerifyRun:
    """The eps = 0 deformation limit: the loop algebra of the rule modulo its
    center e[1,0] (the central extension of H(2;(1,n2);Phi(1)), identify
    shows), with prime-field progression step sigma/rho and fake diamonds
    exactly where the progression passes through 0 or 1."""
    if p == 2:
        raise ThinlieError("eps-zero needs odd p: the only nonzero ratio sigma/rho in F_2 is 1 = -1")
    ratio %= p
    if ratio == 0 or ratio == p - 1:
        raise ThinlieError("the ratio sigma/rho must be a nonzero element other than -1")
    _precheck(p ** n2, depth)
    params = toral_params(field_create(p), ratio, eps=0, rho=1)

    def grading() -> Grading:
        g, basis = toral_grading(p, n2, params)
        central = _central(basis)
        return _reindexed(g, central, eigen_quotient(basis, central))
    return _verify(depth, grading)


def _central(basis: EigenBasis) -> int:
    """The position of e[1,0], which spans the center of the rule table."""
    return next(m for m, (r, _, alpha) in enumerate(basis.entries) if r == 1 and not alpha)


def identify(p: int, n2: int, params: ToralParams) -> list[str]:
    """The mismatches of the identification of the rule table of
    eigenbasis(params, p^n2) with H(2;(1,n2);Phi(1)) at params.eps in the
    eigenbasis of e_0, in order: for eps = 0 the center is the constant line
    <b_0> (a table center cannot read is a mismatch) and e[1,0] maps to b_0;
    phi: e[r, alpha] -> its eigenvector passes _identified; last, as a
    failing table may cost a scan of every triple, validate_table proves
    the monomial table Lie, which _identified needs."""
    table = build_H2_phi1(p, 1, n2, params.field, params.eps)
    basis = eigenbasis(params, p ** n2)
    vectors = _eigenvectors(basis, table)
    mismatches = []
    if not params.eps:
        try:
            if center(table) != (0,):
                mismatches.append("center of the eps = 0 extension is not the constant line")
        except ValueError as exc:  # a table the center is not read off
            mismatches.append(f"center of the eps = 0 extension: {exc}")
        if vectors[_central(basis)] != table.basis_element(0):
            mismatches.append("e[1,0] is not the constant monomial")
    check = _identified(basis, table, vectors)
    if not check:
        return mismatches + [f"eigen table certificate: {check}"]
    report = validate_table(table, 1)
    if report.violations:
        triple = ", ".join(table.labels[m] for m in report.violations[0])
        mismatches.append(f"validate_table: the Jacobi identity fails on the monomial table at ({triple})")
    elif not report:
        mismatches.append(f"validate_table: {report.messages[0]}")
    return mismatches


def _eigenvectors(basis: EigenBasis, table: StructureTable) -> list[Element]:
    """The eigenvector of each e[r, alpha] in the monomial table, x^(i) y^(j)
    at i q + j: alpha^i at x^(i) y^(1-r), i < p, 0^0 = 1, plus pi (1-r) at
    i = p - 1."""
    p, q, pi = basis.params.p, basis.q, basis.params.pi
    vectors = []
    for r, _, alpha in basis.entries:
        coords = {i * q + 1 - r: alpha ** i for i in range(p)}
        coords[(p - 1) * q + 1 - r] += pi * (1 - r)
        vectors.append(Element(table, {k: c for k, c in coords.items() if c}))
    return vectors


def _identified(basis: EigenBasis, table: StructureTable, vectors: list[Element]) -> MapCheck:
    """Certify phi: e[r, alpha] -> vectors[m] an injective homomorphism into
    the monomial table, from the generators gens of grading._generators:
    rank (slice j's vectors are Vandermonde columns (alpha^i)_{i < p} after
    one row operation, on disjoint supports, so the rank counts the distinct
    (r, alpha)); eigen-equation (phi(e[0,0]) = e_0, and the rule's row of
    e[0,0] is diagonal); intertwining (phi[g, b] = [phi g, phi b], g in
    gens); derivation (basis.certificate).  On a Lie monomial table the
    elements with the last two properties are closed under each ad g and
    hold gens, hence all: [e_0, phi b] = phi [e[0,0], b] = alpha_b phi b."""
    et = basis.eigen_table
    rank = len({(r, alpha) for r, _, alpha in basis.entries})
    if rank != et.dim:
        return MapCheck("rank", f"the images span {rank} of {et.dim} dimensions")
    e00 = basis.position(0, 0)
    if vectors[e00] != toral_element(table, basis.params):
        return MapCheck("eigen-equation", f"{et.labels[e00]} does not map to e_0")
    for m, (_, _, alpha) in enumerate(basis.entries):
        if et.basis_bracket(e00, m) != (((m, alpha),) if alpha else ()):
            return MapCheck("eigen-equation", f"[{et.labels[e00]}, {et.labels[m]}]")
    with _gc_paused():  # the intertwining builds nothing cyclic
        check = _intertwining(et, table, [v.coords for v in vectors], _generators(basis))
    return basis.certificate if check else check
