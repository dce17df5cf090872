"""Command-line front end and verification drivers.

Commands: construct, grade, verify, suite.  Outputs are the JSON schemas of
the underlying objects; verify exits 0 only when every verdict passes and
the diamond pattern matches the prediction for the selected grading.
Exit codes: 0 full pass, 1 verification failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .cartan import (
    build_albert_frank,
    build_H2_phi1,
    build_H2_phi_tau_derived,
    build_H2_second_derived,
    build_W1n,
    phi1_monomials,
    AlbertFrankSpec,
)
from .errors import ThinlieError
from .ffield import FieldElement, FieldSpec, field_create, frobenius
from .grading import (
    EigenBasis,
    ToralParams,
    eigen_bracket_check,
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
    StructureTable,
    Subspace,
    center,
    derived_subalgebra,
    quotient_by_ideal,
    subalgebra_generated,
    subalgebra_table,
    validate_table,
)
from .thinloop import INFINITY, ThinReport, thin_report


def _resolve_depth(depth: int | None, modulus: int) -> int:
    """The given depth, else THINLOOP_DEPTH, else three grading periods;
    a depth below one is a configuration error, never replaced."""
    if depth is None:
        env = os.environ.get("THINLOOP_DEPTH")
        depth = int(env) if env else 3 * modulus
    if depth < 1:
        raise ThinlieError(f"expansion depth must be positive, got {depth}")
    return depth


# ---------------------------------------------------------------------------
# verification drivers
# ---------------------------------------------------------------------------

@dataclass
class VerifyRun:
    """A thin report together with its deviations from the predicted pattern."""

    report: ThinReport
    mismatches: list[str]
    params: ToralParams | None = None

    @property
    def ok(self) -> bool:
        return self.report.ok and not self.mismatches

    def to_json(self) -> dict:
        out = self.report.to_json()
        out["pattern_mismatches"] = self.mismatches
        out["verdict"] = "PASS" if self.ok else "FAIL"
        return out


def _check_common(report: ThinReport, mismatches: list[str]) -> None:
    if not report.covering.ok:
        mismatches.append(f"covering fails at {report.covering.failures}")
    if report.anomalies:
        mismatches.append("anomalies: " + "; ".join(report.anomalies))
    if report.nondiamond_slots:
        mismatches.append(f"slots without a diamond relation: {report.nondiamond_slots}")


def _check_progression(
    report: ThinReport,
    step: FieldElement,
    mismatches: list[str],
    char_two_fake1: bool = False,
) -> None:
    """Diamond types must follow mu_t = -1 + (t-2)*step; types 0/1 are fakes."""
    fieldspec = step.spec
    one = fieldspec.one
    for rec in report.diamonds:
        if rec.ordinal == 1:
            continue
        mu = -one + fieldspec.element(rec.ordinal - 2) * step
        if char_two_fake1 and rec.ordinal % 2 == 0:
            # even slots carry the fake second-diamond type -1 = 1
            if rec.kind != "fake1":
                mismatches.append(f"slot {rec.degree}: expected fake1, got {rec.kind}")
            continue
        if not mu:
            if rec.kind != "fake0":
                mismatches.append(f"slot {rec.degree}: expected fake0, got {rec.kind}/{rec.type}")
        elif mu == one:
            if rec.kind != "fake1":
                mismatches.append(f"slot {rec.degree}: expected fake1, got {rec.kind}/{rec.type}")
        else:
            if rec.kind != "genuine" or rec.type != mu:
                mismatches.append(
                    f"slot {rec.degree}: expected genuine type {mu}, got {rec.kind}/{rec.type}"
                )


def run_mixed(p: int, n1: int, n2: int, depth: int | None = None) -> VerifyRun:
    """Loop algebra of H(2;n;Phi(1)) under the monomial-degree grading.

    Predicted pattern: diamonds in every degree congruent to 1 mod (q-1);
    type -1 exactly in degrees congruent to q mod (q-1)r (fake in
    characteristic two), type infinity elsewhere.
    """
    q, r = p ** n2, p ** n1
    modulus = (q - 1) * r
    depth = _resolve_depth(depth, modulus)
    fieldspec = field_create(p)
    table = build_H2_phi1(p, n1, n2, fieldspec, 1)
    dm = grade_mixed(table, q, r)
    mons = phi1_monomials(p, n1, n2)
    index = {m: i for i, m in enumerate(mons)}
    x_pos, y_pos = index[(1, 0)], index[(0, q - 1)]
    if p == 2:
        derived = derived_subalgebra(table, table.full_subspace())
        keep = sorted(derived.pivots)
        corner = index[(r - 1, q - 1)]
        if derived.dim != table.dim - 1 or corner in keep:
            raise ThinlieError("characteristic-two derived subalgebra has unexpected shape")
        table = subalgebra_table(table, [table.basis_element(i) for i in keep])
        dm = dm.restrict(keep)
        x_pos, y_pos = keep.index(x_pos), keep.index(y_pos)
    rep = thin_report(
        table, dm, q, depth, X=table.basis_element(x_pos), Y=table.basis_element(y_pos)
    )
    mismatches: list[str] = []
    _check_common(rep, mismatches)
    if not rep.coincidence:
        mismatches.append("loop algebra does not exhaust the graded components")
    minus_one = -fieldspec.one
    for rec in rep.diamonds:
        if rec.ordinal == 1:
            continue
        if rec.degree % modulus == q % modulus:
            if p == 2:
                if rec.kind != "fake1":
                    mismatches.append(f"slot {rec.degree}: expected fake1, got {rec.kind}")
            elif rec.kind != "genuine" or rec.type != minus_one:
                mismatches.append(f"slot {rec.degree}: expected type -1, got {rec.kind}/{rec.type}")
        else:
            if rec.kind != "genuine" or rec.type is not INFINITY:
                mismatches.append(
                    f"slot {rec.degree}: expected type infinity, got {rec.kind}/{rec.type}"
                )
    return VerifyRun(rep, mismatches)


def _finite_setup(
    basis: EigenBasis,
) -> tuple[StructureTable, DegreeMap, int, int]:
    """Eigen table, degree map and generator positions; in characteristic two
    restrict to the derived subalgebra by dropping e[2-q, 0]."""
    et = basis.eigen_table
    dm = grade_finite(basis)
    x_pos, y_pos = generator_positions(basis)
    if basis.params.p != 2:
        return et, dm, x_pos, y_pos
    q = basis.q
    drop = basis.position(2 - q, 0)
    keep = [i for i in range(et.dim) if i != drop]
    sub = subalgebra_table(et, [et.basis_element(i) for i in keep])
    return sub, dm.restrict(keep), keep.index(x_pos), keep.index(y_pos)


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
    field; in characteristic two the even slots are fake of type 1.
    """
    q = p ** n2
    if mu3 is not None:
        params = params_from_mu3(mu3)
        fieldspec = mu3.spec
    else:
        if sigma is None or field is None:
            raise ThinlieError("run_finite needs either mu3 or (field, sigma[, rho])")
        fieldspec = field
        params = toral_params(fieldspec, sigma, eps=1, rho=rho)
    depth = _resolve_depth(depth, (q - 1) * p)
    table = build_H2_phi1(p, 1, n2, fieldspec, 1)
    basis = eigenbasis(table, params)
    mismatches: list[str] = []
    if not eigen_bracket_check(basis):
        mismatches.append("eigenbasis products disagree with the closed formula")
    sub, dm, x_pos, y_pos = _finite_setup(basis)
    rep = thin_report(sub, dm, q, depth, X=sub.basis_element(x_pos), Y=sub.basis_element(y_pos))
    _check_common(rep, mismatches)
    if not rep.coincidence:
        mismatches.append("loop algebra does not exhaust the graded components")
    step = params.sigma / params.rho
    _check_progression(rep, step, mismatches, char_two_fake1=(p == 2))
    # second-diamond certificate: [V,Y,X] = -2 [V,X,Y]
    gens = rep.generators
    if not (gens.vxx_zero and gens.vyy_zero):
        mismatches.append("second-diamond relations [V,X,X] = 0 = [V,Y,Y] fail")
    if gens.c_xy is None or gens.c_yx != fieldspec.element(-2) * gens.c_xy:
        mismatches.append("second-diamond relation [V,Y,X] = -2[V,X,Y] fails")
    if not rep.chains.first_ok:
        mismatches.append("first centralizer chain is not <Y>")
    if q > 3 and rep.k != q:
        mismatches.append(f"parameter k = {rep.k}, expected {q}")
    return VerifyRun(rep, mismatches, params)


def run_sigma_zero(p: int, n2: int, depth: int | None = None) -> VerifyRun:
    """The sigma = 0 degeneration: X and Y generate a q-dimensional
    Zassenhaus subalgebra whose loop algebra has all diamonds of type -1."""
    q = p ** n2
    depth = _resolve_depth(depth, q - 1)
    fieldspec = field_create(p)
    params = toral_params(fieldspec, 0, eps=1)  # rho = 1
    table = build_H2_phi1(p, 1, n2, fieldspec, 1)
    basis = eigenbasis(table, params)
    sub, dm, x_pos, y_pos = sigma_zero_subalgebra(basis)
    mismatches: list[str] = []
    generated = subalgebra_generated(table, [basis.vectors[x_pos], basis.vectors[y_pos]])
    if generated.dim != q:
        mismatches.append(f"generated subalgebra has dim {generated.dim}, expected {q}")
    rep = thin_report(sub, dm, q, depth, X=sub.basis_element(x_pos), Y=sub.basis_element(y_pos))
    _check_common(rep, mismatches)
    minus_one = -fieldspec.one
    for rec in rep.diamonds:
        if rec.ordinal > 1 and (rec.kind != "genuine" or rec.type != minus_one):
            mismatches.append(f"slot {rec.degree}: expected type -1, got {rec.kind}/{rec.type}")
    return VerifyRun(rep, mismatches, params)


def run_eps_zero(p: int, n2: int, ratio: int, depth: int | None = None) -> VerifyRun:
    """The eps = 0 deformation limit: the center quotient of the loop algebra
    of the central extension, with prime-field progression step sigma/rho and
    fake diamonds exactly where the progression passes through 0 or 1."""
    q = p ** n2
    ratio %= p
    if ratio == 0 or ratio == p - 1:
        raise ThinlieError("the ratio sigma/rho must be a nonzero element other than -1")
    depth = _resolve_depth(depth, (q - 1) * p)
    fieldspec = field_create(p)
    hhat = build_H2_phi1(p, 1, n2, fieldspec, 0)
    mismatches: list[str] = []
    cent = center(hhat, hhat.full_subspace())
    mons = phi1_monomials(p, 1, n2)
    const_pos = mons.index((0, 0))
    if cent.dim != 1 or not cent.contains(hhat.basis_element(const_pos)):
        mismatches.append("center of the eps = 0 extension is not the constant line")
    params = ToralParams(fieldspec.element(ratio), fieldspec.one, fieldspec.zero)
    basis = eigenbasis(hhat, params)
    if not eigen_bracket_check(basis):
        mismatches.append("eigenbasis products disagree with the closed formula")
    et = basis.eigen_table
    dm = grade_finite(basis)
    central = next(
        m for m, (r, _, alpha) in enumerate(basis.entries) if r == 1 and not alpha
    )
    if basis.vectors[central] != hhat.basis_element(const_pos):
        mismatches.append("e[1,0] is not the constant monomial")
    quotient = quotient_by_ideal(et, Subspace.from_elements(et, [et.basis_element(central)]))
    keep = [i for i in range(et.dim) if i != central]
    dmq = dm.restrict(keep)
    x_pos, y_pos = generator_positions(basis)
    x_pos, y_pos = keep.index(x_pos), keep.index(y_pos)
    rep = thin_report(
        quotient, dmq, q, depth, X=quotient.basis_element(x_pos), Y=quotient.basis_element(y_pos)
    )
    _check_common(rep, mismatches)
    _check_progression(rep, params.sigma / params.rho, mismatches)
    return VerifyRun(rep, mismatches, params)


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _parse_scalar(fieldspec: FieldSpec, literal: str) -> FieldElement:
    """Field-element literal: comma-separated coordinates 'a0,a1,...'."""
    return fieldspec.element([int(tok) for tok in literal.split(",")])


def _make_field(args) -> FieldSpec:
    k = getattr(args, "field_k", None) or 1
    modulus = getattr(args, "field_modulus", None)
    if modulus:
        return field_create(args.p, k, [int(c) for c in modulus.split(",")])
    return field_create(args.p, k)


def _write_out(args, payload: dict) -> None:
    text = json.dumps(payload, indent=2)
    if getattr(args, "out", None):
        tmp = args.out + ".tmp"
        with open(tmp, "w") as fh:
            fh.write(text + "\n")
        os.replace(tmp, args.out)
    else:
        print(text)


def _construct_table(args) -> StructureTable:
    name = args.algebra
    if name == "W":
        return build_W1n(args.p, args.n, _make_field(args) if args.field_k else None)
    if name == "Hsecond":
        return build_H2_second_derived(args.p, args.n1, args.n2)
    if name == "Hphitau":
        return build_H2_phi_tau_derived(args.p, args.n1, args.n2)
    if name == "Hphi1":
        fieldspec = _make_field(args)
        eps = _parse_scalar(fieldspec, args.eps) if args.eps else fieldspec.one
        return build_H2_phi1(args.p, args.n1, args.n2, fieldspec, eps)
    if name == "AF":
        fieldspec = _make_field(args)
        group = tuple(fieldspec.elements())
        if args.theta == "frobenius-id":
            theta = {a: frobenius(a) - a for a in group}
        else:
            theta = {a: fieldspec.zero for a in group}
        return build_albert_frank(AlbertFrankSpec(group, theta))
    raise ThinlieError(f"unknown algebra {name!r}")


def cmd_construct(args) -> int:
    table = _construct_table(args)
    report = validate_table(table)
    print(f"dimension: {table.dim}")
    print(f"Jacobi: {'PASS' if report.ok else 'FAIL'}")
    _write_out(args, table.to_json())
    return 0 if report.ok else 1


def cmd_grade(args) -> int:
    q, r = args.p ** args.n2, args.p ** args.n1
    if args.grading == "mixed":
        table = build_H2_phi1(args.p, args.n1, args.n2, field_create(args.p), 1)
        dm = grade_mixed(table, q, r)
    else:
        if args.n1 != 1:
            raise ThinlieError("grading=finite requires n1 = 1")
        fieldspec = _make_field(args)
        if args.mu3:
            params = params_from_mu3(_parse_scalar(fieldspec, args.mu3))
            fieldspec = params.field
        else:
            sigma = _parse_scalar(fieldspec, args.sigma) if args.sigma else fieldspec.one
            rho = _parse_scalar(fieldspec, args.rho) if args.rho else None
            params = toral_params(fieldspec, sigma, eps=1, rho=rho)
        table = build_H2_phi1(args.p, 1, args.n2, fieldspec, 1)
        basis = eigenbasis(table, params)
        dm = grade_finite(basis)
    _write_out(args, dm.to_json())
    print(f"modulus: {dm.modulus}")
    return 0


def cmd_verify(args) -> int:
    depth = args.depth
    if args.grading == "mixed":
        run = run_mixed(args.p, args.n1, args.n2, depth)
    elif args.grading == "finite":
        n2 = _log_base(args.q, args.p)
        if args.mu3:
            k = getattr(args, "field_k", None) or 2
            fieldspec = field_create(args.p, k)
            run = run_finite(args.p, n2, mu3=_parse_scalar(fieldspec, args.mu3), depth=depth)
        else:
            if not args.sigma:
                raise ThinlieError("grading=finite needs --mu3 or --sigma")
            fieldspec = _make_field(args)
            sigma = _parse_scalar(fieldspec, args.sigma)
            rho = _parse_scalar(fieldspec, args.rho) if args.rho else None
            run = run_finite(args.p, n2, sigma=sigma, rho=rho, field=fieldspec, depth=depth)
    elif args.grading == "sigma-zero":
        run = run_sigma_zero(args.p, _log_base(args.q, args.p), depth)
    elif args.grading == "eps-zero":
        if args.ratio is None:
            raise ThinlieError("--ratio is required for eps-zero runs")
        run = run_eps_zero(args.p, _log_base(args.q, args.p), args.ratio, depth)
    else:
        raise ThinlieError(f"unknown grading {args.grading!r}")
    _write_out(args, run.to_json())
    if run.ok:
        print("verdict: PASS")
        return 0
    print("verdict: FAIL")
    for m in run.mismatches:
        print("  " + m)
    return 1


def _log_base(q: int | None, p: int) -> int:
    if not q:
        raise ThinlieError("--q is required for the toral gradings")
    n = 0
    m = q
    while m > 1:
        if m % p:
            raise ThinlieError(f"{q} is not a power of {p}")
        m //= p
        n += 1
    if n == 0:
        raise ThinlieError(f"{q} is not a power of {p}")
    return n


def cmd_suite(args) -> int:
    from .suite import CRITERIA

    names = [name for name, _ in CRITERIA]
    if args.only:
        selected = [n for n in names if args.only in n]
        if not selected:
            print(f"no suite row matches {args.only!r}; rows: {', '.join(names)}")
            return 2
    else:
        selected = names
    failed = []
    for name, fn in CRITERIA:
        if name not in selected:
            continue
        try:
            fn()
            print(f"{name}: PASS")
        except Exception as exc:  # report, do not abort the matrix
            failed.append(name)
            print(f"{name}: FAIL ({exc})")
    return 0 if not failed else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thinlie",
        description="construct modular Lie algebras, grade them, and verify thin loop algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a structure table and validate it")
    c.add_argument("--algebra", required=True, choices=["W", "Hsecond", "Hphitau", "Hphi1", "AF"])
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--n", type=int, default=1, help="height for W")
    c.add_argument("--n1", type=int, default=1)
    c.add_argument("--n2", type=int, default=1)
    c.add_argument("--eps", help="field element literal a0,a1,...")
    c.add_argument("--field-k", type=int, dest="field_k")
    c.add_argument("--field-modulus", dest="field_modulus")
    c.add_argument("--theta", default="zero", choices=["zero", "frobenius-id"])
    c.add_argument("--out")
    c.set_defaults(func=cmd_construct)

    g = sub.add_parser("grade", help="emit a degree map for a grading")
    g.add_argument("--grading", required=True, choices=["mixed", "finite"])
    g.add_argument("--p", type=int, required=True)
    g.add_argument("--n1", type=int, default=1)
    g.add_argument("--n2", type=int, default=1)
    g.add_argument("--mu3")
    g.add_argument("--sigma")
    g.add_argument("--rho")
    g.add_argument("--field-k", type=int, dest="field_k")
    g.add_argument("--field-modulus", dest="field_modulus")
    g.add_argument("--out")
    g.set_defaults(func=cmd_grade)

    v = sub.add_parser("verify", help="run a thin report and check the predicted pattern")
    v.add_argument("--grading", required=True, choices=["mixed", "finite", "sigma-zero", "eps-zero"])
    v.add_argument("--p", type=int, required=True)
    v.add_argument("--n1", type=int, default=1)
    v.add_argument("--n2", type=int, default=1)
    v.add_argument("--q", type=int, help="p^n2, for the toral gradings")
    v.add_argument("--mu3", help="third-diamond type literal a0,a1,...")
    v.add_argument("--sigma")
    v.add_argument("--rho")
    v.add_argument("--ratio", type=int, help="sigma/rho in F_p for eps-zero runs")
    v.add_argument("--field-k", type=int, dest="field_k")
    v.add_argument("--field-modulus", dest="field_modulus")
    v.add_argument("--depth", type=int)
    v.add_argument("--out")
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("suite", help="run the acceptance matrix")
    s.add_argument("--only", help="substring filter on row names")
    s.set_defaults(func=cmd_suite)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ThinlieError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
