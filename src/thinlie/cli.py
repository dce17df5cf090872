"""Command-line front end: argument parsing and the command functions.

Commands: construct, grade, verify, suite.  Outputs are the JSON schemas of
the underlying objects; verify runs the drivers of thinlie.verify and exits
0 only when every verdict passes and the diamond pattern matches the
prediction for the selected grading; grade --grading finite exits 1 on a
failed eigen-table certificate, and grade prints no degree map that fails
validate_grading (exit 2, as verify through loop_expand, which also
rejects a table that is not one-term).  --n1, --n2 and
--field-k must be positive; a flag the selected algebra or grading never
reads, even one with a default (--n, --n1, --n2, --theta), and sigma = 0
for a finite grading, are rejected.  Exit codes: 0 full pass, 1
verification failure, 2 configuration error, 3 internal error (an
unexpected exception, reported as `internal error: <Type>: <message>`
after its traceback on stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
import traceback

from .cartan import (
    build_albert_frank,
    build_H2_phi1,
    build_H2_phi_tau_derived,
    build_H2_second_derived,
    build_W1n,
    AlbertFrankSpec,
)
from .errors import ThinlieError
from .ffield import FieldElement, FieldSpec, field_create, frobenius, require_prime
from .grading import ToralParams, params_from_mu3, toral_params
from .liealg import StructureTable, validate_grading, validate_table
# cmd_grade, cmd_verify and perfbench call the drivers through these names
from .verify import Unproved, finite_grading, mixed_grading, run_eps_zero, run_finite, run_mixed, run_sigma_zero

# the optional flags each command reads on each algebra or grading: any
# other one given is rejected; the toral gradings take --n1 only as 1
_FIELD = {"field_k", "field_modulus"}
_N12 = {"n1", "n2"}
_READS = {
    "construct": {
        "W": {"n", *_FIELD}, "Hsecond": _N12, "Hphitau": _N12,
        "Hphi1": {"eps", *_N12, *_FIELD}, "AF": {"theta", *_FIELD},
    },
    "grade": {"mixed": _N12, "finite": {"mu3", "sigma", "rho", *_N12, *_FIELD}},
    "verify": {
        "mixed": _N12, "finite": {"n1", "q", "mu3", "sigma", "rho", *_FIELD},
        "sigma-zero": {"n1", "q"}, "eps-zero": {"n1", "q", "ratio"},
    },
}
# parsed as None so that a given flag can be told from its default, which
# is applied only after the unread-flag check
_DEFAULTS = {"n": 1, "n1": 1, "n2": 1, "theta": "zero"}


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _parse_scalar(fieldspec: FieldSpec, literal: str) -> FieldElement:
    """Field-element literal: comma-separated coordinates 'a0,a1,...'."""
    return fieldspec.element([int(tok) for tok in literal.split(",")])


def _make_field(args, default_k: int = 1) -> FieldSpec:
    k = default_k if args.field_k is None else args.field_k
    modulus = args.field_modulus
    if modulus:
        return field_create(args.p, k, [int(c) for c in modulus.split(",")])
    return field_create(args.p, k)


def _write_out(args, payload: dict) -> None:
    """Print payload, or write it to --out: by os.replace of a temporary file
    when PATH is absent or a regular file, else through PATH (a symlink, a device)."""
    text = json.dumps(payload, indent=2)
    path = getattr(args, "out", None)
    if not path:
        print(text)
        return
    replace = not os.path.lexists(path) or stat.S_ISREG(os.lstat(path).st_mode)
    with open(path + ".tmp" if replace else path, "w") as fh:
        fh.write(text + "\n")
    if replace:
        os.replace(path + ".tmp", path)


def _construct_table(args) -> StructureTable:
    name = args.algebra
    if name == "W":
        if args.field_modulus and args.field_k is None:
            raise ThinlieError("--field-modulus is not read for W without --field-k")
        return build_W1n(args.p, args.n, None if args.field_k is None else _make_field(args))
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


def _toral_params(args) -> ToralParams:
    """sigma, rho from --mu3 (over F_{p^2} unless --field-k says otherwise)
    or from --sigma and an optional --rho."""
    if args.mu3:
        if args.sigma or args.rho:
            raise ThinlieError(f"--{'sigma' if args.sigma else 'rho'} is not read beside --mu3")
        return params_from_mu3(_parse_scalar(_make_field(args, default_k=2), args.mu3))
    if not args.sigma:
        raise ThinlieError("grading=finite needs --mu3 or --sigma")
    fieldspec = _make_field(args)
    sigma = _parse_scalar(fieldspec, args.sigma)
    rho = _parse_scalar(fieldspec, args.rho) if args.rho else None
    return toral_params(fieldspec, sigma, eps=1, rho=rho)


def cmd_grade(args) -> int:
    try:
        if args.grading == "mixed":
            g = mixed_grading(args.p, args.n1, args.n2)
        else:
            g = finite_grading(args.p, args.n2, _toral_params(args))
    except Unproved as exc:
        print(exc.args[-1])
        return 1
    if not validate_grading(g.table, g.degmap):
        raise ValueError("degree map is not compatible with the table")
    _write_out(args, g.degmap.to_json())
    print(f"modulus: {g.degmap.modulus}")
    return 0


def cmd_verify(args) -> int:
    if args.grading == "mixed":
        run = run_mixed(args.p, args.n1, args.n2, args.depth)
    else:
        require_prime(args.p)  # before _log_base, whose loop never ends at p = 1
        n2 = _log_base(args.q, args.p)
        if args.grading == "finite":
            run = run_finite(args.p, n2, params=_toral_params(args), depth=args.depth)
        elif args.grading == "sigma-zero":
            run = run_sigma_zero(args.p, n2, args.depth)
        else:
            if args.ratio is None:
                raise ThinlieError("--ratio is required for eps-zero runs")
            run = run_eps_zero(args.p, n2, args.ratio, args.depth)
    _write_out(args, run.to_json())
    print(f"verdict: {'PASS' if run.ok else 'FAIL'}")
    for m in run.mismatches:
        print("  " + m)
    return 0 if run.ok else 1


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
    c.add_argument("--n", type=int, help="height for W (default 1)")
    c.add_argument("--n1", type=int, help="default 1")
    c.add_argument("--n2", type=int, help="default 1")
    c.add_argument("--eps", help="field element literal a0,a1,...")
    c.add_argument("--field-k", type=int, dest="field_k")
    c.add_argument("--field-modulus", dest="field_modulus")
    c.add_argument("--theta", choices=["zero", "frobenius-id"], help="for AF (default zero)")
    c.add_argument("--out")
    c.set_defaults(func=cmd_construct)

    g = sub.add_parser("grade", help="emit a degree map for a grading")
    g.add_argument("--grading", required=True, choices=["mixed", "finite"])
    g.add_argument("--p", type=int, required=True)
    g.add_argument("--n1", type=int, help="default 1")
    g.add_argument("--n2", type=int, help="default 1")
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
    v.add_argument("--n1", type=int, help="default 1, for mixed")
    v.add_argument("--n2", type=int, help="default 1, for mixed")
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
        for flag in ("n1", "n2", "field_k"):
            value = getattr(args, flag, None)
            if value is not None and value < 1:
                raise ThinlieError(f"--{flag.replace('_', '-')} must be positive, got {value}")
        path = getattr(args, "algebra", None) or getattr(args, "grading", None)
        reads = _READS.get(args.command, {}).get(path, ())
        for flag in (*_DEFAULTS, "q", "mu3", "sigma", "rho", "ratio", "eps", "field_k", "field_modulus"):
            if path and getattr(args, flag, None) is not None and flag not in reads:
                raise ThinlieError(f"--{flag.replace('_', '-')} is not read for {path}")
        if path in ("finite", "sigma-zero", "eps-zero") and args.n1 not in (None, 1):
            raise ThinlieError(f"--n1 {args.n1} is not read for {path}, which takes n1 = 1")
        for flag, value in _DEFAULTS.items():
            if getattr(args, flag, value) is None:
                setattr(args, flag, value)
        return args.func(args)
    except ThinlieError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect, not a verdict: keep it off exit code 1
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
