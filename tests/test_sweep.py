"""Sweep of the gradings through the command line: every input inside the
accepted range exits 0, every input just outside it exits 2, and none
exits 3.

Inside: finite at p = 2, 3, 5 for every q with dim = pq <= 125 and every mu3
in F_{p^2} \\ F_p, and at p = 7 for a fixed sample of mu3; eps-zero at
p = 3, 5, 7 for every ratio, and at p = 3 with q = 9; sigma-zero at p <= 7;
mixed for every (p, n1, n2) with dim = p^(n1+n2) <= 125, except n2 = 1 at
p = 2.
Outside: mu3 in the prime field, the ratios 0 and -1, eps-zero at p = 2 and
q = 2, mixed with n1 = 0 or n2 = 0, and mixed at p = 2 with n2 = 1.
No thinlie module binds a name Echelon or subalgebra_table: no path
eliminates.  With the whole-table build of a rule
(liealg.RuleBrackets._build), cartan.build_H2_phi1, grading.toral_element,
liealg._intertwining and liealg.center made to raise, every input inside
still passes with the same JSON: no input reads a whole rule table or a
monomial table; characteristic two included, where the derived
subalgebra is proved on the rule.
"""

import importlib
import pkgutil
import sys

import pytest

from thinlie import cli
from thinlie.ffield import field_create, in_prime_field


def _literal(a) -> str:
    return ",".join(str(c) for c in a.to_json())


def _mu3_literals(p, prime_field):
    return [_literal(a) for a in field_create(p, 2).elements() if in_prime_field(a) == prime_field]


def _finite(p, q, mu3):
    return ["--grading", "finite", "--p", str(p), "--q", str(q), "--mu3", mu3]


def _eps_zero(p, q, ratio):
    return ["--grading", "eps-zero", "--p", str(p), "--q", str(q), "--ratio", str(ratio)]


def _sigma_zero(p, q):
    return ["--grading", "sigma-zero", "--p", str(p), "--q", str(q)]


def _mixed(p, n1, n2):
    return ["--grading", "mixed", "--p", str(p), "--n1", str(n1), "--n2", str(n2)]


# (p, n1, n2) of every accepted mixed input: dim p^(n1+n2) <= 125, no n2 = 1 at p = 2
MIXED_INPUTS = [
    (p, n1, n2) for p in (2, 3, 5, 7) for n1 in range(1, 5) for n2 in range(1, 6)
    if p ** (n1 + n2) <= 125 and (p, n2) != (2, 1)
]

# (p, q) of every accepted sigma-zero input
SIGMA_ZERO_INPUTS = [(2, 4), (2, 8), (3, 3), (3, 9), (5, 5), (7, 7)]

ACCEPTED = (
    [_finite(p, q, m) for p, qs in ((2, (4, 8, 16, 32)), (3, (3, 9, 27)), (5, (5, 25)))
     for q in qs for m in _mu3_literals(p, False)]
    + [_finite(7, 7, m) for m in _mu3_literals(7, False)[::7]]
    + [_eps_zero(p, p, ratio) for p in (3, 5, 7) for ratio in range(1, p - 1)]
    + [_eps_zero(3, 9, 1)]
    + [_sigma_zero(p, q) for p, q in SIGMA_ZERO_INPUTS]
    + [_mixed(*args) for args in MIXED_INPUTS]
)

REJECTED = (
    [_finite(p, p, m) for p in (3, 5, 7) for m in _mu3_literals(p, True)]
    + [_finite(2, 4, m) for m in _mu3_literals(2, True)]
    + [_eps_zero(p, p, ratio) for p in (3, 5, 7) for ratio in (0, -1)]
    + [_eps_zero(2, 4, 1)]
    + [_finite(2, 2, "0,1"), _sigma_zero(2, 2), _mixed(2, 1, 1)]
    + [_mixed(3, 0, 1), _mixed(3, 1, 0), _mixed(2, 2, 1), _mixed(2, 3, 1)]
)


def _id(args):
    return "-".join(a.lstrip("-") for a in args[1:])


@pytest.mark.parametrize("args", ACCEPTED, ids=_id)
def test_accepted_input_passes(args, capsys):
    code = cli.main(["verify"] + args)
    out, err = capsys.readouterr()
    assert code == 0, (out[-500:], err[-500:])


@pytest.mark.parametrize("args", REJECTED, ids=_id)
def test_input_outside_the_range_is_rejected(args, capsys):
    code = cli.main(["verify"] + args)
    err = capsys.readouterr().err
    assert code == 2, err[-500:]
    assert "internal error" not in err


def _raising(monkeypatch, fn):
    """fn made to raise under every name a thinlie module binds it to."""
    def unused(*args, **kwargs):
        raise AssertionError(f"{fn.__name__} on a verify path")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "thinlie":
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, unused)


def test_accepted_inputs_need_no_echelon(tmp_path, monkeypatch, capsys):
    # no elimination anywhere: no thinlie module binds Echelon or
    # subalgebra_table; and no run reads a whole rule table
    # (RuleBrackets._build), in characteristic two neither, where L' is
    # proved on the rule, or a monomial table: the toral runs are on the
    # Albert-Zassenhaus rule alone, with no build_H2_phi1, toral_element,
    # intertwining or center; every accepted input still passes with them
    # raising, and writes the same JSON
    import thinlie
    from thinlie import cartan, grading, liealg

    modules = [thinlie] + [importlib.import_module(f"thinlie.{m.name}") for m in pkgutil.iter_modules(thinlie.__path__)]
    assert [(m.__name__, name) for m in modules for name in ("Echelon", "subalgebra_table") if hasattr(m, name)] == []

    def whole(*args):
        raise AssertionError("a whole rule table on a verify path")

    unused = [cartan.build_H2_phi1, grading.toral_element, liealg._intertwining, liealg.center]
    outputs = []
    for patched in (False, True):
        texts = []
        for args in ACCEPTED:
            with monkeypatch.context() as m:
                if patched:
                    for fn in unused:
                        _raising(m, fn)
                    m.setattr(liealg.RuleBrackets, "_build", whole)
                out = tmp_path / "run.json"
                assert cli.main(["verify", "--out", str(out)] + args) == 0, (args, capsys.readouterr().err[-500:])
            texts.append(out.read_text())
        outputs.append(texts)
    assert outputs[0] == outputs[1]
