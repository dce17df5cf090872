"""grading.AZBrackets, the closed Albert-Zassenhaus table read by rule,
against the materialized oracle closed_eigen_table, entry by entry and in
key order; its quotient by a basis line (grading.eigen_quotient) against
oracle_quotient_by_ideal, NotAnIdeal included; and the grid certificate,
certify_eigenbasis, which proves the rule Lie by itself, against the
all-pairs generator certificate (oracle_check_structure_map on the
materialized table), on every finite, sigma-zero and eps-zero input of
test_sweep.  On hypothesis-drawn changes of one entry of the rule's
binomial table, and every such change on the width-one slices of
sigma-zero at q <= 9 and the width-two slices of finite p = 2 at q <= 8,
the grid passes exactly when the changed table is Lie (validate_table),
and the map certificate of verify.identify exactly when it is unchanged:
a change can keep the table Lie, and then only the identification tells
it from the table of H(2;(1,n2);Phi(1)).  A changed binomial of one slice
pair fails the derivation, a changed product of a generator off the grid
the check of the generator rows, and each makes verify exit 1.
"""

import dataclasses
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    closed_eigen_table,
    coordinate_span,
    extend_to_generators,
    monomial_images,
    oracle_check_structure_map,
    oracle_quotient_by_ideal,
)
from test_sweep import ACCEPTED
from thinlie import cli
from thinlie.errors import NotAnIdeal
from thinlie.ffield import field_create
from thinlie.grading import (
    AZBrackets,
    certify_eigenbasis,
    eigen_quotient,
    eigenbasis,
    generator_positions,
    params_from_mu3,
    toral_params,
)
from thinlie.liealg import StructureTable, validate_table
from thinlie.verify import _identified, identify


def _params(args):
    """(p, n2, params) of a finite, sigma-zero or eps-zero verify input."""
    kind, p, q = args[1], int(args[3]), int(args[5])
    n2 = round(math.log(q, p))
    if kind == "finite":
        return p, n2, params_from_mu3(field_create(p, 2).element([int(c) for c in args[7].split(",")]))
    if kind == "sigma-zero":
        return p, n2, toral_params(field_create(p), 0)
    return p, n2, toral_params(field_create(p), int(args[7]), eps=0, rho=1)


TORAL = [args for args in ACCEPTED if args[1] != "mixed"]


def _id(args):
    return "-".join(a.lstrip("-") for a in args[1:])


def _basis(p, n2, params):
    return eigenbasis(params, p ** n2)


def _assert_same_table(rule, want):
    for a in range(-1, rule.dim + 1):
        for b in range(-1, rule.dim + 1):
            assert rule.brackets.get((a, b)) == want.brackets.get((a, b)), (a, b)
    assert list(rule.brackets.items()) == list(want.brackets.items())
    assert len(rule.brackets) == len(want.brackets) and rule.labels == want.labels


def _assert_rule_is_the_closed_table(basis):
    assert isinstance(basis.eigen_table.brackets, AZBrackets)
    want = closed_eigen_table(basis)
    _assert_same_table(basis.eigen_table, want)
    # a fresh rule, read whole before any get
    fresh = StructureTable(want.field, want.labels, AZBrackets(basis))
    assert list(fresh.brackets) == list(want.brackets)
    return want


@pytest.mark.parametrize("args", TORAL, ids=_id)
def test_rule_is_the_closed_table(args):
    basis = _basis(*_params(args))
    want = _assert_rule_is_the_closed_table(basis)
    if args[1] == "eps-zero":
        central = next(m for m, (r, _, alpha) in enumerate(basis.entries) if r == 1 and not alpha)
        quotient = oracle_quotient_by_ideal(want, coordinate_span(want, [central]))
        _assert_same_table(eigen_quotient(basis, central), quotient)


# dim p q <= 25, finite at mu3 = (0, 1) only
SMALL = [args for args in TORAL
         if int(args[3]) * int(args[5]) <= 25 and (args[1] != "finite" or args[7] == "0,1")]


@pytest.mark.parametrize("args", SMALL, ids=_id)
def test_eigen_quotient_matches_the_oracle_on_every_basis_line(args):
    # NotAnIdeal exactly where the oracle raises it: on every line of a
    # simple algebra, and on every line but the center's at eps = 0
    basis = _basis(*_params(args))
    closed = closed_eigen_table(basis)
    ideals = 0
    for drop in range(closed.dim):
        try:
            want = oracle_quotient_by_ideal(closed, coordinate_span(closed, [drop]))
        except NotAnIdeal:
            with pytest.raises(NotAnIdeal):
                eigen_quotient(basis, drop)
            continue
        ideals += 1
        _assert_same_table(eigen_quotient(basis, drop), want)
    assert ideals == (args[1] == "eps-zero")


@pytest.mark.parametrize("args", TORAL, ids=_id)
def test_grid_certificate_agrees_with_the_all_pairs_one(args):
    basis = _basis(*_params(args))
    closed = closed_eigen_table(basis)
    gens = extend_to_generators(closed, generator_positions(basis))
    assert certify_eigenbasis(basis)
    assert oracle_check_structure_map(closed, *monomial_images(basis), gens)


# finite at p = 3, 5 and 7, sigma-zero and eps-zero
MUTATED = [args for args in TORAL if args[1] != "finite" or args[3] in ("3", "5", "7")][::3]


@st.composite
def _binomial_changes(draw):
    """(args, ja, jb, b1, b2): B1, B2 of the slice pair (ja, jb) set to b1, b2."""
    args = draw(st.sampled_from(MUTATED))
    p, q = int(args[3]), int(args[5])
    ja = draw(st.integers(0, q - 1))
    jb = draw(st.integers(max(ja, 1 - ja), q - 1))  # target slice ja + jb - 1 in [0, q - 1]
    return args, ja, jb, draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1))


SIGMA_ZERO_2_8 = ["--grading", "sigma-zero", "--p", "2", "--q", "8"]


@settings(max_examples=60, deadline=None)
@given(_binomial_changes())
# width-one slices: a diagonal slice pair holds no product, so changing it
# changes nothing, read directly (1, 1) or through a composition (2, 2)
@example((SIGMA_ZERO_2_8, 1, 1, 0, 1))
@example((SIGMA_ZERO_2_8, 2, 2, 0, 1))
def test_grid_certificate_agrees_on_a_changed_binomial(change):
    args, ja, jb, b1, b2 = change
    basis = _basis(*_params(args))
    if ja + jb - 1 >= basis.q:
        return
    _assert_certificates_on_a_change(basis, ja, jb, b1, b2, monomial_images(basis))


def _assert_certificates_on_a_change(basis, ja, jb, b1, b2, images):
    # the grid passes exactly when the changed table is Lie; the map
    # certificate exactly when the change changes nothing, since the basis
    # map is injective and so the monomial table allows one table
    rule = AZBrackets(basis)
    rule._pairs[(ja, jb)] = (ja + jb - 1, b1, b2)
    field = basis.params.field
    changed = dataclasses.replace(basis, eigen_table=StructureTable(field, basis.labels, rule))
    table = StructureTable(field, basis.labels, dict(rule.items()))
    grid = certify_eigenbasis(changed)
    assert bool(grid) == validate_table(table).ok, (ja, jb, b1, b2)
    mapped = _identified(dataclasses.replace(changed, certificate=grid), *images)
    assert bool(mapped) == (table.brackets == closed_eigen_table(basis).brackets), (ja, jb, b1, b2)


# slices of width one (sigma-zero, q <= 9) and two (finite p = 2, q <= 8)
NARROW = [args for args in TORAL if args[1] == "sigma-zero" and int(args[5]) <= 9
          or args[1] == "finite" and args[3] == "2" and int(args[5]) <= 8]


@pytest.mark.parametrize("args", NARROW, ids=_id)
def test_grid_certificate_agrees_on_every_changed_binomial_of_width_one_slices(args):
    # every (ja, jb) with a target slice and every (b1, b2), diagonal pairs
    # included; also on the width-two slices of finite p = 2, where a
    # diagonal pair (j, j), j odd, reads B1 alone
    p, n2, params = _params(args)
    basis = _basis(p, n2, params)
    images = monomial_images(basis)
    for ja in range(basis.q):
        for jb in range(max(ja, 1 - ja), basis.q - ja + 1):
            for b1 in range(p):
                for b2 in range(p):
                    _assert_certificates_on_a_change(basis, ja, jb, b1, b2, images)


F49 = ["--grading", "finite", "--p", "7", "--q", "7", "--mu3", "0,1"]


def _verdict(capsys):
    assert cli.main(["verify"] + F49) == 1
    out = capsys.readouterr().out
    assert "verdict: FAIL" in out
    return next(line for line in out.splitlines() if "eigen table certificate" in line)


def test_a_changed_binomial_factor_fails_the_derivation(monkeypatch, capsys):
    # B1 + 1 on the last slice pair off the slices of X and Y that has products
    real = AZBrackets._slice_pair

    def changed(rule, ja, jb):
        pair = real(rule, ja, jb)
        return (pair[0], (pair[1] + 1) % rule._p, pair[2]) if (ja, jb) == (2, 5) else pair

    basis = _basis(*_params(F49))
    assert real(basis.eigen_table.brackets, 2, 5) == (6, 6, 1)
    monkeypatch.setattr(AZBrackets, "_slice_pair", changed)
    cert = certify_eigenbasis(dataclasses.replace(basis, eigen_table=StructureTable(
        basis.params.field, basis.labels, AZBrackets(basis))))
    assert cert.check == "derivation", cert
    assert "derivation fails: ad e[" in _verdict(capsys)


def test_a_changed_generator_product_off_the_grid_fails_the_generator_rows(monkeypatch, capsys):
    # [X, e(2, 5)]: index s = 5 lies off the grid {0, 1, 2}, but in the row of X
    basis = _basis(*_params(F49))
    x = generator_positions(basis)[0]
    b = 2 * 7 + 5
    assert basis.entries[b][:2] == (-1, 5) and basis.eigen_table.brackets.get((x, b))
    real = AZBrackets._product

    def changed(rule, key):
        terms = real(rule, key)
        return ((terms[0][0], terms[0][1] + terms[0][1]),) if key == (x, b) else terms

    monkeypatch.setattr(AZBrackets, "_product", changed)
    cert = certify_eigenbasis(dataclasses.replace(basis, eigen_table=StructureTable(
        basis.params.field, basis.labels, AZBrackets(basis))))
    assert cert.check == "rule", cert
    assert f"rule fails: [{basis.labels[x]}, {basis.labels[b]}] is not the product" in _verdict(capsys)
    p, n2, params = _params(F49)
    assert identify(p, n2, params) == [f"eigen table certificate: intertwining fails: [{basis.labels[x]}, {basis.labels[b]}]"]

