"""cartan.Phi1Brackets, the Phi(1) bracket dict read by rule, against the
materialized build_H2_phi1 table (the whole-table read, RuleBrackets._build,
has its keys in its order), and the grading proof it offers
liealg.validate_grading, which a mixed run, in characteristic two too,
reads with no whole-table read."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from thinlie import cartan, verify
from thinlie.cartan import build_H2_phi1, phi1_rule_table
from thinlie.errors import NotASubalgebra
from thinlie.ffield import field_create, in_prime_field
from thinlie.grading import grade_mixed
from thinlie.liealg import DegreeMap, RuleBrackets, validate_grading

from test_sweep import MIXED_INPUTS

F49 = field_create(7, 2)
F9 = field_create(3, 2)
NONPRIME_F9 = next(a for a in F9.elements() if not in_prime_field(a))

# (p, n1, n2, field, eps): every mixed input, the three Phi(1) tables of
# the jacobi benchmark workload, eps = 0 and an eps outside the prime field
RULE_CASES = (
    [(p, n1, n2, None, 1) for p, n1, n2 in MIXED_INPUTS]
    + [(5, 1, 2, None, 1), (5, 2, 1, None, 1), (7, 1, 1, F49, 1)]
    + [(3, 1, 1, None, 0), (2, 1, 2, None, 0), (5, 1, 1, None, 0)]
    + [(3, 1, 1, F9, NONPRIME_F9), (7, 1, 1, F49, F49.generator())]
)


def _case_id(case):
    p, n1, n2, field, eps = case
    over = "" if field is None else f"-F{field.size}"
    return f"{p}-{n1}-{n2}{over}-eps{eps}"


def _no_build(*args, **kwargs):
    raise AssertionError("the Phi(1) table was materialized")


def _no_read(*args, **kwargs):
    raise AssertionError("a product was read")


@pytest.mark.parametrize("case", RULE_CASES, ids=_case_id)
def test_rule_agrees_with_the_built_table_entry_by_entry(case):
    built, rule = build_H2_phi1(*case), phi1_rule_table(*case)
    assert rule.labels == built.labels and rule.field == built.field
    brackets = built.brackets
    # every ordered pair, a >= b and positions off the basis included
    for a in range(-1, built.dim + 1):
        for b in range(-1, built.dim + 1):
            assert rule.brackets.get((a, b)) == brackets.get((a, b)), (a, b)
            assert rule.brackets.get((a, b), ()) == brackets.get((a, b), ())
            assert ((a, b) in rule.brackets) == ((a, b) in brackets)
    # the whole-table reads: the same keys in the same order, the same JSON
    assert list(rule.brackets) == list(brackets)
    assert list(rule.brackets.items()) == list(brackets.items())
    assert len(rule.brackets) == len(brackets)
    assert json.dumps(rule.to_json()) == json.dumps(built.to_json())


def test_get_reads_no_whole_table(monkeypatch):
    built = build_H2_phi1(5, 1, 2)
    monkeypatch.setattr(RuleBrackets, "_build", _no_build)
    rule = phi1_rule_table(5, 1, 2)
    # [y, x] (positions 1 and 25) and the pure-y {y, y^(2)}, remapped onto xbar
    for pair in [(1, 25), (1, 2), (0, 1)]:
        assert rule.brackets.get(pair) == built.brackets.get(pair)
    assert rule.brackets[(1, 2)] == ((4 * 25 + 2, -rule.field.one),)
    with pytest.raises(KeyError):
        rule.brackets[(2, 1)]
    with pytest.raises(AssertionError, match="materialized"):
        len(rule.brackets)


def _bumped_binom(entry):
    """cartan.binom_mod_p with C(a, b) raised by one at (a, b) = entry."""
    real = cartan.binom_mod_p

    def bumped(a, b, p):
        c = real(a, b, p)
        return (c + 1) % p if (a, b) == entry else c
    return bumped


@pytest.mark.parametrize("args,entry,pair,product", [
    # {y^(2), x y^(2)} reads Y1 = C(3,1): target y^(3), past y^(2)
    ((3, 1, 1), (3, 1), (2, 5), r"\(0,2,1,2\)"),
    # the pure-y product {y^(7), y^(8)} = C(14,6) - C(14,7) lands past y^(8);
    # at eps = 0 too, since the check reads the binomials, not the scaled product
    ((3, 1, 2), (14, 6), (7, 8), r"\(0,7,0,8\)"),
    ((3, 1, 2, None, 0), (14, 6), (7, 8), r"\(0,7,0,8\)"),
    # {x^(2) y, x^(2) y^(2)} reads X1 = C(3,2): target x^(3) y^(2), past x^(2)
    ((3, 1, 1), (3, 2), (7, 8), r"\(2,1,2,2\)"),
])
def test_escaping_product_raises_when_read(monkeypatch, args, entry, pair, product):
    monkeypatch.setattr(cartan, "binom_mod_p", _bumped_binom(entry))
    rule = phi1_rule_table(*args)
    with pytest.raises(NotASubalgebra, match=product):
        rule.brackets.get(pair)


@pytest.mark.parametrize("args", [*MIXED_INPUTS, (7, 1, 3), (3, 2, 4)], ids=lambda a: "mixed-%d-%d-%d" % a)
def test_grade_mixed_maps_are_proved_without_the_table(args, monkeypatch):
    monkeypatch.setattr(RuleBrackets, "_build", _no_build)
    monkeypatch.setattr(cartan, "_poisson_table", _no_build)
    monkeypatch.setattr(cartan, "binom_mod_p", _no_read)
    p, n1, n2 = args
    table = phi1_rule_table(p, n1, n2)
    degmap = grade_mixed(table, p ** n2, p ** n1)
    assert table.brackets.proves_grading(degmap)
    assert validate_grading(table, degmap)


@pytest.mark.parametrize("args", [(5, 1, 2), (2, 1, 3)])
def test_run_mixed_builds_no_table(args, monkeypatch):
    monkeypatch.setattr(RuleBrackets, "_build", _no_build)
    monkeypatch.setattr(cartan, "_poisson_table", _no_build)
    run = verify.run_mixed(*args)
    assert run.ok, run.mismatches


def test_a_grading_the_proof_misses_is_checked_entry_by_entry():
    # at eps = 0 no pure-y product is stored, so the remap congruence
    # alpha r = 0 mod N is not needed: here alpha r = 3 mod 9
    table = phi1_rule_table(3, 1, 1, None, 0)
    degmap = DegreeMap(9, tuple(-2 + i + j for i in range(3) for j in range(3)))
    assert not table.brackets.proves_grading(degmap)
    assert validate_grading(table, degmap)
    assert not validate_grading(phi1_rule_table(3, 1, 1), degmap)


SMALL_CASES = [c for c in RULE_CASES if c[0] ** (c[1] + c[2]) <= 27]


@st.composite
def degree_maps(draw):
    """A small Phi(1) case and a degree map on it: grade_mixed's with some
    degrees moved, an affine map that may or may not meet the proof's
    congruences, or a map with no structure at all."""
    p, n1, n2, field, eps = case = draw(st.sampled_from(SMALL_CASES))
    q, r = p ** n2, p ** n1
    dim = q * r
    kind = draw(st.sampled_from(["perturbed", "affine", "graded-affine", "random"]))
    if kind == "perturbed":
        modulus = (q - 1) * r
        degrees = list(grade_mixed(phi1_rule_table(*case), q, r).degrees)
        for pos in draw(st.lists(st.integers(0, dim - 1), min_size=1, max_size=3)):
            degrees[pos] += draw(st.integers(1, modulus + 1))
    elif kind == "random":
        modulus = draw(st.integers(1, 12))
        degrees = draw(st.lists(st.integers(0, modulus - 1), min_size=dim, max_size=dim))
    else:
        modulus = draw(st.integers(1, 3 * dim))
        alpha, beta = draw(st.integers(0, modulus - 1)), draw(st.integers(0, modulus - 1))
        if kind == "graded-affine":  # alpha r = 0 mod N: the remap keeps the class
            alpha *= modulus // math.gcd(modulus, r)
        # d0 = -(alpha + beta) makes the map additive on the box
        d0 = -(alpha + beta) + (draw(st.integers(1, modulus)) if draw(st.booleans()) else 0)
        degrees = [d0 + alpha * i + beta * j for i in range(r) for j in range(q)]
    return case, DegreeMap(modulus, tuple(degrees))


@settings(max_examples=150, deadline=None)
@given(degree_maps())
def test_rule_grading_matches_the_per_entry_check(drawn):
    case, degmap = drawn
    rule = phi1_rule_table(*case)
    proved = rule.brackets.proves_grading(degmap)
    want = validate_grading(build_H2_phi1(*case), degmap)
    assert validate_grading(rule, degmap) == want
    assert want or not proved  # a proof is never wrong
