"""The Leibniz-rule kernel, one pass per basis vector, against the
triple-by-triple oracle: validate_table on random alternating tables over
F_2, F_3, F_5, F_4 and F_9, on real tables with one coefficient perturbed
and on tables built with StructureTable itself, whose brackets may repeat a
target; and the derivation step of check_structure_map, which must name the
first pair on which each generator meets a Jacobi violation."""

import random

from hypothesis import given, settings, strategies as st

from oracles import oracle_jacobi_violations
from thinlie.cartan import AlbertFrankSpec, build_albert_frank, build_H2_phi1, build_W1n
from thinlie.ffield import field_create, frobenius
from thinlie.liealg import StructureTable, check_structure_map, validate_table

FIELDS = [field_create(2), field_create(3), field_create(5), field_create(2, 2), field_create(3, 2)]
CAPS = st.sampled_from([1, 10, 10 ** 6])
ABORTED = "Jacobi scan aborted at violation cap"


def _albert_frank_f9():
    f9 = field_create(3, 2)
    group = tuple(f9.elements())
    return build_albert_frank(AlbertFrankSpec(group, {a: frobenius(a) - a for a in group}))


REAL = [build_W1n(3, 2), build_H2_phi1(3, 1, 1, field_create(3, 2)), _albert_frank_f9()]


def check_against_oracle(table, cap):
    report = validate_table(table, cap)
    want = oracle_jacobi_violations(table, cap)
    assert report.violations == want
    assert report.jacobi_ok == (not want)
    assert (ABORTED in report.messages) == (len(want) >= cap)


@st.composite
def alternating_tables(draw):
    """Each pair i < j gets a bracket with probability density, of one to
    three distinct targets with nonzero coefficients."""
    field = draw(st.sampled_from(FIELDS))
    dim = draw(st.integers(3, 12))
    density = draw(st.sampled_from([0.15, 0.8]))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    entries = [
        (i, j, [(k, field.element_by_index(rng.randrange(1, field.size)))
                for k in rng.sample(range(dim), rng.randint(1, 3))])
        for i in range(dim)
        for j in range(i + 1, dim)
        if rng.random() < density
    ]
    return StructureTable.from_entries(field, [f"b{i}" for i in range(dim)], entries)


@st.composite
def perturbed_real_tables(draw):
    """A real table with one stored coefficient changed by a nonzero amount."""
    table = draw(st.sampled_from(REAL))
    field = table.field
    key = draw(st.sampled_from(sorted(table.brackets)))
    terms = list(table.brackets[key])
    at = draw(st.integers(0, len(terms) - 1))
    k, c = terms[at]
    c = c + field.element_by_index(draw(st.integers(1, field.size - 1)))
    if c:
        terms[at] = (k, c)
    else:
        del terms[at]
    brackets = dict(table.brackets)
    if terms:
        brackets[key] = tuple(terms)
    else:
        del brackets[key]
    return StructureTable(field, table.labels, brackets)


@settings(max_examples=200, deadline=None)
@given(alternating_tables(), CAPS)
def test_scan_matches_oracle_on_random_tables(table, cap):
    check_against_oracle(table, cap)


@settings(max_examples=40, deadline=None)
@given(perturbed_real_tables(), CAPS)
def test_scan_matches_oracle_on_perturbed_tables(table, cap):
    check_against_oracle(table, cap)


@st.composite
def hand_built_tables(draw):
    """Tables made by StructureTable(...) itself, bypassing from_entries:
    over F_4 or F_9, brackets of one to four terms whose targets may repeat,
    and (0, 1) always with two terms on one target."""
    field = draw(st.sampled_from(FIELDS[3:]))
    dim = draw(st.integers(3, 9))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))

    def coeff():
        return field.element_by_index(rng.randrange(1, field.size))

    brackets = {
        (i, j): tuple((rng.randrange(dim), coeff()) for _ in range(rng.randint(1, 4)))
        for i in range(dim)
        for j in range(i + 1, dim)
        if rng.random() < 0.6
    }
    target = rng.randrange(dim)
    brackets[(0, 1)] = ((target, coeff()), (rng.randrange(dim), coeff()), (target, coeff()))
    return StructureTable(field, [f"b{i}" for i in range(dim)], brackets)


@settings(max_examples=100, deadline=None)
@given(hand_built_tables())
def test_scan_matches_oracle_on_hand_built_tables(table):
    for cap in (1, 10, 10 ** 6):
        check_against_oracle(table, cap)


@settings(max_examples=60, deadline=None)
@given(st.one_of(alternating_tables(), perturbed_real_tables()))
def test_derivation_check_names_the_first_failing_pair(table):
    dim, labels = table.dim, table.labels
    bad = set(oracle_jacobi_violations(table, 10 ** 6))
    images = [table.basis_element(i) for i in range(dim)]
    for g in range(dim):
        first = next(
            ((a, b) for a in range(dim) for b in range(a + 1, dim)
             if g not in (a, b) and tuple(sorted((g, a, b))) in bad),
            None,
        )
        cert = check_structure_map(table, table, images, [g])
        if first is None:
            assert cert.check != "derivation"
        else:
            a, b = first
            assert (cert.check, cert.detail) == ("derivation", f"ad {labels[g]} on [{labels[a]}, {labels[b]}]")


def test_malformed_table_reports_without_raising():
    f3 = field_create(3)
    one, zero = f3.one, f3.zero
    table = StructureTable(f3, ["a", "b", "c"], {(1, 0): ((2, one),), (0, 1): ((7, one),), (0, 2): ((1, zero),)})
    report = validate_table(table)
    assert (report.ok, report.encoding_ok, report.jacobi_ok, report.violations) == (False, False, True, [])
    assert report.messages == [
        "bad key (1, 0)",
        "target 7 out of range in (0, 1)",
        "stored zero coefficient in (0, 2)",
    ]
