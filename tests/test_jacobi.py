"""validate_table against the triple-by-triple oracle.  A Lie table is
decided by the generator certificate, one Leibniz pass over all pairs per
generator, and any other table by the Leibniz-rule kernel, one pass per
basis vector.  Checked on random alternating tables over F_2, F_3, F_5, F_4
and F_9, on real tables with one coefficient perturbed, on real tables
rewritten in a random basis (brackets of many terms), on tables built with
StructureTable itself, whose brackets may repeat a target, and on every
builder shape of dimension at most 125; and the derivation step of
check_structure_map, which must name the first pair on which each generator
meets a Jacobi violation."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import oracle_jacobi_violations
from thinlie import liealg
from thinlie.cartan import (
    AlbertFrankSpec,
    build_albert_frank,
    build_H2_phi1,
    build_H2_phi_tau_derived,
    build_H2_second_derived,
    build_W1n,
)
from thinlie.ffield import field_create, frobenius
from thinlie.liealg import (
    StructureTable,
    ValidationReport,
    change_basis,
    check_structure_map,
    extend_to_generators,
    rref,
    subalgebra_generated,
    validate_table,
)

FIELDS = [field_create(2), field_create(3), field_create(5), field_create(2, 2), field_create(3, 2)]
CAPS = st.sampled_from([1, 10, 10 ** 6])
ABORTED = "Jacobi scan aborted at violation cap"


def _albert_frank(field, twist=True):
    """Albert-Frank on all of field, theta = Frobenius - id or zero."""
    group = tuple(field.elements())
    theta = {a: frobenius(a) - a if twist else field.zero for a in group}
    return build_albert_frank(AlbertFrankSpec(group, theta))


REAL = [build_W1n(3, 2), build_H2_phi1(3, 1, 1, field_create(3, 2)), _albert_frank(field_create(3, 2))]
REAL_IDS = ["W-3-2", "Hphi1-3-1-1-F9", "AF-F9"]


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


def _with_coefficient(table, key, target, delta):
    """table with delta added to the coefficient of b_target in the stored
    bracket at key (i < j)."""
    terms = dict(table.brackets.get(key, ()))
    c = terms.get(target, table.field.zero) + delta
    if c:
        terms[target] = c
    else:
        terms.pop(target, None)
    brackets = dict(table.brackets)
    if terms:
        brackets[key] = tuple(sorted(terms.items()))
    else:
        brackets.pop(key, None)
    return StructureTable(table.field, table.labels, brackets)


@st.composite
def perturbed_real_tables(draw):
    """A real table with one stored coefficient changed by a nonzero amount."""
    table = draw(st.sampled_from(REAL))
    key = draw(st.sampled_from(sorted(table.brackets)))
    target, _ = draw(st.sampled_from(table.brackets[key]))
    delta = table.field.element_by_index(draw(st.integers(1, table.field.size - 1)))
    return _with_coefficient(table, key, target, delta)


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


# ---------------------------------------------------------------------------
# the generator certificate
# ---------------------------------------------------------------------------

def _ad_row_order(table):
    """Basis positions by descending ad-row size, ties by position."""
    size = [0] * table.dim
    for i, j in table.brackets:
        size[i] += 1
        size[j] += 1
    return sorted(range(table.dim), key=lambda i: -size[i])


def _certificate_generators(table):
    return extend_to_generators(table, (), _ad_row_order(table))


@pytest.fixture
def passes(monkeypatch):
    """Every (g, lo) pass that liealg._leibniz_failures runs, in order."""
    ran = []
    kernel = liealg._leibniz_failures

    def recording(t, scans):
        def record():
            for scan in scans:
                ran.append(scan)
                yield scan
        return kernel(t, record())

    monkeypatch.setattr(liealg, "_leibniz_failures", recording)
    return ran


def _scan_report(table, cap=10):
    """validate_table with the certificate switched off: the triple scan."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(liealg, "_jacobi_certified", lambda t: False)
        return validate_table(table, cap)


@pytest.mark.parametrize("table", REAL, ids=REAL_IDS)
def test_lie_table_is_decided_by_generator_passes(table, passes):
    assert validate_table(table) == ValidationReport(True, True, True, [], [])
    gens = _certificate_generators(table)
    assert passes == [(g, -1) for g in gens]
    assert len(gens) < table.dim
    assert subalgebra_generated(table, [table.basis_element(g) for g in gens]).dim == table.dim


@pytest.mark.parametrize("table", REAL, ids=REAL_IDS)
def test_perturbed_table_reaches_the_full_scan(table, passes):
    key = sorted(table.brackets)[len(table.brackets) // 2]
    target = table.brackets[key][0][0]
    bad = _with_coefficient(table, key, target, table.field.one)
    full = oracle_jacobi_violations(bad, 10 ** 6)
    assert full
    for cap in (1, 10, 10 ** 6):
        passes.clear()
        want = full[:cap]
        aborted = [ABORTED] if len(full) >= cap else []
        assert validate_table(bad, cap) == ValidationReport(False, True, False, want, aborted)
        cut = next(n for n, (_, lo) in enumerate(passes) if lo != -1)
        assert cut and all(lo == -1 for _, lo in passes[:cut])
        scanned = passes[cut:]
        assert scanned == [(i, i) for i in range(len(scanned))]
        if cap == 10 ** 6:
            assert len(scanned) == bad.dim


# the certificate's generators are [3, 2, 1] and [1, 2], and the pass of only
# the first, respectively the last, of them fails
ONE_FAILING_PASS = {
    "first": (6, {(1, 3): [(4, 1)], (2, 3): [(5, 1)], (2, 5): [(0, 1)], (3, 4): [(2, 2)]}),
    "last": (5, {(0, 1): [(4, 1)], (1, 2): [(3, 1)], (1, 3): [(0, 2)], (2, 3): [(1, 2)]}),
}


@pytest.mark.parametrize("which", sorted(ONE_FAILING_PASS))
def test_every_generator_pass_counts(which, passes):
    dim, brackets = ONE_FAILING_PASS[which]
    f3 = field_create(3)
    table = StructureTable.from_entries(
        f3, [f"b{i}" for i in range(dim)],
        [(i, j, [(k, f3.element(c)) for k, c in terms]) for (i, j), terms in brackets.items()])
    gens = _certificate_generators(table)
    failing = [g for g, pairs in liealg._leibniz_failures(table, ((g, -1) for g in gens)) if pairs]
    assert failing == [gens[0] if which == "first" else gens[-1]]
    passes.clear()
    for cap in (1, 10, 10 ** 6):
        check_against_oracle(table, cap)
    assert (gens[0], -1) in passes


def test_encoding_failure_skips_the_certificate(passes):
    # a stored zero coefficient on a real table: the kernel would read it as
    # no term and the generator passes would succeed
    table = REAL[0]
    key = sorted(table.brackets)[0]
    brackets = dict(table.brackets)
    brackets[key] = table.brackets[key] + ((table.dim - 1, table.field.zero),)
    report = validate_table(StructureTable(table.field, table.labels, brackets))
    assert report == ValidationReport(False, False, True, [], [f"stored zero coefficient in {key}"])
    assert passes == [(i, i) for i in range(table.dim)]


def test_abelian_table_goes_straight_to_the_scan(passes, monkeypatch):
    # with no bracket target every basis vector is a generator
    f5 = field_create(5)
    table = StructureTable(f5, [f"a{i}" for i in range(30)], {})

    def extension(*args):
        raise AssertionError("the generating set is not needed")

    monkeypatch.setattr(liealg, "extend_to_generators", extension)
    assert validate_table(table) == ValidationReport(True, True, True, [], [])
    assert passes == [(i, i) for i in range(30)]


F4, F9 = field_create(2, 2), field_create(3, 2)
REWRITE_TABLES = [
    build_W1n(3, 2), build_H2_phi1(3, 1, 1), build_H2_second_derived(3, 1, 1),
    build_W1n(2, 3, F4), build_H2_phi1(2, 1, 2, F4), _albert_frank(F4),
    build_W1n(3, 2, F9), build_H2_phi1(3, 1, 1, F9), _albert_frank(F9),
]


@st.composite
def rewritten_tables(draw):
    """A real table over F_3, F_4 or F_9 in the basis of the rows of a
    random invertible matrix, so that brackets have many terms."""
    table = draw(st.sampled_from(REWRITE_TABLES))
    field, dim = table.field, table.dim
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    while True:
        rows = [[field.element_by_index(rng.randrange(field.size)) for _ in range(dim)] for _ in range(dim)]
        if len(rref(field, rows)) == dim:
            return change_basis(table, rows, [f"v{i}" for i in range(dim)]), rng


@settings(max_examples=30, deadline=None)
@given(rewritten_tables())
def test_rewritten_tables_match_oracle(case):
    table, rng = case
    for cap in (1, 10, 10 ** 6):
        check_against_oracle(table, cap)
    gens = _certificate_generators(table)
    others = [i for i in range(table.dim) if i not in gens]
    if len(others) < 2:
        return
    j, k = sorted(rng.sample(others, 2))
    delta = table.field.element_by_index(rng.randrange(1, table.field.size))
    bad = _with_coefficient(table, (j, k), rng.randrange(table.dim), delta)
    for cap in (1, 10, 10 ** 6):
        check_against_oracle(bad, cap)


def _builder_sweep():
    """Every builder shape of dimension at most 125 at p = 2, 3, 5, 7, and
    Albert-Frank with theta = Frobenius - id and theta = 0 over F_4, F_8,
    F_9 and F_16."""
    cases = []
    for p in (2, 3, 5, 7):
        cases += [(f"W-{p}-{n}", build_W1n, (p, n)) for n in range(1, 7) if p ** n <= 125]
        for name, builder in (("Hsecond", build_H2_second_derived),
                              ("Hphitau", build_H2_phi_tau_derived),
                              ("Hphi1", build_H2_phi1)):
            cases += [(f"{name}-{p}-{n1}-{n2}", builder, (p, n1, n2))
                      for n1 in range(1, 6) for n2 in range(1, 6) if p ** (n1 + n2) <= 125]
    for p, k in ((2, 2), (2, 3), (3, 2), (2, 4)):
        cases.append((f"AF-{p}^{k}", _albert_frank, (field_create(p, k),)))
        cases.append((f"AF0-{p}^{k}", _albert_frank, (field_create(p, k), False)))
    return cases


SWEEP = _builder_sweep()


@pytest.mark.parametrize("builder, args", [c[1:] for c in SWEEP], ids=[c[0] for c in SWEEP])
def test_certificate_agrees_with_the_scan(builder, args, passes):
    table = builder(*args)
    gens = _certificate_generators(table)
    assert subalgebra_generated(table, [table.basis_element(g) for g in gens]).dim == table.dim
    scan = _scan_report(table)
    passes.clear()
    assert validate_table(table) == scan
    # the certificate decides unless more than a third of the basis is no
    # bracket target, as in W(1;1) at p = 2
    untargeted = table.dim - len({k for terms in table.brackets.values() for k, _ in terms})
    assert scan.ok and (3 * untargeted > table.dim) == any(lo != -1 for _, lo in passes)
