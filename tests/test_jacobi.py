"""validate_table against the triple-by-triple oracle.  A Lie table is
decided by the generator certificate, one Leibniz pass over all pairs per
generator, unless it would take more than dim/3 generators, and any other
table by the Leibniz-rule kernel, one pass per basis vector.  Checked on
random alternating tables over F_2, F_3, F_5, F_4 and F_9, on real tables
with one coefficient perturbed, on real tables rewritten in a random basis
(brackets of many terms), on tables built with StructureTable itself, whose
brackets may repeat a target, and on every builder shape of dimension at
most 125; and the derivation step of check_structure_map, which must name
the first pair on which each generator meets a Jacobi violation."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import change_basis, element_by_index, oracle_jacobi_violations, oracle_rref
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
    check_structure_map,
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
        (i, j, [(k, element_by_index(field, rng.randrange(1, field.size)))
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
    delta = element_by_index(table.field, draw(st.integers(1, table.field.size - 1)))
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
        return element_by_index(field, rng.randrange(1, field.size))

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
    """The widest ad row first, then every other basis position in
    ascending ad-row size; ties by position."""
    size = [0] * table.dim
    for i, j in table.brackets:
        size[i] += 1
        size[j] += 1
    widest = max(range(table.dim), key=lambda i: size[i])
    return [widest] + sorted((i for i in range(table.dim) if i != widest), key=lambda i: size[i])


def _certificate_generators(table):
    """The certificate's generators, or None when it would take more than
    dim/3 of them: then the guard stops the extension and the scan runs."""
    gens = list(liealg._greedy_generators(table, (), _ad_row_order(table)))
    return None if 3 * len(gens) > table.dim else gens


@pytest.fixture
def passes(monkeypatch):
    """Every (g, lo) pass that liealg._leibniz_failures runs, in order."""
    ran = []
    kernel = liealg._leibniz_failures

    def recording(index, scans):
        def record():
            for scan in scans:
                ran.append(scan)
                yield scan
        return kernel(index, record())

    monkeypatch.setattr(liealg, "_leibniz_failures", recording)
    return ran


def _scan_report(table, cap=10):
    """validate_table with the certificate switched off: the triple scan."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(liealg, "_jacobi_certified", lambda t, index: False)
        return validate_table(table, cap)


@pytest.mark.parametrize("table", REAL, ids=REAL_IDS)
def test_lie_table_is_decided_by_generator_passes(table, passes):
    assert validate_table(table) == ValidationReport(True, True, True, [], [])
    gens = _certificate_generators(table)
    if gens is None:
        # Albert-Frank over F_9 takes five generators of nine in the
        # certificate's order, so the guard sends it to the scan
        assert table is REAL[2]
        assert passes == [(i, i) for i in range(table.dim)]
        return
    assert passes == [(g, -1) for g in gens]
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
        gens = _certificate_generators(bad)
        # the generator passes up to the first that fails, none when the
        # guard stops the extension
        assert bool(cut) == (gens is not None)
        assert passes[:cut] == [(g, -1) for g in (gens or [])[:cut]]
        scanned = passes[cut:]
        assert scanned == [(i, i) for i in range(len(scanned))]
        if cap == 10 ** 6:
            assert len(scanned) == bad.dim


# W(1;2) at p = 3 with one added to the coefficient of the target in the
# bracket at the key: the certificate's generators are [0, 7] (E_-1 and
# E_6) in both, and the pass of only the first, respectively the last, of
# them fails
ONE_FAILING_PASS = {"first": ((0, 1), 1), "last": ((7, 8), 0)}


@pytest.mark.parametrize("which", sorted(ONE_FAILING_PASS))
def test_every_generator_pass_counts(which, passes):
    key, target = ONE_FAILING_PASS[which]
    table = _with_coefficient(REAL[0], key, target, REAL[0].field.one)
    gens = _certificate_generators(table)
    assert gens is not None and len(gens) > 1
    index = liealg._LeibnizIndex(table)
    failing = [g for g, pairs in liealg._leibniz_failures(index, ((g, -1) for g in gens)) if pairs]
    assert failing == [gens[0] if which == "first" else gens[-1]]
    passes.clear()
    for cap in (1, 10, 10 ** 6):
        check_against_oracle(table, cap)
    assert (gens[0], -1) in passes


def test_index_is_built_once_per_validation(monkeypatch):
    # the certificate and the scan it falls back to read the same index
    built = []

    class Counting(liealg._LeibnizIndex):
        __slots__ = ()

        def __init__(self, t):
            built.append(t)
            super().__init__(t)

    monkeypatch.setattr(liealg, "_LeibnizIndex", Counting)
    table = REAL[0]
    bad = _with_coefficient(table, (0, 1), 1, table.field.one)
    assert validate_table(table).ok and not validate_table(bad).ok
    assert built == [table, bad]


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

    monkeypatch.setattr(liealg, "_RightNormedSpan", extension)
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
        rows = [[element_by_index(field, rng.randrange(field.size)) for _ in range(dim)] for _ in range(dim)]
        if len(oracle_rref(field, rows)) == dim:
            return change_basis(table, rows, [f"v{i}" for i in range(dim)]), rng


@settings(max_examples=30, deadline=None)
@given(rewritten_tables())
def test_rewritten_tables_match_oracle(case):
    table, rng = case
    for cap in (1, 10, 10 ** 6):
        check_against_oracle(table, cap)
    gens = _certificate_generators(table) or []
    others = [i for i in range(table.dim) if i not in gens]
    if len(others) < 2:
        return
    j, k = sorted(rng.sample(others, 2))
    delta = element_by_index(table.field, rng.randrange(1, table.field.size))
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
    if gens is not None:
        assert subalgebra_generated(table, [table.basis_element(g) for g in gens]).dim == table.dim
    scan = _scan_report(table)
    passes.clear()
    assert validate_table(table) == scan
    # the certificate decides unless more than a third of the basis is no
    # bracket target, as in W(1;1) at p = 2, or the guard stops the extension
    untargeted = table.dim - len({k for terms in table.brackets.values() for k, _ in terms})
    scanned = 3 * untargeted > table.dim or gens is None
    assert scan.ok and scanned == any(lo != -1 for _, lo in passes)


@pytest.mark.parametrize("builder, args", [c[1:] for c in SWEEP], ids=[c[0] for c in SWEEP])
def test_mutation_at_non_generators_is_found(builder, args):
    # a cheaper generating set must hide no violation: one coefficient
    # changed in the bracket of two basis vectors that are not generators
    table = builder(*args)
    gens = _certificate_generators(table) or []
    others = [i for i in range(table.dim) if i not in gens]
    key = next((k for k in sorted(table.brackets) if k[0] in others and k[1] in others),
               (others[0], others[1]))
    target = table.brackets[key][0][0] if key in table.brackets else 0
    bad = _with_coefficient(table, key, target, table.field.one)
    for cap in (1, 10 ** 6):
        check_against_oracle(bad, cap)


def test_guard_stops_the_extension(passes):
    # H(2;(1,1))^(2) at p = 7: in the certificate's order 44 of the 47 basis
    # vectors are generators, so the guard stops at the 16th and the scan runs
    table = build_H2_second_derived(7, 1, 1)
    untargeted = table.dim - len({k for terms in table.brackets.values() for k, _ in terms})
    assert 3 * untargeted <= table.dim
    assert len(list(liealg._greedy_generators(table, (), _ad_row_order(table)))) == 44
    report = validate_table(table)
    assert report == ValidationReport(True, True, True, oracle_jacobi_violations(table, 10), [])
    assert passes == [(i, i) for i in range(table.dim)]


@pytest.mark.parametrize("cap", [0, -1])
def test_violation_cap_below_one_is_rejected(cap):
    # one perturbed coefficient of W(1;1) at p = 3 has a violation, which a
    # cap of 0 would have to leave out
    table = build_W1n(3, 1)
    key = sorted(table.brackets)[0]
    bad = _with_coefficient(table, key, table.brackets[key][0][0], table.field.one)
    assert oracle_jacobi_violations(bad, 1)
    with pytest.raises(ValueError, match="max_violations"):
        validate_table(bad, cap)
