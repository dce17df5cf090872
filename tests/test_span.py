"""_ReachedSpan, the span of right-normed brackets of a one-term table as
the set of basis positions reached from the generators, against
oracle_right_normed_span, which brackets every found vector with every
generator: its positions are the oracle's pivots, on random one-term
tables, builder tables, builder tables with one coefficient changed (not
Lie) and the eigen table of every case of the toral benchmark.
extend_to_generators and the generation check of the generator certificate
(oracle_check_structure_map) give what the oracle gives.

Generating sets are read off one-term tables only.  On random multi-term
tables, builder tables rewritten in a random basis (Lie, multi-term) and
tables with a stored zero, a diagonal key or a target out of range,
extend_to_generators and the generator certificate raise
ValueError, and validate_table goes straight to the per-vector scan, with
the report the triple-by-triple oracle gives.  On every table here
_LeibnizIndex finds the same one-term flag as is_one_term."""

import functools

import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    change_basis,
    element_by_index,
    extend_to_generators,
    is_one_term,
    monomial_images,
    oracle_check_structure_map,
    oracle_extend_to_generators,
    oracle_jacobi_violations,
    oracle_right_normed_span,
    oracle_rref,
)
from thinlie import liealg
from thinlie.cartan import (
    AlbertFrankSpec,
    build_albert_frank,
    build_H2_phi1,
    build_H2_phi_tau_derived,
    build_H2_second_derived,
    build_W1n,
)
from thinlie.errors import DenominatorZero
from thinlie.ffield import field_create, frobenius, in_prime_field
from thinlie.grading import ToralParams, eigenbasis, generator_positions, params_from_mu3
from thinlie.liealg import (
    StructureTable,
    ValidationReport,
    check_structure_map,
    validate_table,
)

F2, F3, F9 = field_create(2), field_create(3), field_create(3, 2)


def _albert_frank(field):
    group = tuple(field.elements())
    return build_albert_frank(AlbertFrankSpec(group, {a: frobenius(a) - a for a in group}))


BUILT = [
    build_W1n(2, 4), build_H2_phi1(2, 1, 2), build_H2_phi1(2, 1, 3),
    build_W1n(3, 3), build_H2_second_derived(3, 1, 1), build_H2_phi_tau_derived(3, 1, 1),
    build_W1n(3, 2, F9), build_H2_phi1(3, 1, 1, F9), _albert_frank(F9),
]
SMALL = [t for t in BUILT if t.dim <= 9 and t.field is not F2]


@st.composite
def random_tables(draw, most=st.sampled_from([1, 3])):
    """Each pair i < j gets a bracket with probability density, of one
    target or of one to most distinct ones, with nonzero coefficients."""
    field = draw(st.sampled_from([F2, F3, F9]))
    dim = draw(st.integers(3, 30))
    density = draw(st.sampled_from([0.05, 0.2, 0.6]))
    most = draw(most)
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    entries = [
        (i, j, [(k, element_by_index(field, rng.randrange(1, field.size)))
                for k in rng.sample(range(dim), rng.randint(1, most))])
        for i in range(dim)
        for j in range(i + 1, dim)
        if rng.random() < density
    ]
    return StructureTable.from_entries(field, [f"b{i}" for i in range(dim)], entries)


@st.composite
def perturbed_tables(draw):
    """A builder table (one term per bracket) with one stored coefficient
    changed by a nonzero amount; a bracket that becomes zero is dropped."""
    table = draw(st.sampled_from(BUILT))
    key = draw(st.sampled_from(sorted(table.brackets)))
    ((target, c),) = table.brackets[key]
    c = c + element_by_index(table.field, draw(st.integers(1, table.field.size - 1)))
    brackets = dict(table.brackets)
    if c:
        brackets[key] = ((target, c),)
    else:
        del brackets[key]
    return StructureTable(table.field, table.labels, brackets)


@st.composite
def rewritten_tables(draw):
    """A builder table over F_3 or F_9 of dimension at most 9 in the basis
    of the rows of a random invertible matrix."""
    table = draw(st.sampled_from(SMALL))
    field, dim = table.field, table.dim
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    while True:
        rows = [[element_by_index(field, rng.randrange(field.size)) for _ in range(dim)] for _ in range(dim)]
        if len(oracle_rref(field, rows)) == dim:
            return change_basis(table, rows, [f"v{i}" for i in range(dim)])


def _scan_report(table, cap):
    """The report of the triple-by-triple oracle, for a well-encoded table."""
    want = oracle_jacobi_violations(table, cap)
    aborted = ["Jacobi scan aborted at violation cap"] if len(want) >= cap else []
    return ValidationReport(not want, True, not want, want, aborted)


@settings(max_examples=100, deadline=None)
@given(st.one_of(random_tables(), rewritten_tables()), st.sampled_from([1, 10, 10 ** 6]))
def test_generating_sets_are_read_off_one_term_tables_only(table, cap):
    one_term = is_one_term(table)
    assert liealg._LeibnizIndex(table).one_term == one_term
    certified = []
    with pytest.MonkeyPatch.context() as mp:
        real = liealg._jacobi_certified
        mp.setattr(liealg, "_jacobi_certified", lambda t, index: certified.append(t) or real(t, index))
        assert validate_table(table, cap) == _scan_report(table, cap)
    assert certified == ([table] if one_term else [])
    if one_term:
        assert extend_to_generators(table, [0]) == oracle_extend_to_generators(table, [0])
    else:
        with pytest.raises(ValueError, match="one-term"):
            extend_to_generators(table, [0])
        images = [table.basis_element(i) for i in range(table.dim)]
        with pytest.raises(ValueError, match="one-term"):
            oracle_check_structure_map(table, table, images, [0])


@functools.cache
def toral_bases():
    """The eigenbasis of every case of the toral benchmark that has an eigen
    table: the finite runs at (p, q, |F|) = (3, 3, 9), (5, 5, 25), (3, 9, 9)
    and (7, 7, 49) for every mu3 outside the prime field, and eps-zero at
    p = 5 for ratios 1, 2 and 3."""
    bases = []
    for p, n2, k in ((3, 1, 2), (5, 1, 2), (3, 2, 2), (7, 1, 2)):
        for mu3 in field_create(p, k).elements():
            if in_prime_field(mu3):
                continue
            try:
                params = params_from_mu3(mu3)
            except DenominatorZero:
                continue
            bases.append(eigenbasis(params, p ** n2))
    f5 = field_create(5)
    for ratio in (1, 2, 3):
        params = ToralParams(f5.element(ratio), f5.one, f5.zero)
        bases.append(eigenbasis(params, 5))
    return bases


def test_toral_bases_cover_the_benchmark():
    assert len(toral_bases()) == 6 + 20 + 6 + 42 + 3
    assert all(basis.certificate for basis in toral_bases())


@st.composite
def reached_spans(draw):
    table = draw(st.one_of(
        random_tables(most=st.just(1)),
        st.sampled_from(BUILT),
        perturbed_tables(),
        st.sampled_from(range(len(toral_bases()))).map(lambda m: toral_bases()[m].eigen_table),
    ))
    gens = draw(st.lists(st.integers(0, table.dim - 1), min_size=1, max_size=5))
    return table, gens


@settings(max_examples=150, deadline=None)
@given(reached_spans())
def test_reached_span_matches_oracle(case):
    table, gens = case
    assert is_one_term(table) and liealg._LeibnizIndex(table).one_term
    closure = liealg._ReachedSpan(table)
    for g in gens:
        closure.adjoin(g)
    want, _ = oracle_right_normed_span(table, gens)
    assert sorted(closure.reached) == want.pivots and closure.rank == len(want.pivots)
    assert [i in closure for i in range(table.dim)] == [i in want.pivots for i in range(table.dim)]
    assert extend_to_generators(table, gens) == oracle_extend_to_generators(table, gens)


@pytest.mark.parametrize("m", range(len(BUILT)))
def test_extension_on_builder_tables(m):
    table = BUILT[m]
    assert is_one_term(table) and liealg._LeibnizIndex(table).one_term
    starts = [[], [0], [table.dim - 1, 0]]
    got = [extend_to_generators(table, start) for start in starts]
    assert got == [oracle_extend_to_generators(table, start) for start in starts]


def test_extension_and_generation_on_eigen_tables():
    # every generating set the certificate uses, and the verdict of
    # the generator certificate with each of its generators dropped in turn
    cases = []
    for basis in toral_bases():
        et = basis.eigen_table
        assert is_one_term(et) and liealg._LeibnizIndex(et).one_term
        gens = extend_to_generators(et, generator_positions(basis))
        assert gens == oracle_extend_to_generators(et, generator_positions(basis))
        images = monomial_images(basis)
        for drop in range(len(gens)):
            fewer = gens[:drop] + gens[drop + 1:]
            verdict = oracle_check_structure_map(et, *images, fewer)
            rank = len(oracle_right_normed_span(et, fewer)[0].pivots)
            if rank == et.dim:
                assert verdict
            else:
                assert verdict.check == "generation"
                assert verdict.detail.endswith(f" generate {rank} of {et.dim} dimensions")
            cases.append(verdict)
    assert sum(not verdict for verdict in cases) > len(cases) // 2


def _malformed(table, how):
    """table with one stored entry made malformed: a zero coefficient, a
    target out of range, or an added diagonal key."""
    brackets = dict(table.brackets)
    key = sorted(brackets)[len(brackets) // 2]
    ((target, c),) = brackets[key]
    if how == "zero":
        brackets[key] = ((target, table.field.zero),)
    elif how == "out-of-range":
        brackets[key] = ((table.dim, c),)
    else:
        brackets[(key[0], key[0])] = ((target, c),)
    return StructureTable(table.field, table.labels, brackets)


@pytest.mark.parametrize("how", ["zero", "out-of-range", "diagonal"])
@pytest.mark.parametrize("m", range(len(BUILT)))
def test_malformed_tables_take_the_bracket_span(m, how, monkeypatch):
    # a malformed table is not one-term: no generating set is read off it,
    # and validate_table reports the encoding without the certificate
    table = _malformed(BUILT[m], how)
    assert not is_one_term(table) and not liealg._LeibnizIndex(table).one_term

    def unused(*args):
        raise AssertionError("a table that is not one-term reached the certificate")

    monkeypatch.setattr(liealg, "_jacobi_certified", unused)
    monkeypatch.setattr(liealg, "_ReachedSpan", unused)
    for start in ([], [0], [table.dim - 1]):
        with pytest.raises(ValueError, match="one-term"):
            extend_to_generators(table, start)
    report = validate_table(table)
    assert not report.encoding_ok and not report.ok


def test_validate_table_reads_one_term_off_the_leibniz_index(monkeypatch):
    # the index's one_term flag decides: only the one-term tables reach the
    # certificate, the rewritten one goes straight to the scan
    seen = []
    real = liealg._jacobi_certified

    def recording(t, index):
        seen.append(t)
        return real(t, index)

    monkeypatch.setattr(liealg, "_jacobi_certified", recording)
    rewritten = change_basis(BUILT[3], [[F3.one if i <= j else F3.zero for j in range(27)] for i in range(27)],
                             [f"v{i}" for i in range(27)])
    for table in BUILT + [rewritten]:
        assert liealg.validate_table(table).ok
    assert seen == BUILT


def test_multi_term_table_is_rejected_where_generators_are_used(monkeypatch):
    # W(1;2) over F_9 in a triangular basis: its brackets have many terms
    table = BUILT[6]
    one, zero = F9.one, F9.zero
    rows = [[one if i <= j else zero for j in range(table.dim)] for i in range(table.dim)]
    rewritten = change_basis(table, rows, [f"v{i}" for i in range(table.dim)])
    assert not is_one_term(rewritten) and not liealg._LeibnizIndex(rewritten).one_term
    # [0, 1] generate it, and are still refused
    assert len(oracle_right_normed_span(rewritten, [0, 1])[0].pivots) == rewritten.dim
    with pytest.raises(ValueError, match="one-term"):
        extend_to_generators(rewritten, [])
    images = [rewritten.basis_element(i) for i in range(rewritten.dim)]
    for gens in ([0], [0, 1], [rewritten.dim - 1]):
        with pytest.raises(ValueError, match="one-term"):
            oracle_check_structure_map(rewritten, rewritten, images, gens)
    # every basis vector a generator: intertwining on every pair is the proof
    assert check_structure_map(rewritten, rewritten, images)
    assert oracle_check_structure_map(rewritten, rewritten, images, range(rewritten.dim))
    assert validate_table(rewritten) == _scan_report(rewritten, 10)
