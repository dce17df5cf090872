"""_RightNormedSpan, which brackets a found vector with a generator only when
the table stores a bracket of the generator with a basis vector of the
vector's support, against oracle_right_normed_span, which brackets every
found vector with every generator: the same echelon rows, the same vectors found in the same order,
and the same generating sets from extend_to_generators.  Checked on random
alternating tables over F_2, F_3 and F_9 of dimension 3 to 30 with one-term
and multi-term brackets, on builder tables (Lie), on builder tables with
one coefficient changed (not Lie) and on builder tables rewritten in a
random basis (Lie, multi-term)."""

import random

from hypothesis import given, settings, strategies as st

from oracles import (
    change_basis,
    element_by_index,
    oracle_extend_to_generators,
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
from thinlie.ffield import field_create, frobenius
from thinlie.liealg import StructureTable, extend_to_generators

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
def random_tables(draw):
    """Each pair i < j gets a bracket with probability density, of one
    target or of one to three distinct ones, with nonzero coefficients."""
    field = draw(st.sampled_from([F2, F3, F9]))
    dim = draw(st.integers(3, 30))
    density = draw(st.sampled_from([0.05, 0.2, 0.6]))
    most = draw(st.sampled_from([1, 3]))
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


@st.composite
def spans(draw):
    table = draw(st.one_of(random_tables(), st.sampled_from(BUILT), perturbed_tables(), rewritten_tables()))
    gens = draw(st.lists(st.integers(0, table.dim - 1), min_size=1, max_size=5))
    return table, gens


@settings(max_examples=150, deadline=None)
@given(spans())
def test_span_matches_oracle(case):
    table, gens = case
    closure = liealg._RightNormedSpan(table)
    for g in gens:
        closure.adjoin(g)
    want, found = oracle_right_normed_span(table, gens)
    assert closure.span.pivots == want.pivots
    assert closure.span.rows == want.rows
    assert closure.found == found
    assert extend_to_generators(table, gens) == oracle_extend_to_generators(table, gens)


def test_span_brackets_only_stored_pairs(monkeypatch):
    # on W(1;3) at p = 3 every bracket the span takes has a stored pair
    # between the generator and the support of the found vector
    table = build_W1n(3, 3)
    taken = []
    real = liealg.bracket

    def recording(u, v):
        taken.append((u, v))
        return real(u, v)

    monkeypatch.setattr(liealg, "bracket", recording)
    closure = liealg._RightNormedSpan(table)
    for g in (0, table.dim - 1):
        closure.adjoin(g)
    assert closure.span.rank == table.dim and taken
    for g, u in taken:
        (i,) = g.coords
        assert any((min(i, m), max(i, m)) in table.brackets for m in u.coords)
