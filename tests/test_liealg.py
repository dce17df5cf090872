import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    Subspace,
    centralizer_in,
    coordinate_span,
    dense_row,
    derived_subalgebra,
    element_by_index,
    full_subspace,
    oracle_center,
    oracle_bracket,
    oracle_quotient_by_ideal,
    oracle_right_normed_span,
    oracle_rref,
    oracle_subalgebra_table,
    subalgebra_generated,
)
from test_span import BUILT
from thinlie.cartan import build_H2_phi1, build_W1n, phi1_monomials
from thinlie.errors import NotAnIdeal, NotASubalgebra, TableMismatch
from thinlie.ffield import field_create
from thinlie.grading import eigenbasis, grade_mixed, params_from_mu3, toral_params
from thinlie.liealg import (
    DegreeMap,
    _combine,
    Echelon,
    Element,
    StructureTable,
    bracket,
    center,
    quotient_by_ideal,
    subalgebra_table,
    check_structure_map,
    validate_grading,
    validate_table,
)

F3 = field_create(3)


def w11():
    return build_W1n(3, 1)


def abelian(n=2, fieldspec=F3):
    return StructureTable.from_entries(fieldspec, [f"a{i}" for i in range(n)], [])


def three_dim(brackets, fieldspec=F3):
    one = fieldspec.one
    entries = [(i, j, [(k, one * c) for k, c in terms.items()])
               for (i, j), terms in brackets.items()]
    return StructureTable.from_entries(fieldspec, ["a", "b", "c"], entries)


def test_bracket_examples():
    t = w11()
    assert bracket(t.basis_element(0), t.basis_element(2)) == t.basis_element(1)
    assert bracket(t.basis_element(1), t.basis_element(2)) == t.basis_element(2)
    u = t.element({0: F3.one, 2: F3.element(2)})
    assert not bracket(u, u)


def test_bracket_table_mismatch():
    with pytest.raises(TableMismatch):
        bracket(w11().basis_element(0), w11().basis_element(1))


@pytest.mark.parametrize("side", ["u", "v"])
@pytest.mark.parametrize("foreign", [(3, 2, 1), (3, 2, 3), (5, 1, 1)])
def test_bracket_rejects_coefficients_of_another_field(side, foreign):
    # [b_0, b_2] = b_1 in W(1;1) over F_3; a coefficient of F_9 or F_5 on
    # either side raises as the FieldElement operators do
    t = w11()
    p, k, m = foreign
    c = element_by_index(field_create(p, k), m)
    u, v = Element(t, {0: c}), t.basis_element(2)
    if side == "v":
        u, v = t.basis_element(2), Element(t, {0: c})
    with pytest.raises(ValueError):
        bracket(u, v)


BRACKET_FIELDS = [field_create(2), field_create(3), field_create(2, 2), field_create(2, 3),
                  field_create(3, 2), field_create(5, 2), field_create(7, 2)]


@st.composite
def hand_built_brackets(draw):
    """A table made by StructureTable(...) itself and a few elements of it.

    Stored rows have one to four terms, may repeat a target and may store a
    zero coefficient; the table may also hold a diagonal key and a key
    (j, i) with j > i, which no bracket reads.  [b_0, b_1], [b_0, b_2] and
    [b_0, b_3] all hit one target t, the second cancelling the first, so
    [b_0, b_1 + b_2 + b_3] deletes t and then adds it back after t + 1.
    Elements are built directly, so they may hold zero coefficients, in any
    key order; one of them is empty.
    """
    field = draw(st.sampled_from(BRACKET_FIELDS))
    dim = draw(st.integers(4, 8))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))

    def coeff(zero_share=0.0):
        if rng.random() < zero_share:
            return field.zero
        return element_by_index(field, rng.randrange(1, field.size))

    brackets = {
        (i, j): tuple((rng.randrange(dim), coeff(0.15)) for _ in range(rng.randint(1, 4)))
        for i in range(dim)
        for j in range(dim)
        if (i < j or rng.random() < 0.1) and rng.random() < 0.6
    }
    t, c = rng.randrange(dim), coeff()
    brackets[(0, 1)] = ((t, c), ((t + 1) % dim, coeff()))
    brackets[(0, 2)] = ((t, -c),)
    brackets[(0, 3)] = ((t, coeff()),)
    table = StructureTable(field, [f"b{i}" for i in range(dim)], brackets)

    def element():
        support = rng.sample(range(dim), rng.randint(1, dim))
        return Element(table, {i: coeff(0.25) for i in support})

    one = field.one
    planted = [Element(table, {0: one}), Element(table, {1: one, 2: one, 3: one})]
    return planted + [element() for _ in range(4)] + [Element(table, {})]


@settings(max_examples=150, deadline=None)
@given(hand_built_brackets())
def test_bracket_matches_operator_oracle(elements):
    # values and key order: a cancelled target that comes back is last
    for u in elements:
        for v in elements:
            assert list(bracket(u, v).coords.items()) == list(oracle_bracket(u, v).coords.items())
    table = elements[0].table
    (t, _), = table.brackets[(0, 2)]
    assert list(bracket(elements[0], elements[1]).coords)[-1:] == [t]


def test_validate_table_passes_w12_and_abelian():
    assert validate_table(build_W1n(3, 2)).ok
    assert validate_table(abelian(1)).ok


def test_validate_table_fails_on_broken_table():
    # [a,b]=c, [a,c]=a, [b,c]=b violates Jacobi: J(a,b,c) = -2c
    bad = three_dim({(0, 1): {2: 1}, (0, 2): {0: 1}, (1, 2): {1: 1}})
    report = validate_table(bad)
    assert not report.ok
    assert (0, 1, 2) in report.violations


def test_twisted_heisenberg_satisfies_jacobi():
    # [a,b]=c, [a,c]=0, [b,c]=a: every term of J(a,b,c) vanishes, so this
    # "corruption" is in fact a Lie algebra and the scan accepts it.
    t = three_dim({(0, 1): {2: 1}, (1, 2): {0: 1}})
    assert validate_table(t).ok


def test_subalgebra_generated_zero():
    t = w11()
    assert subalgebra_generated(t, [t.element({})]).dim == 0


def test_subalgebra_generated_full_phi1():
    f9 = field_create(3, 2)
    table = build_H2_phi1(3, 1, 1, f9, 1)
    basis = eigenbasis(table, params_from_mu3(f9.generator()))
    x = basis.vectors[basis.position(1, 1)]
    y = basis.vectors[basis.position(-1, 1)]
    assert subalgebra_generated(table, [x, y]).dim == 9


def test_subalgebra_generated_sigma_zero_zassenhaus():
    table = build_H2_phi1(3, 1, 1, F3, 1)
    basis = eigenbasis(table, toral_params(F3, 0, eps=1))
    x = basis.vectors[basis.position(1, 0)]
    y = basis.vectors[basis.position(-1, 0)]
    span = subalgebra_generated(table, [x, y])
    assert span.dim == 3
    # idempotent: generating from a basis of the output returns the same span
    assert subalgebra_generated(table, span.basis_elements()) == span


def test_derived_subalgebra_examples():
    w22 = build_W1n(2, 2)
    derived = derived_subalgebra(w22, full_subspace(w22))
    assert derived.dim == 3
    assert not derived.contains(w22.basis_element(3))  # E_{p^n - 2} drops out
    assert derived_subalgebra(abelian(), full_subspace(abelian())).dim == 0
    h = build_H2_phi1(2, 1, 1, field_create(2), 1)
    assert derived_subalgebra(h, full_subspace(h)).dim == 3


def test_derived_chain_inclusions():
    t = build_H2_phi1(3, 1, 1, F3, 0)
    full = full_subspace(t)
    d1 = derived_subalgebra(t, full)
    d2 = derived_subalgebra(t, d1)
    assert all(map(full.contains, d1.basis_elements())) and all(map(d1.contains, d2.basis_elements()))


def test_derived_requires_subalgebra():
    t = w11()
    two = Subspace.from_elements(t, [t.basis_element(0) + t.basis_element(2), t.basis_element(2)])
    # span{E_-1 + E_1, E_1} is not closed: [E_-1, E_1] = E_0 escapes
    with pytest.raises(NotASubalgebra):
        derived_subalgebra(t, two)


def test_center_examples():
    hhat = build_H2_phi1(3, 1, 1, F3, 0)
    c = oracle_center(hhat, full_subspace(hhat))
    mons = phi1_monomials(3, 1, 1)
    assert c.dim == 1 and c.contains(hhat.basis_element(mons.index((0, 0))))
    assert center(hhat) == (mons.index((0, 0)),)
    f9 = field_create(3, 2)
    simple = build_H2_phi1(3, 1, 1, f9, 1)
    assert oracle_center(simple, full_subspace(simple)).dim == 0
    assert center(simple) == ()
    ab = abelian()
    assert oracle_center(ab, full_subspace(ab)).dim == 2
    assert center(ab) == (0, 1)


def _hhat_and_constant():
    """H(2;(1,1);Phi(1)) at p = 3 with eps = 0 and the position of its
    constant monomial, which spans the center."""
    return build_H2_phi1(3, 1, 1, F3, 0), phi1_monomials(3, 1, 1).index((0, 0))


def _hand_table():
    """A table with a repeated target, a stored zero, a pair whose two terms
    cancel and a pair that vanishes modulo the line of a3."""
    one, two = F3.one, F3.element(2)
    return StructureTable(F3, ["a0", "a1", "a2", "a3"], {
        (0, 1): ((2, one), (3, one), (2, one)), (0, 2): ((3, F3.zero),), (0, 3): ((1, one), (1, two)),
        (1, 2): ((3, two),),
    })


def _oracle(t, drop):
    return oracle_quotient_by_ideal(t, coordinate_span(t, drop))


def test_quotient_by_center():
    hhat, constant = _hhat_and_constant()
    assert oracle_center(hhat, full_subspace(hhat)) == coordinate_span(hhat, [constant])
    assert center(hhat) == (constant,)
    q = quotient_by_ideal(hhat, [constant])
    assert q.dim == 8
    assert validate_table(q).ok


def test_quotient_by_zero_ideal_is_copy():
    t = w11()
    q = quotient_by_ideal(t, [])
    assert q.dim == t.dim and q.brackets == t.brackets


def test_quotient_by_ideal_matches_bracket_oracle():
    # each product of kept basis vectors, by oracle_bracket, reduced modulo the ideal
    hhat, constant = _hhat_and_constant()
    for t, drop in [(hhat, [constant]), (_hand_table(), [3]), (w11(), [])]:
        assert json.dumps(quotient_by_ideal(t, drop).to_json()) == json.dumps(_oracle(t, drop).to_json())


def test_quotient_rejects_non_ideal():
    t = w11()
    for quotient in (quotient_by_ideal, _oracle):
        with pytest.raises(NotAnIdeal):
            quotient(t, [2])


@st.composite
def position_sets(draw):
    """A builder table, the eps = 0 table or the hand table, and distinct
    basis positions: half of the time closed into the coordinate ideal they
    generate (through every stored pair that touches the set, which on these
    tables is an ideal), otherwise as drawn, which is seldom an ideal."""
    table = draw(st.sampled_from(BUILT + [_hhat_and_constant()[0], _hand_table()]))
    drop = set(draw(st.lists(st.integers(0, table.dim - 1), min_size=1, max_size=table.dim, unique=True)))
    if draw(st.booleans()):
        while True:
            grown = drop | {k for (i, j), terms in table.brackets.items() if i in drop or j in drop
                            for k, c in terms if c}
            if grown == drop:
                break
            drop = grown
    return table, sorted(drop)


@settings(max_examples=150, deadline=None)
@given(position_sets())
def test_quotient_by_ideal_matches_oracle_on_position_sets(case):
    table, drop = case
    try:
        want = _oracle(table, drop)
    except NotAnIdeal:
        with pytest.raises(NotAnIdeal):
            quotient_by_ideal(table, drop)
        return
    assert json.dumps(quotient_by_ideal(table, drop).to_json()) == json.dumps(want.to_json())


def test_centralizer_examples():
    f25 = field_create(5, 2)
    table = build_H2_phi1(5, 1, 1, f25, 1)
    basis = eigenbasis(table, params_from_mu3(f25.generator()))
    et = basis.eigen_table
    x = et.basis_element(basis.position(1, 1))
    y = et.basis_element(basis.position(-3, 1))
    m1 = Subspace.from_elements(et, [x, y])
    m2 = Subspace.from_elements(et, [bracket(x, y)])
    cent = centralizer_in(et, m1, m2)
    assert cent == Subspace.from_elements(et, [y])
    assert centralizer_in(et, m1, Subspace.from_elements(et, [])) == m1
    # the component before the second diamond is centralized by neither alone
    m = m1
    for _ in range(2, 5):
        m = Subspace.from_elements(
            et, [bracket(u, v) for u in m.basis_elements() for v in (x, y)]
        )
    assert centralizer_in(et, m1, m).dim == 0


def test_validate_grading_examples():
    table = build_H2_phi1(3, 1, 1, F3, 1)
    dm = grade_mixed(table, 3, 3)
    assert validate_grading(table, dm)
    corrupted = list(dm.degrees)
    corrupted[phi1_monomials(3, 1, 1).index((1, 0))] += 1
    assert not validate_grading(table, DegreeMap(dm.modulus, tuple(corrupted)))
    assert validate_grading(abelian(), DegreeMap(5, (0, 3)))


def test_graded_centralizers_are_graded():
    table = build_H2_phi1(3, 1, 1, F3, 1)
    dm = grade_mixed(table, 3, 3)
    full = full_subspace(table)
    mons = phi1_monomials(3, 1, 1)
    target = Subspace.from_elements(table, [table.basis_element(mons.index((1, 0)))])
    cent = centralizer_in(table, full, target)
    for e in cent.basis_elements():
        degrees = {dm.degrees[i] for i in e.coords}
        assert len(degrees) == 1


def test_check_structure_map_identity_and_zero():
    t = w11()
    assert check_structure_map(t, t, [t.basis_element(i) for i in range(3)])
    assert not check_structure_map(t, t, [t.element({})] * 3)


def test_subalgebra_table_requires_closure():
    t = w11()
    with pytest.raises(NotASubalgebra):
        subalgebra_table(t, [0, 2])


def test_subalgebra_table_rejects_repeated_positions():
    with pytest.raises(ValueError, match="repeat"):
        subalgebra_table(w11(), [0, 1, 0])


@st.composite
def coordinate_sets(draw):
    """A builder table and basis positions in random order: half of the time
    the positions reached from a few generators, a closed set, otherwise
    any distinct positions, which are seldom closed."""
    table = draw(st.sampled_from(BUILT))
    positions = st.integers(0, table.dim - 1)
    if draw(st.booleans()):
        gens = draw(st.lists(positions, min_size=1, max_size=3))
        keep = oracle_right_normed_span(table, gens)[0].pivots
    else:
        keep = draw(st.lists(positions, min_size=1, max_size=table.dim, unique=True))
    return table, draw(st.permutations(keep))


@settings(max_examples=120, deadline=None)
@given(coordinate_sets())
def test_subalgebra_table_matches_oracle_on_coordinate_sets(case):
    table, keep = case
    try:
        want = oracle_subalgebra_table(table, [table.basis_element(i) for i in keep])
    except NotASubalgebra:
        with pytest.raises(NotASubalgebra):
            subalgebra_table(table, keep)
        return
    assert json.dumps(subalgebra_table(table, keep).to_json()) == json.dumps(want.to_json())


def test_rref_is_canonical():
    rng = random.Random(11)
    t = build_W1n(3, 2)
    vecs = [
        t.element({i: F3.element(rng.randrange(3)) for i in range(9)})
        for _ in range(5)
    ]
    rows = [v.coords for v in vecs]
    shuffled = rows[:]
    rng.shuffle(shuffled)
    scaled = [{i: F3.element(2) * c for i, c in row.items()} for row in rows]
    want = oracle_rref(F3, [dense_row(F3, 9, row) for row in rows])
    for family in (rows, shuffled, scaled):
        ech = Echelon(F3, family)
        assert [dense_row(F3, 9, ech.rows[pc]) for pc in ech.pivots] == want


def test_table_json_roundtrip():
    f9 = field_create(3, 2)
    table = build_H2_phi1(3, 1, 1, f9, f9.generator())
    again = StructureTable.from_json(table.to_json())
    assert again.labels == table.labels
    assert again.field == table.field
    assert again.brackets == table.brackets


def test_degree_map_json_roundtrip():
    dm = DegreeMap(6, (1, 2, 3, 4, 5, 0, 1, 2, 3))
    assert DegreeMap.from_json(dm.to_json()) == dm


@pytest.mark.parametrize("field", BRACKET_FIELDS, ids=lambda f: f"F{f.size}")
def test_combine_is_the_operator_sum(field):
    # the sparse sum on discrete logs against FieldElement operators, with
    # zero scalars and cancellations: equal dicts, key order included
    rng = random.Random(field.size)

    def operator_sum(pairs):
        out = {}
        for c, v in pairs:
            for i, x in v.items():
                s = out.get(i)
                s = c * x if s is None else s + c * x
                if s:
                    out[i] = s
                else:
                    out.pop(i, None)
        return out

    for _ in range(200):
        pairs = []
        for _ in range(rng.randint(0, 5)):
            c = element_by_index(field, rng.randrange(field.size))  # index 0 is zero
            v = {i: element_by_index(field, rng.randrange(1, field.size))
                 for i in rng.sample(range(6), rng.randint(0, 6))}
            pairs.append((c, v))
            if v and rng.random() < 0.3:
                pairs.append((-c, dict(v)))  # cancels the pair before it
        got = _combine(pairs)
        want = operator_sum(pairs)
        assert got == want and list(got) == list(want)


def test_structure_map_reads_image_coefficients_as_bracket_does():
    # an int coefficient or a stored zero in an image is coerced or skipped
    t = w11()
    zero = t.field.zero
    assert check_structure_map(t, t, [Element(t, {i: 1, (i + 1) % 3: zero}) for i in range(3)])
    assert check_structure_map(t, t, [Element(t, {i: 2}) for i in range(3)]).check == "intertwining"
