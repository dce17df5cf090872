"""The echelon kernel against the dense Gauss-Jordan oracle, on random
dense matrices over F_3, F_4 and F_9 and on random sparse vectors over F_2,
F_3 and F_9, and against the sparse operator-based oracle, row by row and
key by key, over F_2 to F_49; the subalgebra-table oracle on element
families against the dense change-of-basis oracle, which is itself
checked against its inverse."""

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    OracleEchelon,
    change_basis,
    dense_row,
    element_by_index,
    oracle_rref,
    oracle_subalgebra_table,
)
from thinlie.cartan import build_H2_second_derived, build_W1n
from thinlie.ffield import field_create
from thinlie.liealg import Echelon, StructureTable, Subspace

F2, F3, F4, F9 = field_create(2), field_create(3), field_create(2, 2), field_create(3, 2)
F5, F25, F49 = field_create(5), field_create(5, 2), field_create(7, 2)
SPARSE_FIELDS = pytest.mark.parametrize("field", [F2, F3, F9], ids=["F2", "F3", "F9"])
FIELDS = pytest.mark.parametrize("field", [F3, F4, F9], ids=["F3", "F4", "F9"])
TABLES = pytest.mark.parametrize(
    "table",
    [build_W1n(3, 2), build_W1n(2, 2, F4), build_H2_second_derived(3, 1, 1, F9)],
    ids=["W(1;2)/F3", "W(1;2)/F4", "H(2;1,1)^(2)/F9"],
)


def scalars(field):
    # about half of the draws are zero, so that dependent and sparse rows are common
    return st.integers(0, 2 * field.size - 1).map(lambda m: element_by_index(field, max(m - field.size, 0)))


def matrices(field, ncols, max_rows=6):
    row = st.lists(scalars(field), min_size=ncols, max_size=ncols)
    return st.lists(row, max_size=max_rows)


@st.composite
def invertible(draw, field, n):
    """P L U with L unit lower and U upper triangular with nonzero diagonal."""
    zero, one = field.zero, field.one
    nonzero = st.integers(1, field.size - 1).map(lambda m: element_by_index(field, m))
    lower = [[draw(scalars(field)) if j < i else (one if j == i else zero) for j in range(n)] for i in range(n)]
    upper = [[draw(scalars(field)) if j > i else (draw(nonzero) if j == i else zero) for j in range(n)] for i in range(n)]
    prod = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = zero
            for k in range(n):
                acc = acc + lower[i][k] * upper[k][j]
            row.append(acc)
        prod.append(row)
    return [prod[i] for i in draw(st.permutations(range(n)))]


def oracle_inverse(field, rows):
    n = len(rows)
    aug = [list(r) + [field.one if j == i else field.zero for j in range(n)] for i, r in enumerate(rows)]
    return [row[n:] for row in oracle_rref(field, aug)]


def element(table, row):
    return table.element(dict(enumerate(row)))


@FIELDS
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_rref_matches_oracle(field, data):
    ncols = data.draw(st.integers(1, 7))
    rows = data.draw(matrices(field, ncols))
    ech = Echelon(field, ({i: c for i, c in enumerate(r) if c} for r in rows))
    assert [dense_row(field, ncols, ech.rows[pc]) for pc in ech.pivots] == oracle_rref(field, rows)


@FIELDS
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_contains_agrees_with_oracle_rank(field, data):
    ncols = data.draw(st.integers(1, 7))
    rows = data.draw(matrices(field, ncols))
    if rows and data.draw(st.booleans()):
        # a combination of the rows, which must be found inside
        coeffs = data.draw(st.lists(scalars(field), min_size=len(rows), max_size=len(rows)))
        vec = [field.zero] * ncols
        for c, row in zip(coeffs, rows):
            vec = [v + c * x for v, x in zip(vec, row)]
    else:
        vec = data.draw(st.lists(scalars(field), min_size=ncols, max_size=ncols))
    table = StructureTable(field, [f"a{i}" for i in range(ncols)], {})
    span = Subspace.from_elements(table, [element(table, r) for r in rows])
    rank = len(oracle_rref(field, rows))
    assert span.dim == rank
    assert span.contains(element(table, vec)) == (len(oracle_rref(field, rows + [vec])) == rank)


@TABLES
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_change_basis_then_inverse_is_identity(table, data):
    rows = data.draw(invertible(table.field, table.dim))
    labels = [f"v{i}" for i in range(table.dim)]
    conj = change_basis(table, rows, labels)
    back = change_basis(conj, oracle_inverse(table.field, rows), table.labels)
    assert back.brackets == table.brackets


@TABLES
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_subalgebra_table_on_invertible_rows_is_change_basis(table, data):
    rows = data.draw(invertible(table.field, table.dim))
    labels = [f"v{i}" for i in range(table.dim)]
    sub = oracle_subalgebra_table(table, [element(table, r) for r in rows], labels)
    assert sub.brackets == change_basis(table, rows, labels).brackets


@TABLES
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_singular_matrix_raises(table, data):
    n = table.dim
    rows = data.draw(invertible(table.field, n))
    i, j = data.draw(st.permutations(range(n)))[:2]
    c = data.draw(scalars(table.field))
    rows[i] = [c * x for x in rows[j]]
    with pytest.raises(ValueError):
        change_basis(table, rows, table.labels)
    with pytest.raises(ValueError):
        oracle_subalgebra_table(table, [element(table, r) for r in rows])


def nonzeros(field):
    return st.integers(1, field.size - 1).map(lambda m: element_by_index(field, m))


@st.composite
def sparse_family(draw, field, ncols, max_vectors=10):
    """Sparse {column: coefficient} vectors over ncols columns: random ones
    with at most ncols/5 nonzeros (at least one), then repeats, multiples
    and combinations of two earlier vectors, in a shuffled order."""
    support = max(1, ncols // 5)
    vec = st.dictionaries(st.integers(0, ncols - 1), nonzeros(field), max_size=support)
    vectors = draw(st.lists(vec, max_size=max_vectors // 2))
    for _ in range(draw(st.integers(0, max_vectors // 2)) if vectors else 0):
        u = draw(st.sampled_from(vectors))
        w = draw(st.sampled_from(vectors))
        a, b = draw(scalars(field)), draw(scalars(field))
        out = {}
        for v, c in ((u, a), (w, b)):
            for i, x in v.items():
                out[i] = out.get(i, field.zero) + c * x
        vectors.append({i: x for i, x in out.items() if x})
    return draw(st.permutations(vectors))


@SPARSE_FIELDS
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sparse_echelon_matches_oracle(field, data):
    ncols = data.draw(st.integers(1, 40))
    vectors = data.draw(sparse_family(field, ncols))
    ech = Echelon(field, vectors)
    want = oracle_rref(field, [dense_row(field, ncols, v) for v in vectors])
    assert [dense_row(field, ncols, ech.rows[pc]) for pc in ech.pivots] == want
    assert ech.pivots == [next(i for i, c in enumerate(row) if c) for row in want]
    assert all(c for row in ech.rows.values() for c in row.values())


@SPARSE_FIELDS
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sparse_subspace_equality_and_hash_follow_dense_rows(field, data):
    ncols = data.draw(st.integers(1, 40))
    table = StructureTable(field, [f"a{i}" for i in range(ncols)], {})
    left = data.draw(sparse_family(field, ncols))
    if data.draw(st.booleans()):
        # the same vectors in another order and scaling, so the same span
        order = data.draw(st.permutations(left))
        scales = data.draw(st.lists(nonzeros(field), min_size=len(order), max_size=len(order)))
        right = [{i: c * x for i, x in v.items()} for v, c in zip(order, scales)]
    else:
        right = data.draw(sparse_family(field, ncols))
    a = Subspace(table, Echelon(field, left))
    b = Subspace.from_elements(table, [table.element(v) for v in right])
    want = oracle_rref(field, [dense_row(field, ncols, v) for v in left])
    same = want == oracle_rref(field, [dense_row(field, ncols, v) for v in right])
    assert (a == b) == same
    assert [dense_row(field, ncols, a.echelon.rows[pc]) for pc in a.pivots] == want
    if same:
        assert hash(a) == hash(b)


@SPARSE_FIELDS
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sparse_contains_agrees_with_oracle_rank(field, data):
    ncols = data.draw(st.integers(1, 40))
    table = StructureTable(field, [f"a{i}" for i in range(ncols)], {})
    family = data.draw(sparse_family(field, ncols))
    # fresh vectors, members of the family and combinations of both
    candidates = data.draw(sparse_family(field, ncols, max_vectors=4)) + family[:2]
    span = Subspace.from_elements(table, [table.element(v) for v in family])
    rows = [dense_row(field, ncols, v) for v in family]
    rank = len(oracle_rref(field, rows))
    assert span.dim == rank
    for v in candidates:
        inside = len(oracle_rref(field, rows + [dense_row(field, ncols, v)])) == rank
        assert span.contains(table.element(v)) == inside
        assert (not span.echelon.reduce(v)) == inside


@pytest.mark.parametrize(
    "field", [F2, F3, F4, F5, F9, F25, F49], ids=["F2", "F3", "F4", "F5", "F9", "F25", "F49"]
)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_log_echelon_matches_operator_oracle(field, data):
    # rows, pivots, add's verdicts and residuals, in values and key order;
    # the wide vectors may hold zero coefficients and come in any key order
    ncols = data.draw(st.integers(1, 30))
    wide = st.dictionaries(st.integers(0, ncols - 1), scalars(field), max_size=ncols)
    vectors = data.draw(sparse_family(field, ncols)) + data.draw(st.lists(wide, max_size=3))
    vectors = data.draw(st.permutations(vectors))
    probes = data.draw(sparse_family(field, ncols, max_vectors=4)) + data.draw(st.lists(wide, max_size=3))
    ech, oracle = Echelon(field), OracleEchelon(field)
    for v in vectors:
        assert ech.add(v) == oracle.add(v)
    assert [(pc, list(row.items())) for pc, row in ech.rows.items()] == [
        (pc, list(row.items())) for pc, row in oracle.rows.items()
    ]
    assert ech.pivots == oracle.pivots
    for v in probes + vectors[:2]:
        assert list(ech.reduce(v).items()) == list(oracle.reduce(v).items())


@pytest.mark.parametrize("foreign", [(3, 2, 1), (3, 2, 3), (5, 1, 1)])
def test_echelon_rejects_coefficients_of_another_field(foreign):
    # over F_3, a coefficient of F_9 or F_5 raises whether it meets a pivot or not
    c = element_by_index(field_create(*foreign[:2]), foreign[2])
    with pytest.raises(ValueError):
        Echelon(F3, [{0: c}])
    ech = Echelon(F3, [{0: F3.one}])
    for vec in ({0: c}, {1: c}, {0: F3.one, 2: c}):
        with pytest.raises(ValueError):
            ech.reduce(vec)
        with pytest.raises(ValueError):
            ech.add(vec)
    assert ech.pivots == [0] and ech.rows == {0: {0: F3.one}}


def test_basis_elements_are_built_once_and_returned_as_fresh_lists():
    table = build_W1n(3, 2)
    span = Subspace.from_elements(table, [table.element({0: F3.one, 4: F3.element(2)}), table.basis_element(3)])
    first = span.basis_elements()
    assert span.basis_elements() == first
    first.append(table.basis_element(5))
    first.reverse()
    again = span.basis_elements()
    assert again == span.basis_elements() and len(again) == 2
    assert [e.coords for e in again] == [{0: F3.one, 4: F3.element(2)}, {3: F3.one}]
