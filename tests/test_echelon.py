"""The echelon kernel against the dense Gauss-Jordan oracle, on random
matrices over F_3, F_4 and F_9, and change of basis against its inverse."""

import pytest
from hypothesis import given, settings, strategies as st

from oracles import oracle_rref
from thinlie.cartan import build_H2_second_derived, build_W1n
from thinlie.ffield import field_create
from thinlie.liealg import StructureTable, Subspace, change_basis, rref, subalgebra_table

F3, F4, F9 = field_create(3), field_create(2, 2), field_create(3, 2)
FIELDS = pytest.mark.parametrize("field", [F3, F4, F9], ids=["F3", "F4", "F9"])
TABLES = pytest.mark.parametrize(
    "table",
    [build_W1n(3, 2), build_W1n(2, 2, F4), build_H2_second_derived(3, 1, 1, F9)],
    ids=["W(1;2)/F3", "W(1;2)/F4", "H(2;1,1)^(2)/F9"],
)


def scalars(field):
    # about half of the draws are zero, so that dependent and sparse rows are common
    return st.integers(0, 2 * field.size - 1).map(lambda m: field.element_by_index(max(m - field.size, 0)))


def matrices(field, ncols, max_rows=6):
    row = st.lists(scalars(field), min_size=ncols, max_size=ncols)
    return st.lists(row, max_size=max_rows)


@st.composite
def invertible(draw, field, n):
    """P L U with L unit lower and U upper triangular with nonzero diagonal."""
    zero, one = field.zero, field.one
    nonzero = st.integers(1, field.size - 1).map(field.element_by_index)
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
    assert rref(field, rows) == oracle_rref(field, rows)


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
    span = Subspace.from_rows(table, rows)
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
    sub = subalgebra_table(table, [element(table, r) for r in rows], labels)
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
        subalgebra_table(table, [element(table, r) for r in rows])
