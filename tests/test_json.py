"""JSON round trips of structure tables, degree maps, fields and field
elements: reading back what was written and writing it again gives the same
bytes, and a field read back is the shared FieldSpec object itself."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from oracles import element_by_index
from thinlie.ffield import FieldSpec, field_create
from thinlie.liealg import DegreeMap, StructureTable

FIELDS = [field_create(2), field_create(3), field_create(3, 2), field_create(3, 2, [2, 1, 1])]
FIELD_IDS = ["F2", "F3", "F9", "F9-t2+t+2"]


def text(obj) -> str:
    return json.dumps(obj.to_json(), sort_keys=True)


def scalars(field):
    return st.integers(0, field.size - 1).map(lambda m: element_by_index(field, m))


@st.composite
def tables(draw, field):
    dim = draw(st.integers(1, 8))
    index = st.integers(0, dim - 1)
    entries = draw(st.lists(
        st.tuples(index, index, st.lists(st.tuples(index, scalars(field)), max_size=3)),
        max_size=12,
    ))
    # from_entries rejects nonzero diagonal brackets; keep the diagonal empty
    entries = [(i, j, terms) for i, j, terms in entries if i != j]
    return StructureTable.from_entries(field, [f"b{i}" for i in range(dim)], entries)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_table_json_round_trip(field, data):
    table = data.draw(tables(field))
    back = StructureTable.from_json(json.loads(text(table)))
    assert text(back) == text(table)
    assert back.field is field
    assert back.labels == table.labels and back.brackets == table.brackets


@settings(max_examples=100, deadline=None)
@given(modulus=st.integers(1, 40), degrees=st.lists(st.integers(-100, 100), max_size=30))
def test_degree_map_json_round_trip(modulus, degrees):
    dm = DegreeMap(modulus, tuple(degrees))
    back = DegreeMap.from_json(json.loads(text(dm)))
    assert back == dm
    assert text(back) == text(dm)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_field_and_element_json_round_trip(field, data):
    assert FieldSpec.from_json(json.loads(text(field))) is field
    x = data.draw(scalars(field))
    back = field.element(json.loads(json.dumps(x.to_json())))
    assert back is x
    assert json.dumps(back.to_json()) == json.dumps(x.to_json())
