"""liealg._accumulate, the one sparse sum on discrete logs that bracket,
the ad columns (liealg._AdColumns), _combine and element addition share,
and liealg._nonzero, the one coercion they read coefficients through.

- Property: out += g^c * sum t_k b_k over a list of (c, terms) equals the
  same sum by FieldElement operators, in values and in key order, over
  F_2 (one unit), F_3, F_4, F_9 and F_49, with zero scales, zero terms,
  repeated keys and terms that cancel what out holds.
- Cases on every field: c = n - 1 with a term of log n - 1, the top of
  the log range; a zero term, which leaves out as it was; a key that
  cancels and then comes back, last.
- Coercion: ints and coordinate sequences are coerced as the operators
  coerce them, zeros left out in the order of the dict; an element of
  another field raises ValueError.
- Element addition and StructureTable.from_entries, which sum through
  _nonzero and _accumulate, against the same sums by the operators over
  F_2, F_4, F_9 and F_49: chains of additions with keys that cancel and
  come back, last; entries with repeated keys, repeated pairs and i > j.
  Both coerce ints, and an element of another field raises ValueError, as
  do a nonzero diagonal entry and an index out of range.
"""

import pytest
from hypothesis import given, settings, strategies as st

from thinlie.ffield import field_create
from thinlie.liealg import Element, StructureTable, _accumulate, _nonzero

FIELDS = [field_create(2), field_create(3), field_create(2, 2), field_create(3, 2), field_create(7, 2)]
IDS = [f"F{f.size}" for f in FIELDS]


def operator_sum(out, scaled):
    """out += c * sum t_k b_k by the operators, a cancelled key deleted."""
    for c, terms in scaled:
        for k, t in terms:
            x = c * t
            s = out.get(k)
            if s is not None:
                x = s + x
                if not x:
                    del out[k]
                    continue
            if x:
                out[k] = x
    return out


def check(out, scaled, field):
    """_accumulate on a copy of out against operator_sum on another."""
    got, want = dict(out), operator_sum(dict(out), scaled)
    _accumulate(got, [(c.log, terms) for c, terms in scaled], field._arith)
    assert got == want and list(got) == list(want), (out, scaled)
    assert all(v and v.spec is field for v in got.values())
    return got


@st.composite
def sums(draw):
    field = draw(st.sampled_from(FIELDS))
    elements = list(field.elements())
    nonzero = st.sampled_from(elements[1:])
    keys = st.integers(0, 5)
    out = draw(st.dictionaries(keys, nonzero, max_size=4))
    scaled = []
    for _ in range(draw(st.integers(0, 5))):
        c = draw(st.sampled_from(elements))
        terms = draw(st.lists(st.tuples(keys, st.sampled_from(elements)), max_size=4))
        if out and c and draw(st.booleans()):  # a term that cancels a key of out
            k = draw(st.sampled_from(sorted(out)))
            terms.insert(draw(st.integers(0, len(terms))), (k, -out[k] / c))
        scaled.append((c, terms))
    return field, out, scaled


@settings(max_examples=300, deadline=None)
@given(sums())
def test_accumulate_is_the_operator_sum(case):
    check(*case[1:], case[0])


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_the_top_of_the_log_range(field):
    n = field.size - 1
    top = next(x for x in field.elements() if x.log == n - 1)
    assert check({}, [(top, [(0, top)])], field) == {0: top * top}
    check({0: field.one, 1: top}, [(top, [(1, top), (0, top)])], field)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_a_zero_term_or_scale_adds_nothing(field):
    out = {3: field.one, 1: field.generator()}
    assert list(check(out, [(field.one, [(3, field.zero), (2, field.zero)])], field).items()) == list(out.items())
    assert list(check(out, [(field.zero, [(3, field.one), (2, field.one)])], field).items()) == list(out.items())


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_a_cancelled_key_comes_back_last(field):
    g = field.generator()
    out = {0: g, 1: field.one, 2: g}
    got = check(out, [(field.one, [(0, -g)]), (g, [(0, field.one)])], field)
    assert list(got) == [1, 2, 0] and got[0] == g


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_nonzero_coerces_as_the_operators(field):
    g = field.generator()
    coords = {4: 1, 0: field.zero, 2: g, 7: field.p, 5: [1] * field.k, 1: -1}
    got = _nonzero(field, coords)
    assert got == [(k, field.one * c) for k, c in coords.items() if field.one * c]
    assert all(c.spec is field for _, c in got)
    other = next(f for f in FIELDS if f != field)
    with pytest.raises(ValueError):
        _nonzero(field, {0: other.one})


SUM_FIELDS = [FIELDS[0], FIELDS[2], FIELDS[3], FIELDS[4]]  # F_2, F_4, F_9, F_49


def operator_add(u, v):
    """u + v on coordinate dicts by the operators, a cancelled key deleted."""
    out = dict(u)
    for k, c in v.items():
        s = out.get(k)
        s = c if s is None else s + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def operator_entries(field, entries):
    """The i < j brackets of from_entries summed by the operators."""
    acc = {}
    for i, j, terms in entries:
        sign = 1 if i < j else -1
        row = acc.setdefault((min(i, j), max(i, j)), {})
        for k, c in terms:
            c = row.get(k, field.zero) + (c if sign > 0 else -c)
            if c:
                row[k] = c
            else:
                row.pop(k, None)
    return {key: tuple(sorted(row.items())) for key, row in acc.items() if row}


@st.composite
def addition_chains(draw):
    field = draw(st.sampled_from(SUM_FIELDS))
    nonzero = st.sampled_from(list(field.elements())[1:])
    chain, total = [], {}
    for _ in range(draw(st.integers(1, 4))):
        v = draw(st.dictionaries(st.integers(0, 5), nonzero, max_size=4))
        if total and draw(st.booleans()):  # cancel a key of the running sum
            k = draw(st.sampled_from(sorted(total)))
            v[k] = -total[k]
        chain.append(v)
        total = operator_add(total, v)
    return field, chain


@settings(max_examples=300, deadline=None)
@given(addition_chains())
def test_element_addition_is_the_operator_sum(case):
    field, chain = case
    t = StructureTable(field, [f"b{k}" for k in range(6)], {})
    got, want = Element(t, {}), {}
    for v in chain:
        got, want = got + Element(t, v), operator_add(want, v)
        assert got.coords == want and list(got.coords) == list(want), chain
    assert all(c and c.spec is field for c in got.coords.values())


@st.composite
def entry_lists(draw):
    field = draw(st.sampled_from(SUM_FIELDS))
    index = st.integers(0, 3)
    terms = st.lists(st.tuples(index, st.sampled_from(list(field.elements()))), max_size=4)
    entries = draw(st.lists(st.tuples(index, index, terms).filter(lambda e: e[0] != e[1]), max_size=6))
    if entries and draw(st.booleans()):  # the same pair swapped cancels it
        i, j, ts = draw(st.sampled_from(entries))
        entries.append((j, i, ts))
    return field, entries


@settings(max_examples=300, deadline=None)
@given(entry_lists())
def test_from_entries_is_the_operator_sum(case):
    field, entries = case
    got = StructureTable.from_entries(field, ["a", "b", "c", "d"], entries).brackets
    want = operator_entries(field, entries)
    assert got == want and list(got) == list(want), entries
    assert all(c and c.spec is field for terms in got.values() for _, c in terms)


@pytest.mark.parametrize("field", SUM_FIELDS, ids=[f"F{f.size}" for f in SUM_FIELDS])
def test_sums_coerce_and_reject_another_field(field):
    t = StructureTable(field, ["a", "b", "c"], {})
    g = field.generator()
    u = Element(t, {0: g, 1: 1}) + Element(t, {1: -1, 2: 1, 0: -g}) + Element(t, {0: 1})
    assert list(u.coords.items()) == [(2, field.one), (0, field.one)]
    assert all(c.spec is field for c in u.coords.values())
    table = StructureTable.from_entries(field, ["a", "b", "c"], [(1, 0, [(2, 1), (2, 1)]), (0, 0, [(1, 0)])])
    assert table.brackets == ({} if field.p == 2 else {(0, 1): ((2, -field.element(2)),)})
    other = next(f for f in SUM_FIELDS if f != field)
    with pytest.raises(ValueError):
        Element(t, {0: g}) + Element(t, {0: other.one})
    with pytest.raises(ValueError):
        StructureTable.from_entries(field, ["a", "b"], [(0, 1, [(0, other.one)])])
    with pytest.raises(ValueError, match="nonzero diagonal"):
        StructureTable.from_entries(field, ["a", "b"], [(1, 1, [(0, g)])])
    with pytest.raises(ValueError, match="out of range"):
        StructureTable.from_entries(field, ["a", "b"], [(0, 2, [(0, g)])])
