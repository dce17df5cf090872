"""liealg._accumulate, the one sparse sum on discrete logs that bracket,
the ad columns (liealg._AdColumns), _combine and Echelon share, and
liealg._nonzero, the one coercion they read coefficients through.

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
"""

import pytest
from hypothesis import given, settings, strategies as st

from thinlie.ffield import field_create
from thinlie.liealg import _accumulate, _nonzero

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
