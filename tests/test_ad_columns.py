"""liealg._AdColumns, ad u for a fixed sparse u on discrete logs, with
each column summed from the stored pairs, and the check that reads it: the
intertwining of the structure-map certificates (liealg._intertwining).

- Property: ad(v) equals bracket(u, v).coords, and each kept column m
  is bracket(u, b_m), key order included, on builder tables and on
  hand-built multi-term tables over F_2, F_4 and F_9 with repeated
  targets, stored zero coefficients and terms that cancel, one kernel
  applied to several v so that kept columns are read again.
- Reads: on every finite and eps-zero sweep input, the certificate of
  verify.identify (verify._identified) reads each monomial product at most
  once per generator.
- Mutations: one changed coefficient of the target table that the
  intertwining reads gives the MapCheck of the pair-by-pair check by
  bracket (oracles.oracle_intertwining): a monomial coefficient through
  verify.identify, and a coefficient of W(1;2) over F_9 through
  check_structure_map on the map of suite row 03, from the group basis
  (cartan.zassenhaus_group_basis).  check_structure_map refuses images
  that live on another table than the one whose products it reads.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from oracles import monomial_images, oracle_intertwining
from test_az_rule import TORAL, _basis, _id, _params
from thinlie import verify
from thinlie.cartan import build_H2_phi1, build_W1n, zassenhaus_group_basis
from thinlie.errors import TableMismatch
from thinlie.ffield import field_create
from thinlie.grading import _generators
from thinlie.liealg import (
    Element,
    StructureTable,
    _AdColumns,
    _nonzero,
    bracket,
    check_structure_map,
)
from thinlie.verify import _identified, identify

FIELDS = [field_create(2), field_create(2, 2), field_create(3, 2)]

BUILT = [
    build_W1n(2, 3),
    build_W1n(3, 2, FIELDS[2]),
    build_H2_phi1(2, 1, 2, FIELDS[1]),
    build_H2_phi1(3, 1, 1, FIELDS[2]),
]


@st.composite
def _hand_built(draw):
    # repeated targets, stored zeros and a term followed by its negative
    field = draw(st.sampled_from(FIELDS))
    elements = list(field.elements())
    dim = draw(st.integers(2, 6))
    brackets = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            terms = draw(st.lists(st.tuples(st.integers(0, dim - 1), st.sampled_from(elements)), max_size=3))
            if terms and draw(st.booleans()):
                k, c = terms[0]
                terms.append((k, -c))
            if terms:
                brackets[i, j] = tuple(terms)
    return StructureTable(field, [f"b{i}" for i in range(dim)], brackets)


def _vector(draw, table):
    elements = list(table.field.elements())
    return draw(st.dictionaries(st.integers(0, table.dim - 1), st.sampled_from(elements), max_size=table.dim))


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.sampled_from(BUILT), _hand_built()), st.data())
def test_ad_columns_is_the_bracket(table, data):
    u = _vector(data.draw, table)
    ad = _AdColumns(table, u)
    for _ in range(3):
        v = _vector(data.draw, table)
        want = bracket(Element(table, u), Element(table, v)).coords
        assert ad(v) == want, (u, v)
    for m, column in ad.columns.items():
        want = bracket(Element(table, u), table.basis_element(m)).coords
        assert column == list(want.items()), (u, m)


def test_ad_columns_cancel_to_zero():
    # [b0 + b1, b2] with [b0, b2] = -[b1, b2]: every term cancels
    f9 = FIELDS[2]
    c = f9.generator()
    table = StructureTable(f9, ["a", "b", "c"], {(0, 2): ((1, c),), (1, 2): ((1, -c), (0, c), (0, -c))})
    ad = _AdColumns(table, {0: f9.one, 1: f9.one})
    assert ad({2: c}) == {} == bracket(Element(table, {0: f9.one, 1: f9.one}), table.basis_element(2)).coords


class CountingDict(dict):
    """A bracket dict that counts its reads by key."""

    def __init__(self, *args):
        super().__init__(*args)
        self.reads = Counter()

    def get(self, key, default=None):
        self.reads[key] += 1
        return super().get(key, default)


FINITE_AND_EPS_ZERO = [args for args in TORAL if args[1] in ("finite", "eps-zero")]


@pytest.mark.parametrize("args", FINITE_AND_EPS_ZERO, ids=_id)
def test_certificate_reads_each_monomial_product_once_per_generator(args):
    basis = _basis(*_params(args))
    table, vectors = monomial_images(basis)
    table.brackets = counting = CountingDict(table.brackets)
    assert _identified(basis, table, vectors)
    gens = _generators(basis)
    assert counting.reads and max(counting.reads.values()) <= len(gens), (len(gens), counting.reads.most_common(1))


def _changed_coefficient(table, key, data):
    # one term of the stored pair key gets another nonzero coefficient
    terms = table.brackets[key]
    t = data.draw(st.integers(0, len(terms) - 1))
    k, c = terms[t]
    new = data.draw(st.sampled_from([a for a in table.field.elements() if a and a != c]))
    table.brackets[key] = terms[:t] + ((k, new),) + terms[t + 1:]


# finite at q <= 25 and eps-zero at p <= 5
MUTATED = [args for args in FINITE_AND_EPS_ZERO if int(args[5]) <= 25 and int(args[3]) <= 5][::2]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(MUTATED), st.data())
def test_a_changed_monomial_coefficient_gives_the_bracket_check(args, data):
    p, n2, params = _params(args)
    basis = _basis(p, n2, params)
    (table, vectors), et = monomial_images(basis), basis.eigen_table
    gens = _generators(basis)
    g = data.draw(st.sampled_from(gens))
    support = vectors[g].coords
    read = sorted(key for key in table.brackets if key[0] in support or key[1] in support)  # by ad phi g
    _changed_coefficient(table, data.draw(st.sampled_from(read)), data)
    want = oracle_intertwining(et, vectors, [v.coords for v in vectors], gens)
    assert want.check == "intertwining"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "build_H2_phi1", lambda *a: table)
        assert identify(p, n2, params) == [f"eigen table certificate: {want}"]


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_a_changed_w_coefficient_under_the_group_basis_map_gives_the_bracket_check(data):
    # suite row 03: e_alpha -> its E-coordinates, group basis onto W(1;2) over F_9
    field = FIELDS[2]
    group, transition = zassenhaus_group_basis(3, 2, field)
    w = build_W1n(3, 2, field)
    images = [w.element(coords) for coords in transition]
    assert check_structure_map(group, w, images)
    _changed_coefficient(w, data.draw(st.sampled_from(sorted(w.brackets))), data)
    vecs = [dict(_nonzero(field, v.coords)) for v in images]
    want = oracle_intertwining(group, images, vecs, range(group.dim))
    assert want.check == "intertwining"
    assert check_structure_map(group, w, images) == want


def test_structure_map_images_must_live_on_dst():
    # the intertwining reads the products of dst, so images elsewhere are refused
    table, other = build_W1n(2, 3), build_W1n(2, 3)
    assert check_structure_map(table, table, [table.basis_element(i) for i in range(table.dim)])
    with pytest.raises(TableMismatch):
        check_structure_map(table, table, [other.basis_element(i) for i in range(table.dim)])
