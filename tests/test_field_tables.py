"""The log/Zech-table arithmetic of FieldElement against the polynomial
kernels FieldSpec._add, _neg and _mul, with inverses as a^(q-2) by repeated
_mul, over prime and extension fields in characteristic 2, 3, 5, 7 and 11;
and a copy or pickle of a field, an element or the type marker INFINITY is
the shared object itself."""

import copy
import operator
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import element_by_index
from thinlie.ffield import field_create
from thinlie.grading import params_from_mu3
from thinlie.thinloop import INFINITY, DiamondRecord

FIELDS = [
    field_create(2), field_create(2, 2), field_create(2, 3),
    field_create(3), field_create(3, 2), field_create(3, 3),
    field_create(5, 2), field_create(7, 2), field_create(11, 2), field_create(3, 6),
    field_create(3, 2, [2, 1, 1]),
]


def kernel_pow(spec, a, e):
    """a^e for e >= 0 by square and multiply with the _mul kernel."""
    out = spec.one.coords
    while e:
        if e & 1:
            out = spec._mul(out, a)
        a = spec._mul(a, a)
        e >>= 1
    return out


def kernel_inv(spec, a):
    if not any(a):
        raise ZeroDivisionError
    return kernel_pow(spec, a, spec.size - 2)


def coords_of(spec, value):
    """Coordinates of an operand: an element, or an int in the prime field."""
    if isinstance(value, int):
        return (value % spec.p,) + (0,) * (spec.k - 1)
    return value.coords


def kernel(spec, op, a, b):
    a, b = coords_of(spec, a), coords_of(spec, b)
    if op is operator.add:
        return spec._add(a, b)
    if op is operator.sub:
        return spec._add(a, spec._neg(b))
    if op is operator.mul:
        return spec._mul(a, b)
    return spec._mul(a, kernel_inv(spec, b))


@st.composite
def operands(draw):
    """A field, an element and another operand: an element or, one time in
    three, an int of either sign.  Elements are zero one time in four and
    otherwise uniform, drawn from a seeded generator so that their logs
    spread over the whole table."""
    spec = draw(st.sampled_from(FIELDS))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))

    def element():
        return spec.zero if rng.random() < 0.25 else element_by_index(spec, rng.randrange(spec.size))

    other = rng.randint(-3 * spec.p, 3 * spec.p) if rng.random() < 1 / 3 else element()
    return spec, element(), other


def assert_same(spec, got, want):
    assert got.spec is spec
    assert got.coords == want
    assert got is spec.element(list(want))


@settings(max_examples=300, deadline=None)
@given(operands(), st.sampled_from([operator.add, operator.sub, operator.mul, operator.truediv]),
       st.booleans())
def test_binary_operators_match_kernels(args, op, swap):
    spec, a, b = args
    x, y = (b, a) if swap else (a, b)
    if not any(coords_of(spec, y)) and op is operator.truediv:
        with pytest.raises(ZeroDivisionError):
            op(x, y)
        return
    assert_same(spec, op(x, y), kernel(spec, op, x, y))


@settings(max_examples=200, deadline=None)
@given(operands(), st.integers(-60, 60))
def test_unary_operators_inverse_and_powers_match_kernels(args, e):
    spec, a, _ = args
    assert_same(spec, -a, spec._neg(a.coords))
    assert bool(a) == any(a.coords)
    if not a:
        assert a ** 0 is spec.one
        with pytest.raises(ZeroDivisionError):
            a.inverse()
        if e < 0:
            with pytest.raises(ZeroDivisionError):
                a ** e
            return
    else:
        assert_same(spec, a.inverse(), kernel_inv(spec, a.coords))
    want = kernel_pow(spec, a.coords if e >= 0 else kernel_inv(spec, a.coords), abs(e))
    assert_same(spec, a ** e, want)


@settings(max_examples=150, deadline=None)
@given(operands(), st.integers(0, 3))
def test_element_from_coords_is_the_table_element(args, extra):
    spec, a, _ = args
    coords = list(a.coords)
    # trailing zeros may be left out, and digits are read mod p
    while coords and coords[-1] == 0 and extra % 2:
        coords.pop()
    coords = [c + extra * spec.p for c in coords]
    b = spec.element(coords)
    assert b == a and b is a
    assert hash(b) == hash(a)
    assert b.to_json() == list(a.coords) and repr(b) == repr(a)
    assert element_by_index(spec, sum(c * spec.p ** e for e, c in enumerate(a.coords))) is a


def pickled(x):
    return pickle.loads(pickle.dumps(x))


COPIES = [copy.copy, copy.deepcopy, pickled]


@pytest.mark.parametrize("args", [(7,), (3, 2), (3, 2, [1, 0, 1]), (3, 2, [2, 1, 1])], ids=str)
@pytest.mark.parametrize("dup", COPIES)
def test_a_copied_field_is_the_shared_field(args, dup):
    spec = field_create(*args)
    assert dup(spec) is spec
    for a in (spec.zero, spec.one, spec.generator()):
        assert dup(a) is a


@settings(max_examples=100, deadline=None)
@given(operands(), st.sampled_from(COPIES))
def test_a_copied_element_is_the_shared_element(args, dup):
    _, a, _ = args
    assert dup(a) is a


@pytest.mark.parametrize("dup", COPIES)
def test_a_copied_infinity_is_the_one_marker(dup):
    assert dup(INFINITY) is INFINITY
    assert dup(DiamondRecord(4, 2, "genuine", INFINITY)).type is INFINITY
    params = params_from_mu3(field_create(3, 2).generator())
    twin = dup(params)
    assert all(getattr(twin, name) is getattr(params, name) for name in ("sigma", "rho", "eps"))
