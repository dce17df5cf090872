import operator
import random

import pytest

from thinlie.errors import (
    FieldTooLarge,
    NonPrimeCharacteristic,
    ReducibleModulus,
)
from thinlie import ffield
from thinlie.ffield import (
    FieldSpec,
    combine_residues,
    field_create,
    find_roots,
    frobenius,
    in_prime_field,
    pth_root,
)

from oracles import element_by_index, poly_pow_mod, scan_congruences


def test_prime_field_creation():
    f3 = field_create(3)
    assert (f3.p, f3.k, f3.modulus) == (3, 1, None)
    assert f3.element(5) == f3.element(2)


def test_f9_canonical_modulus_is_t2_plus_1():
    # oracle: t^2 + 1 has no root in F_3, hence is irreducible (degree 2)
    assert all((a * a + 1) % 3 != 0 for a in range(3))
    f9 = field_create(3, 2)
    assert f9.modulus == (1, 0, 1)
    assert f9.size == 9


def test_nonprime_characteristic_rejected():
    with pytest.raises(NonPrimeCharacteristic):
        field_create(4, 1)


def test_reducible_modulus_rejected():
    # (t+1)^2 = t^2 + 2t + 1 over F_3
    with pytest.raises(ReducibleModulus):
        field_create(3, 2, [1, 2, 1])


def test_field_too_large():
    with pytest.raises(FieldTooLarge):
        field_create(5, 7)


def test_frobenius_examples():
    f3 = field_create(3)
    assert frobenius(f3.element(2)) == f3.element(2)
    f9 = field_create(3, 2)
    t = f9.generator()
    # oracle: cube t by naive polynomial powering mod t^2 + 1
    assert poly_pow_mod([0, 1], 3, [1, 0, 1], 3) == [0, 2]
    assert frobenius(t) == -t
    assert frobenius(f9.zero) == f9.zero


def test_frobenius_order_and_pth_root():
    for fieldspec in (field_create(3, 2), field_create(2, 3), field_create(5, 2)):
        for a in fieldspec.elements():
            b = a
            for _ in range(fieldspec.k):
                b = frobenius(b)
            assert b == a
            assert frobenius(pth_root(a)) == a
    f9 = field_create(3, 2)
    t = f9.generator()
    assert pth_root(-t) == t
    assert pth_root(f9.one) == f9.one


def test_find_roots_examples():
    f3 = field_create(3)
    # Z^3 - Z - 1 is irreducible over F_3
    assert find_roots(f3, [-1, -1, 0, 1]) == []
    assert {a.coords[0] for a in find_roots(f3, [0, -1, 0, 1])} == {0, 1, 2}


def test_find_roots_against_evaluation():
    rng = random.Random(7)
    f8 = field_create(2, 3)
    for _ in range(25):
        coeffs = [element_by_index(f8, rng.randrange(8)) for _ in range(4)]
        if not any(coeffs):
            coeffs[0] = f8.one
        roots = find_roots(f8, coeffs)
        for a in f8.elements():
            value = f8.zero
            for c in reversed(coeffs):
                value = value * a + c
            assert (not value) == (a in roots)


def test_artin_schreier_coset():
    # Roots of Z^p - sigma^(p-1) Z - 1, when any exist, form rho + F_p sigma.
    f9 = field_create(3, 2)
    hits = 0
    for sigma in f9.elements():
        if not sigma:
            continue
        coeffs = [-f9.one, -sigma ** 2, f9.zero, f9.one]
        roots = find_roots(f9, coeffs)
        if roots:
            hits += 1
            rho = roots[0]
            assert len(roots) == 3
            assert set(roots) == {rho + sigma.spec.element(c) * sigma for c in range(3)}
    assert hits > 0


def test_combine_residues_examples():
    assert combine_residues(1, 1, 3) == 1
    assert combine_residues(1, 2, 3) == scan_congruences(1, 2, 2, 3) == 5
    assert combine_residues(0, 0, 9) == 0


@pytest.mark.parametrize("q,p", [(3, 3), (4, 2), (5, 5), (9, 3)])
def test_combine_residues_exhaustive(q, p):
    for r in range(q - 1):
        for s in range(p):
            k = combine_residues(r, s, q)
            assert 0 <= k < (q - 1) * p
            assert k % (q - 1) == r and k % p == s


@pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (2, 3), (5, 2)])
def test_field_axioms_on_random_triples(p, k):
    fieldspec = field_create(p, k)
    rng = random.Random(p * 100 + k)
    size = fieldspec.size
    for _ in range(200):
        a = element_by_index(fieldspec, rng.randrange(size))
        b = element_by_index(fieldspec, rng.randrange(size))
        c = element_by_index(fieldspec, rng.randrange(size))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert frobenius(a + b) == frobenius(a) + frobenius(b)
        assert frobenius(a * b) == frobenius(a) * frobenius(b)


@pytest.mark.parametrize("p,k", [(3, 2), (2, 3), (5, 2)])
def test_every_nonzero_element_invertible(p, k):
    fieldspec = field_create(p, k)
    for a in fieldspec.elements():
        if a:
            assert a * a.inverse() == fieldspec.one
            assert a ** (fieldspec.size - 1) == fieldspec.one


def test_in_prime_field():
    f9 = field_create(3, 2)
    assert in_prime_field(f9.element(2))
    assert not in_prime_field(f9.generator())


def test_field_spec_json_roundtrip():
    for fieldspec in (field_create(3), field_create(3, 2), field_create(2, 3)):
        again = FieldSpec.from_json(fieldspec.to_json())
        assert again == fieldspec
        a = element_by_index(fieldspec, fieldspec.size - 1)
        assert fieldspec.element(a.to_json()) == a


def test_field_create_shares_one_spec_per_field():
    f9 = field_create(3, 2)
    assert field_create(3, 2) is f9
    assert field_create(3, 2, [1, 0, 1]) is f9
    assert FieldSpec.from_json(f9.to_json()) is f9
    assert field_create(3, 2, [2, 1, 1]) is not f9


def test_field_create_shares_one_spec_whatever_is_asked_first(monkeypatch):
    monkeypatch.setattr(ffield, "_FIELDS", {})
    f9 = field_create(3, 2, [1, 0, 1])
    assert field_create(3, 2) is f9
    assert field_create(3, 2, [4, 3, 1]) is f9  # coefficients are read mod p
    assert FieldSpec.from_json(f9.to_json()) is f9


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
def test_arithmetic_across_fields_raises(op):
    f3, f9 = field_create(3), field_create(3, 2)
    t = f9.generator()
    other_f9 = field_create(3, 2, [2, 1, 1])
    for a, b in ((t, f3.one), (f3.one, t), (t, other_f9.one), (other_f9.one, t)):
        with pytest.raises(ValueError):
            op(a, b)
    with pytest.raises(ValueError):
        f9.element(f3.one)
