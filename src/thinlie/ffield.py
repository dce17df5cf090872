"""Exact arithmetic in small finite fields F_p and F_{p^k}.

An element's coordinates are a tuple of k coefficients in {0..p-1}
relative to a fixed monic irreducible modulus (k = 1 for a prime field).
Everything is exact integer arithmetic; field sizes are capped at 5**6
elements so that exhaustive procedures (root finding, irreducibility by
trial division, the tables below) stay instant.

Each field is one shared FieldSpec per (p, k, modulus), and each of its q
elements is one shared FieldElement that stores its coordinates and its
discrete logarithm to a primitive element g (the first in canonical
order); zero gets the log 2(q-1).  The first time an element of a field is
asked for, its FieldSpec builds from the polynomial kernels _mul, _add and _neg:

- the elements, by canonical index (base-p digits of the coordinates);
- exp, log -> element: g^i at i and at i + q-1, then zero from 2(q-1) on,
  so that a*b is exp[log a + log b] and a zero factor lands on zero;
- Zech, d -> log(1 + g^d), so that g^a + g^b = g^(a + Z(b - a)); this is
  how GAP stores small finite-field elements.

After that every operator is a few integer lookups returning a shared
element: no arithmetic allocates.  Mixing elements of two fields raises
ValueError.

Two kernels outside this module read the tables directly: liealg.bracket
and the row updates of liealg.Echelon do their products and sums on logs
through _arith, the tuple (exp, zech, q-1, log(-1)) read in one lookup,
and coerce each coefficient as the operators do.  liealg's Leibniz index
reads only each element's log and coordinates and builds its own product
table from them.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence, Union

from .errors import FieldTooLarge, NonPrimeCharacteristic, ReducibleModulus

# Largest field size any exhaustive scan will touch.
SEARCH_BOUND = 5 ** 6

Coercible = Union["FieldElement", int, Sequence[int]]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# dense polynomial arithmetic over F_p (ascending coefficient tuples)
# ---------------------------------------------------------------------------

def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_divmod(a: Sequence[int], b: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    a = _poly_trim(list(a))
    b = _poly_trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(b[-1], p - 2, p)
    quot = [0] * max(0, len(a) - len(b) + 1)
    rem = list(a)
    while len(rem) >= len(b):
        shift = len(rem) - len(b)
        factor = (rem[-1] * inv_lead) % p
        quot[shift] = factor
        for i, bi in enumerate(b):
            rem[shift + i] = (rem[shift + i] - factor * bi) % p
        _poly_trim(rem)
    return _poly_trim(quot), rem


def _irreducible(modulus: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg/2."""
    k = len(modulus) - 1
    for d in range(1, k // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            divisor = list(tail) + [1]
            _, rem = _poly_divmod(modulus, divisor, p)
            if not rem:
                return False
    return k >= 1


class FieldSpec:
    """A concrete finite field F_{p^k} with a fixed monic irreducible modulus.

    Instances are immutable and shared, one per (p, k, modulus); use
    :func:`field_create`.  The element, exp and Zech tables are built the
    first time an element of the field is asked for.
    """

    __slots__ = (
        "p", "k", "modulus", "_hash", "_elements", "_exp", "_zech", "_units", "_zero_log", "_neg_one",
        "_arith",
    )

    def __init__(self, p: int, k: int, modulus: tuple[int, ...] | None):
        self.p = p
        self.k = k
        self.modulus = modulus
        self._hash = hash((p, k, modulus))
        self._elements: list[FieldElement] | None = None
        self._arith: tuple[list[FieldElement], list[int], int, int] | None = None

    @property
    def size(self) -> int:
        return self.p ** self.k

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.k == other.k
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self.k == 1:
            return f"F_{self.p}"
        return f"F_{self.p}^{self.k}"

    # -- tables ----------------------------------------------------------------

    def _digits(self, m: int) -> tuple[int, ...]:
        coords = []
        for _ in range(self.k):
            coords.append(m % self.p)
            m //= self.p
        return tuple(coords)

    def _build(self) -> list[FieldElement]:
        """Make every element and the exp and Zech tables from the kernels.

        g is the first primitive element in canonical order.  With n = q - 1
        units, _exp[i] = g^(i mod n) for i < 2n and zero from 2n on, the log
        of zero; _zech[d] = log(1 + g^d) for d mod n, stored twice over so
        that any d in (-n, 2n) indexes it directly.
        """
        n = self.size - 1
        coords = [self._digits(m) for m in range(n + 1)]
        index = {c: m for m, c in enumerate(coords)}
        one = coords[1]

        def power(c: tuple[int, ...], e: int) -> tuple[int, ...]:
            out = one
            while e:
                if e & 1:
                    out = self._mul(out, c)
                c = self._mul(c, c)
                e >>= 1
            return out

        factors = _prime_factors(n)
        g = next(c for c in coords[1:] if all(power(c, n // r) != one for r in factors))
        logs = [2 * n] * (n + 1)
        by_log = []
        c = one
        for i in range(n):
            logs[index[c]] = i
            by_log.append(index[c])
            c = self._mul(c, g)
        elements = [FieldElement(self, c, logs[m]) for m, c in enumerate(coords)]
        powers = [elements[m] for m in by_log]
        zech = [logs[index[self._add(one, coords[m])]] for m in by_log]
        self._exp = powers + powers + [elements[0]] * (2 * n + 1)
        self._zech = zech + zech
        self._units = n
        self._zero_log = 2 * n
        self._neg_one = logs[index[self._neg(one)]]
        self._arith = (self._exp, self._zech, n, self._neg_one)
        self._elements = elements
        return elements

    # -- element construction ------------------------------------------------

    def element(self, value: Coercible) -> FieldElement:
        """Coerce an int (prime-subfield image), coordinate sequence or element."""
        if isinstance(value, FieldElement):
            if value.spec is self:
                return value
            if value.spec != self:
                raise ValueError(f"element of {value.spec!r} used in {self!r}")
            value = value.coords
        elements = self._elements or self._build()
        if isinstance(value, int):
            return elements[value % self.p]
        coords = [int(c) % self.p for c in value]
        if len(coords) > self.k:
            raise ValueError(f"expected at most {self.k} coordinates, got {len(coords)}")
        m = 0
        for c in reversed(coords):
            m = m * self.p + c
        return elements[m]

    @property
    def zero(self) -> FieldElement:
        return (self._elements or self._build())[0]

    @property
    def one(self) -> FieldElement:
        return (self._elements or self._build())[1]

    def generator(self) -> FieldElement:
        """The class of t (for k > 1), or 1 for the prime field."""
        return (self._elements or self._build())[self.p if self.k > 1 else 1]

    def elements(self) -> Iterator[FieldElement]:
        """All field elements in canonical order (base-p digits, ascending)."""
        return iter(self._elements or self._build())

    # -- coordinate kernels (table construction) -------------------------------

    def _add(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def _neg(self, a: tuple[int, ...]) -> tuple[int, ...]:
        p = self.p
        return tuple((-x) % p for x in a)

    def _mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        p = self.p
        if self.k == 1:
            return ((a[0] * b[0]) % p,)
        prod = _poly_mul(a, b, p)
        if len(prod) >= self.k:
            _, prod = _poly_divmod(prod, self.modulus, p)
        prod = list(prod) + [0] * (self.k - len(prod))
        return tuple(prod)

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        out = {"p": self.p, "k": self.k}
        if self.modulus is not None:
            out["modulus"] = list(self.modulus)
        return out

    @classmethod
    def from_json(cls, data: dict) -> FieldSpec:
        return field_create(data["p"], data.get("k", 1), data.get("modulus"))


class FieldElement:
    """An element of a :class:`FieldSpec`: polynomial coordinates and the
    discrete logarithm to the field's primitive element (2(q-1) for zero).

    Each element exists once per field, made by its FieldSpec; the operators
    are table lookups that return those shared objects.  An operand may be
    an element of the same field or anything FieldSpec.element accepts; an
    element of another field raises ValueError.
    """

    __slots__ = ("spec", "coords", "log", "_hash")

    def __init__(self, spec: FieldSpec, coords: tuple[int, ...], log: int):
        self.spec = spec
        self.coords = coords
        self.log = log
        self._hash = hash((spec, coords))

    def __bool__(self) -> bool:
        return self.log != self.spec._zero_log

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, FieldElement)
            and self.spec == other.spec
            and self.coords == other.coords
        )

    def __hash__(self) -> int:
        return self._hash

    def __add__(self, other: Coercible) -> FieldElement:
        spec = self.spec
        if other.__class__ is not FieldElement or other.spec is not spec:
            other = spec.element(other)
        a, b = self.log, other.log
        if a == spec._zero_log:
            return other
        if b == spec._zero_log:
            return self
        return spec._exp[a + spec._zech[b - a]]

    __radd__ = __add__

    def __sub__(self, other: Coercible) -> FieldElement:
        spec = self.spec
        if other.__class__ is not FieldElement or other.spec is not spec:
            other = spec.element(other)
        a, b = self.log, other.log
        if b == spec._zero_log:
            return self
        b += spec._neg_one
        if a == spec._zero_log:
            return spec._exp[b]
        return spec._exp[a + spec._zech[b - a]]

    def __rsub__(self, other: Coercible) -> FieldElement:
        return self.spec.element(other) - self

    def __neg__(self) -> FieldElement:
        spec = self.spec
        return spec._exp[self.log + spec._neg_one]

    def __mul__(self, other: Coercible) -> FieldElement:
        spec = self.spec
        if other.__class__ is not FieldElement or other.spec is not spec:
            other = spec.element(other)
        return spec._exp[self.log + other.log]

    __rmul__ = __mul__

    def __truediv__(self, other: Coercible) -> FieldElement:
        spec = self.spec
        if other.__class__ is not FieldElement or other.spec is not spec:
            other = spec.element(other)
        if other.log == spec._zero_log:
            raise ZeroDivisionError("inverse of zero field element")
        return spec._exp[self.log - other.log + spec._units]

    def __rtruediv__(self, other: Coercible) -> FieldElement:
        return self.spec.element(other) / self

    def inverse(self) -> FieldElement:
        spec = self.spec
        if self.log == spec._zero_log:
            raise ZeroDivisionError("inverse of zero field element")
        return spec._exp[spec._units - self.log]

    def __pow__(self, exponent: int) -> FieldElement:
        spec = self.spec
        if self.log != spec._zero_log:
            return spec._exp[self.log * exponent % spec._units]
        if exponent < 0:
            raise ZeroDivisionError("inverse of zero field element")
        return self if exponent else spec._exp[0]

    def __repr__(self) -> str:
        if self.spec.k == 1:
            return str(self.coords[0])
        return "(" + ",".join(str(c) for c in self.coords) + ")"

    def to_json(self) -> list[int]:
        return list(self.coords)


# the shared FieldSpec of every field made so far, by (p, k, modulus) as
# given (None for the default modulus) and as resolved
_FIELDS: dict[tuple[int, int, tuple[int, ...] | None], FieldSpec] = {}


def require_prime(p: int) -> None:
    """NonPrimeCharacteristic unless p is prime."""
    if not _is_prime(p):
        raise NonPrimeCharacteristic(f"characteristic must be prime, got {p}")


def field_create(p: int, k: int = 1, modulus: Iterable[int] | None = None) -> FieldSpec:
    """Create F_{p^k}; for k > 1 a monic irreducible modulus is checked or found.

    When no modulus is supplied the lexicographically smallest monic
    irreducible polynomial (by its tuple of non-leading coefficients) is
    chosen, so a given (p, k) always yields the same field presentation.
    Every call for the same field returns the same FieldSpec object.
    """
    require_prime(p)
    if k < 1:
        raise ValueError(f"extension degree must be >= 1, got {k}")
    if p ** k > SEARCH_BOUND:
        raise FieldTooLarge(f"field size {p ** k} exceeds the design bound {SEARCH_BOUND}")
    key = (p, k, None if modulus is None else tuple(int(c) % p for c in modulus))
    spec = _FIELDS.get(key)
    if spec is None:
        spec = _new_field(p, k, key[2])
        spec = _FIELDS.setdefault((p, k, spec.modulus), spec)
        _FIELDS[key] = spec
    return spec


def _new_field(p: int, k: int, mod: tuple[int, ...] | None) -> FieldSpec:
    if k == 1:
        if mod is not None:
            raise ValueError("prime fields carry no modulus")
        return FieldSpec(p, 1, None)
    if mod is not None:
        if len(mod) != k + 1 or mod[-1] != 1:
            raise ValueError(f"modulus must be monic of degree {k}")
        if not _irreducible(mod, p):
            raise ReducibleModulus(f"{list(mod)} is reducible over F_{p}")
        return FieldSpec(p, k, mod)
    for tail in itertools.product(range(p), repeat=k):
        mod = tuple(tail) + (1,)
        if _irreducible(mod, p):
            return FieldSpec(p, k, mod)
    raise ReducibleModulus(f"no irreducible monic polynomial of degree {k} over F_{p} found")


def frobenius(a: FieldElement) -> FieldElement:
    """The p-power map a -> a^p; the identity on the prime subfield."""
    return a ** a.spec.p


def pth_root(a: FieldElement) -> FieldElement:
    """Inverse of :func:`frobenius`: the unique b with b^p = a."""
    spec = a.spec
    return a ** (spec.p ** (spec.k - 1))


def in_prime_field(a: FieldElement) -> bool:
    return frobenius(a) == a


def find_roots(field: FieldSpec, coeffs: Sequence[Coercible]) -> list[FieldElement]:
    """All roots of the polynomial with the given ascending coefficients.

    Exhaustive evaluation over the whole field; complete by construction.
    Roots come back in canonical field-element order.
    """
    if field.size > SEARCH_BOUND:
        raise FieldTooLarge(f"field size {field.size} exceeds the design bound {SEARCH_BOUND}")
    cs = [field.element(c) for c in coeffs]
    if not any(cs):
        raise ValueError("root finding requires a nonzero polynomial")
    roots = []
    for a in field.elements():
        acc = field.zero
        for c in reversed(cs):
            acc = acc * a + c
        if not acc:
            roots.append(a)
    return roots


def artin_schreier_roots(field: FieldSpec, sigma: FieldElement, eps: FieldElement,
                         n1: int = 1) -> list[FieldElement]:
    """Roots of Z^(p^n1) - sigma^(p^n1 - 1) Z - eps in the field."""
    h = field.p ** n1
    pi = sigma ** (h - 1)
    coeffs: list[FieldElement] = [-eps, -pi] + [field.zero] * (h - 2) + [field.one]
    return find_roots(field, coeffs)


def _prime_power_base(q: int) -> int:
    for p in range(2, q + 1):
        if _is_prime(p) and q % p == 0:
            m = q
            while m % p == 0:
                m //= p
            if m != 1:
                raise ValueError(f"{q} is not a prime power")
            return p
    raise ValueError(f"{q} is not a prime power")


def combine_residues(r: int, s: int, q: int) -> int:
    """The unique k in [0, (q-1)p) with k = r mod (q-1) and k = s mod p.

    Here p is the prime of which q is a power; gcd(q-1, p) = 1 makes the
    combination unique.
    """
    p = _prime_power_base(q)
    m = q - 1
    k = r % m
    t = ((s - k) * pow(m % p, -1, p)) % p
    return k + m * t
