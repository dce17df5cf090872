"""Constructors for the Zassenhaus and Hamiltonian families of structure tables.

Bases are divided-power monomials x^(i) y^(j) ordered row-major in (i, j),
or graded vectors E_i / e_alpha / u_alpha.  Structure constants come from
binomial coefficients mod p (Lucas) and the two coefficient functions N and
N'; products whose target monomial falls outside the truncation bound always
carry a vanishing coefficient, which the constructors check rather than
assume, raising NotASubalgebra when one does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import FieldSizeMismatch, NotAdditivelyClosed, NotASubalgebra, ThetaNotAdditive
from .ffield import FieldElement, FieldSpec, field_create
from .liealg import StructureTable


def binom_mod_p(a: int, b: int, p: int) -> int:
    """C(a, b) mod p by Lucas' theorem; zero outside 0 <= b <= a."""
    if a < 0:
        raise ValueError("binom_mod_p requires a >= 0")
    if b < 0 or b > a:
        return 0
    out = 1
    while a or b:
        da, db = a % p, b % p
        if db > da:
            return 0
        out = (out * math.comb(da, db)) % p
        a //= p
        b //= p
    return out


def _binom0(a: int, b: int, p: int) -> int:
    # negative upper index kills the whole factor
    if a < 0:
        return 0
    return binom_mod_p(a, b, p)


def _binom_unit(a: int, b: int, p: int) -> int:
    # C(a, 0) = 1 for every a, including a = -1; used by N'
    if b == 0:
        return 1
    return _binom0(a, b, p)


def coeff_N(i: int, j: int, k: int, l: int, p: int) -> int:
    """Poisson structure coefficient N(i,j,k,l) mod p."""
    t1 = _binom0(i + k - 1, i, p) * _binom0(j + l - 1, j - 1, p)
    t2 = _binom0(i + k - 1, i - 1, p) * _binom0(j + l - 1, j, p)
    return (t1 - t2) % p


def coeff_Nprime(i: int, j: int, k: int, l: int, p: int) -> int:
    """The variant N'(i,j,k,l); differs from N only when i=k=0 or j=l=0."""
    t1 = _binom_unit(i + k - 1, i, p) * _binom_unit(j + l - 1, l, p)
    t2 = _binom_unit(i + k - 1, k, p) * _binom_unit(j + l - 1, j, p)
    return (t1 - t2) % p


# ---------------------------------------------------------------------------
# Zassenhaus algebras
# ---------------------------------------------------------------------------

def build_W1n(p: int, n: int, field: FieldSpec | None = None) -> StructureTable:
    """W(1;n) on the graded basis E_-1 .. E_{p^n - 2}.

    Optionally built over an extension field (coefficients still lie in the
    prime subfield); this is what the group-basis transition needs.
    """
    if n < 1:
        raise ValueError("height n must be >= 1")
    field = field or field_create(p)
    if field.p != p:
        raise FieldSizeMismatch(f"field has characteristic {field.p}, expected {p}")
    top = p ** n - 2
    labels = [f"E_{i}" for i in range(-1, top + 1)]
    entries = []
    for i in range(-1, top + 1):
        for j in range(i + 1, top + 1):
            c = (binom_mod_p(i + j + 1, j, p) - binom_mod_p(i + j + 1, i, p)) % p
            if i + j > top:
                if c:
                    raise NotASubalgebra(f"nonzero coefficient escaping the basis at ({i},{j})")
                continue
            if c:
                entries.append((i + 1, j + 1, [(i + j + 1, field.element(c))]))
    return StructureTable.from_entries(field, labels, entries)


def zassenhaus_group_basis(
    p: int, n: int, field: FieldSpec
) -> tuple[StructureTable, list[list[FieldElement]]]:
    """W(1;n) on the basis e_alpha indexed by F_{p^n}, plus the transition.

    The transition rows express e_alpha in E_i coordinates:
    e_alpha = E_{p^n-2} + sum_{i=-1}^{p^n-2} alpha^(i+1) E_i, with 0^0 = 1.
    """
    if field.p != p or field.k != n:
        raise FieldSizeMismatch(f"need a field with {p}^{n} elements, got {field!r}")
    alphas = list(field.elements())
    labels = [f"e_{a}" for a in alphas]
    index = {a: m for m, a in enumerate(alphas)}
    entries = []
    for a in range(len(alphas)):
        for b in range(a + 1, len(alphas)):
            alpha, beta = alphas[a], alphas[b]
            c = beta - alpha
            if c:
                entries.append((a, b, [(index[alpha + beta], c)]))
    table = StructureTable.from_entries(field, labels, entries)

    dim = p ** n
    transition = []
    for alpha in alphas:
        row = [field.zero] * dim
        power = field.one  # alpha^(i+1) starting at i = -1, with 0^0 = 1
        for pos in range(dim):
            row[pos] = power
            power = power * alpha
        row[dim - 1] = row[dim - 1] + field.one
        transition.append(row)
    return table, transition


# ---------------------------------------------------------------------------
# divided-power monomial bookkeeping
# ---------------------------------------------------------------------------

def monomials(tau1: int, tau2: int) -> list[tuple[int, int]]:
    """All exponent pairs 0 <= (i, j) <= tau, row-major in (i, j)."""
    return [(i, j) for i in range(tau1 + 1) for j in range(tau2 + 1)]


def monomial_label(i: int, j: int) -> str:
    return f"x{i}y{j}"


@dataclass(frozen=True)
class CartanParams:
    """Shape parameters of the two-variable Hamiltonian constructions."""

    p: int
    n1: int
    n2: int

    @property
    def tau(self) -> tuple[int, int]:
        return (self.p ** self.n1 - 1, self.p ** self.n2 - 1)


def _monomial_table(
    params: CartanParams,
    field: FieldSpec,
    basis: list[tuple[int, int]],
    term_fn: Callable[[int, int, int, int], list[tuple[tuple[int, int], FieldElement]]],
) -> StructureTable:
    index = {m: pos for pos, m in enumerate(basis)}
    labels = [monomial_label(i, j) for i, j in basis]
    entries = []
    for a in range(len(basis)):
        i, j = basis[a]
        for b in range(a + 1, len(basis)):
            k, l = basis[b]
            terms = []
            for target, c in term_fn(i, j, k, l):
                if not c:
                    continue
                pos = index.get(target)
                if pos is None:
                    raise NotASubalgebra(f"coefficient escaping the basis: {target}")
                terms.append((pos, c))
            if terms:
                entries.append((a, b, terms))
    return StructureTable.from_entries(field, labels, entries)


def build_H2_second_derived(
    p: int, n1: int, n2: int, field: FieldSpec | None = None
) -> StructureTable:
    """H(2;n)^(2): monomials strictly between 1 and the top corner."""
    params = CartanParams(p, n1, n2)
    field = field or field_create(p)
    tau1, tau2 = params.tau
    basis = [m for m in monomials(tau1, tau2) if m != (0, 0) and m != (tau1, tau2)]

    def term_fn(i, j, k, l):
        c = coeff_N(i, j, k, l, p)
        ti, tj = i + k - 1, j + l - 1
        if (ti, tj) == (0, 0):
            return []  # constants are killed in the quotient mod F.1
        if ti < 0 or tj < 0 or ti > tau1 or tj > tau2 or (ti, tj) == (tau1, tau2):
            if c:
                raise NotASubalgebra(f"nonzero product escaping H(2;n)^(2) at ({i},{j},{k},{l})")
            return []
        return [((ti, tj), field.element(c))]

    return _monomial_table(params, field, basis, term_fn)


def build_H2_phi_tau_derived(
    p: int, n1: int, n2: int, field: FieldSpec | None = None
) -> StructureTable:
    """H(2;n;Phi(tau))^(1): all monomials but the constant, twisted products.

    Products carry the factor (1 + corner); the corner term survives exactly
    when the plain target is the constant, which is then dropped.
    """
    params = CartanParams(p, n1, n2)
    field = field or field_create(p)
    tau1, tau2 = params.tau
    basis = [m for m in monomials(tau1, tau2) if m != (0, 0)]

    def term_fn(i, j, k, l):
        c = coeff_N(i, j, k, l, p)
        ti, tj = i + k - 1, j + l - 1
        if ti < 0 or tj < 0:
            if c:
                raise NotASubalgebra(f"nonzero product escaping Phi(tau) basis at ({i},{j},{k},{l})")
            return []
        if (ti, tj) == (0, 0):
            return [((tau1, tau2), field.element(c))]
        if ti > tau1 or tj > tau2:
            if c:
                raise NotASubalgebra(f"nonzero product escaping Phi(tau) basis at ({i},{j},{k},{l})")
            return []
        return [((ti, tj), field.element(c))]

    return _monomial_table(params, field, basis, term_fn)


def build_H2_phi1(
    p: int,
    n1: int,
    n2: int,
    field: FieldSpec | None = None,
    eps: FieldElement | int = 1,
) -> StructureTable:
    """H(2;n;Phi(1)) (eps = 1) and its deformations on all p^|n| monomials.

    eps scales only the pure-y products, which acquire the extra xbar factor;
    eps = 0 yields the central extension of H(2;(1,n))^(1) used by the
    prime-field degeneration.
    """
    params = CartanParams(p, n1, n2)
    field = field or field_create(p)
    eps = field.element(eps) if not isinstance(eps, FieldElement) else eps
    if eps.spec != field:
        raise ValueError("eps must live in the table's field")
    tau1, tau2 = params.tau
    basis = monomials(tau1, tau2)

    def term_fn(i, j, k, l):
        if j == 0 and l == 0:
            return []  # pure-x monomials commute
        if i == 0 and k == 0:
            c = (binom_mod_p(j + l - 1, l, p) - binom_mod_p(j + l - 1, j, p)) % p
            tj = j + l - 1
            if tj > tau2:
                if c:
                    raise NotASubalgebra(f"nonzero product escaping Phi(1) basis at ({i},{j},{k},{l})")
                return []
            return [((tau1, tj), eps * field.element(c))]
        c = coeff_N(i, j, k, l, p)
        ti, tj = i + k - 1, j + l - 1
        if ti > tau1 or tj > tau2:
            if c:
                raise NotASubalgebra(f"nonzero product escaping Phi(1) basis at ({i},{j},{k},{l})")
            return []
        return [((ti, tj), field.element(c))]

    return _monomial_table(params, field, basis, term_fn)


def phi1_monomials(p: int, n1: int, n2: int) -> list[tuple[int, int]]:
    """Basis order of build_H2_phi1, shared with the grading module."""
    params = CartanParams(p, n1, n2)
    return monomials(*params.tau)


# ---------------------------------------------------------------------------
# Albert-Frank presentation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlbertFrankSpec:
    """An additive subgroup G of a field with an additive map theta on it."""

    group: tuple[FieldElement, ...]
    theta: dict[FieldElement, FieldElement]

    def validate(self) -> None:
        gset = set(self.group)
        if len(gset) != len(self.group):
            raise NotAdditivelyClosed("group list contains repeats")
        for a in self.group:
            if -a not in gset:
                raise NotAdditivelyClosed(f"{a} has no negative in the list")
            for b in self.group:
                if a + b not in gset:
                    raise NotAdditivelyClosed(f"{a} + {b} escapes the list")
                if self.theta[a + b] != self.theta[a] + self.theta[b]:
                    raise ThetaNotAdditive(f"theta fails additivity at ({a}, {b})")


def build_albert_frank(spec: AlbertFrankSpec) -> StructureTable:
    """[u_a, u_b] = (b - a + a*theta(b) - b*theta(a)) u_{a+b}."""
    spec.validate()
    field = spec.group[0].spec
    index = {a: m for m, a in enumerate(spec.group)}
    labels = [f"u_{a}" for a in spec.group]
    entries = []
    theta = spec.theta
    for m in range(len(spec.group)):
        for n in range(m + 1, len(spec.group)):
            a, b = spec.group[m], spec.group[n]
            c = b - a + a * theta[b] - b * theta[a]
            if c:
                entries.append((m, n, [(index[a + b], c)]))
    return StructureTable.from_entries(field, labels, entries)
