"""Constructors for the Zassenhaus and Hamiltonian families of structure tables.

Bases are divided-power monomials x^(i) y^(j) ordered row-major in (i, j),
or graded vectors E_i / e_alpha / u_alpha.  Structure constants come from
binomial coefficients mod p and the two coefficient functions N and N';
products whose target monomial falls outside the truncation bound always
carry a vanishing coefficient, which the constructors check rather than
assume, raising NotASubalgebra when one does not.

The Hamiltonian builders share one driver.  N factors by variable,
N = X1[i][k] Y1[j][l] - X0[i][k] Y0[j][l] with X1[i][k] = C(i+k-1, i),
X0[i][k] = C(i+k-1, i-1), Y1[j][l] = C(j+l-1, j-1), Y0[j][l] = C(j+l-1, j),
all read once from a Pascal triangle mod p.  The driver walks the blocks of
fixed x-exponents (i, k) and skips a block whose two x factors vanish: N is
then exactly zero on every (j, l) of it, so no product there can escape and
the escape check, made on every nonzero product of the other blocks, loses
nothing.  Inside a block it visits only the l on which a y factor is
nonzero.  Phi(1)'s pure-y block i = k = 0 is the one exception: it takes N'
(both x factors 1) scaled by eps.  Every builder writes the packed bracket
dict of StructureTable directly, keys ascending and no zero coefficient.

Phi1Brackets is H(2;n;Phi(1))'s bracket dict read by rule: a product is
worked out when it is read, with each binomial by Lucas' theorem, so a
caller that reads a few products of a large table, as a mixed verify run
does, pays for those alone.  No nonzero product leaves the box 0 <= (i, j)
<= tau.  By Kummer's theorem, C(m+n, m) is prime to p iff adding m and n
in base p carries nowhere.  The four factors are C(i+(k-1), i),
C((i-1)+k, i-1), C((j-1)+l, j-1) and C(j+(l-1), j).  A target exponent
i+k-1 > tau1 = p^n1 - 1 makes each x sum reach p^n1 from two summands
below it, which carries out of the top digit, so both x factors vanish;
likewise in y.  A target exponent -1 needs i = k = 0, the pure-y block
that the Phi(1) twist remaps onto xbar = x^(tau1), or j = l = 0, where
both y factors have upper index -1 and vanish.  The rule still checks
every product it reads, as the build_* constructors check every product
they store.

The loops that fill a bracket dict run with cyclic garbage collection
paused (liealg._gc_paused).  Each stored pair allocates a key and a term
tuple that stay alive, so the collections those allocations trigger would
only rescan the growing table, about a third to a half of a build, and
find nothing: the tuples, ints and shared field elements form no reference
cycle.  Output and memory use are the same with the collector on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterator

from .errors import FieldSizeMismatch, NotAdditivelyClosed, NotASubalgebra, ThetaNotAdditive
from .ffield import FieldElement, FieldSpec, field_create
from .liealg import RuleBrackets, StructureTable, _gc_paused


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


def _pascal(top: int, p: int) -> list[list[int]]:
    """Rows 0..top of Pascal's triangle mod p: C(a, b) mod p is rows[a][b].
    From row p on, by Lucas, row a is row a % p zero-padded to p entries,
    times each entry of row a // p in turn, cut to its a + 1 entries."""
    rows = [[1]]
    for _ in range(min(top, p - 1)):
        rows.append([1, *((x + y) % p for x, y in zip(rows[-1], rows[-1][1:])), 1])
    blocks = [[None] * p for _ in rows]  # [low][c]: c times padded row low, made when first read
    for a in range(p, top + 1):
        high, low = divmod(a, p)
        for c in rows[high]:
            if blocks[low][c] is None:
                blocks[low][c] = [c * x % p for x in rows[low]] + [0] * (p - 1 - low)
        rows.append([*chain.from_iterable(blocks[low][c] for c in rows[high][:-1]), *rows[low]])
    return rows


def _factor(rows: list[list[int]], tau: int, shift: int) -> list[list[int]]:
    # F[u][v] = C(u + v - 1, u - shift) mod p for 0 <= u, v <= tau, zero off the triangle
    return [
        [rows[u + v - 1][u - shift] if 0 <= u - shift <= u + v - 1 else 0 for v in range(tau + 1)]
        for u in range(tau + 1)
    ]


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
    rows = _pascal(2 * top + 1, p)
    coeffs = [field.element(c) for c in range(p)]
    brackets = {}
    with _gc_paused():
        for i in range(-1, top + 1):
            for j in range(i + 1, top + 1):
                row = rows[i + j + 1]
                c = (row[j] - (row[i] if i >= 0 else 0)) % p
                if i + j > top:
                    if c:
                        raise NotASubalgebra(f"nonzero coefficient escaping the basis at ({i},{j})")
                elif c:
                    brackets[(i + 1, j + 1)] = ((i + j + 1, coeffs[c]),)
    return StructureTable(field, labels, brackets)


def zassenhaus_group_basis(
    p: int, n: int, field: FieldSpec
) -> tuple[StructureTable, list[dict[int, FieldElement]]]:
    """W(1;n) on the basis e_alpha indexed by F_{p^n}, plus the transition.

    transition[m] holds the nonzero E-coordinates of the m-th e_alpha, as
    {position of E_i: coefficient} with E_i at position i + 1:
    e_alpha = E_{p^n-2} + sum_{i=-1}^{p^n-2} alpha^(i+1) E_i, with 0^0 = 1.
    """
    if field.p != p or field.k != n:
        raise FieldSizeMismatch(f"need a field with {p}^{n} elements, got {field!r}")
    alphas = list(field.elements())
    labels = [f"e_{a}" for a in alphas]
    index = {a: m for m, a in enumerate(alphas)}
    brackets = {}
    for a in range(len(alphas)):
        for b in range(a + 1, len(alphas)):
            alpha, beta = alphas[a], alphas[b]
            c = beta - alpha
            if c:
                brackets[(a, b)] = ((index[alpha + beta], c),)
    table = StructureTable(field, labels, brackets)

    dim = p ** n
    transition = []
    for alpha in alphas:
        power = field.one  # alpha^(i+1) starting at i = -1, with 0^0 = 1
        coords = {}
        for pos in range(dim):
            coords[pos] = power + field.one if pos == dim - 1 else power
            power = power * alpha
        transition.append({pos: c for pos, c in coords.items() if c})
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


_DROP = -1  # position of a target read as zero


def _poisson_table(
    params: CartanParams,
    field: FieldSpec,
    basis: list[tuple[int, int]],
    remap: dict[tuple[int, int], tuple[int, int] | None],
    pure_y: FieldElement | None = None,
) -> StructureTable:
    """The brackets N(i,j,k,l) x^(i+k-1) y^(j+l-1) of the monomials in basis.

    remap sends a target monomial outside basis to one in it, or to None to
    drop the product; a nonzero product whose target is in neither raises
    NotASubalgebra.  Given pure_y, the block i = k = 0 takes both x factors
    1 (N') and is scaled by pure_y.
    """
    p = params.p
    tau1, tau2 = params.tau
    rows = _pascal(2 * max(tau1, tau2), p)
    x1, x0 = _factor(rows, tau1, 0), _factor(rows, tau1, 1)
    y1, y0 = _factor(rows, tau2, 1), _factor(rows, tau2, 0)
    ysupport = [
        [(l, y1[j][l], y0[j][l]) for l in range(tau2 + 1) if y1[j][l] or y0[j][l]]
        for j in range(tau2 + 1)
    ]
    above = [[t for t in ysupport[j] if t[0] > j] for j in range(tau2 + 1)]
    index = {m: pos for pos, m in enumerate(basis)}
    targets = {**index, **{m: _DROP if r is None else index[r] for m, r in remap.items()}}
    position = [[index.get((k, l)) for l in range(tau2 + 1)] for k in range(tau1 + 1)]
    # shifted by one, so that a target exponent -1 reads grid[0] rather than wrapping
    grid = [[targets.get((ti, tj)) for tj in range(-1, 2 * tau2)] for ti in range(-1, 2 * tau1)]
    plain = [field.element(c) for c in range(p)]
    scaled = [pure_y * c for c in plain] if pure_y is not None else None
    brackets = {}
    with _gc_paused():
        for a, (i, j) in enumerate(basis):
            for k in range(i, tau1 + 1):
                f1, f0, coeffs = x1[i][k], x0[i][k], plain
                if i == k == 0 and scaled is not None:
                    f1, f0, coeffs = 1, 1, scaled
                if not (f1 or f0):
                    continue  # N vanishes on the whole block, so nothing escapes from it
                bpos, trow = position[k], grid[i + k]
                for l, g1, g0 in ysupport[j] if k > i else above[j]:
                    c = (f1 * g1 - f0 * g0) % p
                    b = bpos[l]
                    if not c or b is None:
                        continue
                    t = trow[j + l]
                    if t is None:
                        raise NotASubalgebra(f"nonzero product escaping the basis at ({i},{j},{k},{l})")
                    if t != _DROP and coeffs[c]:
                        brackets[(a, b)] = ((t, coeffs[c]),)
    return StructureTable(field, [monomial_label(i, j) for i, j in basis], brackets)


def build_H2_second_derived(
    p: int, n1: int, n2: int, field: FieldSpec | None = None
) -> StructureTable:
    """H(2;n)^(2): monomials strictly between 1 and the top corner."""
    params = CartanParams(p, n1, n2)
    tau1, tau2 = params.tau
    basis = [m for m in monomials(tau1, tau2) if m != (0, 0) and m != (tau1, tau2)]
    # constants are killed in the quotient mod F.1
    return _poisson_table(params, field or field_create(p), basis, {(0, 0): None})


def build_H2_phi_tau_derived(
    p: int, n1: int, n2: int, field: FieldSpec | None = None
) -> StructureTable:
    """H(2;n;Phi(tau))^(1): all monomials but the constant, twisted products.

    Products carry the factor (1 + corner); the corner term survives exactly
    when the plain target is the constant, which is then dropped.
    """
    params = CartanParams(p, n1, n2)
    tau1, tau2 = params.tau
    basis = [m for m in monomials(tau1, tau2) if m != (0, 0)]
    return _poisson_table(params, field or field_create(p), basis, {(0, 0): (tau1, tau2)})


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
    params, field, eps = _phi1_args(p, n1, n2, field, eps)
    tau1, tau2 = params.tau
    basis = monomials(tau1, tau2)
    # a pure-y product lands on xbar = x^(tau1) times its y target
    remap = {(-1, tj): (tau1, tj) for tj in range(tau2 + 1)}
    return _poisson_table(params, field, basis, remap, pure_y=eps)


def _phi1_args(
    p: int, n1: int, n2: int, field: FieldSpec | None, eps: FieldElement | int
) -> tuple[CartanParams, FieldSpec, FieldElement]:
    params = CartanParams(p, n1, n2)
    field = field or field_create(p)
    return params, field, field.element(eps)


def phi1_monomials(p: int, n1: int, n2: int) -> list[tuple[int, int]]:
    """Basis order of build_H2_phi1, shared with the grading module."""
    params = CartanParams(p, n1, n2)
    return monomials(*params.tau)


class Phi1Brackets(RuleBrackets):
    """The bracket dict of build_H2_phi1(p, n1, n2, field, eps), read by rule.

    get((a, b)) works out the product of the monomials at positions a < b,
    row-major as in build_H2_phi1 (x^(i)y^(j) at i p^n2 + j), the way
    _poisson_table does, and memoizes it; a nonzero product whose target
    leaves the box raises NotASubalgebra when it is read.  A read of the
    whole table (RuleBrackets._build) has build_H2_phi1's keys, in its
    order.  No Pascal triangle or factor table is built for get.
    """

    def __init__(self, p: int, n1: int, n2: int, field: FieldSpec, eps: FieldElement):
        super().__init__(p ** (n1 + n2))
        self._p, self._tau1, self._q = p, p ** n1 - 1, p ** n2
        self._plain = [field.element(c) for c in range(p)]
        self._scaled = [eps * c for c in self._plain]

    def _product(self, key) -> tuple[tuple[int, FieldElement]] | None:
        a, b = key
        p, tau1, q = self._p, self._tau1, self._q
        if not 0 <= a < b < self._dim:
            return None
        (i, j), (k, l) = divmod(a, q), divmod(b, q)
        if i == k == 0:
            f1 = f0 = 1  # the pure-y block takes N', scaled by eps
            coeffs = self._scaled
        else:  # i + k - 1 >= 0 here, and C(m, -1) = 0
            f1, f0 = binom_mod_p(i + k - 1, i, p), binom_mod_p(i + k - 1, i - 1, p)
            if not (f1 or f0):
                return None
            coeffs = self._plain
        ti, tj = i + k - 1, j + l - 1
        if tj < 0:
            return None  # j = l = 0: both y factors have upper index -1
        g1 = binom_mod_p(tj, j - 1, p) if f1 else 0
        g0 = binom_mod_p(tj, j, p) if f0 else 0
        c = (f1 * g1 - f0 * g0) % p
        if not c:
            return None
        if ti == -1:
            ti = tau1  # a pure-y product lands on xbar = x^(tau1) times its y target
        if ti > tau1 or tj >= q:
            raise NotASubalgebra(f"nonzero product escaping the basis at ({i},{j},{k},{l})")
        return ((ti * q + tj, coeffs[c]),) if coeffs[c] else None

    def _sources(self, m: int) -> Iterator[tuple[int, int]]:
        """The pairs a < b that can land on m = ti q + tj: i + k - 1 = ti and
        j + l - 1 = tj, and on ti = tau1 the pure-y pairs remapped there."""
        tau1, q = self._tau1, self._q
        ti, tj = divmod(m, q)
        xs = [(i, ti + 1 - i) for i in range(max(0, ti + 1 - tau1), min(tau1, ti + 1) + 1)] + [(0, 0)] * (ti == tau1)
        pairs = ((i * q + j, k * q + tj + 1 - j) for i, k in xs for j in range(max(0, tj + 2 - q), min(q, tj + 2)))
        return (key for key in pairs if key[0] < key[1])

    def _proves(self, n: int, deg: tuple) -> bool:
        """True when deg is affine on the monomials in the way that makes
        every product land in its predicted class; False says nothing.

        Lemma: let d(i, j) = d0 + alpha i + beta j mod N with
        alpha + beta + d0 = 0 mod N.  Then d(i+k-1, j+l-1) =
        d(i, j) + d(k, l) - (d0 + alpha + beta) = d(i, j) + d(k, l), so
        every product x^(i)y^(j) . x^(k)y^(l) -> x^(i+k-1)y^(j+l-1) inside
        the box is graded, and no product leaves it (module docstring).
        The remap of a pure-y target (-1, tj) onto (tau1, tj) keeps the
        class iff alpha (tau1 + 1) = 0 mod N.  So reading d0, alpha and beta
        off the monomials 1, x and y, an O(dim) pass that deg is that
        affine map, plus the two congruences, proves the grading of every
        product; a None degree, at the position a view leaves out
        (RuleBrackets.without), is not compared."""
        tau1, q = self._tau1, self._q
        if len(deg) != self._dim or None in (deg[0], deg[q], deg[1]):
            return False
        d0 = deg[0]
        alpha, beta = deg[q] - d0, deg[1] - d0
        if (alpha + beta + d0) % n or alpha * (tau1 + 1) % n:
            return False
        return all(d is None or d == (d0 + alpha * i + beta * j) % n
                   for i in range(tau1 + 1) for j, d in enumerate(deg[i * q:(i + 1) * q]))


def phi1_rule_table(
    p: int,
    n1: int,
    n2: int,
    field: FieldSpec | None = None,
    eps: FieldElement | int = 1,
) -> StructureTable:
    """build_H2_phi1's table, with Phi1Brackets for its bracket dict."""
    params, field, eps = _phi1_args(p, n1, n2, field, eps)
    labels = [monomial_label(i, j) for i, j in monomials(*params.tau)]
    return StructureTable(field, labels, Phi1Brackets(p, n1, n2, field, eps))


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
    brackets = {}
    theta = spec.theta
    for m in range(len(spec.group)):
        for n in range(m + 1, len(spec.group)):
            a, b = spec.group[m], spec.group[n]
            c = b - a + a * theta[b] - b * theta[a]
            if c:
                brackets[(m, n)] = ((index[a + b], c),)
    return StructureTable(field, labels, brackets)
