"""The two cyclic gradings of H(2;(n1),(n2);Phi(1)).

grade_mixed assigns monomial degrees (1-q)i - j + q modulo (q-1)r, the
grading whose loop algebra mixes diamonds of types -1 and infinity.

grade_finite diagonalizes the toral element e_0 = y + pi*xbar*y, labels the
eigenvectors e[r, alpha] with alpha = r*rho + s*sigma, and combines the two
residues r mod (q-1) and s mod p into a degree modulo (q-1)p.  The resulting
loop algebra has diamond types in arithmetic progression with step
sigma/rho, so prescribing the third type mu3 outside the prime field pins
(sigma, rho) down exactly; params_from_mu3 inverts that prescription.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .cartan import binom_mod_p, monomial_label, monomials
from .errors import DenominatorZero, Mu3InPrimeField, NoRootInField
from .ffield import (
    FieldElement,
    FieldSpec,
    artin_schreier_roots,
    combine_residues,
    frobenius,
    in_prime_field,
    pth_root,
)
from .liealg import (
    DegreeMap,
    Element,
    StructureTable,
    bracket,
    change_basis,
    rref,
    subalgebra_table,
    validate_grading,
)


# ---------------------------------------------------------------------------
# the monomial-degree grading
# ---------------------------------------------------------------------------

def grade_mixed(table: StructureTable, q: int, r: int) -> DegreeMap:
    """Degree ((1-q)i - j + q) mod (q-1)r for the monomial x^(i)y^(j).

    Works on the full Phi(1) table and, via DegreeMap.restrict, on its
    derived subalgebra in characteristic two.
    """
    tau1, tau2 = r - 1, q - 1
    mons = monomials(tau1, tau2)
    if list(table.labels) != [monomial_label(i, j) for i, j in mons]:
        raise ValueError("table is not a Phi(1) monomial table for these parameters")
    n = (q - 1) * r
    degrees = tuple(((1 - q) * i - j + q) % n for i, j in mons)
    dm = DegreeMap(n, degrees)
    if not validate_grading(table, dm):
        raise AssertionError("mixed degree map fails bracket compatibility")
    return dm


# ---------------------------------------------------------------------------
# the toral grading
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ToralParams:
    """sigma, rho, eps with rho^(p^n1) - sigma^(p^n1 - 1) rho - eps = 0."""

    sigma: FieldElement
    rho: FieldElement
    eps: FieldElement
    n1: int = 1

    def __post_init__(self):
        lhs = self.rho ** (self.p ** self.n1) - self.pi * self.rho - self.eps
        if lhs:
            raise ValueError("rho does not satisfy the Artin-Schreier relation")

    @property
    def field(self) -> FieldSpec:
        return self.sigma.spec

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def pi(self) -> FieldElement:
        return self.sigma ** (self.p ** self.n1 - 1)


def toral_params(
    field: FieldSpec,
    sigma: FieldElement | int,
    eps: FieldElement | int = 1,
    rho: FieldElement | int | None = None,
    n1: int = 1,
) -> ToralParams:
    """Build ToralParams, finding rho by exhaustive root search if omitted."""
    sigma = field.element(sigma)
    eps = field.element(eps)
    if rho is None:
        roots = artin_schreier_roots(field, sigma, eps, n1)
        if not roots:
            raise NoRootInField(
                "Z^(p^n1) - sigma^(p^n1-1) Z - eps has no root here; enlarge the field"
            )
        rho = roots[0]
    return ToralParams(sigma, field.element(rho), eps, n1)


def params_from_mu3(mu3: FieldElement) -> ToralParams:
    """Solve sigma^p (1/(mu3^p + 1) - 1/(mu3 + 1)) = 1, rho (mu3 + 1) = sigma.

    Requires mu3 outside the prime field; the output satisfies the toral
    relation with eps = 1, and -1 + sigma/rho returns mu3.
    """
    field = mu3.spec
    one = field.one
    if in_prime_field(mu3):
        raise Mu3InPrimeField(f"mu3 = {mu3} lies in the prime field")
    if not (mu3 + one) or not (frobenius(mu3) + one):
        raise DenominatorZero("mu3 = -1 admits no assigned-type solution")
    d = (frobenius(mu3) + one).inverse() - (mu3 + one).inverse()
    sigma = pth_root(d.inverse())
    rho = sigma / (mu3 + one)
    return ToralParams(sigma, rho, one)


def toral_element(table: StructureTable, params: ToralParams) -> Element:
    """e_0 = y + pi * xbar y in the monomial table."""
    tau1 = params.p ** params.n1 - 1
    if table.dim % (tau1 + 1):
        raise ValueError("table dimension is incompatible with n1")
    tau2 = table.dim // (tau1 + 1) - 1
    mons = monomials(tau1, tau2)
    index = {m: i for i, m in enumerate(mons)}
    coords = {index[(0, 1)]: table.field.one}
    if params.pi:
        coords[index[(tau1, 1)]] = params.pi
    return table.element(coords)


@dataclass
class EigenBasis:
    """Eigenvectors of ad e_0 with their (r, s, alpha) indexing.

    entries[m] = (r, s, alpha) for basis position m of eigen_table, where
    r = 1 - j is the integer slice label and alpha = r*rho + s*sigma the
    eigenvalue.  For sigma = 0 only the single admissible alpha per slice
    exists and no eigen table is formed (partial = True).
    """

    table: StructureTable
    params: ToralParams
    q: int
    entries: list[tuple[int, int, FieldElement]]
    vectors: list[Element]
    partial: bool
    eigen_table: StructureTable | None = None
    rows: list[list[FieldElement]] = dc_field(default_factory=list)

    @property
    def labels(self) -> list[str]:
        return [f"e[{r},{a}]" for r, _, a in self.entries]

    def position(self, r: int, s: int) -> int:
        for m, (rr, ss, _) in enumerate(self.entries):
            if rr == r and ss == s:
                return m
        raise KeyError((r, s))


def _subfield_multipliers(field: FieldSpec, n1: int) -> list[FieldElement]:
    """Elements of the subfield F_{p^n1}, in canonical order."""
    h = field.p ** n1
    out = [a for a in field.elements() if a ** h == a]
    if len(out) != h:
        raise ValueError(f"field has no subfield with {h} elements")
    return out


def eigenbasis(table: StructureTable, params: ToralParams) -> EigenBasis:
    """Diagonalize ad e_0 on the Phi(1) monomial table.

    Each vector is checked against the eigen-equation {e_0, v} = alpha*v.
    With sigma = 0 the basis is partial: one eigenvector per slice, jointly
    spanning the Zassenhaus subalgebra of the sigma = 0 degeneration.
    """
    fieldspec = table.field
    p, n1 = params.p, params.n1
    r_card = p ** n1
    tau1 = r_card - 1
    if table.dim % r_card:
        raise ValueError("table dimension is incompatible with n1")
    q = table.dim // r_card
    tau2 = q - 1
    mons = monomials(tau1, tau2)
    index = {m: i for i, m in enumerate(mons)}
    e0 = toral_element(table, params)

    if params.sigma:
        multipliers = _subfield_multipliers(fieldspec, n1)
    else:
        multipliers = [fieldspec.zero]

    entries: list[tuple[int, int, FieldElement]] = []
    vectors: list[Element] = []
    for j in range(q):
        r = 1 - j
        rj = fieldspec.element(r)
        for s, mult in enumerate(multipliers):
            alpha = rj * params.rho + mult * params.sigma
            coords: dict[int, FieldElement] = {}
            power = fieldspec.one  # alpha^i with 0^0 = 1
            for i in range(r_card):
                if power:
                    coords[index[(i, j)]] = power
                power = power * alpha
            if params.pi and j % p:
                pos = index[(tau1, j)]
                c = coords.get(pos, fieldspec.zero) + params.pi * fieldspec.element(j)
                if c:
                    coords[pos] = c
                else:
                    coords.pop(pos, None)
            v = table.element(coords)
            if bracket(e0, v) != v.scale(alpha):
                raise AssertionError(f"eigen-equation fails at (r={r}, s={s})")
            entries.append((r, s, alpha))
            vectors.append(v)

    partial = not bool(params.sigma)
    basis = EigenBasis(table, params, q, entries, vectors, partial)
    if not partial:
        rows = [v.dense() for v in vectors]
        if len(rref(fieldspec, rows)) != table.dim:
            raise AssertionError("eigenvectors do not form a basis")
        basis.rows = [list(r) for r in rows]
        basis.eigen_table = change_basis(table, rows, basis.labels)
    return basis


def eigen_bracket_check(basis: EigenBasis) -> bool:
    """Conjugated table versus the closed product formula, on every pair.

    {e_{1-j,alpha}, e_{1-l,beta}} = (beta C(j+l-1, l) - alpha C(j+l-1, j))
    e_{2-j-l, alpha+beta}, read as zero when 2-j-l leaves [2-q, 1].
    """
    if basis.eigen_table is None:
        raise ValueError("bracket check requires a full eigenbasis")
    t = basis.eigen_table
    fieldspec = t.field
    p = basis.params.p
    q = basis.q
    pos = {}
    for m, (r, _, alpha) in enumerate(basis.entries):
        pos[(r, alpha.coords)] = m
    for a in range(t.dim):
        ra, _, alpha = basis.entries[a]
        ja = 1 - ra
        for b in range(a + 1, t.dim):
            rb, _, beta = basis.entries[b]
            jb = 1 - rb
            rc = 2 - ja - jb
            expected: list[tuple[int, FieldElement]] = []
            if 2 - q <= rc <= 1:
                coeff = beta * binom_mod_p(ja + jb - 1, jb, p) - alpha * binom_mod_p(ja + jb - 1, ja, p)
                if coeff:
                    expected = [(pos[(rc, (alpha + beta).coords)], coeff)]
            if list(t.basis_bracket(a, b)) != expected:
                return False
    return True


def grade_finite(basis: EigenBasis, q: int | None = None, p: int | None = None) -> DegreeMap:
    """Degrees modulo (q-1)p from r mod (q-1) and s mod p, normalized so the
    distinguished generators X = e[1, rho+sigma] and Y = e[2-q, 2rho+sigma]
    sit in degree one."""
    if basis.partial or basis.eigen_table is None:
        raise ValueError("grade_finite requires a full eigenbasis")
    if basis.params.n1 != 1:
        raise ValueError("the toral degree rule is implemented for n1 = 1 only")
    p = p or basis.params.p
    q = q or basis.q
    n = (q - 1) * p
    raw = [combine_residues(r % (q - 1), s, q) for r, s, _ in basis.entries]
    x_pos = basis.position(1, 1)
    shift = (1 - raw[x_pos]) % n
    degrees = tuple((k + shift) % n for k in raw)
    dm = DegreeMap(n, degrees)
    y_pos = basis.position(2 - q, 1)
    if degrees[y_pos] != 1:
        raise AssertionError("Y does not land in degree one")
    if not validate_grading(basis.eigen_table, dm):
        raise AssertionError("toral degree map fails bracket compatibility")
    return dm


def generator_positions(basis: EigenBasis) -> tuple[int, int]:
    """Positions of X = e[1, rho+sigma] and Y = e[2-q, 2rho+sigma]."""
    return basis.position(1, 1), basis.position(2 - basis.q, 1)


def sigma_zero_subalgebra(basis: EigenBasis) -> tuple[StructureTable, DegreeMap, int, int]:
    """The q-dimensional Zassenhaus subalgebra of the sigma = 0 degeneration.

    Returns its structure table on the partial eigenbasis, the grading over
    Z/(q-1)Z by the slice label, and the positions of X and Y.
    """
    if not basis.partial:
        raise ValueError("sigma_zero_subalgebra expects a sigma = 0 eigenbasis")
    q = basis.q
    sub = subalgebra_table(basis.table, basis.vectors, basis.labels)
    degrees = tuple((r % (q - 1)) for r, _, _ in basis.entries)
    dm = DegreeMap(q - 1, degrees)
    if not validate_grading(sub, dm):
        raise AssertionError("sigma = 0 slice grading fails bracket compatibility")
    x_pos = basis.position(1, 0)
    y_pos = basis.position(2 - q, 0)
    return sub, dm, x_pos, y_pos
