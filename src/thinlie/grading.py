"""The two cyclic gradings of H(2;(n1),(n2);Phi(1)).

grade_mixed assigns monomial degrees (1-q)i - j + q modulo (q-1)r, the
grading whose loop algebra mixes diamonds of types -1 and infinity.

eigenbasis diagonalizes the toral element e_0 = y + pi*xbar*y and labels the
eigenvectors e[r, alpha] with alpha = r*rho + s*sigma.  In that basis the
algebra is an Albert-Zassenhaus algebra with one-term products

    {e_{1-j,alpha}, e_{1-l,beta}} = (beta C(j+l-1, l) - alpha C(j+l-1, j)) e_{2-j-l, alpha+beta},

so its table is written down from this formula (closed_eigen_table), not
conjugated, and a generator certificate (liealg.check_structure_map) proves
the basis map an isomorphism onto the monomial table.  grade_finite combines
the two residues r mod (q-1) and s mod p into a degree modulo (q-1)p.  The
resulting loop algebra has diamond types in arithmetic progression with
step sigma/rho, so prescribing the third type mu3 outside the prime field
pins (sigma, rho) down exactly; params_from_mu3 inverts that prescription.
No function here checks a degree map against its table: loop_expand does,
once per expansion (liealg.validate_grading).
"""

from __future__ import annotations

from dataclasses import dataclass

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
    MapCheck,
    StructureTable,
    bracket,
    check_structure_map,
    extend_to_generators,
    subalgebra_table,
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
    return DegreeMap(n, tuple(((1 - q) * i - j + q) % n for i, j in mons))


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
    eigenvalue.  eigen_table is the closed Albert-Zassenhaus table on these
    labels and certificate the outcome of check_structure_map for the basis
    map e[r, alpha] -> vectors[m] into the monomial table.  For sigma = 0
    only the single admissible alpha per slice exists and neither is formed
    (partial = True).
    """

    table: StructureTable
    params: ToralParams
    q: int
    entries: list[tuple[int, int, FieldElement]]
    vectors: list[Element]
    partial: bool
    eigen_table: StructureTable | None = None
    certificate: MapCheck | None = None

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
    Otherwise eigen_table is built from the closed product formula
    (closed_eigen_table), and certificate proves the basis map an
    isomorphism onto the monomial table: check_structure_map from X, Y and,
    where these do not generate, the basis vectors extend_to_generators adds.
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
        et = basis.eigen_table = closed_eigen_table(basis)
        gens = extend_to_generators(et, generator_positions(basis))
        basis.certificate = check_structure_map(et, table, vectors, gens)
    return basis


def closed_eigen_table(basis: EigenBasis) -> StructureTable:
    """The table on basis.entries from the closed Albert-Zassenhaus product

        {e_{1-j,alpha}, e_{1-l,beta}} = (beta C(j+l-1, l) - alpha C(j+l-1, j)) e_{2-j-l, alpha+beta},

    read as zero when 2-j-l leaves [2-q, 1].  In slice labels r = 1-j,
    r' = 1-l the target slice is r + r', and entries run down the slices,
    so once r + r' drops below 2-q it stays there for the rest of the row.
    """
    fieldspec = basis.table.field
    p, q, entries = basis.params.p, basis.q, basis.entries
    position = {(r, alpha): m for m, (r, _, alpha) in enumerate(entries)}
    binoms: dict[tuple[int, int], tuple[FieldElement, FieldElement]] = {}
    brackets = {}
    for a, (ra, _, alpha) in enumerate(entries):
        for b in range(a + 1, len(entries)):
            rb, _, beta = entries[b]
            rc = ra + rb
            if rc > 1:
                continue
            if rc < 2 - q:
                break
            pair = binoms.get((ra, rb))
            if pair is None:
                pair = binoms[(ra, rb)] = (
                    fieldspec.element(binom_mod_p(1 - rc, 1 - rb, p)),
                    fieldspec.element(binom_mod_p(1 - rc, 1 - ra, p)),
                )
            coeff = beta * pair[0] - alpha * pair[1]
            if coeff:
                brackets[(a, b)] = ((position[(rc, alpha + beta)], coeff),)
    return StructureTable(fieldspec, basis.labels, brackets)


def grade_finite(basis: EigenBasis) -> DegreeMap:
    """Degrees modulo (q-1)p from r mod (q-1) and s mod p, normalized so the
    distinguished generators X = e[1, rho+sigma] and Y = e[2-q, 2rho+sigma]
    sit in degree one."""
    if basis.partial or basis.eigen_table is None:
        raise ValueError("grade_finite requires a full eigenbasis")
    if basis.params.n1 != 1:
        raise ValueError("the toral degree rule is implemented for n1 = 1 only")
    p, q = basis.params.p, basis.q
    n = (q - 1) * p
    raw = [combine_residues(r % (q - 1), s, q) for r, s, _ in basis.entries]
    x_pos = basis.position(1, 1)
    shift = (1 - raw[x_pos]) % n
    degrees = tuple((k + shift) % n for k in raw)
    dm = DegreeMap(n, degrees)
    y_pos = basis.position(2 - q, 1)
    if degrees[y_pos] != 1:
        raise AssertionError("Y does not land in degree one")
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
    x_pos = basis.position(1, 0)
    y_pos = basis.position(2 - q, 0)
    return sub, dm, x_pos, y_pos
