"""The two cyclic gradings of H(2;(n1,n2);Phi(1)).

grade_mixed assigns monomial degrees (1-q)i - j + q modulo (q-1)r, r = p^n1,
the grading whose loop algebra mixes diamonds of types -1 and infinity.

The toral grading is that of H(2;(1,n2);Phi(1)), n1 = 1, the only shape
built here.  The eigenvectors of the toral element e_0 = y + pi*xbar*y are
labelled e[r, alpha] with alpha = r*rho + s*sigma, s in F_p, and in that
basis the algebra is the Albert-Zassenhaus algebra AZ(sigma, rho), with
one-term products

    {e_{1-j,alpha}, e_{1-l,beta}} = (beta C(j+l-1, l) - alpha C(j+l-1, j)) e_{2-j-l, alpha+beta}.

eigenbasis builds the labels from the params and q alone and reads its
table off this formula by rule (AZBrackets), with no monomial table and
no eigenvector; certify_eigenbasis proves that table Lie by itself, from
a generating set whose ads are derivations, checked on a grid
(_derivation).  That it is the table of H(2;(1,n2);Phi(1)) in the
eigenbasis of e_0 is a second statement, proved by verify.identify, which
also builds the eigenvectors.  grade_finite combines the two residues
r mod (q-1) and s mod p into a degree modulo (q-1)p.  The
resulting loop algebra has diamond types in arithmetic progression with
step sigma/rho, so prescribing the third type mu3 outside the prime field
pins (sigma, rho) down exactly; params_from_mu3 inverts that prescription.
No function here checks a degree map against its table: loop_expand does,
once per expansion (liealg.validate_grading, from AZBrackets._proves), on
eigen_quotient's view without the center too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .cartan import _pascal, monomial_label, monomials
from .errors import DenominatorZero, Mu3InPrimeField, NoRootInField, NotAnIdeal
from .ffield import FieldElement, FieldSpec, artin_schreier_roots, combine_residues, frobenius, in_prime_field, pth_root
from .liealg import DegreeMap, Element, MapCheck, RuleBrackets, StructureTable, _greedy_generators


# ---------------------------------------------------------------------------
# the monomial-degree grading
# ---------------------------------------------------------------------------

def grade_mixed(table: StructureTable, q: int, r: int) -> DegreeMap:
    """Degree ((1-q)i - j + q) mod (q-1)r for the monomial x^(i)y^(j).

    The map of the whole Phi(1) table; in characteristic two a run
    restricts it (DegreeMap.restrict) to L', the rule's view without the
    last monomial, and the rule proves the restriction a grading too.
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
    """sigma, rho, eps with rho^p - pi rho - eps = 0, pi = sigma^(p-1): the
    toral element e_0 = y + pi*xbar*y of H(2;(1,n2);Phi(1))."""

    sigma: FieldElement
    rho: FieldElement
    eps: FieldElement

    def __post_init__(self):
        if self.rho ** self.p - self.pi * self.rho - self.eps:
            raise ValueError("rho does not satisfy the Artin-Schreier relation")

    @property
    def field(self) -> FieldSpec:
        return self.sigma.spec

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def pi(self) -> FieldElement:
        return self.sigma ** (self.p - 1)


def toral_params(
    field: FieldSpec,
    sigma: FieldElement | int,
    eps: FieldElement | int = 1,
    rho: FieldElement | int | None = None,
) -> ToralParams:
    """Build ToralParams, finding rho by exhaustive root search if omitted."""
    sigma = field.element(sigma)
    eps = field.element(eps)
    if rho is None:
        roots = artin_schreier_roots(field, sigma, eps)
        if not roots:
            raise NoRootInField("Z^p - sigma^(p-1) Z - eps has no root here; enlarge the field")
        rho = roots[0]
    return ToralParams(sigma, field.element(rho), eps)


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
    """e_0 = y + pi * xbar y in the monomial table of H(2;(1,n2);Phi(1)):
    x^(i) y^(j) at position i q + j, xbar = x^(p-1)."""
    p = params.p
    if table.dim % p:
        raise ValueError("table dimension is not a multiple of p")
    q = table.dim // p
    coords = {1: table.field.one}
    if params.pi:
        coords[(p - 1) * q + 1] = params.pi
    return table.element(coords)


@dataclass
class EigenBasis:
    """The Albert-Zassenhaus basis e[r, alpha] of the toral grading:
    entries[m] = (r, s, alpha) at position m = j w + s of eigen_table, w = p
    per slice, r = 1 - j the slice label and alpha = r*rho + s*sigma the
    eigenvalue of ad e_0, s in F_p.  eigen_table is the closed table on
    these labels, read by rule, and certificate proves it Lie
    (certify_eigenbasis).  For sigma = 0 one alpha per slice (partial,
    w = 1): eigen_table is the q-dimensional Zassenhaus algebra."""

    params: ToralParams
    q: int
    entries: list[tuple[int, int, FieldElement]]
    eigen_table: StructureTable | None = None
    certificate: MapCheck | None = None

    @property
    def partial(self) -> bool:
        return not self.params.sigma

    @property
    def labels(self) -> list[str]:
        return [f"e[{r},{a}]" for r, _, a in self.entries]

    def position(self, r: int, s: int) -> int:
        """m = (1 - r) w + s, KeyError when entries[m] is not (r, s, _)."""
        m = (1 - r) * (1 if self.partial else self.params.p) + s
        if 0 <= m < len(self.entries) and self.entries[m][:2] == (r, s):
            return m
        raise KeyError((r, s))


def eigenbasis(params: ToralParams, q: int) -> EigenBasis:
    """The labels e[r, alpha] of q slices, p per slice, or with sigma = 0
    one per slice (partial); eigen_table reads the closed product formula
    (AZBrackets), and certificate proves it Lie (certify_eigenbasis)."""
    fieldspec, rho, sigma = params.field, params.rho, params.sigma
    width = params.p if sigma else 1
    entries = [(1 - j, s, fieldspec.element(1 - j) * rho + fieldspec.element(s) * sigma)
               for j in range(q) for s in range(width)]
    basis = EigenBasis(params, q, entries)
    basis.eigen_table = StructureTable(fieldspec, basis.labels, AZBrackets(basis))
    basis.certificate = certify_eigenbasis(basis)
    return basis


class AZBrackets(RuleBrackets):
    """The closed Albert-Zassenhaus table on an eigenbasis, read by rule.
    Its one formula is form, which _derivation reads too: positions
    (j, s) < (l, t), m = j w + s, have product (rho u + sigma v) at
    (jc, s + t mod p), v = t B1 - s B2 mod p, for (jc, u, B1, B2) =
    form(j, l).  With alpha = (1-j) rho + s sigma, s in F_p, that is
    (beta B1 - alpha B2) e[2-j-l, alpha+beta], B1 = C(j+l-1, l), B2 =
    C(j+l-1, j), zero unless 0 <= j + l - 1 < q."""

    def __init__(self, basis: EigenBasis):
        super().__init__(len(basis.entries))
        params = basis.params
        self._p, self._q, self._entries = params.p, basis.q, basis.entries
        self._width = len(basis.entries) // basis.q
        self._rows: list[list[int]] | None = None
        self._rhos = [params.rho * c for c in range(params.p)]
        self._sigmas = [params.sigma * c for c in range(params.p)]

    def _slice_pair(self, ja: int, jb: int) -> tuple[int, int, int]:
        """(jc, B1, B2) = (ja + jb - 1, C(jc, jb), C(jc, ja)) mod p, read off
        Pascal's triangle mod p up to row q - 1, made on first use;
        B1 = B2 = 0 when jc leaves [0, q-1], where products read as zero."""
        jc = ja + jb - 1
        if not 0 <= jc < self._q:
            return jc, 0, 0
        if self._rows is None:
            self._rows = _pascal(self._q - 1, self._p)
        row = self._rows[jc]
        return jc, row[jb] if 0 <= jb <= jc else 0, row[ja] if 0 <= ja <= jc else 0

    def form(self, ja: int, jb: int) -> tuple[int, int, int, int]:
        """(jc, u, B1, B2) of slices ja <= jb, u = (1-jb) B1 - (1-ja) B2 mod
        p: [e(ja, s), e(jb, t)] = (rho u + sigma (t B1 - s B2)) e(jc, s + t).
        On (j, j) it reads B1 alone, (jc, 0, B1, B1), which is alternating,
        or (jc, 0, 0, 0) on width-one slices, which hold no product."""
        jc, b1, b2 = self._slice_pair(ja, jb)
        if ja == jb:
            return (jc, 0, b1, b1) if self._width > 1 else (jc, 0, 0, 0)
        return jc, ((1 - jb) * b1 - (1 - ja) * b2) % self._p, b1, b2

    def _product(self, key) -> tuple[tuple[int, FieldElement]] | None:
        a, b = key
        if not 0 <= a < b < self._dim:
            return None
        w, p = self._width, self._p
        (ja, sa), (jb, sb) = divmod(a, w), divmod(b, w)
        jc, u, b1, b2 = self.form(ja, jb)
        if not (u or b1 or b2):
            return None
        c = self._rhos[u] + self._sigmas[(sb * b1 - sa * b2) % p]
        return ((jc * w + (sa + sb) % p, c),) if c else None

    def _sources(self, m: int) -> Iterator[tuple[int, int]]:
        """The pairs a < b whose product can land on m = jc w + sc: slices
        ja + jb - 1 = jc, indices sa + sb = sc mod p (0 on width one)."""
        w, top = self._width, self._q - 1
        jc, sc = divmod(m, w)
        pairs = ((ja * w + sa, (jc + 1 - ja) * w + (sc - sa) % w)
                 for ja in range(max(0, jc + 1 - top), min(top, jc + 1) + 1) for sa in range(w))
        return (key for key in pairs if key[0] < key[1])

    def _proves(self, n: int, degrees: tuple) -> bool:
        """True when degrees are raw(r, s) = combine_residues(r mod (q-1),
        s, q) mod n, a divisor of (q-1)p (grade_finite,
        sigma_zero_subalgebra); False says nothing.  raw is additive, and
        the rule takes (r, s), (r', s') to (r + r', s + s' mod p)."""
        q = self._q
        if (q - 1) * self._p % n or len(degrees) != self._dim:
            return False
        return all(d is None or d == combine_residues(r % (q - 1), s, q) % n
                   for d, (r, s, _) in zip(degrees, self._entries))


def certify_eigenbasis(basis: EigenBasis) -> MapCheck:
    """Prove eigen_table Lie: ad g is a derivation (_derivation) for each g
    of a generating set (_generators), so every ad is one (the lemma in
    liealg.validate_table), which in an alternating table is the Jacobi
    identity."""
    return _derivation(basis, _generators(basis))


def _generators(basis: EigenBasis) -> list[int]:
    """X, Y, then each position outside the _ReachedSpan of those before
    it, until they generate eigen_table (_greedy_generators)."""
    et = basis.eigen_table
    return list(_greedy_generators(et, generator_positions(basis), range(et.dim)))


def _derivation(basis: EigenBasis, gens: list[int]) -> MapCheck:
    """ad g is a derivation of the rule table for g in gens, on a grid.
    The table is taken to be its slice-pair form (AZBrackets.form): a
    product changed outside the form is out of the certificate's reach,
    except on the row of a generator (X and Y, whose rows the thin report
    reads, among them), which is read through the table first and must be
    those forms.  For g = e(jg, sg) and slices j1 <= j2, the defect
    [g, [x, y]] - [[g, x], y] - [x, [g, y]] at x = e(j1, s1), y = e(j2, s2)
    sums products of two forms rho u + sigma v, u fixed by the slices and v
    affine in (s1, s2), on one target (terms put apart fail): rho^2 A + rho
    sigma B + sigma^2 C, A, B, C mod p of degree at most 2 in each of s1,
    s2.  Zero on S x S, |S| = 3, it is zero on F_p x F_p (Alon,
    "Combinatorial Nullstellensatz", Combin. Probab. Comput. 8 (1999),
    Lemma 2.1); S = {0, 1, 2}, all of F_p for p <= 3.  The form of (j, j)
    must have u = 0 and B1 = B2 (checked first), so the table is
    alternating and the grid covers every pair.  A, B, C enter the field
    only when not all zero.  The slice bounds below take jc = ja + jb - 1,
    the target of every form the rule builds; on a form with another
    target the grid is conservative, failing terms put apart even where
    they vanish, not exact.

    A width-one slice (w = 1, the partial sigma = 0 basis) holds one
    vector, so the grid pair j1 = j2 is x = y, whose defect is zero in any
    alternating table, and is skipped.  A slice pair whose three inner
    forms, [x, y], [g, x] and [g, y], are all zero has every term of its
    defect zero, and is skipped."""
    et, rho, sigma = basis.eigen_table, basis.params.rho, basis.params.sigma
    rule, labels = et.brackets, et.labels
    p, q, w = rule._p, rule._q, rule._width
    for j in range(q):
        _, u, b1, b2 = rule.form(j, j)
        if u % p or (b1 - b2) % p:
            return MapCheck("derivation", f"slice pair ({j}, {j}) is not alternating")

    def form(jx: int, jy: int) -> tuple[int, int, int, int]:  # as [y, x] = -[x, y]
        if jx <= jy:
            return rule.form(jx, jy)
        jc, u, b1, b2 = rule.form(jy, jx)
        return jc, -u, b2, b1

    grid = range(min(w, 3))
    for g in gens:
        jg, sg = divmod(g, w)
        for m in range(et.dim):  # the row of g, read through the table
            jm, sm = divmod(m, w)
            jc, u, b1, b2 = form(jg, jm)
            c = rho * (u % p) + sigma * ((sm * b1 - sg * b2) % p)
            if et.basis_bracket(g, m) != (((jc * w + (sg + sm) % w, c),) if c else ()):
                return MapCheck("rule", f"[{labels[g]}, {labels[m]}] is not the product of its slice pair")
        for j1 in range(q):
            if j1 + j1 + jg > q + 1:
                break  # the defect's slice is past q - 1 for every j2 >= j1: every term is zero
            tg1, ug1, bg1, cg1 = form(jg, j1)  # [g, x]
            for j2 in range(j1 + (w == 1), q):
                if j1 + j2 + jg > q + 1:
                    break
                t12, u12, b12, c12 = form(j1, j2)  # [x, y]
                tg2, ug2, bg2, cg2 = form(jg, j2)  # [g, y]
                if not (u12 or b12 or c12 or ug1 or bg1 or cg1 or ug2 or bg2 or cg2):
                    continue
                t1, u1, b1, c1 = form(jg, t12)  # [g, [x, y]]
                t2, u2, b2, c2 = form(tg1, j2)  # [[g, x], y]
                t3, u3, b3, c3 = form(j1, tg2)  # [x, [g, y]]
                a, apart = u12 * u1 - ug1 * u2 - ug2 * u3, t1 != t2 or t2 != t3
                for s1 in grid:
                    for s2 in grid:
                        v12, vg1, vg2 = s2 * b12 - s1 * c12, s1 * bg1 - sg * cg1, s2 * bg2 - sg * cg2
                        v1, v2, v3 = (s1 + s2) * b1 - sg * c1, s2 * b2 - (sg + s1) * c2, (sg + s2) * b3 - s1 * c3
                        b = u12 * v1 + v12 * u1 - ug1 * v2 - vg1 * u2 - ug2 * v3 - vg2 * u3
                        c = v12 * v1 - vg1 * v2 - vg2 * v3
                        if apart or (a % p or b % p or c % p) and rho * (rho * a + sigma * b) + sigma * sigma * c:
                            x, y = labels[j1 * w + s1], labels[j2 * w + s2]
                            return MapCheck("derivation", f"ad {labels[g]} on [{x}, {y}]")
    return MapCheck()


def eigen_quotient(basis: EigenBasis, drop: int) -> StructureTable:
    """eigen_table modulo the line of b_drop, the rule on the other
    positions (StructureTable.without); the line is an ideal when the dim
    products of b_drop lie in it, else NotAnIdeal."""
    et = basis.eigen_table
    if any(terms[0][0] != drop for m in range(et.dim) if (terms := et.basis_bracket(drop, m))):
        raise NotAnIdeal("basis positions are not bracket-stable under the full algebra")
    return et.without(drop)


def grade_finite(basis: EigenBasis) -> DegreeMap:
    """Degrees modulo (q-1)p from r mod (q-1) and s mod p: the distinguished
    generators X = e[1, rho+sigma] at (1, 1) and Y = e[2-q, 2rho+sigma] at
    (2-q, 1), 2-q = 1 mod q-1, both sit in degree one.  sigma = 0 leaves one
    eigenvalue per slice, so no residue s to combine: no finite grading."""
    if basis.partial:
        raise ValueError("grade_finite requires a full eigenbasis")
    q = basis.q
    return DegreeMap((q - 1) * basis.params.p,
                     tuple(combine_residues(r % (q - 1), s, q) for r, s, _ in basis.entries))


def generator_positions(basis: EigenBasis) -> tuple[int, int]:
    """Positions of X = e[1, rho+sigma] and Y = e[2-q, 2rho+sigma]: at s = 1,
    or at s = 0, the only eigenvector of its slice, when sigma = 0."""
    s = 0 if basis.partial else 1
    return basis.position(1, s), basis.position(2 - basis.q, s)


def sigma_zero_subalgebra(basis: EigenBasis) -> DegreeMap:
    """The grading over Z/(q-1)Z by the slice label of the q-dimensional
    Zassenhaus algebra of the sigma = 0 degeneration, eigen_table on the
    partial basis."""
    if not basis.partial:
        raise ValueError("sigma_zero_subalgebra expects a sigma = 0 eigenbasis")
    return DegreeMap(basis.q - 1, tuple(r % (basis.q - 1) for r, _, _ in basis.entries))
