"""Independent brute-force oracles the tests check the library against.

These deliberately avoid the code paths they verify: binomials come from a
Pascal triangle, Poisson coefficients from explicit divided-power calculus
on untruncated monomial dictionaries, Cartan structure tables pair by pair
from those coefficients and Lucas binomials, congruences from linear scans,
reduced echelon forms from a dense Gauss-Jordan pass over whole rows and
sparse ones through the FieldElement operators, changes of basis from those
forms and dense inverse matrices, brackets of elements through the
FieldElement operators, Jacobi violations from a visit to every basis
triple, covering from every projective line of a two-dimensional
component, eigen-table products from the closed formula checked pair by
pair, right-normed spans from every bracket of a found vector with a
generator, generated subalgebras from every bracket of two found vectors,
quotients by an ideal from every bracket of two kept basis vectors,
derived subalgebras and subalgebra tables of element families from every
bracket of two of their vectors, centers and centralizer chains from the
nullspace centralizer_in finds, diamond slots each classified afresh,
and thin reports from those and the full-depth loop expansion, covering
scan and parameter k, which bracket every degree and never reuse
a grading period, and Leibniz-rule failures and validation reports from
the rows-based index, kernel and separate encoding loop that liealg used
before its flat one-pass index.  The thin-report oracles keep every
component as a Subspace eliminated from brackets, where thinloop
works on basis positions and table lookups; they share only its report
records.

is_one_term is the one-term flag liealg read off a table by a pass of its
own before _LeibnizIndex recorded it in its one pass.

Subspace, centralizer_in and oracle_center are this module's own: the
subspaces and nullspace centralizers liealg had before it read the center
off the stored pairs (liealg.center).  A Subspace keeps OracleEchelon's
canonical reduced rows, so two are equal exactly when their rows are;
oracle_component gives a loop expansion's M_d as one.  OracleEchelon is
the one echelon kernel of the project: the library eliminates nowhere.

closed_eigen_table, extend_to_generators and oracle_check_structure_map
are the materialized Albert-Zassenhaus table, its generating set and the
generator certificate on it (a flat Leibniz index and a derivation pass
over all pairs per generator) that the library used before it read the
eigen table by rule (grading.AZBrackets) and certified it on a grid
(grading.certify_eigenbasis).  Its intertwining, oracle_intertwining, is
the pair-by-pair check by liealg.bracket that liealg._intertwining made
before it read ad columns (liealg._AdColumns).  oracle_eigen_equation is
the scan of [e_0, v] = alpha v, vector by vector, that grading.eigenbasis
made before the certificate proved it from the homomorphism (now
verify._identified).  monomial_images gives a basis its monomial table and
eigenvectors, as verify.identify builds them, and phi1_monomials the
basis order of that table.
"""

import bisect
from math import comb

Mono = tuple[int, int]
Poly = dict[Mono, int]


def element_by_index(field, m: int):
    """The element at position m of field.elements(), the one whose
    coordinates are the base-p digits of m."""
    return list(field.elements())[m]


def dense_row(field, ncols, coords):
    """The dense row of length ncols of sparse {column: coefficient} coords."""
    return [coords.get(i, field.zero) for i in range(ncols)]


def pascal_binom(a: int, b: int, p: int) -> int:
    """C(a, b) mod p from an explicitly built Pascal triangle."""
    if b < 0 or b > a:
        return 0
    row = [1]
    for _ in range(a):
        row = [1] + [(row[i] + row[i + 1]) % p for i in range(len(row) - 1)] + [1]
    return row[b]


def dp_mul(f: Poly, g: Poly, p: int) -> Poly:
    """Divided-power product, no truncation: x^(a) x^(c) = C(a+c, a) x^(a+c)."""
    out: Poly = {}
    for (a, b), cf in f.items():
        for (c, d), cg in g.items():
            coeff = cf * cg * comb(a + c, a) * comb(b + d, b) % p
            if coeff:
                key = (a + c, b + d)
                out[key] = (out.get(key, 0) + coeff) % p
                if not out[key]:
                    del out[key]
    return out


def dp_partial(f: Poly, axis: int) -> Poly:
    out: Poly = {}
    for (a, b), c in f.items():
        key = (a - 1, b) if axis == 0 else (a, b - 1)
        if key[axis] >= 0:
            out[key] = c
    return out


def dp_poisson(f: Poly, g: Poly, p: int) -> Poly:
    """{f, g} = d2(f) d1(g) - d1(f) d2(g)."""
    t1 = dp_mul(dp_partial(f, 1), dp_partial(g, 0), p)
    t2 = dp_mul(dp_partial(f, 0), dp_partial(g, 1), p)
    out = dict(t1)
    for key, c in t2.items():
        out[key] = (out.get(key, 0) - c) % p
        if not out[key]:
            del out[key]
    return out


def poisson_coefficient(i: int, j: int, k: int, l: int, p: int) -> int:
    """Coefficient of x^(i+k-1) y^(j+l-1) in {x^(i)y^(j), x^(k)y^(l)}."""
    if i + k < 1 or j + l < 1:
        return 0
    prod = dp_poisson({(i, j): 1}, {(k, l): 1}, p)
    return prod.get((i + k - 1, j + l - 1), 0)


def oracle_cartan_table(kind: str, p: int, shape: tuple[int, ...], field=None, eps=1):
    """One of cartan's four binomial builders, pair by pair from the definitions.

    kind is "W" (shape (n,)), "Hsecond", "Hphitau" or "Hphi1" (shape (n1, n2)).
    Each coefficient is poisson_coefficient, or a Lucas binomial difference
    for [E_i, E_j] and for Phi(1)'s pure-y products (N', scaled by eps); a
    nonzero product whose target is not a basis vector fails an assertion.
    """
    from thinlie.cartan import binom_mod_p
    from thinlie.ffield import field_create
    from thinlie.liealg import StructureTable

    field = field or field_create(p)
    if kind == "W":
        top = p ** shape[0] - 2
        basis = list(range(-1, top + 1))
        labels = [f"E_{i}" for i in basis]
        index = {i: i + 1 for i in basis}

        def product(i, j):
            return i + j, binom_mod_p(i + j + 1, j, p) - binom_mod_p(i + j + 1, i, p)
    else:
        tau1, tau2 = p ** shape[0] - 1, p ** shape[1] - 1
        excluded = {"Hsecond": [(0, 0), (tau1, tau2)], "Hphitau": [(0, 0)], "Hphi1": []}[kind]
        basis = [(i, j) for i in range(tau1 + 1) for j in range(tau2 + 1) if (i, j) not in excluded]
        labels = [f"x{i}y{j}" for i, j in basis]
        index = {m: pos for pos, m in enumerate(basis)}

        def product(m, n):
            (i, j), (k, l) = m, n
            if kind == "Hphi1" and i == k == 0:
                return (tau1, j + l - 1), eps * (binom_mod_p(j + l - 1, l, p) - binom_mod_p(j + l - 1, j, p))
            target, c = (i + k - 1, j + l - 1), poisson_coefficient(i, j, k, l, p)
            if target == (0, 0) and kind == "Hsecond":
                return None, 0  # the constants, killed mod F.1
            if target == (0, 0) and kind == "Hphitau":
                return (tau1, tau2), c
            return target, c

    brackets = {}
    for a, m in enumerate(basis):
        for b in range(a + 1, len(basis)):
            target, c = product(m, basis[b])
            c = field.element(c)
            if c:
                assert target in index, f"nonzero product escaping the basis at {m}, {basis[b]}"
                brackets[(a, b)] = ((index[target], c),)
    return StructureTable(field, labels, brackets)


def scan_congruences(r: int, s: int, m1: int, m2: int) -> int:
    """Smallest nonnegative k with k = r mod m1 and k = s mod m2, by scan."""
    for k in range(m1 * m2):
        if k % m1 == r % m1 and k % m2 == s % m2:
            return k
    raise AssertionError("no solution found")


def poly_pow_mod(base: list[int], exponent: int, modulus: list[int], p: int) -> list[int]:
    """Naive polynomial power with reduction, for Frobenius cross-checks."""

    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
        return reduce(out)

    def reduce(a):
        a = list(a)
        while len(a) >= len(modulus):
            lead = a[-1]
            shift = len(a) - len(modulus)
            for i, c in enumerate(modulus):
                a[shift + i] = (a[shift + i] - lead * c) % p
            while a and a[-1] == 0:
                a.pop()
        return a

    result = [1]
    for _ in range(exponent):
        result = mul(result, base)
    return result + [0] * (len(modulus) - 1 - len(result))


def oracle_rref(field, rows):
    """Reduced row echelon form with unit pivots, zero rows dropped: every
    row operation runs over all columns, zero entries included."""
    mat = [list(r) for r in rows]
    if not mat:
        return []
    ncols = len(mat[0])
    out = []
    pivots = []
    for row in mat:
        row = list(row)
        for prow, pc in zip(out, pivots):
            c = row[pc]
            if c:
                for idx in range(ncols):
                    row[idx] = row[idx] - c * prow[idx]
        pc = next((idx for idx, c in enumerate(row) if c), None)
        if pc is None:
            continue
        inv = row[pc].inverse()
        row = [inv * c for c in row]
        for prow in out:
            c = prow[pc]
            if c:
                for idx in range(ncols):
                    prow[idx] = prow[idx] - c * row[idx]
        out.append(row)
        pivots.append(pc)
    order = sorted(range(len(out)), key=lambda r: pivots[r])
    return [out[r] for r in order]


class OracleEchelon:
    """Sparse reduced echelon form with unit pivots by the FieldElement
    operators, one call per product, sum and zero test, grown one vector
    at a time from vectors.  Vectors go in and come out as sparse {column:
    coefficient} dicts, each coefficient coerced by field.element, so one
    of another field raises ValueError whatever column it sits in; rows
    maps each pivot column to its row, which holds one there and is zero
    at every other pivot, and pivots lists the pivot columns in increasing
    order.  The form is canonical: the same span
    gives the same rows whatever vectors built it."""

    def __init__(self, field, vectors=()):
        self.field = field
        self.rows = {}
        self.pivots = []
        for vec in vectors:
            self.add(vec)

    @property
    def rank(self):
        return len(self.pivots)

    def reduce(self, vec):
        rows, element = self.rows, self.field.element
        out = {i: c for i, c in ((i, element(c)) for i, c in vec.items()) if c}
        for pc in [i for i in out if i in rows]:
            c = out[pc]
            for idx, x in rows[pc].items():
                s = out.get(idx)
                s = -(c * x) if s is None else s - c * x
                if s:
                    out[idx] = s
                else:
                    del out[idx]
        return out

    def add(self, vec):
        residual = self.reduce(vec)
        if not residual:
            return False
        pc = min(residual)
        inv = residual[pc].inverse()
        new = {i: inv * c for i, c in residual.items()}
        for row in self.rows.values():
            c = row.get(pc)
            if c:
                for idx, x in new.items():
                    s = row.get(idx)
                    s = -(c * x) if s is None else s - c * x
                    if s:
                        row[idx] = s
                    else:
                        del row[idx]
        bisect.insort(self.pivots, pc)
        self.rows[pc] = new
        return True


# ---------------------------------------------------------------------------
# subspaces and nullspace centralizers, as liealg had them before it read the
# center off the stored pairs
# ---------------------------------------------------------------------------

class Subspace:
    """A subspace of a table's underlying vector space.

    echelon holds it in reduced echelon form and must not change after
    construction.  Its sparse rows are canonical, so two subspaces are equal
    (and hash alike) exactly when their rows are.
    """

    __slots__ = ("table", "echelon", "pivots", "_basis")

    def __init__(self, table, echelon):
        self.table = table
        self.echelon = echelon
        self.pivots = tuple(echelon.pivots)
        self._basis = None

    @classmethod
    def from_elements(cls, table, elements):
        return cls(table, OracleEchelon(table.field, (e.coords for e in elements)))

    @property
    def dim(self):
        return len(self.pivots)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.table is other.table
            and self.echelon.rows == other.echelon.rows
        )

    def __hash__(self):
        rows = self.echelon.rows
        return hash((id(self.table), tuple(frozenset(rows[pc].items()) for pc in self.pivots)))

    def contains(self, elem):
        return not self.echelon.reduce(elem.coords)

    def basis_elements(self):
        """The rows as Elements, built once: no caller may change their coords."""
        from thinlie.liealg import Element

        if self._basis is None:
            rows = self.echelon.rows
            self._basis = [Element(self.table, dict(sorted(rows[pc].items()))) for pc in self.pivots]
        return list(self._basis)

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.table.dim})"


def coordinate_span(table, positions):
    """The Subspace spanned by the basis vectors at positions."""
    return Subspace.from_elements(table, map(table.basis_element, positions))


def full_subspace(table):
    """The whole underlying space of table as a Subspace."""
    return coordinate_span(table, range(table.dim))


def oracle_component(expansion, d):
    """M_d of a loop expansion as a Subspace: an OracleExpansion's own, or
    the coordinate span of a thinloop.LoopExpansion's positions."""
    comp = expansion.components[d - 1]
    return comp if isinstance(comp, Subspace) else coordinate_span(expansion.base, comp)


def centralizer_in(t, ambient, target):
    """{a in ambient : [a, b] = 0 for every b in target}."""
    from thinlie.liealg import Element, _combine, bracket

    m = ambient.dim
    if m == 0 or target.dim == 0:
        return ambient
    arows = ambient.basis_elements()
    constraints = []
    for b in target.basis_elements():
        # one constraint per coordinate k of the images [a_i, b]
        by_coord = {}
        for i, a in enumerate(arows):
            for k, c in bracket(a, b).coords.items():
                by_coord.setdefault(k, {})[i] = c
        constraints.extend(by_coord.values())
    kernel = [
        Element(t, _combine((c, arows[i].coords) for i, c in combo.items()))
        for combo in _nullspace(t.field, constraints, m)
    ]
    return Subspace.from_elements(t, kernel)


def oracle_center(t, s):
    return centralizer_in(t, s, s)


def _nullspace(field, constraints, m):
    """Basis of {x in F^m : A x = 0} for sparse constraint rows A."""
    ech = OracleEchelon(field, constraints)
    out = []
    for f in range(m):
        if f not in ech.rows:
            vec = {f: field.one}
            for pc, row in ech.rows.items():
                if f in row:
                    vec[pc] = -row[f]
            out.append(vec)
    return out


def change_basis(table, rows, labels):
    """table rewritten in the basis whose E-coordinates are the dense rows:
    each bracket of two new basis vectors by oracle_bracket, then written in
    the new basis through the inverse matrix, the right half of
    oracle_rref([rows | I]).  ValueError when the rows are not a basis."""
    from thinlie.liealg import StructureTable

    field, n = table.field, table.dim
    if len(rows) != n:
        raise ValueError("change of basis requires a square matrix")
    unit = [[field.one if j == i else field.zero for j in range(n)] for i in range(n)]
    aug = oracle_rref(field, [list(r) + e for r, e in zip(rows, unit)])
    if [row[:n] for row in aug] != unit:
        raise ValueError("matrix is singular")
    inv = [row[n:] for row in aug]
    new = [table.element(dict(enumerate(r))) for r in rows]
    entries = []
    for a in range(n):
        for b in range(a + 1, n):
            w = oracle_bracket(new[a], new[b])
            coords = [field.zero] * n
            for k, c in w.coords.items():
                coords = [x + c * y for x, y in zip(coords, inv[k])]
            entries.append((a, b, [(m, c) for m, c in enumerate(coords) if c]))
    return StructureTable.from_entries(field, labels, entries)


def oracle_jacobi_violations(table, cap):
    """Basis triples i < j < k on which the Jacobi identity fails, in
    lexicographic order and at most cap of them: every triple is visited
    and every product is a FieldElement multiply and add."""
    dim = table.dim
    brackets = table.brackets
    violations = []

    def pair(i, j):
        # signed lookup for i != j
        if i < j:
            return brackets.get((i, j), ()), False
        return brackets.get((j, i), ()), True

    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                acc = {}
                # [[b_i, b_j], b_k] + [[b_j, b_k], b_i] + [[b_k, b_i], b_j]
                for terms, neg, other in (
                    (brackets.get((i, j), ()), False, k),
                    (brackets.get((j, k), ()), False, i),
                    (brackets.get((i, k), ()), True, j),
                ):
                    for m, c in terms:
                        if neg:
                            c = -c
                        inner, flip = pair(m, other)
                        for n, cn in inner:
                            v = c * cn
                            if flip:
                                v = -v
                            s = acc.get(n)
                            s = v if s is None else s + v
                            if s:
                                acc[n] = s
                            else:
                                acc.pop(n, None)
                if acc:
                    violations.append((i, j, k))
                    if len(violations) >= cap:
                        return violations
    return violations


def oracle_bracket(u, v):
    """Bilinear, alternating extension of the stored basis brackets, through
    the FieldElement operators and StructureTable.basis_bracket."""
    from thinlie.errors import TableMismatch
    from thinlie.liealg import Element

    if u.table is not v.table:
        raise TableMismatch("elements live on different structure tables")
    table = u.table
    out = {}
    for i, ci in u.coords.items():
        for j, cj in v.coords.items():
            terms = table.basis_bracket(i, j)
            if not terms:
                continue
            c = ci * cj
            for k, ck in terms:
                s = out.get(k)
                s = c * ck if s is None else s + c * ck
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
    return Element(table, out)


def oracle_right_normed_span(table, gens):
    """The span of the right-normed brackets of the basis positions gens,
    adjoined in order: each new generator is bracketed with every vector
    found so far, then every new vector with every generator, until no
    bracket leaves the span; every bracket is taken, through oracle_bracket,
    and eliminated by OracleEchelon.  Returns the echelon and the vectors
    found, in the order they entered it."""
    span = OracleEchelon(table.field)
    found, adjoined = [], []
    for i in gens:
        g = table.basis_element(i)
        adjoined.append(g)
        candidates = [oracle_bracket(g, u) for u in found] + [g]
        while candidates:
            new = [w for w in candidates if w and span.add(w.coords)]
            found += new
            candidates = [oracle_bracket(h, u) for u in new for h in adjoined]
    return span, found


def subalgebra_generated(table, gens):
    """Smallest bracket-closed subspace containing the elements gens: each
    new vector is bracketed, through oracle_bracket, with every vector found
    so far and eliminated by OracleEchelon, until no bracket leaves the span.
    Returns a Subspace."""
    if not gens:
        raise ValueError("generator list must be nonempty")
    span = OracleEchelon(table.field)
    found = [g for g in gens if span.add(g.coords)]
    frontier = found
    while frontier:
        new = [w for u in frontier for v in found
               if (w := oracle_bracket(u, v)) and span.add(w.coords)]
        found = found + new
        frontier = new
    return Subspace.from_elements(table, found)


def derived_subalgebra(table, s):
    """Span of all brackets of basis pairs of the subspace s, each through
    oracle_bracket; NotASubalgebra when one leaves s.  Returns a
    Subspace."""
    from thinlie.errors import NotASubalgebra
    basis = s.basis_elements()
    products = []
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            w = oracle_bracket(basis[a], basis[b])
            if w:
                if not s.contains(w):
                    raise NotASubalgebra("subspace is not closed under the bracket")
                products.append(w)
    return Subspace.from_elements(table, products)


def oracle_subalgebra_table(table, elements, labels=None):
    """Structure table on an independent, bracket-closed family of elements:
    each bracket of two of them through oracle_bracket, written in the
    family by reducing (w | 0) against the OracleEchelon of [elements | I],
    which leaves (0 | -x) when w = sum x_r elements[r].  ValueError when the
    family is dependent, NotASubalgebra when a bracket leaves its span.  The
    default label of a basis vector with coefficient one is its own."""
    from thinlie.errors import NotASubalgebra
    from thinlie.liealg import StructureTable

    field, m, n = table.field, len(elements), table.dim
    aug = OracleEchelon(field)
    for r, e in enumerate(elements):
        aug.add({**e.coords, n + r: field.one})
    if any(pc >= n for pc in aug.pivots):
        raise ValueError("elements are linearly dependent")
    if labels is None:
        labels = []
        for e in elements:
            if len(e.coords) == 1:
                (idx, c), = e.coords.items()
                labels.append(table.labels[idx] if c == field.one else f"{c}*{table.labels[idx]}")
            else:
                labels.append(f"v{len(labels)}")
    entries = []
    for a in range(m):
        for b in range(a + 1, m):
            w = oracle_bracket(elements[a], elements[b])
            if not w:
                continue
            vec = aug.reduce(w.coords)
            if any(k < n for k in vec):
                raise NotASubalgebra("family is not closed under the bracket")
            entries.append((a, b, [(k - n, -c) for k, c in vec.items()]))
    return StructureTable.from_entries(field, labels, entries)


def oracle_extend_to_generators(table, start):
    """start, then each basis position, lowest first, outside the
    oracle_right_normed_span of the positions chosen so far, until that span
    is all of table; the span is rebuilt from scratch after every choice."""
    gens = list(start)
    span, _ = oracle_right_normed_span(table, gens)
    for i in range(table.dim):
        if len(span.pivots) == table.dim:
            break
        if span.reduce({i: table.field.one}):
            gens.append(i)
            span, _ = oracle_right_normed_span(table, gens)
    return gens


def oracle_quotient_by_ideal(table, ideal):
    """Structure table of table modulo the Subspace ideal, on the basis
    vectors off its pivots in ascending order.  NotAnIdeal when the bracket
    of a basis vector with a basis vector of the ideal leaves it; each
    product of two kept basis vectors through oracle_bracket, reduced
    modulo the ideal by OracleEchelon, whose residual lies on the kept
    columns."""
    from thinlie.errors import NotAnIdeal
    from thinlie.liealg import StructureTable

    span = OracleEchelon(table.field)
    basis = ideal.basis_elements()
    for w in basis:
        span.add(w.coords)
    for i in range(table.dim):
        for w in basis:
            if span.reduce(oracle_bracket(table.basis_element(i), w).coords):
                raise NotAnIdeal("subspace is not bracket-stable under the full algebra")
    keep = [i for i in range(table.dim) if i not in span.pivots]
    entries = []
    for a in range(len(keep)):
        for b in range(a + 1, len(keep)):
            w = oracle_bracket(table.basis_element(keep[a]), table.basis_element(keep[b]))
            entries.append((a, b, [(keep.index(c), x) for c, x in span.reduce(w.coords).items()]))
    return StructureTable.from_entries(table.field, [table.labels[i] for i in keep], entries)


def oracle_covering_failures(expansion, X, Y):
    """Degrees d where some nonzero u in M_d has span([u,X], [u,Y]) !=
    M_{d+1}: a two-dimensional M_d is checked on each of its |F| + 1
    projective lines, each by a Subspace built from the two brackets."""
    from thinlie.liealg import bracket

    def covers(u, d):
        got = Subspace.from_elements(expansion.base, [bracket(u, X), bracket(u, Y)])
        return got == oracle_component(expansion, d + 1)

    failures = []
    for d in range(1, expansion.depth):
        comp = oracle_component(expansion, d)
        if comp.dim == 0:
            continue
        if oracle_component(expansion, d + 1).dim == 0 or comp.dim > 2:
            failures.append(d)
            continue
        if comp.dim == 1:
            reps = comp.basis_elements()
        else:
            b0, b1 = comp.basis_elements()
            reps = [b0 + b1.scale(c) for c in expansion.base.field.elements()] + [b1]
        if not all(covers(u, d) for u in reps):
            failures.append(d)
    return failures


def eigen_bracket_check(basis) -> bool:
    """An eigen table against the closed product formula, on every pair:

        {e_{1-j,alpha}, e_{1-l,beta}} = (beta C(j+l-1, l) - alpha C(j+l-1, j)) e_{2-j-l, alpha+beta},

    read as zero when 2-j-l leaves [2-q, 1]; binomials from a Pascal
    triangle, targets found by eigenvalue and slice."""
    t = basis.eigen_table
    p = basis.params.p
    q = basis.q
    pos = {(r, alpha.coords): m for m, (r, _, alpha) in enumerate(basis.entries)}
    for a in range(t.dim):
        ra, _, alpha = basis.entries[a]
        ja = 1 - ra
        for b in range(a + 1, t.dim):
            rb, _, beta = basis.entries[b]
            jb = 1 - rb
            rc = 2 - ja - jb
            expected = []
            if 2 - q <= rc <= 1:
                coeff = (beta * pascal_binom(ja + jb - 1, jb, p)
                         - alpha * pascal_binom(ja + jb - 1, ja, p))
                if coeff:
                    expected = [(pos[(rc, (alpha + beta).coords)], coeff)]
            if list(t.basis_bracket(a, b)) != expected:
                return False
    return True


def phi1_monomials(p: int, n1: int, n2: int) -> list[tuple[int, int]]:
    """The basis order of cartan.build_H2_phi1(p, n1, n2): the exponent pairs
    up to CartanParams(p, n1, n2).tau, row-major."""
    from thinlie.cartan import CartanParams, monomials

    return monomials(*CartanParams(p, n1, n2).tau)


def monomial_images(basis):
    """(table, vectors): the monomial table of H(2;(1,n2);Phi(1)), q = p^n2,
    at basis.params.eps, and the eigenvector of each basis label in it
    (verify._eigenvectors)."""
    from thinlie.cartan import build_H2_phi1
    from thinlie.verify import _eigenvectors

    params, n2 = basis.params, 0
    while params.p ** n2 < basis.q:
        n2 += 1
    table = build_H2_phi1(params.p, 1, n2, params.field, params.eps)
    return table, _eigenvectors(basis, table)


def oracle_eigen_equation(basis, table, vectors):
    """The first (r, s), in basis order, whose vector v of vectors fails the
    eigen-equation [e_0, v] = alpha v in the monomial table, by
    liealg.bracket and Element.scale; None when every vector holds it.  The
    scan grading.eigenbasis made before the certificate proved the
    eigen-equation from the homomorphism."""
    from thinlie.grading import toral_element
    from thinlie.liealg import bracket

    e0 = toral_element(table, basis.params)
    for (r, s, alpha), v in zip(basis.entries, vectors):
        if bracket(e0, v) != v.scale(alpha):
            return r, s
    return None


class OracleExpansion:
    """The components M_d of a loop expansion as Subspace objects,
    1-indexed by degree, with the fields of thinloop.LoopExpansion that the
    oracles and the report read."""

    def __init__(self, base, degmap, depth, components, coincidence):
        self.base, self.degmap, self.depth = base, degmap, depth
        self.components, self.coincidence = components, coincidence

    @property
    def dims(self):
        return [s.dim for s in self.components]


def oracle_loop_expand(base, degmap, depth):
    """M_1 = S_1 and M_{d+1} = [M_d, M_1] bracketed at every degree up to
    depth, each a Subspace eliminated from every bracket of a basis vector
    of M_d with one of M_1, with no period detection and any number of
    terms per stored pair."""
    from thinlie.liealg import bracket, validate_grading

    if not validate_grading(base, degmap):
        raise ValueError("degree map is not compatible with the table")
    n = degmap.modulus
    if depth < n + 1:
        raise ValueError(f"expansion depth {depth} is below N+1 = {n + 1} for grading modulus N = {n}")
    classes = {}
    for i, d in enumerate(degmap.degrees):
        classes.setdefault(d, set()).add(i)
    m1 = coordinate_span(base, sorted(classes.get(1 % n, ())))
    components = [m1]
    gens = m1.basis_elements()
    for d in range(2, depth + 1):
        prev = components[-1].basis_elements()
        nxt = Subspace.from_elements(base, [bracket(u, x) for u in prev for x in gens])
        allowed = classes.get(d % n, set())
        for e in nxt.basis_elements():
            if not set(e.coords) <= allowed:
                raise AssertionError(f"component at degree {d} is not homogeneous")
        components.append(nxt)
    coincidence = components[n] == components[0]
    return OracleExpansion(base, degmap, depth, components, coincidence)


def _coords_in(space, e):
    """Coordinates of e in the echelon rows of space, None if e is not in it."""
    if not space.contains(e):
        return None
    zero = space.table.field.zero
    return [e.coords.get(pc, zero) for pc in space.pivots]


def _det2(a, b):
    return a[0] * b[1] - a[1] * b[0]


def oracle_plane_covers(expansion, X, Y, d):
    """Covering at a two-dimensional M_d, decided exactly by rank on
    Subspace components.

    With b0, b1 the basis of M_d, u = s b0 + t b1 covers iff [u,X] and
    [u,Y] span M_{d+1}.  All four [b_i,X], [b_i,Y] must lie in M_{d+1}.
    If it is a line through w, with [b_i,X] = a_i w and [b_i,Y] = beta_i w,
    every u covers iff det[[a0,a1],[beta0,beta1]] != 0.  If it is a plane,
    with A the coordinate columns ([b0,X], [b0,Y]) and B those of b1,
    every u covers iff the binary form det(sA + tB) has no projective zero.
    """
    from thinlie.ffield import find_roots
    from thinlie.liealg import bracket

    target = oracle_component(expansion, d + 1)
    if target.dim > 2:
        return False
    b0, b1 = oracle_component(expansion, d).basis_elements()
    x0, y0, x1, y1 = cols = [_coords_in(target, bracket(b, Z)) for b in (b0, b1) for Z in (X, Y)]
    if any(c is None for c in cols):
        return False
    if target.dim == 1:
        return bool(x0[0] * y1[0] - x1[0] * y0[0])
    # det(sA + tB) = s^2 det A + st m + t^2 det B
    det_a, det_b = _det2(x0, y0), _det2(x1, y1)
    m = _det2([u + v for u, v in zip(x0, x1)], [u + v for u, v in zip(y0, y1)]) - det_a - det_b
    return bool(det_b) and not find_roots(target.table.field, [det_a, m, det_b])


def oracle_check_covering(expansion, X, Y):
    """The covering verdict decided afresh at every degree below the depth,
    for any X and Y: a one-dimensional M_d = <u> by the Subspace that
    [u, X] and [u, Y] span."""
    from thinlie.liealg import bracket
    from thinlie.thinloop import CoveringReport

    def covers(u, d):
        got = Subspace.from_elements(expansion.base, [bracket(u, X), bracket(u, Y)])
        return got == oracle_component(expansion, d + 1)

    failures = []
    upto = expansion.depth - 1
    for d in range(1, upto + 1):
        comp = oracle_component(expansion, d)
        if comp.dim == 0:
            continue
        if oracle_component(expansion, d + 1).dim == 0:
            failures.append(d)
        elif comp.dim == 1:
            if not covers(comp.basis_elements()[0], d):
                failures.append(d)
        elif comp.dim > 2 or not oracle_plane_covers(expansion, X, Y, d):
            failures.append(d)
    return CoveringReport(not failures, failures, upto)


def oracle_second_derived_dims(expansion):
    """dim L''_d for d = 0 .. depth (0 at d = 0), with L' and then L'' each
    bracketed as a graded sum over every pair a + b = d at every degree."""
    from thinlie.liealg import bracket

    depth = expansion.depth
    base = expansion.base
    m = [None] + [oracle_component(expansion, d) for d in range(1, depth + 1)]
    zero = Subspace.from_elements(base, [])

    def graded_bracket(left, right):
        lbasis = [None] + [s.basis_elements() for s in left[1:]]
        rbasis = [None] + [s.basis_elements() for s in right[1:]]
        out = [zero] * (depth + 1)
        for d in range(2, depth + 1):
            cap = m[d].dim
            acc = OracleEchelon(base.field)
            for a in range(1, d):
                b = d - a
                if not lbasis[a] or not rbasis[b]:
                    continue
                for u in lbasis[a]:
                    for v in rbasis[b]:
                        w = bracket(u, v)
                        if w:
                            acc.add(w.coords)
                    if acc.rank >= cap:
                        break
                if acc.rank >= cap:
                    break
            out[d] = Subspace(base, acc)
        return out

    lp = graded_bracket(m, m)
    return [0] + [s.dim for s in graded_bracket(lp, lp)[1:]]


def oracle_parameter_k(expansion):
    """k = dim(L / L'') - 1 from oracle_second_derived_dims; NotStabilized
    unless L''_d = M_d != 0 on the last grading period."""
    from thinlie.errors import NotStabilized

    depth = expansion.depth
    window = expansion.degmap.modulus
    dims = [0] + expansion.dims
    lpp = oracle_second_derived_dims(expansion)
    codims = [dims[d] - lpp[d] for d in range(depth + 1)]
    tail = range(depth - window + 1, depth + 1)
    if any(codims[d] != 0 or dims[d] == 0 for d in tail):
        raise NotStabilized(
            f"second derived subalgebra has not stabilized in the last {window} degrees"
        )
    return sum(codims) - 1


def oracle_centralizer_chain(expansion, X, Y, q):
    """The two centralizer chains, each degree by comparing the whole
    centralizer_in(base, M_1, M_d) with <Y>; the proviso as in the library."""
    from thinlie.thinloop import ChainReport

    base = expansion.base
    m1 = oracle_component(expansion, 1)
    span_y = Subspace.from_elements(base, [Y])

    def run(lo, hi):
        return all(
            centralizer_in(base, m1, oracle_component(expansion, d)) == span_y
            for d in range(lo, hi + 1)
            if d <= expansion.depth
        )

    first = run(2, q - 2)
    second = run(q + 1, 2 * q - 3)
    p = base.field.p
    notes = []
    if q <= 3 or p == 2:
        notes.append("first chain only guaranteed for q > 3 and odd p")
    if p <= 3 or q == 5:
        notes.append("second chain only guaranteed for p > 3 and q != 5")
    return ChainReport(first, (2, q - 2), second, (q + 1, 2 * q - 3), "; ".join(notes) or None)


def _oracle_coeff_of(u, w):
    """The scalar c with u = c*w, if it exists (w nonzero)."""
    if not u:
        return u.table.field.zero
    m = next(iter(w.coords))
    c = u.coords.get(m)
    if c is None:
        return None
    c = c / w.coords[m]
    return c if u == w.scale(c) else None


def oracle_classify_type(V, X, Y, slot, following, degree):
    """classify_type on Subspace components for any table: the cross
    brackets are compared by proportionality, not read at a position."""
    from thinlie.errors import ConsecutiveDiamonds, MalformedDiamond
    from thinlie.liealg import bracket
    from thinlie.thinloop import INFINITY

    vx, vy = bracket(V, X), bracket(V, Y)
    if slot.dim == 2:
        if following.dim >= 2:
            raise ConsecutiveDiamonds("two consecutive two-dimensional components", degree)
        if bracket(vx, X):
            raise MalformedDiamond("[V,X,X] != 0 at a two-dimensional slot", degree)
        if bracket(vy, Y):
            raise MalformedDiamond("[V,Y,Y] != 0 at a two-dimensional slot", degree)
        vxy, vyx = bracket(vx, Y), bracket(vy, X)
        w = vxy if vxy else vyx
        if not w:
            raise MalformedDiamond("both cross brackets vanish at a genuine slot", degree)
        c1 = _oracle_coeff_of(vxy, w)
        c2 = _oracle_coeff_of(vyx, w)
        if c1 is None or c2 is None:
            raise MalformedDiamond("cross brackets are not proportional", degree)
        s = c1 + c2
        if not s:
            return ("genuine", INFINITY)
        mu = c1 / s
        if not mu or mu == mu.spec.one:
            raise MalformedDiamond(f"genuine diamond computed type {mu}", degree)
        return ("genuine", mu)
    if slot.dim == 1:
        if not vx:
            return ("fake0", None)
        w0 = slot.basis_elements()[0]
        if not bracket(w0, X):
            return ("fake1", None)
        return None
    return None


def oracle_choose_generators(expansion, q, X, Y):
    """choose_generators on Subspace components: membership and
    independence by elimination, and after the shear X + alpha Y every
    second bracket taken again and [V,X,X] = 0 checked."""
    from thinlie.errors import MalformedDiamond, NoAnnihilator
    from thinlie.liealg import bracket
    from thinlie.thinloop import GeneratorData

    base = expansion.base
    m1 = oracle_component(expansion, 1)
    if m1.dim != 2:
        raise NoAnnihilator(f"degree-1 component has dimension {m1.dim}, not 2", 1)
    if not (m1.contains(X) and m1.contains(Y)):
        raise ValueError("explicit generators must lie in the degree-1 component")
    if Subspace.from_elements(base, [X, Y]).dim != 2:
        raise ValueError("explicit generators are dependent")

    vspace = oracle_component(expansion, q - 1)
    if vspace.dim != 1:
        raise MalformedDiamond(f"component before the second diamond has dim {vspace.dim}", q)
    v = vspace.basis_elements()[0]

    def second_brackets(x):
        vx, vy = bracket(v, x), bracket(v, Y)
        return bracket(vx, x), bracket(vx, Y), bracket(vy, x), bracket(vy, Y)

    vxx, vxy, vyx, vyy = second_brackets(X)
    if vyy:
        raise MalformedDiamond("[V,Y,Y] != 0 at the second diamond", q)
    alpha = base.field.zero
    if vxx:
        denom = vxy + vyx
        if not denom:
            raise MalformedDiamond("cannot normalize X: [V,X,Y] + [V,Y,X] = 0", q)
        lam = _oracle_coeff_of(vxx, denom)
        if lam is None:
            raise MalformedDiamond("[V,X,X] is not proportional to [V,X,Y] + [V,Y,X]", q)
        alpha = -lam
        X = X + Y.scale(alpha)
        vxx, vxy, vyx, vyy = second_brackets(X)
        if vxx:
            raise MalformedDiamond("normalization failed to kill [V,X,X]", q)

    c_xy = c_yx = None
    w = vxy if vxy else vyx
    if w:
        c_xy = _oracle_coeff_of(vxy, w)
        c_yx = _oracle_coeff_of(vyx, w)
    return GeneratorData(X, Y, alpha, q, c_xy, c_yx)


def oracle_detect_diamonds(expansion, X, Y, q):
    """Every slot d = 1 mod (q-1) from q on classified afresh by
    oracle_classify_type, with no verdict read back from d - N."""
    from thinlie.thinloop import DiamondRecord

    records = [DiamondRecord(1, 1, "genuine", None)]
    nondiamond = []
    anomalies = []
    d = q
    ordinal = 2
    while d + 1 <= expansion.depth:
        vspace = oracle_component(expansion, d - 1)
        slot = oracle_component(expansion, d)
        if vspace.dim != 1:
            anomalies.append(f"component before slot {d} has dim {vspace.dim}")
        else:
            got = oracle_classify_type(
                vspace.basis_elements()[0], X, Y, slot, oracle_component(expansion, d + 1), d
            )
            if got is None:
                nondiamond.append(d)
            else:
                kind, mu = got
                records.append(DiamondRecord(d, ordinal, kind, mu))
        d += q - 1
        ordinal += 1
    for d in range(2, expansion.depth + 1):
        dim = oracle_component(expansion, d).dim
        if dim > 2:
            anomalies.append(f"component at degree {d} has dim {dim}")
        elif dim == 2 and (d - 1) % (q - 1) != 0:
            anomalies.append(f"unexpected two-dimensional component at degree {d}")
    return records, nondiamond, anomalies


def oracle_thin_report(base, degmap, q, depth, X, Y):
    """thin_report assembled from the full-depth Subspace oracles above,
    none of which calls a function of thinloop: only its report records."""
    from thinlie.errors import NotStabilized
    from thinlie.thinloop import ThinReport

    expansion = oracle_loop_expand(base, degmap, depth)
    gens = oracle_choose_generators(expansion, q=q, X=X, Y=Y)
    covering = oracle_check_covering(expansion, gens.X, gens.Y)
    diamonds, nondiamond, anomalies = oracle_detect_diamonds(expansion, gens.X, gens.Y, q)
    chains = oracle_centralizer_chain(expansion, gens.X, gens.Y, q)
    k = k_note = None
    try:
        k = oracle_parameter_k(expansion)
    except NotStabilized as exc:
        k_note = str(exc)
    return ThinReport(
        q, depth, expansion.dims, expansion.coincidence, gens, covering, diamonds,
        nondiamond, anomalies, chains, k, k_note, expansion,
    )


class OracleLeibnizIndex:
    """The rows-based Leibniz index liealg used before its flat one: the
    stored pairs read in sorted order, each (target, log) row and its
    negation kept once in a sharing dict.

    keys[a], rows[a]: the b with [b_a, b_b] stored, ascending, and its terms
    as (target, log); by_target[m]: ((j * dim + k) * dim, log), ascending,
    for the pairs j < k with a term at m.  Only well-formed entries are read
    (keys 0 <= i < j < dim, targets in range); zero coefficients are indexed
    and add nothing.  one_term is is_one_term(t).
    """

    def __init__(self, t):
        dim = self.dim = t.dim
        field = t.field
        n = field.size - 1
        minus_one = (-field.one).log
        neg = self.neg = [(a + minus_one) % n for a in range(n)] + [2 * n] * (n + 1)
        keys = self.keys = [[] for _ in range(dim)]
        rows = self.rows = [[] for _ in range(dim)]
        by_target = self.by_target = [[] for _ in range(dim)]
        shared = {}
        for (i, j), terms in sorted(t.brackets.items()):
            row = tuple([(k, c.log) for k, c in terms if 0 <= k < dim])
            pair = shared.get(row)
            if pair is None:
                pair = shared[row] = row, tuple([(k, neg[c]) for k, c in row])
            row, negated = pair
            if 0 <= i < j < dim and row:
                keys[i].append(j)
                rows[i].append(row)
                keys[j].append(i)
                rows[j].append(negated)
                base = (i * dim + j) * dim
                for k, c in row:
                    by_target[k].append((base, c))
        longest = max(map(len, t.brackets.values()), default=0)
        self.one_term = (
            longest <= 1
            and sum(map(len, keys)) == 2 * len(t.brackets)
            and all(row[0][1] < n for row in shared)
        )
        p = self.p = field.p
        s = self.s = (3 * longest * longest * (p - 1)).bit_length()
        pexp = self.pexp = [0] * (4 * n + 1)
        for c in field.elements():
            if c:
                pexp[c.log] = pexp[c.log + n] = sum(x << (s * e) for e, x in enumerate(c.coords))


def oracle_leibniz_failures(index, scans):
    """The kernel over OracleLeibnizIndex rows, as liealg._leibniz_failures
    reports it: for each (g, lo), g and the pairs lo < j < k, ascending, on
    which ad b_g breaks the Leibniz rule."""
    dim, keys, rows, by_target = index.dim, index.keys, index.rows, index.by_target
    neg, pexp, p, s = index.neg, index.pexp, index.p, index.s
    mask = (1 << s) - 1

    def nonzero(v):
        while v:
            if (v & mask) % p:
                return True
            v >>= s
        return False

    out = []
    for g, lo in scans:
        acc = {}
        gkeys, grows = keys[g], rows[g]
        above = (lo + 1) * dim * dim
        for m, terms in zip(gkeys, grows):
            pairs = by_target[m][bisect.bisect_left(by_target[m], (above,)):]
            for target, e in terms:
                for base, c in pairs:
                    acc[base + target] = acc.get(base + target, 0) + pexp[e + c]
        for x in range(bisect.bisect_right(gkeys, lo), len(gkeys)):
            a, terms = gkeys[x], grows[x]
            for m, c in terms:
                mkeys, mrows = keys[m], rows[m]
                for y in range(bisect.bisect_right(mkeys, a), len(mkeys)):
                    base = (a * dim + mkeys[y]) * dim
                    for target, d in mrows[y]:
                        acc[base + target] = acc.get(base + target, 0) + pexp[neg[c] + d]
                for y in range(bisect.bisect_right(mkeys, lo), bisect.bisect_left(mkeys, a)):
                    base = (mkeys[y] * dim + a) * dim
                    for target, d in mrows[y]:
                        acc[base + target] = acc.get(base + target, 0) + pexp[c + d]
        bad = sorted({key // dim for key, v in acc.items() if nonzero(v)})
        out.append((g, [divmod(jk, dim) for jk in bad]))
    return out


def oracle_validate_table(t, max_violations=10):
    """validate_table from the separate encoding loop it used before the
    flat index and the scan of every basis triple through the oracle
    kernel, one pass per basis vector.  The certificate only shortens a run
    whose scan finds nothing, so the report is the same."""
    from thinlie.liealg import ValidationReport

    messages = []
    encoding_ok = True
    dim = t.dim
    for (i, j), terms in t.brackets.items():
        if not (0 <= i < j < dim):
            encoding_ok = False
            messages.append(f"bad key ({i}, {j})")
        for k, c in terms:
            if not (0 <= k < dim):
                encoding_ok = False
                messages.append(f"target {k} out of range in ({i}, {j})")
            if not c:
                encoding_ok = False
                messages.append(f"stored zero coefficient in ({i}, {j})")
    violations = []
    index = OracleLeibnizIndex(t)
    for i, pairs in oracle_leibniz_failures(index, [(i, i) for i in range(dim)]):
        for j, k in pairs:
            violations.append((i, j, k))
            if len(violations) >= max_violations:
                messages.append("Jacobi scan aborted at violation cap")
                return ValidationReport(False, encoding_ok, False, violations, messages)
    jacobi_ok = not violations
    return ValidationReport(encoding_ok and jacobi_ok, encoding_ok, jacobi_ok, violations, messages)


def closed_eigen_table(basis):
    """The table on basis.entries from the closed Albert-Zassenhaus product

        {e_{1-j,alpha}, e_{1-l,beta}} = (beta C(j+l-1, l) - alpha C(j+l-1, j)) e_{2-j-l, alpha+beta},

    read as zero when 2-j-l leaves [2-q, 1].  In slice labels r = 1-j,
    r' = 1-l the target slice is r + r', and entries run down the slices,
    so once r + r' drops below 2-q it stays there for the rest of the row.
    """
    from thinlie.cartan import binom_mod_p
    from thinlie.liealg import StructureTable, _gc_paused

    fieldspec = basis.params.field
    p, q, entries = basis.params.p, basis.q, basis.entries
    position = {(r, alpha): m for m, (r, _, alpha) in enumerate(entries)}
    binoms = {}
    brackets = {}
    with _gc_paused():
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


def is_one_term(t):
    """Whether each stored key is 0 <= i < j < dim with one term (k, c), 0 <= k
    < dim and c != 0, as in builder and eigen tables: the flag
    liealg._LeibnizIndex records as one_term, by a loop of its own."""
    dim, zero = t.dim, 2 * (t.field.size - 1)
    for (i, j), terms in t.brackets.items():
        if len(terms) != 1 or not 0 <= i < j < dim:
            return False
        ((k, c),) = terms
        if not 0 <= k < dim or c.log == zero:
            return False
    return True


def extend_to_generators(t, start):
    """start, then each basis position, lowest first, outside the span of
    the right-normed brackets of the positions chosen so far, until that
    span is all of t (liealg._greedy_generators): for a Lie algebra, a
    generating set of t.  ValueError when t is not one-term."""
    from thinlie import liealg

    if not is_one_term(t):
        raise ValueError("generating sets are read off one-term tables only")
    return list(liealg._greedy_generators(t, start, range(t.dim)))


def oracle_intertwining(src, images, vecs, gens):
    """phi[g, b] = [phi g, phi b] for g in gens, b in the basis, in that
    order, the rhs by liealg.bracket on the image Elements: the check
    liealg._intertwining makes through ad columns, pair by pair."""
    from thinlie import liealg

    genset = set(gens)
    for g in gens:
        for b in range(src.dim):
            if b in genset and b <= g:
                continue
            lhs = liealg._combine((c, vecs[k]) for k, c in src.basis_bracket(g, b))
            if lhs != liealg.bracket(images[g], images[b]).coords:
                return liealg.MapCheck("intertwining", f"[{src.labels[g]}, {src.labels[b]}]")
    return liealg.MapCheck()


def oracle_check_structure_map(src, dst, images, gens=None):
    """Certify that the basis map phi: b_i -> images[i] is an injective
    homomorphism, from a generating set gens of src (basis positions,
    default every one).  The checks, in order:

    - rank: the images are linearly independent (OracleEchelon);
    - intertwining: phi[g, b] = [phi g, phi b] for g in gens, b in the basis;
    - derivation: ad g is a derivation of src for every g in gens, one
      pass of liealg._leibniz_failures over all pairs each;
    - generation: the right-normed brackets [g1, [g2, ..., gk]] of gens
      span src (liealg._ReachedSpan).

    When gens is every basis vector the intertwining covers every pair,
    which alone is the proof, and the last two checks are skipped.
    Otherwise src must be one-term, else ValueError.
    """
    from thinlie import liealg

    if len(images) != src.dim:
        raise ValueError("need one image per src basis vector")
    if src.field != dst.field:
        raise ValueError("structure maps require a common ground field")
    labels = src.labels
    vecs = [dict(liealg._nonzero(dst.field, e.coords)) for e in images]
    rank = OracleEchelon(dst.field, vecs).rank
    if rank != src.dim:
        return liealg.MapCheck("rank", f"the images span {rank} of {src.dim} dimensions")
    gens = range(src.dim) if gens is None else gens
    check = oracle_intertwining(src, images, vecs, gens)
    if not check or len(set(gens)) == src.dim:
        return check
    with liealg._gc_paused():
        index = liealg._LeibnizIndex(src)
        if not index.one_term:
            raise ValueError("a generating set certifies one-term tables only")
        for g, pairs in liealg._leibniz_failures(index, ((g, -1) for g in gens)):
            if pairs:
                a, b = pairs[0]
                return liealg.MapCheck("derivation", f"ad {labels[g]} on [{labels[a]}, {labels[b]}]")
    dim = liealg._ReachedSpan(src, gens).rank
    if dim != src.dim:
        names = ", ".join(labels[g] for g in gens)
        return liealg.MapCheck("generation", f"{names} generate {dim} of {src.dim} dimensions")
    return liealg.MapCheck()
