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
generator, centralizer chains from the nullspace centralizer_in finds at
each degree, diamond slots each classified afresh, and thin reports from
those and the full-depth loop expansion, covering scan and parameter k,
which bracket every degree and never reuse a grading period.
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
    operators, one call per product, sum and zero test: the same rows,
    pivots, residuals and key order that liealg.Echelon gets on logs."""

    def __init__(self, field):
        self.field = field
        self.rows = {}
        self.pivots = []

    def reduce(self, vec):
        rows = self.rows
        out = {i: c for i, c in vec.items() if c}
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


def oracle_covering_failures(expansion, X, Y):
    """Degrees d where some nonzero u in M_d has span([u,X], [u,Y]) !=
    M_{d+1}: a two-dimensional M_d is checked on each of its |F| + 1
    projective lines, each by a Subspace built from the two brackets."""
    from thinlie.liealg import Subspace, bracket

    def covers(u, d):
        got = Subspace.from_elements(expansion.base, [bracket(u, X), bracket(u, Y)])
        return got == expansion.component(d + 1)

    failures = []
    for d in range(1, expansion.depth):
        comp = expansion.component(d)
        if comp.dim == 0:
            continue
        if expansion.component(d + 1).dim == 0 or comp.dim > 2:
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
    if basis.eigen_table is None:
        raise ValueError("bracket check requires a full eigenbasis")
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


def oracle_loop_expand(base, degmap, depth):
    """M_1 = S_1 and M_{d+1} = [M_d, M_1] bracketed at every degree up to
    depth, with no period detection (period_start stays None)."""
    from thinlie.liealg import Subspace, bracket, validate_grading
    from thinlie.thinloop import LoopExpansion

    if not validate_grading(base, degmap):
        raise ValueError("degree map is not compatible with the table")
    n = degmap.modulus
    if depth < n + 1:
        raise ValueError(f"expansion depth {depth} is below N+1 = {n + 1} for grading modulus N = {n}")
    classes = {}
    for i, d in enumerate(degmap.degrees):
        classes.setdefault(d, set()).add(i)
    m1 = Subspace.from_elements(base, map(base.basis_element, sorted(classes.get(1 % n, ()))))
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
    return LoopExpansion(base, degmap, depth, components, coincidence)


def oracle_check_covering(expansion, X, Y):
    """The covering verdict decided afresh at every degree below the depth."""
    from thinlie.thinloop import CoveringReport, _covers, _plane_covers

    failures = []
    upto = expansion.depth - 1
    for d in range(1, upto + 1):
        comp = expansion.component(d)
        if comp.dim == 0:
            continue
        if expansion.component(d + 1).dim == 0:
            failures.append(d)
        elif comp.dim == 1:
            if not _covers(expansion, comp.basis_elements()[0], X, Y, d):
                failures.append(d)
        elif comp.dim > 2 or not _plane_covers(expansion, X, Y, d):
            failures.append(d)
    return CoveringReport(not failures, failures, upto)


def oracle_parameter_k(expansion):
    """k = dim(L / L'') - 1 with L' and then L'' each bracketed as a graded
    sum over every pair a + b = d at every degree; NotStabilized unless
    L''_d = M_d != 0 on the last grading period."""
    from thinlie.errors import NotStabilized
    from thinlie.liealg import Echelon, Subspace, bracket

    depth = expansion.depth
    window = expansion.degmap.modulus
    base = expansion.base
    m = [None] + expansion.components
    zero = Subspace.from_elements(base, [])

    def graded_bracket(left, right):
        lbasis = [None] + [s.basis_elements() for s in left[1:]]
        rbasis = [None] + [s.basis_elements() for s in right[1:]]
        out = [zero] * (depth + 1)
        for d in range(2, depth + 1):
            cap = m[d].dim
            acc = Echelon(base.field)
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
    lpp = graded_bracket(lp, lp)
    codims = [0] * (depth + 1)
    for d in range(1, depth + 1):
        codims[d] = m[d].dim - lpp[d].dim
    tail = range(depth - window + 1, depth + 1)
    if any(codims[d] != 0 or m[d].dim == 0 for d in tail):
        raise NotStabilized(
            f"second derived subalgebra has not stabilized in the last {window} degrees"
        )
    return sum(codims) - 1


def oracle_centralizer_chain(expansion, X, Y, q):
    """The two centralizer chains, each degree by comparing the whole
    centralizer_in(base, M_1, M_d) with <Y>; the proviso as in the library."""
    from thinlie.liealg import Subspace, centralizer_in
    from thinlie.thinloop import ChainReport

    base = expansion.base
    m1 = expansion.component(1)
    span_y = Subspace.from_elements(base, [Y])

    def run(lo, hi):
        return all(
            centralizer_in(base, m1, expansion.component(d)) == span_y
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


def oracle_detect_diamonds(expansion, X, Y, q):
    """Every slot d = 1 mod (q-1) from q on classified afresh by the
    library's classify_type, with no verdict read back from d - N."""
    from thinlie.thinloop import DiamondRecord, classify_type

    records = [DiamondRecord(1, 1, "genuine", None)]
    nondiamond = []
    anomalies = []
    d = q
    ordinal = 2
    while d + 1 <= expansion.depth:
        vspace = expansion.component(d - 1)
        slot = expansion.component(d)
        if vspace.dim != 1:
            anomalies.append(f"component before slot {d} has dim {vspace.dim}")
        else:
            got = classify_type(
                vspace.basis_elements()[0], X, Y, slot, expansion.component(d + 1), d
            )
            if got is None:
                nondiamond.append(d)
            else:
                kind, mu = got
                records.append(DiamondRecord(d, ordinal, kind, mu))
        d += q - 1
        ordinal += 1
    for d in range(2, expansion.depth + 1):
        dim = expansion.component(d).dim
        if dim > 2:
            anomalies.append(f"component at degree {d} has dim {dim}")
        elif dim == 2 and (d - 1) % (q - 1) != 0:
            anomalies.append(f"unexpected two-dimensional component at degree {d}")
    return records, nondiamond, anomalies


def oracle_thin_report(base, degmap, q, depth, X, Y):
    """thin_report assembled from the full-depth oracles above and the
    library's generator choice."""
    from thinlie.errors import NotStabilized
    from thinlie.thinloop import ThinReport, choose_generators

    expansion = oracle_loop_expand(base, degmap, depth)
    gens = choose_generators(expansion, q=q, X=X, Y=Y)
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
