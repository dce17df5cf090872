"""Generic finite-dimensional Lie algebra engine over an exact field.

A StructureTable stores sparse bracket coefficients for ordered basis pairs
(i < j); antisymmetry is implicit and diagonal brackets are zero even in
characteristic two (the tables are alternating).  All subspace work goes
through one incremental echelon kernel, Echelon, whose reduced form is
canonical over an exact field, so subspace equality is matrix equality.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import NotAnIdeal, NotASubalgebra, TableMismatch
from .ffield import FieldElement, FieldSpec

Row = tuple[FieldElement, ...]


class StructureTable:
    """A Lie algebra given by labeled basis and sparse bracket coefficients."""

    __slots__ = ("field", "labels", "brackets")

    def __init__(
        self,
        field: FieldSpec,
        labels: Sequence[str],
        brackets: dict[tuple[int, int], tuple[tuple[int, FieldElement], ...]],
    ):
        self.field = field
        self.labels = tuple(labels)
        self.brackets = brackets

    @classmethod
    def from_entries(
        cls,
        field: FieldSpec,
        labels: Sequence[str],
        entries: Iterable[tuple[int, int, Iterable[tuple[int, FieldElement]]]],
    ) -> "StructureTable":
        """Normalize arbitrary (i, j, terms) triples into the i < j convention."""
        dim = len(labels)
        brackets: dict[tuple[int, int], dict[int, FieldElement]] = {}
        for i, j, terms in entries:
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"basis index out of range in ({i}, {j})")
            if i == j:
                if any(c for _, c in terms):
                    raise ValueError(f"nonzero diagonal bracket at index {i}")
                continue
            sign = 1
            if i > j:
                i, j, sign = j, i, -1
            acc = brackets.setdefault((i, j), {})
            for k, c in terms:
                if sign < 0:
                    c = -c
                c = acc.get(k, field.zero) + c
                if c:
                    acc[k] = c
                else:
                    acc.pop(k, None)
        packed = {
            key: tuple(sorted(val.items()))
            for key, val in brackets.items()
            if val
        }
        return cls(field, labels, packed)

    @property
    def dim(self) -> int:
        return len(self.labels)

    def basis_bracket(self, i: int, j: int) -> tuple[tuple[int, FieldElement], ...]:
        if i == j:
            return ()
        if i < j:
            return self.brackets.get((i, j), ())
        terms = self.brackets.get((j, i), ())
        return tuple((k, -c) for k, c in terms)

    def zero_element(self) -> "Element":
        return Element(self, {})

    def basis_element(self, i: int) -> "Element":
        return Element(self, {i: self.field.one})

    def element(self, coeffs: dict[int, FieldElement]) -> "Element":
        return Element(self, {k: c for k, c in coeffs.items() if c})

    def full_subspace(self) -> "Subspace":
        return Subspace.from_rows(self, [unit_row(self, i) for i in range(self.dim)])

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "labels": list(self.labels),
            "brackets": [
                [i, j, [[k, c.to_json()] for k, c in terms]]
                for (i, j), terms in sorted(self.brackets.items())
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "StructureTable":
        field = FieldSpec.from_json(data["field"])
        entries = [
            (i, j, [(k, field.element(c)) for k, c in terms])
            for i, j, terms in data["brackets"]
        ]
        return cls.from_entries(field, data["labels"], entries)

    def __repr__(self) -> str:
        return f"StructureTable(dim={self.dim}, field={self.field!r})"


class Element:
    """A sparse vector over a table's basis; zero coefficients are not stored."""

    __slots__ = ("table", "coords")

    def __init__(self, table: StructureTable, coords: dict[int, FieldElement]):
        self.table = table
        self.coords = coords

    def __bool__(self) -> bool:
        return bool(self.coords)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and self.table is other.table
            and self.coords == other.coords
        )

    def __add__(self, other: "Element") -> "Element":
        out = dict(self.coords)
        for k, c in other.coords.items():
            s = out.get(k)
            s = c if s is None else s + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return Element(self.table, out)

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __neg__(self) -> "Element":
        return Element(self.table, {k: -c for k, c in self.coords.items()})

    def scale(self, c: FieldElement) -> "Element":
        if not c:
            return Element(self.table, {})
        return Element(self.table, {k: c * v for k, v in self.coords.items()})

    def __rmul__(self, c: FieldElement) -> "Element":
        return self.scale(c)

    def dense(self) -> Row:
        zero = self.table.field.zero
        return tuple(self.coords.get(i, zero) for i in range(self.table.dim))

    def __repr__(self) -> str:
        if not self.coords:
            return "0"
        parts = [f"{c}*{self.table.labels[k]}" for k, c in sorted(self.coords.items())]
        return " + ".join(parts)

    def to_json(self) -> list:
        return [[k, c.to_json()] for k, c in sorted(self.coords.items())]


def bracket(u: Element, v: Element) -> Element:
    """Bilinear, alternating extension of the stored basis brackets."""
    if u.table is not v.table:
        raise TableMismatch("elements live on different structure tables")
    table = u.table
    out: dict[int, FieldElement] = {}
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


# ---------------------------------------------------------------------------
# exact linear algebra: dense rows, reduced echelon form
# ---------------------------------------------------------------------------

def unit_row(table: StructureTable, i: int) -> Row:
    zero, one = table.field.zero, table.field.one
    return tuple(one if j == i else zero for j in range(table.dim))


def _combine(pairs: Iterable[tuple[FieldElement, dict[int, FieldElement]]]) -> dict[int, FieldElement]:
    """The sparse coordinates of sum c_k * v_k over (c_k, v_k) pairs."""
    out: dict[int, FieldElement] = {}
    for c, v in pairs:
        for i, x in v.items():
            s = out.get(i)
            s = c * x if s is None else s + c * x
            if s:
                out[i] = s
            else:
                out.pop(i, None)
    return out


class Echelon:
    """Reduced row echelon form with unit pivots, grown one vector at a time.

    rows[r] is a sparse {column: coefficient} dict whose pivot column
    pivots[r] holds one and is zero in every other row; pivots stay sorted.
    Row operations touch only the nonzero entries of the row subtracted.
    The form is canonical: the same span gives the same rows whatever
    vectors built it.
    """

    __slots__ = ("field", "ncols", "rows", "pivots")

    def __init__(self, field: FieldSpec, ncols: int, vectors: Iterable[Sequence[FieldElement]] = ()):
        self.field = field
        self.ncols = ncols
        self.rows: list[dict[int, FieldElement]] = []
        self.pivots: list[int] = []
        for vec in vectors:
            self.add(vec)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, vec: Sequence[FieldElement]) -> list[FieldElement]:
        """vec with every pivot column eliminated; zero iff vec lies in the span."""
        vec = list(vec)
        for row, pc in zip(self.rows, self.pivots):
            c = vec[pc]
            if c:
                for idx, x in row.items():
                    vec[idx] = vec[idx] - c * x
        return vec

    def add(self, vec: Sequence[FieldElement]) -> bool:
        """Extend the span by vec; False, with nothing changed, if it is already in it."""
        residual = self.reduce(vec)
        pc = next((i for i, c in enumerate(residual) if c), None)
        if pc is None:
            return False
        inv = residual[pc].inverse()
        new = {i: inv * c for i, c in enumerate(residual) if c}
        for row in self.rows:
            c = row.get(pc)
            if c:
                for idx, x in new.items():
                    s = row.get(idx)
                    s = -(c * x) if s is None else s - c * x
                    if s:
                        row[idx] = s
                    else:
                        del row[idx]
        at = bisect.bisect(self.pivots, pc)
        self.pivots.insert(at, pc)
        self.rows.insert(at, new)
        return True

    def dense_rows(self) -> list[Row]:
        """The rows as dense tuples, in pivot order."""
        zero = self.field.zero
        return [tuple(row.get(i, zero) for i in range(self.ncols)) for row in self.rows]


def rref(field: FieldSpec, rows: Iterable[Sequence[FieldElement]]) -> list[list[FieldElement]]:
    """Reduced row echelon form with unit pivots; zero rows dropped."""
    rows = [list(r) for r in rows]
    return [list(r) for r in Echelon(field, len(rows[0]) if rows else 0, rows).dense_rows()]


class Subspace:
    """A subspace of a table's underlying vector space.

    echelon holds it in reduced echelon form and must not change after
    construction; rows are the same rows as dense tuples in pivot order,
    canonical, so equal subspaces have equal rows.
    """

    __slots__ = ("table", "echelon", "rows", "pivots")

    def __init__(self, table: StructureTable, echelon: Echelon):
        self.table = table
        self.echelon = echelon
        self.rows = tuple(echelon.dense_rows())
        self.pivots = tuple(echelon.pivots)

    @classmethod
    def from_rows(cls, table: StructureTable, rows: Iterable[Sequence[FieldElement]]) -> "Subspace":
        return cls(table, Echelon(table.field, table.dim, rows))

    @classmethod
    def from_elements(cls, table: StructureTable, elements: Iterable[Element]) -> "Subspace":
        return cls.from_rows(table, [e.dense() for e in elements])

    @classmethod
    def zero(cls, table: StructureTable) -> "Subspace":
        return cls(table, Echelon(table.field, table.dim))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.table is other.table
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((id(self.table), self.rows))

    def contains(self, elem: Element) -> bool:
        return not any(self.echelon.reduce(elem.dense()))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(e) for e in other.basis_elements())

    def basis_elements(self) -> list[Element]:
        return [Element(self.table, dict(sorted(row.items()))) for row in self.echelon.rows]

    def add(self, other: "Subspace") -> "Subspace":
        return Subspace.from_rows(self.table, list(self.rows) + list(other.rows))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim} of {self.table.dim})"


# ---------------------------------------------------------------------------
# table validation
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    ok: bool
    encoding_ok: bool
    jacobi_ok: bool
    violations: list[tuple[int, int, int]]
    messages: list[str]

    def __bool__(self) -> bool:
        return self.ok


def validate_table(t: StructureTable, max_violations: int = 10) -> ValidationReport:
    """Check the i < j encoding and the Jacobi identity on all basis triples."""
    messages: list[str] = []
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

    zero = t.field.zero
    table = t.brackets
    violations: list[tuple[int, int, int]] = []

    def pair(i: int, j: int):
        # signed lookup for i != j
        if i < j:
            return table.get((i, j), ()), False
        return table.get((j, i), ()), True

    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                acc: dict[int, FieldElement] = {}
                # [[b_i, b_j], b_k] + [[b_j, b_k], b_i] + [[b_k, b_i], b_j]
                for terms, neg, other in (
                    (table.get((i, j), ()), False, k),
                    (table.get((j, k), ()), False, i),
                    (table.get((i, k), ()), True, j),
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
                    if len(violations) >= max_violations:
                        messages.append("Jacobi scan aborted at violation cap")
                        return ValidationReport(False, encoding_ok, False, violations, messages)
    jacobi_ok = not violations
    return ValidationReport(encoding_ok and jacobi_ok, encoding_ok, jacobi_ok, violations, messages)


# ---------------------------------------------------------------------------
# subalgebras, ideals, centralizers
# ---------------------------------------------------------------------------

def subalgebra_generated(t: StructureTable, gens: Sequence[Element]) -> Subspace:
    """Smallest bracket-closed subspace containing the generators."""
    if not gens:
        raise ValueError("generator list must be nonempty")
    span = Echelon(t.field, t.dim)
    basis = [g for g in gens if span.add(g.dense())]
    frontier = basis
    while frontier:
        new: list[Element] = []
        for u in frontier:
            for v in basis:
                w = bracket(u, v)
                if w and span.add(w.dense()):
                    new.append(w)
        basis = basis + new
        frontier = new
    return Subspace(t, span)


def derived_subalgebra(t: StructureTable, s: Subspace) -> Subspace:
    """Span of all brackets of basis pairs of s; s must be a subalgebra."""
    basis = s.basis_elements()
    products = []
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            w = bracket(basis[a], basis[b])
            if w:
                if not s.contains(w):
                    raise NotASubalgebra("subspace is not closed under the bracket")
                products.append(w)
    return Subspace.from_elements(t, products)


def centralizer_in(t: StructureTable, ambient: Subspace, target: Subspace) -> Subspace:
    """{a in ambient : [a, b] = 0 for every b in target}."""
    m = ambient.dim
    if m == 0 or target.dim == 0:
        return ambient
    arows = ambient.basis_elements()
    zero = t.field.zero
    constraints: list[list[FieldElement]] = []
    for b in target.basis_elements():
        images = [bracket(a, b) for a in arows]
        support = sorted({k for img in images for k in img.coords})
        for k in support:
            constraints.append([img.coords.get(k, zero) for img in images])
    kernel = [
        Element(t, _combine((c, arows[i].coords) for i, c in combo.items()))
        for combo in _nullspace(t.field, constraints, m)
    ]
    return Subspace.from_elements(t, kernel)


def center(t: StructureTable, s: Subspace) -> Subspace:
    return centralizer_in(t, s, s)


def _nullspace(field: FieldSpec, constraints: list[list[FieldElement]], m: int) -> list[dict[int, FieldElement]]:
    """Basis of {x in F^m : A x = 0} for constraint rows A, as sparse vectors."""
    ech = Echelon(field, m, constraints)
    pivots = set(ech.pivots)
    out = []
    for f in range(m):
        if f not in pivots:
            vec = {f: field.one}
            for row, pc in zip(ech.rows, ech.pivots):
                if f in row:
                    vec[pc] = -row[f]
            out.append(vec)
    return out


def quotient_by_ideal(t: StructureTable, ideal: Subspace) -> StructureTable:
    """Structure table on the coordinate complement of a bracket-stable ideal."""
    for i in range(t.dim):
        bi = t.basis_element(i)
        for w in ideal.basis_elements():
            if not ideal.contains(bracket(bi, w)):
                raise NotAnIdeal("subspace is not bracket-stable under the full algebra")
    pivset = set(ideal.pivots)
    keep = [i for i in range(t.dim) if i not in pivset]
    pos = {c: n for n, c in enumerate(keep)}
    labels = [t.labels[c] for c in keep]
    entries = []
    for a in range(len(keep)):
        for b in range(a + 1, len(keep)):
            w = bracket(t.basis_element(keep[a]), t.basis_element(keep[b]))
            vec = ideal.echelon.reduce(w.dense())
            terms = [(pos[c], vec[c]) for c in keep if vec[c]]
            if terms:
                entries.append((a, b, terms))
    return StructureTable.from_entries(t.field, labels, entries)


# ---------------------------------------------------------------------------
# gradings and structure maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DegreeMap:
    """Assignment of each basis vector to a residue modulo N."""

    modulus: int
    degrees: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(d % self.modulus for d in self.degrees))

    def degree(self, i: int) -> int:
        return self.degrees[i]

    def restrict(self, keep: Sequence[int]) -> "DegreeMap":
        return DegreeMap(self.modulus, tuple(self.degrees[i] for i in keep))

    def to_json(self) -> dict:
        return {"modulus": self.modulus, "degrees": list(self.degrees)}

    @classmethod
    def from_json(cls, data: dict) -> "DegreeMap":
        return cls(data["modulus"], tuple(data["degrees"]))


def validate_grading(t: StructureTable, d: DegreeMap) -> bool:
    """True iff every stored bracket lands in the predicted degree class."""
    if len(d.degrees) != t.dim:
        raise ValueError("degree map does not match table dimension")
    n = d.modulus
    for (i, j), terms in t.brackets.items():
        want = (d.degrees[i] + d.degrees[j]) % n
        for k, _ in terms:
            if d.degrees[k] != want:
                return False
    return True


def check_structure_map(
    src: StructureTable,
    dst: StructureTable,
    images: Sequence[Element],
) -> bool:
    """True iff the basis map is injective and preserves all brackets."""
    if len(images) != src.dim:
        raise ValueError("need one image per src basis vector")
    if src.field != dst.field:
        raise ValueError("structure maps require a common ground field")
    if Echelon(dst.field, dst.dim, [e.dense() for e in images]).rank != src.dim:
        return False
    for i in range(src.dim):
        for j in range(i + 1, src.dim):
            lhs = _combine((c, images[k].coords) for k, c in src.basis_bracket(i, j))
            if lhs != bracket(images[i], images[j]).coords:
                return False
    return True


# ---------------------------------------------------------------------------
# base change and subalgebra tables
# ---------------------------------------------------------------------------

def _augmented_echelon(field: FieldSpec, rows: Sequence[Sequence[FieldElement]], n: int) -> Echelon | None:
    """Reduced echelon form of [rows | I] for rows of length n, or None when
    the rows are dependent: then some pivot falls at or past column n."""
    m = len(rows)
    zero, one = field.zero, field.one
    unit = [[one if s == i else zero for s in range(m)] for i in range(m)]
    aug = Echelon(field, n + m, (list(r) + unit[i] for i, r in enumerate(rows)))
    return None if any(pc >= n for pc in aug.pivots) else aug


def change_basis(t: StructureTable, rows: Sequence[Sequence[FieldElement]], labels: Sequence[str]) -> StructureTable:
    """Rewrite the table in a new basis given by full-rank coordinate rows.

    Each bracket of two new basis vectors is pushed through the sparse rows
    of the inverse matrix, the right half of the echelon form of [A | I].
    """
    n = t.dim
    if len(rows) != n:
        raise ValueError("change of basis requires a square matrix")
    aug = _augmented_echelon(t.field, rows, n)
    if aug is None:
        raise ValueError("matrix is singular")
    inv = [{c - n: x for c, x in row.items() if c >= n} for row in aug.rows]
    elems = [Element(t, {i: c for i, c in enumerate(r) if c}) for r in rows]
    entries = []
    for a in range(n):
        for b in range(a + 1, n):
            w = bracket(elems[a], elems[b])
            terms = _combine((c, inv[k]) for k, c in w.coords.items())
            if terms:
                entries.append((a, b, terms.items()))
    return StructureTable.from_entries(t.field, labels, entries)


def subalgebra_table(
    t: StructureTable,
    elements: Sequence[Element],
    labels: Sequence[str] | None = None,
) -> StructureTable:
    """Structure table on a given independent, bracket-closed family."""
    m, n = len(elements), t.dim
    # reducing (v | 0) against [elements | I] leaves (0 | -x) when v = sum x_r elements[r]
    aug = _augmented_echelon(t.field, [e.dense() for e in elements], n)
    if aug is None:
        raise ValueError("elements are linearly dependent")
    padding = [t.field.zero] * m
    if labels is None:
        labels = []
        for e in elements:
            if len(e.coords) == 1:
                (idx, c), = e.coords.items()
                labels.append(t.labels[idx] if c == t.field.one else f"{c}*{t.labels[idx]}")
            else:
                labels.append(f"v{len(labels)}")
    entries = []
    for a in range(m):
        for b in range(a + 1, m):
            w = bracket(elements[a], elements[b])
            if not w:
                continue
            vec = aug.reduce(list(w.dense()) + padding)
            if any(vec[:n]):
                raise NotASubalgebra("family is not closed under the bracket")
            terms = [(k, -c) for k, c in enumerate(vec[n:]) if c]
            if terms:
                entries.append((a, b, terms))
    return StructureTable.from_entries(t.field, labels, entries)
