"""Generic finite-dimensional Lie algebra engine over an exact field.

A StructureTable stores sparse bracket coefficients for ordered basis pairs
(i < j); antisymmetry is implicit and diagonal brackets are zero even in
characteristic two (the tables are alternating).  One incremental
echelon kernel, Echelon, takes and returns sparse {column: coefficient}
dicts, the same coordinates an Element stores, and eliminates on discrete
logs as bracket does; its cost follows the supports of the vectors, not
the dimension.  check_structure_map reads it for the rank of the images
and to coerce them.  The center is read off the stored pairs, with no
elimination (center).
validate_table and check_structure_map prove the Jacobi identity with one
Leibniz-rule kernel, whose cost follows the nonzero bracket compositions,
not the number of basis triples; it reads flat per-vector lists that one
pass over the stored pairs builds while it checks the encoding.  Both work
from a generating set, read off one-term tables only (_ReachedSpan); where
one is passed or asked for, any other table raises ValueError.
validate_table, check_structure_map's Leibniz passes and
StructureTable.to_json run with cyclic garbage collection paused
(_gc_paused): everything they build is acyclic.
"""

from __future__ import annotations

import gc
from bisect import bisect_left, bisect_right, insort
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Sequence

from .errors import NotAnIdeal, NotASubalgebra, TableMismatch
from .ffield import FieldElement, FieldSpec


@contextmanager
def _gc_paused() -> Iterator[None]:
    """No cyclic garbage collection inside the block; on leaving it, also by
    an exception, the collector is on again only if it was on at entry.

    For bulk builds that allocate many objects that stay alive and form no
    reference cycle: there the collections the allocations trigger, of the
    older generations too, rescan live objects and free nothing, while
    reference counting frees what does die; so pausing the collector
    changes no output and no memory use.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class StructureTable:
    """A Lie algebra given by labeled basis and sparse bracket coefficients.

    brackets is a dict, or a read-only mapping that reads as one
    (cartan.Phi1Brackets works each product out when it is read)."""

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

    def basis_element(self, i: int) -> "Element":
        return Element(self, {i: self.field.one})

    def element(self, coeffs: dict[int, FieldElement]) -> "Element":
        return Element(self, {k: c for k, c in coeffs.items() if c})

    def to_json(self) -> dict:
        with _gc_paused():
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

    def __repr__(self) -> str:
        if not self.coords:
            return "0"
        parts = [f"{c}*{self.table.labels[k]}" for k, c in sorted(self.coords.items())]
        return " + ".join(parts)

    def to_json(self) -> list:
        return [[k, c.to_json()] for k, c in sorted(self.coords.items())]


def bracket(u: Element, v: Element) -> Element:
    """Bilinear, alternating extension of the stored basis brackets.

    All scalar work is integer arithmetic on the field's discrete logs
    (FieldSpec._arith), with n = |F| - 1 units and zero at log 2n: a product
    is exp[log a + log b], a sum g^a + g^b is g^(a + zech[b - a]), and
    [b_i, b_j] for i > j is the stored (j, i) bracket times -1, that is
    + log(-1) on the scalar.  Each coefficient of u and v is first coerced
    into the table's field as the FieldElement operators coerce an operand,
    so an element of another field raises ValueError.  Zero coefficients
    of u and v, stored zero coefficients and diagonal pairs contribute
    nothing.  The result holds the field's shared elements, keyed in order
    of first nonzero contribution: a target whose sum cancels is deleted,
    so one that reappears moves to the end.
    """
    table = u.table
    if v.table is not table:
        raise TableMismatch("elements live on different structure tables")
    field = table.field
    if field._arith is None:
        field._build()
    exp, zech, n, neg_one = field._arith
    zero = n + n
    vs = []
    for j, b in v.coords.items():
        if b.__class__ is not FieldElement or b.spec is not field:
            b = field.element(b)
        if b.log != zero:
            vs.append((j, b.log))
    brackets = table.brackets
    out: dict[int, FieldElement] = {}
    get = out.get
    for i, a in u.coords.items():
        if a.__class__ is not FieldElement or a.spec is not field:
            a = field.element(a)
        a = a.log
        if a == zero:
            continue
        for j, b in vs:
            if i < j:
                terms = brackets.get((i, j))
                if not terms:
                    continue
                c = (a + b) % n
            elif i > j:
                terms = brackets.get((j, i))
                if not terms:
                    continue
                c = (a + b + neg_one) % n
            else:
                continue
            for k, ck in terms:
                e = c + ck.log
                if e >= zero:  # a stored zero coefficient
                    continue
                s = get(k)
                if s is None:
                    out[k] = exp[e]
                else:
                    x = s.log
                    e = x + zech[e - x]
                    if e < zero:
                        out[k] = exp[e]
                    else:  # cancelled: a later term re-adds k at the end
                        del out[k]
    return Element(table, out)


# ---------------------------------------------------------------------------
# exact linear algebra: sparse rows, reduced echelon form
# ---------------------------------------------------------------------------

Vec = dict[int, FieldElement]


def _combine(pairs: Iterable[tuple[FieldElement, Vec]]) -> Vec:
    """The sparse coordinates of sum c_k * v_k over (c_k, v_k) pairs, v_k with
    no zero entry: each adds as _subtract of -c_k, none for a zero c_k."""
    out: Vec = {}
    for c, v in pairs:
        if c:
            arith = c.spec._arith
            _subtract(out, c.log + arith[3], v, arith)
    return out


def _subtract(target: Vec, c: int, source: Vec, arith: tuple) -> None:
    """target -= g^c * source in place, on logs as in bracket (arith is
    FieldSpec._arith); a cancelled entry is deleted, a new one goes last."""
    exp, zech, n, neg_one = arith
    zero = n + n
    c = (c + neg_one) % n
    get = target.get
    for i, x in source.items():
        e = c + x.log
        s = get(i)
        if s is None:
            target[i] = exp[e]
        else:
            a = s.log
            e = a + zech[e - a]
            if e < zero:
                target[i] = exp[e]
            else:
                del target[i]


class Echelon:
    """Reduced row echelon form with unit pivots, grown one vector at a time.

    Vectors go in and come out as sparse {column: coefficient} dicts with no
    zero coefficient.  rows maps each pivot column to its row, which holds
    one there and is zero at every other pivot; pivots lists the pivot
    columns in increasing order.  Row operations touch only the nonzero
    entries of the row subtracted, so the cost follows the supports; there
    is no column count.  Every row update is _subtract, integer work on the
    field's discrete logs; coefficients are coerced as in bracket, so one of
    another field raises ValueError.  The form is canonical: the same span
    gives the same rows whatever vectors built it.
    """

    __slots__ = ("field", "rows", "pivots")

    def __init__(self, field: FieldSpec, vectors: Iterable[Vec] = ()):
        self.field = field
        self.rows: dict[int, Vec] = {}
        self.pivots: list[int] = []
        for vec in vectors:
            self.add(vec)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, vec: Vec) -> Vec:
        """vec with every pivot column eliminated; empty iff vec lies in the span.

        A row is zero at every other pivot, so subtracting it leaves the
        other pivot entries of vec as they were: each row is subtracted at
        most once, scaled by the entry of vec itself.
        """
        field, rows = self.field, self.rows
        if field._arith is None:
            field._build()
        zero = 2 * field._arith[2]
        out: Vec = {}
        for i, c in vec.items():
            if c.__class__ is not FieldElement or c.spec is not field:
                c = field.element(c)
            if c.log != zero:
                out[i] = c
        for pc in [i for i in out if i in rows]:
            _subtract(out, out[pc].log, rows[pc], field._arith)
        return out

    def add(self, vec: Vec) -> bool:
        """Extend the span by vec; False, with nothing changed, if it is already in it."""
        residual = self.reduce(vec)
        if not residual:
            return False
        exp, _, n, _ = arith = self.field._arith
        pc = min(residual)
        inv = n - residual[pc].log
        new = {i: exp[inv + c.log] for i, c in residual.items()}
        for row in self.rows.values():
            c = row.get(pc)
            if c is not None:  # rows store no zeros
                _subtract(row, c.log, new, arith)
        insort(self.pivots, pc)
        self.rows[pc] = new
        return True


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


class _LeibnizIndex:
    """What validate_table and _leibniz_failures read of a table, built in
    one pass over its stored pairs.

    keys[a], tgts[a], logs[a]: one entry per term of each stored pair that
    holds b_a, ascending in the other vector b: b, the target and the log
    of the coefficient in [b_a, b_b].  by_target[m]: ((j * dim + k) * dim,
    log), ascending, one per term at m of a pair j < k; an empty one marks
    a basis vector that is no bracket target.  Only well-formed terms are
    indexed (0 <= i < j < dim, target in range, coefficient nonzero);
    messages names the faults in the dict's order, encoding_ok is whether
    there is none, one_term is _one_term(t), and on a one-term table
    len(keys[a]) is the size of the ad row of b_a.  Appends in ascending
    key order keep the lists sorted; other orders are sorted after the pass.
    """

    __slots__ = ("dim", "keys", "tgts", "logs", "by_target", "neg", "pexp", "p", "s",
                 "one_term", "encoding_ok", "messages")

    def __init__(self, t: StructureTable):
        dim = self.dim = t.dim
        field = t.field
        # A scalar is its discrete log (2n for zero, n = |F| - 1), the field's
        # own id of it, so a product of two is pexp[a + b]: the int whose
        # base-2^s digits are the product's polynomial coordinates.  A sum of
        # such ints is reduced mod p digit by digit only when tested for zero.
        n = field.size - 1
        zero = 2 * n
        minus_one = (-field.one).log
        neg = self.neg = [(a + minus_one) % n for a in range(n)] + [zero] * (n + 1)

        keys = self.keys = [[] for _ in range(dim)]
        tgts = self.tgts = [[] for _ in range(dim)]
        logs = self.logs = [[] for _ in range(dim)]
        by_target = self.by_target = [[] for _ in range(dim)]
        messages = self.messages = []
        one_term = ascending = True
        longest, last = 1, -1
        for (i, j), terms in t.brackets.items():
            if len(terms) != 1:
                one_term = False
                longest = max(longest, len(terms))
            good = 0 <= i < j < dim
            if good:
                base = (i * dim + j) * dim
                ascending = ascending and base > last
                last = base
            else:
                messages.append(f"bad key ({i}, {j})")
            for k, c in terms:
                e = c.log
                if 0 <= k < dim and e != zero:
                    if good:
                        keys[i].append(j)
                        tgts[i].append(k)
                        logs[i].append(e)
                        keys[j].append(i)
                        tgts[j].append(k)
                        logs[j].append(neg[e])
                        by_target[k].append((base, e))
                    continue
                if not 0 <= k < dim:
                    messages.append(f"target {k} out of range in ({i}, {j})")
                if e == zero:
                    messages.append(f"stored zero coefficient in ({i}, {j})")
        if not ascending:
            for a, row in enumerate(keys):
                if row:
                    keys[a], tgts[a], logs[a] = map(list, zip(*sorted(zip(row, tgts[a], logs[a]))))
            for pairs in by_target:
                pairs.sort()
        self.encoding_ok = not messages
        self.one_term = one_term and not messages

        # Each of the three sums puts at most longest^2 products into one
        # (j, k, target) cell (a hand-built bracket may repeat a target), and
        # each coordinate of a product is at most p - 1, so no digit carries.
        p = self.p = field.p
        s = self.s = (3 * longest * longest * (p - 1)).bit_length()
        pexp = self.pexp = [0] * (4 * n + 1)
        for c in field.elements():
            if c:
                pexp[c.log] = pexp[c.log + n] = sum(x << (s * e) for e, x in enumerate(c.coords))


def _leibniz_failures(
    index: _LeibnizIndex, scans: Iterable[tuple[int, int]]
) -> Iterator[tuple[int, list[tuple[int, int]]]]:
    """For each (g, lo) in scans, g and the pairs lo < j < k, in
    lexicographic order, on which ad b_g breaks the Leibniz rule: where

        [b_g, [b_j, b_k]] - [[b_g, b_j], b_k] - [b_j, [b_g, b_k]] != 0.

    This is the Jacobi sum of b_g, b_j, b_k, so lo = g gives the Jacobi
    violations (g, j, k).  Each sum is enumerated from its sparse side, so
    the cost follows the nonzero compositions: the first through the pairs
    (j, k) whose bracket has target m, for each m in ad b_g; the other two
    through ad b_m, cut to the range by bisection.
    """
    dim, keys, tgts, logs, by_target = index.dim, index.keys, index.tgts, index.logs, index.by_target
    neg, pexp, p, s = index.neg, index.pexp, index.p, index.s
    mask = (1 << s) - 1

    def nonzero(v: int) -> bool:
        while v:
            if (v & mask) % p:
                return True
            v >>= s
        return False

    for g, lo in scans:
        acc: dict[int, int] = {}
        get = acc.get
        gkeys, gtgts, glogs = keys[g], tgts[g], logs[g]
        # [b_g, [b_j, b_k]] = sum_m c_jk^m [b_g, b_m]
        for m, target, e in zip(gkeys, gtgts, glogs):
            pairs = by_target[m]
            if lo >= 0:  # from the least base with j > lo
                pairs = pairs[bisect_left(pairs, ((lo + 1) * dim * dim,)):]
            pe = pexp[e:]
            for base, c in pairs:
                key = base + target
                acc[key] = get(key, 0) + pe[c]
        x = bisect_right(gkeys, lo)
        for a, m, c in zip(gkeys[x:], gtgts[x:], glogs[x:]):
            mkeys, mtgts, mlogs = keys[m], tgts[m], logs[m]
            below = bisect_left(mkeys, a)
            y = bisect_right(mkeys, a, below)
            # -[[b_g, b_j], b_k] = -sum_m c_gj^m [b_m, b_k] for a = j < k
            pc = pexp[neg[c]:]
            top = a * dim
            for b, target, d in zip(mkeys[y:], mtgts[y:], mlogs[y:]):
                key = (top + b) * dim + target
                acc[key] = get(key, 0) + pc[d]
            # -[b_j, [b_g, b_k]] = sum_m c_gk^m [b_m, b_j] for lo < j < k = a
            pc = pexp[c:]
            y = bisect_right(mkeys, lo, 0, below)
            for b, target, d in zip(mkeys[y:below], mtgts[y:below], mlogs[y:below]):
                key = (b * dim + a) * dim + target
                acc[key] = get(key, 0) + pc[d]
        bad = sorted({key // dim for key, v in acc.items() if nonzero(v)})
        yield g, [divmod(jk, dim) for jk in bad]


def _jacobi_certified(t: StructureTable, index: _LeibnizIndex) -> bool:
    """True when ad g is a derivation for each g of a generating set of the
    one-term table t (the proof is in validate_table).

    A pass of _leibniz_failures for g reads the compositions through the ad
    row of b_g, so its cost follows the size of that row, the number of
    stored pairs b_g is in.  The candidates are the widest ad row first,
    which sweeps most of the table into the span of right-normed brackets
    (as d sweeps W(1;n): [d, x^(m) d] = x^(m-1) d), and then every other
    basis vector in ascending ad-row size, ties by position: a few narrow
    generators then span the rest at the cost of narrow passes.  A pass over
    all pairs visits each basis triple that contains g, and the scan visits
    each triple once, so dim/3 such passes do about the work of the scan.
    Hence the guard: once the extension has taken more than dim/3
    generators it stops, and the scan runs instead.  The same bound is
    checked before the extension on its lower bound: a generating set spans
    L modulo [L, L], which lies in the span of the basis vectors that are
    the target of some bracket, so when more than dim/3 basis vectors are no
    target the scan runs without building the generating set.
    """
    dim = t.dim
    if 3 * sum(not pairs for pairs in index.by_target) > dim:
        return False
    size = [len(k) for k in index.keys]
    widest = max(range(dim), key=size.__getitem__, default=-1)
    order = sorted(range(dim), key=lambda i: (i != widest, size[i]))
    gens = list(islice(_greedy_generators(t, (), order), dim // 3 + 1))
    if 3 * len(gens) > dim:
        return False
    return not any(pairs for _, pairs in _leibniz_failures(index, ((g, -1) for g in gens)))


def validate_table(t: StructureTable, max_violations: int = 10) -> ValidationReport:
    """Check the i < j encoding and the Jacobi identity.

    On a one-term table, whose encoding holds, the identity is proved from
    a generating set (_jacobi_certified): one pass of _leibniz_failures over
    all pairs for each generator g, checking that ad g is a derivation.
    This suffices.  S = {x : ad x is a derivation} is a subspace, since ad
    is linear.  If ad x is a derivation then ad [x, y] = [ad x, ad y], and
    a commutator of derivations is a derivation, so S is a subalgebra; none
    of this uses the Jacobi identity, so it holds in any alternating
    algebra.  S then holds every right-normed bracket [g1, [g2, ..., gk]]
    of generators, and _greedy_generators picks the generators so that
    these span the table.  So every ad is a derivation, which for an
    alternating bracket is the Jacobi identity.

    Otherwise, when the table is not one-term, when a generator's pass
    fails, or when a generating set would take more than dim/3 generators,
    the identity is checked on every basis triple: one pass per basis
    vector b_i, over the pairs i < j < k.  Violations come in
    lexicographic order, at most max_violations of them; max_violations
    must be at least 1.
    """
    if max_violations < 1:
        raise ValueError(f"max_violations must be at least 1, got {max_violations}")
    with _gc_paused():
        index = _LeibnizIndex(t)
        if index.one_term and _jacobi_certified(t, index):
            return ValidationReport(True, True, True, [], [])
        violations: list[tuple[int, int, int]] = []
        for i, pairs in _leibniz_failures(index, ((i, i) for i in range(t.dim))):
            for j, k in pairs:
                violations.append((i, j, k))
                if len(violations) >= max_violations:
                    index.messages.append("Jacobi scan aborted at violation cap")
                    return ValidationReport(False, index.encoding_ok, False, violations, index.messages)
    ok = index.encoding_ok and not violations
    return ValidationReport(ok, index.encoding_ok, not violations, violations, index.messages)


# ---------------------------------------------------------------------------
# generating sets, the center, coordinate quotients
# ---------------------------------------------------------------------------

def _one_term(t: StructureTable) -> bool:
    """Whether each stored key is 0 <= i < j < dim with one term (k, c), 0 <= k
    < dim and c != 0, as in builder and eigen tables (_LeibnizIndex records
    the same as one_term)."""
    dim, zero = t.dim, 2 * (t.field.size - 1)
    for (i, j), terms in t.brackets.items():
        if len(terms) != 1 or not 0 <= i < j < dim:
            return False
        ((k, c),) = terms
        if not 0 <= k < dim or c.log == zero:
            return False
    return True


class _ReachedSpan:
    """The span of the right-normed brackets [g1, [g2, ..., gk]] of a growing
    list of basis positions gens on a one-term table (in a Lie algebra, the
    subalgebra they generate): the span of b_m for m in reached, grown by
    one dict lookup per step, with no Element, bracket or Echelon.  There
    ad b_g maps each b_m to a multiple of one b_k.  Let R be the least
    set of positions holding the generators and, for each generator g and m
    in R with [b_g, b_m] = c b_k, holding k.  The span of R holds the
    generators and is closed under each ad b_g, so it holds the right-normed
    span; and b_k = c^-1 [b_g, b_m] with c != 0, so the right-normed span
    holds each b_m, m in R, by induction.  The spans are equal, and b_i lies
    in it exactly when i is in R."""

    def __init__(self, t: StructureTable, gens: Iterable[int] = ()):
        self.brackets, self.gens, self.reached = t.brackets, [], set()
        for g in gens:
            self.adjoin(g)

    @property
    def rank(self) -> int:
        return len(self.reached)

    def __contains__(self, i: int) -> bool:
        return i in self.reached

    def adjoin(self, g: int) -> None:
        get, reached, gens = self.brackets.get, self.reached, self.gens
        gens.append(g)
        # reached is closed under the earlier generators, not yet under ad g
        new = [terms[0][0] for m in reached if (terms := get((g, m) if g < m else (m, g)))]
        new.append(g)
        while new:
            m = new.pop()
            if m not in reached:
                reached.add(m)
                new += [terms[0][0] for h in gens if (terms := get((h, m) if h < m else (m, h)))]


def _greedy_generators(t: StructureTable, start: Iterable[int], candidates: Iterable[int]) -> Iterator[int]:
    """start, then each of candidates outside the _ReachedSpan of the
    positions yielded so far, until that span is all of the one-term table t.
    candidates must run over every basis position, or the span may fall
    short of t.  Each position is yielded before it is adjoined, so a
    caller that stops taking them pays for no further extension."""
    closure = _ReachedSpan(t)
    for i in start:
        yield i
        closure.adjoin(i)
    for i in candidates:
        if closure.rank == t.dim:
            return
        if i not in closure:
            yield i
            closure.adjoin(i)


def extend_to_generators(t: StructureTable, start: Sequence[int]) -> list[int]:
    """start, then each basis position, lowest first, outside the span of
    the right-normed brackets of the positions chosen so far, until that
    span is all of t: for a Lie algebra, a generating set of t.  ValueError
    when t is not one-term."""
    if not _one_term(t):
        raise ValueError("generating sets are read off one-term tables only")
    return list(_greedy_generators(t, start, range(t.dim)))


def center(t: StructureTable) -> tuple[int, ...]:
    """The center of t: the sorted positions of the basis vectors that are
    in no stored pair, which span it.

    Exact on a one-term table (_one_term) where each ad b_j is
    support-injective: distinct i with [b_i, b_j] != 0 have distinct
    targets.  For z = sum c_i b_i, [z, b_j] = sum c_i [b_i, b_j] then has
    one distinct target per such i, so it vanishes only when each such c_i
    does: z is central iff c_i = 0 for every i in a stored pair.  No Jacobi
    identity is used.  The one pass over the stored pairs that collects the
    positions checks both conditions; ValueError when either fails.
    """
    dim, zero = t.dim, 2 * (t.field.size - 1)
    paired = bytearray(dim)
    hit: set[int] = set()  # j * dim + k: some [b_i, b_j] is a multiple of b_k
    for (i, j), terms in t.brackets.items():
        ((k, c),) = terms if len(terms) == 1 else ((-1, None),)
        if not (0 <= i < j < dim and 0 <= k < dim and c.log != zero):
            raise ValueError(f"the center is read off one-term tables only: the pair ({i}, {j}) stores {terms!r}")
        ik, jk = i * dim + k, j * dim + k
        if ik in hit or jk in hit:
            b = t.labels[i if ik in hit else j]
            raise ValueError(f"the center is read off support-injective tables only: ad {b} sends two basis vectors to {t.labels[k]}")
        hit.add(ik)
        hit.add(jk)
        paired[i] = paired[j] = 1
    return tuple(m for m in range(dim) if not paired[m])


def quotient_by_ideal(t: StructureTable, drop: Iterable[int]) -> StructureTable:
    """Structure table of t modulo the span of the basis vectors at the
    positions drop, on the other basis vectors in ascending order.

    One pass over the stored pairs: NotAnIdeal when a pair touches drop and
    a nonzero term, repeated targets summed, lands outside it; every other
    pair is renumbered without its terms on drop, straight into the new
    brackets when each such pair is i < j with one term (the renumbering is
    increasing), else through from_entries.  With cyclic garbage collection
    paused (_gc_paused).
    """
    drop = set(drop)
    keep = [i for i in range(t.dim) if i not in drop]
    pos = {i: a for a, i in enumerate(keep)}
    kept = []
    with _gc_paused():
        for (i, j), terms in t.brackets.items():
            if i in drop or j in drop:
                combined: dict[int, FieldElement] = {}
                for k, c in terms:  # a hand-built bracket may repeat a target
                    combined[k] = combined[k] + c if k in combined else c
                if any(c and k not in drop for k, c in combined.items()):
                    raise NotAnIdeal("basis positions are not bracket-stable under the full algebra")
            else:
                kept.append((i, j, terms))
        labels = [t.labels[i] for i in keep]
        if all(len(terms) == 1 and i < j for i, j, terms in kept):
            return StructureTable(t.field, labels, {
                (pos[i], pos[j]): ((pos[k], c),) for i, j, ((k, c),) in kept if c and k not in drop})
        entries = [(pos[i], pos[j], [(pos[k], c) for k, c in terms if k not in drop]) for i, j, terms in kept]
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

    def restrict(self, keep: Sequence[int]) -> "DegreeMap":
        return DegreeMap(self.modulus, tuple(self.degrees[i] for i in keep))

    def to_json(self) -> dict:
        return {"modulus": self.modulus, "degrees": list(self.degrees)}

    @classmethod
    def from_json(cls, data: dict) -> "DegreeMap":
        return cls(data["modulus"], tuple(data["degrees"]))


def validate_grading(t: StructureTable, d: DegreeMap) -> bool:
    """True iff every stored bracket lands in the predicted degree class.

    A bracket mapping with a proves_grading method (cartan.Phi1Brackets)
    is asked first, and a proof there reads no product; when it proves
    nothing, every stored bracket is checked."""
    if len(d.degrees) != t.dim:
        raise ValueError("degree map does not match table dimension")
    proves = getattr(t.brackets, "proves_grading", None)
    if proves is not None and proves(d):
        return True
    n = d.modulus
    for (i, j), terms in t.brackets.items():
        want = (d.degrees[i] + d.degrees[j]) % n
        for k, _ in terms:
            if d.degrees[k] != want:
                return False
    return True


@dataclass(frozen=True)
class MapCheck:
    """Outcome of check_structure_map: check is None when the map passes,
    else the first check that failed, with the basis labels in detail."""

    check: str | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.check is None

    def __str__(self) -> str:
        return "pass" if self.check is None else f"{self.check} fails: {self.detail}"


def check_structure_map(
    src: StructureTable,
    dst: StructureTable,
    images: Sequence[Element],
    gens: Sequence[int] | None = None,
) -> MapCheck:
    """Certify that the basis map phi: b_i -> images[i] is an injective
    homomorphism, from a generating set gens of src (basis positions,
    default every one).  The checks, in order:

    - rank: the images are linearly independent;
    - intertwining: phi[g, b] = [phi g, phi b] for g in gens, b in the basis;
    - derivation: ad g is a derivation of src for every g in gens;
    - generation: the right-normed brackets [g1, [g2, ..., gk]] of gens
      span src (in a Lie algebra: gens generate src).

    If ad g is a derivation, ad [g, u] = [ad g, ad u]; so the elements whose
    ad is a derivation of src contain [g, u] with u, and, when dst is a Lie
    algebra, so do the elements on which phi intertwines the brackets.  Both
    contain gens, hence the right-normed brackets, hence all of src: src is
    a Lie algebra and phi a homomorphism.  When gens is every basis vector
    the intertwining covers every pair, which alone is the proof, and the
    last two checks are skipped.  Otherwise src must be one-term (as an
    eigen table is), else ValueError, and generation is read off
    _ReachedSpan.
    """
    if len(images) != src.dim:
        raise ValueError("need one image per src basis vector")
    if src.field != dst.field:
        raise ValueError("structure maps require a common ground field")
    labels = src.labels
    coerce = Echelon(dst.field).reduce  # with no rows: coerced as in bracket, no zeros
    vecs = [coerce(e.coords) for e in images]
    rank = Echelon(dst.field, vecs).rank
    if rank != src.dim:
        return MapCheck("rank", f"the images span {rank} of {src.dim} dimensions")
    gens = range(src.dim) if gens is None else gens
    genset = set(gens)
    for g in gens:
        for b in range(src.dim):
            if b in genset and b <= g:
                continue  # [g, g] = 0, and [b, g] comes with b
            lhs = _combine((c, vecs[k]) for k, c in src.basis_bracket(g, b))
            if lhs != bracket(images[g], images[b]).coords:
                return MapCheck("intertwining", f"[{labels[g]}, {labels[b]}]")
    if len(genset) == src.dim:
        return MapCheck()
    with _gc_paused():
        index = _LeibnizIndex(src)
        if not index.one_term:
            raise ValueError("a generating set certifies one-term tables only")
        for g, pairs in _leibniz_failures(index, ((g, -1) for g in gens)):
            if pairs:
                a, b = pairs[0]
                return MapCheck("derivation", f"ad {labels[g]} on [{labels[a]}, {labels[b]}]")
    dim = _ReachedSpan(src, gens).rank
    if dim != src.dim:
        names = ", ".join(labels[g] for g in gens)
        return MapCheck("generation", f"{names} generate {dim} of {src.dim} dimensions")
    return MapCheck()


# ---------------------------------------------------------------------------
# subalgebra tables
# ---------------------------------------------------------------------------

def subalgebra_table(t: StructureTable, keep: Sequence[int]) -> StructureTable:
    """The coordinate subalgebra spanned by the basis vectors at the distinct
    positions keep: the stored brackets of kept pairs, renumbered in the
    order of keep, under the same labels.  NotASubalgebra when a nonzero
    term of such a bracket falls outside keep."""
    pos = {i: a for a, i in enumerate(keep)}
    if len(pos) != len(keep):
        raise ValueError("basis positions repeat")
    entries = []
    for (i, j), terms in t.brackets.items():
        if i in pos and j in pos:
            if any(c and k not in pos for k, c in terms):
                raise NotASubalgebra("basis positions are not closed under the bracket")
            entries.append((pos[i], pos[j], [(pos[k], c) for k, c in terms if c]))
    return StructureTable.from_entries(t.field, [t.labels[i] for i in keep], entries)
