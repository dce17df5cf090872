"""Generic finite-dimensional Lie algebra engine over an exact field.

A StructureTable stores sparse bracket coefficients for ordered basis pairs
(i < j); antisymmetry is implicit and diagonal brackets are zero even in
characteristic two (the tables are alternating); brackets may be a
RuleBrackets, which works each product out when it is read, leaves out a
basis vector as a view and proves the shape of [L, L] on the rule.
Every sparse sum of coefficients on the field's discrete logs is one
kernel, _accumulate, reading FieldSpec._arith: bracket, the kept ad
columns of _AdColumns (ad u for a fixed u, each column [u, b_m] summed
once from the stored pairs), _combine, the row updates of Echelon,
Element addition and StructureTable.from_entries.  Coefficients that come
in from a caller are coerced by one helper, _nonzero.  Echelon, the one
incremental echelon kernel, takes and returns sparse {column:
coefficient} dicts, the same coordinates an Element stores; its cost
follows the supports of the vectors, not the dimension.
check_structure_map reads it for the rank of the images and
proves a map on every pair; the map of an eigen table into the monomial
table is certified from generators with no elimination
(verify.identify).  Both intertwine through _AdColumns.  The center is
read off the stored pairs, with no elimination (center).
validate_table proves the Jacobi identity with one Leibniz-rule kernel,
whose cost follows the nonzero bracket compositions, not the number of
basis triples; it reads flat per-vector lists that one pass over the
stored pairs builds while it checks the encoding, and works from a
generating set, read off one-term tables only (_ReachedSpan).
validate_table and StructureTable.to_json run with cyclic garbage
collection paused (_gc_paused): everything they build is acyclic.
"""

from __future__ import annotations

import gc
from bisect import bisect_left, bisect_right, insort
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Sequence

from .errors import NotASubalgebra, TableMismatch
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


_UNREAD = object()  # a product RuleBrackets.get has not yet worked out


class RuleBrackets(Mapping):
    """A bracket dict on positions 0 .. dim - 1 read by rule: get((a, b))
    works out the product at a < b with _product (None for zero) and
    memoizes it; a whole-table read builds the dict once, keys ascending
    (_build).  without(drop) is the one way to leave out a basis vector.
    A rule lists with _sources(m) the pairs whose product can land on m,
    and _proves(n, degrees) proves a degree map modulo n a grading, or
    says nothing; a None degree is not checked."""

    def __init__(self, dim: int):
        self._dim = dim
        self._memo: dict = {}
        self._full: dict | None = None

    def get(self, key, default=None):
        terms = self._memo.get(key, _UNREAD)
        if terms is _UNREAD:
            terms = self._memo[key] = self._product(key)
        return default if terms is None else terms

    def __getitem__(self, key):
        terms = self.get(key)
        if terms is None:
            raise KeyError(key)
        return terms

    def __iter__(self):
        return iter(self._build())

    def __len__(self) -> int:
        return len(self._build())

    def values(self):
        return self._build().values()

    def items(self):
        return self._build().items()

    def _build(self) -> dict:
        if self._full is None:
            n, product = self._dim, self._product
            with _gc_paused():
                self._full = {(a, b): terms for a in range(n) for b in range(a + 1, n) if (terms := product((a, b)))}
        return self._full

    def proves_grading(self, d: DegreeMap) -> bool:
        return self._proves(d.modulus, d.degrees)

    def without(self, drop: int) -> RuleBrackets:
        return _Without(self, drop)

    def derived_is_all_but(self, drop: int) -> bool:
        """True when the one-term products span every b_m but b_drop: each
        other m is the target of a pair of _sources(m), the first found,
        and no pair of _sources(drop), all that can land there, hits it."""
        def hits(m: int) -> bool:
            return any(k == m for key in self._sources(m) for k, _ in self._product(key) or ())
        return not hits(drop) and all(hits(m) for m in range(self._dim) if m != drop)


class _Without(RuleBrackets):
    """RuleBrackets.without: _rule on every position but _drop, renumbered
    ascending, a term on _drop read as zero: L' or a quotient by a line,
    once the caller has proved it one."""

    def __init__(self, rule: RuleBrackets, drop: int):
        super().__init__(rule._dim - 1)
        self._rule, self._drop = rule, drop

    def _product(self, key) -> tuple | None:
        a, b = key
        drop = self._drop
        terms = self._rule._product((a + (a >= drop), b + (b >= drop)))
        return (tuple((k - (k > drop), c) for k, c in terms if k != drop) or None) if terms else None

    def _proves(self, n: int, degrees: tuple) -> bool:
        return self._rule._proves(n, degrees[:self._drop] + (None,) + degrees[self._drop:])


class StructureTable:
    """A Lie algebra given by labeled basis and sparse bracket coefficients.

    brackets is a dict, or a RuleBrackets that reads as one
    (cartan.Phi1Brackets, grading.AZBrackets)."""

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
        """Normalize arbitrary (i, j, terms) triples into the i < j convention:
        the terms of each pair, coerced (_nonzero), are summed by _accumulate,
        times -1 for i > j."""
        dim = len(labels)
        brackets: dict[tuple[int, int], Vec] = {}
        for i, j, terms in entries:
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"basis index out of range in ({i}, {j})")
            if i == j:
                if any(c for _, c in terms):
                    raise ValueError(f"nonzero diagonal bracket at index {i}")
                continue
            terms = _nonzero(field, terms)
            arith = field._arith
            key, c = ((i, j), 0) if i < j else ((j, i), arith[3])
            _accumulate(brackets.setdefault(key, {}), ((c, terms),), arith)
        packed = {key: tuple(sorted(val.items())) for key, val in brackets.items() if val}
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

    def without(self, drop: int) -> "StructureTable":
        """The rule table on every basis vector but b_drop (RuleBrackets.without)."""
        return StructureTable(self.field, self.labels[:drop] + self.labels[drop + 1:], self.brackets.without(drop))

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
        """Both coordinate dicts coerced (_nonzero), other's summed into a
        copy of self's by _accumulate: a key that cancels and comes back
        goes last."""
        field = self.table.field
        out = dict(_nonzero(field, self.coords))
        _accumulate(out, ((0, _nonzero(field, other.coords)),), field._arith)
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


Vec = dict[int, FieldElement]


def _nonzero(field: FieldSpec, coords: dict | Iterable[tuple[int, object]]) -> list[tuple[int, FieldElement]]:
    """The (k, c) of coords, a dict or (k, c) pairs, with c != 0, each c
    coerced into field as the FieldElement operators coerce an operand, so
    an element of another field raises ValueError; builds the field's
    tables on first use."""
    if field._arith is None:
        field._build()
    zero, out = field._zero_log, []
    for k, c in coords.items() if isinstance(coords, dict) else coords:
        if c.__class__ is not FieldElement or c.spec is not field:
            c = field.element(c)
        if c.log != zero:
            out.append((k, c))
    return out


def _accumulate(out: Vec, scaled: Iterable[tuple[int, Iterable[tuple[int, FieldElement]]]], arith: tuple) -> None:
    """out += g^c * sum t_k b_k for each (c, terms) of scaled in turn, in
    place on discrete logs (arith is FieldSpec._arith: exp, zech, n, log -1).

    c is a log in [0, n), or 2n for zero; a zero c or t adds nothing.  A
    product is exp[c + log t], a sum g^a + g^b is g^(a + zech[b - a]); a
    key whose sum cancels is deleted, so one that comes back goes last.
    out holds the field's shared elements and must not be one of the terms.
    """
    exp, zech, n, _ = arith
    zero = n + n
    get = out.get
    for c, terms in scaled:
        for k, t in terms:
            e = c + t.log
            if e >= zero:  # a zero factor
                continue
            s = get(k)
            if s is not None:
                x = s.log
                e = x + zech[e - x]
                if e >= zero:  # cancelled: a later term re-adds k at the end
                    del out[k]
                    continue
            out[k] = exp[e]


def bracket(u: Element, v: Element) -> Element:
    """Bilinear, alternating extension of the stored basis brackets.

    The coefficients of u and v are coerced into the table's field
    (_nonzero), so an element of another field raises ValueError.  Each
    pair (i, j), u-major, adds its stored terms scaled by log u_i + log
    v_j, plus log(-1) for i > j ([b_i, b_j] is the stored (j, i) bracket
    times -1); one _accumulate call sums them all in that order.  Zero
    coefficients of u and v, stored zero coefficients and
    diagonal pairs contribute nothing.  The result holds the field's shared
    elements, keyed in order of first nonzero contribution: a target whose
    sum cancels is deleted, so one that reappears moves to the end.
    """
    table = u.table
    if v.table is not table:
        raise TableMismatch("elements live on different structure tables")
    field, brackets = table.field, table.brackets
    vs = _nonzero(field, v.coords)
    _, _, n, neg_one = arith = field._arith
    scaled = []
    for i, a in _nonzero(field, u.coords):
        a = a.log
        for j, b in vs:
            if i < j:
                terms = brackets.get((i, j))
                if terms:
                    scaled.append(((a + b.log) % n, terms))
            elif i > j:
                terms = brackets.get((j, i))
                if terms:
                    scaled.append(((a + b.log + neg_one) % n, terms))
    out: Vec = {}
    if scaled:  # no call for a zero bracket
        _accumulate(out, scaled, arith)
    return Element(table, out)


class _AdColumns:
    """ad u on a table for a fixed sparse u, applied to sparse vectors v.

    u is coerced once (_nonzero) and kept as (i, log u_i, log -u_i).
    Column m, [u, b_m], is summed from the stored pairs of m with u's
    support the first time a v with a nonzero coordinate m comes in, by
    _accumulate in bracket's order, so it is bracket(u, b_m) key for key,
    and kept as (target, coefficient) pairs: each product [b_i, b_m] is
    read from the table once, every stored term counted.  ad(v) = sum v_m
    [u, b_m] is one _accumulate over the columns, so it equals
    bracket(u, v).coords on any table; v is coerced as in bracket."""

    __slots__ = ("table", "u", "columns")

    def __init__(self, table: StructureTable, u: Vec):
        u = _nonzero(table.field, u)
        _, _, n, neg_one = table.field._arith
        self.table, self.columns = table, {}
        self.u = [(i, a.log, (a.log + neg_one) % n) for i, a in u]

    def _column(self, m: int) -> list[tuple[int, FieldElement]]:
        """[u, b_m] as (target, coefficient) pairs, keyed as bracket keys it."""
        brackets, scaled = self.table.brackets, []
        for i, a, neg_a in self.u:
            if i < m:
                terms = brackets.get((i, m))
            elif i > m:
                terms, a = brackets.get((m, i)), neg_a
            else:
                continue
            if terms:
                scaled.append((a, terms))
        out: Vec = {}
        _accumulate(out, scaled, self.table.field._arith)
        return list(out.items())

    def __call__(self, v: Vec) -> Vec:
        columns, scaled = self.columns, []
        for m, c in _nonzero(self.table.field, v):
            col = columns.get(m)
            if col is None:
                col = columns[m] = self._column(m)
            scaled.append((c.log, col))
        out: Vec = {}
        _accumulate(out, scaled, self.table.field._arith)
        return out


# ---------------------------------------------------------------------------
# exact linear algebra: sparse rows, reduced echelon form
# ---------------------------------------------------------------------------

def _combine(pairs: Iterable[tuple[FieldElement, Vec]]) -> Vec:
    """The sparse coordinates of sum c_k * v_k over (c_k, v_k) pairs, v_k with
    no zero entry, summed by _accumulate; a zero c_k adds nothing."""
    out: Vec = {}
    for c, v in pairs:
        _accumulate(out, ((c.log, v.items()),), c.spec._arith)
    return out


class Echelon:
    """Reduced row echelon form with unit pivots, grown one vector at a time.

    Vectors go in and come out as sparse {column: coefficient} dicts with no
    zero coefficient.  rows maps each pivot column to its row, which holds
    one there and is zero at every other pivot; pivots lists the pivot
    columns in increasing order.  Row operations touch only the nonzero
    entries of the row subtracted, so the cost follows the supports; there
    is no column count.  Every row update is _accumulate with the log of
    -c, integer work on the field's discrete logs; coefficients are coerced
    as in bracket (_nonzero), so one of another field raises ValueError.
    The form is canonical: the same span gives the same rows whatever
    vectors built it.
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
        most once, scaled by the entry of vec itself, and all of them in
        one _accumulate.
        """
        rows, out = self.rows, dict(_nonzero(self.field, vec))
        _, _, n, neg_one = arith = self.field._arith
        _accumulate(out, [((c.log + neg_one) % n, rows[i].items()) for i, c in out.items() if i in rows], arith)
        return out

    def add(self, vec: Vec) -> bool:
        """Extend the span by vec; False, with nothing changed, if it is already in it."""
        residual = self.reduce(vec)
        if not residual:
            return False
        exp, _, n, neg_one = arith = self.field._arith
        pc = min(residual)
        inv = n - residual[pc].log
        new = {i: exp[inv + c.log] for i, c in residual.items()}
        for row in self.rows.values():
            c = row.get(pc)
            if c is not None:  # rows store no zeros
                _accumulate(row, (((c.log + neg_one) % n, new.items()),), arith)
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
    there is none, one_term is whether each stored key is 0 <= i < j < dim
    with one term (k, c), 0 <= k < dim and c != 0, as in builder and eigen
    tables, and on a one-term table len(keys[a]) is the size of the ad row
    of b_a.  Appends in ascending
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
# generating sets, the center
# ---------------------------------------------------------------------------

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


def center(t: StructureTable) -> tuple[int, ...]:
    """The center of t: the sorted positions of the basis vectors that are
    in no stored pair, which span it.

    Exact on a one-term table (_LeibnizIndex.one_term) where each ad b_j is
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

    A RuleBrackets is asked first (proves_grading), on a view without a
    basis vector too, and a proof there reads no product; when it proves
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


def check_structure_map(src: StructureTable, dst: StructureTable, images: Sequence[Element]) -> MapCheck:
    """Certify the basis map phi: b_i -> images[i] an injective homomorphism:
    the images are independent (rank, by Echelon) and phi[a, b] = [phi a,
    phi b] on every pair.  verify._identified reads fewer pairs."""
    if len(images) != src.dim:
        raise ValueError("need one image per src basis vector")
    if src.field != dst.field:
        raise ValueError("structure maps require a common ground field")
    if any(e.table is not dst for e in images):
        raise TableMismatch("images live on a table other than dst")
    vecs = [dict(_nonzero(dst.field, e.coords)) for e in images]
    rank = Echelon(dst.field, vecs).rank
    if rank != src.dim:
        return MapCheck("rank", f"the images span {rank} of {src.dim} dimensions")
    return _intertwining(src, dst, vecs, range(src.dim))


def _intertwining(src: StructureTable, dst: StructureTable, vecs: list[Vec], gens: Sequence[int]) -> MapCheck:
    """phi[g, b] = [phi g, phi b] for phi: b_i -> vecs[i] in dst, g in gens,
    b in the basis, in that order; vecs[i] holds elements of the field with
    no zero.  The lhs combines the images along src.basis_bracket(g, b), the
    rhs applies ad phi g (_AdColumns) to phi b: each product of dst is read
    once per generator, not once per pair of image terms."""
    genset = set(gens)
    for g in gens:
        ad = _AdColumns(dst, vecs[g])
        for b in range(src.dim):
            if b in genset and b <= g:
                continue  # [g, g] = 0, and [b, g] comes with b
            lhs = _combine((c, vecs[k]) for k, c in src.basis_bracket(g, b))
            if lhs != ad(vecs[b]):
                return MapCheck("intertwining", f"[{src.labels[g]}, {src.labels[b]}]")
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
