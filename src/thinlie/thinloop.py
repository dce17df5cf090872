"""Loop expansions of cyclically graded algebras and diamond bookkeeping.

The loop algebra of a graded base S is generated by the degree-1 component;
its degree-d piece is M_d (x) t^d where M_1 = S_1 and M_{d+1} = [M_d, M_1],
all computed inside S.  This module expands those components to a depth
bound, checks the covering property, locates and classifies diamonds
(genuine, fake of type 0 or 1), runs the two centralizer chains, and
computes the parameter k = dim(L / L'') - 1 from graded pieces.

Periodicity: with N the grading modulus, M_{d+1} depends on M_d alone, so
once M_{s+N} = M_s for some s, every M_{d+N} = M_d with d >= s.  The
expansion records the first such s as its period start; after it the
components are the earlier Subspace objects.  Every verdict at degree d
reads M_{d-1}, M_d, M_{d+1}, X and Y alone, so one period is computed for
the expansion, covering and the diamond slots, and the rest is read back
from d - N.  With no repeat within the depth every degree is computed.

The expansion also settles most of covering: when X and Y span M_1, a
one-dimensional M_d = <u> covers by construction, since M_{d+1} is built
as [u, M_1].  The centralizer chains are decided by two brackets per basis
vector of M_d rather than by a nullspace.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    ConsecutiveDiamonds,
    MalformedDiamond,
    NoAnnihilator,
    NotStabilized,
)
from .ffield import FieldElement, find_roots
from .liealg import (
    DegreeMap,
    Echelon,
    Element,
    StructureTable,
    Subspace,
    bracket,
    centralizer_in,
    validate_grading,
)

class _Infinity:
    """Type marker for diamonds whose relation reads -[V,X,Y] = [V,Y,X]."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


INFINITY = _Infinity()


def _type_json(t):
    if t is None:
        return None
    if t is INFINITY:
        return "inf"
    return t.to_json()


@dataclass
class LoopExpansion:
    """Per-degree subspaces M_d of the base algebra, 1-indexed by degree;
    period_start is the first s with M_{s+N} = M_s, None without a repeat
    within the depth."""

    base: StructureTable
    degmap: DegreeMap
    depth: int
    components: list[Subspace]
    coincidence: bool
    period_start: int | None = None

    def component(self, d: int) -> Subspace:
        return self.components[d - 1]

    @property
    def dims(self) -> list[int]:
        return [s.dim for s in self.components]


def loop_expand(base: StructureTable, degmap: DegreeMap, depth: int) -> LoopExpansion:
    """Iterated bracketing of the degree-1 component up to depth >= N+1.

    Each new M_d with d > N is compared with M_{d-N}; from the first equal
    pair (the period start s = d - N) on, components are reused, not
    bracketed.  Also records whether M_{N+1} = M_1 (s = 1), the criterion
    under which the generated loop algebra exhausts all of (+) S_k (x) t^k.
    """
    if not validate_grading(base, degmap):
        raise ValueError("degree map is not compatible with the table")
    n = degmap.modulus
    if depth < n + 1:
        raise ValueError(f"expansion depth {depth} is below N+1 = {n + 1} for grading modulus N = {n}")
    classes: dict[int, set[int]] = {}
    for i, d in enumerate(degmap.degrees):
        classes.setdefault(d, set()).add(i)
    m1 = Subspace.from_elements(base, map(base.basis_element, sorted(classes.get(1 % n, ()))))
    components = [m1]
    gens = m1.basis_elements()
    start = None
    for d in range(2, depth + 1):
        if start is not None:
            components.append(components[d - n - 1])
            continue
        prev = components[-1].basis_elements()
        nxt = Subspace.from_elements(base, [bracket(u, x) for u in prev for x in gens])
        allowed = classes.get(d % n, set())
        for e in nxt.basis_elements():
            if not set(e.coords) <= allowed:
                raise AssertionError(f"component at degree {d} is not homogeneous")
        components.append(nxt)
        if d > n and nxt == components[d - n - 1]:
            start = d - n
    return LoopExpansion(base, degmap, depth, components, start == 1, start)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _spans_m1(expansion: LoopExpansion, X: Element, Y: Element) -> bool:
    """Whether span(X, Y) is the degree-1 component M_1."""
    return Subspace.from_elements(expansion.base, [X, Y]) == expansion.component(1)


def _centralizer_is_y(component: Subspace, X: Element, Y: Element) -> bool:
    """C_{M_1}(M_d) = <Y> for component M_d, given span(X, Y) = M_1 of dim 2.

    C is {aX + bY : a[X, M_d] + b[Y, M_d] = 0}.  If [Y, M_d] = 0 it is
    {aX + bY : a[X, M_d] = 0}, which is <Y> when [X, M_d] != 0 and all of
    M_1 otherwise; if [Y, M_d] != 0, Y is not in C.  So C = <Y> exactly when
    [b, Y] = 0 for every basis vector b of M_d and [b, X] != 0 for some b:
    at most two brackets per basis vector, no nullspace.
    """
    basis = component.basis_elements()
    return not any(bracket(b, Y) for b in basis) and any(bracket(b, X) for b in basis)


def _coeff_of(u: Element, w: Element) -> FieldElement | None:
    """The scalar c with u = c*w, if it exists (w nonzero)."""
    fieldspec = u.table.field
    if not u:
        return fieldspec.zero
    m = next(iter(w.coords))
    c = u.coords.get(m)
    if c is None:
        return None
    c = c / w.coords[m]
    return c if u == w.scale(c) else None


@dataclass
class GeneratorData:
    """Normalized generators with the second-diamond certificate."""

    X: Element
    Y: Element
    alpha: FieldElement
    slot: int
    vxx_zero: bool
    vyy_zero: bool
    c_xy: FieldElement | None
    c_yx: FieldElement | None

    def to_json(self) -> dict:
        return {
            "X": self.X.to_json(),
            "Y": self.Y.to_json(),
            "alpha": self.alpha.to_json(),
            "second_diamond": self.slot,
            "VXX_zero": self.vxx_zero,
            "VYY_zero": self.vyy_zero,
            "cXY": None if self.c_xy is None else self.c_xy.to_json(),
            "cYX": None if self.c_yx is None else self.c_yx.to_json(),
        }


def choose_generators(
    expansion: LoopExpansion,
    q: int | None = None,
    X: Element | None = None,
    Y: Element | None = None,
) -> GeneratorData:
    """Pick Y spanning the annihilator of M_2 in M_1 and correct X so that
    [V,X,X] = 0 at the second diamond.

    Explicit X, Y bypass the centralizer characterization, which fails for
    q = 3 where the annihilator is trivial; the normalization still runs.
    The slot of the second diamond is q when given, otherwise one past the
    first degree d >= 2 with C_{M_1}(M_d) != <Y> (see _centralizer_is_y).
    """
    base = expansion.base
    m1 = expansion.component(1)
    if m1.dim != 2:
        raise NoAnnihilator(f"degree-1 component has dimension {m1.dim}, not 2", 1)
    if (X is None) != (Y is None):
        raise ValueError("supply both generators or neither")
    if Y is None:
        if expansion.component(2).dim != 1:
            raise NoAnnihilator("degree-2 component is not one-dimensional", 2)
        cent = centralizer_in(base, m1, expansion.component(2))
        if cent.dim != 1:
            raise NoAnnihilator(
                f"centralizer of M_2 in M_1 has dimension {cent.dim}; cannot single out Y", 2
            )
        Y = cent.basis_elements()[0]
        X = next(
            e for e in m1.basis_elements()
            if Subspace.from_elements(base, [Y, e]).dim == 2
        )
    else:
        if not (m1.contains(X) and m1.contains(Y)):
            raise ValueError("explicit generators must lie in the degree-1 component")
        if Subspace.from_elements(base, [X, Y]).dim != 2:
            raise ValueError("explicit generators are dependent")

    if q is None:
        # the first component whose two-step centralizer leaves <Y> is the
        # one immediately before the second diamond; X, Y span M_1 here
        slot = None
        for d in range(2, expansion.depth):
            if not _centralizer_is_y(expansion.component(d), X, Y):
                slot = d + 1
                break
        if slot is None:
            raise NoAnnihilator("no second diamond within the expansion depth", expansion.depth)
    else:
        slot = q

    vspace = expansion.component(slot - 1)
    if vspace.dim != 1:
        raise MalformedDiamond(f"component before the second diamond has dim {vspace.dim}", slot)
    v = vspace.basis_elements()[0]

    def second_brackets(x: Element):
        vx, vy = bracket(v, x), bracket(v, Y)
        return bracket(vx, x), bracket(vx, Y), bracket(vy, x), bracket(vy, Y)

    vxx, vxy, vyx, vyy = second_brackets(X)
    if vyy:
        raise MalformedDiamond("[V,Y,Y] != 0 at the second diamond", slot)
    alpha = base.field.zero
    if vxx:
        denom = vxy + vyx
        if not denom:
            raise MalformedDiamond("cannot normalize X: [V,X,Y] + [V,Y,X] = 0", slot)
        lam = _coeff_of(vxx, denom)
        if lam is None:
            raise MalformedDiamond("[V,X,X] is not proportional to [V,X,Y] + [V,Y,X]", slot)
        alpha = -lam
        X = X + Y.scale(alpha)
        vxx, vxy, vyx, vyy = second_brackets(X)
        if vxx:
            raise MalformedDiamond("normalization failed to kill [V,X,X]", slot)

    c_xy = c_yx = None
    w = vxy if vxy else vyx
    if w:
        c_xy = _coeff_of(vxy, w)
        c_yx = _coeff_of(vyx, w)
    return GeneratorData(X, Y, alpha, slot, not vxx, not vyy, c_xy, c_yx)


# ---------------------------------------------------------------------------
# covering
# ---------------------------------------------------------------------------

@dataclass
class CoveringReport:
    ok: bool
    failures: list[int]
    checked_upto: int

    def verdict(self) -> str:
        return "PASS" if self.ok else "FAIL@" + ",".join(map(str, self.failures))


def _covers(expansion: LoopExpansion, u: Element, X: Element, Y: Element, d: int) -> bool:
    target = expansion.component(d + 1)
    got = Subspace.from_elements(expansion.base, [bracket(u, X), bracket(u, Y)])
    return got == target


def covering_criterion_at(expansion: LoopExpansion, X: Element, Y: Element, d: int) -> bool:
    """Sufficient test at a 2-dimensional slot: [V,X,X] = [V,Y,Y] = 0 and
    both cross brackets nonzero, V spanning the component before the slot."""
    vspace = expansion.component(d - 1)
    if vspace.dim != 1:
        return False
    v = vspace.basis_elements()[0]
    vx, vy = bracket(v, X), bracket(v, Y)
    return (
        not bracket(vx, X)
        and not bracket(vy, Y)
        and bool(bracket(vx, Y))
        and bool(bracket(vy, X))
    )


def _coords_in(space: Subspace, e: Element) -> list[FieldElement] | None:
    """Coordinates of e in the echelon rows of space, None if e is not in it."""
    if not space.contains(e):
        return None
    zero = space.table.field.zero
    return [e.coords.get(pc, zero) for pc in space.pivots]


def _det2(a: list[FieldElement], b: list[FieldElement]) -> FieldElement:
    return a[0] * b[1] - a[1] * b[0]


def _plane_covers(expansion: LoopExpansion, X: Element, Y: Element, d: int) -> bool:
    """Covering at a two-dimensional M_d, decided exactly by rank.

    With b0, b1 the basis of M_d, u = s b0 + t b1 covers iff [u,X] and
    [u,Y] span M_{d+1}.  All four [b_i,X], [b_i,Y] must lie in M_{d+1}.
    If it is a line through w, with [b_i,X] = a_i w and [b_i,Y] = beta_i w,
    every u covers iff det[[a0,a1],[beta0,beta1]] != 0.  If it is a plane,
    with A the coordinate columns ([b0,X], [b0,Y]) and B those of b1,
    every u covers iff the binary form det(sA + tB) has no projective zero.
    """
    target = expansion.component(d + 1)
    if target.dim > 2:
        return False
    b0, b1 = expansion.component(d).basis_elements()
    x0, y0, x1, y1 = cols = [_coords_in(target, bracket(b, Z)) for b in (b0, b1) for Z in (X, Y)]
    if any(c is None for c in cols):
        return False
    if target.dim == 1:
        return bool(x0[0] * y1[0] - x1[0] * y0[0])
    # det(sA + tB) = s^2 det A + st m + t^2 det B
    det_a, det_b = _det2(x0, y0), _det2(x1, y1)
    m = _det2([u + v for u, v in zip(x0, x1)], [u + v for u, v in zip(y0, y1)]) - det_a - det_b
    return bool(det_b) and not find_roots(target.table.field, [det_a, m, det_b])


def _fails_covering(expansion: LoopExpansion, X: Element, Y: Element, d: int, spans: bool) -> bool:
    comp = expansion.component(d)
    if comp.dim == 0:
        return False
    if expansion.component(d + 1).dim == 0:
        # the expansion dies: some nonzero u has [u, L_1] = 0, so the
        # loop algebra is finite-dimensional and certainly not thin
        return True
    if comp.dim == 1:
        return not spans and not _covers(expansion, comp.basis_elements()[0], X, Y, d)
    return comp.dim > 2 or not _plane_covers(expansion, X, Y, d)


def check_covering(expansion: LoopExpansion, X: Element, Y: Element) -> CoveringReport:
    """Covering property at every degree: [u, M_1] = M_{d+1} for 0 != u in M_d.

    One-dimensional components need only their basis vector; two-dimensional
    ones are decided exactly by rank (see _plane_covers); larger ones fail.
    When span(X, Y) = M_1 (one Subspace comparison, made once), a
    one-dimensional M_d = <u> with M_{d+1} != 0 covers by construction:
    loop_expand builds M_{d+1} = [u, M_1] = span([u, X], [u, Y]), so nothing
    is bracketed; only when X and Y do not span M_1 (X = Y, say) is u
    bracketed.  The verdict at d depends on M_d, M_{d+1}, X and Y alone, so
    from s + N on (s the period start) it is the verdict at d - N, read back.
    """
    n, s = expansion.degmap.modulus, expansion.period_start
    repeat = expansion.depth if s is None else s + n
    upto = expansion.depth - 1
    spans = _spans_m1(expansion, X, Y)
    failures = []
    for d in range(1, upto + 1):
        if (d - n in failures) if d >= repeat else _fails_covering(expansion, X, Y, d, spans):
            failures.append(d)
    return CoveringReport(not failures, failures, upto)


# ---------------------------------------------------------------------------
# diamonds
# ---------------------------------------------------------------------------

@dataclass
class DiamondRecord:
    degree: int
    ordinal: int
    kind: str  # genuine | fake0 | fake1
    type: FieldElement | _Infinity | None

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "ordinal": self.ordinal,
            "kind": self.kind,
            "type": _type_json(self.type),
        }


def classify_type(
    V: Element,
    X: Element,
    Y: Element,
    slot: Subspace,
    following: Subspace,
    degree: int,
) -> tuple[str, FieldElement | _Infinity | None] | None:
    """Classify the component after V: genuine diamond with its type, a fake
    of type 0 or 1, or None when no diamond relation holds.

    Genuine slots must satisfy [V,X,X] = 0 = [V,Y,Y]; the type is
    mu = c1/(c1+c2) from [V,X,Y] = c1 w, [V,Y,X] = c2 w, or infinity when
    c1 + c2 = 0.  degree, the slot's degree, goes into the errors raised.
    """
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
        c1 = _coeff_of(vxy, w)
        c2 = _coeff_of(vyx, w)
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


def detect_diamonds(
    expansion: LoopExpansion,
    X: Element,
    Y: Element,
    q: int,
) -> tuple[list[DiamondRecord], list[int], list[str]]:
    """Scan the degrees congruent to 1 mod (q-1) and classify each slot.

    Returns (records, slots with no diamond, anomalies).  A two-dimensional
    component outside the expected slots is an anomaly, as is a missing
    one-dimensional component before a slot.

    The verdict at slot d (a record's kind and type, no diamond, or the
    dimension of a malformed M_{d-1}) reads M_{d-1}, M_d, M_{d+1}, X and Y
    alone.  From d = s + N + 1 on (s the period start), M_{d-1}, M_d and
    M_{d+1} are M_{d-1-N}, M_{d-N} and M_{d+1-N}, so the verdict is the one at
    d - N, read back.  That slot was classified when N = 0 mod (q-1): then
    d - N = 1 mod (q-1) and d - N >= s + 1 >= 2, so d - N >= q.  A slot
    whose classification raised has already stopped the scan.
    """
    records = [DiamondRecord(1, 1, "genuine", None)]
    nondiamond: list[int] = []
    anomalies: list[str] = []
    n, s = expansion.degmap.modulus, expansion.period_start
    repeat = expansion.depth + 1 if s is None or n % (q - 1) else s + n + 1
    verdicts: dict[int, object] = {}  # slot -> (kind, type), None, or dim of M_{d-1}
    d = q
    ordinal = 2
    while d + 1 <= expansion.depth:
        if d >= repeat:
            got = verdicts[d - n]
        else:
            vspace = expansion.component(d - 1)
            if vspace.dim != 1:
                got = vspace.dim
            else:
                got = classify_type(
                    vspace.basis_elements()[0], X, Y, expansion.component(d), expansion.component(d + 1), d
                )
        verdicts[d] = got
        if got is None:
            nondiamond.append(d)
        elif isinstance(got, int):
            anomalies.append(f"component before slot {d} has dim {got}")
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


# ---------------------------------------------------------------------------
# centralizer chains and the parameter k
# ---------------------------------------------------------------------------

@dataclass
class ChainReport:
    first_ok: bool
    first_range: tuple[int, int]
    second_ok: bool
    second_range: tuple[int, int]
    proviso: str | None

    def to_json(self) -> dict:
        return {
            "first": {"ok": self.first_ok, "degrees": list(self.first_range)},
            "second": {"ok": self.second_ok, "degrees": list(self.second_range)},
            "proviso": self.proviso,
        }


def centralizer_chain(expansion: LoopExpansion, X: Element, Y: Element, q: int) -> ChainReport:
    """C_{L_1}(L_d) = <Y> for d = 2..q-2 and again for d = q+1..2q-3.

    Each degree is decided by _centralizer_is_y, at most two brackets per
    basis vector of M_d, which needs span(X, Y) = M_1 of dimension 2;
    otherwise ValueError.  Empty ranges pass vacuously.  The proviso
    records when the parameters fall outside the hypotheses under which the
    chains are guaranteed (q > 3 for the first, p > 3 and q != 5 for the
    second).
    """
    if expansion.component(1).dim != 2 or not _spans_m1(expansion, X, Y):
        raise ValueError("the centralizer chains need X and Y spanning a two-dimensional M_1")

    def run(lo: int, hi: int) -> bool:
        return all(
            _centralizer_is_y(expansion.component(d), X, Y)
            for d in range(lo, min(hi, expansion.depth) + 1)
        )

    first = run(2, q - 2)
    second = run(q + 1, 2 * q - 3)
    p = expansion.base.field.p
    notes = []
    if q <= 3 or p == 2:
        notes.append("first chain only guaranteed for q > 3 and odd p")
    if p <= 3 or q == 5:
        notes.append("second chain only guaranteed for p > 3 and q != 5")
    return ChainReport(first, (2, q - 2), second, (q + 1, 2 * q - 3), "; ".join(notes) or None)


def parameter_k(expansion: LoopExpansion) -> int:
    """k = dim(L / L'') - 1 from graded pieces of the truncated loop algebra.

    L is generated by L_1, so L' = (+)_{d>=2} M_d: each M_d = [M_{d-1}, M_1]
    lies in L', and [M_a, M_b] lies in M_{a+b}.  So L''_d is the sum of
    [M_a, M_b] over a + b = d with a, b >= 2.  L'' is an ideal of L, so
    L''_{d-1} = M_{d-1} gives L''_d >= [M_{d-1}, M_1] = M_d; only the other
    degrees are bracketed.  The second derived subalgebra must reach full
    components (and the components stay nonzero) on the last grading
    period; otherwise NotStabilized.
    """
    depth = expansion.depth
    n = expansion.degmap.modulus
    base = expansion.base
    dims = [0] + expansion.dims  # 1-indexed
    basis = [None] + [c.basis_elements() for c in expansion.components]
    lpp = [0] * (depth + 1)  # dim L''_d
    for d in range(4, depth + 1):
        if lpp[d - 1] == dims[d - 1]:
            lpp[d] = dims[d]
            continue
        # L''_d is capped by M_d, so stop accumulating at full rank
        cap = dims[d]
        acc = Echelon(base.field)
        for a in range(2, d // 2 + 1):  # [M_b, M_a] = [M_a, M_b]
            for u in basis[a]:
                for v in basis[d - a]:
                    w = bracket(u, v)
                    if w:
                        acc.add(w.coords)
                if acc.rank >= cap:
                    break
            if acc.rank >= cap:
                break
        lpp[d] = acc.rank
    codims = [dims[d] - lpp[d] for d in range(depth + 1)]
    if any(codims[d] != 0 or dims[d] == 0 for d in range(depth - n + 1, depth + 1)):
        raise NotStabilized(
            f"second derived subalgebra has not stabilized in the last {n} degrees"
        )
    return sum(codims) - 1


# ---------------------------------------------------------------------------
# the aggregated report
# ---------------------------------------------------------------------------

@dataclass
class ThinReport:
    q: int
    depth: int
    dims: list[int]
    coincidence: bool
    generators: GeneratorData
    covering: CoveringReport
    diamonds: list[DiamondRecord]
    nondiamond_slots: list[int]
    anomalies: list[str]
    chains: ChainReport
    k: int | None
    k_note: str | None = None
    expansion: LoopExpansion | None = None  # kept for reuse, not serialized

    @property
    def ok(self) -> bool:
        return self.covering.ok and not self.anomalies

    def dim_at(self, d: int) -> int:
        return self.dims[d - 1]

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "depth": self.depth,
            "dims": self.dims,
            "coincidence": self.coincidence,
            "generators": self.generators.to_json(),
            "covering": self.covering.verdict(),
            "diamonds": [r.to_json() for r in self.diamonds],
            "nondiamond_slots": self.nondiamond_slots,
            "anomalies": self.anomalies,
            "chains": self.chains.to_json(),
            "k": self.k,
            "k_note": self.k_note,
        }


def thin_report(
    base: StructureTable,
    degmap: DegreeMap,
    q: int,
    depth: int | None = None,
    X: Element | None = None,
    Y: Element | None = None,
) -> ThinReport:
    """Expand, choose generators, and aggregate every thinness verdict; the
    depth defaults to three grading periods, and a depth below one, below
    the grading modulus plus one or below 2q - 2 raises ValueError.

    2q - 2 is the least depth that computes the last degree of the second
    centralizer chain and classifies the slot in degree q; below it the
    report would pass checks that never ran.  It binds only where N < 2q - 3,
    as for sigma-zero (N = q - 1); loop_expand rejects a depth of at most N
    first.
    """
    if depth is None:
        depth = 3 * degmap.modulus
    if depth < 1:
        raise ValueError(f"expansion depth must be positive, got {depth}")
    if degmap.modulus < depth < 2 * q - 2:
        raise ValueError(
            f"expansion depth {depth} is below 2q-2 = {2 * q - 2}: "
            f"the diamond and centralizer-chain checks would not all run"
        )
    expansion = loop_expand(base, degmap, depth)
    gens = choose_generators(expansion, q=q, X=X, Y=Y)
    covering = check_covering(expansion, gens.X, gens.Y)
    diamonds, nondiamond, anomalies = detect_diamonds(expansion, gens.X, gens.Y, q)
    chains = centralizer_chain(expansion, gens.X, gens.Y, q)
    k = None
    k_note = None
    try:
        k = parameter_k(expansion)
    except NotStabilized as exc:
        k_note = str(exc)
    return ThinReport(
        q,
        expansion.depth,
        expansion.dims,
        expansion.coincidence,
        gens,
        covering,
        diamonds,
        nondiamond,
        anomalies,
        chains,
        k,
        k_note,
        expansion,
    )
