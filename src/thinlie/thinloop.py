"""Loop expansions of cyclically graded algebras and diamond bookkeeping.

The loop algebra of a graded base S is generated by the degree-1 component;
its degree-d piece is M_d (x) t^d where M_1 = S_1 and M_{d+1} = [M_d, M_1],
all computed inside S.  This module expands those components to a depth
bound, checks the covering property, locates and classifies diamonds
(genuine, fake of type 0 or 1), runs the two centralizer chains, and
computes the parameter k = dim(L / L'') - 1 from graded pieces.

Coordinate spans.  Let the table be one-term (each stored pair is
[b_i, b_j] = c b_k, c != 0) and M_1 the span of the basis vectors at a set
P_1 of positions, as M_1 = S_1 always is.  Then every M_d is the span of
the b_k, k in P_d, where P_{d+1} holds the targets of the stored pairs
(i, x), i in P_d, x in P_1.  Proof: M_{d+1} = [M_d, M_1] is spanned by the
[b_i, b_x], each zero or a nonzero multiple of one b_k; induct on d.  The
same argument makes each L''_d a coordinate span.  So the report runs on
sorted tuples of positions and table lookups, with no elimination; a pair
read that is not one term raises ValueError.  Every table a verify run
reaches is one-term.

Periodicity: with N the grading modulus, M_{d+1} depends on M_d alone, so
once M_{s+N} = M_s for some s, every M_{d+N} = M_d with d >= s.  The
expansion records the first such s as its period start.  Every verdict at
degree d reads M_{d-1}, M_d, M_{d+1}, X and Y alone, so one period is
computed for the expansion, covering and the diamond slots, and the rest
is read back from d - N.  With no repeat within the depth every degree is
computed.

The generators X and Y are given, and must span a two-dimensional M_1.
A one-dimensional M_d = <u> then covers by construction, since M_{d+1} is
built as [u, M_1].
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConsecutiveDiamonds, MalformedDiamond, NoAnnihilator, NotStabilized
from .ffield import FieldElement, find_roots
from .liealg import DegreeMap, Element, StructureTable, bracket, validate_grading

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
    return None if t is None else "inf" if t is INFINITY else t.to_json()


def _term(get, i: int, j: int) -> tuple[int, FieldElement] | None:
    """(k, c) with [b_i, b_j] = c b_k, None when it is zero; get is the
    table's brackets.get.  ValueError on a stored pair not of one term."""
    terms = get((i, j) if i < j else (j, i))
    if not terms:
        return None
    if len(terms) != 1 or not terms[0][1]:
        raise ValueError(f"the thin report reads one-term tables only: the pair ({i}, {j}) stores {terms!r}")
    k, c = terms[0]
    return (k, c) if i < j else (k, -c)


def _targets(get, left, right) -> set[int]:
    """The positions k with [b_i, b_j] = c b_k != 0 for some i in left and
    j in right: the coordinate span [span left, span right]."""
    return {term[0] for i in left for j in right if (term := _term(get, i, j))}


@dataclass
class LoopExpansion:
    """The components M_d of the base algebra: components[d - 1] is the
    sorted tuple of the basis positions that span M_d, and dims[d - 1] its
    dimension; period_start is the first s with M_{s+N} = M_s, None without
    a repeat within the depth."""

    base: StructureTable
    degmap: DegreeMap
    depth: int
    components: list[tuple[int, ...]]
    coincidence: bool
    period_start: int | None = None

    @property
    def dims(self) -> list[int]:
        return [len(c) for c in self.components]


def loop_expand(base: StructureTable, degmap: DegreeMap, depth: int) -> LoopExpansion:
    """Iterated bracketing of the degree-1 component up to depth >= N+1, on
    positions: M_1 holds the class-1 positions, M_{d+1} the targets of the
    dim M_d dim M_1 lookups of M_d with M_1 (module docstring).

    Each new M_d with d > N is compared with M_{d-N}; from the first equal
    pair (the period start s = d - N) on, components are reused, not
    looked up.  Also records whether M_{N+1} = M_1 (s = 1), the criterion
    under which the generated loop algebra exhausts all of (+) S_k (x) t^k.
    Each M_d lies in the class d mod N: validate_grading proves every stored
    bracket of class d with class 1 lands in class d+1.
    """
    if not validate_grading(base, degmap):
        raise ValueError("degree map is not compatible with the table")
    n = degmap.modulus
    if depth < n + 1:
        raise ValueError(f"expansion depth {depth} is below N+1 = {n + 1} for grading modulus N = {n}")
    m1 = tuple(i for i, d in enumerate(degmap.degrees) if d == 1 % n)
    components = [m1]
    get = base.brackets.get
    start = None
    for d in range(2, depth + 1):
        if start is not None:
            components.append(components[d - n - 1])
            continue
        nxt = tuple(sorted(_targets(get, components[-1], m1)))
        components.append(nxt)
        if d > n and nxt == components[d - n - 1]:
            start = d - n
    return LoopExpansion(base, degmap, depth, components, start == 1, start)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _plane_error(m1: tuple[int, ...], X: Element, Y: Element) -> str | None:
    """Why X and Y do not span the plane M_1 at the two positions m1, None
    when they do."""
    if any(c and k not in m1 for Z in (X, Y) for k, c in Z.coords.items()):
        return "explicit generators must lie in the degree-1 component"
    x0, x1, y0, y1 = (Z.coords.get(k, Z.table.field.zero) for Z in (X, Y) for k in m1)
    return None if x0 * y1 - x1 * y0 else "explicit generators are dependent"


def _require_plane(expansion: LoopExpansion, X: Element, Y: Element, what: str) -> None:
    """ValueError unless span(X, Y) is the degree-1 component M_1 and has
    dimension two; what names the check that needs it."""
    m1 = expansion.components[0]
    if len(m1) != 2 or _plane_error(m1, X, Y):
        raise ValueError(f"{what} need X and Y spanning a two-dimensional M_1")


def _forms(base: StructureTable, component: tuple[int, ...], m1: tuple[int, ...]) -> list[dict]:
    """For each b in component, each target k of [b, b_{m1[a]}] = c_a b_k
    mapped to its form [c0, c1]: [b, s b_{m1[0]} + t b_{m1[1]}] is the sum
    of the (s c0 + t c1) b_k, for M_d and M_1 the spans of the positions."""
    get, zero = base.brackets.get, base.field.zero
    rows = []
    for b in component:
        row: dict[int, list[FieldElement]] = {}
        for a, g in enumerate(m1):
            term = _term(get, b, g)
            if term:
                row.setdefault(term[0], [zero, zero])[a] = term[1]
        rows.append(row)
    return rows


def _centralizer_is_y(base: StructureTable, component: tuple[int, ...], m1: tuple[int, ...], Y: Element) -> bool:
    """C_{M_1}(M_d) = <Y>, Y != 0 in M_1.  The forms of _forms cut C out, so
    C = <Y> iff some form exists (C != M_1) and each vanishes at Y
    ([b, Y] = 0).  For Y a multiple of b_y: no pair (b, y) is stored, and
    some pair of M_d with M_1 is."""
    y0, y1 = (Y.coords.get(k, base.field.zero) for k in m1)
    forms = [f for row in _forms(base, component, m1) for f in row.values()]
    return bool(forms) and not any(c0 * y0 + c1 * y1 for c0, c1 in forms)


def _second_brackets(V: Element, X: Element, Y: Element) -> tuple[Element, Element, Element, Element]:
    """[V,X,X], [V,X,Y], [V,Y,X] and [V,Y,Y]: the brackets that decide a
    two-dimensional slot after V."""
    vx, vy = bracket(V, X), bracket(V, Y)
    return bracket(vx, X), bracket(vx, Y), bracket(vy, X), bracket(vy, Y)


def _coeff_of(u: Element, w: Element) -> FieldElement | None:
    """The scalar c with u = c*w, if it exists (w nonzero)."""
    m = next(iter(w.coords))
    c = u.coords.get(m, u.table.field.zero) / w.coords[m]
    return c if u == w.scale(c) else None


@dataclass
class GeneratorData:
    """Normalized generators with the second-diamond certificate."""

    X: Element
    Y: Element
    alpha: FieldElement
    slot: int
    c_xy: FieldElement | None
    c_yx: FieldElement | None

    def to_json(self) -> dict:
        return {
            "X": self.X.to_json(),
            "Y": self.Y.to_json(),
            "alpha": self.alpha.to_json(),
            "second_diamond": self.slot,
            "VXX_zero": True,  # choose_generators returns only when both hold
            "VYY_zero": True,
            "cXY": None if self.c_xy is None else self.c_xy.to_json(),
            "cYX": None if self.c_yx is None else self.c_yx.to_json(),
        }


def choose_generators(expansion: LoopExpansion, q: int, X: Element, Y: Element) -> GeneratorData:
    """Correct the generator X so that [V,X,X] = 0 at the second diamond, in
    degree q, V the basis vector spanning M_{q-1}.  X and Y, read off the
    grading by the caller, must be independent elements of M_1, else
    ValueError.  With [V,Y,Y] = 0 the shear X + alpha Y keeps [V,X,Y] and
    [V,Y,X] and adds alpha ([V,X,Y] + [V,Y,X]) to [V,X,X], so the brackets
    are taken once, with the given X, and both relations hold on return.
    """
    base = expansion.base
    m1 = expansion.components[0]
    if len(m1) != 2:
        raise NoAnnihilator(f"degree-1 component has dimension {len(m1)}, not 2", 1)
    error = _plane_error(m1, X, Y)
    if error:
        raise ValueError(error)

    vspace = expansion.components[q - 2]
    if len(vspace) != 1:
        raise MalformedDiamond(f"component before the second diamond has dim {len(vspace)}", q)
    vxx, vxy, vyx, vyy = _second_brackets(base.basis_element(vspace[0]), X, Y)
    if vyy:
        raise MalformedDiamond("[V,Y,Y] != 0 at the second diamond", q)
    alpha = base.field.zero
    if vxx:
        denom = vxy + vyx
        if not denom:
            raise MalformedDiamond("cannot normalize X: [V,X,Y] + [V,Y,X] = 0", q)
        lam = _coeff_of(vxx, denom)
        if lam is None:
            raise MalformedDiamond("[V,X,X] is not proportional to [V,X,Y] + [V,Y,X]", q)
        alpha = -lam
        X = X + Y.scale(alpha)

    c_xy = c_yx = None
    w = vxy if vxy else vyx
    if w:
        c_xy = _coeff_of(vxy, w)
        c_yx = _coeff_of(vyx, w)
    return GeneratorData(X, Y, alpha, q, c_xy, c_yx)


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


def covering_criterion_at(expansion: LoopExpansion, X: Element, Y: Element, d: int) -> bool:
    """Sufficient test at a 2-dimensional slot: [V,X,X] = [V,Y,Y] = 0 and
    both cross brackets nonzero, V spanning the component before the slot."""
    vspace = expansion.components[d - 2]
    if len(vspace) != 1:
        return False
    vxx, vxy, vyx, vyy = _second_brackets(expansion.base.basis_element(vspace[0]), X, Y)
    return not vxx and not vyy and bool(vxy) and bool(vyx)


def _plane_covers(expansion: LoopExpansion, d: int) -> bool:
    """Covering at a two-dimensional M_d = <b_0, b_1>, decided exactly.

    span(X, Y) = M_1 = <g_0, g_1>, so u covers iff [u, g_0], [u, g_1] span
    M_{d+1}.  The rows of A (of B) are the forms of b_0 (of b_1) at the
    positions of M_{d+1} (_forms): column j holds [b_0, g_j] ([b_1, g_j]).  On a
    line M_{d+1}, u = s b_0 + t b_1 covers iff s A + t B != 0, for every u iff
    det[[A], [B]] != 0; on a plane, iff det(sA + tB) = s^2 det A + st m +
    t^2 det B has no projective zero.  A larger M_{d+1} is never covered.
    """
    comps = expansion.components
    target = comps[d]
    if len(target) > 2:
        return False
    field = expansion.base.field
    zeros = [field.zero] * 2
    A, B = ([row.get(k, zeros) for k in target] for row in _forms(expansion.base, comps[d - 1], comps[0]))
    if len(target) == 1:
        return bool(A[0][0] * B[0][1] - A[0][1] * B[0][0])
    det_a = A[0][0] * A[1][1] - A[0][1] * A[1][0]
    det_b = B[0][0] * B[1][1] - B[0][1] * B[1][0]
    m = A[0][0] * B[1][1] + B[0][0] * A[1][1] - A[0][1] * B[1][0] - B[0][1] * A[1][0]
    return bool(det_b) and not find_roots(field, [det_a, m, det_b])


def _fails_covering(expansion: LoopExpansion, d: int) -> bool:
    comp = expansion.components[d - 1]
    if not comp:
        return False
    if not expansion.components[d]:
        # the expansion dies: some nonzero u has [u, L_1] = 0, so the
        # loop algebra is finite-dimensional and certainly not thin
        return True
    if len(comp) == 1:
        return False  # M_{d+1} is [u, M_1] by construction
    return len(comp) > 2 or not _plane_covers(expansion, d)


def check_covering(expansion: LoopExpansion, X: Element, Y: Element) -> CoveringReport:
    """Covering property at every degree: [u, M_1] = M_{d+1} for 0 != u in M_d.

    X and Y must span a two-dimensional M_1, else ValueError.  Then a
    one-dimensional M_d = <u> with M_{d+1} != 0 covers by construction:
    loop_expand builds M_{d+1} = [u, M_1] = span([u, X], [u, Y]), so nothing
    is looked up.  Two-dimensional components are decided exactly by
    determinants (see _plane_covers); larger ones fail.  The verdict at d
    depends on M_d, M_{d+1} and span(X, Y) alone, so from s + N on (s the
    period start) it is the verdict at d - N, read back.
    """
    _require_plane(expansion, X, Y, "covering checks")
    n, s = expansion.degmap.modulus, expansion.period_start
    repeat = expansion.depth if s is None else s + n
    upto = expansion.depth - 1
    failures = []
    for d in range(1, upto + 1):
        if (d - n in failures) if d >= repeat else _fails_covering(expansion, d):
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
    slot: tuple[int, ...],
    following: tuple[int, ...],
    degree: int,
) -> tuple[str, FieldElement | _Infinity | None] | None:
    """Classify the component after V: genuine diamond with its type, a fake
    of type 0 or 1, or None when no diamond relation holds.

    V spans M_{d-1}; slot and following are the positions of M_d and
    M_{d+1}, d = degree, which goes into the errors raised.  Genuine slots
    must satisfy [V,X,X] = 0 = [V,Y,Y]; the type is mu = c1/(c1+c2) from
    [V,X,Y] = c1 b_w, [V,Y,X] = c2 b_w, M_{d+1} = <b_w>, or infinity when
    c1 + c2 = 0.
    """
    if len(slot) == 2:
        if len(following) >= 2:
            raise ConsecutiveDiamonds("two consecutive two-dimensional components", degree)
        vxx, vxy, vyx, vyy = _second_brackets(V, X, Y)
        if vxx:
            raise MalformedDiamond("[V,X,X] != 0 at a two-dimensional slot", degree)
        if vyy:
            raise MalformedDiamond("[V,Y,Y] != 0 at a two-dimensional slot", degree)
        if not (vxy or vyx):
            raise MalformedDiamond("both cross brackets vanish at a genuine slot", degree)
        zero = V.table.field.zero
        c1, c2 = vxy.coords.get(following[0], zero), vyx.coords.get(following[0], zero)
        s = c1 + c2
        if not s:
            return ("genuine", INFINITY)
        mu = c1 / s
        if not mu or mu == mu.spec.one:
            raise MalformedDiamond(f"genuine diamond computed type {mu}", degree)
        return ("genuine", mu)
    if len(slot) == 1:
        if not bracket(V, X):
            return ("fake0", None)
        if not bracket(V.table.basis_element(slot[0]), X):
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
    comps = expansion.components
    n, s = expansion.degmap.modulus, expansion.period_start
    repeat = expansion.depth + 1 if s is None or n % (q - 1) else s + n + 1
    verdicts: dict[int, object] = {}  # slot -> (kind, type), None, or dim of M_{d-1}
    d = q
    ordinal = 2
    while d + 1 <= expansion.depth:
        if d >= repeat:
            got = verdicts[d - n]
        else:
            vspace = comps[d - 2]
            if len(vspace) != 1:
                got = len(vspace)
            else:
                got = classify_type(expansion.base.basis_element(vspace[0]), X, Y, comps[d - 1], comps[d], d)
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
        dim = len(comps[d - 1])
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

    Each degree is decided by _centralizer_is_y, at most two lookups per
    basis vector of M_d, which needs span(X, Y) = M_1 of dimension 2;
    otherwise ValueError.  Empty ranges pass vacuously.  The proviso
    records when the parameters fall outside the hypotheses under which the
    chains are guaranteed (q > 3 for the first, p > 3 and q != 5 for the
    second).
    """
    _require_plane(expansion, X, Y, "the centralizer chains")
    base, comps = expansion.base, expansion.components

    def run(lo: int, hi: int) -> bool:
        return all(
            _centralizer_is_y(base, comps[d - 1], comps[0], Y)
            for d in range(lo, min(hi, expansion.depth) + 1)
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


def parameter_k(expansion: LoopExpansion) -> int:
    """k = dim(L / L'') - 1 from graded pieces of the truncated loop algebra.

    L is generated by L_1, so L' = (+)_{d>=2} M_d: each M_d = [M_{d-1}, M_1]
    lies in L', and [M_a, M_b] lies in M_{a+b}.  So L''_d is the sum of
    [M_a, M_b] over a + b = d with a, b >= 2, and it is read off the ideal
    recursion

        L''_d = [L''_{d-1}, M_1] + [M_{d-2}, M_2]   (d >= 4; L''_d = 0 below 4).

    Proof, in two steps.  First, let I be the ideal of L generated by the
    [M_c, M_2], c >= 2; I lies in the ideal L''.  For u in M_a, w in M_{b-1}
    and x in M_1, Jacobi gives [u, [w, x]] = [[u, w], x] - [[u, x], w].
    Induct on b >= 2, the case b = 2 being the definition of I: for b > 2,
    [u, w] and [[u, x], w] lie in I, so [M_a, M_b] = [M_a, [M_{b-1}, M_1]]
    does, for every a, b >= 2; hence L'' = I.  Second, L is generated by
    L_1, so the ideal generated by S = (+)_c [M_c, M_2] is S plus its
    iterated brackets with M_1: I_d = S_d + [I_{d-1}, M_1], the recursion.
    It reads no degree above d, so it holds in the truncation too.  Once
    L''_{d-1} = M_{d-1}, L''_d contains [M_{d-1}, M_1] = M_d and is full
    with no lookup, and so is every later degree.  The second derived
    subalgebra must reach full components (and the components stay
    nonzero) on the last grading period; otherwise NotStabilized.  Each
    L''_d is read off as the set of its positions (module docstring).
    The proof needs the Jacobi identity, unchecked here: k means something
    only on a table proved Lie, by construct or the eigen-table certificate.
    """
    depth = expansion.depth
    n = expansion.degmap.modulus
    comps = expansion.components
    get = expansion.base.brackets.get
    dims = [0] + expansion.dims  # 1-indexed
    m1, m2 = comps[0], comps[1]
    lpp = [0] * (depth + 1)  # dim L''_d
    prev: set[int] = set()  # the positions of L''_{d-1}
    for d in range(4, depth + 1):
        if lpp[d - 1] == dims[d - 1]:
            lpp[d:] = dims[d:]
            break
        prev = _targets(get, prev, m1) | _targets(get, comps[d - 3], m2)
        lpp[d] = len(prev)
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
    *,
    X: Element,
    Y: Element,
) -> ThinReport:
    """Expand, normalize the generators X and Y, and aggregate every
    thinness verdict; the depth defaults to three grading periods, and a
    depth below one, below the grading modulus plus one or below 2q - 2
    raises ValueError, as does a table pair read that is not one-term.

    2q - 2 is the least depth that computes the last degree of the second
    centralizer chain and classifies the slot in degree q; below it the
    report would pass checks that never ran.  It binds only where N < 2q - 3,
    as for sigma-zero (N = q - 1); loop_expand rejects a depth of at most N
    first.  k comes from the ideal recursion of parameter_k, which holds only
    in a Lie algebra: on a table not proved to satisfy Jacobi, k means nothing.
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
        q, expansion.depth, expansion.dims, expansion.coincidence, gens, covering,
        diamonds, nondiamond, anomalies, chains, k, k_note, expansion,
    )
