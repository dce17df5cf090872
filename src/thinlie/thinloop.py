"""Loop expansions of cyclically graded algebras and diamond bookkeeping.

The loop algebra of a graded base S is generated by the degree-1 component;
its degree-d piece is M_d (x) t^d where M_1 = S_1 and M_{d+1} = [M_d, M_1],
all computed inside S.  This module expands those components to a depth
bound, checks the covering property, locates and classifies diamonds
(genuine, fake of type 0 or 1), runs the two centralizer chains, and
computes the parameter k = dim(L / L'') - 1 from graded pieces.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    ConsecutiveDiamonds,
    MalformedDiamond,
    NoAnnihilator,
    NotStabilized,
)
from .ffield import FieldElement
from .liealg import (
    DegreeMap,
    Echelon,
    Element,
    StructureTable,
    Subspace,
    bracket,
    centralizer_in,
    unit_row,
    validate_grading,
)

# Largest field size for which covering is checked by projective enumeration.
ENUMERATION_BOUND = 729


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
    """Per-degree subspaces M_d of the base algebra, 1-indexed by degree."""

    base: StructureTable
    degmap: DegreeMap
    depth: int
    components: list[Subspace]
    coincidence: bool

    def component(self, d: int) -> Subspace:
        return self.components[d - 1]

    @property
    def dims(self) -> list[int]:
        return [s.dim for s in self.components]


def loop_expand(base: StructureTable, degmap: DegreeMap, depth: int) -> LoopExpansion:
    """Iterated bracketing of the degree-1 component, depth >= N+1 enforced.

    Also records whether M_{N+1} = M_1, the criterion under which the
    generated loop algebra exhausts all of (+) S_k (x) t^k.
    """
    if not validate_grading(base, degmap):
        raise ValueError("degree map is not compatible with the table")
    n = degmap.modulus
    depth = max(depth, n + 1)
    classes: dict[int, set[int]] = {}
    for i, d in enumerate(degmap.degrees):
        classes.setdefault(d, set()).add(i)
    m1 = Subspace.from_rows(base, [unit_row(base, i) for i in sorted(classes.get(1 % n, ()))])
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


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

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
    The slot of the second diamond is q when given, otherwise the first
    degree whose two-step centralizer differs from <Y>.
    """
    base = expansion.base
    m1 = expansion.component(1)
    if m1.dim != 2:
        raise NoAnnihilator(f"degree-1 component has dimension {m1.dim}, not 2")
    if (X is None) != (Y is None):
        raise ValueError("supply both generators or neither")
    if Y is None:
        if expansion.component(2).dim != 1:
            raise NoAnnihilator("degree-2 component is not one-dimensional")
        cent = centralizer_in(base, m1, expansion.component(2))
        if cent.dim != 1:
            raise NoAnnihilator(
                f"centralizer of M_2 in M_1 has dimension {cent.dim}; cannot single out Y"
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

    span_y = Subspace.from_elements(base, [Y])
    if q is None:
        # the first component whose two-step centralizer leaves <Y> is the
        # one immediately before the second diamond
        slot = None
        for d in range(2, expansion.depth):
            if centralizer_in(base, m1, expansion.component(d)) != span_y:
                slot = d + 1
                break
        if slot is None:
            raise NoAnnihilator("no second diamond within the expansion depth")
    else:
        slot = q

    vspace = expansion.component(slot - 1)
    if vspace.dim != 1:
        raise MalformedDiamond(f"component before the second diamond has dim {vspace.dim}")
    v = vspace.basis_elements()[0]

    def second_brackets(x: Element):
        vx, vy = bracket(v, x), bracket(v, Y)
        return bracket(vx, x), bracket(vx, Y), bracket(vy, x), bracket(vy, Y)

    vxx, vxy, vyx, vyy = second_brackets(X)
    if vyy:
        raise MalformedDiamond("[V,Y,Y] != 0 at the second diamond")
    alpha = base.field.zero
    if vxx:
        denom = vxy + vyx
        if not denom:
            raise MalformedDiamond("cannot normalize X: [V,X,Y] + [V,Y,X] = 0")
        lam = _coeff_of(vxx, denom)
        if lam is None:
            raise MalformedDiamond("[V,X,X] is not proportional to [V,X,Y] + [V,Y,X]")
        alpha = -lam
        X = X + Y.scale(alpha)
        vxx, vxy, vyx, vyy = second_brackets(X)
        if vxx:
            raise MalformedDiamond("normalization failed to kill [V,X,X]")

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


def check_covering(expansion: LoopExpansion, X: Element, Y: Element) -> CoveringReport:
    """Covering property at every degree: [u, M_1] = M_{d+1} for 0 != u in M_d.

    One-dimensional components need only their basis vector.  Two-dimensional
    ones are checked on all |F| + 1 projective lines when the field is small
    enough, and by the sufficient criterion otherwise.
    """
    base = expansion.base
    failures = []
    upto = expansion.depth - 1
    enumerate_lines = base.field.size <= ENUMERATION_BOUND
    for d in range(1, upto + 1):
        comp = expansion.component(d)
        if comp.dim == 0:
            continue
        if expansion.component(d + 1).dim == 0:
            # the expansion dies: some nonzero u has [u, L_1] = 0, so the
            # loop algebra is finite-dimensional and certainly not thin
            failures.append(d)
            continue
        if comp.dim == 1:
            if not _covers(expansion, comp.basis_elements()[0], X, Y, d):
                failures.append(d)
            continue
        if comp.dim > 2:
            failures.append(d)
            continue
        if enumerate_lines:
            b0, b1 = comp.basis_elements()
            reps = [b0 + b1.scale(c) for c in base.field.elements()] + [b1]
            if not all(_covers(expansion, u, X, Y, d) for u in reps):
                failures.append(d)
        else:
            if not (d >= 2 and covering_criterion_at(expansion, X, Y, d)):
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
) -> tuple[str, FieldElement | _Infinity | None] | None:
    """Classify the component after V: genuine diamond with its type, a fake
    of type 0 or 1, or None when no diamond relation holds.

    Genuine slots must satisfy [V,X,X] = 0 = [V,Y,Y]; the type is
    mu = c1/(c1+c2) from [V,X,Y] = c1 w, [V,Y,X] = c2 w, or infinity when
    c1 + c2 = 0.
    """
    vx, vy = bracket(V, X), bracket(V, Y)
    if slot.dim == 2:
        if following.dim >= 2:
            raise ConsecutiveDiamonds("two consecutive two-dimensional components")
        if bracket(vx, X):
            raise MalformedDiamond("[V,X,X] != 0 at a two-dimensional slot")
        if bracket(vy, Y):
            raise MalformedDiamond("[V,Y,Y] != 0 at a two-dimensional slot")
        vxy, vyx = bracket(vx, Y), bracket(vy, X)
        w = vxy if vxy else vyx
        if not w:
            raise MalformedDiamond("both cross brackets vanish at a genuine slot")
        c1 = _coeff_of(vxy, w)
        c2 = _coeff_of(vyx, w)
        if c1 is None or c2 is None:
            raise MalformedDiamond("cross brackets are not proportional")
        s = c1 + c2
        if not s:
            return ("genuine", INFINITY)
        mu = c1 / s
        if not mu or mu == mu.spec.one:
            raise MalformedDiamond(f"genuine diamond computed type {mu}")
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
    """
    records = [DiamondRecord(1, 1, "genuine", None)]
    nondiamond: list[int] = []
    anomalies: list[str] = []
    d = q
    ordinal = 2
    while d + 1 <= expansion.depth:
        vspace = expansion.component(d - 1)
        slot = expansion.component(d)
        if vspace.dim != 1:
            anomalies.append(f"component before slot {d} has dim {vspace.dim}")
        else:
            got = classify_type(
                vspace.basis_elements()[0], X, Y, slot, expansion.component(d + 1)
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

    Empty ranges pass vacuously.  The proviso records when the parameters
    fall outside the hypotheses under which the chains are guaranteed
    (q > 3 for the first, p > 3 and q != 5 for the second).
    """
    base = expansion.base
    m1 = expansion.component(1)
    span_y = Subspace.from_elements(base, [Y])

    def run(lo: int, hi: int) -> bool:
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


def parameter_k(expansion: LoopExpansion, window: int | None = None) -> int:
    """k = dim(L / L'') - 1 from graded pieces of the truncated loop algebra.

    The second derived subalgebra must reach full components (and the
    components themselves stay nonzero) on the last `window` degrees,
    default one grading period; otherwise NotStabilized.
    """
    depth = expansion.depth
    window = window or expansion.degmap.modulus
    base = expansion.base
    m = [None] + expansion.components  # 1-indexed
    zero = Subspace.zero(base)

    def graded_bracket(left: list[Subspace], right: list[Subspace]) -> list[Subspace]:
        # out[d] = sum over a+b=d of [left_a, right_b]; each out[d] is capped
        # by the enclosing component M_d, so stop accumulating at full rank.
        lbasis = [None] + [s.basis_elements() for s in left[1:]]
        rbasis = [None] + [s.basis_elements() for s in right[1:]]
        out = [zero] * (depth + 1)
        for d in range(2, depth + 1):
            cap = m[d].dim
            acc = Echelon(base.field, base.dim)
            for a in range(1, d):
                b = d - a
                if not lbasis[a] or not rbasis[b]:
                    continue
                for u in lbasis[a]:
                    for v in rbasis[b]:
                        w = bracket(u, v)
                        if w:
                            acc.add(w.dense())
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
    """Expand, choose generators, and aggregate every thinness verdict."""
    depth = depth or 3 * degmap.modulus
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
