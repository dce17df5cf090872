"""check_covering's exact determinant test against the projective-line
enumeration it replaced, on the expansions of verify runs and on random
one-term tables whose two-dimensional M_2 is followed by a line or a
plane, under random rescalings and shears of the generators; and the
Subspace rank test of the oracles against the same enumeration on random
multi-term planes over F_3, F_4 and F_9, with brackets that sometimes
leave M_{d+1}."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    OracleExpansion,
    Subspace,
    coordinate_span,
    element_by_index,
    oracle_check_covering,
    oracle_covering_failures,
)
from thinlie.cartan import build_H2_phi1
from thinlie.ffield import field_create
from thinlie.grading import ToralParams, eigenbasis, generator_positions, grade_finite
from thinlie.liealg import DegreeMap, StructureTable
from thinlie.thinloop import LoopExpansion, check_covering, loop_expand
from thinlie.verify import run_eps_zero, run_finite, run_mixed, run_sigma_zero

F3, F4, F9 = field_create(3), field_create(2, 2), field_create(3, 2)

RUNS = {
    "mixed-3-1-1": lambda: run_mixed(3, 1, 1),
    "mixed-2-1-3": lambda: run_mixed(2, 1, 3),
    "finite-3-1-F9": lambda: run_finite(3, 1, mu3=F9.generator()),
    "finite-5-1-F25": lambda: run_finite(5, 1, mu3=field_create(5, 2).generator()),
    "finite-2-2-F4": lambda: run_finite(2, 2, mu3=F4.generator()),
    "sigma-zero-5": lambda: run_sigma_zero(5, 1),
    "eps-zero-5-2": lambda: run_eps_zero(5, 1, 2),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_rank_covering_matches_enumeration_on_verify_runs(name):
    rep = RUNS[name]().report
    x, y = rep.generators.X, rep.generators.Y
    report = check_covering(rep.expansion, x, y)
    assert report.failures == oracle_covering_failures(rep.expansion, x, y)
    assert report.ok


def test_rank_covering_matches_enumeration_when_covering_fails():
    # eps = 0, rho = 0: the toral grading whose covering fails
    basis = eigenbasis(build_H2_phi1(3, 1, 1, F3, 0), ToralParams(F3.one, F3.zero, F3.zero))
    et = basis.eigen_table
    x_pos, y_pos = generator_positions(basis)
    expansion = loop_expand(et, grade_finite(basis), 12)
    x, y = et.basis_element(x_pos), et.basis_element(y_pos)
    failures = check_covering(expansion, x, y).failures
    assert failures and failures == oracle_covering_failures(expansion, x, y)


X, Y, B0, B1, W0, W1, Z = range(7)


def _matmul(a, b):
    return [[a[r][0] * b[0][c] + a[r][1] * b[1][c] for c in range(2)] for r in range(2)]


def _covering_pencil(field, scalar):
    """Coordinates of [b0,X], [b0,Y], [b1,X], [b1,Y] in a plane M_3 for
    which every u = s b0 + t b1 covers: A and B span the pencil of I and
    the companion matrix C of a monic quadratic without roots, so
    det(sA + tB) has no projective zero, both moved by a random invertible P."""
    zero, one = field.zero, field.one
    a, b = next(
        (a, b) for a in field.elements() for b in field.elements()
        if all(x * x + a * x + b for x in field.elements())
    )
    ident, comp = [[one, zero], [zero, one]], [[zero, -b], [one, -a]]

    def invertible():
        while True:
            m = [[scalar(), scalar()], [scalar(), scalar()]]
            if m[0][0] * m[1][1] - m[0][1] * m[1][0]:
                return m

    mix, move = invertible(), invertible()
    pencil = [
        [[mix[i][0] * ident[r][c] + mix[i][1] * comp[r][c] for c in range(2)] for r in range(2)]
        for i in range(2)
    ]
    out = []
    for m in pencil:
        m = _matmul(move, m)
        out += [[m[0][0], m[1][0]], [m[0][1], m[1][1]]]
    return out


@st.composite
def plane_slots(draw):
    """M_1 = <X, Y>, M_2 = <b0, b1> and M_3 a random line or the plane
    <w0, w1>.  The coordinates of [b_i, X], [b_i, Y] in M_3 are random, or
    for a plane half the time a covering pencil; then half the time one of
    them is moved by a random amount, and each bracket gets a nonzero
    multiple of z, outside M_3, with probability 1/8."""
    field = draw(st.sampled_from([F3, F4, F9]))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))

    def scalar(lo=0):
        return element_by_index(field, rng.randrange(lo, field.size))

    if draw(st.booleans()):
        target = [{W0: field.one, W1: scalar()}]
        coords = [[scalar()] for _ in range(4)]
    else:
        target = [{W0: field.one}, {W1: field.one}]
        if rng.random() < 0.5:
            coords = _covering_pencil(field, scalar)
        else:
            coords = [[scalar(), scalar()] for _ in range(4)]
    if rng.random() < 0.5:
        c = rng.choice(coords)
        i = rng.randrange(len(c))
        c[i] = c[i] + scalar()
    entries = []
    for (b, g), cs in zip([(B0, X), (B0, Y), (B1, X), (B1, Y)], coords):
        terms = {}
        for c, w in zip(cs, target):
            for k, v in w.items():
                terms[k] = terms.get(k, field.zero) + c * v
        if rng.random() < 0.125:
            terms[Z] = scalar(1)
        entries.append((b, g, list(terms.items())))
    table = StructureTable.from_entries(field, ["x", "y", "b0", "b1", "w0", "w1", "z"], entries)
    components = [
        coordinate_span(table, [X, Y]),
        coordinate_span(table, [B0, B1]),
        Subspace.from_elements(table, [table.element(w) for w in target]),
    ]
    degmap = DegreeMap(4, (1, 1, 2, 2, 3, 3, 3))
    return OracleExpansion(table, degmap, 3, components, False)


@settings(max_examples=300, deadline=None)
@given(plane_slots())
def test_rank_covering_matches_enumeration_on_random_planes(expansion):
    x, y = expansion.base.basis_element(X), expansion.base.basis_element(Y)
    assert oracle_check_covering(expansion, x, y).failures == oracle_covering_failures(expansion, x, y)


@st.composite
def one_term_plane_slots(draw):
    """M_1 = <x, y> and M_2 = <b0, b1> in a one-term table: each of [b_i, x],
    [b_i, y] is zero or a random nonzero multiple of w0 or w1, so M_3 is
    the span of the targets, a line or a plane (or zero).  Covering planes
    occur: [b0, x] = c1 w0, [b0, y] = c2 w1, [b1, x] = c3 w1, [b1, y] = c4 w0
    covers iff c3 c4 / (c1 c2) is not a square.  The seven basis vectors
    sit at randomly permuted positions, so a stored pair is (b_i, x) or
    (x, b_i) and its coefficient changes sign; the generators are x and y
    rescaled and x sheared by a random multiple of y."""
    field = draw(st.sampled_from([F3, F4, F9, field_create(5)]))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))

    def scalar(lo=0):
        return element_by_index(field, rng.randrange(lo, field.size))

    at = rng.sample(range(7), 7)  # role (X, Y, B0, ..., Z) -> position
    entries = []
    for b in (B0, B1):
        for g in (X, Y):
            if rng.random() < 0.85:
                entries.append((at[b], at[g], [(at[rng.choice((W0, W1))], scalar(1))]))
    labels = [None] * 7
    for role, name in enumerate(["x", "y", "b0", "b1", "w0", "w1", "z"]):
        labels[at[role]] = name
    table = StructureTable.from_entries(field, labels, entries)
    m3 = tuple(sorted({terms[0][0] for terms in table.brackets.values()}))
    components = [tuple(sorted((at[X], at[Y]))), tuple(sorted((at[B0], at[B1]))), m3]
    x, y = table.basis_element(at[X]), table.basis_element(at[Y])
    y = y.scale(scalar(1))
    x = x.scale(scalar(1)) + y.scale(scalar())
    degrees = [0] * 7
    for role, d in zip((X, Y, B0, B1, W0, W1), (1, 1, 2, 2, 3, 3)):
        degrees[at[role]] = d
    return LoopExpansion(table, DegreeMap(4, tuple(degrees)), 3, components, False), x, y


@settings(max_examples=300, deadline=None)
@given(one_term_plane_slots())
def test_determinant_covering_matches_enumeration_on_one_term_planes(drawn):
    expansion, x, y = drawn
    assert check_covering(expansion, x, y).failures == oracle_covering_failures(expansion, x, y)
