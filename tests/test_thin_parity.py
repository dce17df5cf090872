"""The positional thin report against the Subspace oracle, report for report.

thin_report runs on basis positions and table lookups; oracle_thin_report
brackets Elements and eliminates every component as a Subspace, sharing no
function with it.  Their whole to_json() must agree, or both must raise the
same error, on random one-term graded Lie algebras (the mixed and toral
tables with their basis permuted and rescaled) and on every mixed and toral
table of the command-line sweep, with the generators rescaled by random
nonzero scalars, X sheared by a random multiple of Y and, half the time,
Y by a random multiple of X.  On random
one-term graded tables that need not satisfy the Jacobi identity they must
agree on everything but k: the ideal recursion of parameter_k is a theorem
about Lie algebras, while the oracle brackets L'' out of L' directly.  A
table pair read with two terms, and generators that do not span the two
positions of M_1, raise ValueError instead of a report.
"""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import element_by_index, oracle_thin_report
from test_periodic import _grading
from test_sweep import ACCEPTED, MIXED_INPUTS
from thinlie.cli import _parse_scalar
from thinlie.errors import StructuralFailure
from thinlie.ffield import field_create
from thinlie.liealg import DegreeMap, StructureTable
from thinlie.thinloop import check_covering, loop_expand, parameter_k, thin_report

F3 = field_create(3)


def _outcome(report_of, drop=()):
    """The report's JSON without the keys drop, or the type, message and
    degree of what it raised."""
    try:
        data = report_of().to_json()
    except (StructuralFailure, ValueError) as exc:
        return repr((type(exc).__name__, str(exc), getattr(exc, "degree", None)))
    return json.dumps({key: v for key, v in data.items() if key not in drop})


def _assert_parity(t, degmap, q, depth, x, y, drop=()):
    """depth None is thin_report's default, three grading periods."""
    got = _outcome(lambda: thin_report(t, degmap, q, depth, X=x, Y=y), drop)
    depth = depth or 3 * degmap.modulus
    want = _outcome(lambda: oracle_thin_report(t, degmap, q, depth, X=x, Y=y), drop)
    assert got == want


def _skewed(field, x, y, draw):
    """X = lambda x + alpha Y and Y = nu y + beta x, for lambda, nu != 0 and
    any alpha, beta (beta zero for an even draw[0]); the two span what x and
    y span.  The scalars are drawn as indices into field.elements()."""
    lam, nu, alpha, beta = (element_by_index(field, i % field.size) for i in draw)
    lam, nu, beta = lam or field.one, nu or field.one, beta if draw[0] % 2 else field.zero
    y = y.scale(nu) + x.scale(beta)
    return x.scale(lam) + y.scale(alpha), y


@st.composite
def one_term_graded_tables(draw):
    """A table over F_3, F_4, F_5 or F_9 with N = 3..7 degree classes: two
    positions in class 1, one or two in each other class, and each pair
    (i, j) stored with probability 2/3 as c b_k, c != 0 and k in the class of
    deg i + deg j (when it has a position); no Jacobi identity.  q is drawn
    from 3 .. (3N + 2) / 2 and the depth from max(N + 1, 2q - 2) to 3N + 2."""
    field = draw(st.sampled_from([F3, field_create(2, 2), field_create(5), field_create(3, 2)]))
    n = draw(st.integers(3, 7))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    degrees = [1, 1] + [d for d in range(n) if d != 1 for _ in range(rng.choice((1, 1, 2)))]
    rng.shuffle(degrees)
    by_class = {}
    for i, d in enumerate(degrees):
        by_class.setdefault(d, []).append(i)
    entries = []
    for i in range(len(degrees)):
        for j in range(i + 1, len(degrees)):
            targets = by_class.get((degrees[i] + degrees[j]) % n)
            if targets and rng.random() < 2 / 3:
                entries.append((i, j, [(rng.choice(targets), element_by_index(field, rng.randrange(1, field.size)))]))
    t = StructureTable.from_entries(field, [f"b{i}" for i in range(len(degrees))], entries)
    degmap = DegreeMap(n, tuple(degrees))
    q = draw(st.integers(3, (3 * n + 2) // 2))
    depth = draw(st.integers(max(n + 1, 2 * q - 2), 3 * n + 2))
    x_pos, y_pos = by_class[1]
    x, y = _skewed(field, t.basis_element(x_pos), t.basis_element(y_pos), [rng.randrange(10 ** 6) for _ in range(4)])
    return t, degmap, q, depth, x, y


@settings(max_examples=400, deadline=None)
@given(one_term_graded_tables())
def test_thin_report_matches_oracle_on_random_one_term_tables(drawn):
    _assert_parity(*drawn, drop=("k", "k_note"))


SMALL = [("run_mixed", 3, 1, 1), ("run_mixed", 5, 1, 1), ("run_mixed", 3, 1, 2), ("run_mixed", 2, 1, 3),
         ("run_mixed", 3, 2, 1), ("run_finite", 3, 1, field_create(3, 2).generator()),
         ("run_finite", 2, 2, field_create(2, 2).generator()), ("run_sigma_zero", 5, 1),
         ("run_eps_zero", 5, 1, 2), ("run_eps_zero", 3, 2, 1)]


@st.composite
def permuted_lie_tables(draw):
    """One of the SMALL gradings with b_i moved to position pi(i) and
    replaced by s_i b_i, s_i != 0: [s_i b_i, s_j b_j] = (c s_i s_j / s_k) s_k b_k,
    again a one-term graded Lie algebra, whose stored pairs now change
    order and sign."""
    g = _grading(*draw(st.sampled_from(SMALL)))
    t, field = g.table, g.table.field
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    perm = list(range(t.dim))
    rng.shuffle(perm)
    s = [element_by_index(field, rng.randrange(1, field.size)) for _ in range(t.dim)]
    entries = [(perm[i], perm[j], [(perm[k], c * s[i] * s[j] / s[k])]) for (i, j), ((k, c),) in t.brackets.items()]
    labels = [None] * t.dim
    degrees = [None] * t.dim
    for i, a in enumerate(perm):
        labels[a], degrees[a] = t.labels[i], g.degmap.degrees[i]
    moved = StructureTable.from_entries(field, labels, entries)
    x, y = _skewed(field, moved.basis_element(perm[g.x_pos]), moved.basis_element(perm[g.y_pos]),
                   [rng.randrange(10 ** 6) for _ in range(4)])
    return moved, DegreeMap(g.degmap.modulus, tuple(degrees)), g.q, None, x, y


@settings(max_examples=60, deadline=None)
@given(permuted_lie_tables())
def test_thin_report_matches_oracle_on_permuted_rescaled_lie_tables(drawn):
    _assert_parity(*drawn)


def _toral_run(args):
    """The verify driver and its arguments for a toral sweep input."""
    opts = dict(zip(args[::2], args[1::2]))
    p, q = int(opts["--p"]), int(opts["--q"])
    n2 = next(k for k in range(1, 12) if p ** k == q)
    grading = opts["--grading"]
    if grading == "finite":
        return "run_finite", p, n2, _parse_scalar(field_create(p, 2), opts["--mu3"])
    if grading == "eps-zero":
        return "run_eps_zero", p, n2, int(opts["--ratio"])
    return "run_sigma_zero", p, n2


SWEEP = {"mixed-%d-%d-%d" % a: ("run_mixed", *a) for a in MIXED_INPUTS}
SWEEP.update(
    ("-".join(a.lstrip("-") for a in args[1:]).replace(",", "."), _toral_run(args))
    for args in ACCEPTED if args[1] != "mixed"
)


@pytest.mark.parametrize("name", sorted(SWEEP))
@settings(max_examples=2, deadline=None)
@given(draw=st.lists(st.integers(0, 10 ** 6), min_size=4, max_size=4))
def test_thin_report_matches_oracle_on_sweep_tables(name, draw):
    g = _grading(*SWEEP[name])
    t = g.table
    x, y = _skewed(t.field, t.basis_element(g.x_pos), t.basis_element(g.y_pos), draw)
    _assert_parity(t, g.degmap, g.q, None if draw[1] % 2 else 2 * g.degmap.modulus + 3, x, y)


def test_two_term_pair_read_in_the_expansion_raises():
    # [x, y] = z + w in degree 2: the expansion reads it at M_2
    t = StructureTable.from_entries(F3, ["x", "y", "z", "w"], [(0, 1, [(2, F3.one), (3, F3.one)])])
    degmap = DegreeMap(3, (1, 1, 2, 2))
    with pytest.raises(ValueError, match="one-term"):
        loop_expand(t, degmap, 4)
    with pytest.raises(ValueError, match="one-term"):
        thin_report(t, degmap, 3, 4, X=t.basis_element(0), Y=t.basis_element(1))


def test_two_term_pair_read_by_parameter_k_raises():
    # x, y in degree 1, [x, y] = h, [h, x] = u, [u, x] = z and [u, h] = v + w:
    # loop_expand reads only pairs with M_1, so the two-term pair is first
    # read by the ideal recursion, as [M_3, M_2] in L''_5
    one = F3.one
    t = StructureTable.from_entries(F3, ["x", "y", "h", "u", "z", "v", "w"], [
        (0, 1, [(2, one)]), (2, 0, [(3, one)]), (3, 0, [(4, one)]), (3, 2, [(5, one), (6, one)]),
    ])
    expansion = loop_expand(t, DegreeMap(6, (1, 1, 2, 3, 4, 5, 5)), 7)
    assert expansion.components[:5] == [(0, 1), (2,), (3,), (4,), ()]
    with pytest.raises(ValueError, match="one-term"):
        parameter_k(expansion)


def test_generators_off_the_two_positions_of_m1_raise():
    g = _grading("run_mixed", 3, 1, 1)
    t = g.table
    x, y = t.basis_element(g.x_pos), t.basis_element(g.y_pos)
    other = next(i for i, d in enumerate(g.degmap.degrees) if d != 1)
    for X, Y, match in [
        (x + t.basis_element(other), y, "lie in the degree-1 component"),
        (x, x.scale(t.field.element(2)), "dependent"),
        (x + y, x + y, "dependent"),
    ]:
        with pytest.raises(ValueError, match=match):
            thin_report(t, g.degmap, g.q, X=X, Y=Y)
        with pytest.raises(ValueError, match="spanning a two-dimensional M_1"):
            check_covering(loop_expand(t, g.degmap, 3 * g.degmap.modulus), X, Y)
