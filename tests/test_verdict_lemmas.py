"""The two lemmas under thinloop's verdict layers, degree by degree.

Chains: with span(X, Y) = M_1 of dimension 2, C_{M_1}(M_d) = <Y> exactly
when [M_d, Y] = 0 and [M_d, M_1] != 0, which _centralizer_is_y reads off
the lookups of M_d's positions with M_1's.  That predicate is checked
against the nullspace centralizer_in finds, at every degree from 2 to 3N on
every accepted mixed input of the sweep and on the toral sample of
test_periodic.  A scan for the second-diamond slot, one past the first
degree where the predicate fails, lands where the centralizer_in scan does:
at q for odd p but at q + 1 for p = 2, which is why choose_generators takes
q and does not scan.

Covering: X and Y must span M_1, so a one-dimensional M_d covers by
construction; with X replaced by X + cY (c != 0) the verdict must still
match the oracle that brackets every component.  X = Y spans no plane, so
the chains reject it, as check_covering does (test_periodic).
"""

import pytest

from oracles import Subspace, centralizer_in, oracle_check_covering, oracle_component
from test_periodic import HAND_BUILT, TORAL, _grading
from test_sweep import MIXED_INPUTS
from thinlie.thinloop import (
    _centralizer_is_y,
    centralizer_chain,
    check_covering,
    choose_generators,
    loop_expand,
)

GRADINGS = {"mixed-%d-%d-%d" % a: ("run_mixed", *a) for a in MIXED_INPUTS}
GRADINGS.update(TORAL)


def _setup(name):
    g = _grading(*GRADINGS[name])
    t = g.table
    expansion = loop_expand(t, g.degmap, 3 * g.degmap.modulus)
    return g, expansion, t.basis_element(g.x_pos), t.basis_element(g.y_pos)


def _old_predicate(expansion, y, d):
    base = expansion.base
    return centralizer_in(base, oracle_component(expansion, 1), oracle_component(expansion, d)) == \
        Subspace.from_elements(base, [y])


def _predicate_outcomes(name):
    """(true, false) counts of the two-bracket predicate over d = 2..3N,
    each degree checked against centralizer_in."""
    _, expansion, x, y = _setup(name)
    outcomes = []
    for d in range(2, expansion.depth + 1):
        got = _centralizer_is_y(expansion.base, expansion.components[d - 1], expansion.components[0], y)
        assert got == _old_predicate(expansion, y, d), (name, d)
        outcomes.append(got)
    return sum(outcomes), len(outcomes) - sum(outcomes)


def test_two_bracket_chain_predicate_on_mixed_inputs():
    counts = [_predicate_outcomes("mixed-%d-%d-%d" % a) for a in MIXED_INPUTS]
    true, false = map(sum, zip(*counts))
    # both outcomes occur: 1764 degrees with C = <Y> and 838 without
    assert (true, false) == (1764, 838)


@pytest.mark.parametrize("name", sorted(TORAL))
def test_two_bracket_chain_predicate_on_toral_runs(name):
    true, false = _predicate_outcomes(name)
    assert true + false == 3 * _grading(*TORAL[name]).degmap.modulus - 1


@pytest.mark.parametrize("name", ["abelian", "dies-late-8-6", "sl2"])
def test_two_bracket_chain_predicate_where_m1_centralizes(name):
    # where the expansion dies, [M_1, M_d] = 0 and C = M_1 != <Y>: the
    # bracket with X is what tells that apart from C = <Y>
    t, degmap, x, y = HAND_BUILT[name]()
    expansion = loop_expand(t, degmap, 3 * degmap.modulus)
    for d in range(2, expansion.depth + 1):
        got = _centralizer_is_y(expansion.base, expansion.components[d - 1], expansion.components[0], y)
        assert got == _old_predicate(expansion, y, d), d


@pytest.mark.parametrize("args", MIXED_INPUTS, ids=lambda a: "mixed-%d-%d-%d" % a)
def test_second_diamond_slot_without_q_matches_centralizer_scan(args):
    g, expansion, x, y = _setup("mixed-%d-%d-%d" % args)
    degrees = range(2, expansion.depth)
    old = next(d + 1 for d in degrees if not _old_predicate(expansion, y, d))
    base, comps = expansion.base, expansion.components
    scan = next(d + 1 for d in degrees if not _centralizer_is_y(base, comps[d - 1], comps[0], y))
    # in characteristic two C_{M_1}(M_{q-1}) is still <Y> (the first chain
    # is guaranteed only for odd p), so a scan stops one degree late
    assert scan == old == (g.q + 1 if args[0] == 2 else g.q)
    assert choose_generators(expansion, g.q, X=x, Y=y).slot == g.q


@pytest.mark.parametrize("name", sorted(GRADINGS))
def test_covering_with_skewed_x_matches_oracle(name):
    g, expansion, x, y = _setup(name)
    field = g.table.field
    for c in {field.one, -field.one}:
        skewed = x + y.scale(c)
        want = oracle_check_covering(expansion, skewed, y)
        got = check_covering(expansion, skewed, y)
        assert (got.ok, got.failures, got.checked_upto) == (want.ok, want.failures, want.checked_upto)


def test_centralizer_chain_rejects_generators_that_do_not_span_m1():
    g, expansion, x, _ = _setup("mixed-5-1-1")
    with pytest.raises(ValueError, match="spanning"):
        centralizer_chain(expansion, x, x, g.q)
