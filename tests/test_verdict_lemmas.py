"""The two lemmas under thinloop's verdict layers, degree by degree.

Chains: with span(X, Y) = M_1 of dimension 2, C_{M_1}(M_d) = <Y> exactly
when [M_d, Y] = 0 and [M_d, X] != 0.  The two-bracket predicate is checked
against the nullspace centralizer_in finds, at every degree from 2 to 3N on
every accepted mixed input of the sweep and on the toral sample of
test_periodic, and the second-diamond slot choose_generators finds with it
against the slot of the old centralizer_in scan: q for odd p, q + 1 for
p = 2.

Covering: when X and Y span M_1, a one-dimensional M_d covers by
construction; with X replaced by X + cY (c != 0) the verdict must still
match the oracle that brackets every component.  X = Y spans no plane, so
the chains reject it.
"""

import pytest

from oracles import oracle_check_covering
from test_periodic import HAND_BUILT, TORAL, _grading
from test_sweep import MIXED_INPUTS
from thinlie.liealg import Subspace, centralizer_in
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
    return centralizer_in(base, expansion.component(1), expansion.component(d)) == \
        Subspace.from_elements(base, [y])


def _predicate_outcomes(name):
    """(true, false) counts of the two-bracket predicate over d = 2..3N,
    each degree checked against centralizer_in."""
    _, expansion, x, y = _setup(name)
    outcomes = []
    for d in range(2, expansion.depth + 1):
        got = _centralizer_is_y(expansion.component(d), x, y)
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
        got = _centralizer_is_y(expansion.component(d), x, y)
        assert got == _old_predicate(expansion, y, d), d


@pytest.mark.parametrize("args", MIXED_INPUTS, ids=lambda a: "mixed-%d-%d-%d" % a)
def test_second_diamond_slot_without_q_matches_centralizer_scan(args):
    g, expansion, x, y = _setup("mixed-%d-%d-%d" % args)
    old = next(d + 1 for d in range(2, expansion.depth) if not _old_predicate(expansion, y, d))
    assert choose_generators(expansion, X=x, Y=y).slot == old
    # in characteristic two C_{M_1}(M_{q-1}) is still <Y> (the first chain
    # is guaranteed only for odd p), so the scan stops one degree late
    assert old == (g.q + 1 if args[0] == 2 else g.q)


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
