"""The index arithmetic of the rules, cartan.Phi1Brackets and
grading.AZBrackets, against their whole tables (build_H2_phi1 and the
closed oracle table), on small Phi(1) tables (p = 2, 3; eps 0 and 1) and
AZ tables (p = 2, 3, 5; sigma = 0 and sigma != 0):

- _sources(m) holds every stored pair with target m, and a pair it lists
  reads zero or lands on m;
- derived_is_all_but(drop) holds exactly when the targets of the stored
  pairs are every position but drop, the old whole-table read;
- the view without the drop (RuleBrackets.without) is the coordinate
  subalgebra of the whole table in characteristic two, key order
  included, and proves the restricted degree map of its run;
- a product patched to land on the drop makes the characteristic-two
  restriction raise.
"""

import pytest

from thinlie.cartan import build_H2_phi1, phi1_rule_table
from thinlie.errors import ThinlieError
from thinlie.ffield import field_create
from thinlie.grading import eigenbasis, params_from_mu3, toral_params
from thinlie.liealg import DegreeMap, StructureTable, subalgebra_table, validate_grading
from thinlie.verify import _derived_in_char_two, finite_grading, mixed_grading

from oracles import closed_eigen_table

PHI1 = [(2, 1, 2, 1), (2, 1, 2, 0), (2, 2, 1, 1), (2, 1, 3, 1), (2, 2, 3, 1),
        (3, 1, 1, 1), (3, 1, 1, 0), (3, 1, 2, 1), (3, 2, 1, 0)]
AZ = [("finite", 2, 4), ("finite", 2, 8), ("sigma-zero", 2, 8), ("finite", 3, 3), ("finite", 3, 9),
      ("sigma-zero", 3, 9), ("eps-zero", 3, 3), ("finite", 5, 5), ("sigma-zero", 5, 5), ("eps-zero", 5, 5)]


def _az_params(kind, p):
    if kind == "finite":
        return params_from_mu3(field_create(p, 2).generator())
    if kind == "sigma-zero":
        return toral_params(field_create(p), 0)
    return toral_params(field_create(p), 1, eps=0, rho=1)


def _tables(case):
    """(rule table, its whole table as a dict table)."""
    if case[0] in ("finite", "sigma-zero", "eps-zero"):
        kind, p, q = case
        basis = eigenbasis(_az_params(kind, p), q)
        return basis.eigen_table, closed_eigen_table(basis)
    p, n1, n2, eps = case
    return phi1_rule_table(p, n1, n2, None, eps), build_H2_phi1(p, n1, n2, None, eps)


CASES = pytest.mark.parametrize("case", PHI1 + AZ, ids=lambda c: "-".join(map(str, c)))


@CASES
def test_every_stored_pair_is_a_source_of_its_target(case):
    rule, whole = _tables(case)
    sources = [list(rule.brackets._sources(m)) for m in range(rule.dim)]
    for key, ((k, _),) in whole.brackets.items():
        assert key in sources[k], (key, k)
    for m, keys in enumerate(sources):
        assert len(set(keys)) == len(keys)
        for a, b in keys:
            assert 0 <= a < b < rule.dim
            terms = rule.brackets.get((a, b))
            assert terms is None or [k for k, _ in terms] == [m], ((a, b), m)


@CASES
def test_the_span_proof_is_the_whole_table_read(case):
    rule, whole = _tables(case)
    targets = {k for ((k, _),) in whole.brackets.values()}
    accepted = [m for m in range(rule.dim) if rule.brackets.derived_is_all_but(m)]
    assert accepted == [m for m in range(rule.dim) if targets == set(range(rule.dim)) - {m}]


CHAR_TWO = pytest.mark.parametrize("make", [
    lambda: mixed_grading(2, 1, 2),
    lambda: mixed_grading(2, 2, 3),
    lambda: finite_grading(2, 2, params_from_mu3(field_create(2, 2).generator())),
    lambda: finite_grading(2, 3, params_from_mu3(field_create(2, 3).generator())),
], ids=["mixed-2-1-2", "mixed-2-2-3", "finite-2-4", "finite-2-8-F8"])


@CHAR_TWO
def test_the_view_is_the_coordinate_subalgebra(make):
    g = make()
    t = g.table
    assert [m for m in range(t.dim) if t.brackets.derived_is_all_but(m)] == [g.drop]
    keep = [m for m in range(t.dim) if m != g.drop]
    whole = StructureTable(t.field, t.labels, dict(t.brackets.items()))
    want, view = subalgebra_table(whole, keep), _derived_in_char_two(g)
    assert view.table.labels == want.labels
    assert list(view.table.brackets.items()) == list(want.brackets.items())
    for a in range(-1, view.table.dim + 1):
        for b in range(-1, view.table.dim + 1):
            assert view.table.brackets.get((a, b)) == want.brackets.get((a, b)), (a, b)
    # the restricted map is proved on the rule, and a changed degree is not
    assert view.table.brackets.proves_grading(view.degmap)
    degrees = view.degmap.degrees
    for m in range(len(degrees)):
        moved = DegreeMap(view.degmap.modulus, degrees[:m] + (degrees[m] + 1,) + degrees[m + 1:])
        assert not view.table.brackets.proves_grading(moved)
        assert not validate_grading(want, moved), m


@CHAR_TWO
def test_a_product_landing_on_the_drop_is_refused(make, monkeypatch):
    g = make()
    rule = g.table.brackets
    first = next(rule._sources(g.drop))
    real = type(rule)._product

    def landing(self, key):
        return ((g.drop, g.table.field.one),) if self is rule and key == first else real(self, key)

    monkeypatch.setattr(type(rule), "_product", landing)
    with pytest.raises(ThinlieError, match="characteristic-two derived subalgebra has unexpected shape"):
        _derived_in_char_two(g)
