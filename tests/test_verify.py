import pytest

from thinlie.cartan import build_H2_phi1
from thinlie.errors import ThinlieError
from thinlie.ffield import field_create
from thinlie.grading import grade_mixed
from thinlie.thinloop import INFINITY
from thinlie.verify import Grading, _derived_in_char_two, run_finite, run_sigma_zero


def test_sigma_zero_char_two_q8_all_fake1():
    run = run_sigma_zero(2, 3)
    assert run.ok, run.mismatches
    kinds = [d.kind for d in run.report.diamonds]
    assert kinds[0] == "genuine" and len(kinds) > 1
    assert set(kinds[1:]) == {"fake1"}


@pytest.mark.parametrize("k", [2, 3])
def test_finite_char_two_follows_the_progression(k):
    # at even t the progression -1 + (t-2) sigma/rho is -1 = 1: a fake1
    run = run_finite(2, 2, mu3=field_create(2, k).generator())
    assert run.ok, run.mismatches
    assert all(d.kind == "fake1" for d in run.report.diamonds if d.ordinal % 2 == 0)


def test_char_two_restriction_checks_the_derived_subalgebra():
    table = build_H2_phi1(2, 1, 2, field_create(2), 1)
    grading = Grading(table, grade_mixed(table, 4, 2), 4, 1, 2, lambda rec: INFINITY)
    restricted = _derived_in_char_two(grading, table.dim - 1)
    assert restricted.table.dim == table.dim - 1 and (restricted.x_pos, restricted.y_pos) == (1, 2)
    with pytest.raises(ThinlieError, match="derived subalgebra"):
        _derived_in_char_two(grading, 0)
