"""Two symmetries of the toral gradings, checked on whole runs of the
verify pipeline: each side is its own run, from the params through the
eigenbasis, the rule table and its certificate to the thin report, and
the two must agree for a reason outside the code.

Frobenius: x -> x^p is a field automorphism fixing F_p, so it carries the
run at mu3 onto the run at mu3^p, both built through params_from_mu3:
the same degrees, kinds, k and chains, and the Frobenius image of every
diamond type and of c_xy and c_yx.

Rescaling: (sigma, rho, eps) -> (c sigma, c rho, c^p eps) keeps the
Artin-Schreier relation rho^p - sigma^(p-1) rho = eps and the ratio
sigma/rho, so it keeps the report.  For c in F_p^*, c^p eps = c eps; for
the field generator, eps = c^p lies outside the prime field.  No verify
input reaches eps other than 0 and 1.

Both over the finite inputs of test_sweep with q <= 27.
"""

import functools
import math

import pytest
from hypothesis import given, settings, strategies as st

from test_sweep import ACCEPTED
from thinlie.errors import DenominatorZero
from thinlie.ffield import field_create, frobenius, in_prime_field
from thinlie.grading import ToralParams, params_from_mu3
from thinlie.verify import run_finite

# (p, n2, mu3 coordinates) of every finite sweep input with q <= 27
FINITE = sorted({
    (int(args[3]), round(math.log(int(args[5]), int(args[3]))), tuple(int(c) for c in args[7].split(",")))
    for args in ACCEPTED if args[1] == "finite" and int(args[5]) <= 27
})


def _mu3(p, coords):
    return field_create(p, 2).element(list(coords))


def _summary(run, image=lambda a: a):
    """What the two runs of a symmetry must share, types and c_xy, c_yx
    taken through image."""
    rep = run.report
    assert run.ok, run.mismatches
    types = [(d.degree, d.ordinal, d.kind, image(d.type) if d.kind == "genuine" and d.ordinal > 1 else d.type)
             for d in rep.diamonds]
    gens = rep.generators
    return (rep.k, types, rep.dims, rep.chains.to_json(), image(gens.c_xy), image(gens.c_yx), gens.slot)


@functools.cache
def _run(p, n2, coords):
    return run_finite(p, n2, mu3=_mu3(p, coords))


@pytest.mark.parametrize("p, n2, coords", FINITE, ids=lambda v: str(v).replace(" ", ""))
def test_frobenius_image_of_the_run_at_mu3_is_the_run_at_mu3_p(p, n2, coords):
    mu3 = _mu3(p, coords)
    image = _mu3(p, frobenius(mu3).coords)
    assert (p, n2, tuple(image.coords)) in FINITE
    assert _summary(_run(p, n2, coords), frobenius) == _summary(_run(p, n2, tuple(image.coords)))


@pytest.mark.parametrize("p, n2, coords", FINITE, ids=lambda v: str(v).replace(" ", ""))
def test_rescaling_sigma_rho_eps_keeps_the_run(p, n2, coords):
    base = params_from_mu3(_mu3(p, coords))
    field = base.field
    scalars = [field.element(c) for c in range(1, p)] + [field.generator()]
    want = _summary(_run(p, n2, coords))
    for c in scalars:
        params = ToralParams(c * base.sigma, c * base.rho, c ** p * base.eps)
        assert _summary(run_finite(p, n2, params=params)) == want, c


@settings(max_examples=8, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.data())
def test_frobenius_and_rescaling_over_cubic_fields(p, data):
    # mu3 drawn over F_{p^3}, at q = p (q = 4 at p = 2)
    field = field_create(p, 3)
    mu3 = data.draw(st.sampled_from([a for a in field.elements() if not in_prime_field(a)]))
    try:
        base = params_from_mu3(mu3)
    except DenominatorZero:
        return
    n2 = 2 if p == 2 else 1
    run = run_finite(p, n2, mu3=mu3)
    assert _summary(run, frobenius) == _summary(run_finite(p, n2, mu3=frobenius(mu3)))
    c = field.generator()
    params = ToralParams(c * base.sigma, c * base.rho, c ** p * base.eps)
    assert _summary(run_finite(p, n2, params=params)) == _summary(run)
