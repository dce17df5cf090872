import json

import pytest

from oracles import Subspace, centralizer_in, oracle_component
from thinlie.cartan import build_H2_phi1, phi1_monomials
from thinlie.errors import (
    ConsecutiveDiamonds,
    MalformedDiamond,
    NotStabilized,
)
from thinlie.ffield import field_create, in_prime_field
from thinlie.grading import (
    ToralParams,
    eigenbasis,
    generator_positions,
    grade_finite,
    grade_mixed,
    params_from_mu3,
)
from thinlie.liealg import DegreeMap, StructureTable, bracket
from thinlie.thinloop import (
    INFINITY,
    check_covering,
    choose_generators,
    classify_type,
    loop_expand,
    parameter_k,
    thin_report,
)

F3 = field_create(3)


def mixed_setup(p=3, n1=1, n2=1):
    fieldspec = field_create(p)
    table = build_H2_phi1(p, n1, n2, fieldspec, 1)
    dm = grade_mixed(table, p ** n2, p ** n1)
    mons = phi1_monomials(p, n1, n2)
    idx = {m: i for i, m in enumerate(mons)}
    return table, dm, table.basis_element(idx[(1, 0)]), table.basis_element(idx[(0, p ** n2 - 1)])


def finite_setup(p, k, n2=1, mu3=None):
    fieldspec = field_create(p, k)
    mu3 = mu3 or fieldspec.generator()
    params = params_from_mu3(mu3)
    basis = eigenbasis(params, p ** n2)
    dm = grade_finite(basis)
    x_pos, y_pos = generator_positions(basis)
    et = basis.eigen_table
    return basis, et, dm, et.basis_element(x_pos), et.basis_element(y_pos), params


def test_loop_expand_dims_and_coincidence():
    table, dm, x, y = mixed_setup()
    expansion = loop_expand(table, dm, 12)
    assert expansion.dims == [2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1]
    assert expansion.coincidence


def test_loop_expand_abelian_base_dies():
    t = StructureTable.from_entries(F3, ["a", "b"], [])
    expansion = loop_expand(t, DegreeMap(3, (1, 1)), 6)
    assert expansion.dims == [2, 0, 0, 0, 0, 0]
    assert not expansion.coincidence


def test_loop_components_respect_degree_classes():
    table, dm, x, y = mixed_setup(5, 1, 1)
    expansion = loop_expand(table, dm, 25)
    for d in range(1, expansion.depth + 1):
        for e in oracle_component(expansion, d).basis_elements():
            degrees = {dm.degrees[i] for i in e.coords}
            assert degrees <= {d % dm.modulus}


def test_periodicity_once_coincident():
    table, dm, x, y = mixed_setup()
    expansion = loop_expand(table, dm, 20)
    n = dm.modulus
    for d in range(1, expansion.depth - n + 1):
        assert oracle_component(expansion, d) == oracle_component(expansion, d + n)


def _vxx_vyy(expansion, q, gens):
    """[V,X,X] and [V,Y,Y] for the returned X and Y, V spanning M_{q-1}."""
    (v,) = oracle_component(expansion, q - 1).basis_elements()
    return bracket(bracket(v, gens.X), gens.X), bracket(bracket(v, gens.Y), gens.Y)


def test_choose_generators_automatic_matches_theorem():
    # the theorem's Y spans the annihilator of M_2 in M_1, and its X needs
    # no correction
    basis, et, dm, x, y, params = finite_setup(5, 2)
    expansion = loop_expand(et, dm, 30)
    m1, m2 = oracle_component(expansion, 1), oracle_component(expansion, 2)
    assert centralizer_in(et, m1, m2) == Subspace.from_elements(et, [y])
    gens = choose_generators(expansion, q=5, X=x, Y=y)
    assert (gens.X, gens.Y) == (x, y) and not gens.alpha
    assert not any(_vxx_vyy(expansion, 5, gens))
    # second-diamond certificate: c_YX = -2 c_XY
    assert gens.c_yx == et.field.element(-2) * gens.c_xy


def test_choose_generators_normalizes_skewed_x():
    basis, et, dm, x, y, params = finite_setup(5, 2)
    expansion = loop_expand(et, dm, 30)
    gens = choose_generators(expansion, q=5, X=x + y, Y=y)
    assert gens.alpha and not _vxx_vyy(expansion, 5, gens)[0]
    # the normalized X is again a multiple of the distinguished eigenvector
    assert Subspace.from_elements(et, [gens.X]) == Subspace.from_elements(et, [x])


def test_choose_generators_q3_has_no_annihilator():
    # the annihilator of M_2 in M_1 is not a line, so Y must come from the grading
    basis, et, dm, x, y, params = finite_setup(3, 2)
    expansion = loop_expand(et, dm, 13)
    assert centralizer_in(et, oracle_component(expansion, 1), oracle_component(expansion, 2)).dim != 1
    gens = choose_generators(expansion, q=3, X=x, Y=y)
    assert not any(_vxx_vyy(expansion, 3, gens))


def test_covering_passes_on_theorem_gradings():
    table, dm, x, y = mixed_setup()
    expansion = loop_expand(table, dm, 12)
    assert check_covering(expansion, x, y).ok


def test_covering_fails_for_rho_zero():
    # eps = 0, rho = 0: {e_{1,0}, Y} = 0 = {e_{0,-sigma}, Y} kills covering
    params = ToralParams(F3.one, F3.zero, F3.zero)
    basis = eigenbasis(params, 3)
    dm = grade_finite(basis)
    x_pos, y_pos = generator_positions(basis)
    et = basis.eigen_table
    expansion = loop_expand(et, dm, 12)
    report = check_covering(expansion, et.basis_element(x_pos), et.basis_element(y_pos))
    assert not report.ok


def test_classify_consecutive_diamonds_error():
    table, dm, x, y = mixed_setup()
    expansion = loop_expand(table, dm, 8)
    v = oracle_component(expansion, 2).basis_elements()[0]
    two_dim = expansion.components[2]
    assert len(two_dim) == 2
    with pytest.raises(ConsecutiveDiamonds) as exc:
        classify_type(v, x, y, two_dim, two_dim, 3)
    assert exc.value.degree == 3


def test_classify_malformed_diamond_error():
    w = __import__("thinlie.cartan", fromlist=["build_W1n"]).build_W1n(5, 1)
    v, x, y = w.basis_element(0), w.basis_element(2), w.basis_element(1)
    slot = tuple(sorted(set(bracket(v, x).coords) | set(bracket(v, y).coords)))
    assert len(slot) == 2
    with pytest.raises(MalformedDiamond) as exc:
        classify_type(v, x, y, slot, (), 4)
    assert exc.value.degree == 4


def test_detect_diamonds_progression_and_degrees():
    basis, et, dm, x, y, params = finite_setup(3, 2)
    rep = thin_report(et, dm, q=3, depth=18, X=x, Y=y)
    step = params.sigma / params.rho
    for rec in rep.diamonds:
        assert rec.degree == (rec.ordinal - 1) * 2 + 1
        if rec.ordinal > 1:
            assert rec.type == -et.field.one + et.field.element(rec.ordinal - 2) * step
    # consecutive genuine diamonds differ by sigma/rho
    types = [r.type for r in rep.diamonds if r.ordinal > 1]
    for a, b in zip(types, types[1:]):
        assert b - a == step


def test_distinct_mu3_give_distinct_type_sequences():
    f9 = field_create(3, 2)
    sequences = []
    for mu3 in f9.elements():
        if in_prime_field(mu3):
            continue
        basis, et, dm, x, y, params = finite_setup(3, 2, mu3=mu3)
        rep = thin_report(et, dm, q=3, depth=13, X=x, Y=y)
        sequences.append(tuple(str(r.type) for r in rep.diamonds if r.ordinal > 1))
    assert len(sequences) == 6
    assert len(set(sequences)) == 6


def test_infinite_type_consistency():
    table, dm, x, y = mixed_setup(5, 1, 1)
    rep = thin_report(table, dm, q=5, depth=60, X=x, Y=y)
    expansion = rep.expansion
    for rec in rep.diamonds:
        if rec.type is INFINITY:
            v = oracle_component(expansion, rec.degree - 1).basis_elements()[0]
            c1 = bracket(bracket(v, rep.generators.X), rep.generators.Y)
            c2 = bracket(bracket(v, rep.generators.Y), rep.generators.X)
            assert c1 and c1 + c2 == table.element({})


def test_centralizer_chain_verdicts():
    basis, et, dm, x, y, params = finite_setup(5, 2)
    rep = thin_report(et, dm, q=5, depth=60, X=x, Y=y)
    assert rep.chains.first_ok and rep.chains.first_range == (2, 3)
    assert rep.chains.second_ok
    assert "q != 5" in rep.chains.proviso  # q = 5 sits outside the second-chain guarantee


def test_proviso_for_small_parameters():
    basis, et, dm, x, y, params = finite_setup(3, 2)
    rep = thin_report(et, dm, q=3, depth=13, X=x, Y=y)
    assert rep.chains.first_ok and rep.chains.second_ok  # vacuous ranges
    assert "only guaranteed" in rep.chains.proviso


def test_parameter_k_values():
    table, dm, x, y = mixed_setup()
    expansion = loop_expand(table, dm, 18)
    assert parameter_k(expansion) == 5  # q = 3 forces k = 2q - 1 = 5


def test_parameter_k_rejects_abelian():
    t = StructureTable.from_entries(F3, ["a", "b"], [])
    expansion = loop_expand(t, DegreeMap(3, (1, 1)), 9)
    with pytest.raises(NotStabilized):
        parameter_k(expansion)


def test_thin_report_json_schema():
    table, dm, x, y = mixed_setup()
    rep = thin_report(table, dm, q=3, depth=12, X=x, Y=y)
    payload = rep.to_json()
    assert set(payload) >= {
        "dims", "diamonds", "k", "covering", "chains", "generators", "coincidence",
    }
    text = json.dumps(payload)
    parsed = json.loads(text)
    assert parsed["covering"] == "PASS"
    assert parsed["diamonds"][1] == {"degree": 3, "ordinal": 2, "kind": "genuine", "type": [2]}


def test_thin_report_rejects_zero_depth():
    table, dm, x, y = mixed_setup()
    with pytest.raises(ValueError, match="depth must be positive"):
        thin_report(table, dm, q=3, depth=0, X=x, Y=y)
