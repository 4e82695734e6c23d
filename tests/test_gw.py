from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from sftlab.algebra import TruncationPolicy
from sftlab.errors import MissingPrimaryError, ValidationError
from sftlab.gw import (
    Bounds, CorrelatorTable, QuantumProduct, Reconstructor, TargetModel,
    assemble_potential, averaged_trr_residual, correlator_from_potential,
    enumerate_keys, quantum_product, reconstruct, restrict_series_max_t_order,
    string_dilaton_divisor_residuals, trr_residual,
)
from sftlab.gw_oracle import (
    point_correlator, point_correlator_closed_form, two_point_correlator,
)
from sftlab.models import point_model, projective_line_model, two_point_model


@pytest.fixture(scope="module")
def point_table():
    return reconstruct(point_model(), Bounds(max_points=8, max_level=5))


@pytest.fixture(scope="module")
def toy_table():
    return reconstruct(two_point_model(), Bounds(max_points=7, max_level=3))


# -- oracles -----------------------------------------------------------------


def test_oracle_agrees_with_closed_form():
    for n in range(3, 9):
        for levels in combinations_with_replacement(range(6), n):
            assert point_correlator(tuple(levels)) == \
                point_correlator_closed_form(tuple(levels))


def test_point_examples(point_table):
    m = point_model()
    assert point_table.get(m.key([("e", 0)] * 3)) == 1
    assert point_table.get(m.key([("e", 1)] + [("e", 0)] * 3)) == 1
    assert point_table.get(m.key([("e", 1)] * 2 + [("e", 0)] * 3)) == 2


def test_point_reconstruction_matches_oracle(point_table):
    m = point_model()
    for n in range(3, 9):
        for levels in combinations_with_replacement(range(6), n):
            key = m.key([("e", a) for a in levels])
            assert point_table.get(key) == point_correlator(tuple(levels))


def test_two_point_reconstruction_matches_oracle(toy_table):
    m = two_point_model()
    for key in enumerate_keys(m, Bounds(max_points=7, max_level=3)):
        assert toy_table.get(key) == two_point_correlator(key.insertions)


def test_choice_independence_point():
    from itertools import combinations
    m = point_model()
    bounds = Bounds(max_points=7, max_level=3)
    base = reconstruct(m, bounds)
    for key in list(base.values):
        ins = list(key.insertions)
        target = max(range(len(ins)), key=lambda i: (ins[i][1], ins[i][0]))
        if ins[target][1] < 1 or len(ins) < 3:
            continue
        for bi, gi in combinations(range(len(ins) - 1), 2):
            def chooser(k, tgt, b=bi, g=gi, key0=key):
                if k == key0:
                    return b, g
                other = list(range(len(k.insertions) - 1))
                return other[0], other[1]
            rec = Reconstructor(m, bounds, trr_choice=chooser)
            assert rec.value(key) == base.get(key)


def test_missing_primary_reported():
    m = TargetModel("bare", [("e", 0)], "e", [[1]])
    rec = Reconstructor(m, Bounds(3, 0))
    with pytest.raises(MissingPrimaryError):
        rec.value(m.key([("e", 0)] * 3))


def test_dimension_filter_zeroes(point_table):
    m = point_model()
    # wrong level sum: dimension filter kills it
    assert point_table.get(m.key([("e", 2)] + [("e", 0)] * 2)) == 0


# -- model validation -----------------------------------------------------------


def test_singular_eta_rejected():
    with pytest.raises(ValidationError, match="eta not invertible"):
        TargetModel("bad", [("a", 0), ("b", 0)], "a", [[1, 1], [1, 1]])


def test_eta_degree_compatibility():
    with pytest.raises(ValidationError):
        TargetModel("bad", [("a", 0), ("b", 2)], "a", [[1, 1], [1, 1]])


def test_primary_with_descendant_rejected():
    m = point_model()
    with pytest.raises(ValidationError):
        m.add_primary(m.key([("e", 1), ("e", 0), ("e", 0)]), 1)


def test_table_dimension_filter():
    m = point_model()
    t = CorrelatorTable(m)
    with pytest.raises(ValidationError):
        t.set(m.key([("e", 1)] + [("e", 0)] * 2), 1)


# -- potential and residuals -------------------------------------------------------


def test_potential_round_trip(point_table):
    m = point_model()
    policy = TruncationPolicy(max_t_order=8)
    f = assemble_potential(point_table, policy, max_level=5)
    for key, v in point_table.values.items():
        assert correlator_from_potential(f, m, key) == v


def test_single_entry_potential():
    m = point_model()
    t = CorrelatorTable(m)
    t.set(m.key([("e", 0)] * 3), 1)
    f = assemble_potential(t, TruncationPolicy(max_t_order=4), max_level=0)
    assert f == f.table.monomial({"t[e,0]": 3}, Fraction(1, 6))


def test_empty_table_potential():
    m = point_model()
    f = assemble_potential(CorrelatorTable(m), TruncationPolicy(), max_level=0)
    assert f.is_zero()


def _residual_setup(table, max_level):
    policy = TruncationPolicy(max_t_order=table.bounds.max_points)
    f = assemble_potential(table, policy, max_level=max_level)
    return policy, f


def test_trr_residuals_zero(point_table):
    policy, f = _residual_setup(point_table, 5)
    for i, j, k in ((1, 0, 0), (1, 1, 0), (2, 0, 0), (3, 1, 2)):
        r = trr_residual(point_table, ("e", i), ("e", j), ("e", k), policy,
                         potential=f)
        assert restrict_series_max_t_order(r, 5).is_zero()


def test_trr_residuals_zero_toy(toy_table):
    policy, f = _residual_setup(toy_table, 3)
    for alpha in ("1", "x"):
        for beta, gamma in ((("x", 0), ("x", 0)), (("1", 0), ("x", 1))):
            r = trr_residual(toy_table, (alpha, 1), beta, gamma, policy,
                             potential=f)
            assert restrict_series_max_t_order(r, 4).is_zero()


def test_averaged_trr_zero(point_table, toy_table):
    policy, f = _residual_setup(point_table, 5)
    for i in (1, 2):
        r = averaged_trr_residual(point_table, "e", i, policy, potential=f)
        assert restrict_series_max_t_order(r, 5).is_zero()
    policy, f = _residual_setup(toy_table, 3)
    r = averaged_trr_residual(toy_table, "x", 1, policy, potential=f)
    assert restrict_series_max_t_order(r, 4).is_zero()


def test_vacuous_level_is_zero(point_table):
    policy, f = _residual_setup(point_table, 5)
    # a level with no entries in bounds: vacuously zero
    r = averaged_trr_residual(point_table, "e", 5, policy, potential=f)
    assert restrict_series_max_t_order(r, 5).is_zero()


def test_fault_injection_detected(point_table):
    m = point_model()
    bad = point_table.perturbed(m.key([("e", 1)] + [("e", 0)] * 3), 2)
    policy = TruncationPolicy(max_t_order=8)
    f = assemble_potential(bad, policy, max_level=5)
    r = trr_residual(bad, ("e", 1), ("e", 0), ("e", 0), policy, potential=f)
    assert not restrict_series_max_t_order(r, 5).is_zero()
    ra = averaged_trr_residual(bad, "e", 1, policy, potential=f)
    assert not restrict_series_max_t_order(ra, 5).is_zero()


def test_string_dilaton(point_table):
    policy, f = _residual_setup(point_table, 5)
    eq = string_dilaton_divisor_residuals(point_table, policy, potential=f,
                                          max_level=5)
    assert restrict_series_max_t_order(eq.string, 7).is_zero()
    assert restrict_series_max_t_order(eq.dilaton, 7).is_zero()
    assert not eq.divisor_applicable
    # the alternative sign and quadratic normalizations fail inside the window
    alt = string_dilaton_divisor_residuals(point_table, policy, potential=f,
                                           max_level=5, euler_sign=+1)
    assert not restrict_series_max_t_order(alt.dilaton, 5).is_zero()
    alt = string_dilaton_divisor_residuals(point_table, policy, potential=f,
                                           max_level=5, quad_factor=Fraction(1))
    assert not restrict_series_max_t_order(alt.string, 5).is_zero()


# -- curve-class model --------------------------------------------------------------


@pytest.fixture(scope="module")
def p1_table():
    return reconstruct(projective_line_model(),
                       Bounds(max_points=6, max_level=2, max_degree=2))


def test_p1_divisor_reduction(p1_table):
    m = projective_line_model()
    # all-point correlators on the line via the divisor fallback
    assert p1_table.get(m.key([("pt", 0)] * 3, (1,))) == 1
    assert p1_table.get(m.key([("pt", 0)] * 4, (1,))) == 1
    assert p1_table.get(m.key([("pt", 0)] * 5, (1,))) == 1


def test_p1_quantum_product(p1_table):
    m = projective_line_model()
    qp = quantum_product(m, p1_table)
    assert not qp.unit_axiom_violations()
    assert not qp.associativity_residuals()
    # pt * pt = z * 1
    assert qp.constant(1, 1, 0) == {(1,): Fraction(1)}
    assert qp.constant(1, 1, 1) == {}


def test_p1_wdvv_detects_a_perturbed_constant(p1_table):
    m = projective_line_model()
    structure = dict(quantum_product(m, p1_table).structure)
    structure[(1, 0, 1)] = {(0,): Fraction(2)}  # pt * 1 = 2 pt, 1 * pt = pt
    assert QuantumProduct(m, structure).associativity_residuals() == {
        (0, 0, 1, 1): {(0,): -1}, (0, 1, 0, 1): {(0,): 1},
        (1, 0, 1, 0): {(1,): 1}, (1, 1, 0, 0): {(1,): -1}}


def test_p1_trr_internal_consistency(p1_table):
    policy = TruncationPolicy(max_t_order=6)
    f = assemble_potential(p1_table, policy, max_level=2)
    r = trr_residual(p1_table, ("pt", 1), ("pt", 0), ("pt", 0), policy,
                     potential=f)
    assert restrict_series_max_t_order(r, 3).is_zero()


def test_p1_divisor_equation_boundary(p1_table):
    # characterization: the stability convention (no 2-point values) leaves
    # a boundary term 1/2 t_pt^2 z in the divisor residual at t-order 2
    policy = TruncationPolicy(max_t_order=6)
    f = assemble_potential(p1_table, policy, max_level=2)
    eq = string_dilaton_divisor_residuals(p1_table, policy, potential=f,
                                          max_level=2)
    assert eq.divisor_applicable
    low = restrict_series_max_t_order(eq.divisor, 2)
    vt = eq.divisor.table
    assert low == vt.monomial({"t[pt,0]": 2, "z0": 1}, Fraction(1, 2))
    # the z-free sector of the residual vanishes
    zfree = eq.divisor.map_terms(
        lambda mo: 1 if all(vt.variables[p].kind != "z" for p, _ in mo) else 0)
    assert restrict_series_max_t_order(zfree, 5).is_zero()


def test_negative_curve_class_rejected():
    m = projective_line_model()
    with pytest.raises(ValidationError):
        m.key([("pt", 0)] * 3, (-1,))
