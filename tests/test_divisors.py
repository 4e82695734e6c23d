from fractions import Fraction

import pytest

from sftlab import io as sio
from sftlab.divisors import (
    DivisorExpression, Splitting, as_pair_divisor, averaged_psi,
    enumerate_splittings, ledger_check, m05_intersection, m05_pair_index,
    map_zero_locus, restriction_check, solve_combination,
)
from sftlab.errors import ValidationError
from sftlab.gw_oracle import point_correlator


def _shipped_ledger():
    return sio.load_ledger(sio.fixture_path("m05_ledger.json"))


def test_four_point_coefficients():
    e = averaged_psi(4, 1)
    assert len(e.coefficients) == 3
    assert set(e.coefficients.values()) == {Fraction(1, 3)}


def test_five_point_coefficients():
    e = averaged_psi(5, 1)
    halves = [s for s, c in e.coefficients.items() if c == Fraction(1, 2)]
    sixths = [s for s, c in e.coefficients.items() if c == Fraction(1, 6)]
    assert len(halves) == 4 and len(sixths) == 6
    for s in halves:
        assert 1 in as_pair_divisor(s, 5)
    for s in sixths:
        assert 1 not in as_pair_divisor(s, 5)


def test_three_point_empty():
    assert not averaged_psi(3, 1).coefficients


def test_symmetry_under_point_permutations():
    # coefficients depend only on which side holds the descendant point
    e = averaged_psi(5, 2)
    for s, c in e.coefficients.items():
        assert (c == Fraction(1, 2)) == (2 in as_pair_divisor(s, 5))


def test_pairing_table():
    a, b, c = frozenset({1, 2}), frozenset({3, 4}), frozenset({1, 5})
    assert m05_pair_index(a, b) == 1
    assert m05_pair_index(a, a) == -1
    assert m05_pair_index(a, c) == 0


def test_psi_square_against_descendant_oracle():
    e = averaged_psi(5, 1)
    assert m05_intersection(e, e) == point_correlator((2, 0, 0, 0, 0)) == 1


def test_pairing_rejects_map_splittings():
    s = Splitting((1,), (2,), (1,), (), (), ())
    with pytest.raises(ValidationError):
        as_pair_divisor(s, 5)


def test_ledger_consistency_and_fault():
    ledger = _shipped_ledger()
    assert ledger_check(ledger) == []
    bad = {
        "self_intersections": [dict(ledger["self_intersections"][0])],
        "cross_intersections": [],
    }
    bad["self_intersections"][0] = dict(bad["self_intersections"][0])
    bad["self_intersections"][0]["at"] = [
        [loc, str(-Fraction(i))] for loc, i in
        ledger["self_intersections"][0]["at"]]
    violations = ledger_check(bad)
    assert violations and violations[0].expected == Fraction(-1, 2)


def test_restriction_coherence():
    assert restriction_check(_shipped_ledger()["restrictions"]) == []
    broken = {"3,4": [{"at": [1, 5], "contributions": [["x", "1/6"]]}]}
    assert restriction_check(broken)


def test_variant_a_coefficients_vanish_for_small_p2():
    _, expr = map_zero_locus(3, 2, 1, "A")
    for s, c in expr.coefficients.items():
        assert s.p2 >= 2 and c == Fraction(s.p2 * (s.p2 - 1), 2)


def test_variant_b_reduces_when_r1_is_one():
    _, expr = map_zero_locus(2, 1, 1, "B")
    for s, c in expr.coefficients.items():
        if s.r1 == 1:
            assert c == Fraction(s.r2 * s.p2 * (s.p2 + 1), 2)


def test_splitting_enumeration_counts():
    # r marked with i fixed on side 1, each puncture free: 2^(r-1) * 2^P
    outs = enumerate_splittings(3, 1, 1)
    assert len(outs) == 2 ** 2 * 2 * 2


def test_solver_findings():
    for (r, p) in ((2, 2), (3, 3), (4, 4)):
        pos, neg = p // 2, p - p // 2
        exprs = [map_zero_locus(r, pos, neg, v) for v in "ABC"]
        f1 = solve_combination(exprs, "two-punctures", r, p)
        assert f1.feasible and f1.weights == (1, 0, 0) and f1.lhs_consistent
        f2 = solve_combination(exprs, "puncture-point", r, p)
        assert f2.feasible and f2.weights == (-(r - 1), 1, 0) and f2.lhs_consistent
        f3 = solve_combination(exprs, "two-points", r, p)
        if r == 2:
            assert f3.degenerate
        else:
            want = (Fraction((r - 1) * (r - 2), 2), -(r - 2), 1)
            assert f3.feasible and f3.weights == want and f3.lhs_consistent


def test_solver_homogeneity():
    lhs, expr = map_zero_locus(3, 2, 1, "A")
    doubled = [(2 * lhs, expr.scale(2))]
    f = solve_combination(doubled, "two-punctures", 3, 3)
    assert f.feasible and f.weights == (Fraction(1, 2),)


def test_solver_infeasibility_certificate():
    lhs, expr = map_zero_locus(3, 2, 1, "A")
    f = solve_combination([(lhs, expr)], "two-points", 3, 3)
    assert not f.feasible and len(f.certificate) == 2
    assert f.describe() == ("two-points: infeasible, witnessed by "
                            "D(1,2,3;+1;-|+2;-1) vs D(1;+1;-|2,3;+2;-1)")


def test_empty_splitting_set_rejected():
    with pytest.raises(ValidationError):
        solve_combination([(1, DivisorExpression())], "two-punctures", 2, 2)


def test_restriction_of_five_to_four():
    # the three boundary points of each pair divisor are the disjoint pairs
    e = averaged_psi(5, 1)
    for s in e.coefficients:
        lab = as_pair_divisor(s, 5)
        if 1 in lab:
            continue
        partners = [frozenset(p) for p in
                    [(a, b) for a in range(1, 6) for b in range(a + 1, 6)]
                    if not (frozenset(p) & lab)]
        assert len(partners) == 3
