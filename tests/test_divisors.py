from fractions import Fraction
from itertools import combinations
from math import factorial

import pytest

from sftlab import io as sio
from sftlab.divisors import (
    TARGET_RULES, VARIANTS, DivisorExpression, Splitting, as_pair_divisor,
    averaged_psi, enumerate_splittings, ledger_check, m05_intersection,
    m05_pair_index, map_zero_locus, pair_count, restriction_check,
    solve_combination, zero_locus_weight,
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


def test_unknown_variants_rejected():
    for variant in ("AB", "", "D"):
        with pytest.raises(ValidationError, match="unknown variant"):
            map_zero_locus(2, 1, 1, variant)


# -- the written-out rules, as an oracle for the pair counts ---------------------


def _oracle_coefficient(variant, r1, r2, p2):
    a = Fraction(p2 * (p2 - 1), 2)
    if variant == "A":
        return a
    if variant == "B":
        return Fraction(r2 * p2 * (p2 + 1), 2) + (r1 - 1) * a
    return (Fraction(r2 * (r2 - 1), 2) * Fraction((p2 + 2) * (p2 + 1), 2)
            + r2 * (r1 - 1) * Fraction(p2 * (p2 + 1), 2)
            + Fraction((r1 - 1) * (r1 - 2), 2) * a)


ORACLE_LHS = {
    "A": lambda r, p: Fraction(p * (p - 1), 2),
    "B": lambda r, p: Fraction((r - 1) * p * (p + 1), 2),
    "C": lambda r, p: Fraction((r - 1) * (r - 2), 2) * Fraction((p + 2) * (p + 1), 2),
}

ORACLE_TARGETS = {
    "two-punctures": (lambda r2, p2: Fraction(p2 * (p2 - 1), 2),
                      lambda r, p: Fraction(p * (p - 1), 2)),
    "puncture-point": (lambda r2, p2: Fraction(r2 * p2),
                       lambda r, p: Fraction((r - 1) * p)),
    "two-points": (lambda r2, p2: Fraction(r2 * (r2 - 1), 2),
                   lambda r, p: Fraction((r - 1) * (r - 2), 2)),
}


def _oracle_averaged_psi(n, i):
    points = set(range(1, n + 1))
    base = Fraction(factorial(n - 3), factorial(n - 1))
    out = {}
    for k in range(2, n - 1):
        coeff = base * Fraction(factorial(k), factorial(k - 2))
        for j_side in combinations(sorted(points - {i}), k):
            out[Splitting(tuple(sorted(points - set(j_side))), j_side)] = coeff
    return out


def _oracle_splittings(r, pos, neg):
    marked = set(range(1, r + 1))
    out = []
    for jk in range(0, r):
        for j_side in combinations(sorted(marked - {1}), jk):
            i_side = tuple(sorted(marked - set(j_side)))
            for pk in range(0, pos + 1):
                for p_side2 in combinations(range(1, pos + 1), pk):
                    p_side1 = tuple(sorted(set(range(1, pos + 1)) - set(p_side2)))
                    for nk in range(0, neg + 1):
                        for n_side2 in combinations(range(1, neg + 1), nk):
                            n_side1 = tuple(sorted(set(range(1, neg + 1))
                                                   - set(n_side2)))
                            out.append(Splitting(i_side, j_side, p_side1, p_side2,
                                                 n_side1, n_side2))
    return out


def test_zero_locus_weights_match_the_written_out_coefficients():
    for variant, m in VARIANTS.items():
        for r1 in range(1, 8):
            for r2 in range(8):
                for p2 in range(8):
                    assert zero_locus_weight(m, r1, r2, p2) == \
                        _oracle_coefficient(variant, r1, r2, p2)


def test_target_pair_counts_match_the_written_out_rules():
    assert list(TARGET_RULES) == list(ORACLE_TARGETS)
    for target, m in TARGET_RULES.items():
        rule, _ = ORACLE_TARGETS[target]
        for r2 in range(8):
            for p2 in range(8):
                assert pair_count(m, r2, p2) == rule(r2, p2)


def test_lhs_factors_are_the_rules_at_one_point_against_the_rest():
    for r in range(1, 9):
        for p in range(9):
            for variant, m in VARIANTS.items():
                assert zero_locus_weight(m, 1, r - 1, p) == ORACLE_LHS[variant](r, p)
            for target, m in TARGET_RULES.items():
                assert pair_count(m, r - 1, p) == ORACLE_TARGETS[target][1](r, p)


def test_map_zero_locus_matches_the_written_out_rules():
    for r, pos, neg in ((1, 0, 0), (1, 2, 1), (2, 1, 1), (3, 2, 1), (4, 0, 2)):
        for variant in VARIANTS:
            lhs, expr = map_zero_locus(r, pos, neg, variant)
            assert type(lhs) is Fraction
            assert lhs == ORACLE_LHS[variant](r, pos + neg)
            want = {s: _oracle_coefficient(variant, s.r1, s.r2, s.p2)
                    for s in _oracle_splittings(r, pos, neg)}
            assert expr == DivisorExpression(want)


def test_splitting_order_matches_the_nested_enumeration():
    for r, pos, neg in ((1, 0, 0), (1, 2, 0), (3, 1, 2), (4, 2, 2), (5, 0, 1)):
        assert enumerate_splittings(r, pos, neg) == _oracle_splittings(r, pos, neg)


def test_averaged_psi_matches_the_factorial_formula():
    for n in range(3, 10):
        for i in range(1, n + 1):
            e = averaged_psi(n, i)
            assert e == DivisorExpression(_oracle_averaged_psi(n, i))
            assert list(e.coefficients) == list(_oracle_averaged_psi(n, i))
