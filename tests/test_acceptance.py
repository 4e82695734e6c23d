"""Acceptance checks: one test per shipped guarantee, at full scale.

Every residual here is an exact rational (or exact series) identity; a
criterion passes only when the residual is identically zero, and each test
prints a one-line verdict so the suite output doubles as the acceptance
report.  Runtime limits are part of the criteria and asserted.
"""

import time
from fractions import Fraction
from itertools import combinations_with_replacement

from sftlab import cylhom, divisors, gw, gw_oracle, hierarchy, io as sio
from sftlab.algebra import TruncationPolicy
from sftlab.models import point_model, two_point_model
from sftlab.report import FAIL, PASS
from sftlab.suites import algebra_suite, default_cylhom_fixtures


def _verdict(name, ok, extra=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if extra:
        line += f" ({extra})"
    print(line)
    assert ok, name


def test_criterion_1_algebra_axioms():
    """Graded antisymmetry, Jacobi, Leibniz, super-commutativity: exact
    residual 0 on >= 1000 randomized series, under one minute."""
    t0 = time.monotonic()
    report = algebra_suite(samples=1000, seed=20240)
    dt = time.monotonic() - t0
    randomized = [c for c in report.checks if c.id.startswith("random.")]
    ok = all(c.status == PASS for c in randomized) and dt < 60
    _verdict("criterion 1: algebra axioms on 1000 randomized series", ok,
             f"{dt:.1f}s")


def test_criterion_2_weyl_relations():
    """[p,q] = kappa*hbar for kappa in {1,2,3}; hbar-divisibility; the
    hbar-linear term is the bracket on even hbar-free inputs."""
    report = algebra_suite(samples=200, seed=7)
    wanted = [c for c in report.checks
              if c.id.startswith("weyl.kappa")
              or c.id in ("random.hbar-divisibility", "random.hbar-linear-term")]
    assert len(wanted) == 5
    _verdict("criterion 2: Weyl relations and bracket correspondence",
             all(c.status == PASS for c in wanted))


def test_criterion_3_kdv_commutativity():
    """{g_i, g_j} = 0 exactly for 0 <= i,j <= 3 at cover bound 6, within
    five minutes (exact window of the untruncated bracket)."""
    t0 = time.monotonic()
    residuals, _ = hierarchy.commutator_residuals([0, 1, 2, 3], 6)
    dt = time.monotonic() - t0
    ok = all(residuals[i][j].is_zero() for i in range(4) for j in range(4))
    _verdict("criterion 3: commuting circle Hamiltonians at cover 6",
             ok and dt < 300, f"{dt:.1f}s")


def test_criterion_4_point_reconstruction():
    """Reconstructed descendant values equal the independent forgetful-point
    oracle and the multinomial closed form for every n <= 8."""
    model = point_model()
    table = gw.reconstruct(model, gw.Bounds(max_points=8, max_level=5))
    ok = True
    for n in range(3, 9):
        for levels in combinations_with_replacement(range(6), n):
            key = model.key([("e", a) for a in levels])
            want = gw_oracle.point_correlator(tuple(levels))
            if want != gw_oracle.point_correlator_closed_form(tuple(levels)):
                ok = False
            if table.get(key) != want:
                ok = False
    _verdict("criterion 4: point-target reconstruction vs oracle, n <= 8", ok)


def test_criterion_5_trr_identities():
    """Recursion residuals exactly 0 on the reconstructed point and toy
    potentials up to t-order 5; perturbed tables are detected."""
    ok = True
    for model, max_level, max_points in ((point_model(), 4, 8),
                                         (two_point_model(), 3, 8)):
        bounds = gw.Bounds(max_points=max_points, max_level=max_level)
        table = gw.reconstruct(model, bounds)
        policy = TruncationPolicy(max_t_order=max_points)
        f = gw.assemble_potential(table, policy, max_level=max_level)
        cls = model.classes[-1].id
        unit = model.unit
        for i in (1, 2):
            r = gw.trr_residual(f, model, (cls, i), (unit, 0), (cls, 0))
            if not gw.restrict_series_max_t_order(r, 5).is_zero():
                ok = False
            ra = gw.averaged_trr_residual(f, model, cls, i)
            if not gw.restrict_series_max_t_order(ra, 5).is_zero():
                ok = False
        bad_key = model.key([(cls, 1)] + [(unit, 0)] * 3)
        bad = table.perturbed(bad_key, table.get(bad_key) + 1)
        fb = gw.assemble_potential(bad, policy, max_level=max_level)
        rb = gw.trr_residual(fb, model, (cls, 1), (unit, 0), (unit, 0))
        if gw.restrict_series_max_t_order(rb, 5).is_zero():
            ok = False
    _verdict("criterion 5: recursion identities exact to t-order 5, faults "
             "detected", ok)


def test_criterion_6_averaged_psi():
    """Averaged locus coefficients 1/3 and {1/2, 1/6}; the five-point
    pairing table; ledger sums -1/2 and -1/6."""
    e4 = divisors.averaged_psi(4, 1)
    ok = set(e4.coefficients.values()) == {Fraction(1, 3)}
    e5 = divisors.averaged_psi(5, 1)
    for s, c in e5.coefficients.items():
        lab = divisors.as_pair_divisor(s, 5)
        ok = ok and c == (Fraction(1, 2) if 1 in lab else Fraction(1, 6))
    ok = ok and divisors.m05_pair_index(frozenset({1, 2}), frozenset({3, 4})) == 1
    ok = ok and divisors.m05_pair_index(frozenset({1, 2}), frozenset({1, 3})) == 0
    ok = ok and divisors.m05_pair_index(frozenset({1, 2}), frozenset({1, 2})) == -1
    ledger = sio.load_ledger(sio.fixture_path("m05_ledger.json"))
    ok = ok and not divisors.ledger_check(ledger)
    sums = {tuple(item["divisor"]): sum((Fraction(i) for _, i in item["at"]),
                                        Fraction(0))
            for item in ledger["self_intersections"]}
    ok = ok and sums[(1, 5)] == Fraction(-1, 2) and sums[(3, 4)] == Fraction(-1, 6)
    ok = ok and not divisors.restriction_check(ledger["restrictions"])
    ok = ok and divisors.m05_intersection(e5, e5) == 1
    _verdict("criterion 6: averaged psi coefficients, pairing table, ledgers",
             ok)


def test_criterion_7_floer_model_suite():
    """d^2 = 0; zero off-diagonal block; equivariant residuals equal the
    fixed-period restriction block by block; contact vanishing; action
    axioms.  Under one minute."""
    t0 = time.monotonic()
    data = default_cylhom_fixtures()["(2,0)"]
    r, _ = cylhom.d_squared_residual(data)
    ok = r.is_zero()
    ok = ok and not cylhom.build_differential(data).plain.block("check", "hat")
    for variant in ("(2,0)", "(1,1)", "(0,2)"):
        cmp = cylhom.compare_equivariant_floer(data, variant)
        ok = ok and cmp.hat_check_equal and cmp.floer_match
    cv = cylhom.contact_vanishing(data)
    ok = ok and cv.applicable and cv.passed
    qa = cylhom.quantum_action(data)
    ok = ok and qa.descends and qa.unit_ok and qa.composition_ok
    dt = time.monotonic() - t0
    _verdict("criterion 7: split-model chain-complex suite", ok and dt < 60,
             f"{dt:.1f}s")


def test_criterion_8_combination_solver():
    """Exact rational weights (or a concrete certificate) for every target
    at (r,P) in {(2,2),(3,3),(4,4)}; outcomes recorded."""
    ok = True
    findings = []
    for (r, p) in ((2, 2), (3, 3), (4, 4)):
        pos, neg = p // 2, p - p // 2
        exprs = [divisors.map_zero_locus(r, pos, neg, v) for v in "ABC"]
        for target in divisors.TARGET_RULES:
            f = divisors.solve_combination(exprs, target, r, p)
            findings.append(f"(r={r},P={p}) {f.describe()}")
            resolved = f.degenerate or f.feasible or bool(f.certificate)
            ok = ok and resolved
            if f.feasible:
                ok = ok and f.lhs_consistent
    for line in findings:
        print("   ", line)
    _verdict("criterion 8: exact combination weights recorded", ok)
