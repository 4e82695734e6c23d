"""The packed GradedSeries against the tuple-dict oracle (tests/tuple_series.py).

Every operation on the packed storage (sums, products, scaling,
derivatives, parity parts, truncation, windowed and full brackets, star
products and Weyl commutators) is compared with the same operation on the
tuple-dict series, term for term and in reduced storage: a result must
equal the series built afresh from the oracle's terms, which fails when a
denominator is left unreduced.  Exponents reach past the 5-, 6-, 7- and
8-bit field edges, and the operands include products of products, so the
re-pack to a wider key runs.
"""

import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sftlab import algebra
from sftlab.algebra import (
    QORBIT, PORBIT, TruncationPolicy, VariableTable, curve_class_variable,
    descendant_variable, orbit_variable_pair, planck_variable, poisson_bracket,
    star_product, weyl_commutator,
)
from sftlab.errors import DeclarationError
from sftlab.hierarchy import OrbitLattice, circle_hamiltonian, commutator_residuals

import tuple_series as oracle
from tuple_series import TupleSeries

LOOSE = TruncationPolicy(max_t_order=5000, max_cover=99, max_pq_order=5000,
                         max_hbar_order=5000)

# exponents on both sides of the field edges (a field of w bits holds
# |e| < 2^(w-1); a series gets room for twice its largest exponent)
EDGE_EXPONENTS = (1, 2, 3, 7, 8, 15, 16, 31, 32, 600)


def named(table, terms, policy):
    """Series of [({name: exponent}, coefficient)] terms."""
    return table.series({tuple(sorted((table.position(n), e) for n, e in m.items())): c
                         for m, c in terms}, policy)


def agrees(got, want):
    """got (packed) has want's (oracle) terms, policy and reduced storage."""
    assert got.terms == want.terms
    assert got.policy == want.policy
    assert got == got.table.series(want.terms, got.policy)


@st.composite
def kernel_case(draw):
    """Two series on a table with odd q/p, t, t-check, z and Laurent hbar,
    exponents drawn across the field edges."""
    half_dim = draw(st.sampled_from((1, 2)))
    variables = [planck_variable(half_dim)]
    for k in range(draw(st.integers(1, 2))):
        for cover in draw(st.lists(st.integers(1, 3), min_size=1, max_size=2,
                                   unique=True)):
            variables.extend(orbit_variable_pair(
                f"o{k}", cover, cz=draw(st.integers(-1, 1)), half_dim=half_dim,
                multiplicity=draw(st.integers(1, 3))))
    for level in range(draw(st.integers(0, 2))):
        variables.append(descendant_variable("a", level, draw(st.integers(0, 1))))
        variables.append(descendant_variable("a", level, draw(st.integers(0, 1)),
                                             checked=True))
    for position in range(draw(st.integers(0, 2))):
        variables.append(curve_class_variable(position, draw(st.integers(0, 1))))
    table = VariableTable(variables, half_dim=half_dim)
    return table, draw_series(draw, table), draw_series(draw, table)


def draw_series(draw, table):
    """Up to five terms of up to four letters, exponents across a field edge."""
    big = draw(st.sampled_from(EDGE_EXPONENTS))
    terms = {}
    for _ in range(draw(st.integers(1, 5))):
        mono = []
        for pos in sorted(draw(st.sets(st.integers(0, len(table) - 1),
                                       max_size=4))):
            v = table.variables[pos]
            if v.odd:
                e = 1
            elif v.kind in ("hbar", "z"):
                e = draw(st.integers(-big, big).filter(bool))
            else:
                e = draw(st.integers(1, big))
            mono.append((pos, e))
        coeff = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 6)))
        terms[tuple(mono)] = terms.get(tuple(mono), 0) + coeff
    return table.series(terms, LOOSE)


policies = st.one_of(
    st.just(LOOSE),
    st.builds(TruncationPolicy, max_t_order=st.integers(0, 4),
              max_cover=st.integers(1, 3), max_pq_order=st.integers(0, 80),
              max_hbar_order=st.integers(-600, 600)))


@settings(max_examples=120, deadline=None)
@given(kernel_case(), policies)
def test_product_matches_reference(case, policy):
    table, f, g = case
    f = f.truncate(policy)
    F, G = TupleSeries.of(f), TupleSeries.of(g)
    agrees(f * g, F * G)
    agrees(g * f, G * F)
    # a product of products may pass the width of its operands
    agrees((f * g) * (g * f), (F * G) * (G * F))


@settings(max_examples=120, deadline=None)
@given(kernel_case(), policies)
def test_bracket_matches_reference(case, policy):
    table, f, g = case
    F, G = TupleSeries.of(f), TupleSeries.of(g)
    agrees(poisson_bracket(f, g, policy), oracle.poisson_bracket(F, G, policy))
    agrees(poisson_bracket(f, g), oracle.poisson_bracket(F, G))
    agrees(poisson_bracket(f * g, g, policy),
           oracle.poisson_bracket(F * G, G, policy))


@settings(max_examples=120, deadline=None)
@given(kernel_case(), policies, st.fractions(max_denominator=7))
def test_linear_operations_and_derivatives_match_reference(case, policy, c):
    table, f, g = case
    F, G = TupleSeries.of(f), TupleSeries.of(g)
    agrees(f + g, F + G)
    agrees(f - g, F - G)
    agrees(-f, -F)
    agrees(f.scale(c), F.scale(c))
    agrees(f.truncate(policy), F.truncate(policy))
    agrees(f.truncate(policy) + g, F.truncate(policy) + G)
    for got, want in zip(f.parity_parts(), F.parity_parts()):
        agrees(got, want)
    fg, FG = f * g, F * G
    for name in table.names():
        agrees(f.derivative(name), F.derivative(name))
        # a Laurent exponent of a product may fall past the field edge
        agrees(fg.derivative(name), FG.derivative(name))
    assert (fg - fg).is_zero()
    assert fg == table.series(dict(fg.terms), fg.policy)


@settings(max_examples=80, deadline=None)
@given(kernel_case(), policies)
def test_cached_operand_follows_width_and_window(case, policy):
    """One series bracketed in turn under LOOSE, a tight policy and against
    a partner wide enough to widen the key: a cached operand of another
    (width, window) read by mistake gives a wrong bracket."""
    table, f, g = case
    wide = g * table.var("hbar", 600, LOOSE)
    F, G, WIDE = TupleSeries.of(f), TupleSeries.of(g), TupleSeries.of(wide)
    # each step changes the window, the width or both
    for partner, PARTNER, window in ((g, G, policy), (g, G, LOOSE),
                                     (g, G, policy), (wide, WIDE, policy),
                                     (wide, WIDE, LOOSE), (g, G, LOOSE)):
        agrees(poisson_bracket(f, partner, window),
               oracle.poisson_bracket(F, PARTNER, window))
        agrees(poisson_bracket(partner, f, window),
               oracle.poisson_bracket(PARTNER, F, window))


def test_threads_racing_for_a_fresh_operand_agree():
    """Four threads take the first bracket of fresh series at once; whichever
    fills the cached operand (and, under a cover cap of 2 on a fresh
    table, the window layout), every result is the oracle's."""
    q0, p0 = orbit_variable_pair("e", 1)  # even pair
    q1, p1 = orbit_variable_pair("a", 1, cz=1, multiplicity=2)  # odd pair
    table = VariableTable([planck_variable(1), q0, p0, q1, p1])
    policy = TruncationPolicy(max_pq_order=6)
    e, pe, a, pa = q0.name, p0.name, q1.name, p1.name
    terms_f = [({e: 2, pe: 1}, Fraction(1, 2)), ({e: 1, a: 1, pa: 1}, 3),
               ({"hbar": 1, pe: 2, pa: 1}, -1)]
    terms_g = [({e: 1, pe: 2}, 2), ({"hbar": -1, e: 1, a: 1}, Fraction(1, 3)),
               ({pe: 1, pa: 1}, 5)]
    lattice = OrbitLattice(3)
    for round_ in range(10):
        if round_ % 2:
            ham_table = lattice.table()
            f, g = (circle_hamiltonian(lattice, level, table=ham_table)
                    for level in (1, 2))
        else:
            f, g = named(table, terms_f, policy), named(table, terms_g, policy)
        window = TruncationPolicy(max_cover=2) if round_ % 4 == 1 else None
        want = oracle.poisson_bracket(TupleSeries.of(f), TupleSeries.of(g), window)
        start = threading.Barrier(4, timeout=60)
        outs = [None] * 4

        def work(i):
            start.wait()
            outs[i] = poisson_bracket(f, g, window)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads inside the fill
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for out in outs:
            agrees(out, want)


@pytest.mark.parametrize("field", ("pq", "t", "hbar"))
@pytest.mark.parametrize("over", (0, 1))
def test_product_rows_at_the_budget_edge(field, over):
    """Even and odd rows whose budget the second factor's largest pq-order,
    t-order or hbar exponent meets exactly (over = 0) or passes by one: the
    check-free row must form exactly the products the checked one does."""
    q0, p0 = orbit_variable_pair("e", 1)  # even pair
    q1, p1 = orbit_variable_pair("a", 1, cz=1)  # odd pair
    t = descendant_variable("a", 0, 0)
    table = VariableTable([planck_variable(1), q0, p0, q1, p1, t])
    policy = TruncationPolicy(max_t_order=3, max_cover=5, max_pq_order=4,
                              max_hbar_order=2)
    e, pe, a, pa = q0.name, p0.name, q1.name, p1.name
    # every row of f leaves the budget pq 3, t 2, hbar 1
    f = named(table, [({"hbar": 1, e: 1, t.name: 1}, 2),
                      ({"hbar": 1, a: 1, t.name: 1}, Fraction(1, 3)),
                      ({"hbar": 1, pa: 1, t.name: 1}, -1),
                      ({"hbar": 2, t.name: 1}, 7)], policy)
    edge = {"pq": {pe: 3 + over}, "t": {t.name: 2 + over},
            "hbar": {"hbar": 1 + over}}[field]
    g = named(table, [(edge, 5), ({pe: 1}, -2), ({a: 1}, 3), ({pa: 1}, 1),
                      ({"hbar": -2, pa: 1}, Fraction(1, 2))], LOOSE)
    F, G = TupleSeries.of(f), TupleSeries.of(g)
    agrees(f * g, F * G)
    agrees(g * f, G * F)
    agrees(poisson_bracket(f, g), oracle.poisson_bracket(F, G))


# -- the sigma path: {f,g} = A - sigma(A) for sigma-invariant operands --------


def swapped(f):
    """f with q_n and p_n exchanged, built from its tuple monomials."""
    table = f.table
    partner = {}
    for q, p, _ in table.orbit_pairs:
        partner[q], partner[p] = p, q
    return table.series({tuple(sorted((partner.get(pos, pos), e) for pos, e in m)): c
                         for m, c in f.terms.items()}, f.policy)


@st.composite
def even_case(draw):
    """Two sigma-symmetrized series f + sigma(f) on a table with no odd
    variable: even q/p pairs of several orbits, covers and kappas, even t,
    z and Laurent hbar."""
    variables = [planck_variable(1)]
    for k in range(draw(st.integers(1, 2))):
        for cover in draw(st.lists(st.integers(1, 3), min_size=1, max_size=2,
                                   unique=True)):
            variables.extend(orbit_variable_pair(
                f"o{k}", cover, cz=draw(st.sampled_from((-2, 0, 2))),
                multiplicity=draw(st.integers(1, 3))))
    for level in range(draw(st.integers(0, 2))):
        variables.append(descendant_variable("a", level, 0))
    for position in range(draw(st.integers(0, 1))):
        variables.append(curve_class_variable(position, draw(st.integers(0, 1))))
    table = VariableTable(variables, half_dim=1)
    assert not any(table.parity)
    f, g = draw_series(draw, table), draw_series(draw, table)
    return table, f + swapped(f), g + swapped(g)


def sigma_flags(*series):
    """The cached sigma-invariance of each series' bracket operand."""
    return [s._operand[3] for s in series]


@settings(max_examples=120, deadline=None)
@given(even_case(), policies)
def test_symmetric_brackets_take_the_half_path_and_match_reference(case, policy):
    table, f, g = case
    F, G = TupleSeries.of(f), TupleSeries.of(g)
    agrees(poisson_bracket(f, g, policy), oracle.poisson_bracket(F, G, policy))
    assert sigma_flags(f, g) == [True, True]
    agrees(poisson_bracket(f, g), oracle.poisson_bracket(F, G))
    fg = f * g  # a product of sigma-invariant series is sigma-invariant
    agrees(poisson_bracket(fg, g, policy), oracle.poisson_bracket(F * G, G, policy))
    assert sigma_flags(fg) == [True]


def test_symmetric_pinned_bracket_is_nonzero():
    q1, p1 = orbit_variable_pair("o", 1, multiplicity=2)
    q2, p2 = orbit_variable_pair("o", 2)
    t = descendant_variable("a", 0, 0)
    table = VariableTable([planck_variable(1), q1, p1, q2, p2, t], half_dim=1)
    f = named(table, [({q1.name: 2, p2.name: 1}, 3), ({p1.name: 2, q2.name: 1}, 3),
                      ({"hbar": -1, t.name: 1, q1.name: 1, p1.name: 1},
                       Fraction(1, 2))], LOOSE)
    g = named(table, [({q1.name: 1}, 1), ({p1.name: 1}, 1),
                      ({q2.name: 1, p2.name: 2}, -2), ({p2.name: 1, q2.name: 2}, -2)],
              LOOSE)
    assert f == swapped(f) and g == swapped(g)
    got = poisson_bracket(f, g)
    assert sigma_flags(f, g) == [True, True]
    assert not got.is_zero()
    agrees(got, oracle.poisson_bracket(TupleSeries.of(f), TupleSeries.of(g)))
    assert swapped(got) == -got  # the bracket of invariants is anti-invariant


def test_half_path_refuses_what_sigma_does_not_fix():
    """An odd q/p pair, a q with no p partner and an operand with one
    coefficient changed each take the two-sum path, and agree with the
    oracle."""
    q1, p1 = orbit_variable_pair("o", 1, multiplicity=2)
    q2, p2 = orbit_variable_pair("o", 2)
    odd_q, odd_p = orbit_variable_pair("a", 1, cz=1)
    lone_q = orbit_variable_pair("b", 1)[0]
    hbar = planck_variable(1)
    policy = TruncationPolicy(max_pq_order=5)

    def symmetric_pair(table):
        f = named(table, [({q1.name: 2, p2.name: 1}, 3), ({q2.name: 1}, -1),
                          ({"hbar": 1, p1.name: 1}, Fraction(1, 2))], policy)
        g = named(table, [({q1.name: 1, q2.name: 1}, 2), ({p1.name: 3}, 5),
                          ({"hbar": -1, p2.name: 1, q1.name: 1}, 1)], policy)
        return f + swapped(f), g + swapped(g)

    odd_table = VariableTable([hbar, q1, p1, q2, p2, odd_q, odd_p])
    f, g = symmetric_pair(odd_table)
    a = odd_table.var(odd_q.name, 1, policy) + odd_table.var(odd_p.name, 1, policy)
    cases = [(f * a, g * a, [None, None]), (f, g * a, [None, None])]
    lone_table = VariableTable([hbar, q1, p1, q2, p2, lone_q])
    f, g = symmetric_pair(lone_table)
    b = lone_table.var(lone_q.name, 1, policy)
    cases += [(f, g, [None, None]), (f * b, g + b, [None, None])]
    even_table = VariableTable([hbar, q1, p1, q2, p2])
    f, g = symmetric_pair(even_table)
    bent = named(even_table, [({q1.name: 2, p2.name: 1}, 4)], policy)  # 3 -> 7
    cases += [(f + bent, g, [False, True]), (g, f + bent, [True, False])]
    for f, g, flags in cases:
        got = poisson_bracket(f, g)
        assert sigma_flags(f, g) == flags
        assert not got.is_zero()
        agrees(got, oracle.poisson_bracket(TupleSeries.of(f), TupleSeries.of(g)))


def test_symmetric_hamiltonian_brackets_form_half_the_products(monkeypatch):
    """Every circle bracket pairs df/dp with dg/dq only: the kernel visits
    sum |fdp[p]||gdq[q]| record pairs, half the two-sum count."""
    visited = []
    original = algebra._mul_packed

    def counted(acc, records1, records2, policy, factor):
        visited.append(len(records1) * len(records2))
        return original(acc, records1, records2, policy, factor)

    monkeypatch.setattr(algebra, "_mul_packed", counted)
    levels = [0, 1, 2, 3]
    residuals, hams = commutator_residuals(levels, 3)
    assert all(r.is_zero() for row in residuals for r in row)
    out_policy = TruncationPolicy(max_cover=3, max_pq_order=2 * (max(levels) + 3))
    half = two_sum = 0
    for i, f in enumerate(hams):
        for g in hams[i:]:
            width = algebra._common_width(f, g, f._top + g._top)
            window = f._join(g).cap(out_policy)
            (fparts, fsym), (gparts, gsym) = (
                s._bracket_operand(width, window) for s in (f, g))
            assert fsym and gsym
            (_, fdq, fdp), (_, gdq, gdp) = fparts[0], gparts[0]
            for qpos, ppos, _ in f.table.orbit_pairs:
                half += len(fdp.get(ppos, ())) * len(gdq.get(qpos, ()))
                two_sum += len(gdp.get(ppos, ())) * len(fdq.get(qpos, ()))
    two_sum += half
    assert sum(visited) == half > 0
    assert two_sum == 2 * half


def test_each_hamiltonian_forms_its_partials_once(monkeypatch):
    calls = []
    original = algebra._partials

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(algebra, "_partials", counted)
    residuals, _ = commutator_residuals([0, 1, 2, 3], 5)
    assert len(calls) == 4
    assert all(r.is_zero() for row in residuals for r in row)


# -- live keys: brackets on the fields a window leaves live ---------------------


def lattice_series(draw, table, policy, cap):
    """Up to six terms, each of up to three letters of cover at most cap
    and at most one past it: hbar exponents -2..2, odd letters 1, every
    other letter 1-3."""
    live = [pos for pos, cover in enumerate(table.covers) if cover <= cap]
    dead = [pos for pos, cover in enumerate(table.covers) if cover > cap]
    terms = {}
    for _ in range(draw(st.integers(1, 6))):
        mono = []
        letters = draw(st.sets(st.sampled_from(live), min_size=1, max_size=3))
        letters |= draw(st.sets(st.sampled_from(dead), max_size=1))
        for pos in sorted(letters):
            v = table.variables[pos]
            e = (draw(st.integers(-2, 2).filter(bool)) if v.kind == "hbar"
                 else 1 if v.odd else draw(st.integers(1, 3)))
            mono.append((pos, e))
        terms[tuple(mono)] = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
    return table.series(terms, policy)


def live_runs(table, window):
    """The runs of every window layout the table holds for the fields the
    window's cover cap leaves dead."""
    dead = table.above(window.max_cover)
    return [pack[2] for (_, mask), (_, _, pack) in table._windows.items()
            if mask == dead]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sigma_path_on_live_keys_matches_reference(data):
    """Cover 3 of a window-9 lattice: q_4..q_9 and p_4..p_9 are dead, the
    live q block is q_1..q_3 and sigma swaps it with p_1..p_3."""
    table = OrbitLattice(3, 9).table()
    loose = TruncationPolicy(max_cover=9, max_pq_order=12)
    f, g = (s + swapped(s) for s in (lattice_series(data.draw, table, loose, 3)
                                      for _ in range(2)))
    window = TruncationPolicy(max_cover=3, max_pq_order=data.draw(st.integers(4, 12)))
    got = poisson_bracket(f, g, window)
    assert sigma_flags(f, g) == [True, True]
    assert len(live_runs(table, window)[0]) == 2  # hbar and q_1..q_3; p_1..p_3
    agrees(got, oracle.poisson_bracket(TupleSeries.of(f), TupleSeries.of(g), window))


def two_orbit_table(draw):
    """Orbits a and b at covers 1..3 with a drawn CZ each; q[a,1] odd."""
    variables = [planck_variable(1), descendant_variable("c", 0, 0)]
    for orbit in "ab":
        for cover in (1, 2, 3):
            cz = 1 if (orbit, cover) == ("a", 1) else draw(st.integers(-1, 1))
            variables.extend(orbit_variable_pair(
                orbit, cover, cz=cz, multiplicity=draw(st.integers(1, 3))))
    return VariableTable(variables, half_dim=1)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_two_sum_path_on_several_live_runs_matches_reference(data):
    """Cover cap 1 or 2 on two orbits of covers 1..3 with odd letters: the
    live fields form four runs (hbar, t and the a q's; the b q's; the a p's;
    the b p's), and the two-sum path expands its result through all of
    them."""
    table = two_orbit_table(data.draw)
    loose = TruncationPolicy(max_cover=3, max_pq_order=12)
    cap = data.draw(st.integers(1, 2))
    f, g = (lattice_series(data.draw, table, loose, cap) for _ in range(2))
    window = TruncationPolicy(max_cover=cap, max_pq_order=data.draw(st.integers(4, 12)))
    got = poisson_bracket(f, g, window)
    assert sigma_flags(f, g) == [None, None]
    assert len(live_runs(table, window)[0]) == 4
    agrees(got, oracle.poisson_bracket(TupleSeries.of(f), TupleSeries.of(g), window))


def test_a_window_with_no_dead_field_builds_no_live_layout(monkeypatch):
    """Under a cover cap no table position passes, brackets (sigma and
    two-sum) never re-pack a key: the only window layout they look up is
    the full one, for sigma; under one that leaves fields dead, each fresh
    operand and each bracket looks the re-packing layout up."""
    calls = []
    original = algebra._window

    def spy(table, width, dead):
        calls.append(dead)
        return original(table, width, dead)

    monkeypatch.setattr(algebra, "_window", spy)
    lattice = OrbitLattice(3, 9)
    table = lattice.table()
    f, g = (circle_hamiltonian(lattice, level, table=table) for level in (0, 1))
    odd = VariableTable([planck_variable(1), *orbit_variable_pair("a", 1, cz=1),
                         *orbit_variable_pair("a", 2)])
    a, b = odd.var("q[a,1]") * odd.var("p[a,2]"), odd.var("p[a,1]") * odd.var("q[a,2]")
    for x, y, cap in ((f, g, 9), (a, b, 2)):
        for window in (None, TruncationPolicy(max_cover=cap), TruncationPolicy()):
            got = poisson_bracket(x, y, window)
            agrees(got, oracle.poisson_bracket(TupleSeries.of(x), TupleSeries.of(y),
                                               window))
    assert not any(calls) and odd._windows == {}
    assert [dead for _, dead in table._windows] == [0]
    assert all(pack is None for _, _, pack in table._windows.values())
    calls.clear()
    for x, y, cap in ((f, g, 3), (a, b, 1)):
        poisson_bracket(x, y, TruncationPolicy(max_cover=cap))
    assert len(calls) == 2 * 3 and all(calls)


def test_partials_on_window_keys_expand_to_single_derivatives():
    """Cover 3 of a window-9 lattice: each cut partial record carries its
    key on the fields the window keeps; expanded, the records of a
    position are the derivative by its letter cut to the window, and each
    record's fields are those of its full key."""
    lattice = OrbitLattice(3, 9)
    table = lattice.table()
    window = TruncationPolicy(max_cover=3, max_pq_order=10)
    kept = [pos for pos, cover in enumerate(table.covers) if cover <= 3]
    for level in (0, 1, 2):
        f = circle_hamiltonian(lattice, level, table=table,
                               policy=TruncationPolicy(max_cover=9, max_pq_order=10))
        width = f._width
        formed = 0
        for partials in algebra._partials(table, f._records(width), window, width):
            for pos, records in partials.items():
                full = {tuple((kept[field], e) for field, e
                              in algebra._decode(r[0], width)): r for r in records}
                assert len(full) == len(records)
                for mono, r in full.items():
                    assert r[2:] == algebra._mono_info(table, mono)
                single = f.derivative(table.variables[pos].name).truncate(window)
                assert {mono: Fraction(r[1], f._den)
                        for mono, r in full.items()} == single.terms
                formed += len(records)
        assert formed > 0


def test_field_edge_repacks_wider():
    """Products and derivatives past the width of their operands re-pack,
    and series of different widths add and compare."""
    q, p = orbit_variable_pair("o", 1, cz=1)  # odd pair
    table = VariableTable([planck_variable(1), curve_class_variable(0, 0), q, p])
    z = table.position("z0")
    h = table.series({((0, 15), (z, -15)): Fraction(1, 2),
                      ((0, -3), (table.position(q.name), 1)): 3}, LOOSE)
    H = TupleSeries.of(h)
    h2, h3 = h * h, h * h * h  # exponents up to 30, then 45
    agrees(h3, H * H * H)
    zinv = table.var("z0", -1, LOOSE)
    edge = h2 * zinv  # z^-31: on the edge of a 6-bit field
    EDGE = H * H * TupleSeries.of(zinv)
    agrees(edge.derivative("z0").derivative("z0"),
           EDGE.derivative("z0").derivative("z0"))
    # different widths: equal series compare equal and cancel
    wide = h3 * table.var("hbar", -45, LOOSE) * table.var("hbar", 45, LOOSE)
    assert wide == h3 and h3 == wide
    assert (h3 - wide).is_zero()
    one = table.var("z0", 600, LOOSE) * table.var("z0", -600, LOOSE)
    assert one == table.one(LOOSE)
    agrees(one + h, TupleSeries.of(table.one(LOOSE)) + H)
    # the widths these cases are built to reach
    assert h._width == h2._width == edge._width == 6  # holds |e| <= 31
    assert h3._width > 6 and edge.derivative("z0")._width > 6
    assert wide._width > h3._width and one._width > table.one()._width


def test_laurent_exponents_cancel_to_the_empty_monomial():
    q, p = orbit_variable_pair("o", 1, multiplicity=2)
    table = VariableTable([planck_variable(1), curve_class_variable(0, 1), q, p])
    f = table.monomial({"z0": 3, q.name: 1})
    g = table.monomial({"z0": -3, p.name: 1}, Fraction(1, 2))
    assert f * g == table.monomial({q.name: 1, p.name: 1}, Fraction(1, 2))
    # {f, g} = 2 * (0 - d(g)/dp * d(f)/dq) = -2 * z^-3 * z^3 / 2
    assert poisson_bracket(f, g) == table.series({(): -1})
    agrees(poisson_bracket(f, g),
           oracle.poisson_bracket(TupleSeries.of(f), TupleSeries.of(g)))


def test_terms_view_is_read_only():
    table = VariableTable(orbit_variable_pair("o", 1))
    f = table.var("q[o,1]")
    with pytest.raises(TypeError):
        f.terms[()] = Fraction(1)
    copy = dict(f.terms)
    copy[()] = Fraction(1)
    assert f == table.var("q[o,1]")


# -- star product ----------------------------------------------------------------


@st.composite
def star_case(draw):
    """Two series with q/p exponents at most 3 (the oracle branches per
    contraction) on a table with odd q/p, multiplicities 1-3, t, t-check,
    z and Laurent hbar.

    Each series draws its own exponent bound ``top`` for q, p and t and
    ``central`` for hbar and z, and may carry hbar^central in every term:
    the hbar of a contraction then lands on the edge of the key field,
    which holds the operands' exponents only when the width allows for
    the shift.
    """
    half_dim = draw(st.sampled_from((1, 2)))
    variables = [planck_variable(half_dim)]
    for k in range(draw(st.integers(1, 2))):
        for cover in draw(st.lists(st.integers(1, 3), min_size=1, max_size=2,
                                   unique=True)):
            variables.extend(orbit_variable_pair(
                f"o{k}", cover, cz=draw(st.integers(-1, 1)), half_dim=half_dim,
                multiplicity=draw(st.integers(1, 3))))
    if draw(st.booleans()):
        variables.append(descendant_variable("a", 0, draw(st.integers(0, 1))))
        variables.append(descendant_variable("a", 0, draw(st.integers(0, 1)),
                                             checked=True))
    if draw(st.booleans()):
        variables.append(curve_class_variable(0, draw(st.integers(0, 1))))
    table = VariableTable(variables, half_dim=half_dim)
    orbit_letters = [i for i, kind in enumerate(table.kinds)
                     if kind in (QORBIT, PORBIT)]
    other_letters = [i for i, kind in enumerate(table.kinds)
                     if kind not in (QORBIT, PORBIT)]
    series = []
    for _ in range(2):
        top = draw(st.integers(1, 3))
        central = draw(st.sampled_from((1, 2, 3, 7, 15, 31)))
        hbar_top = draw(st.booleans())
        terms = {}
        for _ in range(draw(st.integers(1, 4))):
            mono = []
            for pos in sorted(draw(st.sets(st.sampled_from(orbit_letters),
                                           max_size=4))
                              | draw(st.sets(st.sampled_from(other_letters),
                                             max_size=2))):
                v = table.variables[pos]
                if v.odd:
                    e = 1
                elif v.kind == "hbar" and hbar_top:
                    continue
                elif v.kind in ("hbar", "z"):
                    e = draw(st.integers(-central, central).filter(bool))
                else:
                    e = draw(st.integers(1, top))
                mono.append((pos, e))
            if hbar_top:
                mono.insert(0, (table.position("hbar"), central))
            coeff = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 6)))
            terms[tuple(mono)] = terms.get(tuple(mono), 0) + coeff
        series.append(table.series(terms, LOOSE))
    return (table, *series)


star_policies = st.one_of(
    st.just(LOOSE),
    st.builds(TruncationPolicy, max_t_order=st.integers(0, 3),
              max_cover=st.integers(1, 3), max_pq_order=st.integers(0, 12),
              max_hbar_order=st.integers(-3, 70)))


@settings(max_examples=150, deadline=None)
@given(star_case(), star_policies)
def test_star_product_matches_rewriting(case, policy):
    table, f, g = case
    f = f.truncate(policy)
    F, G = TupleSeries.of(f), TupleSeries.of(g)
    agrees(star_product(f, g), oracle.star_product(F, G))
    agrees(star_product(g, f), oracle.star_product(G, F))


@settings(max_examples=150, deadline=None)
@given(star_case(), star_policies)
def test_weyl_commutator_matches_rewriting(case, policy):
    table, f, g = case
    g = g.truncate(policy)
    agrees(weyl_commutator(f, g),
           oracle.weyl_commutator(TupleSeries.of(f), TupleSeries.of(g)))


def test_star_without_hbar_raises_only_for_a_contraction():
    q0, p0 = orbit_variable_pair("o0", 1)
    q1, p1 = orbit_variable_pair("o1", 1)
    table = VariableTable([q0, p0, q1, p1])
    q, p = table.var(q0.name), table.var(p0.name)
    other = table.var(q1.name) * table.var(p1.name)
    # already normal-ordered, or no q of p's orbit on the right: no contraction
    assert star_product(q, p) == q * p
    assert star_product(p, p * other) == p * p * other
    assert star_product(p, table.var(q1.name)) == p * table.var(q1.name)
    assert weyl_commutator(q, q).is_zero()
    for f, g in ((p, q), (p * other, q), (q * p, q * p)):
        with pytest.raises(DeclarationError, match="hbar"):
            star_product(f, g)
        with pytest.raises(DeclarationError, match="hbar"):
            weyl_commutator(f, g)


def test_star_pinned_cases_match_rewriting():
    """Cases each Wick ingredient is needed for, against the rewriting."""
    q0, p0 = orbit_variable_pair("e", 1, multiplicity=2)  # even pair
    q1, p1 = orbit_variable_pair("a", 1, cz=1)  # odd pairs
    q2, p2 = orbit_variable_pair("b", 2, cz=1, multiplicity=3)
    table = VariableTable([planck_variable(1), q0, p0, q1, p1, q2, p2])

    def v(var, e=1):
        return table.var(var.name, e, LOOSE)

    hbar15 = table.var("hbar", 15, LOOSE)
    cases = [
        # divided powers: (d/dp)^3/3! p^3 = 1, (d/dq)^3 q^3 = 6
        (v(p0, 3), v(q0, 3)),
        # hbar^15 * hbar^15 * hbar^|alpha| = hbar^33 needs a wider field
        (hbar15 * v(p0, 3), hbar15 * v(q0, 3)),
        # the right derivative by p1 passes the odd p2 after it
        (v(p1) * v(p2), v(q1) * v(q2)),
        (v(p1) * v(p2), v(q1)),
    ]
    for f, g in cases:
        F, G = TupleSeries.of(f), TupleSeries.of(g)
        agrees(star_product(f, g), oracle.star_product(F, G))
        agrees(weyl_commutator(f, g), oracle.weyl_commutator(F, G))
    assert star_product(v(p0, 3), v(q0, 3)).coefficient({"hbar": 3}) == 6 * 2 ** 3
    assert star_product(*cases[1]).coefficient({"hbar": 33}) == 6 * 2 ** 3


def test_policy_cap_keeps_an_equal_policy():
    policy = TruncationPolicy(max_pq_order=5)
    assert policy.cap(TruncationPolicy(max_pq_order=5)) is policy
    assert policy.cap(LOOSE) == TruncationPolicy(
        max_t_order=16, max_cover=64, max_pq_order=5, max_hbar_order=8)
