import random
from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from sftlab import algebra, hierarchy, io as sio
from sftlab.algebra import TruncationPolicy, poisson_bracket
from sftlab.hierarchy import (
    OrbitLattice, _hamiltonian, _zero_sum_multisets, bad_covers,
    circle_hamiltonian, commutator_residuals, geodesic_hamiltonian,
)


def circle_hamiltonian_reference(lattice, level, table, policy):
    """The circle Hamiltonian built term by term: one Fraction per multiset,
    variables looked up by name per factor."""
    order = level + 3
    terms = {}
    fact = factorial(order)
    for ms in _zero_sum_multisets(order, lattice.cover_bound, lattice.window):
        counts = {}
        for n in ms:
            counts[n] = counts.get(n, 0) + 1
        perms = factorial(len(ms))
        for c in counts.values():
            perms //= factorial(c)
        factors = {}
        for n in ms:
            name = lattice.u_name(n)
            factors[name] = factors.get(name, 0) + 1
        mono = tuple(sorted((table.position(nm), e) for nm, e in factors.items()))
        terms[mono] = terms.get(mono, Fraction(0)) + Fraction(perms, fact)
    return table.series(terms, policy)


def packed_as_series_stores_it(build, table):
    """Run build(); assert that it formed no record from a tuple monomial
    (no _mono_info call), that every record cached on the table is the
    record of its key, and that the series has the width, exponent bound,
    denominator and policy table.series gives its terms."""
    original = algebra._mono_info
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    algebra._mono_info = spy
    try:
        built = build()
    finally:
        algebra._mono_info = original
    assert not calls
    width = built._width
    cache = algebra._layout(table, width)[2]
    assert set(built._num) <= set(cache)
    for key, info in cache.items():
        assert info == original(table, algebra._decode(key, width))
    want = table.series(dict(built.terms), built.policy)
    assert built == want
    assert ((built._width, built._top, built._den, built.policy)
            == (want._width, want._top, want._den, want.policy))
    return built


def test_circle_builder_matches_reference():
    """On the extended lattice and policy of commutator_residuals at levels
    0..3, and on the bare lattice with the default policy; built packed as
    table.series stores the same terms."""
    for cover in range(2, 6):
        window = cover * 5
        extended = OrbitLattice(cover, window)
        table = extended.table()
        policy = TruncationPolicy(max_cover=window, max_pq_order=12)
        bare = OrbitLattice(cover)
        bare_table = bare.table()
        for level in range(4):
            built = packed_as_series_stores_it(lambda: circle_hamiltonian(
                extended, level, table=table, policy=policy), table)
            assert built == circle_hamiltonian_reference(extended, level, table, policy)
            assert built.policy == policy
            plain = packed_as_series_stores_it(lambda: circle_hamiltonian(
                bare, level, table=bare_table), bare_table)
            assert plain == circle_hamiltonian_reference(
                bare, level, bare_table, TruncationPolicy(max_cover=cover,
                                                          max_pq_order=level + 3))
            if cover == 5:
                assert len(built.terms) == (30, 125, 434, 1285)[level]


def oracle_sign(lattice, explicit):
    """The orientation sign of an ordered tuple: 0 when it touches a bad
    cover (n even, deg q_n and deg q_1 of other parity), else its explicit
    sign, else +1."""
    deg = lattice.q_degrees or {}

    def sign(tup):
        if any(n % 2 == 0 and (deg[abs(n)] - deg[1]) % 2 for n in tup):
            return 0
        return explicit.get(tup, 1)
    return sign


def rule_table(rule, lattice, levels):
    """The signs ``rule`` gives every ordering of every zero-sum multiset the
    lattice reaches at the levels, as an explicit table."""
    return {tup: rule(tup) for level in levels
            for ms in _zero_sum_multisets(level + 3, lattice.cover_bound,
                                          lattice.window)
            for tup in set(permutations(ms))}


def geodesic_hamiltonian_reference(lattice, level, explicit, table, policy):
    """The geodesic Hamiltonian built ordering by ordering: each written word
    is a chain of series products, which collects its Koszul sign."""
    sign = oracle_sign(lattice, explicit)
    order = level + 3
    target = 2 * (lattice.half_dim + level - 2)
    fact = factorial(order)
    total = table.zero(policy)
    for ms in _zero_sum_multisets(order, lattice.cover_bound, lattice.window):
        if sum(table.variable(lattice.u_name(n)).degree for n in ms) != target:
            continue
        for tup in set(permutations(ms)):
            eps = sign(tup)
            if eps == 0:
                continue
            word = table.one(policy)
            for n in tup:
                word = word * table.var(lattice.u_name(n), 1, policy)
            total = total + word.scale(Fraction(eps, fact))
    return total


def odd_thirds(n):
    """q_n (and p_n) odd at n = 3, 6, ... for half_dim 5."""
    return 2 if n % 3 else 1


def odd_covers(n):
    """q_n (and p_n) odd at odd n: the degrees obey the parity rule and
    every even cover is bad."""
    return 1 if n % 2 else 2


def odd_above_one(n):
    """q_n (and p_n) odd at odd n >= 3: no cover is bad, since q_1 is even,
    but the degrees break the parity rule."""
    return 1 if n % 2 and n > 1 else 2


# Explicit signs on ordered tuples; the last two entries sit on a repeated
# odd letter (q_1) and on a bad cover (2), so each must contribute 0.
FIXED_SIGNS = {(1, 3, -1, -3): -1, (-3, 1, 3, -1): 0, (3, -3, 1, -1): -1,
               (1, -1, 3, -3): 1, (-1, 1, -3, 3): -1,
               (1, 1, -1, -1): -1, (2, 2, -2, -2): -1}


def first_negative(ns):
    return -1 if ns[0] < 0 else 1


def ascending_ends(ns):
    return 1 if ns[0] < ns[-1] else -1


GEODESIC_CASES = [  # (half_dim, q-degree of cover n, sign rule, fixed signs)
    (5, odd_thirds, None, {}),
    (5, odd_thirds, first_negative, {}),
    (4, odd_covers, ascending_ends, {}),
    (4, odd_covers, None, {(1, 2, -3): -1, (-3, 2, 1): 0,
                           (2, -3, 1): -1, (1, -3, 2): 1}),
    (5, odd_covers, None, FIXED_SIGNS),
    (4, odd_above_one, first_negative, {}),
    (4, odd_above_one, ascending_ends, {}),
]


def test_geodesic_builder_matches_the_series_products():
    """Odd letters, non-constant and explicit signs and bad covers, levels
    0..3 at covers 2..3, on the bare lattice and on the extended one, with
    degrees that break the parity rule (odd_thirds, odd_above_one) and
    degrees that obey it (odd_covers); against the series products and the
    sum over set(permutations(ms)).  A sign rule enters as the explicit
    table of its values on the tuples reached."""
    nonzero = odd = 0
    for half_dim, q_degree, rule, fixed in GEODESIC_CASES:
        for cover in (2, 3):
            for level in range(4):
                for window in (cover, cover * (level + 2)):
                    q_degrees = {n: q_degree(n) for n in range(1, window + 1)}
                    lat = OrbitLattice(cover, window, q_degrees=q_degrees,
                                       half_dim=half_dim)
                    explicit = rule_table(rule, lat, [level]) if rule else fixed
                    table = lat.table()
                    policy = TruncationPolicy(max_cover=window,
                                              max_pq_order=level + 3)
                    built = packed_as_series_stores_it(lambda: geodesic_hamiltonian(
                        lat, level, explicit, table=table), table)
                    assert built == geodesic_hamiltonian_reference(
                        lat, level, explicit, table, policy), (half_dim, cover, level)
                    assert built == _hamiltonian(lat, level, table, None,
                                                 permutation_sum_weight(
                                                     lat, level, explicit))
                    nonzero += not built.is_zero()
                    odd += any(table.parity[p] for m in built.terms for p, _ in m)
    assert nonzero > 50 and odd > 15


def permutation_sum_weight(lattice, level, explicit):
    """The geodesic weight summed over set(permutations(ms)): every one of
    the r! orderings formed, then deduplicated."""
    target = 2 * (lattice.half_dim + level - 2)
    sign = oracle_sign(lattice, explicit)

    def weight(ms, mult, pos, table):
        if sum(table.degrees[pos[n]] for n in ms) != target:
            return 0
        total = 0
        for tup in set(permutations(ms)):
            eps = sign(tup)
            odd = [pos[n] for n in tup if table.parity[pos[n]]]
            if eps and len(set(odd)) == len(odd):
                total += eps * (-1) ** sum(a > b for k, a in enumerate(odd)
                                           for b in odd[k + 1:])
        return total
    return weight


def test_geodesic_profile_matches_the_permutation_sum():
    """The shipped geodesic profile, levels 0..4."""
    prof = sio.load_profiles(sio.fixture_path("geodesic.profiles.json"))
    lat = OrbitLattice(prof["cover_bound"], q_degrees=prof["q_degrees"],
                       half_dim=prof["half_dim"])
    table = lat.table()
    for level in range(5):
        built = geodesic_hamiltonian(lat, level, prof["explicit"], table=table)
        assert not built.is_zero()
        assert built == _hamiltonian(lat, level, table, None, permutation_sum_weight(
            lat, level, prof["explicit"]))


def test_zero_sum_multisets_match_a_brute_force_filter():
    """Every multiset of {+-1..+-W} of size r with sum 0 and at most one
    element past K, once each: the sorted, deduplicated words of
    product(+-1..+-W, repeat=r) are the multisets
    combinations_with_replacement gives over the sorted letters.  For
    K <= 2 the windows include commutator_residuals' W = K*(r-1)."""
    for cover in range(1, 4):
        for order in range(3, 7):
            windows = {cover, 2 * cover, 3 * cover}
            if cover <= 2:
                windows.add(cover * (order - 1))
            for window in sorted(windows):
                letters = sorted(n for n in range(-window, window + 1) if n)
                got = list(_zero_sum_multisets(order, cover, window))
                want = [ms for ms in combinations_with_replacement(letters, order)
                        if sum(ms) == 0 and sum(abs(n) > cover for n in ms) <= 1]
                assert all(list(ms) == sorted(ms) for ms in got)
                assert len(set(got)) == len(got)
                assert sorted(got) == want, (cover, window, order)


def test_no_levels_give_no_residuals():
    assert commutator_residuals([], 3) == ([], [])


@pytest.mark.parametrize("lattice", [
    OrbitLattice(3), OrbitLattice(2, 3, q_degrees={1: 2, 2: 1, 3: 4}, half_dim=5)],
    ids=["circle", "q-degrees"])
def test_lattice_variables_are_the_orbit_pairs(lattice):
    """The lattice names its covers through ``orbit_variable_pair``: q_n of
    the given degree, p_n of degree 2(m-3) - deg q_n, both of multiplicity n."""
    m = lattice.half_dim
    want = [algebra.planck_variable(m)]
    for n in range(1, lattice.window + 1):
        qdeg = m - 3 if lattice.q_degrees is None else lattice.q_degrees[n]
        want += [algebra.Variable(f"q[o,{n}]", "q", ("o", n), qdeg, n),
                 algebra.Variable(f"p[o,{n}]", "p", ("o", n), 2 * (m - 3) - qdeg, n)]
    variables = lattice.table().variables
    assert len(variables) == len(want) and set(variables) == set(want)


def test_pinned_circle_values():
    assert circle_hamiltonian(OrbitLattice(1), 0).is_zero()
    lat = OrbitLattice(2)
    t = lat.table()
    g0 = circle_hamiltonian(lat, 0, table=t)
    want = t.monomial({"q[o,1]": 2, "p[o,2]": 1}, Fraction(1, 2)) + \
        t.monomial({"q[o,2]": 1, "p[o,1]": 2}, Fraction(1, 2))
    assert g0 == want
    lat1 = OrbitLattice(1)
    t1 = lat1.table()
    g1 = circle_hamiltonian(lat1, 1, table=t1)
    assert g1 == t1.monomial({"q[o,1]": 2, "p[o,1]": 2}, Fraction(1, 4))


def test_winding_zero_per_term():
    lat = OrbitLattice(3)
    t = lat.table()
    for j in range(3):
        h = circle_hamiltonian(lat, j, table=t)
        for mono in h.terms:
            w = 0
            for pos, e in mono:
                v = t.variables[pos]
                if v.kind == "q":
                    w += v.indices[1] * e
                elif v.kind == "p":
                    w -= v.indices[1] * e
            assert w == 0


def brute_force_bracket(h1, h2, table, cover):
    """Independent dense evaluation of the bracket via exponent dicts."""
    def to_dense(series):
        return {tuple(sorted(dict(m).items())): c for m, c in series.terms.items()}

    def dense_derivative(poly, pos):
        out = {}
        for mono, c in poly.items():
            d = dict(mono)
            if pos in d:
                e = d[pos]
                c2 = c * e
                if e == 1:
                    d.pop(pos)
                else:
                    d[pos] = e - 1
                key = tuple(sorted(d.items()))
                out[key] = out.get(key, Fraction(0)) + c2
        return out

    def dense_mul(a, b):
        out = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                d = dict(m1)
                for k, e in m2:
                    d[k] = d.get(k, 0) + e
                key = tuple(sorted(d.items()))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return out

    p1, p2 = to_dense(h1), to_dense(h2)
    acc = {}
    for n in range(1, cover + 1):
        qpos = table.position(f"q[o,{n}]")
        ppos = table.position(f"p[o,{n}]")
        for sign, a, b in ((1, dense_derivative(p1, ppos), dense_derivative(p2, qpos)),
                           (-1, dense_derivative(p2, ppos), dense_derivative(p1, qpos))):
            for mono, c in dense_mul(a, b).items():
                acc[mono] = acc.get(mono, Fraction(0)) + sign * n * c
    return {m: c for m, c in acc.items() if c}


def test_bracket_against_dense_oracle():
    lat = OrbitLattice(2)
    t = lat.table()
    pol = TruncationPolicy(max_cover=2, max_pq_order=12)
    h0 = circle_hamiltonian(lat, 0, table=t, policy=pol)
    h1 = circle_hamiltonian(lat, 1, table=t, policy=pol)
    got = poisson_bracket(h0, h1)
    want = brute_force_bracket(h0, h1, t, 2)
    assert {tuple(sorted(dict(m).items())): c for m, c in got.terms.items()} == want


def test_truncated_bracket_has_boundary_artifacts():
    # the naive bracket of cover-truncated Hamiltonians is nonzero...
    lat = OrbitLattice(2)
    t = lat.table()
    pol = TruncationPolicy(max_cover=2, max_pq_order=12)
    h0 = circle_hamiltonian(lat, 0, table=t, policy=pol)
    h1 = circle_hamiltonian(lat, 1, table=t, policy=pol)
    naive = poisson_bracket(h0, h1)
    assert not naive.is_zero()
    # ...and every artifact monomial has positive winding beyond the bound
    for mono in naive.terms:
        w_pos = sum(v.indices[1] * e for pos, e in mono
                    for v in [t.variables[pos]] if v.kind == "q")
        assert w_pos > 2
    # while the windowed evaluation is exactly zero
    res, _ = commutator_residuals([0, 1], 2)
    assert res[0][1].is_zero()


def test_windowed_commutativity_small():
    res, hams = commutator_residuals([0, 1, 2], 3)
    for i in range(3):
        for j in range(3):
            assert res[i][j].is_zero()


def test_windowed_matches_naive_on_sound_window():
    # on monomials with positive winding <= K both computations agree
    cover = 2
    lat = OrbitLattice(cover)
    t = lat.table()
    pol = TruncationPolicy(max_cover=cover, max_pq_order=12)
    h0 = circle_hamiltonian(lat, 0, table=t, policy=pol)
    h1 = circle_hamiltonian(lat, 1, table=t, policy=pol)
    naive = poisson_bracket(h0, h1)
    sound = {m: c for m, c in naive.terms.items()
             if sum(v.indices[1] * e for pos, e in m
                    for v in [t.variables[pos]] if v.kind == "q") <= cover}
    assert sound == {}  # the windowed result is zero there


def test_geodesic_maximal_grading_reduces_to_circle():
    q_degrees = {n: 2 for n in range(1, 4)}
    lat = OrbitLattice(3, half_dim=5, q_degrees=q_degrees)
    for j in (0, 1):
        geo = geodesic_hamiltonian(lat, j)
        circ = circle_hamiltonian(lat, j)
        assert geo.terms == circ.terms


def test_geodesic_degree_filter():
    # degrees that never hit the target wipe the Hamiltonian out
    q_degrees = {n: 0 for n in range(1, 3)}
    lat = OrbitLattice(2, half_dim=5, q_degrees=q_degrees)
    geo = geodesic_hamiltonian(lat, 0)
    assert geo.is_zero()


def test_geodesic_degree_filter_soundness():
    q_degrees = {1: 2, 2: 2, 3: 2}
    lat = OrbitLattice(3, half_dim=5, q_degrees=q_degrees)
    for j in (0, 1):
        geo = geodesic_hamiltonian(lat, j)
        target = 2 * (5 + j - 2)
        table = lat.table()
        from sftlab.algebra import mono_degree
        for mono in geo.terms:
            assert mono_degree(table, mono) == target


# Cover 2 is bad: q_2 is even and q_1 odd.  At level 1 only the bad-cover
# rule removes q2^2 p2^2, of the target degree 8.
BAD_ORBIT = dict(cover_bound=3, half_dim=5, q_degrees={1: 1, 2: 2, 3: 1})


def touches_cover_2(geo):
    return any(geo.table.variables[p].indices[1] == 2
               for mono in geo.terms for p, _ in mono)


def test_bad_covers_vanish():
    lat = OrbitLattice(**BAD_ORBIT)
    assert bad_covers(lat.q_degrees) == {2}
    assert not touches_cover_2(geodesic_hamiltonian(lat, 1))


def test_bad_orbit_check_fails_without_the_bad_cover_rule(monkeypatch):
    from sftlab.suites import hierarchy_suite

    monkeypatch.setattr(hierarchy, "bad_covers", lambda q_degrees: frozenset())
    geo = geodesic_hamiltonian(OrbitLattice(**BAD_ORBIT), 1)
    assert touches_cover_2(geo)
    assert geo.terms == geo.table.monomial({"q[o,2]": 2, "p[o,2]": 2},
                                           Fraction(1, 4)).terms
    status = {c.id: c.status for c in hierarchy_suite(1, 0).checks}
    assert status["geodesic.bad-orbit"] == "fail"


def test_bad_orbit_check_fails_for_a_zero_hamiltonian(monkeypatch):
    from sftlab.suites import hierarchy_suite

    def zero(lattice, level, explicit={}, table=None, policy=None):
        return (table or lattice.table()).zero()

    status = {c.id: c.status for c in hierarchy_suite(1, 0).checks}
    assert status["geodesic.bad-orbit"] == "pass"
    monkeypatch.setattr(hierarchy, "geodesic_hamiltonian", zero)
    status = {c.id: c.status for c in hierarchy_suite(1, 0).checks}
    assert status["geodesic.bad-orbit"] == "fail"


@pytest.mark.parametrize("q_degrees, bad", [
    (None, set()), ({}, set()), ({1: 2, 2: 2, 3: 2, 4: 2}, set()),
    ({1: 1, 2: 2, 3: 1, 4: 0}, {2, 4}), ({1: 2, 2: 1, 3: 0, 4: 3}, {2, 4}),
    ({1: 2, 2: 2, 3: 1, 6: 1}, {6}), ({2: 1}, set()),
])
def test_bad_covers_are_the_even_covers_of_the_other_parity(q_degrees, bad):
    assert bad_covers(q_degrees) == bad


def test_explicit_sign_rule():
    q_degrees = {n: 2 for n in range(1, 3)}
    # flip the sign of every ordered tuple: the whole sum flips
    lat = OrbitLattice(2, half_dim=5, q_degrees=q_degrees)
    table = lat.table()
    plus = geodesic_hamiltonian(lat, 0, table=table)
    minus = geodesic_hamiltonian(lat, 0, rule_table(lambda ns: -1, lat, [0]),
                                 table=table)
    assert not plus.is_zero()
    assert (plus + minus).is_zero()


# -- the window pre-filter of commutator_residuals --------------------------------


def perturbed_circle(seed, count=3):
    """Circle builder with a few coefficients (any cover) doubled."""
    rng = random.Random(seed)

    def build(lattice, level, table, policy):
        h = circle_hamiltonian(lattice, level, table=table, policy=policy)
        terms = dict(h.terms)
        for mono in rng.sample(sorted(terms), min(count, len(terms))):
            terms[mono] *= 2
        return table.series(terms, policy)
    return build


def geodesic_builder(q_degrees, half_dim, explicit):
    """Geodesic builder on one graded lattice and table per lattice window."""
    graded = {}

    def build(lattice, level, table, policy):
        if lattice.window not in graded:
            lat = OrbitLattice(lattice.cover_bound, lattice.window,
                               q_degrees=q_degrees, half_dim=half_dim)
            graded[lattice.window] = lat, lat.table()
        lat, tab = graded[lattice.window]
        return geodesic_hamiltonian(lat, level, explicit, table=tab, policy=policy)
    return build


def assert_residuals_are_windowed_full_brackets(levels, cover, builder):
    res, hams = commutator_residuals(levels, cover, builder=builder)
    out_policy = TruncationPolicy(max_cover=cover,
                                  max_pq_order=2 * (max(levels) + 3))
    nonzero = 0
    for i in range(len(levels)):
        for j in range(len(levels)):
            full = poisson_bracket(hams[i], hams[j]).truncate(out_policy)
            assert res[i][j].terms == full.terms
            nonzero += not full.is_zero()
    assert nonzero > 0
    return hams


def test_perturbed_circle_residuals_equal_windowed_full_brackets():
    assert_residuals_are_windowed_full_brackets([0, 1, 2], 3, perturbed_circle(3))
    assert_residuals_are_windowed_full_brackets([0, 1], 4, perturbed_circle(4))


def test_geodesic_residuals_equal_windowed_full_brackets():
    # covers 3, 6, 9 are odd; the signs are not a coherent orientation
    cover, levels = 3, [0, 1, 2]
    window = cover * (max(levels) + 2)
    q_degrees = {n: 2 if n % 3 else 1 for n in range(1, window + 1)}
    signs = rule_table(first_negative, OrbitLattice(cover, window), levels)
    hams = assert_residuals_are_windowed_full_brackets(
        levels, cover, geodesic_builder(q_degrees, 5, signs))
    table = hams[0].table
    assert any(table.parity[pos] for h in hams for m in h.terms for pos, _ in m)


@settings(max_examples=8, deadline=None)
@given(cover=st.integers(2, 3),
       levels=st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True))
def test_kernel_never_sees_covers_above_the_window(cover, levels):
    supports = []
    original = algebra._mul_packed

    def spy(acc, records1, records2, policy, factor):
        supports.extend(r[7] for records in (records1, records2) for r in records)
        return original(acc, records1, records2, policy, factor)

    algebra._mul_packed = spy
    try:
        covers = commutator_residuals(sorted(levels), cover)[1][0].table.covers
    finally:
        algebra._mul_packed = original
    seen = [max((cv for pos, cv in enumerate(covers) if s >> pos & 1), default=0)
            for s in supports]
    assert seen and max(seen) <= cover


def test_suite_computes_the_brackets_once(monkeypatch):
    from sftlab import hierarchy
    from sftlab.suites import hierarchy_suite

    calls = []

    def counted(levels, cover_bound):
        calls.append(cover_bound)
        return commutator_residuals(levels, cover_bound)

    monkeypatch.setattr(hierarchy, "commutator_residuals", counted)
    report = hierarchy_suite(cover_bound=3, max_level=2)
    assert calls == [3]
    assert sum(c.id.startswith("commute.") for c in report.checks) == 6
    assert {c.status for c in report.checks} == {"pass"}
