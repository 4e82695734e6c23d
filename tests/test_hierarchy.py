import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from sftlab import algebra
from sftlab.algebra import TruncationPolicy, poisson_bracket
from sftlab.hierarchy import (
    GradingProfile, OrbitLattice, SignProfile, circle_hamiltonian,
    commutator_residuals, geodesic_hamiltonian,
)


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
    grading = GradingProfile({n: 2 for n in range(1, 4)}, half_dim=5)
    signs = SignProfile()
    lat = OrbitLattice(3, half_dim=5)
    for j in (0, 1):
        geo = geodesic_hamiltonian(lat, j, grading, signs)
        circ = circle_hamiltonian(
            OrbitLattice(3, half_dim=5, q_degree=grading.q_degree), j)
        assert geo.terms == circ.terms


def test_geodesic_degree_filter():
    # degrees that never hit the target wipe the Hamiltonian out
    grading = GradingProfile({n: 0 for n in range(1, 3)}, half_dim=5)
    signs = SignProfile()
    lat = OrbitLattice(2, half_dim=5)
    geo = geodesic_hamiltonian(lat, 0, grading, signs)
    assert geo.is_zero()


def test_geodesic_degree_filter_soundness():
    grading = GradingProfile({1: 2, 2: 2, 3: 2}, half_dim=5)
    lat = OrbitLattice(3, half_dim=5)
    for j in (0, 1):
        geo = geodesic_hamiltonian(lat, j, grading, SignProfile())
        target = 2 * (5 + j - 2)
        table = OrbitLattice(3, half_dim=5, q_degree=grading.q_degree).table()
        from sftlab.algebra import mono_degree
        for mono in geo.terms:
            assert mono_degree(table, mono) == target


def test_bad_covers_vanish():
    grading = GradingProfile({n: 2 for n in range(1, 4)}, half_dim=5)
    signs = SignProfile(bad_covers=frozenset({2}))
    lat = OrbitLattice(3, half_dim=5)
    geo = geodesic_hamiltonian(lat, 0, grading, signs)
    table = OrbitLattice(3, half_dim=5, q_degree=grading.q_degree).table()
    for mono in geo.terms:
        for pos, _ in mono:
            assert table.variables[pos].indices[1] != 2


def test_explicit_sign_rule():
    grading = GradingProfile({n: 2 for n in range(1, 3)}, half_dim=5)
    # flip the sign of every ordered tuple: the whole sum flips
    lat = OrbitLattice(2, half_dim=5, q_degree=grading.q_degree)
    table = lat.table()
    plus = geodesic_hamiltonian(lat, 0, grading, SignProfile(), table=table)
    minus = geodesic_hamiltonian(lat, 0, grading, SignProfile(rule=lambda ns: -1),
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


def geodesic_builder(grading, signs):
    """Geodesic builder on one graded table per lattice window."""
    tables = {}

    def build(lattice, level, table, policy):
        if lattice.window not in tables:
            tables[lattice.window] = OrbitLattice(
                lattice.cover_bound, lattice.window, q_degree=grading.q_degree,
                half_dim=grading.half_dim).table()
        return geodesic_hamiltonian(lattice, level, grading, signs,
                                    table=tables[lattice.window], policy=policy)
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
    # covers 3, 6, 9 are odd; the sign rule is not a coherent orientation
    cover, levels = 3, [0, 1, 2]
    window = cover * (max(levels) + 2)
    grading = GradingProfile({n: 2 if n % 3 else 1 for n in range(1, window + 1)},
                             half_dim=5)
    signs = SignProfile(rule=lambda ns: -1 if ns[0] < 0 else 1)
    hams = assert_residuals_are_windowed_full_brackets(
        levels, cover, geodesic_builder(grading, signs))
    table = hams[0].table
    assert any(table.parity[pos] for h in hams for m in h.terms for pos, _ in m)


@settings(max_examples=8, deadline=None)
@given(cover=st.integers(2, 3),
       levels=st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True))
def test_kernel_never_sees_covers_above_the_window(cover, levels):
    seen = []
    original = algebra._mul_terms

    def spy(table, terms1, terms2, policy, factor):
        seen.extend(table.covers[pos] for terms in (terms1, terms2)
                    for mono in terms for pos, _ in mono)
        return original(table, terms1, terms2, policy, factor)

    algebra._mul_terms = spy
    try:
        commutator_residuals(sorted(levels), cover)
    finally:
        algebra._mul_terms = original
    assert seen and max(seen) <= cover
