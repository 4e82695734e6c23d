import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sftlab.algebra import (
    TruncationPolicy, Variable, VariableTable, _decode, _mono_info, _partials,
    curve_class_variable, descendant_variable, orbit_variable_pair,
    planck_variable, poisson_bracket, star_product, weyl_commutator,
)
from sftlab.errors import DeclarationError, TableMismatchError

from tuple_series import TupleSeries


def make_table(cz_list=(0,), half_dim=1, multiplicities=None):
    variables = [planck_variable(half_dim)]
    for k, cz in enumerate(cz_list):
        kappa = multiplicities[k] if multiplicities else 1
        q, p = orbit_variable_pair(f"o{k}", 1, cz=cz, half_dim=half_dim,
                                   multiplicity=kappa)
        variables.extend((q, p))
    return VariableTable(variables, half_dim=half_dim)


# -- declarations ------------------------------------------------------------


def test_orbit_degrees_from_cz():
    q, p = orbit_variable_pair("g", 1, cz=2, half_dim=2)
    assert q.degree == 2 - 3 + 2 == 1 and q.odd
    assert p.degree == 2 - 3 - 2 == -3


def test_descendant_degree():
    t = descendant_variable("a", 3, 0)
    assert t.degree == 2 * (1 - 3) - 0 == -4
    tc = descendant_variable("a", 3, 0, checked=True)
    assert tc.degree == t.degree - 1


def test_curve_class_degree():
    assert curve_class_variable(0, 0).degree == 0
    assert curve_class_variable(1, 2).degree == -4


def test_duplicate_id_rejected():
    q, p = orbit_variable_pair("g", 1)
    with pytest.raises(DeclarationError):
        VariableTable([q, q, p])


def test_p_without_q_partner_rejected():
    _, p = orbit_variable_pair("g", 1)
    with pytest.raises(DeclarationError):
        VariableTable([p])


def test_nonpositive_multiplicity_rejected():
    with pytest.raises(DeclarationError):
        VariableTable([Variable("q[x,1]", "q", ("x", 1), 0, 0)])


def test_hbar_degree_checked_against_half_dim():
    with pytest.raises(DeclarationError):
        VariableTable([Variable("hbar", "hbar", (), 0)], half_dim=2)


# -- multiplication ----------------------------------------------------------


def test_unit_and_koszul_signs():
    table = make_table(cz_list=(2,), half_dim=2)  # odd pair
    q = table.var("q[o0,1]")
    p = table.var("p[o0,1]")
    one = table.one()
    assert q * one == q
    assert (q * p + p * q).is_zero()
    assert (q * q).is_zero()


def test_truncation_drops_exactly():
    table = make_table()
    q = table.var("q[o0,1]")
    policy = TruncationPolicy(max_pq_order=1)
    assert (q * q).truncate(policy).is_zero()
    assert q.truncate(policy) == q
    # idempotence
    f = q * q + q
    t1 = f.truncate(policy)
    assert t1.truncate(policy) == t1


def test_cover_truncation():
    q3, p3 = orbit_variable_pair("g", 3)
    table = VariableTable([q3, p3, planck_variable(1)])
    f = table.var(q3.name)
    assert f.truncate(TruncationPolicy(max_cover=2)).is_zero()


def test_mixed_policy_laurent_product_keeps_terms_over_the_joint_hbar_cap():
    """A product truncates its result, not its operands: hbar^9 q lies over
    the joint hbar cap of 8, but times hbar^-2 it lands within."""
    table = make_table()
    f = table.monomial({"hbar": 9, "q[o0,1]": 1},
                       policy=TruncationPolicy(max_hbar_order=10))
    g = table.monomial({"hbar": -2}, policy=TruncationPolicy(max_hbar_order=8))
    want = table.monomial({"hbar": 7, "q[o0,1]": 1})
    assert (f * g).terms == want.terms
    assert (g * f).terms == want.terms


def test_table_mismatch():
    t1 = make_table()
    t2 = make_table()
    with pytest.raises(TableMismatchError):
        t1.var("q[o0,1]") * t2.var("q[o0,1]")


# -- derivatives --------------------------------------------------------------


def test_left_derivative_signs():
    table = make_table(cz_list=(2,), half_dim=2)
    q = table.var("q[o0,1]")
    p = table.var("p[o0,1]")
    qp = q * p
    assert qp.derivative("q[o0,1]") == p
    assert qp.derivative("p[o0,1]") == -q
    assert table.one().derivative("q[o0,1]").is_zero()


def test_right_derivative_relation():
    table = make_table(cz_list=(2,), half_dim=2)
    q = table.var("q[o0,1]")
    p = table.var("p[o0,1]")
    qp = q * p  # even
    assert (TupleSeries.of(qp).right_derivative("p[o0,1]").terms
            == (-qp.derivative("p[o0,1]")).terms)
    assert (TupleSeries.of(q).right_derivative("q[o0,1]").terms
            == q.derivative("q[o0,1]").terms)


# -- brackets -----------------------------------------------------------------


def test_bracket_on_generators_is_kappa():
    for kappa in (1, 2, 3):
        table = make_table(multiplicities=[kappa])
        p = table.var("p[o0,1]")
        q = table.var("q[o0,1]")
        assert poisson_bracket(p, q) == table.series({(): kappa})


def test_bracket_even_self_is_zero():
    table = make_table()
    f = table.var("q[o0,1]") * table.var("p[o0,1]") + table.var("q[o0,1]")
    assert poisson_bracket(f, f).is_zero()


def test_weyl_relation_and_divisibility():
    for kappa in (1, 2, 3):
        table = make_table(multiplicities=[kappa])
        w = weyl_commutator(table.var("p[o0,1]"), table.var("q[o0,1]"))
        assert w == table.monomial({"hbar": 1}, kappa)


def test_star_normal_ordering_example():
    table = make_table()
    q = table.var("q[o0,1]")
    p = table.var("p[o0,1]")
    # p * q = q p + hbar in the even case
    assert star_product(p, q) == q * p + table.monomial({"hbar": 1})


# -- randomized properties (hypothesis) ----------------------------------------


@st.composite
def table_and_series(draw, n_series=2, hbar_free=False):
    half_dim = draw(st.sampled_from((1, 2, 3)))
    n_orbits = draw(st.integers(1, 2))
    variables = [planck_variable(half_dim)]
    for k in range(n_orbits):
        cz = draw(st.integers(-2, 2))
        q, p = orbit_variable_pair(f"o{k}", 1, cz=cz, half_dim=half_dim,
                                   multiplicity=draw(st.integers(1, 3)))
        variables.extend((q, p))
    table = VariableTable(variables, half_dim=half_dim)
    policy = TruncationPolicy(max_pq_order=20, max_hbar_order=8)
    out = []
    for _ in range(n_series):
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            factors = {}
            for v in table.variables:
                if hbar_free and v.kind == "hbar":
                    continue
                if draw(st.booleans()):
                    factors[v.name] = 1 if v.odd else draw(st.integers(1, 2))
            coeff = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
            mono = tuple(sorted((table.position(n), e)
                                for n, e in factors.items()))
            terms[mono] = terms.get(mono, Fraction(0)) + coeff
        out.append(table.series(terms, policy))
    return (table, *out)


def parity_parts(f):
    return [p for p in f.parity_parts() if not p.is_zero()]


def _odd_part(series):
    for m in series.terms:
        return bool(sum(series.table.parity[p] for p, _ in m) % 2)
    return False


@settings(max_examples=60, deadline=None)
@given(table_and_series(2))
def test_super_commutativity(ts):
    table, f, g = ts
    for fp in parity_parts(f):
        for gp in parity_parts(g):
            s = -1 if (_odd_part(fp) and _odd_part(gp)) else 1
            assert (fp * gp - (gp * fp).scale(s)).is_zero()


@settings(max_examples=60, deadline=None)
@given(table_and_series(2))
def test_graded_leibniz(ts):
    table, f, g = ts
    for v in table.names():
        for fp in parity_parts(f):
            s = -1 if (table.variable(v).odd and _odd_part(fp)) else 1
            lhs = (fp * g).derivative(v)
            rhs = fp.derivative(v) * g + (fp * g.derivative(v)).scale(s)
            assert (lhs - rhs).is_zero()


@settings(max_examples=40, deadline=None)
@given(table_and_series(3))
def test_graded_jacobi(ts):
    table, f, g, h = ts
    for fp in parity_parts(f):
        for gp in parity_parts(g):
            for hp in parity_parts(h):
                s = -1 if (_odd_part(fp) and _odd_part(gp)) else 1
                r = poisson_bracket(fp, poisson_bracket(gp, hp)) \
                    - poisson_bracket(poisson_bracket(fp, gp), hp) \
                    - poisson_bracket(gp, poisson_bracket(fp, hp)).scale(s)
                assert r.is_zero()


@settings(max_examples=40, deadline=None)
@given(table_and_series(2))
def test_star_associative_and_commutator_divisible(ts):
    table, f, g = ts
    h = table.var(table.names()[1])
    assert star_product(star_product(f, g), h) == star_product(f, star_product(g, h))
    for fp in parity_parts(f):
        for gp in parity_parts(g):
            w = weyl_commutator(fp, gp)
            assert w.truncate(replace(w.policy, max_hbar_order=0)).is_zero()


@settings(max_examples=60, deadline=None)
@given(table_and_series(2, hbar_free=True))
def test_hbar_linear_term_is_bracket(ts):
    table, f, g = ts
    fe = f.parity_parts()[0]
    ge = g.parity_parts()[0]
    w = weyl_commutator(fe, ge)
    pos = next(i for i, v in enumerate(table.variables) if v.kind == "hbar")
    lin = {}
    for mono, c in w.terms.items():
        d = dict(mono)
        if d.get(pos, 0) == 1:
            d.pop(pos)
            lin[tuple(sorted(d.items()))] = c
    assert lin == poisson_bracket(fe, ge).terms


# -- windowed brackets ------------------------------------------------------------


@st.composite
def wide_table_and_series(draw):
    """Orbits at covers 1..3, t variables, odd q/p, Laurent hbar exponents."""
    half_dim = draw(st.sampled_from((1, 2)))
    variables = [planck_variable(half_dim)]
    for k in range(draw(st.integers(1, 2))):
        for cover in draw(st.lists(st.integers(1, 3), min_size=1, max_size=3,
                                   unique=True)):
            variables.extend(orbit_variable_pair(
                f"o{k}", cover, cz=draw(st.integers(-1, 1)),
                half_dim=half_dim, multiplicity=draw(st.integers(1, 3))))
    for level in range(draw(st.integers(0, 2))):
        variables.append(descendant_variable("a", level, draw(st.integers(0, 1))))
    table = VariableTable(variables, half_dim=half_dim)
    out = []
    for _ in range(2):
        terms = {}
        for _ in range(draw(st.integers(1, 6))):
            mono = []
            for pos in draw(st.sets(st.integers(0, len(table) - 1), max_size=4)):
                v = table.variables[pos]
                if v.kind == "hbar":
                    e = draw(st.integers(-2, 3).filter(bool))
                else:
                    e = 1 if v.odd else draw(st.integers(1, 3))
                mono.append((pos, e))
            mono.sort()
            coeff = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
            mono = tuple(mono)
            terms[mono] = terms.get(mono, Fraction(0)) + coeff
        out.append(table.series(terms))
    return (table, *out)


tight_policies = st.builds(
    TruncationPolicy, max_t_order=st.integers(0, 3), max_cover=st.integers(1, 3),
    max_pq_order=st.integers(0, 5), max_hbar_order=st.integers(-1, 3))


@settings(max_examples=150, deadline=None)
@given(wide_table_and_series(), tight_policies)
def test_windowed_bracket_equals_truncated_full_bracket(ts, policy):
    table, f, g = ts
    windowed = poisson_bracket(f, g, policy)
    assert windowed.terms == poisson_bracket(f, g).truncate(policy).terms
    assert windowed.policy == f.policy.cap(g.policy).cap(policy)


@pytest.mark.parametrize("f, g, policy, want", [
    # hbar^3 p pairs with hbar^-2 q: the hbar-3 derivative lies above the
    # output cap, the product (hbar^1) inside it
    ({"hbar": 3, "p[o0,1]": 1}, {"hbar": -2, "q[o0,1]": 1},
     TruncationPolicy(max_hbar_order=1), {"hbar": 1}),
    # d(p q^2)/dp = q^2 sits exactly on the pq cap
    ({"p[o0,1]": 1, "q[o0,1]": 2}, {"q[o0,1]": 1},
     TruncationPolicy(max_pq_order=2), {"q[o0,1]": 2}),
])
def test_windowed_bracket_on_the_cap(f, g, policy, want):
    table = make_table(multiplicities=[2])
    f, g = table.monomial(f), table.monomial(g)
    assert poisson_bracket(f, g, policy) == table.monomial(want, 2)
    assert poisson_bracket(f, g, policy) == poisson_bracket(f, g).truncate(policy)


@settings(max_examples=60, deadline=None)
@given(wide_table_and_series())
def test_fused_partials_match_single_derivatives(ts):
    table, f, _ = ts
    loose = TruncationPolicy(max_t_order=99, max_cover=99, max_pq_order=99)
    for part in f.parity_parts():
        width = part._width
        dq, dp = _partials(table, part._records(width), loose, width)

        def terms(records):
            # every derived record carries the fields of its own key
            for r in records:
                assert r[2:] == _mono_info(table, _decode(r[0], width))
            return {_decode(r[0], width): Fraction(r[1], part._den)
                    for r in records}

        for pos, v in enumerate(table.variables):
            if v.kind == "q":
                assert terms(dq.get(pos, [])) == part.derivative(v.name).terms
            elif v.kind == "p":
                assert (terms(dp.get(pos, []))
                        == TupleSeries.of(part).right_derivative(v.name).terms)
            else:
                assert pos not in dq and pos not in dp


def test_deterministic_term_order():
    table = make_table(cz_list=(0, 1), half_dim=2)
    f = table.var("q[o0,1]") + table.var("p[o1,1]") * table.var("q[o1,1]")
    assert str(f) == str(table.series(dict(f.terms), f.policy))


def test_determinism_check_brackets_fresh_operands_per_worker(monkeypatch):
    """Each of the eight threaded brackets forms its own partials: no worker
    reads another's cached operand."""
    from sftlab import algebra, suites

    calls = []
    original = algebra._partials

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(algebra, "_partials", counted)
    report = suites.algebra_suite(samples=0)  # only the fixed checks run
    record = next(c for c in report.checks if c.id == "determinism.bracket")
    assert record.status == "pass"
    # the operands the check draws, and the parity parts of each
    policy = TruncationPolicy(max_pq_order=24, max_hbar_order=8)
    table = suites._random_table(random.Random(7))
    parts = sum(bool(part) for seed in (8, 9) for part in
                suites._random_series(random.Random(seed), table, policy).parity_parts())
    assert len(calls) == 8 * parts


def test_determinism_check_draws_are_pinned():
    """The operands the determinism check brackets: a change to the draw
    order of ``_random_series`` shows here."""
    from sftlab import suites

    policy = TruncationPolicy(max_pq_order=24, max_hbar_order=8)
    table = suites._random_table(random.Random(7))
    assert [str(suites._random_series(random.Random(seed), table, policy))
            for seed in (8, 9)] == [
        "2/3*hbar^2*q[o0,3]*p[o0,3]*p[o1,3]",
        "2*q[o1,3]^2*p[o0,3] - 3/2*q[o0,3]*q[o1,3]*p[o0,3]"]
