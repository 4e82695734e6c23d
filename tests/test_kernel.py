"""The packed product and bracket kernel against the literal definitions.

The references below use neither packed keys nor `_partials`: products
merge tuple monomials with `_mono_mul` and keep what `_allowed` admits,
brackets differentiate with `derivative` and `right_derivative`.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from sftlab.algebra import (
    TruncationPolicy, VariableTable, _allowed, _mono_mul, curve_class_variable,
    descendant_variable, orbit_variable_pair, planck_variable, poisson_bracket,
    right_derivative,
)

LOOSE = TruncationPolicy(max_t_order=5000, max_cover=99, max_pq_order=5000,
                         max_hbar_order=5000)


def reference_product(f, g, policy):
    """Terms of f*g: every pair of terms merged and signed, kept in policy."""
    table = f.table
    out = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            merged = _mono_mul(table, m1, m2)
            if merged is not None and _allowed(table, merged[1], policy):
                sign, mono = merged
                out[mono] = out.get(mono, 0) + sign * c1 * c2
    return {m: c for m, c in out.items() if c}


def reference_bracket(f, g, policy):
    """Terms of sum_orbits kappa*(df/dp dg/dq - (-1)^{|f||g|} dg/dp df/dq)."""
    table = f.table
    out = {}

    def add(terms, scale):
        for m, c in terms.items():
            out[m] = out.get(m, 0) + scale * c

    for fodd, fp in enumerate(f.parity_parts()):
        for godd, gp in enumerate(g.parity_parts()):
            sgn = -1 if (fodd and godd) else 1
            for q in table.variables:
                if q.kind != "q":
                    continue
                p = next(v for v in table.variables
                         if v.kind == "p" and v.indices == q.indices)
                kappa = q.multiplicity
                add(reference_product(right_derivative(fp, p.name),
                                      gp.derivative(q.name), policy), kappa)
                add(reference_product(right_derivative(gp, p.name),
                                      fp.derivative(q.name), policy), -sgn * kappa)
    return {m: c for m, c in out.items() if c}


@st.composite
def kernel_case(draw):
    """Two series on a table with odd q/p, t, t-check, z and Laurent hbar.

    ``big`` bounds the exponents: 600 needs a wider field than 3 or 40.
    """
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
    big = draw(st.sampled_from((3, 40, 600)))
    series = []
    for _ in range(2):
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
        series.append(table.series(terms, LOOSE))
    return (table, *series)


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
    assert (f * g).terms == reference_product(f, g, f._join(g))
    assert (g * f).terms == reference_product(g, f, f._join(g))


@settings(max_examples=120, deadline=None)
@given(kernel_case(), policies)
def test_bracket_matches_reference(case, policy):
    table, f, g = case
    window = f._join(g).cap(policy)
    assert poisson_bracket(f, g, policy).terms == reference_bracket(f, g, window)
    assert poisson_bracket(f, g).terms == reference_bracket(f, g, f._join(g))


def test_laurent_exponents_cancel_to_the_empty_monomial():
    q, p = orbit_variable_pair("o", 1, multiplicity=2)
    table = VariableTable([planck_variable(1), curve_class_variable(0, 1), q, p])
    f = table.monomial({"z0": 3, q.name: 1})
    g = table.monomial({"z0": -3, p.name: 1}, Fraction(1, 2))
    assert f * g == table.monomial({q.name: 1, p.name: 1}, Fraction(1, 2))
    # {f, g} = 2 * (0 - d(g)/dp * d(f)/dq) = -2 * z^-3 * z^3 / 2
    assert poisson_bracket(f, g) == table.unit(-1)
    assert poisson_bracket(f, g).terms == reference_bracket(f, g, f._join(g))
