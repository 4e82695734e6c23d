"""The packed product, bracket and star kernel against literal definitions.

The references below use neither packed keys, `_partials` nor the Wick
formula: products merge tuple monomials with `_mono_mul` and keep what
`_allowed` admits, brackets differentiate with `derivative` and
`right_derivative`, and star products rewrite q/p words into normal order
one adjacent transposition at a time.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sftlab.algebra import (
    HBAR, PORBIT, QORBIT, TruncationPolicy, VariableTable, _allowed,
    curve_class_variable, descendant_variable, orbit_variable_pair,
    planck_variable, poisson_bracket, right_derivative, star_product,
    weyl_commutator,
)
from sftlab.errors import DeclarationError

LOOSE = TruncationPolicy(max_t_order=5000, max_cover=99, max_pq_order=5000,
                         max_hbar_order=5000)


def _mono_mul(table, m1, m2):
    """Merge two canonical monomials; returns (sign, monomial) or None for zero.

    The sign is the Koszul sign of interleaving the two sorted factor words:
    each odd letter taken from m2 crosses the odd letters of m1 not yet
    consumed.
    """
    if not m1:
        return 1, m2
    if not m2:
        return 1, m1
    parity = table.parity
    out = []
    sign = 1
    i = j = 0
    odd_left = sum(1 for p, e in m1 if parity[p])
    while i < len(m1) and j < len(m2):
        p1, e1 = m1[i]
        p2, e2 = m2[j]
        if p1 < p2:
            out.append((p1, e1))
            if parity[p1]:
                odd_left -= 1
            i += 1
        elif p1 > p2:
            if parity[p2] and odd_left % 2:
                sign = -sign
            out.append((p2, e2))
            j += 1
        else:
            if parity[p1]:
                return None  # odd square
            if e1 + e2:
                out.append((p1, e1 + e2))
            i += 1
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return sign, tuple(out)


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


# -- star product ----------------------------------------------------------------


def rewriting_star_product(f, g):
    """Terms of f*g by word rewriting.

    The central blocks (everything but q/p) of two terms are merged with
    their Koszul sign; the concatenated q/p words are then sorted back to
    canonical (q-left) order by adjacent transpositions, and every
    transposition of p past q of the same orbit branches into the Koszul
    swap plus a kappa*hbar contraction.
    """
    table = f.table
    policy = f._join(g)
    kinds, parity = table.kinds, table.parity
    hbar = table.kinds.index(HBAR) if HBAR in table.kinds else None

    def split(mono):
        central = tuple((p, e) for p, e in mono if kinds[p] not in (QORBIT, PORBIT))
        word = [p for p, e in mono if kinds[p] in (QORBIT, PORBIT) for _ in range(e)]
        return central, word

    out = {}
    for m1, c1 in f.terms.items():
        cen1, w1 = split(m1)
        for m2, c2 in g.terms.items():
            cen2, w2 = split(m2)
            merged = _mono_mul(table, cen1, cen2)
            if merged is None:
                continue
            sign, cen = merged
            # cen2 moves left past the q/p word of the first term
            if sum(parity[p] for p in w1) * sum(parity[p] for p, _ in cen2) % 2:
                sign = -sign
            pending = [(sign * c1 * c2, 0, w1 + w2)]
            while pending:
                coeff, hb, word = pending.pop()
                i = next((i for i in range(len(word) - 1)
                          if word[i] > word[i + 1]), None)
                if i is None:
                    if any(parity[p] and word.count(p) > 1 for p in word):
                        continue
                    factors = dict(cen)
                    if hb:
                        factors[hbar] = factors.get(hbar, 0) + hb
                    for p in word:
                        factors[p] = factors.get(p, 0) + 1
                    mono = tuple(sorted((p, e) for p, e in factors.items() if e))
                    if _allowed(table, mono, policy):
                        out[mono] = out.get(mono, 0) + coeff
                    continue
                a, b = word[i], word[i + 1]
                swap = -1 if parity[a] and parity[b] else 1
                pending.append((coeff * swap, hb, word[:i] + [b, a] + word[i + 2:]))
                if (kinds[a] == PORBIT and kinds[b] == QORBIT
                        and table.variables[a].indices == table.variables[b].indices):
                    if hbar is None:
                        raise DeclarationError("no hbar")
                    kappa = table.variables[a].multiplicity
                    pending.append((coeff * kappa, hb + 1, word[:i] + word[i + 2:]))
    return {m: c for m, c in out.items() if c}


def rewriting_weyl_commutator(f, g):
    """Terms of f*g - (-1)^{|f||g|} g*f, summed over parity parts."""
    out = {}
    for fodd, fp in enumerate(f.parity_parts()):
        for godd, gp in enumerate(g.parity_parts()):
            sgn = -1 if (fodd and godd) else 1
            for m, c in rewriting_star_product(fp, gp).items():
                out[m] = out.get(m, 0) + c
            for m, c in rewriting_star_product(gp, fp).items():
                out[m] = out.get(m, 0) - sgn * c
    return {m: c for m, c in out.items() if c}


@st.composite
def star_case(draw):
    """Two series with exponents at most 3 (the oracle branches per
    contraction) on a table with odd q/p, multiplicities 1-3, t, t-check,
    z and Laurent hbar.

    Each series draws its own exponent bound ``top`` and may carry hbar^top
    in every term: the hbar of a contraction then lands on the edge of the
    key field (bounds 2 and 1 give a 3-bit field, and hbar^(2+1+1)
    overflows it unless the width allows for the shift).
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
                    e = draw(st.integers(-top, top).filter(bool))
                else:
                    e = draw(st.integers(1, top))
                mono.append((pos, e))
            if hbar_top:
                mono.insert(0, (table.position("hbar"), top))
            coeff = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 6)))
            terms[tuple(mono)] = terms.get(tuple(mono), 0) + coeff
        series.append(table.series(terms, LOOSE))
    return (table, *series)


star_policies = st.one_of(
    st.just(LOOSE),
    st.builds(TruncationPolicy, max_t_order=st.integers(0, 3),
              max_cover=st.integers(1, 3), max_pq_order=st.integers(0, 12),
              max_hbar_order=st.integers(-3, 12)))


@settings(max_examples=150, deadline=None)
@given(star_case(), star_policies)
def test_star_product_matches_rewriting(case, policy):
    table, f, g = case
    f = f.truncate(policy)
    assert star_product(f, g).terms == rewriting_star_product(f, g)
    assert star_product(g, f).terms == rewriting_star_product(g, f)


@settings(max_examples=150, deadline=None)
@given(star_case(), star_policies)
def test_weyl_commutator_matches_rewriting(case, policy):
    table, f, g = case
    g = g.truncate(policy)
    w = weyl_commutator(f, g)
    assert w.terms == rewriting_weyl_commutator(f, g)
    assert w.policy == f._join(g)


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

    hbar3 = table.var("hbar", 3, LOOSE)
    cases = [
        # divided powers: (d/dp)^3/3! p^3 = 1, (d/dq)^3 q^3 = 6
        (v(p0, 3), v(q0, 3)),
        # hbar^3 * hbar^3 * hbar^|alpha| = hbar^9 needs the widened field
        (hbar3 * v(p0, 3), hbar3 * v(q0, 3)),
        # the right derivative by p1 passes the odd p2 after it
        (v(p1) * v(p2), v(q1) * v(q2)),
        (v(p1) * v(p2), v(q1)),
    ]
    for f, g in cases:
        assert star_product(f, g).terms == rewriting_star_product(f, g)
        assert weyl_commutator(f, g).terms == rewriting_weyl_commutator(f, g)
    assert star_product(v(p0, 3), v(q0, 3)).coefficient({"hbar": 3}) == 6 * 2 ** 3


def test_policy_cap_keeps_an_equal_policy():
    policy = TruncationPolicy(max_pq_order=5)
    assert policy.cap(TruncationPolicy(max_pq_order=5)) is policy
    assert policy.cap(LOOSE) == TruncationPolicy(
        max_t_order=16, max_cover=64, max_pq_order=5, max_hbar_order=8)
