from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from sftlab import io as sio
from sftlab.algebra import TruncationPolicy
from sftlab.errors import MissingPrimaryError, ValidationError
from sftlab.gw import (
    Bounds, CorrelatorTable, QuantumProduct, Reconstructor, TargetModel,
    _degree_splits, admissible_keys,
    assemble_potential, averaged_trr_residual, correlator_from_potential,
    enumerate_keys, quantum_product, reconstruct, restrict_series_max_t_order,
    string_dilaton_divisor_residuals, t_name, trr_residual,
)
from sftlab.gw_oracle import (
    point_correlator, point_correlator_closed_form, two_point_correlator,
)
from sftlab.models import point_model, projective_line_model, two_point_model


POINT_BOUNDS = Bounds(max_points=8, max_level=5)
TOY_BOUNDS = Bounds(max_points=7, max_level=3)
P1_BOUNDS = Bounds(max_points=6, max_level=2, max_degree=2)


@pytest.fixture(scope="module")
def point_table():
    return reconstruct(point_model(), POINT_BOUNDS)


@pytest.fixture(scope="module")
def toy_table():
    return reconstruct(two_point_model(), TOY_BOUNDS)


# -- oracles -----------------------------------------------------------------


def test_oracle_agrees_with_closed_form():
    for n in range(3, 9):
        for levels in combinations_with_replacement(range(6), n):
            assert point_correlator(tuple(levels)) == \
                point_correlator_closed_form(tuple(levels))


def test_point_examples(point_table):
    m = point_model()
    assert point_table.get(m.key([("e", 0)] * 3)) == 1
    assert point_table.get(m.key([("e", 1)] + [("e", 0)] * 3)) == 1
    assert point_table.get(m.key([("e", 1)] * 2 + [("e", 0)] * 3)) == 2


def test_point_reconstruction_matches_oracle(point_table):
    m = point_model()
    for n in range(3, 9):
        for levels in combinations_with_replacement(range(6), n):
            key = m.key([("e", a) for a in levels])
            assert point_table.get(key) == point_correlator(tuple(levels))


def test_two_point_reconstruction_matches_oracle(toy_table):
    m = two_point_model()
    for key in enumerate_keys(m, Bounds(max_points=7, max_level=3)):
        assert toy_table.get(key) == two_point_correlator(key.insertions)


def test_choice_independence_point():
    from itertools import combinations
    m = point_model()
    bounds = Bounds(max_points=7, max_level=3)
    base = reconstruct(m, bounds)
    for key in list(base.values):
        ins = list(key.insertions)
        target = max(range(len(ins)), key=lambda i: (ins[i][1], ins[i][0]))
        if ins[target][1] < 1 or len(ins) < 3:
            continue
        for bi, gi in combinations(range(len(ins) - 1), 2):
            def chooser(k, tgt, b=bi, g=gi, key0=key):
                if k == key0:
                    return b, g
                other = list(range(len(k.insertions) - 1))
                return other[0], other[1]
            rec = Reconstructor(m, trr_choice=chooser)
            assert rec.value(key) == base.get(key)


def test_missing_primary_reported():
    m = TargetModel("bare", [("e", 0)], "e", [[1]])
    rec = Reconstructor(m)
    with pytest.raises(MissingPrimaryError):
        rec.value(m.key([("e", 0)] * 3))


def test_dimension_filter_zeroes(point_table):
    m = point_model()
    # wrong level sum: dimension filter kills it
    assert point_table.get(m.key([("e", 2)] + [("e", 0)] * 2)) == 0


# -- one forgetful rule against the separate string and divisor rules ---------------


class _SeparateRulesReconstructor(Reconstructor):
    """The reconstruction with string and divisor as two rules, the default
    reference pair found by sorting and the rest of a split by multiset
    difference; records the keys the divisor rule reduces."""

    def __init__(self, model):
        super().__init__(model)
        self.divisor_keys = []

    def _compute(self, key):
        model = self.model
        ins = key.insertions
        n = len(ins)
        if n < 3 or not model.dimension_ok(key):
            return Fraction(0)
        unit = model.unit
        if n >= 4 and (unit, 0) in ins:
            return self._string(key)
        if n >= 4 and (unit, 1) in ins:
            return self._dilaton(key)
        if any(a >= 1 for _, a in ins):
            return self._trr(key)
        if key in model.primaries:
            return model.primaries[key]
        if (n >= 4 and model.divisor is not None
                and (model.divisor, 0) in ins and model.divisor_cup):
            self.divisor_keys.append(key)
            return self._divisor(key)
        raise MissingPrimaryError(key)

    def _string(self, key):
        ins = list(key.insertions)
        ins.remove((self.model.unit, 0))
        total = Fraction(0)
        for i, (c, a) in enumerate(ins):
            if a >= 1:
                rest = ins[:i] + [(c, a - 1)] + ins[i + 1:]
                total += self.value(self.model.key(rest, key.degree))
        return total

    def _divisor(self, key):
        model = self.model
        ins = list(key.insertions)
        ins.remove((model.divisor, 0))
        total = model.pairing_with_divisor(key.degree) * self.value(
            model.key(ins, key.degree))
        for i, (c, a) in enumerate(ins):
            if a >= 1:
                for b, coeff in model.cup_with_divisor(c).items():
                    if coeff:
                        rest = ins[:i] + [(b, a - 1)] + ins[i + 1:]
                        total += coeff * self.value(model.key(rest, key.degree))
        return total

    def _trr(self, key):
        model = self.model
        ins = list(key.insertions)
        target = max(range(len(ins)), key=lambda i: (ins[i][1], ins[i][0]))
        alpha, a = ins.pop(target)
        order = sorted(range(len(ins)),
                       key=lambda i: (model.class_index(ins[i][0]), ins[i][1]))
        bi, gi = order[0], order[1]
        beta, gamma = ins[bi], ins[gi]
        rest = [ins[i] for i in range(len(ins)) if i not in (bi, gi)]
        counts = {}
        for item in rest:
            counts[item] = counts.get(item, 0) + 1
        total = Fraction(0)
        for x1, mult in _counted_submultisets(counts):
            x2 = _multiset_minus(rest, x1)
            for d1, d2 in _degree_splits(key.degree):
                left_base = list(x1) + [(alpha, a - 1)]
                right_base = list(x2) + [beta, gamma]
                for mu in range(len(model.classes)):
                    for nu in range(len(model.classes)):
                        w = model.eta_inv[mu][nu]
                        if not w:
                            continue
                        left = model.key(left_base + [(model.classes[mu].id, 0)], d1)
                        lv = self.value(left)
                        if not lv:
                            continue
                        right = model.key(right_base + [(model.classes[nu].id, 0)],
                                          d2)
                        rv = self.value(right)
                        if not rv:
                            continue
                        total += mult * w * lv * rv
        return total


def _counted_submultisets(counts):
    items = sorted(counts.items())
    for picks in product(*[range(c + 1) for _, c in items]):
        mult = 1
        sub = []
        for (item, c), k in zip(items, picks):
            mult *= comb(c, k)
            sub.extend([item] * k)
        yield tuple(sub), mult


def _multiset_minus(whole, part):
    out = list(whole)
    for item in part:
        out.remove(item)
    return tuple(out)


def _p1_raised():
    """P1 with <pt pt pt>_1 raised by one."""
    m = projective_line_model()
    key = m.key([("pt", 0)] * 3, (1,))
    m.add_primary(key, m.primaries[key] + 1)
    return m


FORGETFUL_CASES = {
    "point": (point_model, Bounds(max_points=8, max_level=4)),
    "two-point": (two_point_model, Bounds(max_points=7, max_level=3)),
    "p1": (projective_line_model, Bounds(max_points=6, max_level=3, max_degree=3)),
    "p1-raised": (_p1_raised, Bounds(max_points=6, max_level=3, max_degree=3)),
}


def _values_by_both_rules(name):
    build, bounds = FORGETFUL_CASES[name]
    model = build()
    keys = list(enumerate_keys(model, bounds))
    oracle = _SeparateRulesReconstructor(model)
    want = {k: oracle.value(k) for k in keys}
    rec = Reconstructor(model)
    return {k: rec.value(k) for k in keys}, want, oracle.divisor_keys


@pytest.mark.parametrize("name", list(FORGETFUL_CASES))
def test_one_forgetful_rule_matches_the_separate_rules(name):
    got, want, _ = _values_by_both_rules(name)
    assert got == want
    assert any(want.values())


def test_divisor_rule_sees_a_raised_primary():
    """The divisor reductions of P1 are nonzero and change when a primary
    is raised, so the comparison above covers the divisor rule."""
    _, base, reduced = _values_by_both_rules("p1")
    _, raised, _ = _values_by_both_rules("p1-raised")
    assert reduced and all(base[k] for k in reduced if k in base)
    assert any(base[k] != raised[k] for k in reduced if k in base)


# -- the admissible-key walk against enumerate-and-filter ---------------------------


def _filtered_keys(model, bounds):
    """Every key within bounds, then the dimension filter."""
    return filter(model.dimension_ok, enumerate_keys(model, bounds))


def _reconstruct_every_key(model, bounds):
    """The reconstruction loop over every key within bounds."""
    rec = Reconstructor(model)
    table = CorrelatorTable(model)
    for key in enumerate_keys(model, bounds):
        v = rec.value(key)
        if v:
            table.set(key, v)
    return table


WALK_CASES = {
    "point": (point_model, Bounds(max_points=8, max_level=5, max_degree=3)),
    "two-point": (two_point_model, Bounds(max_points=7, max_level=3, max_degree=3)),
    "p1": (projective_line_model, Bounds(max_points=7, max_level=3, max_degree=3)),
    "p1-raised": (_p1_raised, Bounds(max_points=6, max_level=3, max_degree=3)),
}


@pytest.mark.parametrize("name", list(WALK_CASES))
def test_admissible_keys_are_the_filtered_keys_in_order(name):
    build, bounds = WALK_CASES[name]
    model = build()
    walked = list(admissible_keys(model, bounds))
    assert walked == list(_filtered_keys(model, bounds))
    assert walked


@pytest.mark.parametrize("name", list(WALK_CASES))
def test_reconstruct_gives_the_table_of_every_key(name):
    build, bounds = WALK_CASES[name]
    model = build()
    got = reconstruct(model, bounds)
    want = _reconstruct_every_key(model, bounds)
    assert list(got.values.items()) == list(want.values.items())
    assert got.values


@pytest.mark.parametrize("name", list(WALK_CASES))
def test_reconstruction_memoizes_only_canonical_keys(name):
    build, bounds = WALK_CASES[name]
    model = build()
    rec = Reconstructor(model)
    for key in admissible_keys(model, bounds):
        rec.value(key)
    assert len(rec.memo) > 1
    for key in rec.memo:
        assert key == model.key(key.insertions, key.degree)


@st.composite
def small_models(draw):
    """A model of classes paired in degree, listed in any order, with up to
    two curve classes of any first Chern number sign."""
    top = draw(st.integers(0, 4))
    degrees = [0] if top == 0 else [0, top]
    for k in draw(st.lists(st.integers(0, top), max_size=2)):
        degrees += [k] if 2 * k == top else [k, top - k]
    order = draw(st.permutations(range(len(degrees))))
    classes = [(f"c{i}", degrees[i]) for i in order]
    # each class pairs with the next one of the dual degree, or itself
    partner, free = {}, list(range(len(classes)))
    while free:
        i = free.pop(0)
        j = next((j for j in free if classes[i][1] + classes[j][1] == top), i)
        if j != i:
            free.remove(j)
        partner[i], partner[j] = j, i
    eta = [[int(partner[i] == j) for j in range(len(classes))]
           for i in range(len(classes))]
    unit = next(c for c, deg in classes if deg == 0)
    h2_rank = draw(st.integers(0, 2))
    chern = draw(st.lists(st.integers(-2, 2), min_size=h2_rank, max_size=h2_rank))
    model = TargetModel("drawn", classes, unit, eta, h2_rank=h2_rank, chern=chern)
    bounds = Bounds(max_points=draw(st.integers(3, 5)),
                    max_level=draw(st.integers(0, 2)),
                    max_degree=draw(st.integers(0, 2)))
    return model, bounds


@settings(max_examples=60, deadline=None)
@given(small_models())
def test_admissible_keys_match_the_filter_on_drawn_models(case):
    model, bounds = case
    assert list(admissible_keys(model, bounds)) == list(_filtered_keys(model, bounds))


def _partitions(total, largest):
    """Non-increasing tuples of positive parts <= largest summing to total."""
    if total == 0:
        yield ()
        return
    for part in range(min(total, largest), 0, -1):
        for rest in _partitions(total - part, part):
            yield (part,) + rest


def test_point_reconstruction_at_large_bounds():
    m, bounds = point_model(), Bounds(max_points=12, max_level=9)
    table = reconstruct(m, bounds)
    assert len(table.values) == 97
    for key, v in table.values.items():
        assert v == point_correlator_closed_form(tuple(a for _, a in key.insertions))
    # level multisets with sum(a) = n - 3: a partition of n - 3 padded with zeros
    want = {tuple(sorted(parts + (0,) * (n - len(parts))))
            for n in range(3, 13) for parts in _partitions(n - 3, 9)}
    walked = [tuple(a for _, a in key.insertions) for key in admissible_keys(m, bounds)]
    assert len(walked) == len(set(walked)) and set(walked) == want


# -- model validation -----------------------------------------------------------


def test_singular_eta_rejected():
    with pytest.raises(ValidationError, match="eta not invertible"):
        TargetModel("bad", [("a", 0), ("b", 0)], "a", [[1, 1], [1, 1]])


def test_eta_degree_compatibility():
    with pytest.raises(ValidationError):
        TargetModel("bad", [("a", 0), ("b", 2)], "a", [[1, 1], [1, 1]])


def test_primary_with_descendant_rejected():
    m = point_model()
    with pytest.raises(ValidationError):
        m.add_primary(m.key([("e", 1), ("e", 0), ("e", 0)]), 1)


def test_table_dimension_filter():
    m = point_model()
    t = CorrelatorTable(m)
    with pytest.raises(ValidationError):
        t.set(m.key([("e", 1)] + [("e", 0)] * 2), 1)


# -- potential and residuals -------------------------------------------------------


def test_potential_round_trip(point_table):
    m = point_model()
    policy = TruncationPolicy(max_t_order=8)
    f = assemble_potential(point_table, policy, max_level=5)
    for key, v in point_table.values.items():
        assert correlator_from_potential(f, key) == v


def test_single_entry_potential():
    m = point_model()
    t = CorrelatorTable(m)
    t.set(m.key([("e", 0)] * 3), 1)
    f = assemble_potential(t, TruncationPolicy(max_t_order=4), max_level=0)
    assert f == f.table.monomial({"t[e,0]": 3}, Fraction(1, 6))


def test_empty_table_potential():
    m = point_model()
    f = assemble_potential(CorrelatorTable(m), TruncationPolicy(), max_level=0)
    assert f.is_zero()


def _potential(table, bounds):
    policy = TruncationPolicy(max_t_order=bounds.max_points)
    return assemble_potential(table, policy, max_level=bounds.max_level)


def test_trr_residuals_zero(point_table):
    f = _potential(point_table, POINT_BOUNDS)
    for i, j, k in ((1, 0, 0), (1, 1, 0), (2, 0, 0), (3, 1, 2)):
        r = trr_residual(f, point_table.model, ("e", i), ("e", j), ("e", k))
        assert restrict_series_max_t_order(r, 5).is_zero()


def test_trr_residuals_zero_toy(toy_table):
    f = _potential(toy_table, TOY_BOUNDS)
    for alpha in ("1", "x"):
        for beta, gamma in ((("x", 0), ("x", 0)), (("1", 0), ("x", 1))):
            r = trr_residual(f, toy_table.model, (alpha, 1), beta, gamma)
            assert restrict_series_max_t_order(r, 4).is_zero()


def test_averaged_trr_zero(point_table, toy_table):
    f = _potential(point_table, POINT_BOUNDS)
    for i in (1, 2):
        r = averaged_trr_residual(f, point_table.model, "e", i)
        assert restrict_series_max_t_order(r, 5).is_zero()
    f = _potential(toy_table, TOY_BOUNDS)
    r = averaged_trr_residual(f, toy_table.model, "x", 1)
    assert restrict_series_max_t_order(r, 4).is_zero()


def test_vacuous_level_is_zero(point_table):
    f = _potential(point_table, POINT_BOUNDS)
    # a level with no entries in bounds: vacuously zero
    r = averaged_trr_residual(f, point_table.model, "e", 5)
    assert restrict_series_max_t_order(r, 5).is_zero()


def test_fault_injection_detected(point_table):
    m = point_model()
    bad = point_table.perturbed(m.key([("e", 1)] + [("e", 0)] * 3), 2)
    policy = TruncationPolicy(max_t_order=8)
    f = assemble_potential(bad, policy, max_level=5)
    r = trr_residual(f, m, ("e", 1), ("e", 0), ("e", 0))
    assert not restrict_series_max_t_order(r, 5).is_zero()
    ra = averaged_trr_residual(f, m, "e", 1)
    assert not restrict_series_max_t_order(ra, 5).is_zero()


def test_string_dilaton(point_table):
    f = _potential(point_table, POINT_BOUNDS)
    eq = string_dilaton_divisor_residuals(f, point_table.model)
    assert restrict_series_max_t_order(eq.string, 7).is_zero()
    assert restrict_series_max_t_order(eq.dilaton, 7).is_zero()
    assert eq.divisor is None


def test_string_dilaton_detect_a_perturbed_value(point_table):
    m = point_model()
    bad = point_table.perturbed(m.key([("e", 1)] + [("e", 0)] * 3), 2)
    f = _potential(bad, POINT_BOUNDS)
    eq = string_dilaton_divisor_residuals(f, m)
    assert not restrict_series_max_t_order(eq.string, 7).is_zero()
    assert not restrict_series_max_t_order(eq.dilaton, 7).is_zero()


def _equations_oracle(table, policy, f, max_level):
    """The three equations written out one by one (string and divisor as
    separate formulas, dilaton through the Euler scaling -(r - 2) of
    t-order r): (string, dilaton, divisor or None)."""
    model = table.model
    vt = f.table

    def shifted_sum(derivative_weights):
        """sum_{a,k} t^{a,k+1} * sum_b w[a][b] * df/dt^{b,k}"""
        acc = vt.zero(policy)
        for a, cls in enumerate(model.classes):
            for k in range(max_level):
                lead = vt.var(t_name(cls.id, k + 1), 1, policy)
                for b, cls2 in enumerate(model.classes):
                    w = derivative_weights[a][b]
                    if w:
                        acc = acc + (lead * f.derivative(t_name(cls2.id, k))).scale(w)
        return acc

    nclasses = len(model.classes)
    identity_w = [[Fraction(1 if a == b else 0) for b in range(nclasses)]
                  for a in range(nclasses)]

    # string
    quad = vt.zero(policy)
    for mu, cm in enumerate(model.classes):
        for nu, cn in enumerate(model.classes):
            if model.eta[mu][nu]:
                quad = quad + (vt.var(t_name(cm.id, 0), 1, policy)
                               * vt.var(t_name(cn.id, 0), 1, policy)
                               ).scale(model.eta[mu][nu])
    string = (f.derivative(t_name(model.unit, 0)) - quad.scale(Fraction(1, 2))
              - shifted_sum(identity_w))

    # dilaton
    def euler(s):
        return s.map_terms(lambda m: -(sum(
            e for p, e in m if vt.kinds[p] in ("t", "tcheck")) - 2))

    dilaton = f.derivative(t_name(model.unit, 1)) - euler(f).scale(-1)

    # divisor
    divisor = None
    if model.divisor is not None and model.divisor_cup is not None:
        w = model.divisor
        pair = model.divisor_pairing or (1,) * model.h2_rank
        zweights = f.map_terms(lambda m: Fraction(sum(
            pair[vt.variables[p].indices[0]] * e for p, e in m
            if vt.kinds[p] == "z")))
        quad_d = vt.zero(policy)
        for mu, cm in enumerate(model.classes):
            cup = model.cup_with_divisor(cm.id)
            for nu, cn in enumerate(model.classes):
                coeff = sum((Fraction(cup.get(cb.id, 0)) * model.eta[b][nu]
                             for b, cb in enumerate(model.classes)), Fraction(0))
                if coeff:
                    quad_d = quad_d + (vt.var(t_name(cm.id, 0), 1, policy)
                                       * vt.var(t_name(cn.id, 0), 1, policy)
                                       ).scale(coeff)
        cup_w = [[Fraction(model.cup_with_divisor(ca.id).get(cb.id, 0))
                  for b, cb in enumerate(model.classes)]
                 for a, ca in enumerate(model.classes)]
        divisor = (f.derivative(t_name(w, 0)) - zweights
                   - quad_d.scale(Fraction(1, 2)) - shifted_sum(cup_w))
    return string, dilaton, divisor


def _perturbed_every(table, step):
    """Every step-th stored value (in sorted order) raised by one."""
    for n, (key, v) in enumerate(table.items_sorted()):
        if n % step == 0:
            table = table.perturbed(key, v + 1)
    return table


@pytest.mark.parametrize("name", ["point", "two-point", "p1"])
def test_equations_match_the_written_out_oracle(name, point_table, toy_table,
                                                p1_table):
    """One equation in w gives the string and divisor residuals of the
    separate formulas, on perturbed tables where they are nonzero."""
    table, bounds = {"point": (point_table, POINT_BOUNDS),
                     "two-point": (toy_table, TOY_BOUNDS),
                     "p1": (p1_table, P1_BOUNDS)}[name]
    bad = _perturbed_every(table, 3)
    max_level = bounds.max_level
    policy = TruncationPolicy(max_t_order=bounds.max_points)
    f = assemble_potential(bad, policy, max_level=max_level)
    eq = string_dilaton_divisor_residuals(f, bad.model)
    want = _equations_oracle(bad, policy, f, max_level)
    got = (eq.string, eq.dilaton, eq.divisor)
    for g, w in zip(got, want):
        if w is None:
            assert g is None
            continue
        assert not w.is_zero()
        assert g == w and g.policy == w.policy
    assert (eq.divisor is None) == (name != "p1")


# -- curve-class model --------------------------------------------------------------


@pytest.fixture(scope="module")
def p1_table():
    return reconstruct(projective_line_model(), P1_BOUNDS)


def test_p1_divisor_reduction(p1_table):
    m = projective_line_model()
    # all-point correlators on the line via the divisor fallback
    assert p1_table.get(m.key([("pt", 0)] * 3, (1,))) == 1
    assert p1_table.get(m.key([("pt", 0)] * 4, (1,))) == 1
    assert p1_table.get(m.key([("pt", 0)] * 5, (1,))) == 1


def test_p1_quantum_product(p1_table):
    m = projective_line_model()
    qp = quantum_product(m, p1_table)
    assert not qp.unit_axiom_violations()
    assert not qp.associativity_residuals()
    # pt * pt = z * 1
    assert qp.constant(1, 1, 0) == {(1,): Fraction(1)}
    assert qp.constant(1, 1, 1) == {}


def test_p1_wdvv_detects_a_perturbed_constant(p1_table):
    m = projective_line_model()
    structure = dict(quantum_product(m, p1_table).structure)
    structure[(1, 0, 1)] = {(0,): Fraction(2)}  # pt * 1 = 2 pt, 1 * pt = pt
    assert QuantumProduct(m, structure).associativity_residuals() == {
        (0, 0, 1, 1): {(0,): -1}, (0, 1, 0, 1): {(0,): 1},
        (1, 0, 1, 0): {(1,): 1}, (1, 1, 0, 0): {(1,): -1}}


def test_p1_trr_internal_consistency(p1_table):
    policy = TruncationPolicy(max_t_order=6)
    f = assemble_potential(p1_table, policy, max_level=2)
    r = trr_residual(f, p1_table.model, ("pt", 1), ("pt", 0), ("pt", 0))
    assert restrict_series_max_t_order(r, 3).is_zero()


def test_p1_divisor_equation_boundary(p1_table):
    # characterization: the stability convention (no 2-point values) leaves
    # a boundary term 1/2 t_pt^2 z in the divisor residual at t-order 2
    policy = TruncationPolicy(max_t_order=6)
    f = assemble_potential(p1_table, policy, max_level=2)
    eq = string_dilaton_divisor_residuals(f, p1_table.model)
    assert eq.divisor is not None
    low = restrict_series_max_t_order(eq.divisor, 2)
    vt = eq.divisor.table
    assert low == vt.monomial({"t[pt,0]": 2, "z0": 1}, Fraction(1, 2))
    # the z-free sector of the residual vanishes
    zfree = eq.divisor.map_terms(
        lambda mo: 1 if all(vt.variables[p].kind != "z" for p, _ in mo) else 0)
    assert restrict_series_max_t_order(zfree, 5).is_zero()


def test_empty_divisor_cup_means_no_divisor():
    """divisor_cup={} (io writes it as null) is no divisor data, in the
    reconstruction and in the equations alike."""
    p1 = sio.load_model(sio.fixture_path("p1.model.json"))
    bare = TargetModel(p1.name, p1.classes, p1.unit, p1.eta, p1.h2_rank, p1.chern,
                       divisor=p1.divisor, divisor_cup={},
                       divisor_pairing=p1.divisor_pairing)
    for key, value in p1.primaries.items():
        bare.add_primary(key, value)
    assert p1.has_divisor and not bare.has_divisor
    table = reconstruct(p1, Bounds(max_points=5, max_level=2, max_degree=2))
    f = assemble_potential(table, TruncationPolicy(max_t_order=5), max_level=2)
    eq = string_dilaton_divisor_residuals(f, bare)
    assert eq.divisor is None
    full = string_dilaton_divisor_residuals(f, p1)
    assert full.divisor is not None
    assert (eq.string, eq.dilaton) == (full.string, full.dilaton)
    with pytest.raises(MissingPrimaryError):
        Reconstructor(bare).value(bare.key([("pt", 0)] * 4, (1,)))
    with pytest.raises(ValidationError, match="no forgetful rule"):
        bare.forgetting("pt")


def test_forgetful_rule_of_the_unit_and_the_divisor():
    m = projective_line_model()
    cup, weight = m.forgetting("1")
    assert (cup("pt"), weight((3,))) == ({"pt": 1}, 0)
    cup, weight = m.forgetting("pt")
    assert (cup("1"), cup("pt"), weight((3,))) == ({"pt": 1}, {}, 3)


def test_negative_curve_class_rejected():
    m = projective_line_model()
    with pytest.raises(ValidationError):
        m.key([("pt", 0)] * 3, (-1,))
