import copy
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from sftlab import cylhom, io as sio
from sftlab.algebra import TruncationPolicy
from sftlab.cylhom import (
    BlockExtraction, ChainComplexData, CountEntry, DressedComplex,
    Insertion, Orbit,
    OrbitSet, build_differential, build_floer_model, compare_equivariant_floer,
    compute_homology, contact_vanishing, d_squared_residual,
    LinearChainMap, _contract, _exact_on_cycles, _generic_residual_matrix,
    equivariant_trr_residuals, extract_equivariant, extract_floer,
    _witness_signature, noneq_trr_residuals, q_var_name, quantum_action,
    second_derivative_series, t_name, tc_name, z_name,
)
from sftlab.errors import LabelMismatchError, ValidationError
from sftlab.gw import (
    CorrelatorTable, TargetModel, assemble_potential, descendant_table,
)
from sftlab.linalg import _zp_add, kernel, rank
from sftlab.operators import (
    LinearOperator, graded_anticommutator, release_constrained_operator,
)
from sftlab.models import point_model, projective_line_model, two_point_model
from sftlab.suites import _generic_fixture, _trivial_02_fixture


@pytest.fixture(scope="module")
def floer_point():
    return build_floer_model(point_model(), periods=2, level_bound=2, t_order=2)


@pytest.fixture(scope="module")
def floer_toy():
    return build_floer_model(two_point_model(), periods=1, level_bound=1,
                             t_order=1)


# -- data validation ------------------------------------------------------------


def test_two_constrained_insertions_rejected():
    m = point_model()
    orbits = OrbitSet([Orbit("a", 0)], equivariant=False)
    ins = (Insertion("e", 0, True), Insertion("e", 0, True))
    entry = CountEntry(("a", "hat"), ("a", "hat"), ins, (), Fraction(1))
    with pytest.raises(ValidationError):
        ChainComplexData(orbits, [entry], m, CorrelatorTable(m))


def test_degree_rule_enforced():
    m = point_model()
    orbits = OrbitSet([Orbit("a", 0), Orbit("b", 0)], equivariant=False)
    # a plain entry between equal degrees violates deg(dst)-deg(src) = -1
    entry = CountEntry(("a", "hat"), ("b", "hat"), (), (), Fraction(1))
    with pytest.raises(ValidationError, match="degree"):
        ChainComplexData(orbits, [entry], m, CorrelatorTable(m))


def test_bad_orbits_do_not_generate():
    orbits = OrbitSet([Orbit("a", 0, good=False), Orbit("b", 0)],
                      equivariant=False)
    assert all(g.orbit == "b" for g in orbits.generators)


def test_check_generator_degree_shift():
    orbits = OrbitSet([Orbit("a", 3)], equivariant=False)
    degs = {g.flavor: g.degree for g in orbits.generators}
    assert degs == {"hat": 3, "check": 4}


# -- differentials and homology ----------------------------------------------------


def test_zero_and_acyclic_complexes():
    m = point_model()
    t = CorrelatorTable(m)
    orbits = OrbitSet([Orbit("a", 0)], equivariant=True)
    data = ChainComplexData(orbits, [], m, t)
    assert build_differential(data).plain.is_zero()
    h = compute_homology(data)
    assert h.total() == 1
    # acyclic: d(a) = b
    orbits2 = OrbitSet([Orbit("a", 1), Orbit("b", 0)], equivariant=True)
    data2 = ChainComplexData(
        orbits2, [CountEntry(("a", ""), ("b", ""), (), (), Fraction(1))], m, t)
    r, off = d_squared_residual(data2)
    assert r.is_zero()
    assert compute_homology(data2).total() == 0


def test_d_squared_fault_reported():
    m = point_model()
    t = CorrelatorTable(m)
    orbits = OrbitSet([Orbit("x", 2), Orbit("y", 1), Orbit("z", 0)],
                      equivariant=True)
    entries = [CountEntry(("x", ""), ("y", ""), (), (), Fraction(1)),
               CountEntry(("y", ""), ("z", ""), (), (), Fraction(1))]
    data = ChainComplexData(orbits, entries, m, t)
    r, offending = d_squared_residual(data)
    assert not r.is_zero()
    assert offending == [("x", "z")]
    with pytest.raises(ValidationError):
        compute_homology(data)


def test_homology_with_curve_class_coefficients():
    # d(a) = z * b over the rational-function field: acyclic
    m = projective_line_model()
    t = CorrelatorTable(m)
    orbits = OrbitSet([Orbit("a", 0), Orbit("b", 3)], equivariant=True)
    entries = [CountEntry(("a", ""), ("b", ""), (), (1,), Fraction(1))]
    data = ChainComplexData(orbits, entries, m, t)
    h = compute_homology(data)
    assert h.total() == 0
    # without the entry both classes survive
    data0 = ChainComplexData(orbits, [], m, t)
    assert compute_homology(data0).total() == 2


def test_rank_and_kernel_over_polynomials():
    z = lambda k: {(k,): Fraction(1)}
    mat = [[z(1), z(0)], [z(2), z(1)]]  # determinant 0: rank 1
    assert rank(mat) == 1
    assert kernel(mat, 1) == [[{(0,): Fraction(-1)}, {(1,): Fraction(1)}]]


def test_kernel_keeps_polynomial_coefficients():
    z = lambda k: {(k,): Fraction(1)}
    assert kernel([[z(1), z(2)]], 1) == [[{(1,): Fraction(-1)}, z(0)]]


def _z_complex(entries):
    """Equivariant generators a, b (degree 1), c, e (degree 0) over a model
    with two degree-0 curve classes."""
    m = TargetModel("two-curves", [("pt", 0)], "pt", [[1]], h2_rank=2,
                    chern=(0, 0))
    orbits = OrbitSet([Orbit("a", 1), Orbit("b", 1), Orbit("c", 0),
                       Orbit("e", 0)], equivariant=True)
    counts = [CountEntry((s, ""), (d, ""), (), deg, Fraction(1))
              for s, d, deg in entries]
    return ChainComplexData(orbits, counts, m, CorrelatorTable(m))


def test_exactness_with_polynomial_cycles():
    # d(a) = z1 c, d(b) = z1^2 c; the only cycle is z1 a - b up to scale,
    # and R(a) = z1 e, R(b) = z1^2 e kills it
    data = _z_complex([("a", "c", (1, 0)), ("b", "c", (2, 0))])
    plain = build_differential(data).plain
    ix = data.orbits.index
    residual = LinearChainMap(data.orbits)
    residual.add_term(ix(("e", "")), ix(("a", "")), (1, 0), Fraction(1))
    residual.add_term(ix(("e", "")), ix(("b", "")), (2, 0), Fraction(1))
    assert _exact_on_cycles(data, plain, residual) == (True, None)


def test_homology_representatives_are_cycles():
    # d(a) = z1 c, d(b) = (z1 + z2) c
    data = _z_complex([("a", "c", (1, 0)), ("b", "c", (1, 0)),
                       ("b", "c", (0, 1))])
    h = compute_homology(data)
    assert h.betti == {0: 1, 1: 1}
    plain = build_differential(data).plain
    gens = [str(g) for g in data.orbits.generators]
    for reps in h.representatives.values():
        for rep in reps:
            image = {}
            for (dst, src), poly in plain.entries.items():
                for ds, cs in rep.get(gens[src], {}).items():
                    for dp, cp in poly.items():
                        k = (dst, tuple(x + y for x, y in zip(ds, dp)))
                        image[k] = image.get(k, 0) + cs * cp
            assert not any(image.values()), rep


# -- the split product model ---------------------------------------------------------


def test_floer_point_structure(floer_point):
    maps = build_differential(floer_point)
    assert maps.plain.is_zero()
    r, _ = d_squared_residual(floer_point)
    assert r.is_zero()
    # two generators per period survive
    h = compute_homology(floer_point)
    assert h.total() == 2 * len(floer_point.orbits.orbits)
    # no wedged constrained decorations (divided-out symmetry)
    for (cid, lvl, constrained) in maps.decorated:
        if constrained:
            assert not cid.endswith("~dt")


def test_floer_toy_d_squared(floer_toy):
    r, _ = d_squared_residual(floer_toy)
    assert r.is_zero()
    h = compute_homology(floer_toy)
    assert h.total() == 2 * len(floer_toy.orbits.orbits)


def test_noneq_trr_20(floer_point):
    reps = noneq_trr_residuals(floer_point, "(2,0)")
    assert all(r.zero for r in reps)


def test_noneq_trr_20_toy(floer_toy):
    reps = noneq_trr_residuals(floer_toy, "(2,0)")
    assert all(r.zero for r in reps)


def test_noneq_trr_11_at_order_one():
    data = build_floer_model(point_model(), periods=1, level_bound=2, t_order=1,
                             section_choice="(1,1)")
    reps = noneq_trr_residuals(data, "(1,1)")
    assert all(r.zero for r in reps)


def test_noneq_trr_02_trivial_data():
    reps = noneq_trr_residuals(_trivial_02_fixture(), "(0,2)")
    assert all(r.zero for r in reps)


def test_wrong_label_rejected(floer_point):
    with pytest.raises(LabelMismatchError):
        noneq_trr_residuals(floer_point, "(1,1)")


def test_relabeled_data_fails_its_identity():
    # (2,0)-consistent counts relabeled as (0,2): nonzero residual detected
    data = build_floer_model(point_model(), periods=1, level_bound=2, t_order=1,
                             section_choice="(0,2)")
    reps = noneq_trr_residuals(data, "(0,2)")
    assert any(not r.zero for r in reps)


def test_fault_injection(floer_point):
    bad = floer_point.perturbed(0, Fraction(9))
    reps = noneq_trr_residuals(bad, "(2,0)")
    assert any(not r.zero for r in reps)


def test_all_zero_counts_pass_everything():
    base = build_floer_model(point_model(), periods=1, level_bound=1, t_order=1)
    empty = ChainComplexData(base.orbits, (), base.model, base.table, "(2,0)",
                             base.level_bound, base.t_order, base.contact,
                             base.fiber_model, base.fiber_table)
    reps = noneq_trr_residuals(empty, "(2,0)")
    assert all(r.zero for r in reps)


# -- extraction, comparison, applications ---------------------------------------------


def test_block_extraction(floer_point):
    ext = extract_equivariant(floer_point, "hat")
    assert ext.plain_blocks_equal
    assert ext.offdiag_plain_zero
    # the hat-to-check block of the plain differential is zero
    plain = build_differential(floer_point).plain
    assert not plain.block("check", "hat")


def test_equivariant_wedged_residuals_vanish(floer_point):
    # on bare and fiber-dressed generators; wedged-dressed arguments are
    # outside the generated data's scope
    reps = equivariant_trr_residuals(
        floer_point, "(2,0)", "hat", classes=["e~dt"],
        arg_classes={"e"})
    assert all(r.zero for r in reps)


def test_equivariant_floer_comparison(floer_point):
    for variant in ("(2,0)", "(1,1)", "(0,2)"):
        cmp = compare_equivariant_floer(floer_point, variant)
        assert cmp.hat_check_equal, cmp.details
        assert cmp.floer_match, cmp.details


def test_floer_restriction_is_fiber_only(floer_point):
    fl = extract_floer(floer_point)
    fiber_ids = {c.id for c in floer_point.fiber_model.classes}
    for e in fl.entries:
        assert all(i.class_id in fiber_ids for i in e.insertions)


def test_contact_vanishing(floer_point, floer_toy):
    cv = contact_vanishing(floer_point)
    assert cv.applicable and cv.passed
    assert all(p >= 1 for _, p, _ in cv.checked)
    cv2 = contact_vanishing(floer_toy)
    assert not cv2.applicable


def test_quantum_action(floer_point, floer_toy):
    for data in (floer_point, floer_toy):
        qa = quantum_action(data)
        assert qa.descends and qa.unit_ok and qa.composition_ok, qa.failures


def test_quantum_action_fault_detected(floer_toy):
    # break one unit-action entry: identity axiom fails on homology
    idx = next(i for i, e in enumerate(floer_toy.entries)
               if len(e.insertions) == 1 and e.insertions[0].constrained
               and e.insertions[0].class_id == "1"
               and e.src == e.dst)
    bad = floer_toy.perturbed(idx, Fraction(3))
    qa = quantum_action(bad)
    assert not qa.passed


@pytest.mark.parametrize("name", ["floer_point_20", "floer_twopoint"])
def test_doubled_three_point_value_breaks_only_composition(name):
    # the structure constants come from the table: the counts, and with them
    # descent and the unit axiom, are untouched
    data = sio.load_counts(sio.fixture_path(f"{name}.counts.json"))
    keys = [(k, v) for k, v in data.table.items_sorted()
            if len(k.insertions) == 3 and all(a == 0 for _, a in k.insertions)]
    assert len(keys) == {"floer_point_20": 1, "floer_twopoint": 3}[name]
    for key, v in keys:
        bad = copy.copy(data)
        bad.table = data.table.perturbed(key, 2 * v)
        qa = quantum_action(bad)
        assert qa.descends and qa.unit_ok and not qa.composition_ok, key


def test_generic_exactness_modes():
    good = _generic_fixture(exact=True)
    reps = noneq_trr_residuals(good, "(2,0)")
    assert all(r.zero for r in reps)
    bad = _generic_fixture(exact=False)
    reps = noneq_trr_residuals(bad, "(2,0)")
    assert any(not r.zero for r in reps)
    with pytest.raises(LabelMismatchError):
        noneq_trr_residuals(good, "(1,1)")


# -- dressed differential ----------------------------------------------------------

SHIPPED_COUNTS = ("floer_point_20", "floer_point_11", "floer_point_02",
                  "floer_twopoint", "generic", "generic_fault")


def _per_entry_differential(cx, series):
    """Sum over count entries of value * q_dst * insertions * z^d * d/dq_src."""
    vt = cx.vt
    out = vt.zero(cx.policy)
    for e in cx.data.entries:
        factors = {q_var_name(e.dst): 1}
        for ins in e.insertions:
            name = (tc_name if ins.constrained else t_name)(ins.class_id, ins.level)
            factors[name] = factors.get(name, 0) + 1
        factors.update({z_name(i): d for i, d in enumerate(e.degree) if d})
        der = series.derivative(q_var_name(e.src))
        if der:
            out = out + vt.monomial(factors, e.value, cx.policy) * der
    return out


def _arguments_to_t_order(cx):
    """Generators dressed with plain-t monomials of every order up to the
    data's t_order (the recursion residuals stop at order 1)."""
    vt = cx.vt
    tvars = [t_name(c.id, a) for c in cx.data.model.classes
             for a in range(cx.data.level_bound + 1)]
    for g in cx.data.orbits.generators:
        for k in range(cx.data.t_order + 1):
            for mono in combinations_with_replacement(tvars, k):
                factors = Counter(mono)
                if any(vt.variable(nm).odd and e > 1 for nm, e in factors.items()):
                    continue
                factors[q_var_name(g.key)] = 1
                yield vt.monomial(factors, 1, cx.policy)


@pytest.mark.parametrize("name", SHIPPED_COUNTS)
def test_grouped_dressed_differential_matches_per_entry_sum(name):
    data = sio.load_counts(sio.fixture_path(f"{name}.counts.json"))
    complexes = [DressedComplex(data)]
    if not data.orbits.equivariant:
        complexes.append(DressedComplex(extract_equivariant(data, "hat").data))
    for cx in complexes:
        dd = cx.dressed_differential()
        assert cx.dressed_differential() is dd
        checked = 0
        for arg in _arguments_to_t_order(cx):
            # the image is a sum of several terms: a second, denser argument
            for series in (arg, _per_entry_differential(cx, arg)):
                got, want = dd(series), _per_entry_differential(cx, series)
                assert got.terms == want.terms
                assert got.policy == want.policy
                checked += not want.is_zero()
        assert checked or not cx.data.entries


# -- one potential, one eta-contraction ---------------------------------------------


def _reembedded_potential(cx):
    """The potential assembled over gw's descendant table, then carried term
    by term into the chain variable table by variable name."""
    data = cx.data
    f = assemble_potential(data.table, cx.policy, var_table=descendant_table(
        data.model, data.level_bound))
    terms = {}
    for mono, c in f.terms.items():
        names = ((f.table.variables[p].name, e) for p, e in mono)
        terms[tuple(sorted((cx.vt.position(n), e) for n, e in names))] = c
    return cx.vt.series(terms, cx.policy)


@pytest.mark.parametrize("name", SHIPPED_COUNTS)
def test_potential_equals_the_reembedded_descendant_potential(name):
    data = sio.load_counts(sio.fixture_path(f"{name}.counts.json"))
    cx = DressedComplex(data)
    got, want = cx.potential(), _reembedded_potential(cx)
    assert got.terms == want.terms and got.policy == want.policy
    assert not want.is_zero()


P1_TWO_POINT = {(("1", 0), ("1", 0)): ((0,), Fraction(1, 2)),
                (("pt", 0), ("pt", 0)): ((1,), Fraction(3)),
                (("1", 0), ("pt", 1)): ((1,), Fraction(-2))}


def _p1_generic(f_term_scale=1):
    """Generic data over P1 whose level-1 and level-2 constrained maps are the
    contractions of stored two-point values with the level-0 maps, times
    ``f_term_scale``; the plain differential is zero."""
    m = projective_line_model()
    table = CorrelatorTable(m)
    table.set(m.key([("1", 0), ("1", 0), ("pt", 0)]), Fraction(1))
    for ins, (degree, v) in P1_TWO_POINT.items():
        table.set(m.key(ins, degree), v)
    orbits = OrbitSet([Orbit("a", 2), Orbit("b", 0)], equivariant=False)
    con = lambda cid, level: (Insertion(cid, level, True),)
    entries = []
    for o in ("a", "b"):
        for fl in ("hat", "check"):
            entries.append(CountEntry((o, fl), (o, fl), con("1", 0), (0,),
                                      Fraction(1)))
            # <pt pt>_1 eta^{pt 1}: z times the unit action
            entries.append(CountEntry((o, fl), (o, fl), con("pt", 1), (1,),
                                      3 * f_term_scale))
    for fl in ("hat", "check"):
        entries.append(CountEntry(("a", fl), ("b", fl), con("pt", 0), (0,),
                                  Fraction(1)))
        # <1 1>_0 eta^{1 pt} and <tau_1(pt) 1>_1 eta^{1 pt}: the pt action
        entries.append(CountEntry(("a", fl), ("b", fl), con("1", 1), (0,),
                                  Fraction(1, 2) * f_term_scale))
        entries.append(CountEntry(("a", fl), ("b", fl), con("pt", 2), (1,),
                                  -2 * f_term_scale))
    return ChainComplexData(orbits, entries, m, table, level_bound=2, t_order=1)


def _f_term_by_two_point_scan(data, maps, alpha, i):
    """sum_mu,nu <alpha_{i-1} mu_0>_d z^d eta^{mu nu} decorated(nu), read
    off the stored two-point keys."""
    model = data.model
    coeffs = [{} for _ in model.classes]
    for mu, cm in enumerate(model.classes):
        pair = sorted(((alpha, i - 1), (cm.id, 0)))
        for key, v in data.table.values.items():
            if len(key.insertions) == 2 and sorted(key.insertions) == pair:
                for nu in range(len(model.classes)):
                    w = model.eta_inv[mu][nu]
                    if w:
                        coeffs[nu] = _zp_add(coeffs[nu], {key.degree: w * v})
    return _contract(data.orbits, coeffs,
                     [maps.decorated.get((c.id, 0, True)) for c in model.classes])


def test_f_term_matrix_equals_the_two_point_scan():
    """The decorated map less the t-free residual operator is the F-term,
    whether the residual vanishes (scale 1) or not (scale 2)."""
    for scale in (1, 2):
        data = _p1_generic(scale)
        maps = build_differential(data)
        residuals = _generic_residual_matrix(DressedComplex(data))
        nonzero = 0
        for alpha in ("1", "pt"):
            for i in (1, 2):
                lhs = maps.decorated.get((alpha, i, True),
                                         LinearChainMap(data.orbits))
                got = lhs - residuals[alpha, i]
                want = _f_term_by_two_point_scan(data, maps, alpha, i)
                assert got.entries == want.entries, (scale, alpha, i)
                nonzero += not want.is_zero()
        assert nonzero == 3


def test_two_point_values_enter_the_generic_exactness_check():
    assert all(r.zero for r in noneq_trr_residuals(_p1_generic(), "(2,0)"))
    bad = [r.name for r in noneq_trr_residuals(_p1_generic(2), "(2,0)")
           if not r.zero]
    assert bad == ["(2,0) on homology alpha=1 i=1", "(2,0) on homology alpha=pt i=1",
                   "(2,0) on homology alpha=pt i=2"]


# -- faults in the block comparison -------------------------------------------------


def test_tripled_hat_action_breaks_only_the_floer_match():
    data = sio.load_counts(sio.fixture_path("floer_point_20.counts.json"))
    bad = data.perturbed(0, 3 * data.entries[0].value)
    cmp = compare_equivariant_floer(bad, "(2,0)")
    assert cmp.hat_check_equal and not cmp.floer_match
    assert cmp.details == ["mismatch at class e, level 1",
                           "mismatch at class e, level 2"]


@pytest.mark.parametrize("variant", ["(2,0)", "(1,1)", "(0,2)"])
def test_tripled_check_block_entry_breaks_only_hat_check_equality(variant):
    data = sio.load_counts(sio.fixture_path("floer_point_20.counts.json"))
    assert data.entries[3].src == ("ep1", "check")
    bad = data.perturbed(3, 3 * data.entries[3].value)
    cmp = compare_equivariant_floer(bad, variant)
    assert not cmp.hat_check_equal and cmp.floer_match
    assert cmp.details == ["hat and check extractions disagree"]


def test_block_extraction_sums_the_hat_to_check_plain_entries():
    """Two plain hat-to-check counts that cancel leave the connecting map
    zero; reading them entry by entry (the last one wins) would not."""
    data = _generic_fixture()
    cancel = [CountEntry(("a", "hat"), ("c", "check"), (), (), Fraction(v))
              for v in (1, -1)]
    data = replace(data, entries=data.entries + tuple(cancel))
    assert build_differential(data).plain.block("check", "hat") == {}
    ext = extract_equivariant(data, "hat")
    assert ext.offdiag_plain_zero and ext.plain_blocks_equal
    one_sided = replace(data, entries=data.entries[:-1])
    assert not extract_equivariant(one_sided, "hat").offdiag_plain_zero


# -- one recursion residual in the number of constrained points -------------------


def _decorated(cx, alpha, i, constrained):
    """d/dt^{alpha,i} (d/dtc^{alpha,i} if constrained) after the dressed
    differential; the stripped variable lowers the degree by its own."""
    nm = (tc_name if constrained else t_name)(alpha, i)
    dd = cx.dressed_differential()
    return LinearOperator(lambda s: dd(s).derivative(nm),
                          1 - cx.vt.variable(nm).degree)


def _point_count_op():
    """N on plain t factors only."""
    def count_plain(series):
        kinds = series.table.kinds
        return series.map_terms(lambda m: sum(e for p, e in m if kinds[p] == "t"))

    return LinearOperator(count_plain, 0)


def _three_branch_operator(cx, variant, alpha, i, equivariant):
    """The recursion identities written out one branch each: (2,0), (1,1)
    with half corrections through N, (0,2) through N(N-1) and N-1, the
    corrections as graded anticommutators of operators with a degree."""
    model = cx.data.model
    dd = cx.dressed_differential()
    lhs_con = not equivariant
    lhs_map = _decorated(cx, alpha, i, lhs_con)
    two = second_derivative_series(cx.potential(), model, alpha, i - 1)
    n_op = _point_count_op()
    release = release_constrained_operator(cx.vt)

    def rhs_f_term(post):
        level0 = [_decorated(cx, cls.id, 0, lhs_con) for cls in model.classes]

        def apply(series):
            out = cx.vt.zero(series.policy)
            for nu in range(len(model.classes)):
                if two[nu].is_zero():
                    continue
                out = out + two[nu] * post(level0[nu](series))
            return out
        return apply

    def corrections(ncheck_dress, n_dress):
        if not equivariant:
            return [graded_anticommutator(_decorated(cx, alpha, i - 1, True),
                                          ncheck_dress)]
        return [graded_anticommutator(_decorated(cx, alpha, i - 1, False),
                                      ncheck_dress),
                graded_anticommutator(_decorated(cx, alpha, i - 1, True), n_dress)]

    if variant == "(2,0)":
        rhs = rhs_f_term(lambda s: s)
        return lambda s: lhs_map(s) - rhs(s)
    if variant == "(1,1)":
        rhs = rhs_f_term(n_op)
        corrs = corrections(LinearOperator(lambda s: release(dd(s)), 0),
                            LinearOperator(lambda s: n_op(dd(s)), 1))

        def apply11(s):
            out = n_op(lhs_map(s)) - rhs(s)
            for corr in corrs:
                out = out - corr(s).scale(Fraction(1, 2))
            return out
        return apply11
    if variant == "(0,2)":
        def nn1(s):
            return n_op(n_op(s)) - n_op(s)
        rhs = rhs_f_term(nn1)

        def nm1_d(s):
            d = dd(s)
            return n_op(d) - d
        corrs = corrections(LinearOperator(lambda s: release(nm1_d(s)), 0),
                            LinearOperator(lambda s: n_op(nm1_d(s)), 1))

        def apply02(s):
            out = nn1(lhs_map(s)) - rhs(s)
            for corr in corrs:
                out = out - corr(s)
            return out
        return apply02
    raise ValidationError(f"unknown recursion variant {variant!r}", "variant")


def _three_branch_reports(cx, variant, equivariant, classes, arg_classes=None):
    """``cylhom._residual_reports`` through the oracle: one operator per
    class and level, evaluated on the generators, bare and times one plain
    t-variable of a class in ``arg_classes``, cut to the data's window."""
    data, vt = cx.data, cx.vt
    window = TruncationPolicy(max_t_order=data.t_order, max_pq_order=2)
    tvars = [t_name(c.id, a) for c in data.model.classes
             if arg_classes is None or c.id in arg_classes
             for a in range(data.level_bound + 1)]
    args = [((g, mono), vt.monomial(dict.fromkeys((q_var_name(g.key), *mono), 1),
                                    1, cx.policy))
            for g in data.orbits.generators for mono in [(), *((t,) for t in tvars)]]
    reports = []
    for alpha in classes:
        for i in range(1, data.level_bound + 1):
            op = _three_branch_operator(cx, variant, alpha, i, equivariant)
            hits = [(label, op(arg).truncate(window)) for label, arg in args]
            hits = [(label, out) for label, out in hits if not out.is_zero()]
            reports.append(cylhom.ResidualReport(f"{variant} alpha={alpha} i={i}",
                                                 not hits, hits))
    return reports


VARIANTS = ("(2,0)", "(1,1)", "(0,2)")


@pytest.fixture(scope="module")
def perturbed_by_label():
    """One Floer data set per section label, every third count raised by
    one: point fiber for (2,0) and (1,1), two-point fiber for (0,2)."""
    built = {
        "(2,0)": build_floer_model(point_model(), periods=2, level_bound=2,
                                   t_order=2),
        "(1,1)": build_floer_model(point_model(), periods=1, level_bound=2,
                                   t_order=1, section_choice="(1,1)"),
        "(0,2)": build_floer_model(two_point_model(), periods=1, level_bound=1,
                                   t_order=1, section_choice="(0,2)"),
    }
    out = {}
    for label, data in built.items():
        entries = [replace(e, value=e.value + 1) if n % 3 == 0 else e
                   for n, e in enumerate(data.entries)]
        out[label] = replace(data, entries=entries, section_choice=label)
    return out


def _all_residual_reports(data, variant):
    """Non-equivariant, hat-block and check-block reports of one identity."""
    relabeled = replace(data, section_choice=variant)
    return {"noneq": noneq_trr_residuals(relabeled, variant),
            **{flavor: equivariant_trr_residuals(relabeled, variant, flavor)
               for flavor in ("hat", "check")}}


@pytest.mark.parametrize("label", VARIANTS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_one_residual_in_k_matches_the_three_branches(label, variant,
                                                      perturbed_by_label,
                                                      monkeypatch):
    data = perturbed_by_label[label]
    got = _all_residual_reports(data, variant)
    monkeypatch.setattr(cylhom, "_residual_reports", _three_branch_reports)
    want = _all_residual_reports(data, variant)
    for mode, reports in want.items():
        assert any(not r.zero for r in reports), mode
        assert [(r.name, r.zero, _witness_signature(r.witnesses))
                for r in got[mode]] == [
            (r.name, r.zero, _witness_signature(r.witnesses)) for r in reports]


def test_unknown_recursion_variant_rejected(floer_point):
    cx = DressedComplex(floer_point)
    with pytest.raises(ValidationError, match="unknown recursion variant"):
        cylhom._identity_residuals(cx, "generic", False, ["e"])


@pytest.mark.parametrize("variant, flavor, applications", [
    ("(2,0)", None, 28), ("(1,1)", None, 168), ("(1,1)", "hat", 154)])
def test_one_dressed_differential_pass_per_argument(variant, flavor, applications,
                                                    monkeypatch):
    """floer_point_20 has 28 non-equivariant arguments (4 generators, bare
    and times one of 6 t-variables) and 14 hat-block ones.  (2,0) applies D
    once per argument.  (1,1) adds D(release Q D s), on the hat block also
    D(N Q D s), and one D per class, level and correction: 4 per argument,
    8 on the hat block."""
    data = sio.load_counts(sio.fixture_path("floer_point_20.counts.json"))
    data = replace(data, section_choice=variant)
    calls = []
    original = DressedComplex.dressed_differential

    def counted(cx):
        dd = original(cx)

        def apply(series):
            calls.append(1)
            return dd(series)
        return apply

    monkeypatch.setattr(DressedComplex, "dressed_differential", counted)
    if flavor is None:
        noneq_trr_residuals(data, variant)
    else:
        equivariant_trr_residuals(data, variant, flavor)
    assert len(calls) == applications


# -- block extraction against the grouped extraction -------------------------------


def _grouped_extraction(data, source_flavor="hat"):
    """The extraction that grouped free diagonal entries and constrained
    hat-to-check entries by insertion signature and compared groups of
    equal signature: (single-flavor data, plain_blocks_equal,
    offdiag_plain_zero, identification_consistent)."""
    if data.orbits.equivariant:
        raise ValidationError("data is already equivariant", "orbits")
    orbit_set = OrbitSet(data.orbits.orbits, equivariant=True)
    entries = []
    free_diag = {}
    con_offdiag = {}

    def sig(e):
        return tuple(sorted((i.class_id, i.level, i.constrained)
                            for i in e.insertions))

    def entry_matrix(es):
        out = {}
        for e in es:
            k = (e.src[0], e.dst[0], e.degree)
            out[k] = out.get(k, Fraction(0)) + e.value
        return {k: v for k, v in out.items() if v}

    for e in data.entries:
        if not e.insertions:
            continue
        sflav, dflav = e.src[1], e.dst[1]
        constrained = any(i.constrained for i in e.insertions)
        if sflav == dflav == source_flavor:
            if constrained:
                entries.append(CountEntry((e.src[0], ""), (e.dst[0], ""),
                                          e.insertions, e.degree, e.value))
            else:
                free_diag.setdefault(sig(e), []).append(e)
        elif sflav == "hat" and dflav == "check" and constrained:
            con_offdiag.setdefault(sig(e), []).append(e)
    plain = build_differential(data).plain
    for (dst, src), poly in plain.block(source_flavor, source_flavor).items():
        for deg, v in poly.items():
            entries.append(CountEntry((src, ""), (dst, ""), (), deg, v))
    consistent = True
    seen = set()
    for key, es in free_diag.items():
        seen.add(key)
        for e in es:
            entries.append(CountEntry((e.src[0], ""), (e.dst[0], ""),
                                      e.insertions, e.degree, e.value))
        other = con_offdiag.get(key)
        if other is not None:
            if entry_matrix(es) != entry_matrix(other):
                consistent = False
    for key, es in con_offdiag.items():
        if key in seen:
            continue
        for e in es:
            released = tuple(Insertion(i.class_id, i.level, False)
                             for i in e.insertions)
            entries.append(CountEntry((e.src[0], ""), (e.dst[0], ""),
                                      released, e.degree, e.value))
    eq = replace(data, orbits=orbit_set, entries=entries,
                 name=data.name + f"/{source_flavor}-block")
    return (eq, plain.block("hat", "hat") == plain.block("check", "check"),
            not plain.block("check", "hat"), consistent)


def _with_hat_to_check_entries(data):
    """Floer point data plus two constrained hat-to-check entries (valid
    non-equivariant counts), so the extraction releases insertions."""
    extra = (CountEntry(("ep1", "hat"), ("ep1", "check"),
                        (Insertion("e", 0, True), Insertion("e~dt", 0, False)),
                        (), Fraction(2)),
             CountEntry(("ep2", "hat"), ("ep1", "check"),
                        (Insertion("e~dt", 0, True),), (), Fraction(-1)))
    return replace(data, entries=data.entries + extra,
                   name=data.name + "+hat-to-check")


def _extraction_cases():
    cases = {}
    for name in SHIPPED_COUNTS:
        data = sio.load_counts(sio.fixture_path(f"{name}.counts.json"))
        cases[name] = data
        if data.entries:
            entries = [replace(e, value=e.value + 1) if n % 3 == 0 else e
                       for n, e in enumerate(data.entries)]
            cases[name + "+every-third"] = replace(data, entries=entries)
    return cases


def _extraction_reports(data):
    """Equivariant residual reports of both blocks and the contact check,
    through whatever ``cylhom.extract_equivariant`` currently is."""
    label = data.section_choice
    variant = "(2,0)" if label == "generic" else label
    reports = [(r.name, r.zero, _witness_signature(r.witnesses))
               for flavor in ("hat", "check")
               for r in equivariant_trr_residuals(data, variant, flavor)]
    return reports, contact_vanishing(data).checked


def _compare_extractions(data, monkeypatch):
    for flavor in ("hat", "check"):
        ext = extract_equivariant(data, flavor)
        eq, plain_equal, offdiag_zero, consistent = _grouped_extraction(data, flavor)
        assert consistent
        assert (ext.plain_blocks_equal, ext.offdiag_plain_zero) == (
            plain_equal, offdiag_zero)
        assert Counter(ext.data.entries) == Counter(eq.entries)
        assert ext.data.name == eq.name
    got = _extraction_reports(data)
    with monkeypatch.context() as m:
        m.setattr(cylhom, "extract_equivariant",
                  lambda d, f="hat": BlockExtraction(*_grouped_extraction(d, f)[:3]))
        want = _extraction_reports(data)
    assert got == want
    return got


@pytest.mark.parametrize("name", sorted(_extraction_cases()))
def test_extraction_matches_the_grouped_extraction(name, monkeypatch):
    reports, _ = _compare_extractions(_extraction_cases()[name], monkeypatch)
    if name.endswith("+every-third"):
        assert any(not zero for _, zero, _ in reports)


def test_extraction_releases_constrained_hat_to_check_entries(floer_point,
                                                              monkeypatch):
    """A released hat-to-check entry is two degrees off the single-flavor
    degree rule, so both extractions reject the data; with the rule lifted
    the released entries and every report agree."""
    data = _with_hat_to_check_entries(floer_point)
    for extract in (extract_equivariant, _grouped_extraction):
        with pytest.raises(ValidationError, match="entry degree mismatch"):
            extract(data, "hat")
    # the error names the first added entry where it sits in the data
    assert len(floer_point.entries) == 32
    for flavor in ("hat", "check"):
        with pytest.raises(ValidationError) as err:
            extract_equivariant(data, flavor)
        assert err.value.path == "entries[32]"
    monkeypatch.setattr(ChainComplexData, "_check_degree_rule",
                        lambda self, e, path: None)
    released = [CountEntry(("ep1", ""), ("ep1", ""),
                           (Insertion("e", 0, False), Insertion("e~dt", 0, False)),
                           (), Fraction(2)),
                CountEntry(("ep2", ""), ("ep1", ""), (Insertion("e~dt", 0, False),),
                           (), Fraction(-1))]
    for flavor in ("hat", "check"):
        entries = extract_equivariant(data, flavor).data.entries
        assert all(e in entries for e in released)
    reports, _ = _compare_extractions(data, monkeypatch)
    assert any(not zero for _, zero, _ in reports)
