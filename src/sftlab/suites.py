"""Verification suites: every identity the engine asserts, as check records.

Each suite function returns a VerificationReport whose checks carry the
mathematical statement being verified and a residual summary.  Checks are
pure and run one after another; records are sorted by id for deterministic
output.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction
from itertools import combinations_with_replacement

from . import cylhom, divisors, gw, gw_oracle, hierarchy
from .algebra import (
    GradedSeries, TruncationPolicy, VariableTable, mono_hbar_order,
    orbit_variable_pair, planck_variable, poisson_bracket, weyl_commutator,
)
from .errors import LabelMismatchError
from .models import point_model, two_point_model
from .report import CheckRecord, ERROR, FAIL, PASS, SKIP, VerificationReport


def _timed(fn):
    t0 = time.monotonic()
    out = fn()
    return out, int((time.monotonic() - t0) * 1000)


def _lap(spent, key, t):
    """Add the time since t to spent[key]; returns the time now."""
    now = time.monotonic()
    spent[key] += now - t
    return now


def _record(report, check_id, statement, ok, residual="", detail="", ms=None,
            skip=False):
    status = SKIP if skip else (PASS if ok else FAIL)
    report.add(CheckRecord(check_id, statement, status, residual, detail, ms))


def _run_checks(report, checks):
    """checks: list of (id, statement, thunk -> (ok, residual, detail)).

    A thunk that raises is recorded with status ``error``, not ``fail``:
    the check reached no verdict, and the rest of the suite still runs.
    """
    def run(item):
        cid, statement, thunk = item
        t0 = time.monotonic()
        try:
            ok, residual, detail = thunk()
            status = PASS if ok else FAIL
        except Exception as exc:  # noqa: BLE001 - one crash must not kill the suite
            status, residual, detail = ERROR, "", f"{type(exc).__name__}: {exc}"
        ms = int((time.monotonic() - t0) * 1000)
        return CheckRecord(cid, statement, status, residual, detail, ms)
    for item in checks:
        report.add(run(item))


# -- randomized series for the algebra suite ------------------------------------------


def _random_table(rng: random.Random, max_vars=6) -> VariableTable:
    n_orbits = rng.randint(1, max_vars // 2)
    variables = [planck_variable(rng.choice((1, 2, 3)))]
    m = variables[0].degree // 2 + 3
    for k in range(n_orbits):
        cz = rng.randint(-2, 2)
        q, p = orbit_variable_pair(f"o{k}", rng.randint(1, 3), cz=cz, half_dim=m,
                                   multiplicity=rng.randint(1, 3))
        variables.extend((q, p))
    return VariableTable(variables, half_dim=m)


def _random_series(rng: random.Random, table: VariableTable, policy,
                   max_terms=3, max_exp=2, hbar_free=False) -> GradedSeries:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        factors = {}
        for v in table.variables:
            if v.kind == "hbar" and hbar_free:
                continue
            if rng.random() < 0.45:
                factors[v.name] = 1 if v.odd else rng.randint(1, max_exp)
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if not coeff:
            continue
        mono = tuple(sorted((table.position(n), e) for n, e in factors.items()))
        terms[mono] = terms.get(mono, Fraction(0)) + coeff
    return table.series(terms, policy)


def _parity_split(f):
    """(part, is odd) for the nonzero parity parts of f."""
    return [(p, odd) for odd, p in enumerate(f.parity_parts()) if p]


def algebra_suite(samples=1000, seed=20240) -> VerificationReport:
    """Randomized graded-algebra axioms plus the Weyl relations."""
    report = VerificationReport("algebra")
    rng = random.Random(seed)
    policy = TruncationPolicy(max_pq_order=24, max_hbar_order=8)
    failures = {k: None for k in
                ("super-commutativity", "leibniz", "antisymmetry", "jacobi",
                 "hbar-divisibility", "hbar-linear-term")}
    spent = dict.fromkeys(failures, 0.0)  # seconds per identity
    count = 0
    while count < samples:
        table = _random_table(rng)
        f = _random_series(rng, table, policy)
        g = _random_series(rng, table, policy)
        h = _random_series(rng, table, policy)
        count += 1
        t = time.monotonic()
        # super-commutativity on homogeneous-parity parts
        for fp, fodd in _parity_split(f):
            for gp, godd in _parity_split(g):
                s = -1 if (fodd and godd) else 1
                r = fp * gp - (gp * fp).scale(s)
                if not r.is_zero() and failures["super-commutativity"] is None:
                    failures["super-commutativity"] = str(r)
        t = _lap(spent, "super-commutativity", t)
        # graded Leibniz for one derivative variable
        v = rng.choice(table.names())
        for fp, fodd in _parity_split(f):
            s = -1 if (table.variable(v).odd and fodd) else 1
            r = (fp * g).derivative(v) - fp.derivative(v) * g \
                - (fp * g.derivative(v)).scale(s)
            if not r.is_zero() and failures["leibniz"] is None:
                failures["leibniz"] = str(r)
        t = _lap(spent, "leibniz", t)
        # bracket antisymmetry and Jacobi on parity components
        for fp, fodd in _parity_split(f):
            for gp, godd in _parity_split(g):
                s = -1 if (fodd and godd) else 1
                r = poisson_bracket(fp, gp) + poisson_bracket(gp, fp).scale(s)
                if not r.is_zero() and failures["antisymmetry"] is None:
                    failures["antisymmetry"] = str(r)
        t = _lap(spent, "antisymmetry", t)
        for fp, fodd in _parity_split(f):
            for gp, godd in _parity_split(g):
                for hp, _ in _parity_split(h):
                    s = -1 if (fodd and godd) else 1
                    r = poisson_bracket(fp, poisson_bracket(gp, hp)) \
                        - poisson_bracket(poisson_bracket(fp, gp), hp) \
                        - poisson_bracket(gp, poisson_bracket(fp, hp)).scale(s)
                    if not r.is_zero() and failures["jacobi"] is None:
                        failures["jacobi"] = str(r)
        t = _lap(spent, "jacobi", t)
        # Weyl commutator: hbar divisibility; first order = bracket
        fe = _random_series(rng, table, policy, hbar_free=True)
        ge = _random_series(rng, table, policy, hbar_free=True)
        w = weyl_commutator(fe, ge)
        if any(mono_hbar_order(table, m) < 1 for m in w.terms):
            if failures["hbar-divisibility"] is None:
                failures["hbar-divisibility"] = str(w)
        t = _lap(spent, "hbar-divisibility", t)
        fe_even = fe.parity_parts()[0]
        ge_even = ge.parity_parts()[0]
        w = weyl_commutator(fe_even, ge_even)
        lin = _hbar_coefficient(table, w, 1)
        pb = dict(poisson_bracket(fe_even, ge_even).terms)
        if lin != pb and failures["hbar-linear-term"] is None:
            failures["hbar-linear-term"] = f"{lin} != {pb}"
        _lap(spent, "hbar-linear-term", t)
    statements = {
        "super-commutativity": "f*g = (-1)^{|f||g|} g*f",
        "leibniz": "d(f*g) = df*g + (-1)^{|v||f|} f*dg",
        "antisymmetry": "{f,g} = -(-1)^{|f||g|} {g,f}",
        "jacobi": "{f,{g,h}} = {{f,g},h} + (-1)^{|f||g|} {g,{f,h}}",
        "hbar-divisibility": "[f,g] lies in hbar * W",
        "hbar-linear-term": "hbar-linear part of [f,g] = {f,g} (even, hbar-free)",
    }
    for key, witness in failures.items():
        _record(report, f"random.{key}", f"{statements[key]} ({samples} samples)",
                witness is None, residual=witness or "0",
                ms=int(spent[key] * 1000))
    # pinned Weyl relations per multiplicity
    for kappa in (1, 2, 3):
        q, p = orbit_variable_pair("g", kappa, cz=0, half_dim=1,
                                   multiplicity=kappa)
        tb = VariableTable([q, p, planck_variable(1)])
        w = weyl_commutator(tb.var(p.name), tb.var(q.name))
        want = tb.monomial({"hbar": 1}, kappa)
        _record(report, f"weyl.kappa{kappa}",
                f"[p,q] = {kappa}*hbar at multiplicity {kappa}", w == want,
                residual=str(w - want))
    # determinism: canonical term order is reproducible under threading
    table = _random_table(random.Random(7))
    f = _random_series(random.Random(8), table, policy)
    g = _random_series(random.Random(9), table, policy)
    with ThreadPoolExecutor(max_workers=4) as pool:
        outs = list(pool.map(lambda _: str(poisson_bracket(f, g)), range(8)))
    _record(report, "determinism.bracket",
            "identical inputs give byte-identical canonical output",
            len(set(outs)) == 1)
    return report.finalize()


def _hbar_coefficient(table, series, power):
    pos = next(i for i, v in enumerate(table.variables) if v.kind == "hbar")
    out = {}
    for mono, c in series.terms.items():
        d = dict(mono)
        if d.get(pos, 0) == power:
            d.pop(pos)
            out[tuple(sorted(d.items()))] = c
    return out


# -- hierarchy ------------------------------------------------------------------------


def hierarchy_suite(cover_bound=6, max_level=3) -> VerificationReport:
    report = VerificationReport("hierarchy")
    levels = list(range(max_level + 1))
    (residuals, hams), ms = _timed(
        lambda: hierarchy.commutator_residuals(levels, cover_bound))
    for i in levels:
        for j in levels:
            if j < i:
                continue
            r = residuals[i][j]
            _record(report, f"commute.g{i}g{j}",
                    f"{{g_{i}, g_{j}}} = 0 on the cover-{cover_bound} window",
                    r.is_zero(), residual="0" if r.is_zero() else str(r), ms=ms)
    # pinned small values
    lat2 = hierarchy.OrbitLattice(2)
    tb = lat2.table()
    g0 = hierarchy.circle_hamiltonian(lat2, 0, table=tb)
    want = tb.monomial({"q[o,1]": 2, "p[o,2]": 1}, Fraction(1, 2)) + \
        tb.monomial({"q[o,2]": 1, "p[o,1]": 2}, Fraction(1, 2))
    _record(report, "values.g0", "g_0 at cover 2 = q1^2 p2/2 + q2 p1^2/2",
            g0 == want, residual=str(g0 - want))
    lat1 = hierarchy.OrbitLattice(1)
    tb1 = lat1.table()
    g1 = hierarchy.circle_hamiltonian(lat1, 1, table=tb1)
    want1 = tb1.monomial({"q[o,1]": 2, "p[o,1]": 2}, Fraction(1, 4))
    _record(report, "values.g1", "g_1 at cover 1 = q1^2 p1^2 / 4", g1 == want1)
    _record(report, "values.g0_empty", "g_0 at cover 1 = 0 (no zero-sum triple)",
            hierarchy.circle_hamiltonian(hierarchy.OrbitLattice(1), 0).is_zero())
    # winding homogeneity
    lat = hierarchy.OrbitLattice(3)
    tbl = lat.table()
    ok = True
    for j in levels:
        h = hierarchy.circle_hamiltonian(lat, j, table=tbl)
        for mono in h.terms:
            w = sum((v.indices[1] if v.kind == "q" else -v.indices[1]) * e
                    for (p, e), v in ((pe, tbl.variables[pe[0]]) for pe in mono))
            if w != 0:
                ok = False
    _record(report, "winding.zero", "every monomial has zero total winding", ok)
    # geodesic builder: maximal grading reduces to the circle sum
    grading = hierarchy.GradingProfile({n: 2 for n in range(1, 4)}, half_dim=5)
    signs = hierarchy.SignProfile()
    lat5 = hierarchy.OrbitLattice(3, half_dim=5)
    ok = True
    for j in (0, 1):
        geo = hierarchy.geodesic_hamiltonian(lat5, j, grading, signs)
        circ = hierarchy.circle_hamiltonian(
            hierarchy.OrbitLattice(3, half_dim=5,
                                   q_degree=grading.q_degree), j)
        if {m: c for m, c in geo.terms.items()} != circ.terms:
            ok = False
    _record(report, "geodesic.maximal",
            "maximal grading and +1 signs reduce to the circle sum", ok)
    # bad covers kill monomials
    bad = hierarchy.SignProfile(bad_covers=frozenset({2}))
    geo = hierarchy.geodesic_hamiltonian(lat5, 0, grading, bad)
    touched = any(v.indices[1] == 2
                  for mono in geo.terms for p, _ in mono
                  for v in [lat5.table().variables[p]])
    _record(report, "geodesic.bad-orbit",
            "monomials touching a bad cover vanish", not touched)
    return report.finalize()


# -- gw ------------------------------------------------------------------------------


def gw_suite(max_points=8, max_level=4, window=5) -> VerificationReport:
    report = VerificationReport("gw")
    model = point_model()
    bounds = gw.Bounds(max_points=max_points, max_level=max_level)
    (table, ms) = _timed(lambda: gw.reconstruct(model, bounds))
    # oracle comparison over everything in bounds
    bad = []
    for n in range(3, max_points + 1):
        for levels in combinations_with_replacement(range(max_level + 1), n):
            key = model.key([("e", a) for a in levels])
            want = gw_oracle.point_correlator(tuple(levels))
            closed = gw_oracle.point_correlator_closed_form(tuple(levels))
            if want != closed or table.get(key) != want:
                bad.append((levels, table.get(key), want, closed))
    _record(report, "point.oracle",
            f"reconstruction matches the forgetful-recursion oracle and the "
            f"multinomial closed form (n <= {max_points})",
            not bad, residual=str(bad[:3]) if bad else "0", ms=ms)
    # choice independence of the recursion
    ok = _choice_independence(model, min(max_points, 7), min(max_level, 3))
    _record(report, "point.choice-independence",
            "all admissible reference-pair choices give the same values (n <= 7)",
            ok)
    # two-point toy oracle
    toy = two_point_model()
    tbounds = gw.Bounds(max_points=min(max_points, 7), max_level=3)
    ttable = gw.reconstruct(toy, tbounds)
    bad2 = []
    for key in gw.enumerate_keys(toy, tbounds):
        if ttable.get(key) != gw_oracle.two_point_correlator(key.insertions):
            bad2.append(key)
    _record(report, "toy.oracle",
            "toy-model reconstruction matches the two-branch oracle",
            not bad2, residual=str(bad2[:3]) if bad2 else "0")
    # TRR residuals, exact within the reliable window
    checks = []
    for name, mdl, tbl, bnd in (("point", model, table, bounds),
                                ("toy", toy, ttable, tbounds)):
        policy = TruncationPolicy(max_t_order=bnd.max_points)
        f = gw.assemble_potential(tbl, policy, max_level=bnd.max_level)
        win_t = min(window, bnd.max_points - 3)
        cls = mdl.classes[-1].id
        r = gw.trr_residual(tbl, (cls, 1), (mdl.classes[0].id, 0),
                            (mdl.classes[0].id, 0), policy, potential=f)
        r = gw.restrict_series_max_t_order(r, win_t)
        _record(report, f"trr.{name}",
                f"three-point recursion residual 0 up to t-order {win_t}",
                r.is_zero(), residual=str(r) if not r.is_zero() else "0")
        ra = gw.averaged_trr_residual(tbl, cls, 1, policy, potential=f)
        ra = gw.restrict_series_max_t_order(ra, win_t)
        _record(report, f"trr.averaged.{name}",
                f"averaged recursion residual 0 up to t-order {win_t}",
                ra.is_zero(), residual=str(ra) if not ra.is_zero() else "0")
        eq = gw.string_dilaton_divisor_residuals(tbl, policy, potential=f,
                                                 max_level=bnd.max_level)
        win = bnd.max_points - 1
        s = gw.restrict_series_max_t_order(eq.string, win)
        _record(report, f"string.{name}",
                f"string equation residual 0 up to t-order {win}", s.is_zero(),
                residual=str(s) if not s.is_zero() else "0")
        d = gw.restrict_series_max_t_order(eq.dilaton, win)
        _record(report, f"dilaton.{name}",
                f"dilaton equation residual 0 up to t-order {win}", d.is_zero(),
                residual=str(d) if not d.is_zero() else "0")
        if not eq.divisor_applicable:
            report.add(CheckRecord(f"divisor.{name}",
                                   "divisor equation (no degree-2 class)",
                                   SKIP, detail="not applicable"))
    # fault injection must be detected
    fault_key = model.key([("e", 1)] + [("e", 0)] * 3)
    bad_table = table.perturbed(fault_key, Fraction(2))
    policy = TruncationPolicy(max_t_order=bounds.max_points)
    fbad = gw.assemble_potential(bad_table, policy, max_level=bounds.max_level)
    r = gw.restrict_series_max_t_order(
        gw.trr_residual(bad_table, ("e", 1), ("e", 0), ("e", 0), policy,
                        potential=fbad), 5)
    ra = gw.restrict_series_max_t_order(
        gw.averaged_trr_residual(bad_table, "e", 1, policy, potential=fbad), 5)
    _record(report, "trr.fault-detection",
            "perturbed table produces nonzero recursion residuals",
            (not r.is_zero()) and (not ra.is_zero()))
    # quantum product axioms
    qp = gw.quantum_product(toy, ttable)
    _record(report, "quantum.unit", "unit class is the quantum-product unit",
            not qp.unit_axiom_violations())
    _record(report, "quantum.wdvv", "quantum product is associative (toy model)",
            not qp.associativity_residuals())
    # assembly round trip
    f = gw.assemble_potential(table, TruncationPolicy(max_t_order=max_points),
                              max_level=max_level)
    ok = all(gw.correlator_from_potential(f, model, key) == v
             for key, v in table.values.items())
    _record(report, "potential.round-trip",
            "t-derivatives of the potential at 0 return the table values", ok)
    return report.finalize()


def _choice_independence(model, max_points, max_level) -> bool:
    from itertools import combinations
    bounds = gw.Bounds(max_points=max_points, max_level=max_level)
    base = gw.reconstruct(model, bounds)
    keys = list(base.values)
    # recompute every value under every admissible reference choice
    for key in keys:
        ins = list(key.insertions)
        target = max(range(len(ins)), key=lambda i: (ins[i][1], ins[i][0]))
        if ins[target][1] < 1:
            continue
        rest = [i for i in range(len(ins)) if i != target]
        if len(rest) < 2:
            continue
        for bi_, gi_ in combinations(range(len(rest)), 2):
            def chooser(k, tgt, bi=bi_, gi=gi_, key0=key):
                if k == key0:
                    return bi, gi
                other = [i for i in range(len(k.insertions)) if i != tgt]
                order = sorted(range(len(other)))
                return order[0], order[1]
            rec = gw.Reconstructor(model, bounds, trr_choice=chooser)
            if rec.value(key) != base.get(key):
                return False
    return True


# -- cylhom ---------------------------------------------------------------------------


def cylhom_suite(datasets=None) -> VerificationReport:
    """Floer-model fixtures: differentials, recursion, action, homology."""
    report = VerificationReport("cylhom")
    if datasets is None:
        datasets = default_cylhom_fixtures()
    data20 = datasets["(2,0)"]
    t0 = time.monotonic()
    r, off = cylhom.d_squared_residual(data20)
    _record(report, "differential.squared", "d . d = 0", r.is_zero(),
            residual="0" if r.is_zero() else str(off))
    plain = cylhom.build_differential(data20).plain
    offdiag = plain.block("check", "hat")
    _record(report, "differential.off-diagonal",
            "hat-to-check block of the plain differential is zero",
            not offdiag)
    reps = cylhom.noneq_trr_residuals(data20, "(2,0)", max_arg_order=1)
    _record(report, "trr.noneq.(2,0)",
            "constrained recursion (2,0) holds at chain level",
            all(x.zero for x in reps),
            residual="; ".join(x.summary() for x in reps if not x.zero) or "0")
    data11 = datasets["(1,1)"]
    reps = cylhom.noneq_trr_residuals(data11, "(1,1)", max_arg_order=1)
    _record(report, "trr.noneq.(1,1)",
            "constrained recursion (1,1) holds at chain level (order-1 data)",
            all(x.zero for x in reps),
            residual="; ".join(x.summary() for x in reps if not x.zero) or "0")
    data02 = datasets["(0,2)"]
    reps = cylhom.noneq_trr_residuals(data02, "(0,2)", max_arg_order=1)
    _record(report, "trr.noneq.(0,2)",
            "constrained recursion (0,2) holds at chain level (trivial data)",
            all(x.zero for x in reps),
            residual="; ".join(x.summary() for x in reps if not x.zero) or "0")
    # label mismatch is rejected
    try:
        cylhom.noneq_trr_residuals(data20, "(1,1)")
        mismatch_ok = False
    except LabelMismatchError:
        mismatch_ok = True
    _record(report, "trr.label-guard",
            "checking an identity against data for another section choice "
            "is rejected", mismatch_ok)
    # fault detection
    fault = data20.perturbed(0, Fraction(5))
    reps = cylhom.noneq_trr_residuals(fault, "(2,0)", max_arg_order=1)
    _record(report, "trr.fault-detection",
            "perturbed counts give a nonzero (2,0) residual",
            any(not x.zero for x in reps))
    # block comparisons
    for variant in ("(2,0)", "(1,1)", "(0,2)"):
        cmp = cylhom.compare_equivariant_floer(data20, variant, max_arg_order=1)
        _record(report, f"blocks.eq-vs-floer.{variant}",
                f"equivariant {variant} residuals equal the fixed-period "
                f"restriction block by block",
                cmp.hat_check_equal and cmp.floer_match,
                detail="; ".join(cmp.details))
    ext = cylhom.extract_equivariant(data20, "hat")
    _record(report, "blocks.structure",
            "hat and check diagonal blocks agree; free diagonal matches the "
            "constrained off-diagonal",
            ext.plain_blocks_equal and ext.identification_consistent
            and ext.offdiag_plain_zero)
    # contact vanishing
    cv = cylhom.contact_vanishing(data20)
    _record(report, "contact.vanishing",
            "level >= 1 decorated maps vanish on homology (contact model, "
            "level 0 exempt)", cv.applicable and cv.passed,
            detail=str(cv.checked))
    noncontact = datasets.get("noncontact")
    if noncontact is not None:
        cv2 = cylhom.contact_vanishing(noncontact)
        report.add(CheckRecord("contact.not-applicable",
                               "vanishing check skipped for non-contact model",
                               PASS if not cv2.applicable else FAIL,
                               detail=cv2.reason))
    # quantum action
    qa = cylhom.quantum_action(data20)
    _record(report, "action.axioms",
            "action maps descend, the unit acts as the identity, and "
            "composition matches the three-point structure constants "
            "up to boundaries", qa.passed, detail="; ".join(qa.failures))
    # homology
    h = cylhom.compute_homology(data20)
    periods = {o.multiplicity for o in data20.orbits.orbits}
    expected_total = 2 * len(data20.orbits.orbits)
    _record(report, "homology.betti",
            "zero differential: every hat and check generator survives",
            h.total() == expected_total,
            detail=f"betti {dict(sorted(h.betti.items()))}")
    # generic-labeled data: exactness on homology instead of chain identity
    generic = datasets.get("generic")
    if generic is not None:
        reps = cylhom.noneq_trr_residuals(generic, "(2,0)")
        _record(report, "trr.generic-exactness",
                "(2,0) residual maps cycles into boundaries for generic "
                "section data", all(x.zero for x in reps),
                residual="; ".join(x.summary() for x in reps if not x.zero) or "0")
        fault2 = datasets.get("generic-fault")
        if fault2 is not None:
            reps = cylhom.noneq_trr_residuals(fault2, "(2,0)")
            _record(report, "trr.generic-fault",
                    "non-exact residual on generic data is detected",
                    any(not x.zero for x in reps))
    ms = int((time.monotonic() - t0) * 1000)
    for c in report.checks:
        if c.runtime_ms is None:
            c.runtime_ms = ms
    return report.finalize()


CYLHOM_FIXTURE_FILES = {
    "(2,0)": "floer_point_20.counts.json",
    "(1,1)": "floer_point_11.counts.json",
    "(0,2)": "floer_point_02.counts.json",
    "noncontact": "floer_twopoint.counts.json",
    "generic": "generic.counts.json",
    "generic-fault": "generic_fault.counts.json",
}


def build_cylhom_fixtures() -> dict:
    """Chain-data fixtures built in code (source of the shipped files)."""
    out = {
        "(2,0)": cylhom.build_floer_model(point_model(), periods=2,
                                          level_bound=2, t_order=2,
                                          section_choice="(2,0)"),
        "(1,1)": cylhom.build_floer_model(point_model(), periods=1,
                                          level_bound=2, t_order=1,
                                          section_choice="(1,1)"),
        "noncontact": cylhom.build_floer_model(two_point_model(), periods=1,
                                               level_bound=1, t_order=1,
                                               section_choice="(2,0)"),
    }
    out["(0,2)"] = _trivial_02_fixture()
    out["generic"] = _generic_fixture(exact=True)
    out["generic-fault"] = _generic_fixture(exact=False)
    return out


def default_cylhom_fixtures() -> dict:
    """The shipped fixture files, loaded."""
    from . import io as sio
    return {key: sio.load_counts(sio.fixture_path(fname))
            for key, fname in CYLHOM_FIXTURE_FILES.items()}


def _trivial_02_fixture():
    """All-zero decorated counts over the point-fiber orbit set."""
    base = cylhom.build_floer_model(point_model(), periods=1, level_bound=2,
                                    t_order=1, section_choice="(0,2)")
    return replace(base, counts=cylhom.CountData((), "(0,2)"),
                   name="floer-point-02-trivial")


def _generic_fixture(exact=True):
    """Small complex with nonzero differential for the homology-level check.

    The level-1 decorated map lands in the boundaries exactly when
    ``exact``; otherwise it sends a cycle to a non-boundary generator.
    """
    model = point_model()
    orbits = cylhom.OrbitSet(
        [cylhom.Orbit("a", 1), cylhom.Orbit("b", 0), cylhom.Orbit("c", -1)],
        equivariant=False)
    mk = cylhom.CountEntry
    ins0 = (cylhom.Insertion("e", 0, True),)
    ins1 = (cylhom.Insertion("e", 1, True),)
    entries = [
        mk(("a", "hat"), ("b", "hat"), (), (), Fraction(1)),
        mk(("a", "check"), ("b", "check"), (), (), Fraction(1)),
        # unit action: identity on every generator
    ]
    for o in ("a", "b", "c"):
        for fl in ("hat", "check"):
            entries.append(mk((o, fl), (o, fl), ins0, (), Fraction(1)))
    if exact:
        # lands on b.hat = d(a.hat): a boundary
        entries.append(mk(("a", "check"), ("b", "hat"), ins1, (), Fraction(1)))
    else:
        # sends the cycle b.check to c.hat: not a boundary
        entries.append(mk(("b", "check"), ("c", "hat"), ins1, (), Fraction(1)))
    table = gw.CorrelatorTable(model)
    table.set(model.key([("e", 0)] * 3), Fraction(1))
    return cylhom.ChainComplexData(
        orbits, cylhom.CountData(entries, "generic"), model, table,
        level_bound=1, t_order=1, contact=False,
        name="generic-exact" if exact else "generic-fault")


# -- divisor --------------------------------------------------------------------------


def divisor_suite(ledger=None) -> VerificationReport:
    report = VerificationReport("divisor")
    e4 = divisors.averaged_psi(4, 1)
    ok4 = sorted(e4.coefficients.values()) == [Fraction(1, 3)] * 3
    _record(report, "psi.four-points",
            "averaged psi locus on 4 points has coefficients 1/3", ok4,
            residual=str(e4))
    e5 = divisors.averaged_psi(5, 1)
    ok5 = all(
        c == (Fraction(1, 2) if 1 in divisors.as_pair_divisor(s, 5)
              else Fraction(1, 6))
        for s, c in e5.coefficients.items()) and len(e5.coefficients) == 10
    _record(report, "psi.five-points",
            "averaged psi locus on 5 points: 1/2 on pairs through the "
            "descendant point, 1/6 elsewhere", ok5)
    _record(report, "psi.three-points", "no admissible splitting on 3 points",
            not divisors.averaged_psi(3, 1).coefficients)
    # pairing table and the psi-square cross-check
    table_ok = (divisors.m05_pair_index(frozenset({1, 2}), frozenset({3, 4})) == 1
                and divisors.m05_pair_index(frozenset({1, 2}),
                                            frozenset({1, 2})) == -1
                and divisors.m05_pair_index(frozenset({1, 2}),
                                            frozenset({1, 5})) == 0)
    _record(report, "pairing.table",
            "pair divisors: disjoint +1, one common index 0, equal -1", table_ok)
    square = divisors.m05_intersection(e5, e5)
    oracle = gw_oracle.point_correlator((2, 0, 0, 0, 0))
    _record(report, "pairing.psi-square",
            "self-pairing of the averaged locus equals the descendant "
            "integral on 5 points", square == oracle,
            residual=f"{square} vs oracle {oracle}")
    # perturbation ledger
    if ledger is None:
        from . import io as sio
        ledger = sio.load_ledger(sio.fixture_path("m05_ledger.json"))
    violations = divisors.ledger_check(ledger)
    _record(report, "ledger.consistency",
            "perturbation ledger: assigned indices sum to weight times "
            "pairing", not violations,
            residual="; ".join(map(str, violations)) or "0")
    bad = {"self_intersections":
           [dict(ledger["self_intersections"][0])], "cross_intersections": []}
    bad["self_intersections"][0] = dict(bad["self_intersections"][0])
    bad["self_intersections"][0]["at"] = [
        [loc, str(-Fraction(idx))] for loc, idx in
        ledger["self_intersections"][0]["at"]]
    _record(report, "ledger.fault-detection",
            "a flipped sign in the ledger is reported",
            bool(divisors.ledger_check(bad)))
    problems = divisors.restriction_check(ledger["restrictions"])
    _record(report, "ledger.restriction",
            "five-point locus restricted to each pair divisor reproduces the "
            "four-point coefficients", not problems,
            residual="; ".join(problems) or "0")
    # zero loci and the exact combinations (parallelizable)
    combos = []
    for (r, p) in ((2, 2), (3, 3), (4, 4)):
        pos = p // 2
        neg = p - pos
        exprs = [divisors.map_zero_locus(r, pos, neg, v) for v in "ABC"]
        for target in ("two-punctures", "puncture-point", "two-points"):
            def thunk(exprs=exprs, target=target, r=r, p=p):
                finding = divisors.solve_combination(exprs, target, r, p)
                ok = finding.degenerate or (finding.feasible
                                            and finding.lhs_consistent)
                return ok, "", finding.describe()
            combos.append((f"combinations.r{r}p{p}.{target}",
                           f"exact weights for the {target} rule at r={r}, P={p}",
                           thunk))
    _run_checks(report, combos)
    # variant A kills light splittings
    _, exprA = divisors.map_zero_locus(3, 1, 1, "A")
    light_ok = all(s.p2 >= 2 for s in exprA.coefficients)
    _record(report, "locus.variant-a-support",
            "two-puncture locus carries no splitting with fewer than two "
            "punctures on the far side", light_ok)
    return report.finalize()


def builtin_m05_ledger() -> dict:
    """The worked 5-point perturbation bookkeeping, as checkable data."""
    return {
        "self_intersections": [
            {"divisor": [1, 5], "weight": "1/2",
             "at": [[[3, 4], "-1/6"], [[2, 4], "-1/6"], [[2, 3], "-1/6"]]},
            {"divisor": [3, 4], "weight": "1/6",
             "at": [[[1, 5], "-1/6"], [[2, 5], "1/6"], [[1, 2], "-1/6"]]},
        ],
        "cross_intersections": [
            {"a": [1, 5], "a_weight": "1/2", "b": [3, 4],
             "at": [["near [3,4]^[1,5] (two branches)", "1/3"],
                    ["at [3,4]^[1,5]", "1/6"]]},
        ],
        "restrictions": {
            "3,4": [
                {"at": [1, 5],
                 "contributions": [["half D15 branch", "1/6"],
                                   ["half D15 branch", "1/6"]]},
                {"at": [1, 2],
                 "contributions": [["half D12 branch", "1/6"],
                                   ["half D12 branch", "1/6"]]},
                {"at": [2, 5],
                 "contributions": [["sixth D34 perturbation", "1/6"],
                                   ["sixth D25 perturbation", "1/6"]]},
            ],
        },
    }


SUITES = {
    "algebra": algebra_suite,
    "hierarchy": hierarchy_suite,
    "gw": gw_suite,
    "cylhom": cylhom_suite,
    "divisor": divisor_suite,
}
