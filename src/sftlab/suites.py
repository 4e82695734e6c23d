"""Verification suites: every identity the engine asserts, as check records.

A check is declared as ``(id, statement, thunk)``.  The thunk returns
``(ok, residual, detail)``, ``ok`` None for a check that does not apply,
plus the statement when that names a value the check computed.
``_run_checks`` is the one place a check becomes a record: it times each
thunk, records a crash as ``error`` (an SftlabError, bad input,
propagates) and sorts the records by id.  Work that several checks share
is a ``functools.cache`` closure run inside the first check that needs
it, so its time and any crash in it land on that check.  The one
exception are the algebra suite's ``random.*`` records: each sample draws
all its inputs first, then one chained clock charges each identity for its
own residuals only.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction
from functools import cache
from itertools import combinations

from . import cylhom, divisors, gw, gw_oracle, hierarchy
from .algebra import (
    GradedSeries, TruncationPolicy, VariableTable, orbit_variable_pair,
    planck_variable, poisson_bracket, weyl_commutator,
)
from .errors import LabelMismatchError, SftlabError
from .models import point_model, two_point_model
from .report import CheckRecord, ERROR, FAIL, PASS, SKIP, VerificationReport


def _run_checks(report, checks):
    """Run each (id, statement, thunk) of ``checks`` into a record of
    ``report``, with the thunk's own runtime; returns the finalized report.

    A thunk that raises is recorded with status ``error``, not ``fail``:
    the check reached no verdict, and the rest of the suite still runs.
    An SftlabError is bad input, not a crash: it propagates, so the cli
    exits 2 as for any other input error.
    """
    for cid, statement, thunk in checks:
        t0 = time.monotonic()
        try:
            ok, residual, detail, *named = thunk()
            status = SKIP if ok is None else PASS if ok else FAIL
            statement = named[0] if named else statement
        except SftlabError:
            raise
        except Exception as exc:  # noqa: BLE001 - one crash must not kill the suite
            status, residual, detail = ERROR, "", f"{type(exc).__name__}: {exc}"
        ms = int((time.monotonic() - t0) * 1000)
        report.add(CheckRecord(cid, statement, status, residual, detail, ms))
    return report.finalize()


def _series_verdict(r, shown=None):
    """Verdict of a residual that must vanish; a nonzero one is reported as
    ``shown`` (default: the residual itself)."""
    ok = r.is_zero()
    return ok, "0" if ok else str(r if shown is None else shown), ""


def _reports_verdict(reports):
    """Verdict of cylhom ResidualReports: every one must be zero."""
    bad = "; ".join(x.summary() for x in reports if not x.zero)
    return not bad, bad or "0", ""


# -- randomized series for the algebra suite ------------------------------------------


def _random_table(rng: random.Random) -> VariableTable:
    n_orbits = rng.randint(1, 3)
    variables = [planck_variable(rng.choice((1, 2, 3)))]
    m = variables[0].degree // 2 + 3
    for k in range(n_orbits):
        cz = rng.randint(-2, 2)
        q, p = orbit_variable_pair(f"o{k}", rng.randint(1, 3), cz=cz, half_dim=m,
                                   multiplicity=rng.randint(1, 3))
        variables.extend((q, p))
    return VariableTable(variables, half_dim=m)


def _random_series(rng: random.Random, table: VariableTable, policy,
                   hbar_free=False) -> GradedSeries:
    terms = {}
    for _ in range(rng.randint(1, 3)):
        mono = tuple((pos, 1 if v.odd else rng.randint(1, 2))
                     for pos, v in enumerate(table.variables)
                     if not (hbar_free and v.kind == "hbar") and rng.random() < 0.45)
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if coeff:
            terms[mono] = terms.get(mono, 0) + coeff
    return table.series(terms, policy)


def _parity_split(f):
    """(part, is odd) for the nonzero parity parts of f."""
    return [(p, odd) for odd, p in enumerate(f.parity_parts()) if p]


def algebra_suite(samples=1000, seed=20240) -> VerificationReport:
    """Randomized graded-algebra axioms plus the Weyl relations."""
    report = VerificationReport("algebra")
    rng = random.Random(seed)
    policy = TruncationPolicy(max_pq_order=24, max_hbar_order=8)
    no_hbar = replace(policy, max_hbar_order=0)

    # The residuals of each identity on the current sample: the generators
    # read the draws the sample loop below binds.
    def super_commutativity():
        for fp, fodd in fparts:
            for gp, godd in gparts:
                yield fp * gp - (gp * fp).scale(-1 if fodd and godd else 1)

    def leibniz():
        dg, vodd = g.derivative(v), table.variable(v).odd
        for fp, fodd in fparts:
            yield (fp * g).derivative(v) - fp.derivative(v) * g \
                - (fp * dg).scale(-1 if vodd and fodd else 1)

    def antisymmetry():
        for fp, fodd in fparts:
            for gp, godd in gparts:
                fg[fodd, godd] = poisson_bracket(fp, gp)
                yield fg[fodd, godd] + poisson_bracket(gp, fp).scale(
                    -1 if fodd and godd else 1)

    def jacobi():
        # on the whole h: linear in h, and a bracket removes a q_n p_n pair of
        # even degree, so every term of the residual for a parity part h_p has
        # parity |f|+|g|+|h_p|; the sum vanishes iff each part's residual does
        gh = {godd: poisson_bracket(gp, h) for gp, godd in gparts}
        fh = {fodd: poisson_bracket(fp, h) for fp, fodd in fparts}
        for fp, fodd in fparts:
            for gp, godd in gparts:
                yield poisson_bracket(fp, gh[godd]) - poisson_bracket(fg[fodd, godd], h) \
                    - poisson_bracket(gp, fh[fodd]).scale(-1 if fodd and godd else 1)

    def hbar_divisibility():
        yield weyl_commutator(fe, ge).truncate(no_hbar)

    def hbar_linear_term():
        fe0, ge0 = fe.parity_parts()[0], ge.parity_parts()[0]
        pb = poisson_bracket(fe0, ge0)
        yield weyl_commutator(fe0, ge0).derivative("hbar").truncate(no_hbar) - pb
        # the subtraction truncates pb to hbar-order 0; its own hbar terms
        # (none, for hbar-free operands) show in its hbar-derivative
        yield pb.derivative("hbar")

    identities = [
        ("super-commutativity", "f*g = (-1)^{|f||g|} g*f", super_commutativity),
        ("leibniz", "d(f*g) = df*g + (-1)^{|v||f|} f*dg", leibniz),
        ("antisymmetry", "{f,g} = -(-1)^{|f||g|} {g,f}", antisymmetry),
        ("jacobi", "{f,{g,h}} = {{f,g},h} + (-1)^{|f||g|} {g,{f,h}}", jacobi),
        ("hbar-divisibility", "[f,g] lies in hbar * W", hbar_divisibility),
        ("hbar-linear-term", "hbar-linear part of [f,g] = {f,g} (even, hbar-free)",
         hbar_linear_term),
    ]
    tally = [[None, 0.0] for _ in identities]  # first witness, seconds
    for _ in range(samples):
        table = _random_table(rng)
        f, g, h = (_random_series(rng, table, policy) for _ in range(3))
        v = rng.choice(table.names())
        fe, ge = (_random_series(rng, table, policy, hbar_free=True) for _ in range(2))
        fparts, gparts, fg = _parity_split(f), _parity_split(g), {}
        t = time.monotonic()
        for (_, _, residuals), found in zip(identities, tally):
            for r in residuals():
                if r and found[0] is None:
                    found[0] = str(r)
            now = time.monotonic()
            found[1] += now - t
            t = now
    for (key, statement, _), (witness, seconds) in zip(identities, tally):
        report.add(CheckRecord(
            f"random.{key}", f"{statement} ({samples} samples)",
            PASS if witness is None else FAIL, witness or "0", "", int(seconds * 1000)))

    def weyl_relation(kappa):
        q, p = orbit_variable_pair("g", kappa, cz=0, half_dim=1,
                                   multiplicity=kappa)
        tb = VariableTable([q, p, planck_variable(1)])
        return _series_verdict(weyl_commutator(tb.var(p.name), tb.var(q.name))
                               - tb.monomial({"hbar": 1}, kappa))

    def determinism():
        """Canonical term order is reproducible under threading."""
        table = _random_table(random.Random(7))

        def bracket(_):
            # fresh operands per worker, so each forms its own partials
            f = _random_series(random.Random(8), table, policy)
            g = _random_series(random.Random(9), table, policy)
            return str(poisson_bracket(f, g))

        with ThreadPoolExecutor(max_workers=4) as pool:
            outs = list(pool.map(bracket, range(8)))
        return len(set(outs)) == 1, "", ""

    checks = [(f"weyl.kappa{kappa}", f"[p,q] = {kappa}*hbar at multiplicity {kappa}",
               lambda kappa=kappa: weyl_relation(kappa)) for kappa in (1, 2, 3)]
    checks.append(("determinism.bracket",
                   "identical inputs give byte-identical canonical output",
                   determinism))
    return _run_checks(report, checks)


# -- hierarchy ------------------------------------------------------------------------


def hierarchy_suite(cover_bound=6, max_level=3) -> VerificationReport:
    levels = list(range(max_level + 1))
    brackets = cache(lambda: hierarchy.commutator_residuals(levels, cover_bound)[0])
    checks = [(f"commute.g{i}g{j}",
               f"{{g_{i}, g_{j}}} = 0 on the cover-{cover_bound} window",
               lambda i=i, j=j: _series_verdict(brackets()[i][j]))
              for i in levels for j in levels[i:]]

    # pinned small values
    def g0_value():
        lat2 = hierarchy.OrbitLattice(2)
        tb = lat2.table()
        return _series_verdict(
            hierarchy.circle_hamiltonian(lat2, 0, table=tb)
            - tb.monomial({"q[o,1]": 2, "p[o,2]": 1}, Fraction(1, 2))
            - tb.monomial({"q[o,2]": 1, "p[o,1]": 2}, Fraction(1, 2)))

    def g1_value():
        lat1 = hierarchy.OrbitLattice(1)
        tb1 = lat1.table()
        g1 = hierarchy.circle_hamiltonian(lat1, 1, table=tb1)
        return g1 == tb1.monomial({"q[o,1]": 2, "p[o,1]": 2}, Fraction(1, 4)), "", ""

    def winding():
        lat = hierarchy.OrbitLattice(3)
        tbl = lat.table()

        def total(mono):
            return sum((v.indices[1] if v.kind == "q" else -v.indices[1]) * e
                       for v, e in ((tbl.variables[p], e) for p, e in mono))
        hams = (hierarchy.circle_hamiltonian(lat, j, table=tbl) for j in levels)
        return all(total(m) == 0 for h in hams for m in h.terms), "", ""

    # geodesic builder: maximal grading reduces to the circle sum
    lat5 = hierarchy.OrbitLattice(3, half_dim=5)  # every q_n of degree m-3 = 2

    def geodesic_maximal():
        same = all(hierarchy.geodesic_hamiltonian(lat5, j).terms
                   == hierarchy.circle_hamiltonian(lat5, j).terms for j in (0, 1))
        return same, "", ""

    def geodesic_bad_orbit():
        """Cover 2 is bad (q_2 even, q_1 odd); else level 1 keeps q2^2 p2^2.
        One explicit sign keeps a good-cover term, so zero fails too."""
        odd = hierarchy.OrbitLattice(3, half_dim=5, q_degrees={1: 1, 2: 2, 3: 1})
        geo = hierarchy.geodesic_hamiltonian(odd, 1, {(1, -1, 3, -3): -1})
        touched = any(geo.table.variables[p].indices[1] == 2
                      for mono in geo.terms for p, _ in mono)
        return bool(geo) and not touched, "", ""

    checks += [
        ("values.g0", "g_0 at cover 2 = q1^2 p2/2 + q2 p1^2/2", g0_value),
        ("values.g1", "g_1 at cover 1 = q1^2 p1^2 / 4", g1_value),
        ("values.g0_empty", "g_0 at cover 1 = 0 (no zero-sum triple)",
         lambda: (hierarchy.circle_hamiltonian(hierarchy.OrbitLattice(1), 0)
                  .is_zero(), "", "")),
        ("winding.zero", "every monomial has zero total winding", winding),
        ("geodesic.maximal",
         "maximal grading and +1 signs reduce to the circle sum", geodesic_maximal),
        ("geodesic.bad-orbit", "monomials touching a bad cover vanish",
         geodesic_bad_orbit),
    ]
    return _run_checks(VerificationReport("hierarchy"), checks)


# -- gw ------------------------------------------------------------------------------


def gw_suite(max_points=8, max_level=4, window=5) -> VerificationReport:
    model, toy = point_model(), two_point_model()
    cases = {"point": (model, gw.Bounds(max_points=max_points, max_level=max_level)),
             "toy": (toy, gw.Bounds(max_points=min(max_points, 7), max_level=3))}

    def policy(name):
        return TruncationPolicy(max_t_order=cases[name][1].max_points)

    @cache
    def table(name):
        return gw.reconstruct(*cases[name])

    @cache
    def potential(name):
        return gw.assemble_potential(table(name), policy(name),
                                     max_level=cases[name][1].max_level)

    @cache
    def equations(name):
        return gw.string_dilaton_divisor_residuals(potential(name), cases[name][0])

    product = cache(lambda: gw.quantum_product(toy, table("toy")))

    def point_oracle():
        """Oracle comparison over everything in bounds."""
        ptable, bad = table("point"), []
        for key in gw.enumerate_keys(*cases["point"]):
            levels = tuple(a for _, a in key.insertions)
            want = gw_oracle.point_correlator(levels)
            closed = gw_oracle.point_correlator_closed_form(levels)
            if want != closed or ptable.get(key) != want:
                bad.append((levels, ptable.get(key), want, closed))
        return not bad, str(bad[:3]) if bad else "0", ""

    def toy_oracle():
        ttable = table("toy")
        bad = [key for key in gw.enumerate_keys(toy, cases["toy"][1])
               if ttable.get(key) != gw_oracle.two_point_correlator(key.insertions)]
        return not bad, str(bad[:3]) if bad else "0", ""

    checks = [
        ("point.oracle",
         f"reconstruction matches the forgetful-recursion oracle and the "
         f"multinomial closed form (n <= {max_points})", point_oracle),
        ("point.choice-independence",
         "all admissible reference-pair choices give the same values (n <= 7)",
         lambda: (_choice_independence(model, min(max_points, 7),
                                       min(max_level, 3)), "", "")),
        ("toy.oracle", "toy-model reconstruction matches the two-branch oracle",
         toy_oracle),
    ]

    def equation_checks(name, mdl, bnd):
        """TRR residuals, exact within the reliable window."""
        win_t = min(window, bnd.max_points - 3)
        win = bnd.max_points - 1
        cls, first = mdl.classes[-1].id, mdl.classes[0].id

        def trr():
            return gw.trr_residual(potential(name), mdl, (cls, 1), (first, 0),
                                   (first, 0))

        def averaged():
            return gw.averaged_trr_residual(potential(name), mdl, cls, 1)

        def verdict(residual, order):
            return lambda: _series_verdict(
                gw.restrict_series_max_t_order(residual(), order))
        return [
            (f"trr.{name}",
             f"three-point recursion residual 0 up to t-order {win_t}",
             verdict(trr, win_t)),
            (f"trr.averaged.{name}",
             f"averaged recursion residual 0 up to t-order {win_t}",
             verdict(averaged, win_t)),
            (f"string.{name}", f"string equation residual 0 up to t-order {win}",
             verdict(lambda: equations(name).string, win)),
            (f"dilaton.{name}", f"dilaton equation residual 0 up to t-order {win}",
             verdict(lambda: equations(name).dilaton, win)),
            # neither model has a degree-2 class
            (f"divisor.{name}", "divisor equation (no degree-2 class)",
             lambda: (None, "", "not applicable")),
        ]

    for name, (mdl, bnd) in cases.items():
        checks += equation_checks(name, mdl, bnd)

    def fault_detection():
        """Fault injection must be detected."""
        bad_table = table("point").perturbed(
            model.key([("e", 1)] + [("e", 0)] * 3), Fraction(2))
        fbad = gw.assemble_potential(bad_table, policy("point"), max_level=max_level)
        r = gw.restrict_series_max_t_order(
            gw.trr_residual(fbad, model, ("e", 1), ("e", 0), ("e", 0)), 5)
        ra = gw.restrict_series_max_t_order(
            gw.averaged_trr_residual(fbad, model, "e", 1), 5)
        return not r.is_zero() and not ra.is_zero(), "", ""

    checks += [
        ("trr.fault-detection",
         "perturbed table produces nonzero recursion residuals", fault_detection),
        ("quantum.unit", "unit class is the quantum-product unit",
         lambda: (not product().unit_axiom_violations(), "", "")),
        ("quantum.wdvv", "quantum product is associative (toy model)",
         lambda: (not product().associativity_residuals(), "", "")),
        ("potential.round-trip",
         "t-derivatives of the potential at 0 return the table values",
         lambda: (all(gw.correlator_from_potential(potential("point"), key) == v
                      for key, v in table("point").values.items()), "", "")),
    ]
    return _run_checks(VerificationReport("gw"), checks)


def _choice_independence(model, max_points, max_level) -> bool:
    bounds = gw.Bounds(max_points=max_points, max_level=max_level)
    base = gw.reconstruct(model, bounds)
    # recompute every value under every admissible reference choice
    for key in list(base.values):
        if max(a for _, a in key.insertions) < 1:
            continue
        for pair in combinations(range(len(key.insertions) - 1), 2):
            rec = gw.Reconstructor(
                model, trr_choice=lambda k, _: pair if k == key else (0, 1))
            if rec.value(key) != base.get(key):
                return False
    return True


# -- cylhom ---------------------------------------------------------------------------


def cylhom_suite() -> VerificationReport:
    """Floer-model fixtures: differentials, recursion, action, homology."""
    datasets = default_cylhom_fixtures()
    data20 = datasets["(2,0)"]
    noneq = cylhom.noneq_trr_residuals

    def label_guard():
        """Checking data against another section choice's identity raises."""
        try:
            noneq(data20, "(1,1)")
        except LabelMismatchError:
            return True, "", ""
        return False, "", ""

    def eq_vs_floer(variant):
        cmp = cylhom.compare_equivariant_floer(data20, variant)
        return cmp.hat_check_equal and cmp.floer_match, "", "; ".join(cmp.details)

    def structure():
        ext = cylhom.extract_equivariant(data20, "hat")
        return ext.plain_blocks_equal and ext.offdiag_plain_zero, "", ""

    def contact():
        cv = cylhom.contact_vanishing(data20)
        return cv.applicable and cv.passed, "", str(cv.checked)

    def not_applicable():
        cv = cylhom.contact_vanishing(datasets["noncontact"])
        return not cv.applicable, "", cv.reason

    def action():
        qa = cylhom.quantum_action(data20)
        return qa.passed, "", "; ".join(qa.failures)

    def homology():
        h = cylhom.compute_homology(data20)
        return (h.total() == 2 * len(data20.orbits.orbits), "",
                f"betti {dict(sorted(h.betti.items()))}")

    checks = [
        ("differential.squared", "d . d = 0",
         lambda: _series_verdict(*cylhom.d_squared_residual(data20))),
        ("differential.off-diagonal",
         "hat-to-check block of the plain differential is zero",
         lambda: (not cylhom.build_differential(data20).plain.block("check", "hat"),
                  "", "")),
        *[(f"trr.noneq.{variant}",
           f"constrained recursion {variant} holds at chain level{note}",
           lambda variant=variant: _reports_verdict(
               noneq(datasets[variant], variant)))
          for variant, note in (("(2,0)", ""), ("(1,1)", " (order-1 data)"),
                                ("(0,2)", " (trivial data)"))],
        ("trr.label-guard",
         "checking an identity against data for another section choice "
         "is rejected", label_guard),
        ("trr.fault-detection", "perturbed counts give a nonzero (2,0) residual",
         lambda: (any(not x.zero for x in noneq(data20.perturbed(0, Fraction(5)),
                                                "(2,0)")),
                  "", "")),
        *[(f"blocks.eq-vs-floer.{variant}",
           f"equivariant {variant} residuals equal the fixed-period "
           f"restriction block by block", lambda variant=variant: eq_vs_floer(variant))
          for variant in ("(2,0)", "(1,1)", "(0,2)")],
        ("blocks.structure",
         "hat and check diagonal blocks agree; free diagonal matches the "
         "constrained off-diagonal", structure),
        ("contact.vanishing",
         "level >= 1 decorated maps vanish on homology (contact model, "
         "level 0 exempt)", contact),
        ("action.axioms",
         "action maps descend, the unit acts as the identity, and "
         "composition matches the three-point structure constants "
         "up to boundaries", action),
        ("homology.betti",
         "zero differential: every hat and check generator survives", homology),
        ("contact.not-applicable",
         "vanishing check skipped for non-contact model", not_applicable),
        # generic-labeled data: exactness on homology instead of chain identity
        ("trr.generic-exactness",
         "(2,0) residual maps cycles into boundaries for generic section data",
         lambda: _reports_verdict(noneq(datasets["generic"], "(2,0)"))),
        ("trr.generic-fault",
         "non-exact residual on generic data is detected",
         lambda: (any(not x.zero for x in noneq(datasets["generic-fault"], "(2,0)")),
                  "", "")),
    ]
    return _run_checks(VerificationReport("cylhom"), checks)


def counts_suite(data) -> VerificationReport:
    """Checks applicable to one loaded count-data file (``verify --counts``)."""
    d_squared = cache(lambda: cylhom.d_squared_residual(data))

    def on_homology(check):
        """``check`` reads homology, so it is skipped unless d . d = 0."""
        return lambda: (check() if d_squared()[0].is_zero()
                        else (None, "", "needs d . d = 0"))

    def homology():
        betti = cylhom.compute_homology(data).betti
        return True, "", "", f"betti numbers {dict(sorted(betti.items()))}"

    checks = [("differential.squared", "d . d = 0",
               lambda: _series_verdict(*d_squared()))]
    if not data.orbits.equivariant:
        label = data.section_choice
        variant = "(2,0)" if label == "generic" else label

        def trr():
            return _reports_verdict(cylhom.noneq_trr_residuals(data, variant))
        checks += [
            ("differential.off-diagonal", "hat-to-check plain block is zero",
             lambda: (not cylhom.build_differential(data).plain.block("check", "hat"),
                      "", "")),
            (f"trr.{variant}", f"recursion {variant} residuals (as labeled)",
             on_homology(trr) if label == "generic" else trr),
        ]
    checks.append(("homology.betti", "betti numbers", on_homology(homology)))
    return _run_checks(VerificationReport(f"cylhom:{data.name}"), checks)


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
    return replace(base, entries=(), name="floer-point-02-trivial")


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
        orbits, entries, model, table, level_bound=1, t_order=1,
        name="generic-exact" if exact else "generic-fault")


# -- divisor --------------------------------------------------------------------------


def divisor_suite(ledger=None) -> VerificationReport:
    if ledger is None:
        from . import io as sio
        ledger = sio.load_ledger(sio.fixture_path("m05_ledger.json"))
    psi5 = cache(lambda: divisors.averaged_psi(5, 1))

    def four_points():
        e4 = divisors.averaged_psi(4, 1)
        return sorted(e4.coefficients.values()) == [Fraction(1, 3)] * 3, str(e4), ""

    def five_points():
        coefficients = psi5().coefficients
        return all(
            c == (Fraction(1, 2) if 1 in divisors.as_pair_divisor(s, 5)
                  else Fraction(1, 6))
            for s, c in coefficients.items()) and len(coefficients) == 10, "", ""

    def pairing_table():
        """Pairing table and the psi-square cross-check."""
        pair = divisors.m05_pair_index
        return (pair(frozenset({1, 2}), frozenset({3, 4})) == 1
                and pair(frozenset({1, 2}), frozenset({1, 2})) == -1
                and pair(frozenset({1, 2}), frozenset({1, 5})) == 0), "", ""

    def psi_square():
        square = divisors.m05_intersection(psi5(), psi5())
        oracle = gw_oracle.point_correlator((2, 0, 0, 0, 0))
        return square == oracle, f"{square} vs oracle {oracle}", ""

    def consistency():
        violations = divisors.ledger_check(ledger)
        return not violations, "; ".join(map(str, violations)) or "0", ""

    def ledger_fault():
        bad = {"self_intersections":
               [dict(ledger["self_intersections"][0])], "cross_intersections": []}
        bad["self_intersections"][0]["at"] = [
            [loc, str(-Fraction(idx))] for loc, idx in
            ledger["self_intersections"][0]["at"]]
        return bool(divisors.ledger_check(bad)), "", ""

    def restriction():
        problems = divisors.restriction_check(ledger["restrictions"])
        return not problems, "; ".join(problems) or "0", ""

    def variant_a_support():
        """Variant A kills light splittings."""
        _, expr = divisors.map_zero_locus(3, 1, 1, "A")
        return all(s.p2 >= 2 for s in expr.coefficients), "", ""

    @cache
    def zero_loci(r, p):
        return [divisors.map_zero_locus(r, p // 2, p - p // 2, v)
                for v in divisors.VARIANTS]

    def combination(r, p, target):
        finding = divisors.solve_combination(zero_loci(r, p), target, r, p)
        ok = finding.degenerate or (finding.feasible and finding.lhs_consistent)
        return ok, "", finding.describe()

    checks = [
        ("psi.four-points", "averaged psi locus on 4 points has coefficients 1/3",
         four_points),
        ("psi.five-points", "averaged psi locus on 5 points: 1/2 on pairs through "
         "the descendant point, 1/6 elsewhere", five_points),
        ("psi.three-points", "no admissible splitting on 3 points",
         lambda: (not divisors.averaged_psi(3, 1).coefficients, "", "")),
        ("pairing.table",
         "pair divisors: disjoint +1, one common index 0, equal -1", pairing_table),
        ("pairing.psi-square",
         "self-pairing of the averaged locus equals the descendant "
         "integral on 5 points", psi_square),
        ("ledger.consistency",
         "perturbation ledger: assigned indices sum to weight times "
         "pairing", consistency),
        ("ledger.fault-detection", "a flipped sign in the ledger is reported",
         ledger_fault),
        ("ledger.restriction",
         "five-point locus restricted to each pair divisor reproduces the "
         "four-point coefficients", restriction),
    ]
    checks += [(f"combinations.r{r}p{p}.{target}",
                f"exact weights for the {target} rule at r={r}, P={p}",
                lambda r=r, p=p, target=target: combination(r, p, target))
               for r, p in ((2, 2), (3, 3), (4, 4))
               for target in divisors.TARGET_RULES]
    checks.append(("locus.variant-a-support",
                   "two-puncture locus carries no splitting with fewer than two "
                   "punctures on the far side", variant_a_support))
    return _run_checks(VerificationReport("divisor"), checks)


SUITES = {
    "algebra": algebra_suite,
    "hierarchy": hierarchy_suite,
    "gw": gw_suite,
    "cylhom": cylhom_suite,
    "divisor": divisor_suite,
}
