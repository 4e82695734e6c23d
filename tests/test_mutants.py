"""Mutation tables for the algebra, hierarchy and cylhom suites: each row
breaks one function (or the fixtures) where ``suites``, ``hierarchy``,
``algebra`` or ``cylhom`` reads it, and names the records that must then
FAIL.

A record no row can fail is a check that cannot see a fault; a test keeps
every algebra record in some row's must-fail set.
"""

from dataclasses import replace
from itertools import count
from types import SimpleNamespace

import pytest

from sftlab import algebra, cylhom, hierarchy, suites
from sftlab.algebra import GradedSeries
from sftlab.report import FAIL, PASS

KAPPAS = ("weyl.kappa1", "weyl.kappa2", "weyl.kappa3")


def _bracket_zero(original):
    return lambda f, g, *args: f.table.zero(f.policy)


def _bracket_plus_f(original):
    return lambda f, g, *args: original(f, g, *args) + f


def _bracket_plus_fresh_constant(original):
    fresh = count(1)
    return lambda f, g, *args: original(f, g, *args) + f.table.one(f.policy).scale(
        next(fresh))


def _bracket_plus_hbar_bracket(original):
    def bracket(f, g, *args):
        b = original(f, g, *args)
        return b + b.table.monomial({"hbar": 1}, 1, b.policy) * b
    return bracket


def _commutator_plus_product(original):
    return lambda f, g: original(f, g) + f * g


def _commutator_doubled(original):
    return lambda f, g: original(f, g).scale(2)


def _product_plus_f(original):
    def mul(self, other):
        out = original(self, other)
        return out + self if isinstance(other, GradedSeries) else out
    return mul


def _derivative_plus_one(original):
    return lambda self, name: original(self, name) + self.table.one(self.policy)


# (owner, attribute, mutant of the original, ids that must FAIL)
MUTANTS = {
    "bracket-zero": (suites, "poisson_bracket", _bracket_zero,
                     {"random.hbar-linear-term"}),
    "bracket-plus-f": (suites, "poisson_bracket", _bracket_plus_f,
                       {"random.antisymmetry", "random.jacobi",
                        "random.hbar-linear-term"}),
    "bracket-plus-hbar-bracket": (suites, "poisson_bracket", _bracket_plus_hbar_bracket,
                                  {"random.hbar-linear-term"}),
    "bracket-fresh-constant": (suites, "poisson_bracket", _bracket_plus_fresh_constant,
                               {"determinism.bracket"}),
    "commutator-plus-product": (suites, "weyl_commutator", _commutator_plus_product,
                                {"random.hbar-divisibility", *KAPPAS}),
    "commutator-doubled": (suites, "weyl_commutator", _commutator_doubled,
                           {"random.hbar-linear-term", *KAPPAS}),
    "product-plus-f": (GradedSeries, "__mul__", _product_plus_f,
                       {"random.super-commutativity", "random.leibniz"}),
    "derivative-plus-one": (GradedSeries, "derivative", _derivative_plus_one,
                            {"random.leibniz"}),
}


def _failed():
    return {c.id for c in suites.algebra_suite(samples=50).checks if c.status == "fail"}


def test_unmutated_algebra_suite_fails_nothing():
    assert _failed() == set()


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_fails_its_records(name, monkeypatch):
    owner, attr, mutant, must_fail = MUTANTS[name]
    monkeypatch.setattr(owner, attr, mutant(getattr(owner, attr)))
    assert must_fail <= _failed()


def test_every_algebra_record_has_a_mutant():
    ids = {c.id for c in suites.algebra_suite(samples=0).checks}
    assert ids == set().union(*(row[3] for row in MUTANTS.values()))


# -- hierarchy ----------------------------------------------------------------


def _orderings_plus_one_on_repeats(original):
    return lambda ms, mult, *args: (original(ms, mult, *args)
                                    + any(e > 1 for e in mult.values()))


def _last_run_shifted(original):
    """Window keys whose last run lands one field too far up a full key."""
    def window(table, width, dead):
        bias, sigma, pack = original(table, width, dead)
        if pack is None:
            return bias, sigma, pack
        full_bias, expansion, runs, units = pack
        mask, shift = runs[-1]
        return bias, sigma, (full_bias, expansion,
                             runs[:-1] + ((mask, shift + width),), units)
    return window


def _bracket_sigma_shifted(original):
    """sigma one field short, on window keys only: the sigma-invariance
    check reads the full layout, so the bracket still takes the half path
    and only its swap breaks."""
    def window(table, width, dead):
        bias, sigma, pack = original(table, width, dead)
        if dead and sigma:
            rest, qblock, pblock, shift = sigma
            sigma = rest, qblock, pblock, shift - width
        return bias, sigma, pack
    return window


COMMUTE = {f"commute.g{i}g{j}" for i in range(4) for j in range(i, 4)}
DIAGONAL = {f"commute.g{i}g{i}" for i in range(4)}

# Each row's set is every record that then FAILs on hierarchy_suite(3).
# Known-vacuous: {f,f} = 0 for every even f, so the diagonal records
# commute.g{i}g{i} fail only when the kernel breaks, never for a wrong
# Hamiltonian (item L drops them); and a zero bracket fails no commute.*
# record (item G's flow record is the one that would).  No mutant fails
# values.g0_empty, winding.zero or geodesic.* here yet.
HIERARCHY_MUTANTS = {
    "orderings-plus-one": (hierarchy, "_orderings", _orderings_plus_one_on_repeats,
                           {"values.g0", "values.g1", *(COMMUTE - DIAGONAL)}),
    "window-last-run-shifted": (algebra, "_window", _last_run_shifted, COMMUTE),
    "bracket-sigma-shifted": (algebra, "_window", _bracket_sigma_shifted, COMMUTE),
    "bracket-zero": (hierarchy, "poisson_bracket", _bracket_zero, set()),
}


def _hierarchy_not_passed():
    return {c.id: c.status for c in suites.hierarchy_suite(cover_bound=3).checks
            if c.status != PASS}


def test_unmutated_hierarchy_suite_passes():
    assert _hierarchy_not_passed() == {}


@pytest.mark.parametrize("name", sorted(HIERARCHY_MUTANTS))
def test_hierarchy_mutant_fails_exactly_its_records(name, monkeypatch):
    owner, attr, mutant, must_fail = HIERARCHY_MUTANTS[name]
    monkeypatch.setattr(owner, attr, mutant(getattr(owner, attr)))
    assert _hierarchy_not_passed() == dict.fromkeys(must_fail, FAIL)


# -- cylhom -------------------------------------------------------------------


def _second_derivative_doubled(original):
    return lambda *args: [series.scale(2) for series in original(*args)]


def _counts_doubled(original):
    def fixtures():
        return {key: replace(data, entries=[replace(e, value=2 * e.value)
                                            for e in data.entries])
                for key, data in original().items()}
    return fixtures


def _release_zero(original):
    return lambda table: (lambda series: series.table.zero(series.policy))


def _structure_constants_doubled(original):
    def product(*args):
        qp = original(*args)
        return SimpleNamespace(constant=lambda *abc: {
            d: 2 * v for d, v in qp.constant(*abc).items()})
    return product


# Each row's set is every record that then FAILs.  No mutant fails
# blocks.eq-vs-floer.*, trr.noneq.(0,2), trr.generic-exactness,
# contact.vanishing or homology.betti yet, and the sign of the N-dressed
# anticommutator term is guarded only by
# test_cylhom.py::test_one_residual_in_k_matches_the_three_branches: with
# it flipped every cylhom record still passes.
CYLHOM_MUTANTS = {
    "second-derivative-doubled": (cylhom, "second_derivative_series",
                                  _second_derivative_doubled, {"trr.noneq.(2,0)"}),
    "counts-doubled": (suites, "default_cylhom_fixtures", _counts_doubled,
                       {"action.axioms", "trr.noneq.(1,1)"}),
    "release-zero": (cylhom, "release_constrained_operator", _release_zero,
                     {"trr.noneq.(1,1)"}),
    "structure-constants-doubled": (cylhom, "quantum_product",
                                    _structure_constants_doubled, {"action.axioms"}),
}


def _cylhom_not_passed():
    return {c.id: c.status for c in suites.cylhom_suite().checks
            if c.status != PASS}


def test_unmutated_cylhom_suite_passes():
    assert _cylhom_not_passed() == {}


@pytest.mark.parametrize("name", sorted(CYLHOM_MUTANTS))
def test_cylhom_mutant_fails_exactly_its_records(name, monkeypatch):
    owner, attr, mutant, must_fail = CYLHOM_MUTANTS[name]
    monkeypatch.setattr(owner, attr, mutant(getattr(owner, attr)))
    assert _cylhom_not_passed() == dict.fromkeys(must_fail, FAIL)
