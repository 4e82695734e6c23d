"""Formal differential operators on graded series.

Provides the generic term representation (rational coefficient, multiplier
monomial, ordered derivative list), linear maps with a declared degree and
their graded (anti)commutators, and the three named operators of the
engine: the marked-point counter N, the constrained-point release operator
N-check (sends one t-check factor to the matching t), and the Euler scaling
operator -2 hbar d/dhbar - sum p d/dp - sum q d/dq - sum t d/dt.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .algebra import GradedSeries, VariableTable, TFORM, TCHECK, QORBIT, PORBIT, HBAR
from .errors import DeclarationError, SftlabError


@dataclass(frozen=True)
class LinearOperator:
    """A linear map on series with its declared integer degree; graded
    (anti)commutators require the degree."""

    fn: Callable[[GradedSeries], GradedSeries]
    degree: Optional[int] = None

    def __call__(self, series: GradedSeries) -> GradedSeries:
        return self.fn(series)


def _require_degrees(a: LinearOperator, b: LinearOperator):
    if a.degree is None or b.degree is None:
        raise SftlabError("graded (anti)commutator needs declared operator degrees")


def graded_commutator(a: LinearOperator, b: LinearOperator) -> LinearOperator:
    """[a,b]_- = a.b - (-1)^{|a||b|} b.a"""
    _require_degrees(a, b)
    sgn = -1 if (a.degree % 2 and b.degree % 2) else 1
    return LinearOperator(lambda s: a(b(s)) - sgn * b(a(s)), a.degree + b.degree)


def graded_anticommutator(a: LinearOperator, b: LinearOperator) -> LinearOperator:
    """[a,b]_+ = a.b + (-1)^{|a||b|} b.a"""
    _require_degrees(a, b)
    sgn = -1 if (a.degree % 2 and b.degree % 2) else 1
    return LinearOperator(lambda s: a(b(s)) + sgn * b(a(s)), a.degree + b.degree)


@dataclass(frozen=True)
class OperatorTerm:
    coefficient: Fraction
    multiplier: tuple  # ((name, exponent), ...)
    derivatives: tuple  # variable names, applied right-to-left


class DifferentialOperator:
    """Finite sum of multiply-then-differentiate terms.

    Each term acts as coeff * multiplier * (d/dv_1 ... d/dv_k f) with the
    derivative list applied right-to-left, i.e. the last listed variable
    differentiates first.  Application is linear; composition of two
    operators is realized by applying them in sequence.
    """

    def __init__(self, table: VariableTable, terms):
        self.table = table
        self.terms = tuple(
            OperatorTerm(Fraction(c), tuple(mult.items()) if isinstance(mult, dict) else tuple(mult),
                         tuple(derivs))
            for c, mult, derivs in terms
        )
        for t in self.terms:
            for name, _ in t.multiplier:
                table.position(name)
            for name in t.derivatives:
                table.position(name)

    def degree(self) -> Optional[int]:
        degs = set()
        for t in self.terms:
            d = sum(self.table.variable(n).degree * e for n, e in t.multiplier)
            d -= sum(self.table.variable(n).degree for n in t.derivatives)
            degs.add(d)
        if len(degs) == 1:
            return degs.pop()
        return None

    def __call__(self, series: GradedSeries) -> GradedSeries:
        out = series.table.zero(series.policy)
        for t in self.terms:
            cur = series
            for name in reversed(t.derivatives):
                cur = cur.derivative(name)
                if cur.is_zero():
                    break
            if cur.is_zero():
                continue
            if t.multiplier:
                cur = self.table.monomial(dict(t.multiplier), 1, series.policy) * cur
            out = out + cur.scale(t.coefficient)
        return out


# -- the named operators -------------------------------------------------------


def point_count(series: GradedSeries) -> GradedSeries:
    """N: scales each monomial by its total exponent in t and t-check."""
    table = series.table
    kinds = table.kinds

    def weight(mono):
        return sum(e for p, e in mono if kinds[p] in (TFORM, TCHECK))

    return series.map_terms(weight)


def release_constrained_operator(table: VariableTable) -> DifferentialOperator:
    """N-check: sum over classes of t^{a,j} d/d tcheck^{a,j}.

    Requires every t-check variable to have a plain t partner with the same
    (class, level) indices.
    """
    plain = {v.indices: v for v in table.variables if v.kind == TFORM}
    terms = []
    for v in table.variables:
        if v.kind != TCHECK:
            continue
        partner = plain.get(v.indices)
        if partner is None:
            raise DeclarationError(f"{v.name} has no unconstrained partner")
        terms.append((1, {partner.name: 1}, (v.name,)))
    return DifferentialOperator(table, terms)


def release_constrained(series: GradedSeries) -> GradedSeries:
    return release_constrained_operator(series.table)(series)


def euler_scale(series: GradedSeries) -> GradedSeries:
    """-2 hbar d/dhbar - sum_gamma p d/dp - sum_gamma q d/dq - sum t d/dt.

    Eigenvalue on a monomial hbar^{g-1} t^I p^A q^B: -(2(g-1)+|I|+|A|+|B|).
    t-check factors do not contribute.
    """
    table = series.table
    kinds = table.kinds

    def weight(mono):
        w = 0
        for p, e in mono:
            k = kinds[p]
            if k == HBAR:
                w += 2 * e
            elif k in (TFORM, QORBIT, PORBIT):
                w += e
        return -w

    return series.map_terms(weight)

