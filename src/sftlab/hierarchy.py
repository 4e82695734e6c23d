"""Descendant Hamiltonians of a closed orbit and their Poisson brackets.

The level-j Hamiltonian is the sum over ordered tuples (n_1, ..., n_r),
r = j + 3, with n_i in {+-1, ..., +-K} and zero total winding of

    eps(n) * u_{n_1} ... u_{n_r} / r!

with u_k = q_k and u_{-k} = p_k over the cover lattice of the orbit, cover
multiplicities kappa_n = n.  Level 0 is the cubic Hamiltonian.  The circle
case takes eps = +1 and no degree filter; a geodesic applies a grading
filter (total degree 2(m+j-2) at level j) and an orientation sign profile,
and reduces to the circle sum when every cover has degree m-3.

Cover truncation is subtle: the bracket of two Hamiltonians built at cover
bound K is *not* the cover-K window of the full bracket, because pairings
at covers n > K land inside the window.  `commutator_residuals` therefore
builds the Hamiltonians on an extended lattice (at most one factor beyond
K, up to the pairing bound K*(max level + 1)) and evaluates the bracket
on the cover-K window only; the result is exactly the K-window of the
untruncated bracket.

Only the paired variable of a contributing term ranges past K: it is the
one the derivative removes.  Every other factor of a product that lands
in the window already has cover <= K, because the cover, pq-order and
t-order caps are monotone under multiplication (those exponents are
never negative).  So each partial derivative is cut to the window before
any product is formed.  The hbar cap is not monotone (hbar exponents may
be negative) and is applied to the products only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from math import factorial
from typing import Callable, Optional

from .algebra import (
    GradedSeries, TruncationPolicy, Variable, VariableTable, planck_variable,
    poisson_bracket,
)
from .errors import ValidationError


@dataclass(frozen=True)
class OrbitLattice:
    """Cover lattice of a single orbit: q_n, p_n for n = 1..window.

    ``cover_bound`` is the verification window K; ``window`` extends the
    variable range for exact bracket evaluation (window >= cover_bound).
    kappa_n = n * kappa with kappa = 1 for the simple orbit.
    """

    cover_bound: int
    window: int = 0
    q_degree: Callable[[int], int] = None  # n -> degree of q_n; default -2
    half_dim: int = 1

    def __post_init__(self):
        if self.window < self.cover_bound:
            object.__setattr__(self, "window", self.cover_bound)

    def table(self) -> VariableTable:
        variables = [planck_variable(self.half_dim)]
        for n in range(1, self.window + 1):
            if self.q_degree is None:
                qdeg = self.half_dim - 3  # CZ = 0 for every cover
            else:
                qdeg = self.q_degree(n)
            q = Variable(f"q[o,{n}]", "q", ("o", n), qdeg, n)
            p = Variable(f"p[o,{n}]", "p", ("o", n), 2 * (self.half_dim - 3) - qdeg, n)
            variables.extend((q, p))
        return VariableTable(variables, half_dim=self.half_dim)

    def u_name(self, n: int) -> str:
        """u_k = q_k for k > 0, u_{-k} = p_k."""
        return f"q[o,{n}]" if n > 0 else f"p[o,{-n}]"


@dataclass(frozen=True)
class GradingProfile:
    """Degrees of q_n per cover, from the Morse indices of the iterates."""

    degrees: dict  # n -> degree of q_n
    half_dim: int

    def q_degree(self, n: int) -> int:
        try:
            return self.degrees[n]
        except KeyError:
            raise ValidationError(f"no degree declared for cover {n}", "grading")


@dataclass(frozen=True)
class SignProfile:
    """Coherent-orientation signs per ordered tuple; zero on bad orbits.

    ``rule`` maps an ordered index tuple to -1, 0 or +1; absent a rule the
    sign is +1.  Tuples touching a bad cover are forced to zero.
    """

    bad_covers: frozenset = frozenset()
    rule: Optional[Callable[[tuple], int]] = None
    explicit: dict = field(default_factory=dict)

    def sign(self, ns: tuple) -> int:
        if any(abs(n) in self.bad_covers for n in ns):
            return 0
        if ns in self.explicit:
            return self.explicit[ns]
        if self.rule is not None:
            eps = self.rule(ns)
            if eps not in (-1, 0, 1):
                raise ValidationError(f"sign {eps} for tuple {ns} not in {{-1,0,+1}}",
                                      "signs")
            return eps
        return 1


def _zero_sum_multisets(order: int, cover_bound: int, window: int):
    """Multisets of {+-1..+-cover_bound} of the given size summing to zero,
    allowing at most one extra element with cover in (cover_bound, window]."""
    small = [n for n in range(-cover_bound, cover_bound + 1) if n]
    for ms in combinations_with_replacement(small, order):
        if sum(ms) == 0:
            yield ms
    if window > cover_bound:
        for ms in combinations_with_replacement(small, order - 1):
            s = sum(ms)
            if cover_bound < abs(s) <= window:
                yield tuple(sorted(ms + (-s,)))


def circle_hamiltonian(lattice: OrbitLattice, level: int,
                       table: Optional[VariableTable] = None,
                       policy: Optional[TruncationPolicy] = None) -> GradedSeries:
    """Level-j Hamiltonian of the circle: every sign +1, no degree filter."""
    if level < 0:
        raise ValidationError("level must be >= 0", "level")
    if table is None:
        table = lattice.table()
    if policy is None:
        policy = TruncationPolicy(max_cover=lattice.window,
                                  max_pq_order=level + 3)
    order = level + 3
    terms = {}
    fact = factorial(order)
    for ms in _zero_sum_multisets(order, lattice.cover_bound, lattice.window):
        perms = _ordered_count(ms)
        factors = {}
        for n in ms:
            name = lattice.u_name(n)
            factors[name] = factors.get(name, 0) + 1
        mono = tuple(sorted((table.position(nm), e) for nm, e in factors.items()))
        terms[mono] = terms.get(mono, Fraction(0)) + Fraction(perms, fact)
    return table.series(terms, policy)


def _ordered_count(ms: tuple) -> int:
    counts = {}
    for n in ms:
        counts[n] = counts.get(n, 0) + 1
    total = factorial(len(ms))
    for c in counts.values():
        total //= factorial(c)
    return total


def geodesic_hamiltonian(lattice: OrbitLattice, level: int,
                         grading: GradingProfile, signs: SignProfile,
                         table: Optional[VariableTable] = None,
                         policy: Optional[TruncationPolicy] = None) -> GradedSeries:
    """Geodesic Hamiltonian: signed ordered sum filtered to degree 2(m+j-3).

    Ordered tuples are walked explicitly: the sign profile acts on the
    tuple as written, the Koszul sign of sorting the written word into
    canonical order is collected by the series product.
    """
    m = grading.half_dim
    lat = OrbitLattice(lattice.cover_bound, lattice.window,
                       q_degree=grading.q_degree, half_dim=m)
    if table is None:
        table = lat.table()
    if policy is None:
        policy = TruncationPolicy(max_cover=lat.window, max_pq_order=level + 3)
    order = level + 3
    target_degree = 2 * (m + level - 2)
    fact = factorial(order)
    total = table.zero(policy)
    for ms in _zero_sum_multisets(order, lat.cover_bound, lat.window):
        degree = sum(table.variable(lat.u_name(n)).degree for n in ms)
        if degree != target_degree:
            continue
        for tup in set(permutations(ms)):
            eps = signs.sign(tup)
            if eps == 0:
                continue
            word = table.one(policy)
            for n in tup:
                word = word * table.var(lat.u_name(n), 1, policy)
            total = total + word.scale(Fraction(eps, fact))
    return total


def commutator_residuals(levels, cover_bound: int,
                         builder: Optional[Callable[..., GradedSeries]] = None,
                         **builder_kwargs):
    """Pairwise Poisson brackets, exact on the cover window.

    Returns (residuals, hamiltonians): residuals[i][j] is the cover-K
    window of the full bracket {g_{levels[i]}, g_{levels[j]}}.  The
    Hamiltonians live on the extended lattice, so the variable a term is
    paired on may have any cover up to the lattice window; every other
    factor of a term that lands in the window has cover <= K.  The cover,
    pq-order and t-order caps are monotone under multiplication, so
    `poisson_bracket` drops each derivative monomial outside the window
    before forming products and the result equals the full bracket
    truncated to the window.  The hbar cap (hbar is Laurent) is applied
    to products only.  ``builder`` defaults to the circle Hamiltonian; a
    custom builder receives (lattice, level, table, policy).
    """
    levels = list(levels)
    window = cover_bound * (max(levels) + 2) if levels else cover_bound
    lattice = OrbitLattice(cover_bound, window)
    table = lattice.table()
    work_policy = TruncationPolicy(max_cover=window,
                                   max_pq_order=2 * (max(levels) + 3))
    build = builder or circle_hamiltonian
    hams = [build(lattice, j, table=table, policy=work_policy, **builder_kwargs)
            for j in levels]
    out_policy = TruncationPolicy(max_cover=cover_bound,
                                  max_pq_order=2 * (max(levels) + 3))
    residuals = [[None] * len(levels) for _ in levels]
    for i in range(len(levels)):
        for j in range(i, len(levels)):
            br = poisson_bracket(hams[i], hams[j], out_policy)
            residuals[i][j] = br
            residuals[j][i] = -br
    return residuals, hams
