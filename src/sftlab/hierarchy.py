"""Descendant Hamiltonians of a closed orbit and their Poisson brackets.

The level-j Hamiltonian is the sum over ordered tuples (n_1, ..., n_r),
r = j + 3, with n_i in {+-1, ..., +-K} and zero total winding of

    eps(n) * u_{n_1} ... u_{n_r} / r!

with u_k = q_k and u_{-k} = p_k over the cover lattice of the orbit, cover
multiplicities kappa_n = n.  Level 0 is the cubic Hamiltonian.  Both
builders walk the zero-sum multisets once and weigh each by an integer
over r!.  The circle takes eps = +1 and no degree filter: the weight is
the number of orderings.  A geodesic reads the degrees of q_n and m from
its lattice, keeps the multisets of total degree 2(m+j-2) at level j and
weighs each by the sum, over its distinct orderings, of the orientation
sign times the Koszul sign of sorting the word.  At m = 5 with every q_n
of degree m-3 = 2 and every sign +1 it reduces to the circle sum.

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
from itertools import combinations_with_replacement
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
    kappa_n = n * kappa with kappa = 1 for the simple orbit.  ``q_degrees``
    maps each cover n to the degree of q_n, from the Morse indices of the
    iterates; without it every q_n has degree half_dim - 3 (CZ = 0).
    """

    cover_bound: int
    window: int = 0
    q_degrees: Optional[dict] = None
    half_dim: int = 1

    def __post_init__(self):
        if self.window < self.cover_bound:
            object.__setattr__(self, "window", self.cover_bound)

    def table(self) -> VariableTable:
        variables = [planck_variable(self.half_dim)]
        for n in range(1, self.window + 1):
            qdeg = self.half_dim - 3 if self.q_degrees is None else self.q_degrees.get(n)
            if qdeg is None:
                raise ValidationError(f"no degree declared for cover {n}",
                                      f"q_degrees.{n}")
            q = Variable(f"q[o,{n}]", "q", ("o", n), qdeg, n)
            p = Variable(f"p[o,{n}]", "p", ("o", n), 2 * (self.half_dim - 3) - qdeg, n)
            variables.extend((q, p))
        return VariableTable(variables, half_dim=self.half_dim)

    def u_name(self, n: int) -> str:
        """u_k = q_k for k > 0, u_{-k} = p_k."""
        return f"q[o,{n}]" if n > 0 else f"p[o,{-n}]"


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


def _hamiltonian(lattice: OrbitLattice, level: int,
                 table: Optional[VariableTable], policy: Optional[TruncationPolicy],
                 weight: Callable[..., int]) -> GradedSeries:
    """Sum over the zero-sum multisets ms of weight(ms, mult, pos, table) / r!
    times the monomial of ms; ``mult`` maps each index of ms to its
    multiplicity, ``pos`` each index n to the table position of u_n."""
    if level < 0:
        raise ValidationError("level must be >= 0", "level")
    if table is None:
        table = lattice.table()
    order = level + 3
    policy = policy or TruncationPolicy(max_cover=lattice.window, max_pq_order=order)
    fact = factorial(order)
    pos = {n: table.position(lattice.u_name(n))
           for n in range(-lattice.window, lattice.window + 1) if n}
    terms = {}
    for ms in _zero_sum_multisets(order, lattice.cover_bound, lattice.window):
        mult = {}
        for n in ms:
            mult[n] = mult.get(n, 0) + 1
        c = weight(ms, mult, pos, table)
        if c:
            mono = tuple(sorted((pos[n], e) for n, e in mult.items()))
            terms[mono] = Fraction(c, fact)
    return table.series(terms, policy)


def circle_hamiltonian(lattice: OrbitLattice, level: int,
                       table: Optional[VariableTable] = None,
                       policy: Optional[TruncationPolicy] = None) -> GradedSeries:
    """Level-j Hamiltonian of the circle: every sign +1, no degree filter."""
    return _hamiltonian(lattice, level, table, policy, _orderings)


def _orderings(ms, mult, pos, table) -> int:
    """Number of orderings of the multiset ms: r! / prod mult!."""
    count = factorial(len(ms))
    for e in mult.values():
        if e > 1:
            count //= factorial(e)
    return count


def _distinct_orderings(ms):
    """Each distinct ordering of the multiset ms once, in lexicographic
    order: from the sorted word, the next permutation swaps the last ascent
    with the smallest larger letter after it and reverses the tail."""
    word = sorted(ms)
    while True:
        yield tuple(word)
        i = len(word) - 2
        while i >= 0 and word[i] >= word[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(word) - 1
        while word[j] <= word[i]:
            j -= 1
        word[i], word[j] = word[j], word[i]
        word[i + 1:] = word[:i:-1]


def geodesic_hamiltonian(lattice: OrbitLattice, level: int, signs: SignProfile,
                         table: Optional[VariableTable] = None,
                         policy: Optional[TruncationPolicy] = None) -> GradedSeries:
    """Geodesic Hamiltonian: signed ordered sum filtered to degree 2(m+j-2).

    The degrees of q_n and m are the lattice's own.  A multiset of the
    target degree weighs the sum, over its distinct orderings, of the sign
    profile's sign of the tuple as written times the Koszul sign of sorting
    the written word into table order (0 when an odd letter repeats).
    """
    target = 2 * (lattice.half_dim + level - 2)

    def signed_orderings(ms, mult, pos, table):
        if sum(table.degrees[pos[n]] for n in ms) != target:
            return 0
        total = 0
        for tup in _distinct_orderings(ms):
            eps = signs.sign(tup)
            odd = [pos[n] for n in tup if table.parity[pos[n]]]
            if eps and len(set(odd)) == len(odd):
                total += eps * (-1) ** sum(a > b for k, a in enumerate(odd)
                                           for b in odd[k + 1:])
        return total

    return _hamiltonian(lattice, level, table, policy, signed_orderings)


def commutator_residuals(levels, cover_bound: int,
                         builder: Optional[Callable[..., GradedSeries]] = None):
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
    hams = [build(lattice, j, table=table, policy=work_policy) for j in levels]
    out_policy = TruncationPolicy(max_cover=cover_bound,
                                  max_pq_order=2 * (max(levels) + 3))
    residuals = [[None] * len(levels) for _ in levels]
    for i in range(len(levels)):
        for j in range(i, len(levels)):
            br = poisson_bracket(hams[i], hams[j], out_policy)
            residuals[i][j] = br
            residuals[j][i] = -br
    return residuals, hams
