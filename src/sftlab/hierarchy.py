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
sign times the Koszul sign of sorting the word.  The sign is 0 on a bad
cover, else from a finite explicit table, else +1, and the sum is a closed
form: 0 on a bad cover or a repeated odd letter, else the ordering count
with at most one odd letter and 0 with k >= 2 (the Koszul signs of the k!
assignments of the odd letters sum to 0), plus each explicit entry's
difference from +1.  The parity of CZ(gamma^k) depends only on k mod 2 (Eliashberg-
Givental-Hofer 2000), so cover n is bad exactly when n is even and deg q_n
and deg q_1 differ in parity.  At m = 5 with every q_n of degree m-3 = 2
and no explicit sign it reduces to the circle sum.  Each term is written
packed, its record read off its multiset (see `_hamiltonian`).

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

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import factorial
from typing import Callable, Optional

from .algebra import (
    GradedSeries, TruncationPolicy, Variable, VariableTable, _layout, _reduced,
    _width_for, planck_variable, poisson_bracket,
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


def bad_covers(q_degrees: Optional[dict]) -> frozenset:
    """The even covers n whose q_n has the other parity than q_1 (none
    without degrees, or without a degree for q_1)."""
    q_degrees = q_degrees or {}
    return frozenset(n for n, d in q_degrees.items()
                     if n % 2 == 0 and 1 in q_degrees and (d - q_degrees[1]) % 2)


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
    multiplicity, ``pos`` each index n to the table position of u_n.

    Built packed, as :meth:`VariableTable.series` stores it: a term's record
    fields come from its multiset (pq-order r, no t or hbar, odd, cross and
    support masks from the letters' positions), go through ``policy.admits``
    and into the table's record cache; its key is the sum of its letters'
    key units, at the width of the largest kept multiplicity, and its
    numerator the weight, over r!.  A weight is 0 on a repeated odd letter."""
    if level < 0:
        raise ValidationError("level must be >= 0", "level")
    if table is None:
        table = lattice.table()
    order = level + 3
    policy = policy or TruncationPolicy(max_cover=lattice.window, max_pq_order=order)
    pos = {n: table.position(lattice.u_name(n))
           for n in range(-lattice.window, lattice.window + 1) if n}
    bits = {n: 1 << p for n, p in pos.items()}
    odd_mask = sum(bit for n, bit in bits.items() if table.parity[pos[n]])
    kept = []
    top = 0
    for ms in _zero_sum_multisets(order, lattice.cover_bound, lattice.window):
        mult = {}
        for n in ms:
            mult[n] = mult.get(n, 0) + 1
        c = weight(ms, mult, pos, table)
        if not c:
            continue
        support = sum(map(bits.__getitem__, mult))  # distinct letters
        odd = letters = support & odd_mask
        cross = 0
        while letters:
            low = letters & -letters
            cross ^= -low << 1  # every bit above the letter
            letters ^= low
        info = (order, 0, 0, odd, cross, support)
        if policy.admits(table, info):
            kept.append((ms, c, info))
            top = max(top, *mult.values())
    width = _width_for(top)
    units = {n: 1 << width * p for n, p in pos.items()}
    cache = _layout(table, width)[2]
    num = {}
    for ms, c, info in kept:
        key = sum(map(units.__getitem__, ms))
        num[key] = c
        cache[key] = info
    return _reduced(table, policy, num, factorial(order), width, top)


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


def geodesic_hamiltonian(lattice: OrbitLattice, level: int, explicit: dict = {},
                         table: Optional[VariableTable] = None,
                         policy: Optional[TruncationPolicy] = None) -> GradedSeries:
    """Geodesic Hamiltonian: signed ordered sum filtered to degree 2(m+j-2).

    The degrees of q_n, m and the bad covers are the lattice's.  A multiset
    of the target degree weighs the sum over its orderings t of eps(t) times
    the Koszul sign K(t) of sorting t into table order, eps(t) = 0 on a bad
    cover, ``explicit[t]`` if given, else +1.  That sum is 0 on a bad cover
    or a repeated odd letter; otherwise it is r!/prod mult! with at most one
    odd letter and 0 with k >= 2, plus (explicit[t] - 1) * K(t) for each
    explicit t ordering the multiset.  Exact: with +1 signs each pattern of
    the even letters carries all k! placements of the distinct odd letters,
    whose Koszul signs are the signs of S_k and sum to 0 for k >= 2.
    """
    target = 2 * (lattice.half_dim + level - 2)
    bad = bad_covers(lattice.q_degrees)
    orders_of = {}
    for tup, eps in explicit.items():
        orders_of.setdefault(tuple(sorted(tup)), []).append((tup, eps))

    def closed_form(ms, mult, pos, table):
        odd = [n for n in mult if table.parity[pos[n]]]
        if (sum(table.degrees[pos[n]] for n in ms) != target
                or any(abs(n) in bad for n in mult) or any(mult[n] > 1 for n in odd)):
            return 0
        total = _orderings(ms, mult, pos, table) if len(odd) < 2 else 0
        for tup, eps in orders_of.get(ms, ()):
            word = [pos[n] for n in tup if table.parity[pos[n]]]
            total += (eps - 1) * (-1) ** sum(a > b for k, a in enumerate(word)
                                             for b in word[k + 1:])
        return total

    return _hamiltonian(lattice, level, table, policy, closed_form)


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
    custom builder receives (lattice, level, table, policy).  No levels
    give ([], []).
    """
    levels = list(levels)
    if not levels:
        return [], []
    window = cover_bound * (max(levels) + 2)
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
