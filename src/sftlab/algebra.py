"""Sparse exact-arithmetic core for graded super-commutative series.

Elements are finite sums of monomials in formal variables of six kinds:
orbit variables q, p (carrying a multiplicity kappa), descendant variables
t and their constrained partners t-check, curve-class variables z, and the
loop-counting variable hbar.  Coefficients are exact rationals.  All
variables super-commute according to the parity of their integer degree;
the only non-commutative structure is the star product of
:func:`star_product`, in which [p,q] = kappa*hbar for the q/p pair of each
orbit.

Monomials are ordered canonically (hbar, z, t, t-check, q, p; ties broken
by declared indices).  Placing every q before every p makes canonical
monomials normal-ordered for the star product by construction.  Signs are
the Koszul signs of sorting words of odd letters.  The star product of two
normal-ordered series is then given by the Wick formula: the sum, over
every way of contracting letters p of the left factor with letters q of
the same orbit in the right factor, of kappa*hbar per contraction times
the super-commutative product of what is left, which is a sum of products
of derivatives (see :func:`_wick`).

Storage (packed monomials as the native representation, after Monagan &
Pearce, "POLY: a new polynomial data structure for Maple 17").  A series
is a dict from an int key to an int numerator over one positive
denominator, always reduced (the zero series has denominator 1).  The key
holds the exponent of table position i in a balanced, signed field of w
bits at bit w*i, so Laurent exponents need no offset, multiplying
monomials is adding keys and a derivative by the variable at i subtracts
1 << w*i.  A field holds |e| < 2^(w-1).  Each series carries its width and
a bound on its largest |exponent|; built from monomials it gets the
narrowest width holding twice its largest exponent, at least 5 bits.  An
operation whose exponents could pass its operands' width (a product of
products, a Laurent derivative, a star product's hbar shift) re-packs them
wider first, so no field ever carries into the next; series of different
widths meet at the wider one.

Each table caches, per width and key, the record fields the kernel
:func:`_mul_packed` reads: pq-order, t-order, hbar exponent, the mask of
odd letters, the Koszul cross mask and the support mask.  A cap check is
an integer compare against the budget the first factor leaves; factors
sharing an odd letter give zero (``odd1 & odd2``); the parity of a term
is the popcount of its odd letters.  A row of the first factor with no
odd letter, whose budget the second factor's largest pq-order, t-order
and hbar exponent all fit, skips every check.  The cover cap is a test of
the support mask against ``table.above(cap)``.  One step,
:func:`_derived`, builds the record of a q/p derivative, for the bracket
and the star product alike.  Tuple monomials ((position, exponent), ...)
and Fractions appear only in the table's constructors and in the decoded,
read-only ``terms`` view; the descendant Hamiltonians of
:mod:`sftlab.hierarchy` are written as packed records directly, each key
a sum of letter units, each record from its multiset.

A series caches its bracket operand: the records of each parity part and
their q/p partials, cut to the bracket's window (see
:func:`poisson_bracket`), keyed by (width, window).  The key is all they
depend on, so a series bracketed with many others under one window is
differentiated once; the value of a series never changes.  When the
window's cover cap leaves q/p fields of the table dead (no partial holds
them), the cached partials carry keys re-packed onto the live fields
(:func:`_live`), so the products add shorter integers; the records'
masks stay indexed by table position.

The Poisson bracket of two series fixed by sigma: q_n <-> p_n forms half
the products, {f,g} = A - sigma(A) with A = sum_n kappa_n df/dp_n dg/dq_n,
on a table with no odd variable whose every q has its p partner.  With
the bias added, sigma exchanges the q block and the p block of a key:
three masks and two shifts, computed once per (table, width) in
:func:`_layout`, or per (table, width, cover cap) on live keys.  Whether
sigma fixes a series is checked exactly, once, and cached with its
bracket operand.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from math import gcd, lcm
from types import MappingProxyType
from typing import Iterable, Optional

from .errors import DeclarationError, TableMismatchError

HBAR, ZCLASS, TFORM, TCHECK, QORBIT, PORBIT = "hbar", "z", "t", "tcheck", "q", "p"

_KIND_RANK = {HBAR: 0, ZCLASS: 1, TFORM: 2, TCHECK: 3, QORBIT: 4, PORBIT: 5}

# Kinds whose exponents may be negative (Laurent behaviour).
_LAURENT_KINDS = (HBAR, ZCLASS)


@dataclass(frozen=True)
class Variable:
    """A formal graded variable.

    ``indices`` is kind-specific: (orbit id, cover) for q/p, (class id,
    descendant level) for t and t-check, (class position,) for z, () for
    hbar.  ``multiplicity`` is the orbit multiplicity kappa and only
    meaningful for q/p.
    """

    name: str
    kind: str
    indices: tuple
    degree: int
    multiplicity: int = 1

    @property
    def odd(self) -> bool:
        return self.degree % 2 != 0

    def sort_key(self):
        return (_KIND_RANK[self.kind], self.indices, self.name)


def orbit_variable_pair(orbit, cover=1, cz=0, half_dim=1, multiplicity=None):
    """q/p pair for a closed orbit: |q| = m-3+CZ, |p| = m-3-CZ (m = half_dim)."""
    kappa = cover if multiplicity is None else multiplicity
    return (
        Variable(f"q[{orbit},{cover}]", QORBIT, (str(orbit), cover),
                 half_dim - 3 + cz, kappa),
        Variable(f"p[{orbit},{cover}]", PORBIT, (str(orbit), cover),
                 half_dim - 3 - cz, kappa),
    )


def t_name(cid, level):
    return f"t[{cid},{level}]"


def tc_name(cid, level):
    return f"tc[{cid},{level}]"


def z_name(pos):
    return f"z{pos}"


def descendant_variable(class_id, level, class_degree, checked=False):
    """t (or t-check) variable of degree 2(1-level) - class degree.

    Constrained variables sit one degree lower, which is the convention
    making the swap operator odd and dressed differentials
    degree-homogeneous.
    """
    deg = 2 * (1 - level) - class_degree
    if checked:
        return Variable(tc_name(class_id, level), TCHECK, (str(class_id), level),
                        deg - 1)
    return Variable(t_name(class_id, level), TFORM, (str(class_id), level), deg)


def curve_class_variable(position, chern):
    """z variable of degree -2*c1 for one curve-class basis element."""
    return Variable(z_name(position), ZCLASS, (position,), -2 * chern)


def planck_variable(half_dim):
    return Variable("hbar", HBAR, (), 2 * (half_dim - 3))


@dataclass(frozen=True)
class TruncationPolicy:
    """Hard caps applied to every stored monomial.

    max_t_order bounds the total exponent of t and t-check factors;
    max_cover bounds the cover index of orbit factors; max_pq_order the
    total exponent in q and p; max_hbar_order the hbar exponent from above.
    """

    max_t_order: int = 16
    max_cover: int = 64
    max_pq_order: int = 32
    max_hbar_order: int = 8

    def cap(self, other: "TruncationPolicy") -> "TruncationPolicy":
        if other is self or other == self:
            return self
        return TruncationPolicy(
            min(self.max_t_order, other.max_t_order),
            min(self.max_cover, other.max_cover),
            min(self.max_pq_order, other.max_pq_order),
            min(self.max_hbar_order, other.max_hbar_order),
        )

    def admits(self, table: "VariableTable", info) -> bool:
        """Whether a term of table with record fields ``info`` is in the caps."""
        return (info[0] <= self.max_pq_order and info[1] <= self.max_t_order
                and info[2] <= self.max_hbar_order
                and not info[5] & table.above(self.max_cover))


DEFAULT_POLICY = TruncationPolicy()


class VariableTable:
    """Immutable registry fixing the canonical variable order.

    Validates that ids are unique, multiplicities positive, every p has a
    matching q over the same (orbit, cover) with equal multiplicity, and,
    when a half-dimension is declared together with hbar, that
    |hbar| = 2(m-3).
    """

    def __init__(self, variables: Iterable[Variable], half_dim: Optional[int] = None):
        vs = list(variables)
        names = [v.name for v in vs]
        if len(set(names)) != len(names):
            dup = sorted({n for n in names if names.count(n) > 1})
            raise DeclarationError(f"duplicate variable id(s): {dup}")
        for v in vs:
            if v.kind not in _KIND_RANK:
                raise DeclarationError(f"unknown kind {v.kind!r} for {v.name}")
            if v.kind in (QORBIT, PORBIT) and v.multiplicity < 1:
                raise DeclarationError(f"nonpositive multiplicity on {v.name}")
        qs = {v.indices: v for v in vs if v.kind == QORBIT}
        for v in vs:
            if v.kind == PORBIT:
                partner = qs.get(v.indices)
                if partner is None:
                    raise DeclarationError(f"{v.name} has no q-partner")
                if partner.multiplicity != v.multiplicity:
                    raise DeclarationError(
                        f"{v.name}: multiplicity differs from partner {partner.name}")
        if half_dim is not None:
            for v in vs:
                if v.kind == HBAR and v.degree != 2 * (half_dim - 3):
                    raise DeclarationError(
                        f"hbar degree {v.degree} != 2(m-3) for m={half_dim}")
        self.variables = tuple(sorted(vs, key=Variable.sort_key))
        self.half_dim = half_dim
        self._pos = {v.name: i for i, v in enumerate(self.variables)}
        self.parity = tuple(v.odd for v in self.variables)
        self.degrees = tuple(v.degree for v in self.variables)
        self.kinds = tuple(v.kind for v in self.variables)
        # cover index of each q/p variable, 0 for every other kind
        self.covers = tuple(v.indices[1] if v.kind in (QORBIT, PORBIT) else 0
                            for v in self.variables)
        # q-position -> (p-position, kappa) for the bracket sums
        self.orbit_pairs = tuple(
            (self._pos[q.name], self._pos[p.name], q.multiplicity)
            for q in self.variables if q.kind == QORBIT
            for p in self.variables
            if p.kind == PORBIT and p.indices == q.indices
        )
        self.qp_mask = sum(1 << i for i, kind in enumerate(self.kinds)
                           if kind in (QORBIT, PORBIT))
        self._sigma = _sigma_block(self)  # sigma: q <-> p on key fields
        self._layouts = {}  # key width -> _layout
        self._live = {}  # (key width, cover cap) -> _live
        self._above = {}  # cover cap -> above(cap)

    def position(self, name: str) -> int:
        try:
            return self._pos[name]
        except KeyError:
            raise DeclarationError(f"unknown variable {name!r}") from None

    def variable(self, name: str) -> Variable:
        return self.variables[self.position(name)]

    def names(self):
        return [v.name for v in self.variables]

    def above(self, cap: int) -> int:
        """Mask of the positions of the q/p letters of cover over cap."""
        if cap not in self._above:
            self._above[cap] = sum(1 << i for i, cv in enumerate(self.covers)
                                   if cv > cap)
        return self._above[cap]

    def __len__(self):
        return len(self.variables)

    # -- series constructors -------------------------------------------------

    def zero(self, policy: TruncationPolicy = DEFAULT_POLICY) -> "GradedSeries":
        return GradedSeries(self, policy, {}, 1, _width_for(0), 0)

    def one(self, policy: TruncationPolicy = DEFAULT_POLICY) -> "GradedSeries":
        return self.series({(): 1}, policy)

    def var(self, name: str, exponent: int = 1,
            policy: TruncationPolicy = DEFAULT_POLICY) -> "GradedSeries":
        mono = ((self.position(name), exponent),) if exponent else ()
        return self.series({mono: 1}, policy)

    def monomial(self, factors: dict, coeff=1,
                 policy: TruncationPolicy = DEFAULT_POLICY) -> "GradedSeries":
        """Series with a single monomial given as {name: exponent}."""
        mono = tuple(sorted((self.position(n), e) for n, e in factors.items() if e))
        return self.series({mono: coeff}, policy)

    def series(self, terms: dict, policy: TruncationPolicy = DEFAULT_POLICY) -> "GradedSeries":
        """Series of {tuple monomial: rational} terms, truncated to policy."""
        kept = []
        for mono, coeff in terms.items():
            c = coeff if isinstance(coeff, (int, Fraction)) else Fraction(coeff)
            if c:
                info = _mono_info(self, mono, check=True)
                if policy.admits(self, info):
                    kept.append((mono, c, info))
        top = max((abs(e) for mono, _, _ in kept for _, e in mono), default=0)
        width = _width_for(top)
        den = lcm(*(c.denominator for _, c, _ in kept))
        cache = _layout(self, width)[2]
        num = {}
        for mono, c, info in kept:
            key = sum(e << width * pos for pos, e in mono)
            num[key] = c.numerator * (den // c.denominator)
            cache[key] = info
        return GradedSeries(self, policy, num, den, width, top)


# -- tuple-monomial helpers (presentation) ---------------------------------------


def mono_degree(table: VariableTable, mono) -> int:
    return sum(table.degrees[p] * e for p, e in mono)


# -- packed keys and records --------------------------------------------------------
#
# A record is (key, numerator, pq-order, t-order, hbar exponent, odd mask,
# cross mask, support).  The cross mask is the XOR, over the odd letters b,
# of the mask of every bit above b, so popcount(odd1 & cross2) has the
# parity of the number of pairs (a, b), a an odd letter of the first factor
# above b an odd letter of the second: the Koszul sign.  The support has
# bit i set when position i occurs; it is within a cover cap when it
# misses ``table.above(cap)``.


def _width_for(top: int) -> int:
    """Bits per field holding 2*top (at least 5, so exponents up to 7 share one)."""
    return max(5, top.bit_length() + 2)


def _sigma_block(table: VariableTable):
    """(first q position, number n of q) when the table has no odd variable
    and its p block pairs with its q block in order, p_i n places after
    q_i, so that sigma: q <-> p exchanges two runs of key fields; None
    otherwise."""
    if any(table.parity):
        return None
    qs = [i for i, kind in enumerate(table.kinds) if kind == QORBIT]
    n = len(qs)
    pairs = [(q, p) for q, p, _ in table.orbit_pairs]
    if n and pairs == [(qs[0] + i, qs[0] + n + i) for i in range(n)]:
        return qs[0], n
    return None


def _layout(table: VariableTable, width: int):
    """(bias, odd fields, record cache, sigma) of table at a key width.  With
    the bias (2^(w-1) per field) added, field i of a key is carry-free, and
    its low bit (bit w*i, set in the odd-field mask at odd i) is an odd
    letter's.  sigma is None, or (rest, q block, p block, shift): the masks
    and shift of :func:`_swapped`, which exchanges the q and p fields."""
    try:
        return table._layouts[width]
    except KeyError:
        bias = sum(1 << width * (i + 1) - 1 for i in range(len(table)))
        odd = sum(1 << width * i for i, o in enumerate(table.parity) if o)
        sigma = None
        if table._sigma is not None:
            sigma = _sigma_masks(width, *table._sigma, len(table))
        return table._layouts.setdefault(width, (bias, odd, {}, sigma))


def _sigma_masks(width: int, first: int, n: int, fields: int) -> tuple:
    """(rest, q block, p block, shift) of a key of ``fields`` fields whose n
    q fields start at field ``first`` and are followed by their n p fields."""
    shift = width * n
    qblock = ((1 << shift) - 1) << width * first
    pblock = qblock << shift
    rest = ((1 << width * fields) - 1) ^ qblock ^ pblock
    return rest, qblock, pblock, shift


def _live(table: VariableTable, width: int, cap: int) -> tuple:
    """(bias, live bias, expansion bias, runs, sigma) of the live layout of
    table under a cover cap: a key of width-bit fields holding only the
    positions of cover at most cap, in table order.  Each run of
    consecutive live positions is (mask of its fields in a live key, shift
    to its place in a full key).  sigma is None, or the masks of
    :func:`_swapped` on live keys: a q and its p share a cover, so the live
    q fields form one block and the live p fields the next."""
    try:
        return table._live[width, cap]
    except KeyError:
        above = table.above(cap)
        live = [i for i in range(len(table)) if not above >> i & 1]
        runs = []  # a run's fields lie one distance from their positions
        for offset, run in groupby(range(len(live)), lambda f: live[f] - f):
            run = list(run)
            runs.append((((1 << width * len(run)) - 1) << width * run[0],
                         width * offset))
        live_bias = sum(1 << width * (f + 1) - 1 for f in range(len(live)))
        expansion = sum((live_bias & mask) << shift for mask, shift in runs)
        sigma = None
        if table._sigma is not None:
            live_q = sum(not above >> q & 1 for q, _, _ in table.orbit_pairs)
            sigma = _sigma_masks(width, table._sigma[0], live_q, len(live))
        return table._live.setdefault((width, cap), (
            _layout(table, width)[0], live_bias, expansion, tuple(runs), sigma))


def _onto_live(partials: dict, live: tuple) -> dict:
    """The partials (position -> records) with their keys re-packed onto
    the live fields; every other field of a key must be 0.  Empties
    partials as it goes, so that each list is freed once copied."""
    bias, live_bias, _, runs, _ = live
    out = {}
    for pos in list(partials):
        records = partials.pop(pos)
        moved = out[pos] = []
        for r in records:
            u = r[0] + bias
            key = -live_bias
            for mask, shift in runs:
                key += u >> shift & mask
            moved.append((key,) + r[1:])
    return out


def _from_live(acc: dict, live: tuple) -> dict:
    """The nonzero terms of acc, their keys expanded from the live fields
    back to the full layout."""
    _, live_bias, expansion, runs, _ = live
    out = {}
    for k, c in acc.items():
        if c:
            u = k + live_bias
            key = -expansion
            for mask, shift in runs:
                key += (u & mask) << shift
            out[key] = c
    return out


def _swapped(key: int, bias: int, sigma) -> int:
    """The key with each q_n field exchanged with its p_n field."""
    rest, qblock, pblock, shift = sigma
    u = key + bias
    return ((u & rest) | (u & qblock) << shift | (u & pblock) >> shift) - bias


def _decode(key: int, width: int) -> tuple:
    """Tuple monomial of a key: its nonzero fields as (position, exponent)."""
    mask, half = (1 << width) - 1, 1 << width - 1
    mono = []
    pos = 0
    while key:
        skip = ((key & -key).bit_length() - 1) // width  # zero fields
        key >>= width * skip
        pos += skip
        e = key & mask
        if e >= half:
            e -= mask + 1
        mono.append((pos, e))
        key = (key - e) >> width
        pos += 1
    return tuple(mono)


def _mono_info(table: VariableTable, mono, check: bool = False) -> tuple:
    """Record fields of a tuple monomial, past key and numerator; with
    ``check``, a monomial out of canonical form raises DeclarationError."""
    kinds, parity = table.kinds, table.parity
    pq = t_order = hb = odd = cross = support = 0
    for pos, e in mono:
        if check:
            if not (0 <= pos < len(kinds)) or support >> pos:
                raise DeclarationError(f"position {pos} out of range or out of order")
            if not e or (e < 0 and kinds[pos] not in _LAURENT_KINDS) or (
                    parity[pos] and e != 1):
                raise DeclarationError(
                    f"exponent {e} not allowed on {table.variables[pos].name}")
        support |= 1 << pos
        kind = kinds[pos]
        if kind == QORBIT or kind == PORBIT:
            pq += e
        elif kind == TFORM or kind == TCHECK:
            t_order += e
        elif kind == HBAR:
            hb += e
        if parity[pos]:
            odd |= 1 << pos
            cross ^= -1 << pos + 1  # every bit above pos
    return (pq, t_order, hb, odd, cross, support)


def _derived(table: VariableTable, record, pos: int, width: int, right: bool,
             n: int = 1) -> tuple:
    """Record of the derivative of record's term, which holds the q/p letter
    at pos, over n: the exponent e, read from the key, comes down, and the
    letter is commuted to the front (or, ``right``, the end), a sign per odd
    letter passed.  On a term carrying (d/dp)^(n-1)/(n-1)! this gives
    (d/dp)^n/n!: c*C(e, n-1) times the current exponent e-n+1 is
    c*C(e, n)*n, so the division is exact."""
    key, c, pq, t_order, hb, odd, cross, support = record
    bias = _layout(table, width)[0]
    e = ((key + bias) >> width * pos & (1 << width) - 1) - (1 << width - 1)
    c = c * e // n
    if table.parity[pos]:  # an odd letter, so e == 1
        if (odd >> pos + 1 if right else odd & (1 << pos) - 1).bit_count() & 1:
            c = -c
        odd ^= 1 << pos
        cross ^= -1 << pos + 1
    if e == 1:
        support ^= 1 << pos
    return (key - (1 << width * pos), c, pq - 1, t_order, hb, odd, cross, support)


class GradedSeries:
    """Finite sum of canonical monomials with nonzero rational coefficients.

    Immutable in value; arithmetic returns new series, and the one slot
    written later, ``_operand``, caches the bracket operand (see
    :meth:`_bracket_operand`).  Binary operations take the
    componentwise minimum of the operands' truncation policies and apply it
    to the result.  Stored packed (see the module docstring): ``num`` maps
    keys of ``width`` bits per field to numerators over ``den``, reduced,
    every |exponent| at most ``top`` < 2^(width-1).
    """

    __slots__ = ("table", "policy", "_num", "_den", "_width", "_top", "_operand")

    def __init__(self, table: VariableTable, policy: TruncationPolicy, num: dict,
                 den: int, width: int, top: int):
        self.table = table
        self.policy = policy
        self._num = num
        self._den = den
        self._width = width
        self._top = top
        self._operand = None  # see _bracket_operand

    def _at(self, width: int) -> dict:
        """The terms re-packed at a width at least the series' own."""
        if width == self._width:
            return self._num
        return {sum(e << width * pos for pos, e in _decode(key, self._width)): c
                for key, c in self._num.items()}

    def _records(self, width: int) -> list:
        table = self.table
        cache = _layout(table, width)[2]
        out = []
        for key, c in self._at(width).items():
            info = cache.get(key)
            if info is None:
                info = cache[key] = _mono_info(table, _decode(key, width))
            out.append((key, c) + info)
        return out

    def _bracket_operand(self, width: int, window: TruncationPolicy):
        """(parts, symmetric).  parts is [(odd, dq, dp)] per nonzero parity
        part: the :func:`_partials` of the part's records at width, cut to
        window.  symmetric says whether sigma: q <-> p fixes the series, on
        a table where sigma permutes key fields, and is None on any other.
        Cached for the last (width, window) asked, the invariance for good;
        the lists are never mutated, and two threads filling the slot at
        once store equal values."""
        cached = self._operand
        if cached is not None and cached[0] == width and cached[1] == window:
            return cached[2], cached[3]
        split = ([], [])
        for r in self._records(width):
            split[r[5].bit_count() & 1].append(r)
        parts = [(odd, *_partials(self.table, records, window, width))
                 for odd, records in enumerate(split) if records]
        if self.table.above(window.max_cover):  # dead fields: live keys
            live = _live(self.table, width, window.max_cover)
            parts = [(odd, _onto_live(dq, live), _onto_live(dp, live))
                     for odd, dq, dp in parts]
        if cached is not None:
            symmetric = cached[3]
        elif self.table._sigma is None:
            symmetric = None
        else:
            bias, _, _, sigma = _layout(self.table, self._width)
            symmetric = all(self._num.get(_swapped(k, bias, sigma)) == c
                            for k, c in self._num.items())
        self._operand = (width, window, parts, symmetric)
        return parts, symmetric

    def _like(self, num: dict, den: int = None, policy=None) -> "GradedSeries":
        """A series of num (keys of self's width) over den, reduced."""
        return _reduced(self.table, policy or self.policy, num,
                        self._den if den is None else den, self._width, self._top)

    # -- basic protocol --------------------------------------------------

    @property
    def terms(self):
        """Read-only {tuple monomial: Fraction} view, decoded on access."""
        return MappingProxyType({_decode(k, self._width): Fraction(c, self._den)
                                 for k, c in self._num.items()})

    def is_zero(self) -> bool:
        return not self._num

    def __eq__(self, other):
        if not isinstance(other, GradedSeries):
            return NotImplemented
        if (self.table is not other.table or self._den != other._den
                or len(self._num) != len(other._num)):
            return False
        width = max(self._width, other._width)
        return self._at(width) == other._at(width)

    def __hash__(self):
        return hash((id(self.table), frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self._num)

    def _join(self, other) -> TruncationPolicy:
        if not isinstance(other, GradedSeries):
            raise TableMismatchError(f"expected GradedSeries, got {type(other).__name__}")
        if other.table is not self.table:
            raise TableMismatchError("series over different variable tables")
        return self.policy.cap(other.policy)

    # -- linear structure -------------------------------------------------

    def _combine(self, other, sign: int) -> "GradedSeries":
        """self + sign * other, truncated to the joint policy."""
        policy = self._join(other)
        a = self if self.policy == policy else self.truncate(policy)
        b = other if other.policy == policy else other.truncate(policy)
        width = max(a._width, b._width)
        g = gcd(a._den, b._den)
        m1, m2 = b._den // g, a._den // g * sign
        num = {k: c * m1 for k, c in a._at(width).items()}
        get = num.get
        for k, c in b._at(width).items():
            s = get(k, 0) + c * m2
            if s:
                num[k] = s
            else:
                del num[k]
        return _reduced(self.table, policy, num, a._den * m1, width, max(a._top, b._top))

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, coeff) -> "GradedSeries":
        c = Fraction(coeff)
        return self._like({k: v * c.numerator for k, v in self._num.items()} if c else {},
                          self._den * c.denominator)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    # -- multiplication ----------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        policy = self._join(other)
        top = self._top + other._top
        width = _common_width(self, other, top)
        # q/p exponents are never negative: over the cover cap stays over
        above = self.table.above(policy.max_cover)
        acc = _mul_terms({}, [r for r in self._records(width) if not r[7] & above],
                         [r for r in other._records(width) if not r[7] & above],
                         policy, 1)
        return _reduced(self.table, policy, acc, self._den * other._den, width, top)

    # -- grading and calculus ---------------------------------------------------

    def parity_parts(self):
        """(even part, odd part): split by the popcount of the odd letters."""
        bias, odd_fields, *_ = _layout(self.table, self._width)
        even, odd = parts = ({}, {})
        for k, c in self._num.items():
            parts[((k + bias) & odd_fields).bit_count() & 1][k] = c
        if not odd:
            return self, self._like(odd)
        if not even:
            return self._like(even), self
        return self._like(even), self._like(odd)

    def derivative(self, name: str) -> "GradedSeries":
        """Left super-derivation by one variable: the key drops by one in its
        field, times the exponent, and a sign per odd letter before it.  A
        Laurent exponent may fall past the width: the bound grows by one."""
        table = self.table
        pos = table.position(name)
        top = self._top + (table.kinds[pos] in _LAURENT_KINDS)
        width = self._width if top < 1 << self._width - 1 else _width_for(top)
        bias, odd_fields, *_ = _layout(table, width)
        shift = width * pos
        unit, mask, half = 1 << shift, (1 << width) - 1, 1 << width - 1
        passed = odd_fields & unit - 1 if table.parity[pos] else 0
        out = {}
        for k, c in self._at(width).items():
            u = k + bias
            e = (u >> shift & mask) - half
            if e:
                out[k - unit] = -c if (u & passed).bit_count() & 1 else c * e
        return _reduced(table, self.policy, out, self._den, width, top)

    def truncate(self, policy: TruncationPolicy) -> "GradedSeries":
        return self._like({r[0]: r[1] for r in self._records(self._width)
                           if policy.admits(self.table, r[2:])}, policy=policy)

    def coefficient(self, factors: dict) -> Fraction:
        mono = [(self.table.position(n), e) for n, e in factors.items() if e]
        if any(abs(e) >> self._width - 1 for _, e in mono):
            return Fraction(0)  # wider than any stored exponent
        key = sum(e << self._width * pos for pos, e in mono)
        return Fraction(self._num.get(key, 0), self._den)

    def map_terms(self, fn) -> "GradedSeries":
        """Scale each term by fn(mono) (a rational); drops zeros."""
        scaled = {}
        for k, c in self._num.items():
            s = fn(_decode(k, self._width))
            if s:
                scaled[k] = (c * s.numerator, s.denominator)
        den = lcm(*(d for _, d in scaled.values()))
        return self._like({k: n * (den // d) for k, (n, d) in scaled.items()},
                          self._den * den)

    # -- presentation ----------------------------------------------------------

    def sorted_terms(self):
        """Terms in the canonical graded-lexicographic order (deterministic)."""
        return sorted(self.terms.items(),
                      key=lambda kv: (mono_degree(self.table, kv[0]), kv[0]))

    def __str__(self):
        if not self._num:
            return "0"
        names = [v.name for v in self.table.variables]
        chunks = [str(c) + "".join(f"*{names[p]}" + (f"^{e}" if e != 1 else "")
                                   for p, e in m) for m, c in self.sorted_terms()]
        return " + ".join(chunks).replace("+ -", "- ")

    __repr__ = __str__


def _reduced(table, policy, num: dict, den: int, width: int, top: int) -> GradedSeries:
    """Series of the nonzero terms of num over den, in lowest terms."""
    if not all(num.values()):
        num = {k: c for k, c in num.items() if c}
    if den != 1:
        g = gcd(den, *num.values())  # den itself when num is empty
        if g != 1:
            den //= g
            num = {k: c // g for k, c in num.items()}
    return GradedSeries(table, policy, num, den, width, top)


def _common_width(f: GradedSeries, g: GradedSeries, top: int) -> int:
    """Key width for a result of f and g with exponents up to top."""
    width = max(f._width, g._width)
    return width if top < 1 << width - 1 else _width_for(top)


# -- the kernel -----------------------------------------------------------------------


def _mul_packed(acc: dict, records1: list, records2: list,
                policy: TruncationPolicy, factor: int):
    """acc[key] += factor * c1 * c2 (Koszul-signed) over the products in policy.

    Every record must already lie within the cover cap of policy.  The pq,
    t and hbar caps are integer compares against the budget the first
    operand leaves.  Two operands sharing an odd letter multiply to zero.
    The largest pq-order, t-order and hbar exponent of records2 are taken
    once: a row of records1 with no odd letter, whose budget all three
    fit, forms each of its products with no cap, zero or sign check (none
    can fail, and every sign is +1).  Every other row checks each pair.
    """
    if not records2:
        return
    get = acc.get
    keys2, nums2, pq2s, t2s, h2s, *_ = zip(*records2)
    pq_top, t_top, h_top = max(pq2s), max(t2s), max(h2s)
    for k1, c1, pq1, t1, h1, o1, _, _ in records1:
        pq_left = policy.max_pq_order - pq1
        t_left = policy.max_t_order - t1
        if pq_left < 0 or t_left < 0:
            continue
        h_left = policy.max_hbar_order - h1
        c1 *= factor
        if not o1 and pq_top <= pq_left and t_top <= t_left and h_top <= h_left:
            for k2, c2 in zip(keys2, nums2):
                key = k1 + k2
                acc[key] = get(key, 0) + c1 * c2
            continue
        for k2, c2, pq2, t2, h2, o2, cross2, _ in records2:
            if pq2 > pq_left or t2 > t_left or h2 > h_left or o1 & o2:
                continue
            key = k1 + k2
            c = c1 * c2
            if o1 & cross2 and (o1 & cross2).bit_count() & 1:
                c = -c
            acc[key] = get(key, 0) + c


def _mul_terms(acc: dict, records1: list, records2: list,
               policy: TruncationPolicy, factor: int) -> dict:
    """acc plus factor * records1 * records2 within policy; returns acc.
    Every record must lie within the cover cap of policy."""
    if factor:
        _mul_packed(acc, records1, records2, policy, factor)
    return acc


# -- brackets ------------------------------------------------------------------


def poisson_bracket(f: GradedSeries, g: GradedSeries,
                    policy: Optional[TruncationPolicy] = None) -> GradedSeries:
    """{f,g} = sum_orbits kappa*(df/dp dg/dq - (-1)^{|f||g|} dg/dp df/dq).

    The p-slots differentiate from the right and the q-slots from the left:
    the convention of the first-order term of the normal-ordered star
    product, under which graded antisymmetry and the graded Jacobi identity
    hold exactly.  Inputs are split into parity parts, which is all the
    sign depends on.

    The result is the full bracket truncated to ``f._join(g).cap(policy)``
    (the joint policy when ``policy`` is None), term for term, and only
    that window is formed: a derivative term over the cover, pq-order or
    t-order cap is dropped before any product.  Those caps are monotone
    under multiplication (q, p, t and t-check exponents are never
    negative), and only the paired variable, which differentiation
    removes, may lie outside the window.  The hbar cap is applied to the
    products only: hbar is Laurent.

    Each operand's parity split and partials are cached on the series,
    keyed by the key width and the window (see
    :meth:`GradedSeries._bracket_operand`); another key recomputes them
    and replaces the cache.  The cached lists are never mutated, so two
    threads that fill the slot at once each store an equal value, and the
    one kept does not matter.

    Half the products suffice when sigma: q_n <-> p_n fixes f and g, the
    table has no odd variable and every q has its p partner: then
    {f,g} = A - sigma(A), A = sum_n kappa_n df/dp_n dg/dq_n.  This is
    exact: with every letter even, sigma is an automorphism taking df/dp_n
    to d(sigma f)/dq_n = df/dq_n, so sigma(A) is the second sum, and the
    window is sigma-symmetric, because its cover, pq-order, t-order and
    hbar caps treat q_n and p_n alike.  The decision is taken from the
    input alone.  The table's sigma masks are computed once per width and
    each series' invariance once, with its operand; any other input takes
    the two-sum loop.

    Live keys: when the window's cover cap is below some q/p cover of the
    table (``table.above(cap)`` is nonzero, as on the extended lattice of
    :func:`sftlab.hierarchy.commutator_residuals`), no cut partial holds
    those fields.  The cached partials then carry keys re-packed onto the
    live fields, both loops (and sigma, which swaps the live q block with
    the live p block) run on them, and the result's nonzero keys are
    expanded once, before reduction.  A window with no dead field costs
    one cached mask test and keeps the full keys.
    """
    window = f._join(g) if policy is None else f._join(g).cap(policy)
    table = f.table
    top = f._top + g._top
    width = _common_width(f, g, top)
    fparts, fsym = f._bracket_operand(width, window)
    gparts, gsym = g._bracket_operand(width, window)
    live = (_live(table, width, window.max_cover)
            if table.above(window.max_cover) else None)
    acc: dict = {}
    if fsym and gsym and fparts and gparts:  # one even part each: A - sigma(A)
        (_, _, fdp), (_, gdq, _) = fparts[0], gparts[0]
        for qpos, ppos, kappa in table.orbit_pairs:
            if ppos in fdp and qpos in gdq:
                _mul_packed(acc, fdp[ppos], gdq[qpos], window, kappa)
        if live:
            bias, sigma = live[1], live[4]
        else:
            bias, _, _, sigma = _layout(table, width)
        get = acc.get
        out = {}
        for k, c in acc.items():
            s = _swapped(k, bias, sigma)
            c -= get(s, 0)
            if c:
                out[k] = c
                if s not in acc:
                    out[s] = -c
        acc = out
    else:
        for fodd, fdq, fdp in fparts:
            for godd, gdq, gdp in gparts:
                sgn = -1 if (fodd and godd) else 1
                for qpos, ppos, kappa in table.orbit_pairs:
                    if ppos in fdp and qpos in gdq:
                        _mul_packed(acc, fdp[ppos], gdq[qpos], window, kappa)
                    if ppos in gdp and qpos in fdq:
                        _mul_packed(acc, gdp[ppos], fdq[qpos], window, -sgn * kappa)
    if live:
        acc = _from_live(acc, live)
    return _reduced(table, window, acc, f._den * g._den, width, top)


def _partials(table: VariableTable, records: list, policy: TruncationPolicy,
              width: int):
    """All q- and p-derivatives of a record list, in one pass.

    Returns (dq, dp), each mapping a variable position to the records of
    the derivative (see :func:`_derived`): d/dq from the left, d/dp from
    the right.  Terms over the cover, pq-order or t-order cap of ``policy``
    are left out (see :func:`poisson_bracket`).  Differentiation by one
    variable is injective on keys, so each derivative key comes from
    exactly one record.
    """
    kinds = table.kinds
    above = table.above(policy.max_cover)
    dq: dict = {}
    dp: dict = {}
    for record in records:
        pq, t_order, support = record[2], record[3], record[7]
        if t_order > policy.max_t_order or pq > policy.max_pq_order + 1:
            continue
        letters = support & above  # only one, at exponent 1, may go
        if letters & (letters - 1):
            continue
        letters = letters or support & table.qp_mask
        while letters:
            low = letters & -letters
            letters ^= low
            pos = low.bit_length() - 1
            d = _derived(table, record, pos, width, kinds[pos] == PORBIT)
            if not d[7] & above:
                (dq if kinds[pos] == QORBIT else dp).setdefault(pos, []).append(d)
    return dq, dp


# -- star product ----------------------------------------------------------------


def _wick(acc: dict, table: VariableTable, f_records: list, g_records: list,
          policy: TruncationPolicy, width: int, factor: int):
    """acc[key] += factor * (f*g) over policy, for records of f and g.

    f*g = sum_alpha hbar^|alpha| prod_o kappa_o^alpha_o
          ((d/dp)^alpha / alpha!)^R f  ((d/dq)^alpha)^L g,
    alpha running over multi-indices on the orbits (q/p pairs), the sides
    differentiated as in :func:`poisson_bracket`.  The multi-indices are
    visited depth first with non-decreasing orbit index, so each is reached
    once; the divided power (d/dp)^n / n! takes one derivative step (see
    :func:`_derived`) and divides by n at each node, which is exact.  Each
    node multiplies its two parts with the f side shifted by hbar^|alpha| in
    the key (``width`` leaves room, see :func:`_star_operands`); terms over
    the cover cap are left out.
    """
    if not f_records or not g_records:
        return
    pairs = table.orbit_pairs
    hbar = table.kinds.index(HBAR) if HBAR in table.kinds else None
    above = table.above(policy.max_cover)

    def visit(fd, gd, start, run, order, weight):
        shift = order << width * hbar if order else 0
        frec = [(k + shift, c, pq, t, hb + order, o, x, s)
                for k, c, pq, t, hb, o, x, s in fd if not s & above]
        grec = [r for r in gd if not r[7] & above]
        _mul_packed(acc, frec, grec, policy, factor * weight)
        for i in range(start, len(pairs)):
            qpos, ppos, kappa = pairs[i]
            n = run + 1 if i == start else 1  # alpha_i after this step
            fd2 = [_derived(table, r, ppos, width, True, n)
                   for r in fd if r[7] >> ppos & 1]
            gd2 = [_derived(table, r, qpos, width, False)
                   for r in gd if r[7] >> qpos & 1] if fd2 else None
            if gd2:
                if hbar is None:
                    raise DeclarationError(
                        "star product needs an hbar variable in the table")
                visit(fd2, gd2, i, n, order + 1, weight * kappa)

    visit(f_records, g_records, 0, 0, 0, 1)


def _star_operands(f: GradedSeries, g: GradedSeries):
    """(records of f, records of g, width, exponent bound) for f*g and g*f:
    a Wick term carries hbar^|alpha| on top, |alpha| at most the pq-order
    of a term of either operand."""
    top = f._top + g._top
    width = _common_width(f, g, top)
    frec, grec = f._records(width), g._records(width)
    alpha = min(max((r[2] for r in frec), default=0),
                max((r[2] for r in grec), default=0))
    if alpha and top + alpha >= 1 << width - 1:
        width = _width_for(top + alpha)
        frec, grec = f._records(width), g._records(width)
    return frec, grec, width, top + alpha


def star_product(f: GradedSeries, g: GradedSeries) -> GradedSeries:
    """Associative normal-ordered product with [p,q] = kappa*hbar per orbit.

    The Wick formula (see :func:`_wick`) on the packed kernel: the divided
    powers are integers, so the terms stay numerators over the operands'
    denominators.  Raises DeclarationError when a contraction is needed (f
    has a p and g a q of one orbit) and the table has no hbar.
    """
    policy = f._join(g)
    frec, grec, width, top = _star_operands(f, g)
    acc: dict = {}
    _wick(acc, f.table, frec, grec, policy, width, 1)
    return _reduced(f.table, policy, acc, f._den * g._den, width, top)


def weyl_commutator(f: GradedSeries, g: GradedSeries) -> GradedSeries:
    """f*g - (-1)^{|f||g|} g*f in the star product; divisible by hbar.

    Both products are formed in full, alpha = 0 included, into one
    accumulator, so the cancellation of the hbar-free part is computed, not
    assumed: [f,g] = f*g - g_even*f - g_odd*f', f' = f with odd terms negated.
    """
    policy = f._join(g)
    table = f.table
    frec, grec, width, top = _star_operands(f, g)
    g_even = [r for r in grec if not r[5].bit_count() & 1]
    g_odd = [r for r in grec if r[5].bit_count() & 1]
    f_flip = [(r[0], -r[1]) + r[2:] if r[5].bit_count() & 1 else r for r in frec]
    acc: dict = {}
    _wick(acc, table, frec, grec, policy, width, 1)
    _wick(acc, table, g_even, frec, policy, width, -1)
    _wick(acc, table, g_odd, f_flip, policy, width, -1)
    return _reduced(table, policy, acc, f._den * g._den, width, top)
