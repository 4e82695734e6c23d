"""Sparse exact-arithmetic core for graded super-commutative series.

Elements are finite sums of monomials in formal variables of six kinds:
orbit variables q, p (carrying a multiplicity kappa), descendant variables
t and their constrained partners t-check, curve-class variables z, and the
loop-counting variable hbar.  Coefficients are exact rationals.  All
variables super-commute according to the parity of their integer degree;
the only non-commutative structure is the star product of
:func:`star_product`, in which [p,q] = kappa*hbar for the q/p pair of each
orbit.

Monomials are stored in a canonical factor order (hbar, z, t, t-check, q,
p; ties broken by declared indices).  Placing every q before every p makes
canonical monomials normal-ordered for the star product by construction.
Signs are the Koszul signs of sorting words of odd letters.  The star
product of two normal-ordered series is then given by the Wick formula:
the sum, over every way of contracting letters p of the left factor with
letters q of the same orbit in the right factor, of kappa*hbar per
contraction times the super-commutative product of what is left, which is
a sum of products of derivatives (see :func:`_wick`).

Products and Poisson brackets run through one packed-monomial kernel
(Kronecker substitution, after Monagan & Pearce).  Inside it a term is a
record: an int key holding the exponent of table position i in bits
[w*i, w*(i+1)), an integer numerator over one common denominator per
operand, the term's pq-order, t-order and hbar exponent, a bitmask of its
odd letters and its largest q/p cover.  Multiplying monomials is adding
keys; a cap check is an integer compare against what the first factor
leaves of the budget; two factors sharing an odd letter give zero
(``odd1 & odd2``); the Koszul sign is the parity of the number of pairs
(a, b) with a an odd letter of the first factor, b one of the second and
a > b.  The fields are balanced (signed two's-complement digits), so the
negative exponents of Laurent hbar and z need no offset and adding keys
adds exponents field by field.  The width w is chosen per call from the
operands' largest absolute exponents a and b: w = (a+b).bit_length() + 1
bits hold every exponent sum in [-(a+b), a+b], so no field can carry into
the next.  Keys become tuple monomials, and numerators Fractions, only
once per surviving output term.  Star products
(:func:`_wick`) run through the same kernel, their width widened by the
largest hbar shift.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
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


def orbit_variable_pair(orbit, cover=1, cz=0, half_dim=1, multiplicity=None,
                        name_q=None, name_p=None):
    """q/p pair for a closed orbit: |q| = m-3+CZ, |p| = m-3-CZ (m = half_dim)."""
    kappa = cover if multiplicity is None else multiplicity
    nq = name_q or f"q[{orbit},{cover}]"
    np_ = name_p or f"p[{orbit},{cover}]"
    return (
        Variable(nq, QORBIT, (str(orbit), cover), half_dim - 3 + cz, kappa),
        Variable(np_, PORBIT, (str(orbit), cover), half_dim - 3 - cz, kappa),
    )


def descendant_variable(class_id, level, class_degree, checked=False,
                        check_degree_offset=-1):
    """t (or t-check) variable of degree 2(1-level) - class degree.

    Constrained variables sit one degree lower by default, which is the
    convention making the swap operator odd and dressed differentials
    degree-homogeneous.  The offset is configurable.
    """
    deg = 2 * (1 - level) - class_degree
    if checked:
        return Variable(f"tc[{class_id},{level}]", TCHECK, (str(class_id), level),
                        deg + check_degree_offset)
    return Variable(f"t[{class_id},{level}]", TFORM, (str(class_id), level), deg)


def curve_class_variable(position, chern):
    """z variable of degree -2*c1 for one curve-class basis element."""
    return Variable(f"z{position}", ZCLASS, (position,), -2 * chern)


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

    def position(self, name: str) -> int:
        try:
            return self._pos[name]
        except KeyError:
            raise DeclarationError(f"unknown variable {name!r}") from None

    def variable(self, name: str) -> Variable:
        return self.variables[self.position(name)]

    def names(self):
        return [v.name for v in self.variables]

    def __len__(self):
        return len(self.variables)

    # -- series constructors -------------------------------------------------

    def zero(self, policy: TruncationPolicy = DEFAULT_POLICY) -> "GradedSeries":
        return GradedSeries(self, {}, policy)

    def one(self, policy: TruncationPolicy = DEFAULT_POLICY) -> "GradedSeries":
        return GradedSeries(self, {(): Fraction(1)}, policy)

    def unit(self, coeff, policy: TruncationPolicy = DEFAULT_POLICY) -> "GradedSeries":
        c = Fraction(coeff)
        return GradedSeries(self, {(): c} if c else {}, policy)

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
        out = {}
        for mono, coeff in terms.items():
            c = Fraction(coeff)
            if not c:
                continue
            self._check_mono(mono)
            if _allowed(self, mono, policy):
                out[mono] = out.get(mono, Fraction(0)) + c
        return GradedSeries(self, {m: c for m, c in out.items() if c}, policy)

    def _check_mono(self, mono):
        last = -1
        for pos, exp in mono:
            if not (0 <= pos < len(self.variables)):
                raise DeclarationError(f"variable position {pos} out of range")
            if pos <= last:
                raise DeclarationError("monomial factors out of canonical order")
            last = pos
            if exp == 0:
                raise DeclarationError("zero exponent stored")
            if exp < 0 and self.kinds[pos] not in _LAURENT_KINDS:
                raise DeclarationError(
                    f"negative exponent on non-Laurent variable {self.variables[pos].name}")
            if self.parity[pos] and exp != 1:
                raise DeclarationError(
                    f"odd variable {self.variables[pos].name} with exponent {exp}")


# -- monomial helpers ---------------------------------------------------------


def mono_degree(table: VariableTable, mono) -> int:
    return sum(table.degrees[p] * e for p, e in mono)


def mono_parity(table: VariableTable, mono) -> int:
    return sum(table.degrees[p] * e for p, e in mono) % 2


def mono_t_order(table: VariableTable, mono) -> int:
    return sum(e for p, e in mono if table.kinds[p] in (TFORM, TCHECK))


def mono_hbar_order(table: VariableTable, mono) -> int:
    return sum(e for p, e in mono if table.kinds[p] == HBAR)


def _allowed(table: VariableTable, mono, policy: TruncationPolicy) -> bool:
    t_order = pq = hb = 0
    for pos, exp in mono:
        kind = table.kinds[pos]
        if kind in (TFORM, TCHECK):
            t_order += exp
        elif kind in (QORBIT, PORBIT):
            pq += exp
            if table.covers[pos] > policy.max_cover:
                return False
        elif kind == HBAR:
            hb += exp
    return (t_order <= policy.max_t_order and pq <= policy.max_pq_order
            and hb <= policy.max_hbar_order)


def _mono_str(table: VariableTable, mono) -> str:
    if not mono:
        return "1"
    return "*".join(
        table.variables[p].name + (f"^{e}" if e != 1 else "") for p, e in mono)


class GradedSeries:
    """Finite sum of canonical monomials with nonzero rational coefficients.

    Immutable; arithmetic returns new series.  Binary operations take the
    componentwise minimum of the operands' truncation policies and apply it
    to the result.
    """

    __slots__ = ("table", "terms", "policy")

    def __init__(self, table: VariableTable, terms: dict, policy: TruncationPolicy):
        self.table = table
        self.terms = terms
        self.policy = policy

    # -- basic protocol --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, GradedSeries):
            return NotImplemented
        return self.table is other.table and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.table), frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def _join(self, other) -> TruncationPolicy:
        if not isinstance(other, GradedSeries):
            raise TableMismatchError(f"expected GradedSeries, got {type(other).__name__}")
        if other.table is not self.table:
            raise TableMismatchError("series over different variable tables")
        return self.policy.cap(other.policy)

    # -- linear structure -------------------------------------------------

    def __add__(self, other):
        policy = self._join(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, Fraction(0)) + c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        terms = {m: c for m, c in terms.items() if _allowed(self.table, m, policy)}
        return GradedSeries(self.table, terms, policy)

    def __neg__(self):
        return GradedSeries(self.table, {m: -c for m, c in self.terms.items()}, self.policy)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, coeff) -> "GradedSeries":
        c = Fraction(coeff)
        if not c:
            return GradedSeries(self.table, {}, self.policy)
        return GradedSeries(self.table, {m: c * v for m, v in self.terms.items()}, self.policy)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    # -- multiplication ----------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        policy = self._join(other)
        out = _mul_terms(self.table, self.terms, other.terms, policy, Fraction(1))
        return GradedSeries(self.table, out, policy)

    # -- grading ------------------------------------------------------------

    def degree(self) -> Optional[int]:
        """Common total degree of all terms, or None if mixed or zero."""
        degs = {mono_degree(self.table, m) for m in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def parity_parts(self):
        """(even part, odd part)."""
        ev, od = {}, {}
        for m, c in self.terms.items():
            (od if mono_parity(self.table, m) else ev)[m] = c
        return (GradedSeries(self.table, ev, self.policy),
                GradedSeries(self.table, od, self.policy))

    # -- calculus -------------------------------------------------------------

    def derivative(self, name: str) -> "GradedSeries":
        """Left super-derivation by one variable.

        The variable is commuted to the front of the monomial, collecting
        (-1) per odd letter passed, then stripped.  For even variables the
        exponent falls by one and multiplies the coefficient.
        """
        table = self.table
        pos = table.position(name)
        odd_v = table.parity[pos]
        out = {}
        for mono, coeff in self.terms.items():
            sign = 1
            new = None
            for k, (p, e) in enumerate(mono):
                if p == pos:
                    if odd_v:
                        passed = sum(1 for q, _ in mono[:k] if table.parity[q])
                        sign = -1 if passed % 2 else 1
                    c = coeff * e * sign
                    if e == 1:
                        new = mono[:k] + mono[k + 1:]
                    else:
                        new = mono[:k] + ((p, e - 1),) + mono[k + 1:]
                    break
                if p > pos:
                    break
            if new is None:
                continue
            s = out.get(new, Fraction(0)) + c
            if s:
                out[new] = s
            else:
                out.pop(new, None)
        return GradedSeries(table, out, self.policy)

    def truncate(self, policy: TruncationPolicy) -> "GradedSeries":
        terms = {m: c for m, c in self.terms.items() if _allowed(self.table, m, policy)}
        return GradedSeries(self.table, terms, policy)

    def coefficient(self, factors: dict) -> Fraction:
        mono = tuple(sorted((self.table.position(n), e) for n, e in factors.items() if e))
        return self.terms.get(mono, Fraction(0))

    def map_terms(self, fn) -> "GradedSeries":
        """Scale each term by fn(mono) (a rational); drops zeros."""
        out = {}
        for m, c in self.terms.items():
            s = c * fn(m)
            if s:
                out[m] = s
        return GradedSeries(self.table, out, self.policy)

    # -- presentation ----------------------------------------------------------

    def sorted_terms(self):
        """Terms in the canonical graded-lexicographic order (deterministic)."""
        return sorted(self.terms.items(),
                      key=lambda kv: (mono_degree(self.table, kv[0]), kv[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for m, c in self.sorted_terms():
            cs = str(c)
            chunks.append(f"{cs}*{_mono_str(self.table, m)}" if m else cs)
        return " + ".join(chunks).replace("+ -", "- ")

    __repr__ = __str__


# -- packed-monomial kernel ------------------------------------------------------
#
# A packed record is (key, numerator, pq-order, t-order, hbar exponent, odd
# mask, cross mask, largest q/p cover); see the module docstring.  The cross
# mask is the XOR, over the record's odd letters b, of the mask of every bit
# above b.  Parity of a count is linear, so popcount(odd1 & cross2) has the
# parity of the number of pairs (a, b), a an odd letter of the first factor
# above b an odd letter of the second: the Koszul sign of the product.

_COVER = 7  # index of the largest q/p cover in a packed record


def _lcm_denominator(terms) -> int:
    d = 1
    for c in terms.values():
        cd = c.denominator
        if cd != 1:
            g = gcd(d, cd)
            d = d // g * cd
    return d


def _field_width(terms1, terms2, shift: int = 0) -> int:
    """Bits per exponent field for products of terms1 by terms2.

    Every exponent of a product is a sum of one exponent of each operand,
    so its absolute value is at most a + b (the operands' largest absolute
    exponents), which fits a balanced field of (a + b).bit_length() + 1
    bits: no sum of keys can carry out of a field.  ``shift`` bounds any
    further exponent added to a field (the hbar of a star product).
    """
    a = max((abs(e) for mono in terms1 for _, e in mono), default=0)
    b = max((abs(e) for mono in terms2 for _, e in mono), default=0)
    return (a + b + shift).bit_length() + 1


def _numerators(terms: dict, den: int) -> dict:
    """Coefficients times den, as ints; den is a multiple of every denominator."""
    return {m: c.numerator * (den // c.denominator) for m, c in terms.items()}


def _pack(table: VariableTable, terms: dict, width: int) -> list:
    """Packed records of terms with integer coefficients."""
    kinds, parity, covers = table.kinds, table.parity, table.covers
    records = []
    for mono, c in terms.items():
        key = pq = t_order = hb = odd = cross = cover = 0
        for pos, e in mono:
            key += e << width * pos
            kind = kinds[pos]
            if kind == QORBIT or kind == PORBIT:
                pq += e
                if covers[pos] > cover:
                    cover = covers[pos]
            elif kind == TFORM or kind == TCHECK:
                t_order += e
            elif kind == HBAR:
                hb += e
            if parity[pos]:
                odd |= 1 << pos
                cross ^= -1 << pos + 1  # every bit above pos
        records.append((key, c, pq, t_order, hb, odd, cross, cover))
    return records


def _mul_packed(acc: dict, records1: list, records2: list,
                policy: TruncationPolicy, factor: int):
    """acc[key] += factor * c1 * c2 (Koszul-signed) over the products in policy.

    Every record must already lie within the cover cap of policy.  The pq,
    t and hbar caps are integer compares against the budget the first
    operand leaves.  Two operands sharing an odd letter multiply to zero.
    """
    get = acc.get
    for k1, c1, pq1, t1, h1, o1, _, _ in records1:
        pq_left = policy.max_pq_order - pq1
        t_left = policy.max_t_order - t1
        if pq_left < 0 or t_left < 0:
            continue
        h_left = policy.max_hbar_order - h1
        c1 *= factor
        for k2, c2, pq2, t2, h2, o2, cross2, _ in records2:
            if pq2 > pq_left or t2 > t_left or h2 > h_left or o1 & o2:
                continue
            key = k1 + k2
            c = c1 * c2
            if o1 & cross2 and (o1 & cross2).bit_count() & 1:
                c = -c
            acc[key] = get(key, 0) + c


def _unpack(acc: dict, width: int, den: int) -> dict:
    """Tuple monomials and coefficient/den of the nonzero accumulated terms."""
    mask, half, base = (1 << width) - 1, 1 << width - 1, 1 << width
    out = {}
    for key, c in acc.items():
        if not c:
            continue
        mono = []
        pos = 0
        while key:
            e = key & mask
            if e >= half:
                e -= base
            if e:
                mono.append((pos, e))
            key = (key - e) >> width
            pos += 1
        out[tuple(mono)] = Fraction(c, den)
    return out


def _mul_terms(table, terms1, terms2, policy, factor: Fraction) -> dict:
    """factor * terms1 * terms2, truncated to policy, through the packed kernel."""
    if not terms1 or not terms2 or not factor:
        return {}
    width = _field_width(terms1, terms2)
    d1, d2 = _lcm_denominator(terms1), _lcm_denominator(terms2)

    def packed(terms, den):
        # q/p exponents are never negative, so an operand term over the
        # cover cap has no product inside it
        return [r for r in _pack(table, _numerators(terms, den), width)
                if r[_COVER] <= policy.max_cover]

    acc: dict = {}
    _mul_packed(acc, packed(terms1, d1), packed(terms2, d2), policy,
                factor.numerator)
    return _unpack(acc, width, d1 * d2 * factor.denominator)


# -- brackets ------------------------------------------------------------------


def right_derivative(f: GradedSeries, name: str) -> GradedSeries:
    """Right super-derivation: the variable is commuted to the end.

    Related to the left derivation by (-1)^{|v|(|f|+1)} on parity-homogeneous
    f; they agree for even variables.
    """
    if not f.table.variable(name).odd:
        return f.derivative(name)
    even, odd = f.parity_parts()
    return odd.derivative(name) - even.derivative(name)


def poisson_bracket(f: GradedSeries, g: GradedSeries,
                    policy: Optional[TruncationPolicy] = None) -> GradedSeries:
    """{f,g} = sum_orbits kappa*(df/dp dg/dq - (-1)^{|f||g|} dg/dp df/dq).

    The p-slots differentiate from the right and the q-slots from the left:
    this is the convention matching the first-order term of the
    normal-ordered star product, and the one under which graded
    antisymmetry and the graded Jacobi identity hold exactly (both agree
    with the naive reading whenever the orbit variables are even).
    Non-homogeneous inputs are split into parity components, which is all
    the sign depends on.

    The result is truncated to ``f._join(g).cap(policy)`` (the operands'
    joint policy when ``policy`` is None) and equals the full bracket
    truncated to that policy, term for term.  Only the output window is
    ever formed: a partial derivative monomial that breaks the cover,
    pq-order or t-order cap is dropped before any product is taken.  Those
    caps are monotone under multiplication (q, p, t and t-check exponents
    are never negative, so a product has every factor of its operands,
    at exponents at least as large), hence no product of a dropped monomial
    lies in the window.  Only the paired variable of each term may lie
    outside the window, because differentiation removes it.  The hbar cap
    is applied to products only: hbar exponents may be negative, so a
    factor above the cap can pair with one below zero and land inside.
    """
    window = f._join(g) if policy is None else f._join(g).cap(policy)
    table = f.table
    width = _field_width(f.terms, g.terms)
    # differentiation multiplies by an integer, so one denominator per
    # operand serves all its partials, taken on integer numerators
    fden, gden = _lcm_denominator(f.terms), _lcm_denominator(g.terms)

    def packed_partials(h, den):
        out = []
        for odd, part in enumerate(h.parity_parts()):
            if part:
                dq, dp = _partials(table, _numerators(part.terms, den), odd, window)
                out.append((odd,
                            {pos: _pack(table, t, width) for pos, t in dq.items()},
                            {pos: _pack(table, t, width) for pos, t in dp.items()}))
        return out

    fparts, gparts = packed_partials(f, fden), packed_partials(g, gden)
    acc: dict = {}
    for fodd, fdq, fdp in fparts:
        for godd, gdq, gdp in gparts:
            sgn = -1 if (fodd and godd) else 1
            for qpos, ppos, kappa in table.orbit_pairs:
                if ppos in fdp and qpos in gdq:
                    _mul_packed(acc, fdp[ppos], gdq[qpos], window, kappa)
                if ppos in gdp and qpos in fdq:
                    _mul_packed(acc, gdp[ppos], fdq[qpos], window, -sgn * kappa)
    return GradedSeries(table, _unpack(acc, width, fden * gden), window)


def _partials(table: VariableTable, terms: dict, odd: int,
              policy: TruncationPolicy):
    """All q- and p-derivatives of one parity part, in one pass over it.

    Returns (dq, dp), each mapping a variable position to the terms of the
    derivative: d/dq from the left, d/dp from the right.  Coefficients may
    be Fractions or ints; they are only multiplied by ints.  On a part of
    parity ``odd`` the right derivative is the left one times
    (-1)^{|p|(|f|+1)}.  Derivative monomials that break the cover,
    pq-order or t-order cap of ``policy`` are left out (see
    :func:`poisson_bracket`); the hbar cap is not applied.
    Differentiation by one variable is injective on monomials, so each
    derivative monomial is reached from exactly one term.
    """
    kinds, parity, covers = table.kinds, table.parity, table.covers
    max_cover = policy.max_cover
    dq: dict = {}
    dp: dict = {}
    for mono, coeff in terms.items():
        t_order = pq = 0
        wide = []  # indices of q/p factors with cover above the cap
        for k, (pos, e) in enumerate(mono):
            kind = kinds[pos]
            if kind == QORBIT or kind == PORBIT:
                pq += e
                if covers[pos] > max_cover:
                    wide.append(k)
            elif kind == TFORM or kind == TCHECK:
                t_order += e
        if (t_order > policy.max_t_order or pq > policy.max_pq_order + 1
                or len(wide) > 1):
            continue
        odd_before = 0
        for k, (pos, e) in enumerate(mono):
            kind = kinds[pos]
            if ((kind == QORBIT or kind == PORBIT)
                    and (not wide or (wide[0] == k and e == 1))):
                if e == 1:
                    new = mono[:k] + mono[k + 1:]
                else:
                    new = mono[:k] + ((pos, e - 1),) + mono[k + 1:]
                c = coeff * e
                if parity[pos] and (odd_before + (kind == PORBIT and not odd)) % 2:
                    c = -c
                out = dq if kind == QORBIT else dp
                if pos not in out:
                    out[pos] = {}
                out[pos][new] = c
            if parity[pos]:
                odd_before += 1
    return dq, dp


# -- star product ----------------------------------------------------------------


def _star_width(table: VariableTable, terms1, terms2) -> int:
    """Field width for f*g and g*f: room for the hbar shift.

    A Wick term of multi-index alpha carries hbar^|alpha| on top of the
    operands' exponents, and |alpha| is at most the pq-order of a term.
    """
    kinds = table.kinds
    alpha = max((sum(e for pos, e in mono if kinds[pos] in (QORBIT, PORBIT))
                 for mono in (*terms1, *terms2)), default=0)
    return _field_width(terms1, terms2, alpha)


def _wick(acc: dict, table: VariableTable, f_terms: dict, g_terms: dict,
          policy: TruncationPolicy, width: int, factor: int):
    """acc[key] += factor * (f*g) over policy, for int-coefficient terms.

    f*g = sum_alpha hbar^|alpha| prod_o kappa_o^alpha_o
          ((d/dp)^alpha / alpha!)^R f  ((d/dq)^alpha)^L g,
    alpha running over multi-indices on the orbits (q/p pairs): the
    p-derivatives act on f from the right, the q-derivatives on g from the
    left, as in :func:`poisson_bracket`.  The multi-indices are visited
    depth first with non-decreasing orbit index, so each is reached once
    and both sides differentiate in the same order; the divided power
    (d/dp)^n / n! takes one derivative and divides by n at each step, which
    is exact.  Each node multiplies its two derivative parts with the f
    side shifted by hbar^|alpha| in the packed key (``width`` must leave
    room for the shift, see :func:`_star_width`).  A derivative monomial
    over the cover cap has no product within it and is left out.
    """
    if not f_terms or not g_terms:
        return
    pairs = table.orbit_pairs
    hbar = table.kinds.index(HBAR) if HBAR in table.kinds else None
    max_cover = policy.max_cover

    def visit(fd, gd, start, run, order, weight):
        shift = order << width * hbar if order else 0
        frec = [(k + shift, c, pq, t, hb + order, o, x, cover)
                for k, c, pq, t, hb, o, x, cover in _pack(table, fd, width)
                if cover <= max_cover]
        grec = [r for r in _pack(table, gd, width) if r[_COVER] <= max_cover]
        _mul_packed(acc, frec, grec, policy, factor * weight)
        for i in range(start, len(pairs)):
            qpos, ppos, kappa = pairs[i]
            n = run + 1 if i == start else 1  # alpha_i after this step
            fd2 = _orbit_derivative(table, fd, ppos, right=True, n=n)
            gd2 = _orbit_derivative(table, gd, qpos) if fd2 else None
            if gd2:
                if hbar is None:
                    raise DeclarationError(
                        "star product needs an hbar variable in the table")
                visit(fd2, gd2, i, n, order + 1, weight * kappa)

    visit(f_terms, g_terms, 0, 0, 0, 1)


def _orbit_derivative(table: VariableTable, terms: dict, pos: int,
                      right: bool = False, n: int = 1) -> dict:
    """Derivative by the variable at pos of int-coefficient terms, over n.

    From the left the variable is commuted to the front of the monomial,
    from the right to its end, collecting a sign per odd letter passed.
    On terms already carrying (d/dp)^(n-1)/(n-1)! the right derivative over
    n gives (d/dp)^n/n!: a coefficient c*C(e, n-1), e the original
    exponent, times the current exponent e-n+1 is c*C(e, n)*n, so the
    division is exact.
    """
    parity = table.parity
    out = {}
    for mono, c in terms.items():
        for k, (p, e) in enumerate(mono):
            if p == pos:
                c = c * e // n
                passed = mono[k + 1:] if right else mono[:k]
                if parity[p] and sum(parity[r] for r, _ in passed) % 2:
                    c = -c
                rest = ((p, e - 1),) if e > 1 else ()
                out[mono[:k] + rest + mono[k + 1:]] = c
                break
            if p > pos:
                break
    return out


def star_product(f: GradedSeries, g: GradedSeries) -> GradedSeries:
    """Associative normal-ordered product with [p,q] = kappa*hbar per orbit.

    Computed by the Wick formula (see :func:`_wick`): the sum over
    multi-indices alpha of the contractions of alpha_o letters p_o of f
    with as many letters q_o of g, each contraction giving kappa_o*hbar,
    on the packed kernel.  Differentiation is injective on monomials and
    the divided powers are integers, so the terms stay integer numerators
    over one denominator per operand.  Raises DeclarationError when a
    contraction is needed (f has a p and g a q of one orbit) and the table
    has no hbar.
    """
    policy = f._join(g)
    table = f.table
    width = _star_width(table, f.terms, g.terms)
    fden, gden = _lcm_denominator(f.terms), _lcm_denominator(g.terms)
    acc: dict = {}
    _wick(acc, table, _numerators(f.terms, fden), _numerators(g.terms, gden),
          policy, width, 1)
    return GradedSeries(table, _unpack(acc, width, fden * gden), policy)


def weyl_commutator(f: GradedSeries, g: GradedSeries) -> GradedSeries:
    """f*g - (-1)^{|f||g|} g*f in the star product; divisible by hbar.

    Both products are formed in full, alpha = 0 included, into one
    accumulator, so the cancellation of the hbar-free part is computed,
    not assumed.  The sign is split over the parity parts of g:
    [f,g] = f*g - g_even*f - g_odd*f', where f' is f with its odd terms
    negated.
    """
    policy = f._join(g)
    table = f.table
    width = _star_width(table, f.terms, g.terms)
    fden, gden = _lcm_denominator(f.terms), _lcm_denominator(g.terms)
    fn, gn = _numerators(f.terms, fden), _numerators(g.terms, gden)
    g_even, g_odd, f_flip = {}, {}, {}
    for mono, c in gn.items():
        (g_odd if mono_parity(table, mono) else g_even)[mono] = c
    for mono, c in fn.items():
        f_flip[mono] = -c if mono_parity(table, mono) else c
    acc: dict = {}
    _wick(acc, table, fn, gn, policy, width, 1)
    _wick(acc, table, g_even, fn, policy, width, -1)
    _wick(acc, table, g_odd, f_flip, policy, width, -1)
    return GradedSeries(table, _unpack(acc, width, fden * gden), policy)


def truncate(f: GradedSeries, policy: TruncationPolicy) -> GradedSeries:
    return f.truncate(policy)
