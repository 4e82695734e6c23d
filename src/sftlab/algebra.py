"""Sparse exact-arithmetic core for graded super-commutative series.

Elements are finite sums of monomials in formal variables of six kinds:
orbit variables q, p (carrying a multiplicity kappa), descendant variables
t and their constrained partners t-check, curve-class variables z, and the
loop-counting variable hbar.  Coefficients are exact rationals.  All
variables super-commute according to the parity of their integer degree;
the only non-commutative structure is the star product of
:func:`star_product`, where moving p past q of the same orbit produces
kappa*hbar.

Monomials are stored in a canonical factor order (hbar, z, t, t-check, q,
p; ties broken by declared indices).  Placing every q before every p makes
canonical monomials normal-ordered for the star product by construction.
Signs are the Koszul signs of sorting words of odd letters.
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
        self.has_odd = any(self.parity)
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


def _mono_mul(table: VariableTable, m1, m2):
    """Merge two canonical monomials; returns (sign, monomial) or None for zero.

    The sign is the Koszul sign of interleaving the two sorted factor words:
    each odd letter taken from m2 crosses the odd letters of m1 not yet
    consumed.
    """
    if not m1:
        return 1, m2
    if not m2:
        return 1, m1
    parity = table.parity
    out = []
    sign = 1
    i = j = 0
    n1, n2 = len(m1), len(m2)
    odd_left = sum(1 for p, e in m1 if parity[p])  # odd letters of m1 not yet emitted
    while i < n1 and j < n2:
        p1, e1 = m1[i]
        p2, e2 = m2[j]
        if p1 < p2:
            out.append((p1, e1))
            if parity[p1]:
                odd_left -= 1
            i += 1
        elif p1 > p2:
            if parity[p2] and odd_left % 2:
                sign = -sign
            out.append((p2, e2))
            j += 1
        else:
            if parity[p1]:
                return None  # odd square
            e = e1 + e2
            if e:
                out.append((p1, e))
            i += 1
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return sign, tuple(out)


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


# -- term-level multiplication kernel -------------------------------------------


def _lcm_denominator(terms) -> int:
    d = 1
    for c in terms.values():
        cd = c.denominator
        if cd != 1:
            g = gcd(d, cd)
            d = d // g * cd
    return d


def _mul_terms(table, terms1, terms2, policy, factor: Fraction) -> dict:
    """factor * terms1 * terms2 with integer-scaled inner arithmetic.

    Coefficients are rescaled to integers by the LCM of denominators so the
    accumulation loop avoids per-product gcd normalization; the common
    denominator is divided back out once per result term.
    """
    if not terms1 or not terms2 or not factor:
        return {}
    d1 = _lcm_denominator(terms1)
    d2 = _lcm_denominator(terms2)
    t1 = [(m, int(c * d1)) for m, c in terms1.items()]
    t2 = [(m, int(c * d2)) for m, c in terms2.items()]
    even_only = not table.has_odd
    out: dict = {}
    get = out.get
    for m1, c1 in t1:
        for m2, c2 in t2:
            if even_only:
                m = _mono_merge_even(m1, m2)
                c = c1 * c2
            else:
                r = _mono_mul(table, m1, m2)
                if r is None:
                    continue
                sign, m = r
                c = c1 * c2 if sign > 0 else -c1 * c2
            if m in out:
                out[m] += c
            else:
                if not _allowed(table, m, policy):
                    continue
                out[m] = c
    scale = factor / (d1 * d2)
    result = {}
    for m, c in out.items():
        if c:
            result[m] = scale * c
    return result


def _mono_merge_even(m1, m2):
    """Exponent merge for tables with no odd variables (no signs, no squares)."""
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        p1, e1 = m1[i]
        p2, e2 = m2[j]
        if p1 < p2:
            out.append(m1[i])
            i += 1
        elif p1 > p2:
            out.append(m2[j])
            j += 1
        else:
            e = e1 + e2
            if e:
                out.append((p1, e))
            i += 1
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


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
    fparts = [(odd, _partials(table, part.terms, odd, window))
              for odd, part in enumerate(f.parity_parts()) if part]
    gparts = [(odd, _partials(table, part.terms, odd, window))
              for odd, part in enumerate(g.parity_parts()) if part]
    acc: dict = {}
    for fodd, (fdq, fdp) in fparts:
        for godd, (gdq, gdp) in gparts:
            sgn = -1 if (fodd and godd) else 1
            for qpos, ppos, kappa in table.orbit_pairs:
                df_dp, dg_dq = fdp.get(ppos), gdq.get(qpos)
                if df_dp and dg_dq:
                    _acc_update(acc, _mul_terms(table, df_dp, dg_dq, window,
                                                Fraction(kappa)))
                dg_dp, df_dq = gdp.get(ppos), fdq.get(qpos)
                if dg_dp and df_dq:
                    _acc_update(acc, _mul_terms(table, dg_dp, df_dq, window,
                                                Fraction(-sgn * kappa)))
    return GradedSeries(table, {m: c for m, c in acc.items() if c}, window)


def _partials(table: VariableTable, terms: dict, odd: int,
              policy: TruncationPolicy):
    """All q- and p-derivatives of one parity part, in one pass over it.

    Returns (dq, dp), each mapping a variable position to the terms of the
    derivative: d/dq from the left, d/dp from the right.  On a part of
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


def _acc_update(acc: dict, terms: dict):
    for m, c in terms.items():
        if m in acc:
            acc[m] += c
        else:
            acc[m] = c


def _letters(table: VariableTable, mono):
    """Expand q/p factors to unit letters; central block kept packed.

    Returns (central, word) where word is a list of positions with q/p
    letters in canonical order and central is the packed remainder.
    """
    central = []
    word = []
    for p, e in mono:
        if table.kinds[p] in (QORBIT, PORBIT):
            word.extend([p] * e)
        else:
            central.append((p, e))
    return tuple(central), word


def star_product(f: GradedSeries, g: GradedSeries) -> GradedSeries:
    """Associative normal-ordered product with [p,q] = kappa*hbar per orbit.

    Computed by word rewriting: the concatenated q/p words are sorted back
    to canonical (q-left) order; each adjacent transposition of p past q of
    the same orbit branches into the Koszul swap plus a kappa*hbar
    contraction.
    """
    policy = f._join(g)
    table = f.table
    hbar_pos = None
    for i, v in enumerate(table.variables):
        if v.kind == HBAR:
            hbar_pos = i
            break
    kinds = table.kinds
    parity = table.parity
    out = table.zero(policy)
    for m1, c1 in f.terms.items():
        cen1, w1 = _letters(table, m1)
        for m2, c2 in g.terms.items():
            cen2, w2 = _letters(table, m2)
            # central blocks commute with sign into one packed monomial
            r = _mono_mul(table, cen1, cen2)
            if r is None:
                continue
            csign, cen = r
            # sign for moving cen2 left past w1 (odd crossings)
            w1_odd = sum(1 for p in w1 if parity[p])
            cen2_odd = sum(1 for p, e in cen2 if parity[p] and e % 2)
            if (w1_odd * cen2_odd) % 2:
                csign = -csign
            # rewrite the q/p word w1+w2 into normal order
            pending = [(Fraction(csign) * c1 * c2, 0, list(w1) + list(w2))]
            while pending:
                coeff, hb, word = pending.pop()
                i = _first_inversion(table, word)
                if i is None:
                    acc = _finish_word(table, cen, word, hb, hbar_pos, policy)
                    if acc is not None:
                        sgn, mono = acc
                        s = out.terms.get(mono, Fraction(0)) + sgn * coeff
                        if s:
                            out.terms[mono] = s
                        else:
                            out.terms.pop(mono, None)
                    continue
                a, b = word[i], word[i + 1]
                swap_sign = -1 if (parity[a] and parity[b]) else 1
                swapped = word[:i] + [b, a] + word[i + 2:]
                pending.append((coeff * swap_sign, hb, swapped))
                if (kinds[a] == PORBIT and kinds[b] == QORBIT
                        and table.variables[a].indices == table.variables[b].indices):
                    if hbar_pos is None:
                        raise DeclarationError(
                            "star product needs an hbar variable in the table")
                    kappa = table.variables[a].multiplicity
                    pending.append((coeff * kappa, hb + 1, word[:i] + word[i + 2:]))
    return GradedSeries(table, dict(out.terms), policy)


def _first_inversion(table, word):
    for i in range(len(word) - 1):
        if word[i] > word[i + 1]:
            return i
    return None


def _finish_word(table, central, word, hb, hbar_pos, policy):
    """Assemble central * hbar^hb * sorted word into a canonical monomial."""
    factors = {}
    for p in word:
        factors[p] = factors.get(p, 0) + 1
    for p, e in factors.items():
        if table.parity[p] and e > 1:
            return None
    mono = list(central)
    if hb:
        mono.append((hbar_pos, hb))
    mono.extend(sorted(factors.items()))
    mono.sort()
    merged = []
    for p, e in mono:
        if merged and merged[-1][0] == p:
            merged[-1] = (p, merged[-1][1] + e)
        else:
            merged.append((p, e))
    merged = tuple((p, e) for p, e in merged if e)
    for p, e in merged:
        if table.parity[p] and e != 1:
            return None
    if not _allowed(table, merged, policy):
        return None
    return 1, merged


def weyl_commutator(f: GradedSeries, g: GradedSeries) -> GradedSeries:
    """f*g - (-1)^{|f||g|} g*f in the star product; divisible by hbar."""
    policy = f._join(g)
    table = f.table
    out = table.zero(policy)
    fe, fo = f.parity_parts()
    ge, go = g.parity_parts()
    for fp, fpar in ((fe, 0), (fo, 1)):
        if fp.is_zero():
            continue
        for gp, gpar in ((ge, 0), (go, 1)):
            if gp.is_zero():
                continue
            sgn = -1 if (fpar and gpar) else 1
            out = out + star_product(fp, gp) - sgn * star_product(gp, fp)
    return out


def truncate(f: GradedSeries, policy: TruncationPolicy) -> GradedSeries:
    return f.truncate(policy)
