"""Tuple-dict series: the differential oracle for the packed GradedSeries.

Terms are a dict from canonical tuple monomials ((position, exponent), ...)
to Fractions, and every operation works on those tuples by definition:
products merge two monomials and collect the Koszul sign letter by letter,
derivatives commute the variable to the front (or the end) of the
monomial, brackets are sums of products of derivatives, and star products
rewrite q/p words into normal order one adjacent transposition at a time.
Nothing here uses packed keys, records or the Wick formula.
"""

from fractions import Fraction

from sftlab.algebra import HBAR, PORBIT, QORBIT, TCHECK, TFORM
from sftlab.errors import DeclarationError


def allowed(table, mono, policy) -> bool:
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


def mono_mul(table, m1, m2):
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
    odd_left = sum(1 for p, e in m1 if parity[p])
    while i < len(m1) and j < len(m2):
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
            if e1 + e2:
                out.append((p1, e1 + e2))
            i += 1
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return sign, tuple(out)


def _nonzero(terms):
    return {m: c for m, c in terms.items() if c}


class TupleSeries:
    """Series over a VariableTable as {tuple monomial: Fraction}."""

    def __init__(self, table, terms, policy):
        self.table = table
        self.terms = _nonzero({m: Fraction(c) for m, c in terms.items()})
        self.policy = policy

    @classmethod
    def of(cls, series):
        """The oracle copy of a packed series."""
        return cls(series.table, dict(series.terms), series.policy)

    def _join(self, other):
        assert other.table is self.table
        return self.policy.cap(other.policy)

    def _new(self, terms, policy=None):
        return TupleSeries(self.table, terms, policy or self.policy)

    def __add__(self, other):
        policy = self._join(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return self._new({m: c for m, c in terms.items()
                          if allowed(self.table, m, policy)}, policy)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, coeff):
        return self._new({m: c * Fraction(coeff) for m, c in self.terms.items()})

    def __mul__(self, other):
        policy = self._join(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                merged = mono_mul(self.table, m1, m2)
                if merged is not None and allowed(self.table, merged[1], policy):
                    sign, mono = merged
                    out[mono] = out.get(mono, 0) + sign * c1 * c2
        return self._new(out, policy)

    def truncate(self, policy):
        return self._new({m: c for m, c in self.terms.items()
                          if allowed(self.table, m, policy)}, policy)

    def parity_parts(self):
        parts = ({}, {})
        for m, c in self.terms.items():
            parts[sum(self.table.parity[p] for p, _ in m) % 2][m] = c
        return self._new(parts[0]), self._new(parts[1])

    def derivative(self, name):
        """Left super-derivation: the variable is commuted to the front of
        the monomial, collecting (-1) per odd letter passed, then stripped."""
        return self._new(self._derivative(self.table.position(name), right=False))

    def right_derivative(self, name):
        """Right super-derivation: the variable is commuted to the end."""
        return self._new(self._derivative(self.table.position(name), right=True))

    def _derivative(self, pos, right):
        parity = self.table.parity
        out = {}
        for mono, coeff in self.terms.items():
            for k, (p, e) in enumerate(mono):
                if p != pos:
                    continue
                passed = mono[k + 1:] if right else mono[:k]
                sign = -1 if parity[p] and sum(parity[r] for r, _ in passed) % 2 else 1
                rest = ((p, e - 1),) if e != 1 else ()
                out[mono[:k] + rest + mono[k + 1:]] = coeff * e * sign
        return out


def poisson_bracket(f, g, policy=None):
    """sum_orbits kappa*(df/dp dg/dq - (-1)^{|f||g|} dg/dp df/dq) over the
    parity parts, p from the right and q from the left, truncated to the
    joint policy capped by ``policy``.  A q with no p partner pairs with
    nothing."""
    table = f.table
    window = f._join(g) if policy is None else f._join(g).cap(policy)
    out = TupleSeries(table, {}, window)
    for fodd, fp in enumerate(f.parity_parts()):
        for godd, gp in enumerate(g.parity_parts()):
            sgn = -1 if (fodd and godd) else 1
            for q in table.variables:
                if q.kind != QORBIT:
                    continue
                p = next((v for v in table.variables
                          if v.kind == PORBIT and v.indices == q.indices), None)
                if p is None:
                    continue
                kappa = q.multiplicity
                out = out + (fp.right_derivative(p.name)
                             * gp.derivative(q.name)).scale(kappa)
                out = out + (gp.right_derivative(p.name)
                             * fp.derivative(q.name)).scale(-sgn * kappa)
    return out.truncate(window)


def star_product(f, g):
    """f*g by word rewriting.

    The central blocks (everything but q/p) of two terms are merged with
    their Koszul sign; the concatenated q/p words are then sorted back to
    canonical (q-left) order by adjacent transpositions, and every
    transposition of p past q of the same orbit branches into the Koszul
    swap plus a kappa*hbar contraction.
    """
    table = f.table
    policy = f._join(g)
    kinds, parity = table.kinds, table.parity
    hbar = table.kinds.index(HBAR) if HBAR in table.kinds else None

    def split(mono):
        central = tuple((p, e) for p, e in mono if kinds[p] not in (QORBIT, PORBIT))
        word = [p for p, e in mono if kinds[p] in (QORBIT, PORBIT) for _ in range(e)]
        return central, word

    out = {}
    for m1, c1 in f.terms.items():
        cen1, w1 = split(m1)
        for m2, c2 in g.terms.items():
            cen2, w2 = split(m2)
            merged = mono_mul(table, cen1, cen2)
            if merged is None:
                continue
            sign, cen = merged
            # cen2 moves left past the q/p word of the first term
            if sum(parity[p] for p in w1) * sum(parity[p] for p, _ in cen2) % 2:
                sign = -sign
            pending = [(sign * c1 * c2, 0, w1 + w2)]
            while pending:
                coeff, hb, word = pending.pop()
                i = next((i for i in range(len(word) - 1)
                          if word[i] > word[i + 1]), None)
                if i is None:
                    if any(parity[p] and word.count(p) > 1 for p in word):
                        continue
                    factors = dict(cen)
                    if hb:
                        factors[hbar] = factors.get(hbar, 0) + hb
                    for p in word:
                        factors[p] = factors.get(p, 0) + 1
                    mono = tuple(sorted((p, e) for p, e in factors.items() if e))
                    if allowed(table, mono, policy):
                        out[mono] = out.get(mono, 0) + coeff
                    continue
                a, b = word[i], word[i + 1]
                swap = -1 if parity[a] and parity[b] else 1
                pending.append((coeff * swap, hb, word[:i] + [b, a] + word[i + 2:]))
                if (kinds[a] == PORBIT and kinds[b] == QORBIT
                        and table.variables[a].indices == table.variables[b].indices):
                    if hbar is None:
                        raise DeclarationError("no hbar")
                    kappa = table.variables[a].multiplicity
                    pending.append((coeff * kappa, hb + 1, word[:i] + word[i + 2:]))
    return TupleSeries(table, out, policy)


def weyl_commutator(f, g):
    """f*g - (-1)^{|f||g|} g*f, summed over parity parts."""
    out = TupleSeries(f.table, {}, f._join(g))
    for fodd, fp in enumerate(f.parity_parts()):
        for godd, gp in enumerate(g.parity_parts()):
            sgn = -1 if (fodd and godd) else 1
            out = out + star_product(fp, gp) - star_product(gp, fp).scale(sgn)
    return out
