"""Boundary-divisor combinatorics on genus-0 moduli symbols.

Divisor symbols are two-sided splittings of marked points (and puncture
sets, in the map case) with the descendant-carrying point on the first
side.  Nothing geometric is modelled: expressions are formal rational
combinations of splitting symbols, and the five-point intersection form is a
declared pairing table.

Every coefficient counts the remembered pairs, m marked points and 2 - m
punctures (m = 0, 1, 2), that a splitting D(I|J) puts on its far side J, as
psi_i = sum over i in I and j, k in J of D(I|J) on M_{0,n}.  The targets
are P_m(r2, p2) = C(r2, m) C(p2, 2 - m), the zero-locus variants A, B, C are
W_m(r1, r2, p2) = sum_j C(r2, j) C(r1 - 1, m - j) C(p2 + j, 2), the averaged
psi-class on n points is P_2(|J|, 0) / C(n - 1, 2), and each LHS factor is
its rule at D(1 | everything else).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb

from .errors import SftlabError, ValidationError
from .linalg import solve


@dataclass(frozen=True)
class Splitting:
    """Two-component splitting with the descendant point in marked_i.

    marked_i / marked_j partition the marked points; pos_i/pos_j and
    neg_i/neg_j partition the positive and negative puncture labels.  For
    pure moduli-of-curves splittings the puncture parts are empty.
    """

    marked_i: tuple
    marked_j: tuple
    pos_i: tuple = ()
    pos_j: tuple = ()
    neg_i: tuple = ()
    neg_j: tuple = ()

    def __post_init__(self):
        for name in ("marked_i", "marked_j", "pos_i", "pos_j", "neg_i", "neg_j"):
            object.__setattr__(self, name, tuple(sorted(getattr(self, name))))

    @property
    def r1(self):
        return len(self.marked_i)

    @property
    def r2(self):
        return len(self.marked_j)

    @property
    def p2(self):
        return len(self.pos_j) + len(self.neg_j)

    def __str__(self):
        def side(ms, ps, ns):
            bits = [",".join(map(str, ms))]
            if ps or ns:
                bits.append("+" + ",".join(map(str, ps)))
                bits.append("-" + ",".join(map(str, ns)))
            return ";".join(b for b in bits if b)
        return f"D({side(self.marked_i, self.pos_i, self.neg_i)}|" \
               f"{side(self.marked_j, self.pos_j, self.neg_j)})"


class DivisorExpression:
    """Finite rational combination of splittings."""

    def __init__(self, coefficients=None):
        self.coefficients = {}
        for s, c in (coefficients or {}).items():
            c = Fraction(c)
            if c:
                self.coefficients[s] = c

    def scale(self, coeff):
        c = Fraction(coeff)
        return DivisorExpression({s: c * v for s, v in self.coefficients.items()})

    def __eq__(self, other):
        return isinstance(other, DivisorExpression) and \
            self.coefficients == other.coefficients

    def items_sorted(self):
        return sorted(self.coefficients.items(), key=lambda kv: str(kv[0]))

    def __str__(self):
        if not self.coefficients:
            return "0"
        return " + ".join(f"{c}*{s}" for s, c in self.items_sorted())


def averaged_psi(n: int, i: int) -> DivisorExpression:
    """Averaged psi zero-locus on the n-point moduli of curves.

    Sum over splittings with i on the first side and 2 <= |J| <= n-2 of
    P_2(|J|, 0) / C(n-1, 2) D_(I|J): the share of the pairs of points other
    than i that D_(I|J) puts on its far side.
    """
    if n < 3:
        raise ValidationError("need at least 3 marked points", "n")
    if not 1 <= i <= n:
        raise ValidationError(f"descendant index {i} outside 1..{n}", "i")
    pairs = comb(n - 1, 2)
    return DivisorExpression({
        Splitting((i, *near), far): Fraction(pair_count(2, len(far), 0), pairs)
        for near, far in _sides([x for x in range(1, n + 1) if x != i])
        if 2 <= len(far) <= n - 2})


# -- five-point intersection form ---------------------------------------------


def as_pair_divisor(s: Splitting, n: int):
    """Canonical 2-element-side label of a splitting of n points (n = 4, 5)."""
    if s.pos_i or s.pos_j or s.neg_i or s.neg_j:
        raise ValidationError("not a pure moduli-of-curves splitting", "splitting")
    if set(s.marked_i) | set(s.marked_j) != set(range(1, n + 1)):
        raise ValidationError(f"splitting does not cover 1..{n}", "splitting")
    if len(s.marked_j) == 2:
        return frozenset(s.marked_j)
    if len(s.marked_i) == 2:
        return frozenset(s.marked_i)
    raise ValidationError("no 2-element side", "splitting")


def m05_pair_index(d1: frozenset, d2: frozenset) -> int:
    """+1 for disjoint pairs, 0 when sharing one index, -1 when equal."""
    common = len(d1 & d2)
    if common == 0:
        return 1
    if common == 1:
        return 0
    return -1


def m05_intersection(e1: DivisorExpression, e2: DivisorExpression) -> Fraction:
    """Bilinear extension of the five-point pairing table."""
    total = Fraction(0)
    for s1, c1 in e1.coefficients.items():
        d1 = as_pair_divisor(s1, 5)
        for s2, c2 in e2.coefficients.items():
            d2 = as_pair_divisor(s2, 5)
            total += c1 * c2 * m05_pair_index(d1, d2)
    return total


# -- zero loci on the map moduli -----------------------------------------------


def pair_count(m: int, r2: int, p2: int) -> int:
    """P_m: remembered pairs of m marked points and 2 - m punctures that a
    splitting puts on its far side."""
    return comb(r2, m) * comb(p2, 2 - m)


def zero_locus_weight(m: int, r1: int, r2: int, p2: int) -> int:
    """W_m: over the sets of m marked points other than the descendant point,
    j of them on the far side, the sum of C(p2 + j, 2)."""
    return sum(comb(r2, j) * comb(r1 - 1, m - j) * comb(p2 + j, 2)
               for j in range(m + 1))


def _sides(items):
    """Every (near, far) split of ``items``, by far size, then far in order."""
    return [(tuple(x for x in items if x not in far), far)
            for k in range(len(items) + 1) for far in combinations(items, k)]


def enumerate_splittings(r: int, pos: int, neg: int):
    """All splittings of r marked points and pos/neg puncture labels with the
    descendant point 1 on the first side."""
    if r < 1:
        raise ValidationError("need at least one marked point", "r")
    return [Splitting((1, *mi), mj, pi, pj, ni, nj)
            for (mi, mj), (pi, pj), (ni, nj) in product(
                _sides(range(2, r + 1)), _sides(range(1, pos + 1)),
                _sides(range(1, neg + 1)))]


# the remembered pair of each variant, by its number m of marked points
VARIANTS = {"A": 0, "B": 1, "C": 2}


def map_zero_locus(r: int, pos: int, neg: int, variant: str) -> tuple:
    """(LHS factor, expression) for one averaged zero-locus formula.

    The coefficient of a splitting is W_m(r1, r2, P2); the LHS factor is the
    same rule at D(1 | everything else).
    """
    if variant not in VARIANTS:
        raise ValidationError(f"unknown variant {variant!r}", "variant")
    m = VARIANTS[variant]
    expr = {s: zero_locus_weight(m, s.r1, s.r2, s.p2)
            for s in enumerate_splittings(r, pos, neg)}
    return (Fraction(zero_locus_weight(m, 1, r - 1, pos + neg)),
            DivisorExpression(expr))


# the remembered pair each target counts, by its number m of marked points
TARGET_RULES = {"two-punctures": 0, "puncture-point": 1, "two-points": 2}


@dataclass
class CombinationFinding:
    """Outcome of one exact solve: weights, or an infeasibility certificate."""

    target: str
    feasible: bool
    weights: tuple = ()           # one weight per input expression, scale c = 1
    lhs_consistent: bool = False  # weighted LHS factors match the target LHS
    degenerate: bool = False      # target vanishes identically on the splittings
    certificate: tuple = ()       # (splitting_a, splitting_b) witnessing failure

    def describe(self):
        if self.degenerate:
            return f"{self.target}: target identically zero at these bounds"
        if self.feasible:
            w = ",".join(str(x) for x in self.weights)
            lhs = "lhs consistent" if self.lhs_consistent else "lhs inconsistent"
            return f"{self.target}: weights ({w}), {lhs}"
        a, b = self.certificate
        return f"{self.target}: infeasible, witnessed by {a} vs {b}"


def solve_combination(expressions, target: str, r: int, p: int):
    """Exact weights lambda with sum(lambda_v * expr_v) = target rule.

    ``expressions`` is a list of (LHS factor, DivisorExpression) over a
    common splitting set; ``target`` names a rule from TARGET_RULES, whose
    coefficients are P_m(r2, P2) and LHS factor P_m(r - 1, p).  The
    proportionality constant is normalized to 1.  Returns a
    CombinationFinding; infeasibility comes with a two-splitting
    certificate (a pinned splitting and a violated one).
    """
    if target not in TARGET_RULES:
        raise ValidationError(f"unknown target {target!r}", "target")
    m = TARGET_RULES[target]
    splittings = sorted({s for _, e in expressions for s in e.coefficients},
                        key=str)
    if not splittings:
        raise ValidationError("empty splitting set", "expressions")
    rows = [[e.coefficients.get(s, Fraction(0)) for _, e in expressions]
            for s in splittings]
    rhs = [Fraction(pair_count(m, s.r2, s.p2)) for s in splittings]
    sol = solve(rows, rhs)  # a homogeneous system always has x = 0
    if sol is None:
        # find a small certificate: solve on a maximal consistent prefix,
        # then report the first violated splitting against a pinned one
        for upto in range(1, len(splittings) + 1):
            part = solve(rows[:upto], rhs[:upto])
            if part is None:
                bad = splittings[upto - 1]
                pinned = splittings[0]
                return CombinationFinding(target, False,
                                          certificate=(pinned, bad))
        raise SftlabError("inconsistent solver state")  # pragma: no cover
    lhs = sum((Fraction(w) * Fraction(f) for w, (f, _) in zip(sol, expressions)),
              Fraction(0))
    return CombinationFinding(target, True, sol,
                              lhs_consistent=(lhs == pair_count(m, r - 1, p)),
                              degenerate=not any(rhs))


# -- perturbation ledgers --------------------------------------------------------


@dataclass
class LedgerViolation:
    entry: str
    expected: Fraction
    found: Fraction

    def __str__(self):
        return f"{self.entry}: indices sum to {self.found}, expected {self.expected}"


def ledger_check(ledger: dict):
    """Verify a perturbation ledger of intersection assignments.

    ``ledger`` has entries:
      self_intersections: [{divisor: [i,j], weight: w, at: [[[k,l], index], ...]}]
      cross_intersections: [{a: [i,j], a_weight: w, b: [k,l],
                             at: [[location, index], ...]}]
    Each entry's indices must sum to its weight times the pairing of its two
    divisors, b = a for a self entry (pairing -1).
    """
    entries = [("self", item["divisor"], item["divisor"], item["weight"], item["at"])
               for item in ledger.get("self_intersections", [])]
    entries += [("cross", item["a"], item["b"], item["a_weight"], item["at"])
                for item in ledger.get("cross_intersections", [])]
    violations = []
    for kind, a, b, w, at in entries:
        a, b, w = frozenset(a), frozenset(b), Fraction(w)
        total = sum((Fraction(idx) for _, idx in at), Fraction(0))
        expected = w * m05_pair_index(a, b)
        if total != expected:
            pair = set(a) if kind == "self" else f"{set(a)} vs {set(b)}"
            violations.append(LedgerViolation(
                f"{kind}({pair}, weight {w})", expected, total))
    return violations


def restriction_check(restrictions: dict):
    """Check the five-point averaged locus restricted to each bubble divisor.

    ``restrictions`` maps a divisor label "j,k" (j,k != 1) to a list of
    {at: [l,m], contributions: [[source, weight], ...]}.  Each boundary
    point's weights must total the four-point averaged coefficient 1/3, and
    the listed points must be exactly the three divisors disjoint from
    {j,k}.
    """
    four_point = averaged_psi(4, 1)
    coeff = next(iter(four_point.coefficients.values()))  # 1/3 for every term
    problems = []
    for label, points in restrictions.items():
        jk = frozenset(int(x) for x in label.split(","))
        expected_points = {frozenset(pr) for pr in combinations(range(1, 6), 2)
                           if not (frozenset(pr) & jk)}
        seen = set()
        for pt in points:
            at = frozenset(pt["at"])
            seen.add(at)
            total = sum((Fraction(w) for _, w in pt["contributions"]), Fraction(0))
            if total != coeff:
                problems.append(
                    f"restriction to D({set(jk)}) at D({set(at)}): "
                    f"total {total}, expected {coeff}")
        if seen != expected_points:
            problems.append(
                f"restriction to D({set(jk)}): boundary points "
                f"{sorted(map(set, seen), key=str)} != expected "
                f"{sorted(map(set, expected_points), key=str)}")
    return problems
