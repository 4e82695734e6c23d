"""Boundary-divisor combinatorics on genus-0 moduli symbols.

Divisor symbols are two-sided splittings of marked points (and puncture
sets, in the map case) with the descendant-carrying point on the first
side.  Nothing geometric is modelled: expressions are formal rational
combinations of splitting symbols, the five-point intersection form is a
declared pairing table, and the averaged psi-class and zero-locus formulas
are explicit coefficient rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial

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

    def __add__(self, other):
        out = dict(self.coefficients)
        for s, c in other.coefficients.items():
            v = out.get(s, Fraction(0)) + c
            if v:
                out[s] = v
            else:
                out.pop(s, None)
        return DivisorExpression(out)

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
    (n-3)!/(n-1)! * k!/(k-2)! D_(I|J), k = |J|.
    """
    if n < 3:
        raise ValidationError("need at least 3 marked points", "n")
    if not 1 <= i <= n:
        raise ValidationError(f"descendant index {i} outside 1..{n}", "i")
    points = set(range(1, n + 1))
    base = Fraction(factorial(n - 3), factorial(n - 1))
    out = {}
    for k in range(2, n - 1):
        coeff = base * Fraction(factorial(k), factorial(k - 2))
        for j_side in combinations(sorted(points - {i}), k):
            i_side = tuple(sorted(points - set(j_side)))
            out[Splitting(i_side, j_side)] = coeff
    return DivisorExpression(out)


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


def _coefficient(variant: str, r1: int, r2: int, p2: int) -> Fraction:
    a = Fraction(p2 * (p2 - 1), 2)
    if variant == "A":
        return a
    b = Fraction(r2 * p2 * (p2 + 1), 2) + (r1 - 1) * a
    if variant == "B":
        return b
    if variant == "C":
        return (Fraction(r2 * (r2 - 1), 2) * Fraction((p2 + 2) * (p2 + 1), 2)
                + r2 * (r1 - 1) * Fraction(p2 * (p2 + 1), 2)
                + Fraction((r1 - 1) * (r1 - 2), 2) * a)
    raise ValidationError(f"unknown variant {variant!r}", "variant")


def _lhs_factor(variant: str, r: int, p: int) -> Fraction:
    if variant == "A":
        return Fraction(p * (p - 1), 2)
    if variant == "B":
        return Fraction((r - 1) * p * (p + 1), 2)
    if variant == "C":
        return Fraction((r - 1) * (r - 2), 2) * Fraction((p + 2) * (p + 1), 2)
    raise ValidationError(f"unknown variant {variant!r}", "variant")


def enumerate_splittings(r: int, pos: int, neg: int):
    """All splittings of r marked points and pos/neg puncture labels with the
    descendant point 1 on the first side."""
    if r < 1:
        raise ValidationError("need at least one marked point", "r")
    marked = set(range(1, r + 1))
    others = sorted(marked - {1})
    out = []
    for jk in range(0, r):
        for j_side in combinations(others, jk):
            i_side = tuple(sorted(marked - set(j_side)))
            for pk in range(0, pos + 1):
                for p_side2 in combinations(range(1, pos + 1), pk):
                    p_side1 = tuple(sorted(set(range(1, pos + 1)) - set(p_side2)))
                    for nk in range(0, neg + 1):
                        for n_side2 in combinations(range(1, neg + 1), nk):
                            n_side1 = tuple(sorted(set(range(1, neg + 1))
                                                   - set(n_side2)))
                            out.append(Splitting(i_side, tuple(j_side),
                                                 p_side1, p_side2,
                                                 n_side1, n_side2))
    return out


def map_zero_locus(r: int, pos: int, neg: int, variant: str) -> tuple:
    """(LHS factor, expression) for one averaged zero-locus formula.

    variant "A" remembers the two punctures, "B" one puncture and one
    marked point, "C" two marked points; coefficients are the displayed
    combinatorial weights as functions of (r1, r2, P2).
    """
    expr = {}
    for s in enumerate_splittings(r, pos, neg):
        c = _coefficient(variant, s.r1, s.r2, s.p2)
        if c:
            expr[s] = c
    return _lhs_factor(variant, r, pos + neg), DivisorExpression(expr)


TARGET_RULES = {
    "two-punctures": (lambda s: Fraction(s.p2 * (s.p2 - 1), 2),
                      lambda r, p: Fraction(p * (p - 1), 2)),
    "puncture-point": (lambda s: Fraction(s.r2 * s.p2),
                       lambda r, p: Fraction((r - 1) * p)),
    "two-points": (lambda s: Fraction(s.r2 * (s.r2 - 1), 2),
                   lambda r, p: Fraction((r - 1) * (r - 2), 2)),
}


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
    common splitting set; ``target`` names a rule from TARGET_RULES.  The
    proportionality constant is normalized to 1.  Returns a
    CombinationFinding; infeasibility comes with a two-splitting
    certificate (a pinned splitting and a violated one).
    """
    if target not in TARGET_RULES:
        raise ValidationError(f"unknown target {target!r}", "target")
    rule, lhs_rule = TARGET_RULES[target]
    splittings = sorted({s for _, e in expressions for s in e.coefficients},
                        key=str)
    if not splittings:
        raise ValidationError("empty splitting set", "expressions")
    rows = [[e.coefficients.get(s, Fraction(0)) for _, e in expressions]
            for s in splittings]
    rhs = [rule(s) for s in splittings]
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
                              lhs_consistent=(lhs == lhs_rule(r, p)),
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
