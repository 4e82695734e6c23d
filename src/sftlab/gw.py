"""Genus-0 descendant correlator store, reconstruction, and identity checks.

Correlators are reconstructed from primary invariants by a deterministic
rule order: forgetful removal of unit insertions (string / dilaton),
splitting off the highest descendant (topological recursion), reading
primaries from the model, and a divisor-class reduction fallback.
Correlators with fewer than three insertions are zero by convention in
every recursion formula; the potential therefore carries no 2-point terms
and the recursion is exactly the coefficient expansion of the series-level
identities checked by the verifiers below.  String and divisor are one
forgetful rule ``TargetModel.forgetting(w)`` of an inserted class w (the
unit, or the model's degree-2 class), read by the reconstruction and the
equations alike.  Each verifier takes the potential f it checks and the
model; the policy and the level range are f's.

Two walks over the keys within bounds: ``reconstruct`` evaluates only
``admissible_keys``, the keys that pass the dimension filter, found
without visiting the rest (every other key is zero); ``enumerate_keys``
yields every key, and the oracle checks walk it so that the zero of a
dimension-rejected key is compared with the oracle too.  Keys formed
inside the package from canonical insertions (those two walks and the
reconstruction's own rules) are built directly; ``TargetModel.key``
validates everything else.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb, factorial
from typing import Iterable, Optional

from .algebra import (
    GradedSeries, TruncationPolicy, VariableTable, curve_class_variable,
    descendant_variable, t_name, z_name,
)
from .errors import MissingPrimaryError, ValidationError
from .linalg import _zp_add, _zp_mul, _zp_scale, inverse
from .operators import point_count


@dataclass(frozen=True)
class CohClass:
    id: str
    degree: int


@dataclass(frozen=True)
class CorrelatorKey:
    """Multiset of (class id, descendant level) insertions plus a curve class."""

    insertions: tuple  # ((class_id, level), ...) canonically sorted
    degree: tuple = ()  # exponent vector over the H2 basis

    def __str__(self):
        ins = " ".join(f"tau_{a}({c})" for c, a in self.insertions)
        d = "" if not any(self.degree) else f" d={list(self.degree)}"
        return f"<{ins}>{d}"


class TargetModel:
    """Cohomology basis, pairing, curve classes and primary correlators.

    ``eta`` is the Poincare pairing on the chosen basis.  ``chern`` holds
    the first-Chern pairing per curve-class basis element.  Primary values
    enter through ``add_primary``, keyed by CorrelatorKey; they must have at
    least three insertions and pass the dimension filter.
    """

    def __init__(self, name, classes, unit, eta, h2_rank=0, chern=(),
                 divisor=None, divisor_cup=None, divisor_pairing=None):
        self.name = name
        self.classes = tuple(CohClass(c.id, c.degree) if isinstance(c, CohClass)
                             else CohClass(str(c[0]), int(c[1])) for c in classes)
        self.unit = unit
        self.eta = tuple(tuple(Fraction(x) for x in row) for row in eta)
        self.h2_rank = int(h2_rank)
        self.chern = tuple(int(c) for c in chern)
        self.divisor = divisor
        self.divisor_cup = divisor_cup
        self.divisor_pairing = tuple(divisor_pairing) if divisor_pairing else None
        self._index = {c.id: i for i, c in enumerate(self.classes)}
        self._validate_static()
        try:
            self.eta_inv = inverse(self.eta)
        except ZeroDivisionError:
            raise ValidationError("eta not invertible", "eta") from None
        self.primaries = {}

    # -- validation ------------------------------------------------------

    def _validate_static(self):
        if len(self._index) != len(self.classes):
            raise ValidationError("duplicate class ids", "classes")
        if self.unit not in self._index:
            raise ValidationError(f"unit class {self.unit!r} not declared", "unit")
        if self.degree_of(self.unit) != 0:
            raise ValidationError("unit class must have degree 0", "unit")
        n = len(self.classes)
        if len(self.eta) != n or any(len(r) != n for r in self.eta):
            raise ValidationError("eta shape mismatch", "eta")
        for i in range(n):
            for j in range(n):
                if self.eta[i][j] != self.eta[j][i]:
                    raise ValidationError("eta not symmetric", f"eta[{i}][{j}]")
        dims = {self.classes[i].degree + self.classes[j].degree
                for i in range(n) for j in range(n) if self.eta[i][j]}
        if len(dims) > 1:
            raise ValidationError(
                f"eta pairs classes of inconsistent degree sums {sorted(dims)}", "eta")
        self.dimension = dims.pop() if dims else 0
        if len(self.chern) != self.h2_rank:
            raise ValidationError("chern length != h2_rank", "chern")
        if self.divisor is not None:
            if self.divisor not in self._index:
                raise ValidationError(f"divisor class {self.divisor!r} not declared",
                                      "divisor")
            if self.degree_of(self.divisor) != 2:
                raise ValidationError("divisor class must have degree 2", "divisor")
        for cid, row in (self.divisor_cup or {}).items():
            for b in row:
                if b not in self._index:
                    raise ValidationError(f"unknown class {b!r}", f"divisor_cup.{cid}")

    def add_primary(self, key: CorrelatorKey, value):
        value = Fraction(value)
        key = self.key(key.insertions, key.degree)
        if len(key.insertions) < 3:
            raise ValidationError(f"primary {key} has fewer than 3 insertions",
                                  "primaries")
        if any(a != 0 for _, a in key.insertions):
            raise ValidationError(f"primary {key} carries descendants", "primaries")
        if value and not self.dimension_ok(key):
            raise ValidationError(f"primary {key} fails the dimension filter",
                                  "primaries")
        self.primaries[key] = value

    # -- lookups ------------------------------------------------------------

    def class_index(self, cid: str) -> int:
        try:
            return self._index[cid]
        except KeyError:
            raise ValidationError(f"unknown class {cid!r}", "classes") from None

    def degree_of(self, cid: str) -> int:
        return self.classes[self.class_index(cid)].degree

    def key(self, insertions: Iterable, degree=()) -> CorrelatorKey:
        ins = tuple(sorted(((str(c), int(a)) for c, a in insertions),
                           key=lambda ca: (self.class_index(ca[0]), ca[1])))
        d = tuple(int(x) for x in degree) if degree else (0,) * self.h2_rank
        if len(d) != self.h2_rank:
            raise ValidationError(f"curve class length {len(d)} != h2_rank", "degree")
        if any(x < 0 for x in d):
            raise ValidationError("negative curve-class exponent", "degree")
        for c, _ in ins:
            self.class_index(c)
        return CorrelatorKey(ins, d)

    def dimension_ok(self, key: CorrelatorKey) -> bool:
        """Degree count: sum(deg theta + 2a) = dim + 2(n-3) + 2 c1.d"""
        n = len(key.insertions)
        lhs = sum(self.degree_of(c) + 2 * a for c, a in key.insertions)
        rhs = self.dimension + 2 * (n - 3) + 2 * sum(
            c * d for c, d in zip(self.chern, key.degree))
        return lhs == rhs

    @property
    def has_divisor(self) -> bool:
        """A divisor class with cup-product data (``{}`` counts as none)."""
        return self.divisor is not None and bool(self.divisor_cup)

    def forgetting(self, w: str):
        """(cup, weight) of an inserted tau_0(w): cup(a) gives c_{wa}^b as
        {b: coefficient}, weight(d) the pairing (w.d) with a curve class.

        The unit has the identity cup and weight 0 (string); the divisor
        class has ``cup_with_divisor`` and ``pairing_with_divisor``.
        """
        if w == self.unit:
            return (lambda a: {a: Fraction(1)}), (lambda d: Fraction(0))
        if w != self.divisor or not self.has_divisor:
            raise ValidationError(f"no forgetful rule for class {w!r}", "divisor")
        return self.cup_with_divisor, self.pairing_with_divisor

    def pairing_with_divisor(self, degree: tuple) -> Fraction:
        pair = self.divisor_pairing or (1,) * self.h2_rank
        return Fraction(sum(p * d for p, d in zip(pair, degree)))

    def cup_with_divisor(self, cid: str) -> dict:
        """c_{2 alpha}^beta as {beta: coefficient}; required model input."""
        if not self.divisor_cup:
            raise ValidationError("model has no divisor cup-product data",
                                  "divisor_cup")
        return {b: Fraction(v) for b, v in self.divisor_cup.get(cid, {}).items()}


@dataclass(frozen=True)
class Bounds:
    max_points: int = 6
    max_level: int = 3
    max_degree: int = 0


class CorrelatorTable:
    """Finite correlator store; absent keys read as zero.

    Every stored nonzero value must pass the model's dimension filter.
    """

    def __init__(self, model: TargetModel):
        self.model = model
        self.values = {}

    def set(self, key: CorrelatorKey, value):
        value = Fraction(value)
        if not value:
            self.values.pop(key, None)
            return
        if not self.model.dimension_ok(key):
            raise ValidationError(f"nonzero value at {key} fails the dimension filter",
                                  "values")
        self.values[key] = value

    def get(self, key: CorrelatorKey) -> Fraction:
        return self.values.get(key, Fraction(0))

    def items_sorted(self):
        return sorted(self.values.items(),
                      key=lambda kv: (len(kv[0].insertions), kv[0].degree,
                                      kv[0].insertions))

    def perturbed(self, key: CorrelatorKey, new_value) -> "CorrelatorTable":
        """Copy with one value replaced; dimension filter deliberately skipped
        so fault injection can plant inconsistent data."""
        t = CorrelatorTable(self.model)
        t.values = dict(self.values)
        v = Fraction(new_value)
        if v:
            t.values[key] = v
        else:
            t.values.pop(key, None)
        return t


# -- reconstruction --------------------------------------------------------------


def _submultisets(items):
    """(part, rest, multiplicity) for every sub-multiset of a list of
    items; the multiplicity is the product of binomials."""
    items = sorted(Counter(items).items())
    for picks in product(*(range(c + 1) for _, c in items)):
        mult, part, rest = 1, [], []
        for (item, c), k in zip(items, picks):
            mult *= comb(c, k)
            part.extend([item] * k)
            rest.extend([item] * (c - k))
        yield part, rest, mult


def _degree_splits(d: tuple):
    ranges = [range(x + 1) for x in d]
    for picks in product(*ranges):
        yield tuple(picks), tuple(a - b for a, b in zip(d, picks))


class Reconstructor:
    """Memoized evaluation of descendant correlators from primaries."""

    def __init__(self, model: TargetModel, trr_choice: Optional[callable] = None):
        self.model = model
        self.memo = {}
        rank = model._index
        self._order = lambda ca: (rank[ca[0]], ca[1])
        # trr_choice(key, target_index) -> (beta_idx, gamma_idx): positions of
        # the two reference insertions among the remaining ones.  The default
        # (0, 1) takes the two (class, level)-smallest; any admissible choice
        # gives the same values (asserted by tests).
        self.trr_choice = trr_choice

    def _key(self, insertions, degree) -> CorrelatorKey:
        """Key of insertions and a curve class taken from a valid key or
        from the model: only the canonical sort is left to do."""
        return CorrelatorKey(tuple(sorted(insertions, key=self._order)), degree)

    def value(self, key: CorrelatorKey) -> Fraction:
        if key in self.memo:
            return self.memo[key]
        self.memo[key] = result = self._compute(key)
        return result

    def _compute(self, key: CorrelatorKey) -> Fraction:
        model = self.model
        ins, d = key.insertions, key.degree
        n = len(ins)
        if n < 3:
            return Fraction(0)
        if not model.dimension_ok(key):
            return Fraction(0)
        unit = model.unit
        if n >= 4 and (unit, 0) in ins:
            return self._forget(key, unit)
        if n >= 4 and (unit, 1) in ins:
            return self._dilaton(key)
        if any(a >= 1 for _, a in ins):
            return self._trr(key)
        if key in model.primaries:
            return model.primaries[key]
        if n >= 4 and model.has_divisor and (model.divisor, 0) in ins:
            return self._forget(key, model.divisor)
        raise MissingPrimaryError(key)

    def _forget(self, key: CorrelatorKey, w: str) -> Fraction:
        """Remove one tau_0(w): (w.d) times the rest, plus c_{wc}^b times the
        rest with each descendant tau_a(c) lowered to tau_{a-1}(b)."""
        model = self.model
        cup, weight = model.forgetting(w)
        ins = list(key.insertions)
        ins.remove((w, 0))
        pairing = weight(key.degree)
        total = (pairing * self.value(self._key(ins, key.degree)) if pairing
                 else Fraction(0))
        for i, (c, a) in enumerate(ins):
            if a >= 1:
                for b, coeff in cup(c).items():
                    if coeff:
                        rest = ins[:i] + [(b, a - 1)] + ins[i + 1:]
                        total += coeff * self.value(self._key(rest, key.degree))
        return total

    def _dilaton(self, key: CorrelatorKey) -> Fraction:
        ins = list(key.insertions)
        ins.remove((self.model.unit, 1))
        sub = self._key(ins, key.degree)
        return (len(ins) - 2) * self.value(sub)

    def _trr(self, key: CorrelatorKey) -> Fraction:
        """Split off the highest-level insertion against two reference points."""
        model = self.model
        ins = list(key.insertions)
        target = max(range(len(ins)), key=lambda i: (ins[i][1], ins[i][0]))
        alpha, a = ins.pop(target)
        # the insertions are in canonical (class, level) order, so the default
        # pair (0, 1) is the two smallest remaining ones
        bi, gi = (0, 1) if self.trr_choice is None else self.trr_choice(key, target)
        beta, gamma = ins[bi], ins[gi]
        rest = [ins[i] for i in range(len(ins)) if i not in (bi, gi)]
        total = Fraction(0)
        eta_inv = model.eta_inv
        classes = model.classes
        for x1, x2, mult in _submultisets(rest):
            for d1, d2 in _degree_splits(key.degree):
                left_base = x1 + [(alpha, a - 1)]
                right_base = x2 + [beta, gamma]
                for mu in range(len(classes)):
                    for nu in range(len(classes)):
                        w = eta_inv[mu][nu]
                        if not w:
                            continue
                        left = self._key(left_base + [(classes[mu].id, 0)], d1)
                        lv = self.value(left)
                        if not lv:
                            continue
                        right = self._key(right_base + [(classes[nu].id, 0)], d2)
                        rv = self.value(right)
                        if not rv:
                            continue
                        total += mult * w * lv * rv
        return total


def _curve_classes(model: TargetModel, max_degree: int):
    """Exponent vectors of total degree <= max_degree; () without H2."""
    if model.h2_rank == 0:
        return [()]
    return [d for d in product(range(max_degree + 1), repeat=model.h2_rank)
            if sum(d) <= max_degree]


def _pairs(model: TargetModel, bounds: Bounds):
    """The (class, level) pairs within bounds, in canonical key order."""
    return [(c.id, a) for c in model.classes for a in range(bounds.max_level + 1)]


def enumerate_keys(model: TargetModel, bounds: Bounds):
    """Every key within bounds, dimension-admissible or not: one per
    multiset of 3 to max_points (class, level) pairs and curve class.

    This full walk is what the oracle checks compare against the oracle,
    so that a key the dimension filter rejects must read zero too;
    ``reconstruct`` walks only ``admissible_keys``.
    """
    pairs = _pairs(model, bounds)
    degs = _curve_classes(model, bounds.max_degree)
    for n in range(3, bounds.max_points + 1):
        for combo in combinations_with_replacement(pairs, n):
            for d in degs:
                yield CorrelatorKey(combo, d)


def admissible_keys(model: TargetModel, bounds: Bounds):
    """The keys of ``enumerate_keys`` that pass ``model.dimension_ok``, in
    the same order, without visiting the others.

    A key passes when its weight sum(deg theta + 2a) is
    dim + 2(n-3) + 2 c1.d.  The multisets are walked in canonical order and
    a branch is cut as soon as the weights its remaining slots can add
    (``sums``) reach no curve class's target; each finished multiset gives
    one key per curve class whose target it meets, in curve-class order.
    """
    pairs = _pairs(model, bounds)
    weights = [model.degree_of(c) + 2 * a for c, a in pairs]
    top = bounds.max_points
    # sums[i][s]: the weight sums of s pairs drawn from pairs[i:]
    sums = [[{0}] + [set() for _ in range(top)] for _ in range(len(pairs) + 1)]
    for i in range(len(pairs) - 1, -1, -1):
        for s in range(1, top + 1):
            sums[i][s] = sums[i + 1][s] | {weights[i] + x for x in sums[i][s - 1]}
    degs = _curve_classes(model, bounds.max_degree)

    def walk(start, slots, total, prefix, targets):
        if not slots:
            for d in targets[total]:
                yield CorrelatorKey(prefix, d)
            return
        for i in range(start, len(pairs)):
            head = total + weights[i]
            if any(t - head in sums[i][slots - 1] for t in targets):
                yield from walk(i, slots - 1, head, prefix + (pairs[i],), targets)

    for n in range(3, top + 1):
        targets = {}
        for d in degs:
            t = model.dimension + 2 * (n - 3) + 2 * sum(
                c * x for c, x in zip(model.chern, d))
            targets.setdefault(t, []).append(d)
        yield from walk(0, n, 0, (), targets)


def reconstruct(model: TargetModel, bounds: Bounds) -> CorrelatorTable:
    """Every nonzero correlator within bounds, computed from the model's
    primaries; a key the dimension filter rejects is zero, so only
    ``admissible_keys`` are evaluated, in ``enumerate_keys`` order."""
    rec = Reconstructor(model)
    table = CorrelatorTable(model)
    for key in admissible_keys(model, bounds):
        v = rec.value(key)
        if v:
            table.set(key, v)
    return table


# -- potential assembly and series-level verifiers --------------------------------


def descendant_table(model: TargetModel, max_level: int,
                     with_checked: bool = False) -> VariableTable:
    """Variable table with t (and optionally t-check) per class and level,
    plus the declared curve-class variables."""
    vs = []
    for c in model.classes:
        for a in range(max_level + 1):
            vs.append(descendant_variable(c.id, a, c.degree, False))
            if with_checked:
                vs.append(descendant_variable(c.id, a, c.degree, True))
    for i in range(model.h2_rank):
        vs.append(curve_class_variable(i, model.chern[i]))
    return VariableTable(vs)


def automorphism_factor(key: CorrelatorKey) -> int:
    counts = {}
    for item in key.insertions:
        counts[item] = counts.get(item, 0) + 1
    f = 1
    for c in counts.values():
        f *= factorial(c)
    return f


def assemble_potential(table: CorrelatorTable, policy: TruncationPolicy,
                       var_table: Optional[VariableTable] = None,
                       max_level: Optional[int] = None) -> GradedSeries:
    """f = sum value * t^{insertions} z^d / |Aut|; t-derivatives at 0 return
    the correlator values exactly."""
    model = table.model
    if var_table is None:
        if max_level is None:
            max_level = max((a for k in table.values for _, a in k.insertions),
                            default=0)
        var_table = descendant_table(model, max_level)
    total = {}
    for key, value in table.values.items():
        factors = {}
        odd_repeat = False
        for cid, a in key.insertions:
            nm = t_name(cid, a)
            factors[nm] = factors.get(nm, 0) + 1
            if factors[nm] > 1 and var_table.variable(nm).odd:
                odd_repeat = True
        if odd_repeat:
            raise ValidationError(
                f"nonzero correlator {key} repeats an odd class", "values")
        for i, e in enumerate(key.degree):
            if e:
                factors[z_name(i)] = e
        mono = tuple(sorted((var_table.position(nm), e) for nm, e in factors.items()))
        total[mono] = total.get(mono, Fraction(0)) + value / automorphism_factor(key)
    return var_table.series(total, policy)


def correlator_from_potential(potential: GradedSeries,
                              key: CorrelatorKey) -> Fraction:
    """Round-trip check helper: iterated t-derivatives at t = 0."""
    cur = potential
    for cid, a in key.insertions:
        cur = cur.derivative(t_name(cid, a))
    factors = {z_name(i): e for i, e in enumerate(key.degree) if e}
    return cur.coefficient(factors)


def second_derivative_series(potential, model, alpha, i):
    """d^2 f / dt^{alpha,i} dt^{mu,0} eta^{mu nu} indexed by nu."""
    out = []
    n = len(model.classes)
    base = potential.derivative(t_name(alpha, i))
    for nu in range(n):
        acc = potential.table.zero(potential.policy)
        for mu in range(n):
            w = model.eta_inv[mu][nu]
            if w:
                acc = acc + base.derivative(t_name(model.classes[mu].id, 0)).scale(w)
        out.append(acc)
    return out


def _recursion_residual(f: GradedSeries, model: TargetModel, alpha: str, i: int,
                        side) -> GradedSeries:
    """side(t^{alpha,i}) - sum_nu two[nu] * side(t^{nu,0}), with two the
    eta-contracted d2f/dt^{alpha,i-1}dt^{mu,0}; side maps a t-variable name
    to a series."""
    two = second_derivative_series(f, model, alpha, i - 1)
    rhs = f.table.zero(f.policy)
    for nu, cls in enumerate(model.classes):
        if two[nu].is_zero():
            continue
        rhs = rhs + two[nu] * side(t_name(cls.id, 0))
    return side(t_name(alpha, i)) - rhs


def trr_residual(f: GradedSeries, model: TargetModel, alpha_i, beta_j,
                 gamma_k) -> GradedSeries:
    """LHS - RHS of the three-point descendant recursion on the potential f
    of a table of ``model``, as a series at f's policy.

    alpha_i = (class id, level i >= 1); beta_j, gamma_k likewise (any level).
    """
    (alpha, i), (beta, j), (gamma, k) = alpha_i, beta_j, gamma_k
    if i < 1:
        raise ValidationError("recursion needs level >= 1 on the split insertion",
                              "alpha_i")

    def three_point(name):
        return (f.derivative(t_name(gamma, k)).derivative(t_name(beta, j))
                .derivative(name))

    return _recursion_residual(f, model, alpha, i, three_point)


def averaged_trr_residual(f: GradedSeries, model: TargetModel, alpha: str,
                          i: int) -> GradedSeries:
    """N(N-1) df/dt^{alpha,i} - d2f/dt^{alpha,i-1}dt^mu eta N(N-1) df/dt^nu
    on the potential f, at f's policy."""
    if i < 1:
        raise ValidationError("averaged recursion needs level >= 1", "i")

    def n_n_minus_one(name):
        s = f.derivative(name)
        return point_count(point_count(s)) - point_count(s)

    return _recursion_residual(f, model, alpha, i, n_n_minus_one)


@dataclass
class EquationResiduals:
    string: GradedSeries
    dilaton: GradedSeries
    divisor: Optional[GradedSeries]  # None when the model has no divisor class


def string_dilaton_divisor_residuals(f: GradedSeries,
                                     model: TargetModel) -> EquationResiduals:
    """Residual series of the unit- and divisor-insertion equations on the
    potential f of a table of ``model``, at f's policy; the levels k run
    over the t-variables of f's table.

    String and divisor are one equation for a class w, with
    (cup, weight) = ``model.forgetting(w)``: c_{wa}^b the coefficients of
    w cup a and (w.d) the pairing of w with the curve class:

        df/dt^{w,0} - (w.d) f - 1/2 eta(w cup t, t)
                    - sum t^{a,k+1} c_{wa}^b df/dt^{b,k}

    string is w = unit (c the identity, weight 0), divisor is w = the
    model's divisor class (None without ``model.has_divisor``).  dilaton:
    df/dt^{unit,1} - N(f) + 2f, with N the point count (on the genus-0
    part, t-order r scales by r - 2).
    """
    vt, policy = f.table, f.policy
    max_level = max((v.indices[1] for v in vt.variables if v.kind == "t"),
                    default=0)
    classes = model.classes

    def z_degree(mono):
        d = [0] * model.h2_rank
        for p, e in mono:
            if vt.kinds[p] == "z":
                d[vt.variables[p].indices[0]] += e
        return d

    def equation(w):
        """The equation at class w, from its forgetful rule."""
        cup, weight = model.forgetting(w)
        rhs = f.map_terms(lambda m: weight(z_degree(m)))
        for cm in classes:
            row = cup(cm.id)
            c = [Fraction(row.get(cb.id, 0)) for cb in classes]
            t_mu = vt.var(t_name(cm.id, 0), 1, policy)
            for nu, cn in enumerate(classes):
                pair = sum(v * model.eta[b][nu] for b, v in enumerate(c))
                if pair:
                    rhs = rhs + (t_mu * vt.var(t_name(cn.id, 0), 1, policy)
                                 ).scale(pair / 2)
            for k in range(max_level):
                lead = vt.var(t_name(cm.id, k + 1), 1, policy)
                for cb, v in zip(classes, c):
                    if v:
                        rhs = rhs + (lead * f.derivative(t_name(cb.id, k))
                                     ).scale(v)
        return f.derivative(t_name(w, 0)) - rhs

    string = equation(model.unit)
    dilaton = (f.derivative(t_name(model.unit, 1)) - point_count(f)
               + f.scale(2))
    divisor = equation(model.divisor) if model.has_divisor else None
    return EquationResiduals(string, dilaton, divisor)


def restrict_series_max_t_order(series: GradedSeries, max_order: int) -> GradedSeries:
    """Keep terms up to a t-order threshold.

    Identity residuals computed from a potential assembled out of an
    n-point-bounded table are reliable up to t-order n-3 (the window where
    every correlator the identity touches lies inside the table); this trims
    the unreliable tail before asserting exact zero.
    """
    policy = series.policy
    return series.truncate(
        replace(policy, max_t_order=min(policy.max_t_order, max_order)))


# -- quantum product ---------------------------------------------------------------


class QuantumProduct:
    """Structure constants c_{ab}^nu as polynomials in the curve classes."""

    def __init__(self, model: TargetModel, structure):
        self.model = model
        self.structure = structure  # (a, b, nu) -> {degree tuple: Fraction}

    def constant(self, a, b, nu) -> dict:
        return self.structure.get((a, b, nu), {})

    def unit_axiom_violations(self):
        model = self.model
        u = model.class_index(model.unit)
        bad = []
        for b in range(len(model.classes)):
            for nu in range(len(model.classes)):
                expect = {(0,) * model.h2_rank: Fraction(1)} if b == nu else {}
                got = {d: v for d, v in self.constant(u, b, nu).items() if v}
                if got != expect:
                    bad.append((b, nu, got))
        return bad

    def associativity_residuals(self):
        """WDVV: sum_nu c_{ab}^nu c_{nc}^s - c_{ac}^nu c_{nb}^s, z-convolved."""
        model = self.model
        n = len(model.classes)
        bad = {}
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    for s in range(n):
                        acc = {}
                        for nu in range(n):
                            acc = _zp_add(acc, _zp_mul(self.constant(a, b, nu),
                                                       self.constant(nu, c, s)))
                            acc = _zp_add(acc, _zp_scale(_zp_mul(
                                self.constant(a, c, nu), self.constant(nu, b, s)), -1))
                        if acc:
                            bad[(a, b, c, s)] = acc
        return bad


def quantum_product(model: TargetModel, table: CorrelatorTable) -> QuantumProduct:
    """c_{ab}^nu = sum_d <a b mu>_d z^d eta^{mu nu} from primary 3-point values,
    over the curve classes up to the table's largest degree."""
    top = max((sum(k.degree) for k in table.values), default=0)
    degs = _curve_classes(model, top)
    structure = {}
    n = len(model.classes)
    for a in range(n):
        for b in range(n):
            for mu in range(n):
                poly = {}
                for d in degs:
                    key = model.key([(model.classes[a].id, 0),
                                     (model.classes[b].id, 0),
                                     (model.classes[mu].id, 0)], d)
                    v = table.get(key)
                    if v:
                        poly[key.degree] = v
                if not poly:
                    continue
                for nu in range(n):
                    w = model.eta_inv[mu][nu]
                    if w:
                        k = (a, b, nu)
                        structure[k] = _zp_add(structure.get(k, {}), _zp_scale(poly, w))
    structure = {k: v for k, v in structure.items() if v}
    return QuantumProduct(model, structure)
