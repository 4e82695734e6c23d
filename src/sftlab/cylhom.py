"""Chain complexes over orbit generators with decorated differentials.

Count data lists matrix entries of a dressed differential: source and
target generators, a multiset of (class, level) insertions each either
free or constrained, a curve class, and an exact rational count.  From
these the module builds the plain differential, the decorated maps (one
free / one constrained insertion), homology with coefficients polynomial
in the curve-class variables, and the operator-level recursion residuals,
all on top of the graded-series engine.

Degree bookkeeping: an entry is homogeneous when

    deg(dst) + deg(z^d) - deg(src) = -1 + sum over insertions of w,

with w = deg t^{a,j} for a free insertion and deg tc^{a,j} (one lower) for
a constrained one.  With this rule every entry defines an odd operator, as
the recursion identities require.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Iterable, Optional

from . import linalg
from .algebra import (
    GradedSeries, TruncationPolicy, Variable, VariableTable,
    curve_class_variable, descendant_variable,
)
from .errors import LabelMismatchError, ValidationError
from .gw import (
    Bounds, CorrelatorTable, TargetModel, assemble_potential, descendant_table,
    t_name, tc_name, z_name,
)
from .linalg import _zp_add, _zp_mul
from .operators import LinearOperator

SECTION_CHOICES = ("(2,0)", "(1,1)", "(0,2)", "generic")


@dataclass(frozen=True)
class Orbit:
    id: str
    degree: int
    multiplicity: int = 1
    good: bool = True


@dataclass(frozen=True)
class Generator:
    orbit: str
    flavor: str  # "" in equivariant mode, "hat" or "check" otherwise
    degree: int

    @property
    def key(self):
        return (self.orbit, self.flavor)

    def __str__(self):
        return f"{self.orbit}.{self.flavor}" if self.flavor else self.orbit


class OrbitSet:
    """Good orbits generate; non-equivariant mode doubles each into a hat
    generator (same degree) and a check generator (degree + 1)."""

    def __init__(self, orbits: Iterable[Orbit], equivariant: bool):
        self.orbits = tuple(orbits)
        self.equivariant = bool(equivariant)
        ids = [o.id for o in self.orbits]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate orbit ids", "orbits")
        gens = []
        for o in self.orbits:
            if not o.good:
                continue
            if self.equivariant:
                gens.append(Generator(o.id, "", o.degree))
            else:
                gens.append(Generator(o.id, "hat", o.degree))
                gens.append(Generator(o.id, "check", o.degree + 1))
        self.generators = tuple(gens)
        self._index = {g.key: i for i, g in enumerate(self.generators)}
        self._orbit = {o.id: o for o in self.orbits}

    def index(self, key) -> int:
        try:
            return self._index[tuple(key)]
        except KeyError:
            raise ValidationError(f"unknown generator {key}", "generators") from None

    def orbit(self, oid: str) -> Orbit:
        return self._orbit[oid]


@dataclass(frozen=True)
class Insertion:
    class_id: str
    level: int
    constrained: bool = False


@dataclass(frozen=True)
class CountEntry:
    src: tuple  # generator key (orbit, flavor)
    dst: tuple
    insertions: tuple  # Insertion, ...
    degree: tuple  # curve class exponents
    value: Fraction


class CountData:
    def __init__(self, entries, section_choice="generic"):
        if section_choice not in SECTION_CHOICES:
            raise ValidationError(
                f"section choice {section_choice!r} not one of {SECTION_CHOICES}",
                "section_choice")
        self.section_choice = section_choice
        self.entries = tuple(entries)


class ChainComplexData:
    """Orbit generators, counts, and the associated target model.

    ``table`` holds the correlator values whose potential enters the
    recursion identities; ``fiber_model``/``fiber_table``/``wedge_map`` are
    set by the Floer-case generator and drive the block comparisons.
    """

    def __init__(self, orbits: OrbitSet, counts: CountData, model: TargetModel,
                 table: CorrelatorTable, level_bound: int = 2, t_order: int = 2,
                 contact: bool = False, fiber_model: Optional[TargetModel] = None,
                 fiber_table: Optional[CorrelatorTable] = None,
                 wedge_map: Optional[dict] = None, name: str = "chain-data",
                 internal: bool = False):
        self.orbits = orbits
        self.counts = counts
        self.model = model
        self.table = table
        self.level_bound = int(level_bound)
        self.t_order = int(t_order)
        self.contact = bool(contact)
        self.fiber_model = fiber_model
        self.fiber_table = fiber_table
        self.wedge_map = dict(wedge_map) if wedge_map else None
        self.name = name
        # internal data (block extractions, Floer restrictions) may carry
        # constrained insertions on a single-flavor generator set
        self.internal = bool(internal)
        self._validate()

    def _validate(self):
        gens = self.orbits
        for n, e in enumerate(self.counts.entries):
            path = f"entries[{n}]"
            gens.index(e.src)
            gens.index(e.dst)
            if len(e.degree) != self.model.h2_rank:
                raise ValidationError("curve class length mismatch", f"{path}.degree")
            if any(x < 0 for x in e.degree):
                raise ValidationError("negative curve-class exponent",
                                      f"{path}.degree")
            constrained = [i for i in e.insertions if i.constrained]
            if constrained and self.orbits.equivariant and not self.internal:
                raise ValidationError(
                    "constrained insertion in equivariant mode", f"{path}.insertions")
            if len(constrained) > 1:
                raise ValidationError("more than one constrained insertion",
                                      f"{path}.insertions")
            for i in e.insertions:
                self.model.class_index(i.class_id)
                if i.level < 0 or i.level > self.level_bound:
                    raise ValidationError(f"level {i.level} outside 0..{self.level_bound}",
                                          f"{path}.insertions")
            self._check_degree_rule(e, path)

    def _check_degree_rule(self, e: CountEntry, path: str):
        gens = self.orbits
        src = gens.generators[gens.index(e.src)]
        dst = gens.generators[gens.index(e.dst)]
        zdeg = sum(-2 * c * d for c, d in zip(self.model.chern, e.degree))
        want = -1
        for i in e.insertions:
            w = 2 * (1 - i.level) - self.model.degree_of(i.class_id)
            if i.constrained:
                w -= 1
            want += w
        if dst.degree + zdeg - src.degree != want:
            raise ValidationError(
                f"entry degree mismatch: dst {dst.degree} + z {zdeg} - src "
                f"{src.degree} != -1 + insertion weights {want + 1}", path)

    def perturbed(self, entry_index: int, new_value) -> "ChainComplexData":
        """Copy with one count replaced (fault injection)."""
        entries = list(self.counts.entries)
        entries[entry_index] = replace(entries[entry_index],
                                       value=Fraction(new_value))
        return ChainComplexData(
            self.orbits, CountData(entries, self.counts.section_choice),
            self.model, self.table, self.level_bound, self.t_order, self.contact,
            self.fiber_model, self.fiber_table, self.wedge_map,
            name=self.name + "+fault")


# -- z-polynomial sparse matrices -------------------------------------------------


class LinearChainMap:
    """Sparse matrix over z-polynomials with a declared map degree."""

    def __init__(self, orbits: OrbitSet, entries=None, degree: Optional[int] = None):
        self.orbits = orbits
        self.entries = {}  # (dst_idx, src_idx) -> zpoly
        for k, poly in (entries or {}).items():
            poly = {d: Fraction(v) for d, v in poly.items() if v}
            if poly:
                self.entries[k] = poly
        self.degree = degree

    def add_term(self, dst: int, src: int, degree_vec: tuple, value: Fraction):
        poly = self.entries.setdefault((dst, src), {})
        s = poly.get(degree_vec, Fraction(0)) + value
        if s:
            poly[degree_vec] = s
        else:
            poly.pop(degree_vec, None)
            if not poly:
                del self.entries[(dst, src)]

    def is_zero(self) -> bool:
        return not self.entries

    def compose(self, other: "LinearChainMap") -> "LinearChainMap":
        out = LinearChainMap(self.orbits, degree=_add_deg(self.degree, other.degree))
        for (mid2, src), p2 in other.entries.items():
            for (dst, mid), p1 in self.entries.items():
                if mid != mid2:
                    continue
                prod = _zp_mul(p1, p2)
                for d, v in prod.items():
                    out.add_term(dst, src, d, v)
        return out

    def __sub__(self, other):
        out = LinearChainMap(self.orbits, degree=self.degree)
        out.entries = {k: dict(p) for k, p in self.entries.items()}
        for k, p in other.entries.items():
            for d, v in p.items():
                out.add_term(k[0], k[1], d, -v)
        return out

    def __eq__(self, other):
        return isinstance(other, LinearChainMap) and self.entries == other.entries

    def block(self, dst_flavor: str, src_flavor: str) -> dict:
        """Entries restricted to generator flavors, reindexed by orbit id."""
        gens = self.orbits.generators
        out = {}
        for (dst, src), poly in self.entries.items():
            if gens[dst].flavor == dst_flavor and gens[src].flavor == src_flavor:
                out[(gens[dst].orbit, gens[src].orbit)] = poly
        return out

    def items_sorted(self):
        gens = self.orbits.generators
        return sorted(
            ((str(gens[d]), str(gens[s]), tuple(sorted(p.items())))
             for (d, s), p in self.entries.items()))


def _add_deg(a, b):
    return None if a is None or b is None else a + b


@dataclass
class DifferentialMaps:
    plain: LinearChainMap
    decorated: dict  # (class_id, level, constrained) -> LinearChainMap


def build_differential(data: ChainComplexData) -> DifferentialMaps:
    """Plain differential from insertion-free entries; one decorated map per
    single-insertion signature."""
    orbits = data.orbits
    plain = LinearChainMap(orbits, degree=-1)
    decorated = {}
    for e in data.counts.entries:
        src = orbits.index(e.src)
        dst = orbits.index(e.dst)
        if not e.insertions:
            plain.add_term(dst, src, e.degree, e.value)
        elif len(e.insertions) == 1:
            ins = e.insertions[0]
            sig = (ins.class_id, ins.level, ins.constrained)
            m = decorated.get(sig)
            if m is None:
                w = 2 * (1 - ins.level) - data.model.degree_of(ins.class_id)
                if ins.constrained:
                    w -= 1
                m = decorated[sig] = LinearChainMap(orbits, degree=-1 + w)
            m.add_term(dst, src, e.degree, e.value)
    return DifferentialMaps(plain, decorated)


def d_squared_residual(data: ChainComplexData):
    """(residual map, offending generator pairs) for the plain differential."""
    d = build_differential(data).plain
    r = d.compose(d)
    gens = data.orbits.generators
    offending = sorted({(str(gens[s]), str(gens[dst]))
                        for (dst, s) in r.entries})
    return r, offending


# -- homology ---------------------------------------------------------------------


@dataclass
class HomologyResult:
    betti: dict  # degree -> rank
    representatives: dict  # degree -> list of {generator name: z-polynomial}

    def total(self):
        return sum(self.betti.values())


def _degree_modulus(model: TargetModel):
    """Coefficients polynomial in z shift degrees by the z-degree lattice;
    grading survives modulo the gcd of those shifts."""
    from math import gcd
    g = 0
    for c in model.chern:
        g = gcd(g, abs(2 * c))
    return g or None


def compute_homology(data: ChainComplexData) -> HomologyResult:
    """Betti numbers per degree and representative cycles for the plain
    differential; requires d^2 = 0.

    With curve-class coefficients of nonzero degree the grading only
    survives modulo the z-degree lattice; blocks are then degree classes.
    """
    r, offending = d_squared_residual(data)
    if not r.is_zero():
        raise ValidationError(f"differential does not square to zero: {offending}",
                              "counts")
    d = build_differential(data).plain
    gens = data.orbits.generators
    width = data.model.h2_rank
    modulus = _degree_modulus(data.model)
    by_degree = {}
    for i, g in enumerate(gens):
        key = g.degree if modulus is None else g.degree % modulus
        by_degree.setdefault(key, []).append(i)
    betti = {}
    reps = {}
    for deg, idxs in sorted(by_degree.items()):
        if modulus is None:
            below = by_degree.get(deg - 1, [])
            above = by_degree.get(deg + 1, [])
        else:
            below = by_degree.get((deg - 1) % modulus, [])
            above = by_degree.get((deg + 1) % modulus, [])
        mat_out = [[d.entries.get((b, s), {}) for s in idxs] for b in below]
        mat_in = [[d.entries.get((t, a), {}) for a in above] for t in idxs]
        b = len(idxs) - linalg.rank(mat_out) - linalg.rank(mat_in)
        betti[deg] = b
        if b <= 0:
            continue
        if below:
            cycles = linalg.kernel(mat_out, width)
        else:
            one = {(0,) * width: Fraction(1)}
            cycles = [[one if j == k else {} for j in range(len(idxs))]
                      for k in range(len(idxs))]
        # greedily keep cycles independent modulo the boundaries
        span = [list(row) for row in mat_in]
        chosen = []
        for vec in cycles:
            if len(chosen) == b:
                break
            if not linalg.in_span(span, vec):
                chosen.append(vec)
                for row, x in zip(span, vec):
                    row.append(x)
        reps[deg] = [{str(gens[idxs[j]]): x for j, x in enumerate(vec) if x}
                     for vec in chosen]
    return HomologyResult(betti, reps)


# -- dressed operators -------------------------------------------------------------


def chain_variable_table(data: ChainComplexData,
                         model: Optional[TargetModel] = None) -> VariableTable:
    """One q variable per generator plus t / t-check / z variables."""
    model = model or data.model
    vs = []
    for g in data.orbits.generators:
        flavor_rank = {"": 0, "hat": 0, "check": 1}[g.flavor]
        vs.append(Variable(f"q[{g.orbit}|{g.flavor}]", "q",
                           (g.orbit, flavor_rank), g.degree,
                           data.orbits.orbit(g.orbit).multiplicity))
    for c in model.classes:
        for a in range(data.level_bound + 1):
            vs.append(descendant_variable(c.id, a, c.degree, False))
            vs.append(descendant_variable(c.id, a, c.degree, True))
    for i in range(model.h2_rank):
        vs.append(curve_class_variable(i, model.chern[i]))
    return VariableTable(vs)


def q_var_name(gen_key) -> str:
    orbit, flavor = gen_key
    return f"q[{orbit}|{flavor}]"


class DressedComplex:
    """Operator realization of count data on a graded-series chain space."""

    def __init__(self, data: ChainComplexData, entries=None,
                 model: Optional[TargetModel] = None,
                 table: Optional[CorrelatorTable] = None):
        self.data = data
        self.model = model or data.model
        self.corr = table if table is not None else data.table
        self.vt = chain_variable_table(data, self.model)
        # the potential must stay complete two derivative orders beyond the
        # window where residuals are asserted
        self.policy = TruncationPolicy(max_t_order=data.t_order + 2,
                                       max_pq_order=2)
        self.entries = tuple(entries if entries is not None
                             else data.counts.entries)
        self._potential = None

    # series-level pieces -------------------------------------------------

    def potential(self) -> GradedSeries:
        if self._potential is None:
            self._potential = assemble_potential(
                self.corr, self.policy, var_table=descendant_table(
                    self.model, self.data.level_bound),)
            # re-embed into the chain variable table
            self._potential = self._embed(self._potential)
        return self._potential

    def _embed(self, series: GradedSeries) -> GradedSeries:
        terms = {}
        src = series.table
        for mono, c in series.terms.items():
            factors = {src.variables[p].name: e for p, e in mono}
            key = tuple(sorted((self.vt.position(n), e) for n, e in factors.items()))
            terms[key] = c
        return GradedSeries(self.vt, terms, self.policy)

    def second_derivative_series(self, alpha: str, i: int):
        """d^2 f / dt^{alpha,i} dt^{mu,0} eta^{mu nu}, indexed by nu."""
        f = self.potential()
        base = f.derivative(t_name(alpha, i))
        out = []
        for nu in range(len(self.model.classes)):
            acc = self.vt.zero(self.policy)
            for mu in range(len(self.model.classes)):
                w = self.model.eta_inv[mu][nu]
                if w:
                    acc = acc + base.derivative(
                        t_name(self.model.classes[mu].id, 0)).scale(w)
            out.append(acc)
        return out

    # operators ----------------------------------------------------------------

    def dressed_differential(self) -> LinearOperator:
        vt = self.vt
        policy = self.policy
        prepared = []
        for e in self.entries:
            factors = {q_var_name(e.dst): 1}
            for ins in e.insertions:
                nm = (tc_name if ins.constrained else t_name)(ins.class_id, ins.level)
                factors[nm] = factors.get(nm, 0) + 1
            for i, d in enumerate(e.degree):
                if d:
                    factors[z_name(i)] = d
            mult = vt.monomial(factors, e.value, policy)
            prepared.append((mult, q_var_name(e.src)))

        def apply(series):
            out = vt.zero(policy)
            for mult, src in prepared:
                der = series.derivative(src)
                if der:
                    out = out + mult * der
            return out

        return LinearOperator(apply, degree=None, label="dressed-d")

    def derivative_op(self, name: str) -> LinearOperator:
        return LinearOperator(lambda s: s.derivative(name), label=f"d/d{name}")

    def decorated(self, alpha: str, i: int, constrained: bool) -> LinearOperator:
        nm = (tc_name if constrained else t_name)(alpha, i)
        dd = self.dressed_differential()
        return self.derivative_op(nm).compose(dd)

    def point_count_op(self) -> LinearOperator:
        def count_plain(series):
            vt = series.table
            return series.map_terms(
                lambda m: sum(e for p, e in m if vt.kinds[p] == "t"))

        return LinearOperator(count_plain, 0, "N")

    def release_op(self) -> LinearOperator:
        """Sum of t^{a,j} d/d tc^{a,j} over the declared classes and levels."""
        vt = self.vt
        pairs = [(t_name(c.id, a), tc_name(c.id, a))
                 for c in self.model.classes
                 for a in range(self.data.level_bound + 1)]

        def apply(series):
            out = vt.zero(series.policy)
            for tn, cn in pairs:
                der = series.derivative(cn)
                if der:
                    out = out + vt.var(tn, 1, series.policy) * der
            return out

        return LinearOperator(apply, 1, "Ncheck")

    # spanning-set evaluation ------------------------------------------------

    def arguments(self, max_arg_order: Optional[int] = None):
        """Generators dressed with plain-t monomials up to a given order."""
        vt = self.vt
        cap = self.data.t_order if max_arg_order is None else max_arg_order
        tvars = [t_name(c.id, a) for c in self.model.classes
                 for a in range(self.data.level_bound + 1)]
        monomials = [()]
        for k in range(1, cap + 1):
            monomials.extend(combinations_with_replacement(tvars, k))
        for g in self.data.orbits.generators:
            qn = q_var_name(g.key)
            for mono in monomials:
                factors = {qn: 1}
                ok = True
                for nm in mono:
                    factors[nm] = factors.get(nm, 0) + 1
                    if vt.variable(nm).odd and factors[nm] > 1:
                        ok = False
                        break
                if ok:
                    yield (g, mono), self.vt.monomial(factors, 1, self.policy)

    def operator_residual(self, op: LinearOperator, max_arg_order=None):
        """Evaluate an operator over the spanning set; collect nonzero hits."""
        witnesses = []
        for label, arg in self.arguments(max_arg_order):
            out = op(arg)
            out = out.truncate(TruncationPolicy(max_t_order=self.data.t_order,
                                                max_pq_order=2))
            if not out.is_zero():
                witnesses.append((label, out))
        return witnesses


@dataclass
class ResidualReport:
    name: str
    zero: bool
    witnesses: list = field(default_factory=list)

    def summary(self):
        if self.zero:
            return f"{self.name}: residual 0"
        (g, mono), out = self.witnesses[0]
        return (f"{self.name}: nonzero residual, e.g. on {g}"
                f"{(' * ' + '*'.join(mono)) if mono else ''} -> {out}")


def _trr_residual_operator(cx: DressedComplex, variant: str, alpha: str, i: int,
                           equivariant: bool = False):
    """LHS - RHS of one recursion identity as a single operator.

    Non-equivariant form decorates with constrained insertions; the
    equivariant form decorates with free insertions and carries the extra
    anticommutator (with the constrained previous-level map) in its (1,1)
    and (0,2) corrections.
    """
    from .operators import graded_anticommutator

    model = cx.model
    dd = LinearOperator(cx.dressed_differential(), degree=1, label="d")
    lhs_con = not equivariant
    lhs_map = cx.decorated(alpha, i, lhs_con)
    two = cx.second_derivative_series(alpha, i - 1)
    n_op = cx.point_count_op()
    release = cx.release_op()

    def rhs_f_term(post):
        level0 = [cx.decorated(cls.id, 0, lhs_con) for cls in model.classes]

        def apply(series):
            out = cx.vt.zero(series.policy)
            for nu in range(len(model.classes)):
                if two[nu].is_zero():
                    continue
                out = out + two[nu] * post(level0[nu](series))
            return out
        return LinearOperator(apply, label="f-term")

    def prev_map(constrained):
        op = cx.decorated(alpha, i - 1, constrained)
        return LinearOperator(op, degree=_decorated_parity(model, alpha, i - 1,
                                                           constrained),
                              label=f"d({alpha},{i-1})")

    def corrections(ncheck_dress, n_dress):
        """Anticommutators of previous-level maps with dressed differentials.

        Non-equivariant data pairs the constrained previous level with the
        release-dressed differential; equivariant data adds the constrained
        previous level against the plain-counted one.
        """
        if not equivariant:
            return [graded_anticommutator(prev_map(True), ncheck_dress)]
        return [graded_anticommutator(prev_map(False), ncheck_dress),
                graded_anticommutator(prev_map(True), n_dress)]

    if variant == "(2,0)":
        rhs = rhs_f_term(lambda s: s)
        return LinearOperator(lambda s: lhs_map(s) - rhs(s),
                              label=f"trr(2,0)[{alpha},{i}]")
    if variant == "(1,1)":
        rhs = rhs_f_term(n_op)
        ncheck_d = LinearOperator(release.compose(dd), degree=0, label="Nc.d")
        n_d = LinearOperator(lambda s: n_op(dd(s)), degree=1, label="N.d")
        corrs = corrections(ncheck_d, n_d)

        def apply11(s):
            out = n_op(lhs_map(s)) - rhs(s)
            for corr in corrs:
                out = out - corr(s).scale(Fraction(1, 2))
            return out
        return LinearOperator(apply11, label=f"trr(1,1)[{alpha},{i}]")
    if variant == "(0,2)":
        def nn1(s):
            return n_op(n_op(s)) - n_op(s)
        rhs = rhs_f_term(nn1)
        nm1_d = LinearOperator(lambda s: n_op(dd(s)) - dd(s), degree=1,
                               label="(N-1)d")
        nc_nm1_d = LinearOperator(release.compose(nm1_d), degree=0,
                                  label="Nc(N-1)d")
        n_nm1_d = LinearOperator(lambda s: n_op(nm1_d(s)), degree=1,
                                 label="N(N-1)d")
        corrs = corrections(nc_nm1_d, n_nm1_d)

        def apply02(s):
            out = nn1(lhs_map(s)) - rhs(s)
            for corr in corrs:
                out = out - corr(s)
            return out
        return LinearOperator(apply02, label=f"trr(0,2)[{alpha},{i}]")
    raise ValidationError(f"unknown recursion variant {variant!r}", "variant")


def _decorated_parity(model, alpha, i, constrained):
    # parity of d/dt(check) composed with the dressed differential: every
    # valid entry term is odd, the stripped variable contributes its degree
    w = 2 * (1 - i) - model.degree_of(alpha)
    if constrained:
        w -= 1
    return (w + 1) % 2


def noneq_trr_residuals(data: ChainComplexData, variant: str,
                        max_arg_order: Optional[int] = None):
    """Residual reports of one recursion identity on non-equivariant data.

    The data's section choice must match the requested identity; "generic"
    data instead gets the (2,0) residual tested for exactness on homology.
    """
    if data.orbits.equivariant:
        raise ValidationError("need non-equivariant data", "orbits")
    label = data.counts.section_choice
    if label == "generic":
        if variant != "(2,0)":
            raise LabelMismatchError(
                f"generic data only supports the homology-level (2,0) check, "
                f"not {variant}")
        return generic_exactness_report(data)
    if label != variant:
        raise LabelMismatchError(
            f"data is labeled {label!r}; checking the {variant} identity "
            f"against it is rejected")
    cx = DressedComplex(data)
    reports = []
    for cls in data.model.classes:
        for i in range(1, data.level_bound + 1):
            op = _trr_residual_operator(cx, variant, cls.id, i)
            w = cx.operator_residual(op, max_arg_order)
            reports.append(ResidualReport(f"{variant} alpha={cls.id} i={i}",
                                          not w, w))
    return reports


def generic_exactness_report(data: ChainComplexData):
    """(2,0) residual at t = 0 must map cycles into the image of the
    differential (exactness on homology) for generic section choices."""
    maps = build_differential(data)
    reports = []
    for cls in data.model.classes:
        for i in range(1, data.level_bound + 1):
            lhs = maps.decorated.get((cls.id, i, True),
                                     LinearChainMap(data.orbits))
            rhs = _f_term_matrix(data, maps, cls.id, i)
            residual = lhs - rhs
            ok, witness = _exact_on_cycles(data, maps.plain, residual)
            reports.append(ResidualReport(
                f"(2,0) on homology alpha={cls.id} i={i}", ok,
                [] if ok else [witness]))
    return reports


def _f_term_matrix(data: ChainComplexData, maps: DifferentialMaps,
                   alpha: str, i: int) -> LinearChainMap:
    """Sum_mu,nu d2f/dt^{alpha,i-1}dt^{mu,0}|_{t=0} eta^{mu nu} decorated(nu)
    as a matrix (t = 0 coefficient: the 2-point slot of the potential)."""
    model = data.model
    out = LinearChainMap(data.orbits)
    for mu, cm in enumerate(model.classes):
        coeff = {}
        # t=0 coefficient of d2f/dt dt is a 2-point correlator: zero by the
        # stability convention except through explicitly stored table entries
        for key, v in data.table.values.items():
            if (len(key.insertions) == 2
                    and sorted(key.insertions) == sorted(
                        ((alpha, i - 1), (cm.id, 0)))):
                coeff[key.degree] = v
        if not coeff:
            continue
        for nu, cn in enumerate(model.classes):
            w = model.eta_inv[mu][nu]
            if not w:
                continue
            dec = maps.decorated.get((cn.id, 0, True))
            if dec is None:
                continue
            for (dst, src), poly in dec.entries.items():
                for dp, dv in poly.items():
                    for dc, cv in coeff.items():
                        d = tuple(a + b for a, b in zip(dp, dc))
                        out.add_term(dst, src, d, w * cv * dv)
    return out


def _exact_on_cycles(data: ChainComplexData, plain: LinearChainMap,
                     residual: LinearChainMap):
    """Does the residual map every cycle into the image of the differential?"""
    if residual.is_zero():
        return True, None
    gens = data.orbits.generators
    width = data.model.h2_rank
    n = len(gens)
    dmat = [[plain.entries.get((i, j), {}) for j in range(n)] for i in range(n)]
    for vec in linalg.kernel(dmat, width):
        img = [{} for _ in range(n)]
        for (i, j), poly in residual.entries.items():
            if vec[j]:
                img[i] = _zp_add(img[i], _zp_mul(poly, vec[j]))
        if not any(img):
            continue
        if not linalg.in_span(dmat, img):
            witness = (("cycle", tuple(str(gens[j]) for j in range(n) if vec[j])),
                       None)
            return False, witness
    return True, None


# -- block extraction and the Floer case --------------------------------------------


@dataclass
class BlockExtraction:
    data: ChainComplexData        # single-flavor data realizing the extraction
    plain_blocks_equal: bool      # hat-hat against check-check
    offdiag_plain_zero: bool      # connecting map hat -> check of the plain part
    identification_consistent: bool  # free diagonal against constrained offdiagonal


def extract_equivariant(data: ChainComplexData,
                        source_flavor: str = "hat") -> BlockExtraction:
    """Single-complex data from the hat/check block structure.

    The plain differential and the constrained decorations restrict from
    the diagonal blocks; the free decorations come from the diagonal free
    entries, identified with the constrained hat-to-check block when both
    exist.
    """
    if data.orbits.equivariant:
        raise ValidationError("data is already equivariant", "orbits")
    if source_flavor not in ("hat", "check"):
        raise ValidationError("source flavor must be hat or check", "flavor")
    orbit_set = OrbitSet(data.orbits.orbits, equivariant=True)
    entries = []
    free_diag = {}
    con_offdiag = {}
    plain_blocks = {"hat": {}, "check": {}}
    offdiag_plain = {}
    for e in data.counts.entries:
        sflav, dflav = e.src[1], e.dst[1]
        key = ((e.src[0],), (e.dst[0],))
        if not e.insertions:
            if sflav == dflav:
                plain_blocks[sflav].setdefault(
                    (e.src[0], e.dst[0], e.degree), Fraction(0))
                plain_blocks[sflav][(e.src[0], e.dst[0], e.degree)] += e.value
            elif sflav == "hat" and dflav == "check":
                offdiag_plain[(e.src[0], e.dst[0], e.degree)] = e.value
            continue
        constrained = any(i.constrained for i in e.insertions)
        if sflav == dflav == source_flavor:
            if constrained:
                entries.append(CountEntry((e.src[0], ""), (e.dst[0], ""),
                                          e.insertions, e.degree, e.value))
            else:
                free_diag.setdefault(_sig(e), []).append(e)
        elif sflav == "hat" and dflav == "check" and constrained:
            con_offdiag.setdefault(_sig(e), []).append(e)
    # plain part from the chosen diagonal block
    for (src, dst, deg), v in plain_blocks[source_flavor].items():
        if v:
            entries.append(CountEntry((src, ""), (dst, ""), (), deg, v))
    blocks_equal = _normalize_block(plain_blocks["hat"]) == \
        _normalize_block(plain_blocks["check"])
    # free decorations: diagonal free entries, or the constrained
    # hat-to-check block with its insertion released
    consistent = True
    seen = set()
    for sig, es in free_diag.items():
        seen.add(sig)
        for e in es:
            entries.append(CountEntry((e.src[0], ""), (e.dst[0], ""),
                                      e.insertions, e.degree, e.value))
        other = con_offdiag.get(sig)
        if other is not None:
            if _entry_matrix(es) != _entry_matrix(other):
                consistent = False
    for sig, es in con_offdiag.items():
        if sig in seen:
            continue
        for e in es:
            released = tuple(Insertion(i.class_id, i.level, False)
                             for i in e.insertions)
            entries.append(CountEntry((e.src[0], ""), (e.dst[0], ""),
                                      released, e.degree, e.value))
    eq = ChainComplexData(
        orbit_set, CountData(entries, data.counts.section_choice), data.model,
        data.table, data.level_bound, data.t_order, data.contact,
        data.fiber_model, data.fiber_table, data.wedge_map,
        name=data.name + f"/{source_flavor}-block", internal=True)
    return BlockExtraction(eq, blocks_equal, not any(offdiag_plain.values()),
                           consistent)


def _sig(e: CountEntry):
    return tuple(sorted((i.class_id, i.level, i.constrained)
                        for i in e.insertions))


def _entry_matrix(entries):
    out = {}
    for e in entries:
        k = (e.src[0], e.dst[0], e.degree)
        out[k] = out.get(k, Fraction(0)) + e.value
    return {k: v for k, v in out.items() if v}


def _normalize_block(block):
    return {k: v for k, v in block.items() if v}


def extract_floer(data: ChainComplexData) -> ChainComplexData:
    """Hat-block entries with fiber-class insertions, over the fiber model.

    This is the symplectic-Floer reading of a split product model: the
    fixed-period subcomplex with only fiber decorations.
    """
    if data.fiber_model is None or data.fiber_table is None:
        raise ValidationError("no fiber model attached", "fiber_model")
    fiber_ids = {c.id for c in data.fiber_model.classes}
    orbit_set = OrbitSet(data.orbits.orbits, equivariant=True)
    entries = []
    for e in data.counts.entries:
        if e.src[1] != "hat" or e.dst[1] != "hat":
            continue
        if any(i.class_id not in fiber_ids for i in e.insertions):
            continue
        entries.append(CountEntry((e.src[0], ""), (e.dst[0], ""),
                                  e.insertions, e.degree, e.value))
    return ChainComplexData(
        orbit_set, CountData(entries, data.counts.section_choice),
        data.fiber_model, data.fiber_table, data.level_bound, data.t_order,
        data.contact, name=data.name + "/floer", internal=True)


def equivariant_trr_residuals(data: ChainComplexData, variant: str,
                              source_flavor: str = "hat",
                              max_arg_order: Optional[int] = None,
                              classes: Optional[list] = None):
    """Residuals of the equivariant recursion identities on extracted blocks."""
    ext = extract_equivariant(data, source_flavor)
    cx = DressedComplex(ext.data)
    reports = []
    for cls in (classes or [c.id for c in data.model.classes]):
        for i in range(1, data.level_bound + 1):
            op = _trr_residual_operator(cx, variant, cls, i, equivariant=True)
            w = cx.operator_residual(op, max_arg_order)
            reports.append(ResidualReport(
                f"eq {variant} alpha={cls} i={i} [{source_flavor}]", not w, w))
    return reports


def _witness_signature(witnesses, rename=None):
    """Canonical (generator-orbit, argument, output-terms) set for comparison."""
    out = []
    for (g, mono), series in witnesses:
        mono = tuple(rename.get(nm, nm) for nm in mono) if rename else mono
        terms = []
        for m, c in series.sorted_terms():
            names = tuple((series.table.variables[p].name, e) for p, e in m)
            if rename:
                names = tuple((rename.get(nm, nm), e) for nm, e in names)
            terms.append((names, c))
        out.append((g.orbit, mono, tuple(terms)))
    return sorted(out)


@dataclass
class BlockComparison:
    variant: str
    hat_check_equal: bool     # residuals from hat blocks == from check blocks
    floer_match: bool         # wedged-class equivariant == fiber-class Floer
    details: list = field(default_factory=list)


def compare_equivariant_floer(data: ChainComplexData, variant: str,
                              max_arg_order: int = 1) -> BlockComparison:
    """The split-model reductions, block by block.

    (i) the hat- and check-block extractions give identical equivariant
    residuals; (ii) the equivariant residual at a wedged class equals the
    Floer residual at the underlying fiber class, on fiber-dressed
    arguments.
    """
    if not data.wedge_map:
        raise ValidationError("no wedge map attached", "wedge_map")
    details = []
    hat = {}
    check = {}
    for flavor, store in (("hat", hat), ("check", check)):
        ext = extract_equivariant(data, flavor)
        cx = DressedComplex(ext.data)
        fiber_classes = [c.id for c in data.fiber_model.classes]
        for fc in fiber_classes:
            wc = data.wedge_map[fc]
            for i in range(1, data.level_bound + 1):
                op = _trr_residual_operator(cx, variant, wc, i, equivariant=True)
                w = _eval_on_fiber_args(cx, op, data, max_arg_order)
                store[(fc, i)] = _witness_signature(w)
    hat_check_equal = hat == check
    if not hat_check_equal:
        details.append("hat and check extractions disagree")
    fl = extract_floer(data)
    fcx = DressedComplex(fl)
    floer_match = True
    for fc in [c.id for c in data.fiber_model.classes]:
        for i in range(1, data.level_bound + 1):
            op = _trr_residual_operator(fcx, variant, fc, i, equivariant=False)
            w = fcx.operator_residual(op, max_arg_order)
            if _witness_signature(w) != hat[(fc, i)]:
                floer_match = False
                details.append(f"mismatch at class {fc}, level {i}")
    return BlockComparison(variant, hat_check_equal, floer_match, details)


def _eval_on_fiber_args(cx: DressedComplex, op, data, max_arg_order):
    """Residual evaluation restricted to fiber-class t-monomial dressings."""
    fiber_ids = {c.id for c in data.fiber_model.classes}
    witnesses = []
    for (g, mono), arg in cx.arguments(max_arg_order):
        if any(nm.split("[", 1)[1].rsplit(",", 1)[0] not in fiber_ids
               for nm in mono):
            continue
        out = op(arg).truncate(TruncationPolicy(max_t_order=data.t_order,
                                                max_pq_order=2))
        if not out.is_zero():
            witnesses.append(((g, mono), out))
    return witnesses


# -- contact vanishing and the quantum action ----------------------------------------


@dataclass
class ContactVanishingReport:
    applicable: bool
    reason: str = ""
    checked: list = field(default_factory=list)  # (class, level, zero on homology)

    @property
    def passed(self):
        return self.applicable and all(ok for _, _, ok in self.checked)


def contact_vanishing(data: ChainComplexData) -> ContactVanishingReport:
    """Level >= 1 decorated maps must vanish on homology for contact models.

    The level-0 maps are exempt.  Non-contact models are reported as not
    applicable rather than checked.
    """
    if not data.contact:
        return ContactVanishingReport(False, "model is not flagged contact")
    ext = extract_equivariant(data, "hat") if not data.orbits.equivariant else None
    eq = ext.data if ext else data
    maps = build_differential(eq)
    plain = maps.plain
    checked = []
    for cls in eq.model.classes:
        for p in range(1, eq.level_bound + 1):
            dec = maps.decorated.get((cls.id, p, False))
            if dec is None or dec.is_zero():
                checked.append((cls.id, p, True))
                continue
            ok, _ = _exact_on_cycles(eq, plain, dec)
            checked.append((cls.id, p, ok))
    return ContactVanishingReport(True, "", checked)


@dataclass
class QuantumActionReport:
    descends: bool
    unit_ok: bool
    composition_ok: bool
    failures: list = field(default_factory=list)

    @property
    def passed(self):
        return self.descends and self.unit_ok and self.composition_ok


def quantum_action(data: ChainComplexData,
                   model: Optional[TargetModel] = None) -> QuantumActionReport:
    """Action of the cohomology classes by constrained level-0 maps at t = 0.

    Checks, on homology: the maps commute with the differential up to
    boundaries, the unit class acts as the identity, and composition agrees
    with the three-point structure constants contracted with the inverse
    pairing.
    """
    model = model or data.model
    maps = build_differential(data)
    plain = maps.plain
    gens = data.orbits.generators
    n = len(gens)
    width = data.model.h2_rank
    failures = []
    actions = {}
    for cls in model.classes:
        actions[cls.id] = maps.decorated.get((cls.id, 0, True),
                                             LinearChainMap(data.orbits))
    descends = True
    for cid, act in actions.items():
        comm = plain.compose(act) - act.compose(plain)
        ok, _ = _exact_on_cycles(data, plain, comm)
        if not ok:
            descends = False
            failures.append(f"action of {cid} does not descend")
    unit_act = actions[model.unit]
    ident = LinearChainMap(data.orbits)
    for i in range(n):
        ident.add_term(i, i, (0,) * width, Fraction(1))
    ok, _ = _exact_on_cycles(data, plain, unit_act - ident)
    unit_ok = ok
    if not ok:
        failures.append("unit class does not act as the identity on homology")
    composition_ok = True
    classes = model.classes
    for a in classes:
        for b in classes:
            lhs = actions[a.id].compose(actions[b.id])
            rhs = LinearChainMap(data.orbits)
            for mu in range(len(classes)):
                key3 = {}
                for key, v in data.table.values.items():
                    if len(key.insertions) != 3:
                        continue
                    if all(lv == 0 for _, lv in key.insertions) and sorted(
                            key.insertions) == sorted(
                                ((a.id, 0), (b.id, 0), (classes[mu].id, 0))):
                        key3[key.degree] = v
                if not key3:
                    continue
                for nu in range(len(classes)):
                    w = model.eta_inv[mu][nu]
                    if not w:
                        continue
                    act = actions[classes[nu].id]
                    for (dst, src), poly in act.entries.items():
                        for dp, dv in poly.items():
                            for dc, cv in key3.items():
                                d = tuple(x + y for x, y in zip(dp, dc))
                                rhs.add_term(dst, src, d, w * cv * dv)
            residual = lhs - rhs
            ok, _ = _exact_on_cycles(data, plain, residual)
            if not ok:
                composition_ok = False
                failures.append(f"composition rule fails for ({a.id}, {b.id})")
    return QuantumActionReport(descends, unit_ok, composition_ok, failures)


# -- the split-model generator --------------------------------------------------------


def wedged_id(cid: str) -> str:
    return f"{cid}~dt"


def product_model(fiber: TargetModel) -> TargetModel:
    """Circle-times-fiber model: every class doubled by a degree+1 wedge,
    pairing between a class and its partner's wedge."""
    classes = [(c.id, c.degree) for c in fiber.classes]
    classes += [(wedged_id(c.id), c.degree + 1) for c in fiber.classes]
    nf = len(fiber.classes)
    eta = [[Fraction(0)] * (2 * nf) for _ in range(2 * nf)]
    for i in range(nf):
        for j in range(nf):
            eta[i][nf + j] = fiber.eta[i][j]
            eta[nf + i][j] = fiber.eta[i][j]
    return TargetModel(
        f"circle-x-{fiber.name}", classes, fiber.unit, eta,
        h2_rank=fiber.h2_rank, chern=fiber.chern,
        contact=(len(fiber.classes) == 1 and fiber.dimension == 0))


def product_table(fiber: TargetModel, fiber_table: CorrelatorTable,
                  vmodel: TargetModel) -> CorrelatorTable:
    """Correlators of the product model: one insertion wedged, same value."""
    out = CorrelatorTable(vmodel)
    for key, v in fiber_table.values.items():
        seen = set()
        for k in range(len(key.insertions)):
            cid, a = key.insertions[k]
            rest = key.insertions[:k] + key.insertions[k + 1:]
            vkey = vmodel.key(rest + ((wedged_id(cid), a),), key.degree)
            if vkey in seen:
                continue
            seen.add(vkey)
            out.set(vkey, v)
    return out


def build_floer_model(fiber: TargetModel, periods: int = 2, level_bound: int = 2,
                      t_order: int = 2, section_choice: str = "(2,0)",
                      max_degree: int = 0) -> ChainComplexData:
    """Test-bed chain data for a circle-times-fiber product.

    Generators come in hat/check pairs per fiber basis class and period
    (multiplicity = period).  Constrained fiber decorations realize the
    recursion relation seeded by quantum multiplication; the wedged classes
    mirror them as free decorations.  Wedged constrained maps are zero, the
    plain differential is zero, everything is block-diagonal.
    """
    from .gw import quantum_product, reconstruct

    bounds = Bounds(max_points=t_order + 4, max_level=level_bound,
                    max_degree=max_degree)
    fiber_table = reconstruct(fiber, bounds)
    vmodel = product_model(fiber)
    vtable = product_table(fiber, fiber_table, vmodel)
    qp = quantum_product(fiber, fiber_table, max_degree=max_degree)
    nf = len(fiber.classes)
    orbits = []
    for b in fiber.classes:
        for period in range(1, periods + 1):
            orbits.append(Orbit(f"{b.id}p{period}",
                                2 * (period - 1) - b.degree, period, True))
    orbit_set = OrbitSet(orbits, equivariant=False)

    # quantum multiplication matrices: class alpha sends basis b to b'
    def q_matrix(alpha: str):
        ai = fiber.class_index(alpha)
        out = {}
        for b in range(nf):
            for b2 in range(nf):
                poly = qp.constant(ai, b, b2)
                if poly:
                    out[(b, b2)] = poly
        return out

    # coefficient series [d2 f / dt^{alpha,i-1} dt^{mu,0}] per t-monomial
    fiber_vt = descendant_table(fiber, level_bound)
    policy = TruncationPolicy(max_t_order=t_order + 2)
    fiber_potential = assemble_potential(fiber_table, policy, var_table=fiber_vt)

    def f_series(alpha: str, i: int, mu: str):
        return fiber_potential.derivative(t_name(alpha, i - 1)).derivative(
            t_name(mu, 0))

    entries = []

    def emit(src_b, dst_b, period, flavor, insertions, dvec, value):
        entries.append(CountEntry(
            (f"{fiber.classes[src_b].id}p{period}", flavor),
            (f"{fiber.classes[dst_b].id}p{period}", flavor),
            tuple(insertions), dvec, Fraction(value)))

    zero_d = (0,) * fiber.h2_rank
    for alpha in fiber.classes:
        # level 0: plain quantum action, constrained on alpha and free on
        # the wedged partner
        for (b, b2), poly in q_matrix(alpha.id).items():
            for dvec, v in poly.items():
                for period in range(1, periods + 1):
                    for flavor in ("hat", "check"):
                        emit(b, b2, period, flavor,
                             [Insertion(alpha.id, 0, True)], dvec, v)
                        emit(b, b2, period, flavor,
                             [Insertion(wedged_id(alpha.id), 0, False)], dvec, v)
        # level >= 1 dressings from the recursion seed
        for i in range(1, level_bound + 1):
            acc = {}  # (b, b2, U-monomial, dvec) -> value
            for mu in range(nf):
                series = f_series(alpha.id, i, fiber.classes[mu].id)
                if series.is_zero():
                    continue
                for nu in range(nf):
                    w = fiber.eta_inv[mu][nu]
                    if not w:
                        continue
                    for (b, b2), poly in q_matrix(fiber.classes[nu].id).items():
                        for mono, c in series.terms.items():
                            u_factors = []
                            zshift = [0] * fiber.h2_rank
                            for p, e in mono:
                                var = fiber_vt.variables[p]
                                if var.kind == "z":
                                    zshift[var.indices[0]] += e
                                else:
                                    u_factors.extend(
                                        [(var.indices[0], var.indices[1])] * e)
                            for dvec, v in poly.items():
                                d = tuple(a + b_ for a, b_ in zip(dvec, zshift))
                                k = (b, b2, tuple(sorted(u_factors)), d)
                                acc[k] = acc.get(k, Fraction(0)) + w * c * v
            for (b, b2, u_factors, dvec), v in acc.items():
                if not v or len(u_factors) + 1 > t_order + 1:
                    continue
                ins = [Insertion(alpha.id, i, True)]
                ins += [Insertion(cid, lv, False) for cid, lv in u_factors]
                wins = [Insertion(wedged_id(alpha.id), i, False)]
                wins += [Insertion(cid, lv, False) for cid, lv in u_factors]
                for period in range(1, periods + 1):
                    for flavor in ("hat", "check"):
                        emit(b, b2, period, flavor, ins, dvec, v)
                        emit(b, b2, period, flavor, wins, dvec, v)

    wedge = {c.id: wedged_id(c.id) for c in fiber.classes}
    return ChainComplexData(
        orbit_set, CountData(entries, section_choice), vmodel, vtable,
        level_bound, t_order, contact=vmodel.contact,
        fiber_model=fiber, fiber_table=fiber_table, wedge_map=wedge,
        name=f"floer-{fiber.name}")
