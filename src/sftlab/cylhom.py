"""Chain complexes over orbit generators with decorated differentials.

Count data lists matrix entries of a dressed differential: source and
target generators, a multiset of (class, level) insertions each either
free or constrained, a curve class, and an exact rational count.  From
these the module builds the plain differential, the decorated maps (one
free / one constrained insertion), homology with coefficients polynomial
in the curve-class variables, and the chain-level recursion residuals
(one pass per argument), all on top of the graded-series engine.

Degree bookkeeping: an entry is homogeneous when

    deg(dst) + deg(z^d) - deg(src) = -1 + sum over insertions of w,

with w = deg t^{a,j} for a free insertion and deg tc^{a,j} (one lower) for
a constrained one.  With this rule every entry defines an odd operator, as
the recursion identities require.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import product
from math import gcd
from typing import Iterable, Optional

from . import linalg
from .algebra import (
    GradedSeries, TruncationPolicy, Variable, VariableTable, t_name, tc_name,
    z_name,
)
from .errors import LabelMismatchError, ValidationError, under_path
from .gw import (
    Bounds, CorrelatorTable, TargetModel, assemble_potential, descendant_table,
    quantum_product, reconstruct, second_derivative_series,
)
from .linalg import _zp_add, _zp_mul
from .operators import release_constrained_operator

SECTION_CHOICES = ("(2,0)", "(1,1)", "(0,2)", "generic")


@dataclass(frozen=True)
class Orbit:
    id: str
    degree: int
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

    def index(self, key) -> int:
        try:
            return self._index[tuple(key)]
        except KeyError:
            raise ValidationError(f"unknown generator {key}", "generators") from None


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


@dataclass(eq=False)
class ChainComplexData:
    """Orbit generators, count entries, and the associated target model.

    ``section_choice`` names the recursion identity the counts realize.
    ``table`` holds the correlator values whose potential enters the
    recursion identities; ``fiber_model``/``fiber_table`` are set by the
    Floer-case generator and drive the block comparisons.  Copies go
    through ``dataclasses.replace``, which validates again.
    """

    orbits: OrbitSet
    entries: tuple  # CountEntry, ...
    model: TargetModel
    table: CorrelatorTable
    section_choice: str = "generic"
    level_bound: int = 2
    t_order: int = 2
    contact: bool = False
    fiber_model: Optional[TargetModel] = None
    fiber_table: Optional[CorrelatorTable] = None
    name: str = "chain-data"

    def __post_init__(self):
        if self.section_choice not in SECTION_CHOICES:
            raise ValidationError(
                f"section choice {self.section_choice!r} not one of {SECTION_CHOICES}",
                "section_choice")
        self.entries = tuple(self.entries)
        gens = self.orbits
        for n, e in enumerate(self.entries):
            path = f"entries[{n}]"
            for end in ("src", "dst"):
                with under_path(f"{path}.{end}", item=True):
                    gens.index(getattr(e, end))
            if len(e.degree) != self.model.h2_rank:
                raise ValidationError("curve class length mismatch", f"{path}.degree")
            if any(x < 0 for x in e.degree):
                raise ValidationError("negative curve-class exponent",
                                      f"{path}.degree")
            if sum(i.constrained for i in e.insertions) > 1:
                raise ValidationError("more than one constrained insertion",
                                      f"{path}.insertions")
            for k, i in enumerate(e.insertions):
                ipath = f"{path}.insertions[{k}]"
                with under_path(ipath, item=True):
                    self.model.class_index(i.class_id)
                if i.level < 0 or i.level > self.level_bound:
                    raise ValidationError(f"level {i.level} outside 0..{self.level_bound}",
                                          ipath)
            self._check_degree_rule(e, path)
        # the potentials live on t-variables of levels 0..level_bound
        for name in ("table", "fiber_table"):
            table = getattr(self, name)
            for key in (table.values if table is not None else ()):
                if any(a > self.level_bound for _, a in key.insertions):
                    raise ValidationError(
                        f"value at {key} has a level above {self.level_bound}", name)

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
        entries = list(self.entries)
        entries[entry_index] = replace(entries[entry_index],
                                       value=Fraction(new_value))
        return replace(self, entries=entries, name=self.name + "+fault")


# -- z-polynomial sparse matrices -------------------------------------------------


class LinearChainMap:
    """Sparse matrix over z-polynomials."""

    def __init__(self, orbits: OrbitSet):
        self.orbits = orbits
        self.entries = {}  # (dst_idx, src_idx) -> zpoly

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
        out = LinearChainMap(self.orbits)
        for (mid2, src), p2 in other.entries.items():
            for (dst, mid), p1 in self.entries.items():
                if mid != mid2:
                    continue
                prod = _zp_mul(p1, p2)
                for d, v in prod.items():
                    out.add_term(dst, src, d, v)
        return out

    def __sub__(self, other):
        out = LinearChainMap(self.orbits)
        out.entries = {k: dict(p) for k, p in self.entries.items()}
        for k, p in other.entries.items():
            for d, v in p.items():
                out.add_term(k[0], k[1], d, -v)
        return out

    def block(self, dst_flavor: str, src_flavor: str) -> dict:
        """Entries restricted to generator flavors, reindexed by orbit id."""
        gens = self.orbits.generators
        out = {}
        for (dst, src), poly in self.entries.items():
            if gens[dst].flavor == dst_flavor and gens[src].flavor == src_flavor:
                out[(gens[dst].orbit, gens[src].orbit)] = poly
        return out


@dataclass
class DifferentialMaps:
    plain: LinearChainMap
    decorated: dict  # (class_id, level, constrained) -> LinearChainMap


def build_differential(data: ChainComplexData) -> DifferentialMaps:
    """Plain differential from insertion-free entries; one decorated map per
    single-insertion signature."""
    orbits = data.orbits
    plain = LinearChainMap(orbits)
    decorated = {}
    for e in data.entries:
        src = orbits.index(e.src)
        dst = orbits.index(e.dst)
        if not e.insertions:
            plain.add_term(dst, src, e.degree, e.value)
        elif len(e.insertions) == 1:
            ins = e.insertions[0]
            sig = (ins.class_id, ins.level, ins.constrained)
            if sig not in decorated:
                decorated[sig] = LinearChainMap(orbits)
            decorated[sig].add_term(dst, src, e.degree, e.value)
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


def _degree_modulus(model: TargetModel) -> int:
    """Coefficients polynomial in z shift degrees by the z-degree lattice;
    grading survives modulo the gcd of those shifts (0: no shift)."""
    return gcd(*(2 * c for c in model.chern))


def compute_homology(data: ChainComplexData) -> HomologyResult:
    """Betti numbers per degree and representative cycles for the plain
    differential; requires d^2 = 0.

    With curve-class coefficients of nonzero degree the grading only
    survives modulo the z-degree lattice; blocks are then degree classes.
    """
    r, offending = d_squared_residual(data)
    if not r.is_zero():
        raise ValidationError(f"differential does not square to zero: {offending}",
                              "entries")
    d = build_differential(data).plain
    gens = data.orbits.generators
    width = data.model.h2_rank
    modulus = _degree_modulus(data.model)

    def grade(deg):
        return deg % modulus if modulus else deg
    by_degree = {}
    for i, g in enumerate(gens):
        by_degree.setdefault(grade(g.degree), []).append(i)
    betti = {}
    reps = {}
    for deg, idxs in sorted(by_degree.items()):
        below = by_degree.get(grade(deg - 1), [])
        above = by_degree.get(grade(deg + 1), [])
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


def chain_variable_table(data: ChainComplexData) -> VariableTable:
    """One q variable per generator plus the t / t-check / z variables of
    the model's descendant table."""
    vs = []
    for g in data.orbits.generators:
        flavor_rank = {"": 0, "hat": 0, "check": 1}[g.flavor]
        vs.append(Variable(q_var_name(g.key), "q", (g.orbit, flavor_rank), g.degree))
    descendants = descendant_table(data.model, data.level_bound, with_checked=True)
    return VariableTable(vs + list(descendants.variables))


def q_var_name(gen_key) -> str:
    orbit, flavor = gen_key
    return f"q[{orbit}|{flavor}]"


class DressedComplex:
    """Count data on a graded-series chain space: the potential and the
    dressed differential, each built once."""

    def __init__(self, data: ChainComplexData):
        self.data = data
        self.vt = chain_variable_table(data)
        # the potential must stay complete two derivative orders beyond the
        # window where residuals are asserted
        self.policy = TruncationPolicy(max_t_order=data.t_order + 2,
                                       max_pq_order=2)
        self._potential = None
        self._dd = None

    def potential(self) -> GradedSeries:
        if self._potential is None:
            self._potential = assemble_potential(self.data.table, self.policy,
                                                 var_table=self.vt)
        return self._potential

    def dressed_differential(self):
        """D = sum over entries of value * q_dst * insertions * z^degree *
        d/dq_src, as a function on series (odd: every entry is).

        The multipliers of the entries sharing a source generator are summed
        into one series, so an application takes one derivative and one
        product per source.  Built once per complex.
        """
        if self._dd is not None:
            return self._dd
        vt = self.vt
        policy = self.policy
        by_source = {}
        for e in self.data.entries:
            factors = {q_var_name(e.dst): 1}
            for ins in e.insertions:
                nm = (tc_name if ins.constrained else t_name)(ins.class_id, ins.level)
                factors[nm] = factors.get(nm, 0) + 1
            for i, d in enumerate(e.degree):
                if d:
                    factors[z_name(i)] = d
            mult = vt.monomial(factors, e.value, policy)
            src = q_var_name(e.src)
            by_source[src] = by_source[src] + mult if src in by_source else mult

        def apply(series):
            out = vt.zero(policy)
            for src, mult in by_source.items():
                der = series.derivative(src)
                if der:
                    out = out + mult * der
            return out

        self._dd = apply
        return apply


@dataclass
class ResidualReport:
    name: str
    zero: bool
    witnesses: list = field(default_factory=list)

    def summary(self):
        if self.zero:
            return f"{self.name}: residual 0"
        arg, out = self.witnesses[0]
        if isinstance(arg, dict):  # on homology: a cycle and its image
            return (f"{self.name}: the cycle {_chain_text(arg)} maps to "
                    f"{_chain_text(out)}, not a boundary")
        g, mono = arg
        return (f"{self.name}: nonzero residual, e.g. on {g}"
                f"{(' * ' + '*'.join(mono)) if mono else ''} -> {out}")


def _chain_text(chain) -> str:
    """A chain {generator name: z-polynomial} as a sum of terms."""
    terms = []
    for gen, poly in chain.items():
        for degree, c in sorted(poly.items()):
            z = "".join(f"*{z_name(k)}^{e}" for k, e in enumerate(degree) if e)
            terms.append(f"{c}{z}*{gen}" if c != 1 or z else gen)
    return " + ".join(terms)


def _identity_residuals(cx: DressedComplex, variant: str, equivariant: bool,
                        classes):
    """LHS - RHS of one recursion identity at every class in ``classes`` and
    level 1..L: one map s -> {(alpha, i): residual}, class-major.

    The identities differ in k, the number of constrained reference points:
    (2,0) -> 0, (1,1) -> 1, (0,2) -> 2.  With D the dressed differential,
    d_{alpha,i} = d/dt^{alpha,i} D (d/dtc^{alpha,i} D when constrained), N
    the count of plain t factors, P_k = N(N-1)...(N-k+1) and
    Q_k = (N-1)...(N-k+1), the residual on s is

        P_k(d_{alpha,i} s) - sum_nu two[nu] P_k(d_{nu,0} s)
                           - (k/2) sum_corr {d_{alpha,i-1}, dressed D}(s)

    with two[nu] the eta-contracted d2f/dt^{alpha,i-1}dt^{mu,0}; k = 0 has
    no correction.  Non-equivariant: constrained decorations and one
    correction, the constrained d_{alpha,i-1} against release Q_k D.
    Equivariant: free decorations, the free d_{alpha,i-1} against
    release Q_k D and the constrained one against N Q_k D.  In
    {a, b} = ab + (-1)^{|a||b|} ba, release Q_k D is even, N Q_k D odd and
    d_{alpha,i-1} of the parity of deg alpha: the N-dressed term takes -1
    exactly when deg alpha is odd.

    Per s, D s, the level-0 decorations, D(release Q_k D s) and
    D(N Q_k D s) are formed once; each (alpha, i) adds one D per correction.
    """
    if variant not in SECTION_CHOICES[:3]:
        raise ValidationError(f"unknown recursion variant {variant!r}", "variant")
    k = SECTION_CHOICES.index(variant)
    model = cx.data.model
    dd = cx.dressed_differential()
    dec = t_name if equivariant else tc_name  # the decorating insertion
    two = {(alpha, i): second_derivative_series(cx.potential(), model, alpha, i - 1)
           for alpha in classes for i in range(1, cx.data.level_bound + 1)}
    release = release_constrained_operator(cx.vt) if k else None
    kinds = cx.vt.kinds

    def count(s):  # not operators.point_count, which counts t-check factors too
        return s.map_terms(lambda m: sum(e for p, e in m if kinds[p] == "t"))

    def falling(s, first):
        """(N-first)(N-first-1)...(N-k+1) s"""
        for j in range(first, k):
            s = count(s) - s.scale(j) if j else count(s)
        return s

    def residuals(s):
        ds = dd(s)
        level0 = [falling(ds.derivative(dec(c.id, 0)), 0) for c in model.classes]
        # (decoration of d_{alpha,i-1}, dressing, D(dressing Q_k D s), odd)
        corrections = []
        if k:
            q = falling(ds, 1)
            corrections = [(dec, release, dd(release(q)), False)]
            if equivariant:
                corrections.append((tc_name, count, dd(count(q)), True))
        out = {}
        for (alpha, i), two_ai in two.items():
            r = falling(ds.derivative(dec(alpha, i)), 0)
            for series, decorated in zip(two_ai, level0):
                if not series.is_zero():
                    r = r - series * decorated
            for name, dressing, dressed, odd in corrections:
                nm = name(alpha, i - 1)
                back = dressing(falling(dd(ds.derivative(nm)), 1))
                if odd and model.degree_of(alpha) % 2:
                    back = -back
                r = r - (dressed.derivative(nm) + back).scale(Fraction(k, 2))
            out[alpha, i] = r
        return out
    return residuals


def _residual_reports(cx: DressedComplex, variant: str, equivariant: bool,
                      classes, arg_classes=None):
    """One report per class and level 1..L of one recursion identity,
    class-major, with the nonzero residuals cut to the data's window on the
    generators, bare and times one plain t-variable of a class in
    ``arg_classes`` (default: all)."""
    data, vt = cx.data, cx.vt
    residuals = _identity_residuals(cx, variant, equivariant, classes)
    window = TruncationPolicy(max_t_order=data.t_order, max_pq_order=2)
    tvars = [t_name(c.id, a) for c in data.model.classes
             if arg_classes is None or c.id in arg_classes
             for a in range(data.level_bound + 1)]
    witnesses = {key: [] for key in product(classes, range(1, data.level_bound + 1))}
    for g in data.orbits.generators:
        for mono in [(), *((nm,) for nm in tvars)]:
            arg = vt.monomial(dict.fromkeys((q_var_name(g.key), *mono), 1), 1,
                              cx.policy)
            for key, r in residuals(arg).items():
                out = r.truncate(window)
                if not out.is_zero():
                    witnesses[key].append(((g, mono), out))
    return [ResidualReport(f"{variant} alpha={a} i={i}", not w, w)
            for (a, i), w in witnesses.items()]


def noneq_trr_residuals(data: ChainComplexData, variant: str):
    """Residual reports of one recursion identity on non-equivariant data.

    The data's section choice must match the requested identity; "generic"
    data instead gets the (2,0) residual tested for exactness on homology.
    """
    if data.orbits.equivariant:
        raise ValidationError("need non-equivariant data", "orbits")
    label = data.section_choice
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
    return _residual_reports(DressedComplex(data), variant, False,
                             [c.id for c in data.model.classes])


def generic_exactness_report(data: ChainComplexData):
    """(2,0) residual at t = 0 must map cycles into the image of the
    differential (exactness on homology) for generic section choices."""
    plain = build_differential(data).plain
    reports = []
    for (alpha, i), residual in _generic_residual_matrix(DressedComplex(data)).items():
        ok, witness = _exact_on_cycles(data, plain, residual)
        reports.append(ResidualReport(f"(2,0) on homology alpha={alpha} i={i}", ok,
                                      [] if ok else [witness]))
    return reports


def _generic_residual_matrix(cx: DressedComplex) -> dict:
    """The t-free part of the non-equivariant (2,0) residual as one matrix
    per class and level, {(alpha, i): LinearChainMap}: a q_dst z^d term of
    its value on q_src is entry (dst, src) at z-degree d.  Its F-term sees
    only stored two-point values, zero by the stability convention unless a
    table sets them."""
    vt, data = cx.vt, cx.data
    classes = [c.id for c in data.model.classes]
    residuals = _identity_residuals(cx, "(2,0)", False, classes)
    index = {vt.position(q_var_name(g.key)): j
             for j, g in enumerate(data.orbits.generators)}
    out = {key: LinearChainMap(data.orbits)
           for key in product(classes, range(1, data.level_bound + 1))}
    for q_src, src in index.items():
        for key, value in residuals(vt.series({((q_src, 1),): 1}, cx.policy)).items():
            for mono, c in value.truncate(TruncationPolicy(max_t_order=0)).terms.items():
                degree = [0] * data.model.h2_rank
                for p, e in mono:
                    if p in index:
                        dst = index[p]
                    else:
                        degree[vt.variables[p].indices[0]] += e
                out[key].add_term(dst, src, tuple(degree), c)
    return out


def _contract(orbits: OrbitSet, coeffs, maps) -> LinearChainMap:
    """Sum over nu of coeffs[nu](z) * maps[nu]; a None map counts as zero."""
    out = LinearChainMap(orbits)
    for poly, m in zip(coeffs, maps):
        if not poly or m is None:
            continue
        for (dst, src), entry in m.entries.items():
            for d, v in _zp_mul(entry, poly).items():
                out.add_term(dst, src, d, v)
    return out


def _exact_on_cycles(data: ChainComplexData, plain: LinearChainMap,
                     residual: LinearChainMap):
    """Does the residual map every cycle into the image of the differential?
    If not: (False, (cycle, image)), each {generator name: z-polynomial}."""
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
            return False, ({str(gens[j]): x for j, x in enumerate(vec) if x},
                           {str(gens[j]): x for j, x in enumerate(img) if x})
    return True, None


# -- block extraction and the Floer case --------------------------------------------


@dataclass
class BlockExtraction:
    data: ChainComplexData        # single-flavor data realizing the extraction
    plain_blocks_equal: bool      # hat-hat against check-check
    offdiag_plain_zero: bool      # connecting map hat -> check of the plain part


def extract_equivariant(data: ChainComplexData,
                        source_flavor: str = "hat") -> BlockExtraction:
    """Single-complex data from the hat/check block structure.

    Decorated entries of the chosen diagonal block are kept as they are
    (free and constrained decorations alike); constrained hat-to-check
    entries become free decorations, their insertion released.  The plain
    differential restricts from the chosen diagonal block.
    """
    if data.orbits.equivariant:
        raise ValidationError("data is already equivariant", "orbits")
    if source_flavor not in ("hat", "check"):
        raise ValidationError("source flavor must be hat or check", "flavor")
    suffix = f"/{source_flavor}-block"
    degree_rule = _single_flavor(data, (), suffix)._check_degree_rule
    entries = []
    for n, e in enumerate(data.entries):
        flavors = (e.src[1], e.dst[1])
        if flavors == (source_flavor, source_flavor) and e.insertions:
            ins = e.insertions
        elif flavors == ("hat", "check") and any(i.constrained
                                                 for i in e.insertions):
            ins = tuple(Insertion(i.class_id, i.level, False)
                        for i in e.insertions)
        else:
            continue
        entries.append(replace(e, src=(e.src[0], ""), dst=(e.dst[0], ""),
                               insertions=ins))
        degree_rule(entries[-1], f"entries[{n}]")  # named where it sits in data
    plain = build_differential(data).plain
    for (dst, src), poly in plain.block(source_flavor, source_flavor).items():
        for deg, v in poly.items():
            entries.append(CountEntry((src, ""), (dst, ""), (), deg, v))
    return BlockExtraction(
        _single_flavor(data, entries, suffix),
        plain.block("hat", "hat") == plain.block("check", "check"),
        not plain.block("check", "hat"))


def extract_floer(data: ChainComplexData) -> ChainComplexData:
    """Hat-block entries with fiber-class insertions, over the fiber model.

    This is the symplectic-Floer reading of a split product model: the
    fixed-period subcomplex with only fiber decorations.
    """
    if data.fiber_model is None or data.fiber_table is None:
        raise ValidationError("no fiber model attached", "fiber_model")
    fiber_ids = {c.id for c in data.fiber_model.classes}
    entries = []
    for e in data.entries:
        if e.src[1] != "hat" or e.dst[1] != "hat":
            continue
        if any(i.class_id not in fiber_ids for i in e.insertions):
            continue
        entries.append(replace(e, src=(e.src[0], ""), dst=(e.dst[0], "")))
    return _single_flavor(data, entries, "/floer", model=data.fiber_model,
                          table=data.fiber_table, fiber_model=None,
                          fiber_table=None)


def _single_flavor(data: ChainComplexData, entries, suffix: str,
                   **fields) -> ChainComplexData:
    """Equivariant data over the orbits of ``data`` with the CountEntry
    ``entries`` (generator keys (orbit, "")); ``fields`` replace more."""
    return replace(data, orbits=OrbitSet(data.orbits.orbits, equivariant=True),
                   entries=entries, name=data.name + suffix, **fields)


def equivariant_trr_residuals(data: ChainComplexData, variant: str,
                              source_flavor: str = "hat",
                              classes: Optional[list] = None,
                              arg_classes=None):
    """Residuals of the equivariant recursion identities on extracted blocks."""
    ext = extract_equivariant(data, source_flavor)
    reports = _residual_reports(
        DressedComplex(ext.data), variant, True,
        classes or [c.id for c in data.model.classes], arg_classes)
    return [replace(r, name=f"eq {r.name} [{source_flavor}]") for r in reports]


def _witness_signature(witnesses):
    """Canonical (generator-orbit, argument, output-terms) set for comparison."""
    out = []
    for (g, mono), series in witnesses:
        terms = []
        for m, c in series.sorted_terms():
            names = tuple((series.table.variables[p].name, e) for p, e in m)
            terms.append((names, c))
        out.append((g.orbit, mono, tuple(terms)))
    return sorted(out)


@dataclass
class BlockComparison:
    variant: str
    hat_check_equal: bool     # residuals from hat blocks == from check blocks
    floer_match: bool         # wedged-class equivariant == fiber-class Floer
    details: list = field(default_factory=list)


def compare_equivariant_floer(data: ChainComplexData, variant: str) -> BlockComparison:
    """The split-model reductions, block by block.

    (i) the hat- and check-block extractions give identical equivariant
    residuals; (ii) the equivariant residual at a wedged class equals the
    Floer residual at the underlying fiber class, on fiber-dressed
    arguments.
    """
    if data.fiber_model is None:
        raise ValidationError("no fiber model attached", "fiber_model")
    details = []
    fiber = [c.id for c in data.fiber_model.classes]
    wedged = [wedged_id(fc) for fc in fiber]
    sigs = {}
    for flavor in ("hat", "check"):
        reports = equivariant_trr_residuals(data, variant, flavor, classes=wedged,
                                            arg_classes=set(fiber))
        sigs[flavor] = [_witness_signature(r.witnesses) for r in reports]
    hat_check_equal = sigs["hat"] == sigs["check"]
    if not hat_check_equal:
        details.append("hat and check extractions disagree")
    floer = _residual_reports(DressedComplex(extract_floer(data)), variant, False,
                              fiber)
    floer_match = True
    levels = range(1, data.level_bound + 1)
    for (fc, i), hat_sig, r in zip(product(fiber, levels), sigs["hat"], floer):
        if _witness_signature(r.witnesses) != hat_sig:
            floer_match = False
            details.append(f"mismatch at class {fc}, level {i}")
    return BlockComparison(variant, hat_check_equal, floer_match, details)


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
    """Level >= 1 decorated maps must vanish on homology for data flagged
    ``contact``.

    The level-0 maps are exempt.  Data not flagged contact is reported as
    not applicable rather than checked.
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


def quantum_action(data: ChainComplexData) -> QuantumActionReport:
    """Action of the cohomology classes by constrained level-0 maps at t = 0.

    Checks, on homology: the maps commute with the differential up to
    boundaries, the unit class acts as the identity, and composition agrees
    with the quantum-product structure constants (three-point values
    contracted with the inverse pairing).
    """
    model = data.model
    maps = build_differential(data)
    plain = maps.plain
    failures = []
    actions = [maps.decorated.get((cls.id, 0, True), LinearChainMap(data.orbits))
               for cls in model.classes]
    descends = True
    for cls, act in zip(model.classes, actions):
        comm = plain.compose(act) - act.compose(plain)
        ok, _ = _exact_on_cycles(data, plain, comm)
        if not ok:
            descends = False
            failures.append(f"action of {cls.id} does not descend")
    ident = LinearChainMap(data.orbits)
    for i in range(len(data.orbits.generators)):
        ident.add_term(i, i, (0,) * model.h2_rank, Fraction(1))
    unit_ok, _ = _exact_on_cycles(
        data, plain, actions[model.class_index(model.unit)] - ident)
    if not unit_ok:
        failures.append("unit class does not act as the identity on homology")
    composition_ok = True
    qp = quantum_product(model, data.table)
    n = len(model.classes)
    for a in range(n):
        for b in range(n):
            lhs = actions[a].compose(actions[b])
            rhs = _contract(data.orbits, [qp.constant(a, b, nu) for nu in range(n)],
                            actions)
            ok, _ = _exact_on_cycles(data, plain, lhs - rhs)
            if not ok:
                composition_ok = False
                failures.append(f"composition rule fails for "
                                f"({model.classes[a].id}, {model.classes[b].id})")
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
        h2_rank=fiber.h2_rank, chern=fiber.chern)


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
                      t_order: int = 2,
                      section_choice: str = "(2,0)") -> ChainComplexData:
    """Test-bed chain data for a circle-times-fiber product.

    Generators come in hat/check pairs per fiber basis class and period.
    Constrained fiber decorations realize the recursion relation seeded by
    quantum multiplication; the wedged classes mirror them as free
    decorations.  Wedged constrained maps are zero, the plain differential
    is zero, everything is block-diagonal.  Fiber correlators are
    reconstructed in curve-class degree 0, and the data is flagged contact
    when the fiber is one class of dimension 0 (a point).
    """
    fiber_table = reconstruct(fiber, Bounds(max_points=t_order + 4,
                                            max_level=level_bound))
    vmodel = product_model(fiber)
    vtable = product_table(fiber, fiber_table, vmodel)
    qp = quantum_product(fiber, fiber_table)
    nf = len(fiber.classes)
    orbits = []
    for b in fiber.classes:
        for period in range(1, periods + 1):
            orbits.append(Orbit(f"{b.id}p{period}", 2 * (period - 1) - b.degree))
    orbit_set = OrbitSet(orbits, equivariant=False)

    # quantum multiplication matrices: class ai sends basis b to b'
    def q_matrix(ai: int):
        out = {}
        for b in range(nf):
            for b2 in range(nf):
                poly = qp.constant(ai, b, b2)
                if poly:
                    out[(b, b2)] = poly
        return out

    fiber_vt = descendant_table(fiber, level_bound)
    policy = TruncationPolicy(max_t_order=t_order + 2)
    fiber_potential = assemble_potential(fiber_table, policy, var_table=fiber_vt)

    entries = []

    def emit(src_b, dst_b, period, flavor, insertions, dvec, value):
        entries.append(CountEntry(
            (f"{fiber.classes[src_b].id}p{period}", flavor),
            (f"{fiber.classes[dst_b].id}p{period}", flavor),
            tuple(insertions), dvec, Fraction(value)))

    for ai, alpha in enumerate(fiber.classes):
        # level 0: plain quantum action, constrained on alpha and free on
        # the wedged partner
        for (b, b2), poly in q_matrix(ai).items():
            for dvec, v in poly.items():
                for period in range(1, periods + 1):
                    for flavor in ("hat", "check"):
                        emit(b, b2, period, flavor,
                             [Insertion(alpha.id, 0, True)], dvec, v)
                        emit(b, b2, period, flavor,
                             [Insertion(wedged_id(alpha.id), 0, False)], dvec, v)
        # level >= 1 dressings from the recursion seed: the series
        # d2f/dt^{alpha,i-1}dt^{mu,0} eta^{mu nu} per t-monomial, times the
        # quantum multiplication by nu
        for i in range(1, level_bound + 1):
            two = second_derivative_series(fiber_potential, fiber, alpha.id, i - 1)
            acc = {}  # (b, b2, U-monomial, dvec) -> value
            for nu, series in enumerate(two):
                for (b, b2), poly in q_matrix(nu).items():
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
                            acc[k] = acc.get(k, Fraction(0)) + c * v
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

    return ChainComplexData(
        orbit_set, entries, vmodel, vtable, section_choice, level_bound, t_order,
        contact=(len(fiber.classes) == 1 and fiber.dimension == 0),
        fiber_model=fiber, fiber_table=fiber_table, name=f"floer-{fiber.name}")
