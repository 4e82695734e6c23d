"""Span tracing of sftlab from outside the package.

`Tracer.installed()` replaces the public functions and methods that each
sftlab module calls in the module below it with span-recording wrappers,
and puts the originals back on exit.  No sftlab source file is touched.

A span is (name, start, end, parent, attrs).  Spans are kept in memory;
`write_spans` dumps them when the benchmark ends.  Self time is a span's
duration minus the time its direct child spans cover.  Calls that happen
hundreds of thousands of times per workload and carry no time metric
(`TargetModel.dimension_ok`, `Reconstructor.value`, the keys yielded by
`enumerate_keys`) are counted, not spanned.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from statistics import median

# Levels whose pairwise brackets get their own time metric.
BRACKET_LEVELS = (0, 1, 2, 3)
BRACKET_PAIRS = [(i, j) for i in BRACKET_LEVELS for j in BRACKET_LEVELS if i <= j]
# Models that verify-all's gw suite reconstructs.
RECON_MODELS = ("point", "twopoint")
SUITE_NAMES = ("algebra", "hierarchy", "gw", "cylhom", "divisor")

# name -> unit of every per-layer metric, in report order.
PER_LAYER_UNITS = {
    "algebra.poisson_bracket.self_s": "s",
    "algebra.poisson_bracket.calls": "count",
    "algebra.poisson_bracket.terms_out": "count",
    "algebra.products_formed": "count",
    "algebra.window_terms_in": "count",
    "algebra.window_terms_kept": "count",
    "algebra.window_keep_ratio": "ratio",
    "algebra.derivative.self_s": "s",
    "algebra.derivative.calls": "count",
    "algebra.mul.self_s": "s",
    "algebra.mul.calls": "count",
    "algebra.star_product.self_s": "s",
    "algebra.star_product.calls": "count",
    "algebra.weyl_commutator.self_s": "s",
    "hierarchy.build_s": "s",
    "hierarchy.ham_terms": "count",
    **{f"hierarchy.bracket_s.g{i}g{j}": "s" for i, j in BRACKET_PAIRS},
    "gw.keys_enumerated": "count",
    "gw.values_nonzero": "count",
    "gw.keys_useful_ratio": "ratio",
    "gw.dimension_ok.calls": "count",
    "gw.value.calls": "count",
    **{f"gw.reconstruct_s.{m}": "s" for m in RECON_MODELS},
    "cylhom.noneq_trr_residuals_s": "s",
    "cylhom.compare_equivariant_floer_s": "s",
    "cylhom.quantum_action_s": "s",
    "cylhom.compute_homology_s": "s",
    "divisors.solve_combination_s": "s",
    "divisors.solve_combination.calls": "count",
    "operators.self_s": "s",
    **{f"suites.{s}_s": "s" for s in SUITE_NAMES},
    "io.load_s": "s",
    "report.render_s": "s",
    "cli.self_s": "s",
    "trace.verdict_s": "s",
    "trace.overhead_s": "s",
}


def _terms_out(args, kwargs, out):
    return {"terms_out": len(out.terms)}


def _mul_attrs(args, kwargs, out):
    # _mul_terms(table, terms1, terms2, policy, factor): every pair of
    # input terms is one monomial product formed by the kernel.
    _, t1, t2, _, factor = args
    formed = len(t1) * len(t2) if factor else 0
    return {"products": formed, "terms_out": len(out)}


def _residual_attrs(args, kwargs, out):
    residuals, hams = out
    levels = list(args[0] if args else kwargs["levels"])
    kept = sum(len(residuals[i][j].terms)
               for i in range(len(levels)) for j in range(i, len(levels)))
    return {"levels": levels, "ham_terms": [len(h.terms) for h in hams],
            "kept": kept}


def _reconstruct_attrs(args, kwargs, out):
    return {"model": out.model.name, "nonzero": len(out.values)}


class Tracer:
    """Span recorder; one per traced pass."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- wrappers ----------------------------------------------------------

    def span_wrapper(self, name, fn, attrs=None):
        spans = self.spans
        clock = time.perf_counter
        stack_of = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if attrs is not None:
                rec[4] = attrs(args, kwargs, out)
            return out
        return wrapper

    def count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def yield_count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item
        return wrapper

    # -- installation ------------------------------------------------------

    def _hooks(self):
        """(owner, attribute, wrapper factory) for every traced boundary."""
        from sftlab import (algebra, cli, cylhom, divisors, gw, hierarchy,
                            io as sio, operators, report, suites)
        span, count = self.span_wrapper, self.count_wrapper
        hooks = [
            (algebra, "_mul_terms", lambda f: span("algebra.mul", f, _mul_attrs)),
            (algebra.GradedSeries, "derivative",
             lambda f: span("algebra.derivative", f)),
            (algebra, "poisson_bracket",
             lambda f: span("algebra.poisson_bracket", f, _terms_out)),
            (algebra, "star_product", lambda f: span("algebra.star_product", f)),
            (algebra, "weyl_commutator",
             lambda f: span("algebra.weyl_commutator", f)),
            (operators.LinearOperator, "__call__",
             lambda f: span("operators.apply", f)),
            (operators.DifferentialOperator, "__call__",
             lambda f: span("operators.apply", f)),
            (hierarchy, "circle_hamiltonian",
             lambda f: span("hierarchy.build", f)),
            (hierarchy, "geodesic_hamiltonian",
             lambda f: span("hierarchy.build", f)),
            (hierarchy, "commutator_residuals",
             lambda f: span("hierarchy.commutator_residuals", f,
                            _residual_attrs)),
            (gw, "reconstruct",
             lambda f: span("gw.reconstruct", f, _reconstruct_attrs)),
            (gw, "enumerate_keys",
             lambda f: self.yield_count_wrapper("gw.keys_enumerated", f)),
            (gw.TargetModel, "dimension_ok",
             lambda f: count("gw.dimension_ok.calls", f)),
            (gw.Reconstructor, "value", lambda f: count("gw.value.calls", f)),
            (divisors, "solve_combination",
             lambda f: span("divisors.solve_combination", f)),
            (report, "merge_reports", lambda f: span("report.render", f)),
            (report.VerificationReport, "render_text",
             lambda f: span("report.render", f)),
            (report.VerificationReport, "render_machine",
             lambda f: span("report.render", f)),
            (cli, "main", lambda f: span("cli.main", f)),
        ]
        for name in ("point_count", "release_constrained", "euler_scale",
                     "graded_commutator", "graded_anticommutator"):
            hooks.append((operators, name,
                          lambda f, n=name: span(f"operators.{n}", f)))
        for name in ("noneq_trr_residuals", "compare_equivariant_floer",
                     "quantum_action", "compute_homology"):
            hooks.append((cylhom, name, lambda f, n=name: span(f"cylhom.{n}", f)))
        for name in ("load_json", "load_model", "load_counts", "load_profiles",
                     "load_table"):
            hooks.append((sio, name, lambda f: span("io.load", f)))
        return hooks, suites

    @contextmanager
    def installed(self):
        """Install every wrapper; restore the originals on exit.

        A function is rebound wherever an sftlab module holds it under its
        own name (``from .algebra import poisson_bracket`` in hierarchy and
        suites), so calls through imported names are traced too.
        """
        hooks, suites = self._hooks()
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "sftlab" or n.startswith("sftlab.")]
        saved_suites = dict(suites.SUITES)
        undo = []
        try:
            for owner, attr, make in hooks:
                original = owner.__dict__[attr]
                wrapper = make(original)
                setattr(owner, attr, wrapper)
                undo.append((owner, attr, original))
                if isinstance(owner, type):
                    continue
                for mod in modules:
                    if mod is not owner and mod.__dict__.get(attr) is original:
                        setattr(mod, attr, wrapper)
                        undo.append((mod, attr, original))
            for name, fn in saved_suites.items():
                suites.SUITES[name] = self.span_wrapper(f"suites.{name}", fn)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)
            suites.SUITES.update(saved_suites)

    # -- analysis ----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of one traced pass (without the trace.* pair)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_time = Counter()
        calls = Counter()
        outer_time = Counter()  # inclusive time of spans with no same-name ancestor
        for idx, (name, start, end, parent, _) in enumerate(spans):
            self_time[name] += end - start - child[idx]
            calls[name] += 1
            if not self._has_ancestor(idx, name):
                outer_time[name] += end - start
        attrs = [(s[0], s[4]) for s in spans if s[4] is not None]

        m = dict.fromkeys(PER_LAYER_UNITS, 0)
        m["algebra.poisson_bracket.self_s"] = self_time["algebra.poisson_bracket"]
        m["algebra.poisson_bracket.calls"] = calls["algebra.poisson_bracket"]
        m["algebra.poisson_bracket.terms_out"] = sum(
            a["terms_out"] for n, a in attrs if n == "algebra.poisson_bracket")
        m["algebra.products_formed"] = sum(
            a["products"] for n, a in attrs if n == "algebra.mul")
        m["algebra.derivative.self_s"] = self_time["algebra.derivative"]
        m["algebra.derivative.calls"] = calls["algebra.derivative"]
        m["algebra.mul.self_s"] = self_time["algebra.mul"]
        m["algebra.mul.calls"] = calls["algebra.mul"]
        m["algebra.star_product.self_s"] = self_time["algebra.star_product"]
        m["algebra.star_product.calls"] = calls["algebra.star_product"]
        m["algebra.weyl_commutator.self_s"] = self_time["algebra.weyl_commutator"]

        # Brackets computed by commutator_residuals are its direct children,
        # in (i, j >= i) order; their outputs enter the cover-window truncate.
        m["hierarchy.build_s"] = outer_time["hierarchy.build"]
        for idx, (name, start, end, parent, a) in enumerate(spans):
            if name != "hierarchy.commutator_residuals":
                continue
            levels = a["levels"]
            m["hierarchy.ham_terms"] += sum(a["ham_terms"])
            m["algebra.window_terms_kept"] += a["kept"]
            pairs = [(levels[i], levels[j]) for i in range(len(levels))
                     for j in range(i, len(levels))]
            brackets = [s for s in spans[idx + 1:]
                        if s[3] == idx and s[0] == "algebra.poisson_bracket"]
            for (li, lj), br in zip(pairs, brackets):
                m["algebra.window_terms_in"] += br[4]["terms_out"]
                key = f"hierarchy.bracket_s.g{min(li, lj)}g{max(li, lj)}"
                if key in m:
                    m[key] += br[2] - br[1]
        if m["algebra.window_terms_in"]:
            m["algebra.window_keep_ratio"] = (m["algebra.window_terms_kept"]
                                              / m["algebra.window_terms_in"])

        m["gw.keys_enumerated"] = self.counts["gw.keys_enumerated"]
        m["gw.values_nonzero"] = sum(
            a["nonzero"] for n, a in attrs if n == "gw.reconstruct")
        if m["gw.keys_enumerated"]:
            m["gw.keys_useful_ratio"] = (m["gw.values_nonzero"]
                                         / m["gw.keys_enumerated"])
        m["gw.dimension_ok.calls"] = self.counts["gw.dimension_ok.calls"]
        m["gw.value.calls"] = self.counts["gw.value.calls"]
        for name, start, end, parent, a in spans:
            if name == "gw.reconstruct" and a["model"] in RECON_MODELS:
                m[f"gw.reconstruct_s.{a['model']}"] += end - start

        for name in ("noneq_trr_residuals", "compare_equivariant_floer",
                     "quantum_action", "compute_homology"):
            m[f"cylhom.{name}_s"] = outer_time[f"cylhom.{name}"]
        m["divisors.solve_combination_s"] = outer_time["divisors.solve_combination"]
        m["divisors.solve_combination.calls"] = calls["divisors.solve_combination"]
        m["operators.self_s"] = sum(t for n, t in self_time.items()
                                    if n.startswith("operators."))
        for s in SUITE_NAMES:
            m[f"suites.{s}_s"] = outer_time[f"suites.{s}"]
        m["io.load_s"] = outer_time["io.load"]
        m["report.render_s"] = outer_time["report.render"]
        m["cli.self_s"] = self_time["cli.main"]
        return m

    def _has_ancestor(self, idx, name):
        spans = self.spans
        parent = spans[idx][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    def write_spans(self, path):
        """One JSON array per line: name, start, end, parent, attrs."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def combine(per_pass: list) -> dict:
    """Times: median over traced passes.  Counts and ratios: the first pass,
    so they repeat exactly for a seed however many passes fit in a run."""
    return {name: (median(m[name] for m in per_pass)
                   if PER_LAYER_UNITS[name] == "s" else per_pass[0][name])
            for name in per_pass[0]}
