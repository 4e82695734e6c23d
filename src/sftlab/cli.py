"""Command-line interface: verification suites, reconstruction, exports.

Exit codes: 0 all checks pass, 1 some check failed, 2 bad input (the error
names the offending field, also when a verify check raised it), 3 internal
error (an unexpected exception in sftlab itself; a traceback goes to
stderr, or, for a verify check that raised, the check is reported with
status ``error``).  Reports are deterministic byte-for-byte unless
--timings is given, which adds each check's own runtime.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path

from . import cylhom, divisors, gw, hierarchy, io as sio
from .errors import MissingPrimaryError, SftlabError, ValidationError, under_path
from .models import BUILTIN_MODELS
from .report import VerificationReport, merge_reports
from .suites import SUITES, counts_suite


EXIT_INTERNAL = 3

# The least value each bound option takes.  Below it the bound is negative
# or gives checks that pass whatever the data: no samples, no cover, a
# t-order window where both recursion residuals are zero on any table of
# the gw suite's models, or no level-1 insertion for the recursion checks
# (their level bound is min(levels + 1, max_points - 3)).
LEAST = {
    "verify": {"trunc_t": 1, "max_cover": 1, "max_points": 4, "levels": 0,
               "samples": 1},
    "reconstruct": {"max_points": 0, "levels": 0, "max_degree": 0},
    "hierarchy": {"max_cover": 1},
}


def _check_bounds(args):
    for dest, least in LEAST.get(args.command, {}).items():
        value = getattr(args, dest)
        if value is not None and value < least:
            raise ValidationError(f"must be >= {least}, got {value}",
                                  "--" + dest.replace("_", "-"))


def _load_model_arg(spec: str):
    if spec in BUILTIN_MODELS:
        return BUILTIN_MODELS[spec]()
    return sio.load_model(spec)


def _emit(args, text: str):
    if getattr(args, "out", None):
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    reports = [_suite_report(args, name) for name in names]
    report = reports[0] if len(reports) == 1 else merge_reports(reports)
    text = (report.render_machine(args.timings) if args.format == "machine"
            else report.render_text(args.timings))
    _emit(args, text)
    return report.exit_code


def _suite_report(args, name) -> VerificationReport:
    if name == "algebra":
        return SUITES[name](samples=args.samples, seed=args.seed)
    if name == "hierarchy":
        return SUITES[name](cover_bound=args.max_cover, max_level=args.levels)
    if name == "gw":
        return SUITES[name](max_points=args.max_points,
                            max_level=min(args.levels + 1, args.max_points - 3),
                            window=args.trunc_t)
    if name == "cylhom":
        if args.counts:
            return counts_suite(sio.load_counts(args.counts))
        return SUITES[name]()
    if name == "divisor":
        ledger = sio.load_ledger(args.ledger) if args.ledger else None
        return SUITES[name](ledger=ledger)
    raise SftlabError(f"unknown suite {name!r}")


def cmd_reconstruct(args) -> int:
    model = _load_model_arg(args.model)
    bounds = gw.Bounds(max_points=args.max_points, max_level=args.levels,
                       max_degree=args.max_degree)
    try:
        table = gw.reconstruct(model, bounds)
    except MissingPrimaryError as exc:  # a model file lacks a primary
        if args.model in BUILTIN_MODELS:
            raise
        raise ValidationError(str(exc), f"{args.model}.primaries") from None
    _emit(args, sio.dumps_canonical(sio.table_to_dict(table)))
    return 0


def cmd_hierarchy(args) -> int:
    try:
        levels = [int(x) for x in args.levels.split(",")]
    except ValueError:
        raise ValidationError(f"expected comma-separated integers, got "
                              f"{args.levels!r}", "--levels") from None
    if min(levels) < 0:
        raise ValidationError(f"must be >= 0, got {min(levels)}", "--levels")
    prof = (sio.load_profiles(args.profiles) if args.profiles else
            {"cover_bound": 3, "half_dim": 1, "q_degrees": None})
    cover = prof["cover_bound"] if args.max_cover is None else args.max_cover
    lattice = hierarchy.OrbitLattice(cover, half_dim=prof["half_dim"],
                                     q_degrees=prof["q_degrees"])
    with under_path(args.profiles) if args.profiles else nullcontext():
        table = lattice.table()  # a cover the profile does not declare
        hams = {j: hierarchy.geodesic_hamiltonian(lattice, j, prof["explicit"],
                                                  table=table)
                if lattice.q_degrees is not None
                else hierarchy.circle_hamiltonian(lattice, j, table=table)
                for j in levels}
    out = {
        "schema": "sftlab-hamiltonians/1",
        "cover_bound": cover,
        "hamiltonians": {str(j): sio.series_to_dict(h) for j, h in hams.items()},
    }
    _emit(args, sio.dumps_canonical(out))
    return 0


def cmd_homology(args) -> int:
    data = sio.load_counts(args.counts)
    with under_path(args.counts):
        h = cylhom.compute_homology(data)
    out = {
        "schema": "sftlab-homology/1",
        "name": data.name,
        "betti": {str(k): v for k, v in sorted(h.betti.items())},
        "representatives": {
            str(k): [{g: sorted((list(d), sio.encode_rational(c))
                                for d, c in poly.items())
                      for g, poly in rep.items()} for rep in reps]
            for k, reps in sorted(h.representatives.items())},
    }
    _emit(args, sio.dumps_canonical(out))
    return 0


def cmd_divisor(args) -> int:
    out = {"schema": "sftlab-divisor/1"}
    expr = divisors.averaged_psi(args.points, args.index)
    out["averaged_psi"] = {
        "points": args.points, "index": args.index,
        "coefficients": [[str(s), sio.encode_rational(c)]
                         for s, c in expr.items_sorted()],
    }
    if args.points == 5 and args.index == 1:
        out["self_pairing"] = sio.encode_rational(
            divisors.m05_intersection(expr, expr))
    if args.r is not None:
        exprs = [divisors.map_zero_locus(args.r, args.pos, args.neg, v)
                 for v in "ABC"]
        out["zero_loci"] = {
            v: {"lhs_factor": sio.encode_rational(lhs),
                "coefficients": [[str(s), sio.encode_rational(c)]
                                 for s, c in e.items_sorted()]}
            for v, (lhs, e) in zip("ABC", exprs)}
        out["combinations"] = {
            target: divisors.solve_combination(
                exprs, target, args.r, args.pos + args.neg).describe()
            for target in divisors.TARGET_RULES}
    _emit(args, sio.dumps_canonical(out))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sftlab",
        description="exact-arithmetic verification of graded-algebra, "
                    "recursion and chain-complex identities")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "machine"), default="text")
        p.add_argument("--out", help="write output to a file instead of stdout")
        p.add_argument("--timings", action="store_true",
                       help="include runtimes (makes reports nondeterministic)")

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", choices=tuple(SUITES) + ("all",), default="all")
    v.add_argument("--trunc-t", type=int, default=5, dest="trunc_t",
                   help="t-order window for series residuals")
    v.add_argument("--max-cover", type=int, default=6)
    v.add_argument("--max-points", type=int, default=8)
    v.add_argument("--levels", type=int, default=3)
    v.add_argument("--samples", type=int, default=1000)
    v.add_argument("--seed", type=int, default=20240)
    v.add_argument("--counts", help="count-data file for the cylhom suite")
    v.add_argument("--ledger", help="intersection-ledger file for the divisor suite")
    common(v)
    v.set_defaults(fn=cmd_verify)

    r = sub.add_parser("reconstruct", help="emit a correlator table")
    r.add_argument("--model", default="point",
                   help="builtin name (point, twopoint, p1) or a model file")
    r.add_argument("--max-points", type=int, default=8)
    r.add_argument("--levels", type=int, default=4)
    r.add_argument("--max-degree", type=int, default=0)
    common(r)
    r.set_defaults(fn=cmd_reconstruct)

    h = sub.add_parser("hierarchy", help="emit descendant Hamiltonians")
    h.add_argument("--max-cover", type=int,
                   help="cover bound (default: the profile's cover_bound, else 3)")
    h.add_argument("--levels", default="0,1,2,3")
    h.add_argument("--profiles", help="grading/sign profile file")
    common(h)
    h.set_defaults(fn=cmd_hierarchy)

    ho = sub.add_parser("homology", help="emit a Betti table for count data")
    ho.add_argument("--counts", required=True)
    common(ho)
    ho.set_defaults(fn=cmd_homology)

    d = sub.add_parser("divisor", help="emit averaged loci and combinations")
    d.add_argument("--points", "--n", type=int, default=5, dest="points")
    d.add_argument("--index", type=int, default=1)
    d.add_argument("--r", type=int, help="marked points for the map loci")
    d.add_argument("--pos", type=int, default=1)
    d.add_argument("--neg", type=int, default=1)
    common(d)
    d.set_defaults(fn=cmd_divisor)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_bounds(args)
        return args.fn(args)
    except (ValidationError, SftlabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # a bug, never "a check failed"
        traceback.print_exc()
        print("internal error: please report this with the command line",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
