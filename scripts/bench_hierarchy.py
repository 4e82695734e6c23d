"""Paired runs of the commutativity check in two checkouts; writes
BENCH_<label>_hierarchy.json.

For each case (a cover bound K and levels 0..L) it runs
``hierarchy.commutator_residuals(range(L + 1), K)`` in a base and a change
checkout, one fresh process per run, alternating which side goes first.
Each run records separately the seconds spent building the Hamiltonians,
the seconds spent in their brackets and, within those, the seconds in
``GradedSeries._bracket_operand`` (parity split, partials and their
window keys), the record pairs the bracket kernel ``algebra._mul_packed``
visits, whether every residual is zero, and the peak RSS.  Per side and
case the report gives each value's median, and how many runs the
change's bracket seconds beat the base's run of the same round.

    python3 scripts/bench_hierarchy.py --base ../parent --change . \\
        --label live_keys --case 7:4 --case 8:4 --runs 3

Both checkouts need ``src/sftlab``; each run imports sftlab from its own
checkout.  The report is written to the working directory.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_pairs import src_digest, src_lines  # noqa: E402

FIELDS = ("build_s", "bracket_s", "operand_s", "pairs", "peak_rss_mb")


def measure(checkout: Path, cover: int, max_level: int) -> dict:
    """One run in this process, with sftlab imported from the checkout."""
    sys.path.insert(0, str(checkout / "src"))
    from sftlab import algebra, hierarchy

    spent = {"build_s": 0.0, "bracket_s": 0.0, "operand_s": 0.0}
    pairs = [0]

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[name] += time.perf_counter() - t0
        return wrapper

    def counted(acc, records1, records2, policy, factor):
        pairs[0] += len(records1) * len(records2)
        return kernel(acc, records1, records2, policy, factor)

    kernel = algebra._mul_packed
    algebra._mul_packed = counted
    hierarchy.circle_hamiltonian = timed("build_s", hierarchy.circle_hamiltonian)
    hierarchy.poisson_bracket = timed("bracket_s", hierarchy.poisson_bracket)
    algebra.GradedSeries._bracket_operand = timed(
        "operand_s", algebra.GradedSeries._bracket_operand)
    residuals, _ = hierarchy.commutator_residuals(range(max_level + 1), cover)
    return {**spent, "pairs": pairs[0],
            "zero": all(r.is_zero() for row in residuals for r in row),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def run_once(checkout: Path, cover: int, max_level: int) -> dict:
    """One run in a fresh process; returns its measurement."""
    cmd = [sys.executable, __file__, "--measure", str(checkout),
           "--case", f"{cover}:{max_level}"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench_hierarchy: {' '.join(cmd)} exited "
                         f"{proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def parse_case(text: str) -> tuple:
    cover, _, max_level = text.partition(":")
    try:
        case = int(cover), int(max_level)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected COVER:MAX_LEVEL, got {text!r}")
    if case[0] < 1 or case[1] < 0:
        raise argparse.ArgumentTypeError(f"cover must be >= 1 and level >= 0: {text!r}")
    return case


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path)
    ap.add_argument("--change", type=Path)
    ap.add_argument("--label")
    ap.add_argument("--case", type=parse_case, action="append",
                    help="COVER:MAX_LEVEL (repeatable; default 7:4)")
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--measure", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    cases = args.case or [(7, 4)]
    if args.measure:
        print(json.dumps(measure(args.measure.resolve(), *cases[0])))
        return 0
    if not (args.base and args.change and args.label):
        ap.error("--base, --change and --label are required")
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    report = {"label": args.label, "runs": args.runs,
              "sides": {name: {"src_sha256": src_digest(path),
                               "src_lines": src_lines(path)}
                        for name, path in sides.items()},
              "cases": {}}
    for cover, max_level in cases:
        runs = {"base": [], "change": []}
        for i in range(args.runs):
            for name in ("base", "change") if i % 2 == 0 else ("change", "base"):
                runs[name].append(run_once(sides[name], cover, max_level))
                print(f"cover {cover} levels <= {max_level} run {i} {name}: "
                      f"build {runs[name][-1]['build_s']:.3f} s, bracket "
                      f"{runs[name][-1]['bracket_s']:.3f} s", file=sys.stderr)
        entry = {name: {"zero": all(r["zero"] for r in rs),
                        **{f: {"median": median(r[f] for r in rs),
                               "values": [r[f] for r in rs]} for f in FIELDS}}
                 for name, rs in runs.items()}
        entry["change_wins_bracket_s"] = sum(
            c["bracket_s"] < b["bracket_s"] for b, c in zip(runs["base"], runs["change"]))
        entry["bracket_s_ratio"] = (entry["change"]["bracket_s"]["median"]
                                    / entry["base"]["bracket_s"]["median"])
        report["cases"][f"cover {cover}, levels <= {max_level}"] = entry
    out = Path(f"BENCH_{args.label}_hierarchy.json")
    out.write_text(json.dumps(report, indent=1) + "\n")
    for case, entry in report["cases"].items():
        print(f"{case}: " + ", ".join(
            f"{f} {entry['base'][f]['median']:.4g} -> {entry['change'][f]['median']:.4g}"
            for f in FIELDS) + f"; bracket wins {entry['change_wins_bracket_s']}/"
            f"{args.runs}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
