"""Paired benchmark runs of two checkouts; writes BENCH_<label>.json.

Runs ``perfbench/run.py`` in a base and a change checkout, one pair of
runs per seed, alternating which side goes first so that a slow phase of
the machine falls on both sides alike.  For every end-to-end metric of
``BENCHMARK.json`` it records each side's median and quartiles over the
pairs and how many pairs the change wins, and per side the sha256 and
the non-blank line count of ``src/sftlab/*.py``.  With ``--trace`` each
side also gets one traced run per workload for the per-layer metrics.

Each end-to-end metric also gets a verdict, written and printed:

- ``gain``: the change wins at least 9 of 10 pairs, and the medians differ
  by more than the base's interquartile range in the better direction;
- ``regressed``: the change's median is worse than the base's by more than
  the metric's relative ``bound``;
- ``unresolved``: the base's interquartile range exceeds the bound, and not
  every change run beats every base run;
- ``unchanged``: everything else.

    python3 scripts/bench_pairs.py --base ../parent --change . \\
        --label packed_kernel --pairs 10 --trace

Both checkouts need ``src/``, ``perfbench/`` and ``BENCHMARK.json``; the
run length (``run_seconds``) and the metric directions are read from the
change's ``BENCHMARK.json``.  The report is written to
``BENCH_<label>.json`` in the working directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles


def src_digest(checkout: Path) -> str:
    """sha256 over the checkout's sftlab sources, to tie numbers to a tree."""
    h = hashlib.sha256()
    for path in sorted((checkout / "src" / "sftlab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def src_lines(checkout: Path) -> int:
    """Non-blank lines of the checkout's sftlab sources."""
    return sum(1 for path in (checkout / "src" / "sftlab").glob("*.py")
               for line in path.read_text().splitlines() if line.strip())


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """One perfbench run; returns its env and result lines."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} in {checkout} exited "
                         f"{proc.returncode}\n{proc.stderr}")
    return {"env": json.loads(lines[-2])["env"], "result": json.loads(lines[-1])}


def summary(values: list) -> dict:
    q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return {"median": median(values), "q1": q1, "q3": q3, "values": values}


def verdict(entry: dict, bound: float) -> str:
    """Verdict of one metric entry of a report (see the module docstring);
    ``bound`` is the metric's relative bound in ``BENCHMARK.json``."""
    base, change = entry["base"], entry["change"]
    sign = 1 if entry["better"] == "lower" else -1  # sign * value: lower is better
    scale = bound * abs(base["median"])
    worse_by = sign * (change["median"] - base["median"])
    spread = base["q3"] - base["q1"]
    if 10 * entry["change_wins"] >= 9 * len(base["values"]) and -worse_by > spread:
        return "gain"
    if worse_by > scale:
        return "regressed"
    beats_all = (max(sign * v for v in change["values"])
                 < min(sign * v for v in base["values"]))
    if spread > scale and not beats_all:
        return "unresolved"
    return "unchanged"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--label", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=101,
                    help="seed of the first pair; pair i uses seed + i")
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--trace", action="store_true",
                    help="add one traced run per side and workload")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")
    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    report = {"label": args.label, "pairs": args.pairs, "seconds": seconds,
              "seeds": [args.seed, args.seed + args.pairs - 1],
              "sides": {name: {"src_sha256": src_digest(path),
                               "src_lines": src_lines(path)}
                        for name, path in sides.items()},
              "workloads": {}}
    for workload in workloads:
        runs = {"base": [], "change": []}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for name in order:
                t0 = time.perf_counter()
                run = run_once(sides[name], workload, args.seed + i, seconds, 0)
                runs[name].append(run)
                print(f"{workload} pair {i} {name}: verdict_s "
                      f"{run['result']['metrics']['verdict_s']['value']:.3f} "
                      f"({time.perf_counter() - t0:.0f} s)", file=sys.stderr)
        entry = {"env": {name: runs[name][0]["env"] for name in runs},
                 "correct": {name: all(r["result"]["correct"] for r in runs[name])
                             for name in runs},
                 "metrics": {}}
        for metric, direction in better.items():
            vals = {name: [r["result"]["metrics"][metric]["value"] for r in runs[name]]
                    for name in runs}
            sign = 1 if direction == "lower" else -1
            wins = sum(sign * (c - b) < 0 for b, c in zip(vals["base"], vals["change"]))
            entry["metrics"][metric] = m = {
                "better": direction, "change_wins": wins,
                **{name: summary(v) for name, v in vals.items()}}
            m["verdict"] = verdict(m, bounds[metric])
        if args.trace:
            entry["traced"] = {
                name: run_once(sides[name], workload, args.seed, seconds,
                               1)["result"]["metrics"]
                for name in sides}
        report["workloads"][workload] = entry
    Path(f"BENCH_{args.label}.json").write_text(json.dumps(report, indent=1) + "\n")
    lines = {name: side["src_lines"] for name, side in report["sides"].items()}
    print(f"src/sftlab non-blank lines: {lines['base']} -> {lines['change']} "
          f"({lines['change'] - lines['base']:+d})")
    for workload, entry in report["workloads"].items():
        for metric, m in entry["metrics"].items():
            print(f"{workload} {metric}: median {m['base']['median']:.4g} -> "
                  f"{m['change']['median']:.4g}, change wins {m['change_wins']}/"
                  f"{args.pairs}: {m['verdict']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
