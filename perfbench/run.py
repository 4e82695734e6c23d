"""sftlab benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload kdv-brackets --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; sftlab is imported from its ``src/``.
With ``--trace 0`` the run times untraced passes and reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics (see BENCHMARK.json).  Every pass
is checked for exact correctness outside its timed region.  The last line
of standard output is the result object; the line before it records the
environment.  Results and traced spans also go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 9  # at least this many per run: 4 first, one after each pass

sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def measure_setup(workload: str, seed: int, count: int) -> list:
    """Seconds from process start to ready, for `count` fresh processes."""
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
        finally:
            proc.stdout.close()
            code = proc.wait()
        if code != 0 or line.strip() != "ready":
            raise SystemExit(f"perfbench: setup probe failed (exit {code})")
        times.append(t1 - t0)
    return times


def commit_hash() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(args) -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "commit": commit_hash(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def timed_pass(work, inputs, index, tally, tracer=None):
    """One pass, timed; its output is checked after the tracer is removed."""
    with tracer.installed() if tracer else contextlib.nullcontext():
        t0 = time.perf_counter()
        output = work.run(inputs, index)
        elapsed = time.perf_counter() - t0
    attempted, failed = work.check(inputs, output)
    tally[0] += attempted
    tally[1] += failed
    return elapsed


def run_untraced(work, inputs, seconds, tally, probe) -> dict:
    """Timed passes, with set-up probes spread over the run: machine speed
    can drift over tens of seconds, and one burst would catch one phase."""
    times, setup = [], probe(4)
    start = time.perf_counter()
    while not times or (time.perf_counter() - start) + median(times) <= seconds:
        times.append(timed_pass(work, inputs, len(times), tally))
        setup += probe(1)
    setup += probe(SETUP_PROBES - len(setup))
    return {"verdict_s": times, "setup_s": setup}


def run_traced(work, inputs, seconds, tally, spans_path) -> dict:
    """Alternate untraced and traced passes; the trace.* pair compares them."""
    from tracer import Tracer, combine
    plain, traced, per_pass = [], [], []
    start = time.perf_counter()
    pair = 0.0
    while not traced or (time.perf_counter() - start) + pair <= seconds:
        t0 = time.perf_counter()
        plain.append(timed_pass(work, inputs, len(plain), tally))
        tracer = Tracer()
        traced.append(timed_pass(work, inputs, len(traced), tally, tracer))
        per_pass.append(tracer.metrics())
        pair = time.perf_counter() - t0
    tracer.write_spans(spans_path)
    metrics = combine(per_pass)
    metrics["trace.verdict_s"] = median(traced)
    metrics["trace.overhead_s"] = median(traced) - median(plain)
    return {"metrics": metrics, "verdict_s": plain, "traced_verdict_s": traced}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    work = WORKLOADS[args.workload]
    env = environment(args)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    inputs = work.setup(args.seed)
    tally = [0, 0]
    if args.trace:
        from tracer import PER_LAYER_UNITS
        detail = run_traced(work, inputs, args.seconds, tally,
                            OUT / f"spans-{args.workload}.jsonl")
        metrics = {name: {"value": detail["metrics"][name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        detail = run_untraced(
            work, inputs, args.seconds, tally,
            lambda count: measure_setup(args.workload, args.seed, count))
        attempted, failed = tally
        metrics = {
            "verdict_s": {"value": median(detail["verdict_s"]), "unit": "s"},
            "setup_s": {"value": median(detail["setup_s"]), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            "pass_ratio": {"value": (attempted - failed) / attempted,
                           "unit": "ratio"},
        }
    attempted, failed = tally
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"env": env, "passes": {k: v for k, v in detail.items()
                                     if k != "metrics"}, "result": result}
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"env": env, "passes": record["passes"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
