import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _script():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_verdicts_of_a_recorded_report():
    """A spread base leaves kdv-brackets' times unresolved; 10/10 pairs and
    a gap above the base's spread make verify-all's peak RSS a gain."""
    verdict = _script().verdict
    bounds = {m["name"]: m["bound"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    report = json.loads((ROOT / "BENCH_one_derivative_step.json").read_text())
    got = {(workload, metric): verdict(m, bounds[metric])
           for workload, entry in report["workloads"].items()
           for metric, m in entry["metrics"].items()}
    special = {("kdv-brackets", "verdict_s"): "unresolved",
               ("kdv-brackets", "setup_s"): "unresolved",
               ("verify-all", "peak_rss_mb"): "gain"}
    assert len(got) == 8
    assert got == {key: special.get(key, "unchanged") for key in got}


def test_a_median_worse_than_the_bound_is_a_regression():
    entry = {"better": "lower", "change_wins": 0,
             "base": {"median": 1.0, "q1": 0.99, "q3": 1.01, "values": [1.0] * 10},
             "change": {"median": 1.3, "q1": 1.29, "q3": 1.31, "values": [1.3] * 10}}
    verdict = _script().verdict
    assert verdict(entry, 0.25) == "regressed"
    assert verdict(entry, 0.5) == "unchanged"
