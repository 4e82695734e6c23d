import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _script():
    spec = importlib.util.spec_from_file_location(
        "bench_hierarchy", ROOT / "scripts" / "bench_hierarchy.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_smoke_run_of_the_repo_against_itself(tmp_path, monkeypatch):
    """Cover 2, levels <= 1, one run per side: both sides see zero
    residuals and visit the same record pairs, and the seconds in the
    bracket operands are part of the bracket seconds."""
    monkeypatch.chdir(tmp_path)
    assert _script().main(["--base", str(ROOT), "--change", str(ROOT),
                           "--label", "smoke", "--case", "2:1", "--runs", "1"]) == 0
    report = json.loads((tmp_path / "BENCH_smoke_hierarchy.json").read_text())
    assert report["sides"]["base"] == report["sides"]["change"]
    entry = report["cases"]["cover 2, levels <= 1"]
    base, change = entry["base"], entry["change"]
    assert base["zero"] and change["zero"]
    assert base["pairs"]["values"] == change["pairs"]["values"]
    assert base["pairs"]["median"] > 0
    assert all(side[f]["median"] > 0 for side in (base, change)
               for f in ("build_s", "bracket_s", "peak_rss_mb"))
    assert all(0 <= operand <= bracket for side in (base, change)
               for operand, bracket in zip(side["operand_s"]["values"],
                                           side["bracket_s"]["values"]))
    assert entry["change_wins_bracket_s"] in (0, 1)
