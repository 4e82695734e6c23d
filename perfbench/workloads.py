"""The two benchmark workloads: inputs from a seed, one timed pass, checks.

Each workload is a `Workload` with
  * ``setup(seed)``: imports, model/fixture loading and argument parsing;
    returns the inputs of a pass;
  * ``run(inputs, pass_index)``: one pass, the timed verdict;
  * ``check(inputs, output)``: exact output checks, run outside the timed
    region; returns (attempted, failed).

sftlab is imported from ``src/`` of the checkout this file lives in.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_sftlab():
    """Import sftlab from this checkout's ``src/``; never from elsewhere."""
    if not (SRC / "sftlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no sftlab package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sftlab
    if Path(sftlab.__file__).resolve().parent != (SRC / "sftlab").resolve():
        raise SystemExit(f"perfbench: sftlab imported from {sftlab.__file__}")
    return sftlab


# -- kdv-brackets -------------------------------------------------------------

KDV_LEVELS = [0, 1, 2, 3]
KDV_COVER = 5
KDV_HAM_TERMS = [30, 125, 434, 1285]


def kdv_setup(seed):
    # The identity is deterministic: the seed selects nothing here.
    import_sftlab()
    from sftlab import hierarchy
    return {"hierarchy": hierarchy, "levels": KDV_LEVELS, "cover": KDV_COVER,
            "builder": None, "expected_terms": KDV_HAM_TERMS}


def kdv_run(inputs, pass_index):
    return inputs["hierarchy"].commutator_residuals(
        inputs["levels"], inputs["cover"], builder=inputs["builder"])


def kdv_check(inputs, output):
    """Every bracket {g_i, g_j}, i <= j, is zero on the window; plus the
    Hamiltonian term counts."""
    residuals, hams = output
    n = len(inputs["levels"])
    attempted = failed = 0
    for i in range(n):
        for j in range(i, n):
            attempted += 1
            failed += not residuals[i][j].is_zero()
    attempted += 1
    failed += [len(h.terms) for h in hams] != inputs["expected_terms"]
    return attempted, failed


# -- verify-all -----------------------------------------------------------------

VERIFY_ARGS = ["verify", "--suite", "all", "--max-cover", "3"]
# sha256 of the default text report; it does not depend on --seed.
VERIFY_DIGEST = "5df06cee6d7775af525190111ad734ce357285c6825d76e510dcc71400a98d81"
RECORD = re.compile(r"^  (ok  |FAIL|skip)  ", re.M)


def verify_setup(seed):
    """The first pass gets the benchmark seed as --seed; later passes get
    seeds drawn from it, so a run's median covers several sample sets."""
    import_sftlab()
    from sftlab import cli, gw_oracle, io as sio, suites
    rng = random.Random(seed)
    seeds = [seed] + [rng.randrange(1, 2 ** 31) for _ in range(63)]
    argvs = [VERIFY_ARGS + ["--seed", str(s)] for s in seeds]
    cli.build_parser().parse_args(argvs[0])
    suites.default_cylhom_fixtures()
    sio.load_json(sio.fixture_path("m05_ledger.json"))
    return {"cli": cli, "argvs": argvs, "digest": VERIFY_DIGEST,
            "clear_caches": gw_oracle.point_correlator.cache_clear}


def verify_run(inputs, pass_index):
    # Every pass starts as cold as a fresh `sftlab verify` process.
    inputs["clear_caches"]()
    argv = inputs["argvs"][pass_index % len(inputs["argvs"])]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = inputs["cli"].main(argv)
    return code, buf.getvalue()


def verify_check(inputs, output):
    """Each report record is one check; exit code and output digest add one
    failure each when wrong."""
    code, text = output
    marks = RECORD.findall(text)
    attempted = max(len(marks), 1)
    failed = marks.count("FAIL")
    failed += code != 0
    failed += hashlib.sha256(text.encode()).hexdigest() != inputs["digest"]
    return attempted, min(failed, attempted)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    run: Callable
    check: Callable


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("kdv-brackets", kdv_setup, kdv_run, kdv_check),
    Workload("verify-all", verify_setup, verify_run, verify_check),
)}
