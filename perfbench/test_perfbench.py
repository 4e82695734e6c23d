"""Tests of the benchmark itself: its checks can fail, its counts repeat,
and the seed reaches the verify-all inputs without changing the verdict.

    python3 -m pytest perfbench -q

Sizes are reduced where the workload's pinned expectations allow it, so
the file runs in well under a minute.
"""

import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

wl.import_sftlab()
from sftlab import algebra, hierarchy, suites  # noqa: E402


def small_kdv(builder=None):
    inputs = wl.kdv_setup(0)
    inputs.update(levels=[0, 1, 2, 3], cover=3, builder=builder)
    inputs["expected_terms"] = [
        len(h.terms) for h in wl.kdv_run(dict(inputs, builder=None), 0)[1]]
    return inputs


def perturbed_builder(lattice, level, table, policy):
    """Circle Hamiltonian with one coefficient doubled at level 1."""
    h = hierarchy.circle_hamiltonian(lattice, level, table=table, policy=policy)
    if level != 1:
        return h
    terms = dict(h.terms)
    mono = min(terms)
    terms[mono] *= 2
    return table.series(terms, policy)


# -- fault injection: the checks report failures --------------------------------


def test_kdv_perturbed_hamiltonian_fails_check():
    clean = small_kdv()
    assert wl.kdv_check(clean, wl.kdv_run(clean, 0)) == (11, 0)
    faulty = small_kdv(builder=perturbed_builder)
    tally = [0, 0]
    run.timed_pass(wl.WORKLOADS["kdv-brackets"], faulty, 0, tally)
    assert tally[0] == 11 and tally[1] >= 1


def test_verify_check_counts_fail_records():
    inputs = {"digest": wl.VERIFY_DIGEST}
    text = "suite all: fail\n  ok    a.b: x\n  FAIL  a.c: y\n  skip  a.d: z\n"
    assert wl.verify_check(inputs, (1, text)) == (3, 3)


# -- exact counts repeat ----------------------------------------------------------


def traced(work, inputs):
    tracer = Tracer()
    with tracer.installed():
        work.run(inputs, 0)
    return tracer.metrics()


def test_kdv_counts_repeat_and_match_definitions():
    inputs = small_kdv()
    first = traced(wl.WORKLOADS["kdv-brackets"], inputs)
    second = traced(wl.WORKLOADS["kdv-brackets"], inputs)
    for name in ("algebra.poisson_bracket.terms_out", "algebra.products_formed",
                 "hierarchy.ham_terms", "algebra.window_terms_kept"):
        assert first[name] == second[name]
    assert first["hierarchy.ham_terms"] == sum(inputs["expected_terms"])
    assert first["algebra.poisson_bracket.calls"] == 10
    assert first["algebra.window_terms_in"] == first[
        "algebra.poisson_bracket.terms_out"]
    # products formed = sum |df/dp||dg/dq| + |dg/dp||df/dq| over the brackets
    _, hams = wl.kdv_run(inputs, 0)
    table = hams[0].table
    expected = 0
    for i in range(len(hams)):
        for j in range(i, len(hams)):
            for qpos, ppos, _ in table.orbit_pairs:
                def n(f, pos):
                    return sum(1 for m in f.terms if any(p == pos for p, _ in m))
                expected += (n(hams[i], ppos) * n(hams[j], qpos)
                             + n(hams[j], ppos) * n(hams[i], qpos))
    assert first["algebra.products_formed"] == expected


def test_verify_counts_repeat():
    inputs = wl.verify_setup(5)
    first = traced(wl.WORKLOADS["verify-all"], inputs)
    second = traced(wl.WORKLOADS["verify-all"], inputs)
    for name in ("gw.keys_enumerated", "gw.values_nonzero",
                 "gw.dimension_ok.calls", "gw.value.calls",
                 "algebra.poisson_bracket.terms_out", "algebra.products_formed",
                 "hierarchy.ham_terms"):
        assert first[name] == second[name] > 0


def test_tracer_restores_originals():
    before = (hierarchy.poisson_bracket, suites.SUITES["gw"],
              algebra.GradedSeries.derivative)
    tracer = Tracer()
    with tracer.installed():
        assert hierarchy.poisson_bracket is not before[0]
    assert (hierarchy.poisson_bracket, suites.SUITES["gw"],
            algebra.GradedSeries.derivative) == before


# -- the seed ---------------------------------------------------------------------


def test_seed_changes_verify_inputs_not_verdict():
    seen = {}
    original = suites.poisson_bracket

    def first_operand(seed):
        def spy(f, g):
            seen.setdefault(seed, str(f))
            return original(f, g)
        return spy

    outputs = {}
    try:
        for seed in (1, 2):
            inputs = wl.verify_setup(seed)
            suites.poisson_bracket = first_operand(seed)
            outputs[seed] = wl.verify_run(inputs, 0)
            assert wl.verify_check(inputs, outputs[seed])[1] == 0
    finally:
        suites.poisson_bracket = original
    assert wl.verify_setup(1)["argvs"] != wl.verify_setup(2)["argvs"]
    assert wl.verify_setup(1)["argvs"] == wl.verify_setup(1)["argvs"]
    assert seen[1] != seen[2]
    assert outputs[1] == outputs[2]


# -- the command ------------------------------------------------------------------


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-all",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
