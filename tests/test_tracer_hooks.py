"""The benchmark's tracer wraps sftlab names from outside the package; a
name it hooks that the package no longer has breaks every traced run."""

import importlib.util
from pathlib import Path

from sftlab import operators

ROOT = Path(__file__).resolve().parent.parent


def _tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_hooked_name_resolves_and_is_restored():
    """Installing looks up every hooked name (a missing one raises) and
    rebinds it; leaving puts the original back."""
    original = operators.graded_anticommutator
    with _tracer().Tracer().installed():
        assert operators.graded_anticommutator is not original
    assert operators.graded_anticommutator is original
