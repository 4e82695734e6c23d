import contextlib
import importlib.util
import io
import json
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sftlab import io as sio
from sftlab.cli import main
from sftlab.errors import ValidationError
from sftlab.gw import Bounds, reconstruct
from sftlab.models import point_model, projective_line_model
from sftlab.suites import CYLHOM_FIXTURE_FILES, build_cylhom_fixtures


def test_rational_round_trip():
    assert sio.decode_rational(sio.encode_rational(Fraction(-7, 3))) == \
        Fraction(-7, 3)
    assert sio.decode_rational(5) == 5
    with pytest.raises(ValidationError):
        sio.decode_rational("x/y")
    with pytest.raises(ValidationError):
        sio.decode_rational(1.5)
    with pytest.raises(ValidationError,
                       match="^x: rationals must be strings or integers, got bool$"):
        sio.decode_rational(True, "x")


def test_model_round_trip(tmp_path):
    m = projective_line_model()
    path = tmp_path / "m.json"
    sio.save_model(m, path)
    m2 = sio.load_model(path)
    assert m2.primaries == m.primaries
    assert m2.eta == m.eta and m2.divisor == m.divisor


def test_table_round_trip(tmp_path):
    m = point_model()
    t = reconstruct(m, Bounds(max_points=5, max_level=2))
    path = tmp_path / "t.json"
    sio.save_table(t, path)
    t2 = sio.load_table(path, m)
    assert t2.values == t.values


def test_counts_round_trip(tmp_path):
    data = build_cylhom_fixtures()["(2,0)"]
    path = tmp_path / "c.json"
    sio.save_counts(data, path)
    data2 = sio.load_counts(path)
    assert data2.entries == data.entries
    assert data2.section_choice == data.section_choice
    assert data2.table.values == data.table.values


def test_bad_schema_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "nope/9"}))
    with pytest.raises(ValidationError, match="schema"):
        sio.load_model(path)


def test_singular_eta_rejected_on_load(tmp_path):
    obj = sio.model_to_dict(point_model())
    obj["classes"] = [{"id": "a", "degree": 0}, {"id": "b", "degree": 0}]
    obj["eta"] = [["1", "1"], ["1", "1"]]
    obj["unit"] = "a"
    obj["primaries"] = []
    path = tmp_path / "sing.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ValidationError, match="eta not invertible"):
        sio.load_model(path)


def test_constrained_in_equivariant_file_rejected(tmp_path):
    data = build_cylhom_fixtures()["(2,0)"]
    obj = sio.counts_to_dict(data)
    obj["equivariant"] = True
    obj["orbits"] = obj["orbits"]
    obj["entries"] = [dict(obj["entries"][0])]
    obj["entries"][0]["src"] = [obj["entries"][0]["src"][0], ""]
    obj["entries"][0]["dst"] = [obj["entries"][0]["dst"][0], ""]
    path = tmp_path / "eq.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ValidationError):
        sio.load_counts(path)


def test_shipped_fixtures_load():
    for name in ("point.model.json", "twopoint.model.json", "p1.model.json"):
        sio.load_model(sio.fixture_path(name))
    for name in ("floer_point_20.counts.json", "floer_point_11.counts.json",
                 "floer_point_02.counts.json", "floer_twopoint.counts.json",
                 "generic.counts.json", "generic_fault.counts.json"):
        sio.load_counts(sio.fixture_path(name))
    sio.load_profiles(sio.fixture_path("circle.profiles.json"))
    prof = sio.load_profiles(sio.fixture_path("geodesic.profiles.json"))
    assert prof["q_degrees"][2] == 2
    ledger = sio.load_json(sio.fixture_path("m05_ledger.json"))
    assert ledger["schema"] == sio.LEDGER_SCHEMA


def test_shipped_counts_fixtures_are_the_built_ones_byte_for_byte():
    built = build_cylhom_fixtures()
    for key, fname in CYLHOM_FIXTURE_FILES.items():
        shipped = sio.fixture_path(fname).read_text()
        assert shipped == sio.dumps_canonical(sio.counts_to_dict(built[key])), fname


def test_every_shipped_fixture_is_what_make_fixtures_writes(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "make_fixtures",
        Path(__file__).resolve().parent.parent / "scripts" / "make_fixtures.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "FIXTURES", tmp_path)
    script.main()
    written = sorted(p.name for p in tmp_path.iterdir())
    shipped = sio.fixture_path("m05_ledger.json").parent
    # the five-point ledger is hand-written data, not generated
    assert written == sorted(p.name for p in shipped.glob("*.json")
                             if p.name != "m05_ledger.json")
    for name in written:
        assert (tmp_path / name).read_text() == (shipped / name).read_text(), name


def test_files_with_the_old_model_contact_field_load_the_same(tmp_path, capsys):
    """Model files once carried an unread "contact" field; files that still
    do load as before, and count data gives the same report."""
    model_obj = sio.load_json(sio.fixture_path("point.model.json"))
    old_model = tmp_path / "point.model.json"
    old_model.write_text(json.dumps({**model_obj, "contact": True}))
    assert sio.model_to_dict(sio.load_model(old_model)) == model_obj
    counts_obj = sio.load_json(sio.fixture_path("floer_point_20.counts.json"))
    old_counts = tmp_path / "floer_point_20.counts.json"
    old_counts.write_text(json.dumps({
        **counts_obj, "model": {**counts_obj["model"], "contact": True},
        "fiber_model": {**counts_obj["fiber_model"], "contact": True}}))
    reports = []
    for path in (sio.fixture_path("floer_point_20.counts.json"), old_counts):
        assert main(["verify", "--suite", "cylhom", "--counts", str(path)]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("name", ["floer_point_20", "generic_fault"])
def test_counts_files_with_multiplicity_and_wedge_map_give_the_same_output(
        tmp_path, capsys, name):
    """Counts files once carried an orbit "multiplicity" and a "wedge_map";
    both are ignored, so files that still carry them give the same bytes."""
    shipped = sio.fixture_path(f"{name}.counts.json")
    obj = sio.load_json(shipped)
    for k, orbit in enumerate(obj["orbits"]):
        orbit["multiplicity"] = k  # 0 included
    obj["wedge_map"] = {"e": "e~dt"}
    old = tmp_path / f"{name}.counts.json"
    old.write_text(json.dumps(obj))
    for command in (["verify", "--suite", "cylhom", "--counts"], ["homology", "--counts"]):
        results = []
        for path in (shipped, old):
            code = main(command + [str(path)])
            results.append((code, capsys.readouterr()))
        assert results[0] == results[1], command


# -- CLI -----------------------------------------------------------------------------


def test_cli_verify_divisor(capsys):
    code = main(["verify", "--suite", "divisor"])
    out = capsys.readouterr().out
    assert code == 0
    assert "suite divisor: pass" in out


def test_cli_verify_machine_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "--suite", "divisor", "--format", "machine",
                 "--out", str(p1)]) == 0
    assert main(["verify", "--suite", "divisor", "--format", "machine",
                 "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    payload = json.loads(p1.read_text())
    assert payload["schema"] == "sftlab-report/1"
    assert payload["status"] == "pass"


def test_cli_reconstruct(tmp_path):
    out = tmp_path / "table.json"
    code = main(["reconstruct", "--model", "point", "--max-points", "5",
                 "--levels", "2", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "sftlab-table/1"
    assert any(v["value"] == "1" for v in payload["values"])


def test_cli_reconstruct_from_file(tmp_path):
    out = tmp_path / "t.json"
    code = main(["reconstruct", "--model",
                 str(sio.fixture_path("twopoint.model.json")),
                 "--max-points", "4", "--levels", "1", "--out", str(out)])
    assert code == 0


def test_cli_hierarchy(tmp_path):
    out = tmp_path / "h.json"
    assert main(["hierarchy", "--max-cover", "2", "--levels", "0,1",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload["hamiltonians"]) == {"0", "1"}


def test_cli_hierarchy_profiles(tmp_path):
    out = tmp_path / "h.json"
    assert main(["hierarchy", "--max-cover", "3", "--levels", "0",
                 "--profiles", str(sio.fixture_path("geodesic.profiles.json")),
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["hamiltonians"]["0"]["terms"]


def test_cli_hierarchy_cover_bound_from_the_profile(tmp_path):
    """--max-cover wins, then the profile's cover_bound, then 3."""
    circle = str(sio.fixture_path("circle.profiles.json"))
    out = tmp_path / "h.json"
    for extra, cover in ((["--profiles", circle], 6),
                         (["--profiles", circle, "--max-cover", "2"], 2),
                         ([], 3)):
        assert main(["hierarchy", "--levels", "0", "--out", str(out)] + extra) == 0
        assert json.loads(out.read_text())["cover_bound"] == cover


def test_cli_hierarchy_negative_level_exits_2(capsys):
    assert main(["hierarchy", "--levels", "-1"]) == 2
    assert capsys.readouterr().err == "error: --levels: must be >= 0, got -1\n"


@pytest.mark.parametrize("argv, option, least, value", [
    (["verify", "--suite", "gw", "--max-points", "3"], "--max-points", 4, 3),
    (["verify", "--suite", "gw", "--levels", "-1"], "--levels", 0, -1),
    (["verify", "--suite", "hierarchy", "--levels", "-2"], "--levels", 0, -2),
    (["verify", "--suite", "algebra", "--samples", "-3"], "--samples", 1, -3),
    (["verify", "--suite", "algebra", "--samples", "0"], "--samples", 1, 0),
    (["verify", "--suite", "hierarchy", "--max-cover", "0"], "--max-cover", 1, 0),
    (["verify", "--suite", "gw", "--trunc-t", "-1"], "--trunc-t", 1, -1),
    (["verify", "--suite", "gw", "--trunc-t", "0"], "--trunc-t", 1, 0),
    (["reconstruct", "--levels", "-1"], "--levels", 0, -1),
    (["reconstruct", "--max-points", "-1"], "--max-points", 0, -1),
    (["reconstruct", "--model", "p1", "--max-degree", "-1"], "--max-degree", 0, -1),
    (["hierarchy", "--max-cover", "-2"], "--max-cover", 1, -2),
    (["divisor", "--points", "2"], "--points", 3, 2),
    (["divisor", "--index", "0"], "--index", 1, 0),
    (["divisor", "--r", "0"], "--r", 1, 0),
    (["divisor", "--r", "2", "--pos", "-1"], "--pos", 0, -1),
    (["divisor", "--r", "2", "--neg", "-1"], "--neg", 0, -1),
])
def test_cli_bound_below_its_least_value_exits_2_naming_the_option(
        argv, option, least, value, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {option}: must be >= {least}, got {value}\n"


def test_cli_divisor_index_above_the_points_exits_2_naming_it(capsys):
    assert main(["divisor", "--points", "5", "--index", "9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --index: must be <= --points (5), got 9\n"
    assert main(["divisor", "--points", "3", "--index", "3"]) == 0


@pytest.mark.parametrize("levels", ["a", "0,,1"])
def test_cli_hierarchy_malformed_levels_exit_2(levels, capsys):
    assert main(["hierarchy", "--levels", levels]) == 2
    assert capsys.readouterr().err == (
        f"error: --levels: expected comma-separated integers, got {levels!r}\n")


def test_cli_bounds_at_their_least_values_run(capsys):
    assert main(["verify", "--suite", "gw", "--max-points", "4", "--levels", "0",
                 "--trunc-t", "1"]) == 0
    assert main(["reconstruct", "--max-points", "0", "--levels", "0",
                 "--max-degree", "0"]) == 0
    assert '"values": []' in capsys.readouterr().out


def test_cli_hierarchy_odd_circle_profile_exits_2(tmp_path, capsys):
    """Half-dimension 4 makes every q and p odd; the circle builder applies
    no Koszul sign, so the profile is rejected at its half_dim field."""
    obj = sio.load_json(sio.fixture_path("circle.profiles.json"))
    obj.update(half_dim=4, cover_bound=3)
    path = tmp_path / "odd.profiles.json"
    path.write_text(json.dumps(obj))
    assert main(["hierarchy", "--profiles", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}.half_dim: a circle profile (no q_degrees) needs an odd "
        f"half_dim: 4 makes every q_n and p_n odd\n")


def test_cli_homology(tmp_path):
    out = tmp_path / "b.json"
    assert main(["homology", "--counts",
                 str(sio.fixture_path("floer_point_20.counts.json")),
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    # two periods, hat and check generators all survive
    assert sum(payload["betti"].values()) == 4


def test_cli_divisor(tmp_path):
    out = tmp_path / "d.json"
    assert main(["divisor", "--points", "5", "--index", "1", "--r", "3",
                 "--pos", "2", "--neg", "1", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["self_pairing"] == "1"
    assert "two-points" in payload["combinations"]


def test_cli_counts_verification(tmp_path, capsys):
    code = main(["verify", "--suite", "cylhom", "--counts",
                 str(sio.fixture_path("floer_point_20.counts.json"))])
    assert code == 0
    assert "pass" in capsys.readouterr().out


@pytest.mark.parametrize("flag", [["--max-degree", "2"], ["--model", "point"]])
def test_cli_verify_rejects_options_it_does_not_read(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "divisor", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_counts_check_error_is_not_a_failed_check(monkeypatch, capsys):
    # a package error inside the recursion check exits 2 like any other
    # command, instead of being recorded as a failing trr.label check
    import sftlab.cli as cli
    from sftlab.errors import SftlabError

    def broken(data, variant):
        raise SftlabError("broken recursion check")

    monkeypatch.setattr(cli.cylhom, "noneq_trr_residuals", broken)
    code = main(["verify", "--suite", "cylhom", "--counts",
                 str(sio.fixture_path("floer_point_20.counts.json"))])
    captured = capsys.readouterr()
    assert code == 2
    assert "error: broken recursion check" in captured.err
    assert "trr.label" not in captured.out


def test_cylhom_label_guard_does_not_pass_on_a_crash(monkeypatch):
    # only a label mismatch counts as the guard holding; any other exception
    # in the guarded call is an error record, and the other checks still run
    from sftlab import cylhom
    from sftlab.report import ERROR, PASS
    from sftlab.suites import cylhom_suite

    original = cylhom.noneq_trr_residuals
    ids = {c.id for c in cylhom_suite().checks}

    def crash_on_mismatch(data, variant):
        if (data.section_choice, variant) == ("(2,0)", "(1,1)"):
            raise ZeroDivisionError("bug")
        return original(data, variant)

    monkeypatch.setattr(cylhom, "noneq_trr_residuals", crash_on_mismatch)
    status = {c.id: c.status for c in cylhom_suite().checks}
    assert status.pop("trr.label-guard") == ERROR
    assert set(status) == ids - {"trr.label-guard"}
    assert set(status.values()) == {PASS}


def test_cli_cylhom_crash_is_one_error_record(monkeypatch, capsys):
    import sftlab.cli as cli
    from sftlab import cylhom

    def broken(data):
        raise ZeroDivisionError("bug")

    monkeypatch.setattr(cylhom, "quantum_action", broken)
    code = main(["verify", "--suite", "cylhom"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_INTERNAL
    assert "  ERR   action.axioms: " in out
    assert out.count("\n  ok    ") == 16 and "FAIL" not in out


@pytest.mark.parametrize("argv", [
    ["--suite", "all", "--max-cover", "3", "--samples", "20", "--max-points", "6",
     "--levels", "2"],
    ["--suite", "cylhom", "--counts",
     str(sio.fixture_path("floer_point_20.counts.json"))],
], ids=["all", "counts"])
def test_cli_timings_give_every_record_its_runtime(argv, capsys):
    assert main(["verify", *argv, "--timings", "--format", "machine"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks and all(isinstance(c.get("runtime_ms"), int) for c in checks)


def test_cli_input_error_exit_code(capsys):
    assert main(["homology", "--counts", "/does/not/exist.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_failing_check_exit_code(tmp_path, capsys):
    code = main(["verify", "--suite", "cylhom", "--counts",
                 str(sio.fixture_path("generic_fault.counts.json"))])
    assert code == 1


def _set(path, value):
    def mutate(obj):
        *parents, last = path
        for key in parents:
            obj = obj[key]
        obj[last] = value
    return mutate


def _drop(path):
    def mutate(obj):
        *parents, last = path
        for key in parents:
            obj = obj[key]
        del obj[last]
    return mutate


@pytest.mark.parametrize("mutate, field", [
    (_drop(("orbits", 0, "id")), "orbits[0].id"),
    (_set(("orbits", 0, "degree"), "one"), "orbits[0].degree"),
    (_set(("level_bound",), "two"), "level_bound"),
    (_set(("entries", 0, "insertions"), [["x", 1]]), "entries[0].insertions[0]"),
    (_set(("entries", 0, "insertions"), [["x", "one", True]]),
     "entries[0].insertions[0][1]"),
    (_set(("entries", 0, "degree"), ["one"]), "entries[0].degree[0]"),
    (_drop(("model", "classes", 0, "id")), "model.classes[0].id"),
    (_set(("model", "classes", 0, "degree"), "zero"), "model.classes[0].degree"),
    (_set(("model", "primaries", 0, "insertions", 0), ["e"]),
     "model.primaries[0].insertions[0]"),
    (_set(("model", "primaries", 0, "insertions", 0), ["e", "zero"]),
     "model.primaries[0].insertions[0][1]"),
    (_set(("model", "primaries", 0, "degree"), ["one"]),
     "model.primaries[0].degree[0]"),
    (_set(("table", "values", 0, "insertions", 0), ["e", "zero"]),
     "table.values[0].insertions[0][1]"),
    (_set(("table", "values", 0, "insertions", 0), "e"),
     "table.values[0].insertions[0]"),
    (_drop(("table", "values", 0, "value")), "table.values[0].value"),
    (_set(("model", "h2_rank"), "none"), "model.h2_rank"),
    (_set(("model", "chern"), ["one"]), "model.chern[0]"),
    (_set(("model", "primaries", 0, "insertions", 0), ["x", 0]),
     "model.primaries[0].insertions[0]"),
    (_set(("model", "eta"), [["1", "0"]]), "model.eta"),
    (_set(("model", "eta"), 5), "model.eta"),
    (_set(("model", "eta"), [5]), "model.eta[0]"),
    (_set(("model", "divisor_cup"), 5), "model.divisor_cup"),
    (_set(("model", "divisor_cup"), {"e": 5}), "model.divisor_cup.e"),
    (_set(("model", "divisor_cup"), {"e": {"nope": "1"}}), "model.divisor_cup.e"),
    (_set(("model", "divisor_pairing"), 5), "model.divisor_pairing"),
    (_set(("entries", 0, "src"), ["nope", "hat"]), "entries[0].src"),
    (_set(("entries", 0, "dst"), ["b", "nope"]), "entries[0].dst"),
    (_set(("entries", 0, "src"), 5), "entries[0].src"),
    (_set(("entries", 0, "dst"), [["a"], "hat"]), "entries[0].dst"),
    (_set(("orbits", 0), 5), "orbits[0]"),
    (_set(("entries", 0), 5), "entries[0]"),
    (_set(("entries", 0, "insertions"), 5), "entries[0].insertions"),
    (_set(("table", "values", 0), 5), "table.values[0]"),
    (_set(("model",), 5), "model"),
    (_set(("entries", 0, "value"), "1/0"), "entries[0].value"),
    (_set(("table", "values", 0, "value"), "x/y"), "table.values[0].value"),
    (_set(("model", "primaries", 0, "value"), "1/0"), "model.primaries[0].value"),
    (lambda obj: obj["table"]["values"].append(
        {"insertions": [["e", 0]] * 4 + [["e", 2]], "value": "1"}), "table"),
    (_set(("contact",), "false"), "contact"),
    (_set(("equivariant",), "false"), "equivariant"),
    (_set(("orbits", 0, "good"), 1), "orbits[0].good"),
    (_set(("entries", 2, "insertions", 0, 2), "true"), "entries[2].insertions[0][2]"),
    # a constrained insertion needs hat/check generators
    (_set(("equivariant",), True), "entries[2].insertions"),
    (_set(("model", "unit"), []), "model.unit"),
    (_set(("model", "divisor"), {}), "model.divisor"),
    (_set(("orbits", 0, "id"), []), "orbits[0].id"),
    (_set(("orbits", 0, "id"), 5), "orbits[0].id"),
    (_set(("entries", 0, "value"), True), "entries[0].value"),
], ids=["missing-id", "text-degree", "text-level-bound",
        "short-insertion", "text-insertion-level", "text-entry-degree",
        "model-class-missing-id", "model-class-text-degree",
        "primary-short-insertion", "primary-text-level", "primary-text-degree",
        "table-text-level", "table-insertion-not-a-pair", "table-missing-value",
        "model-text-h2-rank", "model-text-chern", "primary-unknown-class",
        "model-eta-shape", "int-eta", "int-eta-row", "int-divisor-cup",
        "int-divisor-cup-row", "divisor-cup-unknown-class", "int-divisor-pairing",
        "unknown-src", "unknown-dst", "int-src",
        "unhashable-dst", "int-orbit", "int-entry", "int-insertions",
        "int-table-value-item", "int-model", "bad-entry-rational",
        "bad-table-rational", "bad-primary-rational", "table-level-above-bound",
        "text-contact", "text-equivariant", "int-good", "text-constrained",
        "constrained-in-equivariant-mode", "list-unit", "object-divisor",
        "list-orbit-id", "int-orbit-id", "bool-entry-value"])
def test_cli_malformed_counts_exit_2_with_field_path(tmp_path, capsys, mutate, field):
    obj = sio.load_json(sio.fixture_path("generic.counts.json"))
    mutate(obj)
    path = tmp_path / "bad.counts.json"
    path.write_text(json.dumps(obj))
    assert main(["homology", "--counts", str(path)]) == 2
    assert f"{path}.{field}:" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("unit", []), ("divisor", {})])
def test_cli_model_string_fields_exit_2(tmp_path, capsys, field, value):
    obj = sio.load_json(sio.fixture_path("p1.model.json"))
    obj[field] = value
    path = tmp_path / "bad.model.json"
    path.write_text(json.dumps(obj))
    assert main(["reconstruct", "--model", str(path), "--max-points", "4",
                 "--levels", "1"]) == 2
    assert f"{path}.{field}: expected a string, got {value!r}" in \
        capsys.readouterr().err


def test_cylhom_suite_reports_a_corrupted_shipped_fixture(tmp_path, monkeypatch,
                                                          capsys):
    # a corrupted package fixture is an input error, never silently replaced
    shipped = sio.fixture_path("generic.counts.json").parent
    for p in shipped.iterdir():
        (tmp_path / p.name).write_text(p.read_text())
    bad = tmp_path / "floer_point_20.counts.json"
    obj = json.loads(bad.read_text())
    obj["entries"][0]["value"] = "1/0"
    bad.write_text(json.dumps(obj))
    monkeypatch.setattr(sio, "fixture_path", lambda name: tmp_path / name)
    assert main(["verify", "--suite", "cylhom"]) == 2
    assert f"{bad}.entries[0].value: bad rational '1/0'" in capsys.readouterr().err


@pytest.mark.parametrize("mutate, field", [
    (_drop(("restrictions",)), "restrictions"),
    (_drop(("self_intersections", 0, "at")), "self_intersections[0].at"),
    (_set(("self_intersections", 0, "weight"), "x/y"),
     "self_intersections[0].weight"),
    (_set(("self_intersections", 0, "divisor"), [1, "five"]),
     "self_intersections[0].divisor[1]"),
    (_set(("self_intersections",), []), "self_intersections"),
    (_set(("cross_intersections", 0, "at", 0), ["near"]),
     "cross_intersections[0].at[0]"),
    (_set(("restrictions", "3,4", 0, "contributions", 0, 1), 0.5),
     "restrictions.3,4[0].contributions[0][1]"),
    (_set(("restrictions", "three,4"), []), "restrictions.three,4"),
    (_set(("self_intersections", 0, "weight"), True), "self_intersections[0].weight"),
], ids=["missing-restrictions", "missing-self-at", "text-weight",
        "text-divisor-point", "no-self-intersection", "short-cross-at",
        "float-contribution", "text-restriction-label", "bool-weight"])
def test_cli_malformed_ledger_exit_2_with_field_path(tmp_path, capsys, mutate, field):
    obj = sio.load_json(sio.fixture_path("m05_ledger.json"))
    mutate(obj)
    path = tmp_path / "bad_ledger.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", "--suite", "divisor", "--ledger", str(path)]) == 2
    assert f"{path}.{field}:" in capsys.readouterr().err


def test_cli_unexpected_exception_is_an_internal_error(monkeypatch, capsys):
    import sftlab.cli as cli

    def broken(data):
        raise ZeroDivisionError("bug")

    monkeypatch.setattr(cli.cylhom, "compute_homology", broken)
    code = main(["homology", "--counts",
                 str(sio.fixture_path("floer_point_20.counts.json"))])
    assert code == cli.EXIT_INTERNAL
    assert code not in (0, 1, 2)
    assert "internal error" in capsys.readouterr().err


@pytest.mark.parametrize("mutate, field", [
    (_set(("half_dim",), "five"), "half_dim"),
    (_drop(("half_dim",)), "half_dim"),
    (_set(("cover_bound",), "three"), "cover_bound"),
    (_set(("q_degrees", "one"), 2), "q_degrees.one"),
    (_set(("q_degrees", "1"), "two"), "q_degrees.1"),
    (_drop(("q_degrees", "2")), "q_degrees.2"),
    (_set(("q_degrees",), [2, 2]), "q_degrees"),
    (_set(("signs", "bad_covers"), ["one"]), "signs.bad_covers[0]"),
    (_set(("signs", "explicit"), [[[1, -1], "one"]]), "signs.explicit[0][1]"),
    (_set(("signs", "explicit"), [[["a"], 1]]), "signs.explicit[0][0][0]"),
    (_set(("signs", "explicit"), [[1, 1]]), "signs.explicit[0]"),
    (_set(("signs", "explicit"), [[[1, -1], 2]]), "signs.explicit[0]"),
    (_set(("signs",), [1]), "signs"),
    (_set(("signs", "bad_covers"), 5), "signs.bad_covers"),
    (_set(("signs", "explicit"), 5), "signs.explicit"),
    (_set(("cover_bound",), 0), "cover_bound"),
    (_set(("q_degrees", "3"), 1), "q_degrees.3"),
    (_set(("signs", "bad_covers"), [2]), "signs.bad_covers"),
    (lambda obj: obj.update(q_degrees=None, signs={"explicit": [[[1, 1, -2], -1]]}),
     "signs.explicit"),
], ids=["text-half-dim", "missing-half-dim", "text-cover-bound",
        "text-cover-key", "text-q-degree", "undeclared-cover", "q-degrees-list",
        "text-bad-cover", "text-sign",
        "text-sign-cover", "sign-tuple-not-a-list", "sign-out-of-range",
        "signs-list", "bad-covers-number", "explicit-number", "zero-cover-bound",
        "parity-rule", "bad-covers-not-derived", "circle-explicit-signs"])
def test_cli_malformed_profiles_exit_2_with_field_path(tmp_path, capsys, mutate,
                                                       field):
    obj = sio.load_json(sio.fixture_path("geodesic.profiles.json"))
    mutate(obj)
    path = tmp_path / "bad.profiles.json"
    path.write_text(json.dumps(obj))
    assert main(["hierarchy", "--max-cover", "2", "--levels", "0",
                 "--profiles", str(path)]) == 2
    assert f"{path}.{field}:" in capsys.readouterr().err


@pytest.mark.parametrize("q_degrees, bad_covers", [
    (None, []), ({"1": 2, "2": 2, "3": 2}, []), ({"1": 1, "2": 2, "3": 1}, [2])])
def test_profiles_with_the_derived_bad_covers_load_the_same(tmp_path, capsys,
                                                            q_degrees, bad_covers):
    """Profile files once declared their bad covers; a file that still does,
    and declares the derived set, gives the same Hamiltonians.  A circle
    profile (no q_degrees) takes no explicit signs."""
    obj = sio.load_json(sio.fixture_path("geodesic.profiles.json"))
    obj["q_degrees"] = q_degrees
    explicit = [[[1, 3, -1, -3], -1]] if q_degrees else []
    outputs = []
    for signs in ({"explicit": explicit},
                  {"bad_covers": bad_covers, "explicit": explicit}):
        path = tmp_path / "p.profiles.json"
        path.write_text(json.dumps({**obj, "signs": signs}))
        assert main(["hierarchy", "--levels", "0,1,2", "--profiles", str(path)]) == 0
        outputs.append(json.loads(capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    assert outputs[0]["hamiltonians"]["1"]["terms"]


# sha256 of `sftlab hierarchy --profiles <shipped geodesic.profiles.json>
# --levels 0,1,2,3,4` output.
HIERARCHY_GEODESIC_DIGEST = (
    "377a6cffd5e86769c1345af35145c74c828596f2d576cf33131b30471e04043e")


def test_cli_hierarchy_geodesic_output_is_byte_identical(capsys):
    import hashlib

    assert main(["hierarchy", "--levels", "0,1,2,3,4", "--profiles",
                 str(sio.fixture_path("geodesic.profiles.json"))]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == HIERARCHY_GEODESIC_DIGEST


def test_algebra_identities_record_their_own_time(monkeypatch):
    from types import SimpleNamespace

    from sftlab import suites
    # the n-th reading of the clock is n^2 seconds: consecutive spans last
    # 1, 3, 5, ... s, so each record shows whose span it was given
    readings = iter(n * n for n in range(100))
    monkeypatch.setattr(suites, "time", SimpleNamespace(monotonic=lambda: next(readings)))
    report = suites.algebra_suite(samples=1, seed=3)
    ms = {c.id: c.runtime_ms for c in report.checks if c.id.startswith("random.")}
    assert ms == {"random.super-commutativity": 1000, "random.leibniz": 3000,
                  "random.antisymmetry": 5000, "random.jacobi": 7000,
                  "random.hbar-divisibility": 9000,
                  "random.hbar-linear-term": 11000}


def test_raising_check_is_an_error_not_a_failure():
    from sftlab.report import ERROR, FAIL, PASS, VerificationReport
    from sftlab.suites import _run_checks

    def crash():
        raise ZeroDivisionError("bug")

    report = VerificationReport("demo")
    _run_checks(report, [("a.crash", "raises", crash),
                         ("b.false", "does not hold", lambda: (False, "1", "")),
                         ("c.true", "holds", lambda: (True, "0", ""))])
    statuses = [c.status for c in report.finalize().checks]
    assert statuses == [ERROR, FAIL, PASS]
    assert report.checks[0].detail == "ZeroDivisionError: bug"
    assert report.status == ERROR and report.exit_code == 3
    text = report.render_text()
    assert "  ERR   a.crash: raises" in text and "  FAIL  b.false" in text
    assert text.startswith("suite demo: error")


def test_cli_verify_exits_3_when_a_check_raises(monkeypatch, capsys):
    import sftlab.cli as cli
    from sftlab import divisors

    def broken(*args):
        raise ZeroDivisionError("bug")

    monkeypatch.setattr(divisors, "solve_combination", broken)
    code = main(["verify", "--suite", "divisor"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_INTERNAL
    assert "suite divisor: error" in out
    assert "  ERR   combinations.r2p2.two-points" in out
    assert "FAIL" not in out


# sha256 of `sftlab verify --suite all --max-cover 3` output, text and
# machine format: any change to a report's bytes shows here.
VERIFY_ALL_DIGESTS = {
    "text": "5df06cee6d7775af525190111ad734ce357285c6825d76e510dcc71400a98d81",
    "machine": "160e24116549740173809f61a25682f0dcb4d204244a4387d4e6842f8c865c6b",
}


@pytest.mark.parametrize("fmt, seed", [
    pytest.param(fmt, None, id=fmt) for fmt in sorted(VERIFY_ALL_DIGESTS)] + [
    pytest.param("text", seed, id=f"text-seed{seed}") for seed in ("1", "2147483647")])
def test_cli_verify_all_report_is_byte_identical(capsys, fmt, seed):
    import hashlib

    code = main(["verify", "--suite", "all", "--max-cover", "3", "--format", fmt]
                + (["--seed", seed] if seed else []))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_DIGESTS[fmt]


# sha256 of `sftlab verify --suite cylhom --counts F` output for each shipped
# counts file F, text and machine format.
VERIFY_COUNTS_DIGESTS = {
    ("floer_point_02", "text"):
        "74b488e7ae3491352b5a720ee633a81376a8a8e242ff1c83a4125988712091ed",
    ("floer_point_02", "machine"):
        "24e22a492f5befd910792c89c1ff25d5f681c168b983d1291f8f05217c43627b",
    ("floer_point_11", "text"):
        "6d817a4e66c8ea3197350f4595e6475f65b4bcfd1cc39dcd125a534658de2bfb",
    ("floer_point_11", "machine"):
        "b67d7f94f5121223a054037757b1b23e54664064bfe02f3f6191c8a2a5d0c821",
    ("floer_point_20", "text"):
        "5b892e405a57301be585c3e970ba1aa14dc5ed2c38d8e004752f1fdff82339b7",
    ("floer_point_20", "machine"):
        "3c23f664593d4bcada97ccb12645387e1872e3f59cb86d523a6a402112db44d4",
    ("floer_twopoint", "text"):
        "28e6a01838f6b42ce2bdc26ae943792420ee4f53512ccfcee0bf5e97d33b00e7",
    ("floer_twopoint", "machine"):
        "fd78424b2580f25cb6e5fd89b5f873f0805973d56a9596fe2b8aa709f2782c48",
    ("generic", "text"):
        "1828ed62e4108b91f6cdf31681d85cef7f9dd4a765cc19e92bf4b7215f577b8b",
    ("generic", "machine"):
        "a42302a85eb39684bcc6e34956b3f1d32faef30cac241aab76f0c831aa21b6b8",
    ("generic_fault", "text"):
        "d39e5a71b22edd33cb04154e76852f266ca3e16cd20d2119a6f180fdb00458ac",
    ("generic_fault", "machine"):
        "d31b033b0845e62ccf0b2572dbddc3730decb4165b1c9989670c6a321a34eacf",
}


@pytest.mark.parametrize("name, fmt", sorted(VERIFY_COUNTS_DIGESTS))
def test_cli_verify_counts_report_is_byte_identical(capsys, name, fmt):
    import hashlib

    code = main(["verify", "--suite", "cylhom", "--format", fmt, "--counts",
                 str(sio.fixture_path(f"{name}.counts.json"))])
    out = capsys.readouterr().out
    assert code == (1 if name == "generic_fault" else 0)
    assert hashlib.sha256(out.encode()).hexdigest() == \
        VERIFY_COUNTS_DIGESTS[name, fmt]


# sha256 of `sftlab divisor` output for four argument sets, among them a
# degenerate two-points target (--r 2) and --pos 0.
DIVISOR_DIGESTS = {
    "5 1 3 2 1": "6b9d62eec4c7bbd43a2696071211cef2e24d95df5b2189e18609e4d0475ceccc",
    "7 3 5 3 2": "c1cf184425ba1bddd9d14619762d2be6ff38ab9119fb419e565fa59013731f21",
    "4 4 2 1 1": "b2824b7f0265decd26f52d017cf0a6b84055c98cdb333644895b37379947deb7",
    "6 2 4 0 2": "d4936c25630d25ff68bf80882fde58d8c4b605fc632ef97aa95e94d8eca22e11",
}


@pytest.mark.parametrize("args", sorted(DIVISOR_DIGESTS))
def test_cli_divisor_output_is_byte_identical(capsys, args):
    import hashlib

    points, index, r, pos, neg = args.split()
    assert main(["divisor", "--points", points, "--index", index, "--r", r,
                 "--pos", pos, "--neg", neg]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIVISOR_DIGESTS[args]


def _generic_with_d_squared_not_zero():
    """The generic fixture plus a plain b.hat -> c.hat entry: d(a.hat) = b.hat
    then goes on to c.hat."""
    from dataclasses import replace

    from sftlab import cylhom

    data = build_cylhom_fixtures()["generic"]
    extra = cylhom.CountEntry(("b", "hat"), ("c", "hat"), (), (), Fraction(1))
    return replace(data, entries=[*data.entries, extra])


def test_counts_suite_skips_homology_when_d_squared_is_not_zero():
    from sftlab.report import FAIL, SKIP
    from sftlab.suites import counts_suite

    records = {c.id: c for c in counts_suite(_generic_with_d_squared_not_zero()).checks}
    assert records["differential.squared"].status == FAIL
    # both homology-level checks: betti numbers and the generic (2,0) exactness
    for cid in ("homology.betti", "trr.(2,0)"):
        assert records[cid].status == SKIP
        assert records[cid].detail == "needs d . d = 0"


def test_cli_homology_names_the_file_when_d_squared_is_not_zero(tmp_path, capsys):
    path = tmp_path / "bad.counts.json"
    sio.save_counts(_generic_with_d_squared_not_zero(), path)
    assert main(["homology", "--counts", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}.entries: differential does not square to zero: "
        f"[('a.hat', 'c.hat')]\n")


# -- fuzzed fixtures -----------------------------------------------------------


def _fixture_command(name, path):
    if name.endswith(".counts.json"):
        return ["homology", "--counts", path]
    if name.endswith("_ledger.json"):
        return ["verify", "--suite", "divisor", "--ledger", path]
    if name.endswith(".model.json"):
        return ["reconstruct", "--model", path, "--max-points", "4", "--levels", "1"]
    return ["hierarchy", "--max-cover", "2", "--levels", "0", "--profiles", path]


FUZZED_FIXTURES = sorted(
    p.name for p in sio.fixture_path("generic.counts.json").parent.iterdir()
    if p.name.endswith((".counts.json", ".model.json", ".profiles.json",
                        "_ledger.json")))


def _nodes(obj, path=()):
    """(path, value) of every node of a JSON tree, the root included."""
    yield path, obj
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield from _nodes(value, path + (key,))


@st.composite
def fixture_mutations(draw):
    """A shipped fixture with one field dropped, one integer replaced by a
    string, float or list, one class id replaced by an unknown one, or one
    string replaced by a list or an object."""
    name = draw(st.sampled_from(FUZZED_FIXTURES))
    obj = sio.load_json(sio.fixture_path(name))
    nodes = list(_nodes(obj))
    class_ids = {c.get("id") for path, v in nodes if path and path[-1] == "classes"
                 for c in v}
    kind = draw(st.sampled_from(("drop", "swap", "class", "unstring")))
    if kind == "drop":
        paths = [p for p, _ in nodes if p and isinstance(p[-1], str)]
    elif kind == "swap":
        paths = [p for p, v in nodes if type(v) is int]
    elif kind == "class":
        paths = [p for p, v in nodes if isinstance(v, str) and v in class_ids]
    else:
        paths = [p for p, v in nodes if isinstance(v, str)]
    if not paths:
        return name, obj
    *parents, last = draw(st.sampled_from(paths))
    parent = obj
    for key in parents:
        parent = parent[key]
    if kind == "drop":
        del parent[last]
    elif kind == "swap":
        parent[last] = draw(st.sampled_from(("one", 1.5, [1])))
    elif kind == "class":
        parent[last] = "no-such-class"
    else:
        parent[last] = draw(st.sampled_from(([], {})))
    return name, obj


@settings(max_examples=100, deadline=None)
@given(fixture_mutations())
def test_fuzzed_fixtures_exit_2_with_a_field_path_never_3(case):
    name, obj = case
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / name)
        Path(path).write_text(json.dumps(obj))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(_fixture_command(name, path))
    assert code in (0, 1, 2), err.getvalue()
    if code == 2:
        assert f"{path}." in err.getvalue()


# -- field sweep ---------------------------------------------------------------

SWEEP_LOADERS = {".counts.json": sio.counts_from_dict,
                 ".model.json": sio.model_from_dict,
                 ".profiles.json": sio.profiles_from_dict,
                 "_ledger.json": sio.ledger_from_dict}
# one value of every JSON kind
SWEEP_VALUES = ([], {}, "x", 7, True, None)
# the allow-list: where a rational is expected, an integer is one too ...
RATIONAL_FIELDS = re.compile(r"(^|\.)(value|weight|a_weight|eta\[\]\[\d+\])$"
                             r"|(^|model\.)divisor_cup\.[^.]+\.[^.]+$"
                             r"|\.(at|contributions)\[\]\[1\]$")
# ... ignored fields take any value ...
IGNORED_FIELDS = re.compile(r"^(fiber_)?table\.model$|^orbits\[\]\.multiplicity$"
                            r"|^wedge_map(\.|$)")
# ... and a field that may be absent may be null (checked by dropping it)
DROPPED = object()
# the kinds of the fields that some fixture leaves null
NULL_FIELD_KINDS = {"divisor": str, "divisor_cup": dict, "divisor_pairing": list}


def _sweep_loader(name):
    return next(f for suffix, f in SWEEP_LOADERS.items() if name.endswith(suffix))


def _sweep_documents():
    """(name, document) of every shipped fixture, plus counts and profiles
    that still carry the legacy orbit multiplicity, wedge map and bad covers."""
    docs = [(name, sio.load_json(sio.fixture_path(name))) for name in FUZZED_FIXTURES]
    legacy = sio.load_json(sio.fixture_path("generic.counts.json"))
    for orbit in legacy["orbits"]:
        orbit["multiplicity"] = 1
    legacy["wedge_map"] = {"e": "e~dt"}
    profiles = sio.load_json(sio.fixture_path("geodesic.profiles.json"))
    profiles["signs"]["bad_covers"] = []
    return docs + [("legacy.counts.json", legacy), ("legacy.profiles.json", profiles)]


def _folded(path, value):
    """A field path with its list indices folded to [], but for a scalar's
    own index, which is its position in a tuple such as [class, level,
    constrained]: entries[].insertions[][1]."""
    own = len(path) - 1 if type(value) not in (list, dict) else len(path)
    return "".join(f".{k}" if type(k) is str else f"[{k}]" if i == own else "[]"
                   for i, k in enumerate(path)).lstrip(".")


def _replaced(obj, path, value):
    """obj with the field at path set to value (or dropped), copying only
    the containers on the path."""
    if not path:
        return value
    head, *rest = path
    out = list(obj) if type(obj) is list else dict(obj)
    if value is DROPPED and not rest:
        del out[head]
    else:
        out[head] = _replaced(obj[head], rest, value)
    return out


def _sweep_cases():
    """(name, document, path, value) of one field for each distinct folded
    field path per loader, taken from the smallest document where it is not
    null, if there is one."""
    docs = dict(_sweep_documents())
    sizes = {name: len(json.dumps(obj)) for name, obj in docs.items()}
    seen = set()
    for _, _, name, path, value in sorted(
            (value is None, sizes[name], name, path, value)
            for name, obj in docs.items() for path, value in _nodes(obj) if path):
        key = (_sweep_loader(name), _folded(path, value))
        if key not in seen:
            seen.add(key)
            yield name, docs[name], path, value


def _load(name, obj):
    """None if the document loads, else the ValidationError it raises."""
    try:
        _sweep_loader(name)(obj, name)
    except ValidationError as exc:
        return exc
    return None


def test_every_field_of_every_other_kind_is_a_validation_error():
    """Each field of the shipped fixtures, replaced by a value of every other
    JSON kind, raises a ValidationError at a path in the file, unless the
    allow-list above permits the value; it never raises anything else."""
    cases = list(_sweep_cases())
    assert {_sweep_loader(name) for name, *_ in cases} == set(SWEEP_LOADERS.values())
    faults = []
    for name, obj, path, current in cases:
        folded = _folded(path, current)
        field = f"{name}: {folded}"
        kind = NULL_FIELD_KINDS[path[-1]] if current is None else type(current)
        for value in SWEEP_VALUES:
            if type(value) is kind:
                continue
            allowed = (IGNORED_FIELDS.search(folded)
                       or type(value) is int and RATIONAL_FIELDS.search(folded)
                       or value is None and type(path[-1]) is str
                       and _load(name, _replaced(obj, path, DROPPED)) is None)
            try:
                exc = _load(name, _replaced(obj, path, value))
            except Exception as other:  # noqa: BLE001 - any other is a fault
                faults.append(f"{field} = {value!r}: {other!r}")
                continue
            if exc is None and not allowed:
                faults.append(f"{field} = {value!r} loads")
            elif exc is not None and not exc.path.startswith(f"{name}."):
                faults.append(f"{field} = {value!r}: raised at {exc.path!r}")
    assert not faults, "\n".join(faults)
