import json
from fractions import Fraction

import pytest

from sftlab import io as sio
from sftlab.cli import main
from sftlab.errors import ValidationError
from sftlab.gw import Bounds, reconstruct
from sftlab.models import point_model, projective_line_model
from sftlab.suites import build_cylhom_fixtures


def test_rational_round_trip():
    assert sio.decode_rational(sio.encode_rational(Fraction(-7, 3))) == \
        Fraction(-7, 3)
    assert sio.decode_rational(5) == 5
    with pytest.raises(ValidationError):
        sio.decode_rational("x/y")
    with pytest.raises(ValidationError):
        sio.decode_rational(1.5)


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
    assert data2.counts.entries == data.counts.entries
    assert data2.table.values == data.table.values
    assert data2.wedge_map == data.wedge_map


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
    assert prof["grading"].q_degree(2) == 2
    ledger = sio.load_json(sio.fixture_path("m05_ledger.json"))
    assert ledger["schema"] == sio.LEDGER_SCHEMA


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
    (_set(("orbits", 0, "multiplicity"), 0), "orbits[0].multiplicity"),
    (_set(("entries", 0, "insertions"), [["x", 1]]), "entries[0].insertions[0]"),
    (_set(("entries", 0, "insertions"), [["x", "one", True]]),
     "entries[0].insertions[0][1]"),
    (_set(("entries", 0, "degree"), ["one"]), "entries[0].degree[0]"),
], ids=["missing-id", "text-degree", "text-level-bound", "zero-multiplicity",
        "short-insertion", "text-insertion-level", "text-entry-degree"])
def test_cli_malformed_counts_exit_2_with_field_path(tmp_path, capsys, mutate, field):
    obj = sio.load_json(sio.fixture_path("generic.counts.json"))
    mutate(obj)
    path = tmp_path / "bad.counts.json"
    path.write_text(json.dumps(obj))
    assert main(["homology", "--counts", str(path)]) == 2
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
