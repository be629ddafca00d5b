import json
import math
import os

import pytest

from ddgeo import document as doc
from ddgeo.cli import run
from ddgeo.model import Configuration, DiscretePath, Params

from gen import build_path

P8 = Params.from_sides(8, 1.0)


def _write_straight(tmp_path, name="straight.json", length=5.0):
    path = build_path([0.0, 0.0], [length])
    fn = str(tmp_path / name)
    doc.save(doc.path_to_json(path, P8), fn)
    return fn


def test_roundtrip_field_for_field(tmp_path):
    turns = [0.0] + [P8.theta] * 5 + [0.0]
    path = build_path(turns, [1.0] * 6)
    d = doc.path_to_json(path, P8)
    fn = str(tmp_path / "p.json")
    doc.save(d, fn)
    loaded = doc.load(fn)
    assert loaded == d
    path2, params2 = doc.path_from_json(loaded)
    assert params2 == P8
    assert path2.vertices == path.vertices


def test_validate_feasible_exit_zero(tmp_path, capsys):
    fn = _write_straight(tmp_path)
    assert run(["validate", fn]) == 0
    assert "feasible" in capsys.readouterr().out


def test_validate_infeasible_exit_one(tmp_path, capsys):
    bad = build_path([0.0, P8.theta + 0.2, 0.0], [2.0, 2.0])
    fn = str(tmp_path / "bad.json")
    doc.save(doc.path_to_json(bad, P8), fn)
    assert run(["validate", fn]) == 1
    assert "turn" in capsys.readouterr().out


def test_malformed_json_exit_two(tmp_path, capsys):
    fn = str(tmp_path / "broken.json")
    with open(fn, "w") as fh:
        fh.write("{not json")
    assert run(["validate", fn]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


def test_schema_error_exit_two(tmp_path):
    fn = str(tmp_path / "schema.json")
    with open(fn, "w") as fh:
        json.dump({"version": 1, "params": {"ell": 1.0}}, fh)
    assert run(["validate", fn]) == 2


def test_classify_ngon_type_a(tmp_path, capsys):
    turns = [0.0] + [P8.theta] * 7 + [0.0]
    path = build_path(turns, [1.0] * 8)
    fn = str(tmp_path / "ngon.json")
    doc.save(doc.path_to_json(path, P8), fn)
    assert run(["classify", fn]) == 0
    assert capsys.readouterr().out.strip() == "A"


def test_plan_then_validate_pipeline(tmp_path, capsys):
    out = str(tmp_path / "planned.json")
    rc = run(["plan", "--params-n", "8", "--ell", "1.0",
              "--start", "0,0,0", "--end", "9,2,30", "--out", out])
    assert rc == 0
    assert run(["validate", out]) == 0


def test_shorten_writes_trace(tmp_path, capsys):
    path = build_path([0.0, 0.4 * P8.theta, 0.0], [2.0, 2.0])
    fn = str(tmp_path / "long.json")
    doc.save(doc.path_to_json(path, P8), fn)
    out = str(tmp_path / "short.json")
    assert run(["shorten", fn, "--out", out]) == 0
    result = doc.load(out)
    assert "trace" in result and len(result["trace"]) >= 1
    entry = result["trace"][0]
    assert entry["length_after"] <= entry["length_before"]


def test_discretize_command(tmp_path):
    out = str(tmp_path / "disc.json")
    rc = run(["discretize", "--word", "L1.5 S2 R0.7", "--n", "16",
              "--out", out])
    assert rc == 0
    assert run(["validate", out]) == 0


def test_dubins_command(tmp_path, capsys):
    out = str(tmp_path / "smooth.json")
    assert run(["dubins", "--start", "0,0,0", "--end", "10,0,0",
                "--out", out]) == 0
    text = capsys.readouterr().out
    assert "length 10" in text
    saved = doc.load(out)
    assert saved["kind"] == "smooth"
    assert saved["length"] == pytest.approx(10.0)


def test_converge_command(tmp_path, capsys):
    out = str(tmp_path / "table.json")
    rc = run(["converge", "--start", "0,0,0", "--end", "8,3,45",
              "--n", "8,16", "--out", out])
    assert rc == 0
    rows = doc.load(out)["rows"]
    assert len(rows) == 2
    for r in rows:
        assert r["plan"] <= r["discretized"] + 1e-9
        assert r["discretized"] <= r["dubins"] + 1e-9


def test_render_command(tmp_path):
    fn = _write_straight(tmp_path)
    svg = str(tmp_path / "out.svg")
    assert run(["render", fn, "--svg", svg]) == 0
    content = open(svg).read()
    assert content.startswith("<svg") and "polyline" in content


def test_usage_error_exit_two(capsys):
    assert run(["plan", "--start", "0,0,0", "--end", "1,1,0"]) == 2


def test_plan_arc_cap_below_one_exit_two(capsys):
    assert run(["plan", "--params-n", "8", "--ell", "1.0", "--start", "0,0,0",
                "--end", "3,1,90", "--k-max", "0"]) == 2
    assert "k_max" in capsys.readouterr().err


def test_degrees_on_surface(tmp_path):
    # a 45 degree heading on disk becomes a unit vector inside
    path = build_path([0.0, 0.0], [3.0], base_angle=math.pi / 4)
    fn = str(tmp_path / "deg.json")
    doc.save(doc.path_to_json(path, P8), fn)
    loaded, _ = doc.path_from_json(doc.load(fn))
    assert loaded.start.heading[0] == pytest.approx(math.cos(math.pi / 4))
