import collections
import json
import math
import os

import pytest
from hypothesis import given, settings, strategies as hst

from ddgeo import document as doc
from ddgeo.cli import _build_parser, run
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


def test_schema_error_exit_two(tmp_path, capsys):
    fn = str(tmp_path / "schema.json")
    with open(fn, "w") as fh:
        json.dump({"version": 1, "params": {"ell": 1.0}}, fh)
    assert run(["validate", fn]) == 2
    # JSON booleans and the NaN and Infinity that json reads are no numbers:
    # one line naming the field
    good = doc.path_to_json(build_path([0.0, 0.0], [2.0]), P8)
    for field, edit in [("params.ell", lambda d: d["params"].update(ell=True)),
                        ("start.heading_degrees",
                         lambda d: d["start"].update(heading_degrees=math.inf)),
                        ("vertices[1][0]", lambda d: d["vertices"][1].__setitem__(0, math.nan)),
                        ("end.point[1]", lambda d: d["end"]["point"].__setitem__(1, False))]:
        bad = json.loads(json.dumps(good))
        edit(bad)
        with open(fn, "w") as fh:
            json.dump(bad, fh)  # writes NaN and Infinity as json reads them
        capsys.readouterr()
        assert run(["validate", fn]) == 2, field
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and field in err, (field, err)


def test_save_writes_json_dumps_bytes(tmp_path, monkeypatch):
    # the documents the commands write, then values that take the json
    # module's other branches: save's text is json.dumps(doc, indent=2) + "\n"
    import numpy as np

    written = []

    def save(d, fn):
        real_save(d, fn)
        written.append((d, fn))

    real_save = doc.save
    monkeypatch.setattr(doc, "save", save)
    d_json, s_json = str(tmp_path / "d.json"), str(tmp_path / "s.json")
    assert run(["discretize", "--word", "L1.5 S2 R0.7", "--n", "16", "--out", d_json]) == 0
    assert run(["shorten", d_json, "--out", s_json]) == 0
    assert run(["classify", s_json, "--out", str(tmp_path / "c.json")]) == 0
    assert run(["dubins", "--start", "0,0,0", "--end", "0,4,0",
                "--out", str(tmp_path / "dub.json")]) == 0
    assert run(["converge", "--start", "0,0,0", "--end", "8,3,45", "--n", "8,16",
                "--out", str(tmp_path / "conv.json")]) == 0
    by_name = {os.path.basename(fn): d for d, fn in written}
    assert by_name["s.json"]["trace"] and by_name["c.json"]["structure"]["type"] == "ABA"
    assert by_name["dub.json"]["kind"] == "smooth"
    assert by_name["conv.json"]["kind"] == "convergence"

    f64 = np.float64
    for i, d in enumerate([
        {"vertices": [[0, 0], [2, 0], [2, 2]], "point": [1, 2.5]},
        {"vertices": [[0.0, math.nan], [math.inf, -math.inf]], "x": math.nan},
        {"vertices": [[f64(0.5), f64(1.0)], [1.5, f64(-2.0)]], "s": f64(1e-300)},
        {"vertices": [[1e308, 1e308], [-0.0, 5e-324]]},
        {"label": "Ünïcode ✓ \u2028", "esc": "tab\tquote\"back\\slash\nnew\x00"},
        {"empty": [], "none": {}, "nested": [[], {}, [[]]], "pairs": [[1.0, 2.0], []]},
        {"tuple": (1.0, 2.0), "pairs": [(1.0, 2.0), (3.0, 4.0)], "t": ((), (1,))},
        {"scalars": [True, False, None, 7, -0.0, "s"], "deep": {"a": {"b": [[1.5, 2.5]]}}},
        {"keys": {1: "int", 2.5: "float", True: "bool", None: "null"}},
        {"subclass": collections.OrderedDict(b=[[1.0, 2.0]], a=[])},
    ]):
        doc.save(d, str(tmp_path / f"v{i}.json"))
    for d, fn in written:
        with open(fn, encoding="utf-8") as fh:
            assert fh.read() == json.dumps(d, indent=2) + "\n", fn


_PAIR = hst.lists(hst.floats(), min_size=2, max_size=2)
_JSON_VALUES = hst.recursive(
    hst.none() | hst.booleans() | hst.integers() | hst.floats() | hst.text() | hst.lists(_PAIR),
    lambda inner: (hst.lists(inner, max_size=4) | hst.tuples(inner, inner)
                   | hst.dictionaries(hst.text(max_size=3), inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_JSON_VALUES)
def test_writer_matches_json_dumps(value):
    assert doc._dumps(value, "") == json.dumps(value, indent=2)


def test_path_from_json_one_pass_matches_vertex_walk():
    import numpy as np

    from gen import random_feasible_path

    rng = np.random.default_rng(3)
    for n in (8, 16, 64):
        params = Params.from_sides(n, 1.0)
        for _ in range(10):
            raw = json.loads(json.dumps(doc.path_to_json(random_feasible_path(params, rng), params)))
            assert doc._float_pairs(raw["vertices"]) is not None
            walked = tuple(doc._point(v, f"vertices[{i}]") for i, v in enumerate(raw["vertices"]))
            path, _ = doc.path_from_json(raw)
            assert path.vertices == walked
            assert all(type(c) is float for p in path.vertices for c in p)
            assert path.start.point == walked[0] and path.end.point == walked[-1]


@pytest.mark.parametrize("vertex, message", [
    ([True, 0.0], "vertices[1][0] must be a finite number"),
    ([1.0, math.nan], "vertices[1][1] must be a finite number"),
    ([1.0, 0.0, 0.0], "vertices[1] must be [x, y]"),
    ([[1.0, 0.0], 0.0], "vertices[1][0] must be a finite number"),
    ("1,0", "vertices[1] must be [x, y]"),
    ([10 ** 400, 0.0], "vertices[1][0] must be a finite number"),
], ids=["bool", "nan", "three", "nested", "string", "huge-int"])
def test_bad_vertex_keeps_message_exit_two(tmp_path, capsys, vertex, message):
    d = doc.path_to_json(build_path([0.0, 0.0, 0.0], [2.0, 2.0]), P8)
    d["vertices"][1] = vertex
    fn = str(tmp_path / "bad-vertex.json")
    with open(fn, "w") as fh:
        json.dump(d, fh)
    assert run(["validate", fn]) == 2
    assert capsys.readouterr().err == f"error: {fn}: {message}\n"


def test_classify_ngon_type_a(tmp_path, capsys):
    turns = [0.0] + [P8.theta] * 7 + [0.0]
    path = build_path(turns, [1.0] * 8)
    fn = str(tmp_path / "ngon.json")
    doc.save(doc.path_to_json(path, P8), fn)
    assert run(["classify", fn]) == 0
    assert capsys.readouterr().out.strip() == "A"


def test_classify_infeasible_exit_one(tmp_path, capsys):
    # a 90 degree corner is twice the n = 8 turn bound
    bad = build_path([0.0, math.pi / 2, 0.0], [2.0, 2.0])
    fn = str(tmp_path / "bad.json")
    doc.save(doc.path_to_json(bad, P8), fn)
    assert run(["classify", fn]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "infeasible path; run validate for details"


def test_classify_repeated_vertex_exit_two(tmp_path, capsys):
    d = doc.path_to_json(build_path([0.0, 0.0], [2.0]), P8)
    d["vertices"].insert(1, list(d["vertices"][0]))
    fn = str(tmp_path / "repeated.json")
    doc.save(d, fn)
    assert run(["classify", fn]) == 2
    assert "repeated vertex" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["input-dir", "out-dir", "svg-missing-dir"])
def test_unopenable_file_path_exit_two(tmp_path, capsys, case):
    fn = _write_straight(tmp_path)
    argv = {"input-dir": ["classify", str(tmp_path)],
            "out-dir": ["classify", fn, "--out", str(tmp_path)],
            "svg-missing-dir": ["classify", fn, "--svg", str(tmp_path / "missing" / "x.svg")],
            }[case]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_repeated_runs_share_one_parser(tmp_path, capsys):
    assert _build_parser() is _build_parser()
    fn = _write_straight(tmp_path)
    assert run(["classify"]) == 2
    assert "required" in capsys.readouterr().err
    assert run(["classify", fn]) == 0
    assert capsys.readouterr().out.strip() == "B"
    assert run(["shorten", fn, "--budget", "0"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("fixed-point after 0 moves")
    assert captured.err == ""


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


def test_shorten_negative_budget_exit_two(tmp_path, capsys):
    fn = _write_straight(tmp_path)
    assert run(["shorten", fn, "--budget", "-3"]) == 2
    assert "budget" in capsys.readouterr().err


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


def test_render_structure_points_match_edge_walk():
    # each arc and bridge is drawn through its end points and the vertices
    # strictly between them: the same SVG points as a walk over every edge
    # clipped to its span, once consecutive repeats are dropped
    import itertools

    import numpy as np

    from ddgeo import render
    from ddgeo.geometry import dist, lerp
    from ddgeo.model import edge_lengths
    from ddgeo.structure import InternalInconsistencyError, structure_of

    from gen import random_feasible_path

    def walk(path, s0, s1):
        pts, acc, v = [], 0.0, path.vertices
        for i in range(len(v) - 1):
            ln = dist(v[i], v[i + 1])
            lo, hi = acc, acc + ln
            acc = hi
            if hi < s0 or lo > s1:
                continue
            pa = lerp(v[i], v[i + 1], (max(lo, s0) - lo) / ln)
            pb = lerp(v[i], v[i + 1], (min(hi, s1) - lo) / ln)
            pts += [pa, pb]
        return pts

    def drawn(coords):
        return [c for i, c in enumerate(coords) if i == 0 or c != coords[i - 1]]

    rng = np.random.default_rng(25)
    pieces = 0
    for _ in range(60):
        path = random_feasible_path(P8, rng)
        try:
            st = structure_of(path, P8)
        except InternalInconsistencyError:
            continue
        # the renderer cuts at the positions the structure was measured on,
        # the same floats as a walk over the edge lengths
        assert st.vertex_s == list(itertools.accumulate(edge_lengths(path), initial=0.0))
        verts = render._coords(path.vertices)
        for piece in st.arcs + st.bridges:
            pieces += 1
            assert drawn(render._structure_points(verts, st.vertex_s, piece)) == \
                drawn(render._coords(walk(path, piece.start_s, piece.end_s)))
    assert pieces >= 100


def test_usage_error_exit_two(capsys):
    assert run(["plan", "--start", "0,0,0", "--end", "1,1,0"]) == 2


@pytest.mark.parametrize("argv", [
    ["plan", "--params-n", "0", "--ell", "1", "--start", "0,0,0", "--end", "5,0,0"],
    ["discretize", "--word", "L1.5", "--n", "0"],
    ["converge", "--start", "0,0,0", "--end", "8,3,45", "--n", "0"],
], ids=["plan", "discretize", "converge"])
def test_fewer_than_four_sides_exit_two(argv, capsys):
    assert run(argv) == 2
    assert "at least 4" in capsys.readouterr().err


def test_plan_non_finite_point_exit_two(capsys):
    assert run(["plan", "--params-n", "8", "--ell", "1", "--start", "0,0,0",
                "--end", "inf,0,0"]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("start", ["0,0,inf", "0,0,nan", "nan,0,0"])
def test_plan_non_finite_configuration_one_line(start, capsys):
    assert run(["plan", "--params-n", "8", "--ell", "1", "--start", start,
                "--end", "3,0,0"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "must be finite" in err


def test_discretize_unindexable_breakpoints_exit_two(tmp_path, capsys):
    # 1e300 / theta breakpoints do not fit an index: one line, no traceback
    out = str(tmp_path / "x.json")
    assert run(["discretize", "--word", "S1e300", "--n", "8", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "breakpoints" in err
    assert not os.path.exists(out)


def test_plan_skips_unindexable_seed(capsys):
    # at ell = 1e-300 the Dubins seed has too many breakpoints to index; plan
    # goes on without it
    assert run(["plan", "--params-n", "8", "--ell", "1e-300", "--start", "0,0,0",
                "--end", "3,0,0"]) == 0
    assert capsys.readouterr().out.startswith("type B length 3 vertices 2")


def test_degrees_on_surface(tmp_path):
    # a 45 degree heading on disk becomes a unit vector inside
    path = build_path([0.0, 0.0], [3.0], base_angle=math.pi / 4)
    fn = str(tmp_path / "deg.json")
    doc.save(doc.path_to_json(path, P8), fn)
    loaded, _ = doc.path_from_json(doc.load(fn))
    assert loaded.start.heading[0] == pytest.approx(math.cos(math.pi / 4))
