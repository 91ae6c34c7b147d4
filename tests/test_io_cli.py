import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import geonet
from geonet.circle import INFINITY, tangent_point
from geonet.cli import _emit, dispatch, main
from geonet.errors import ParseError, VersionError
from geonet.exact import RadExpr
from geonet.io import (
    network_from_dict,
    network_to_dict,
    read_network,
    scalar_to_json,
    write_network,
)
from geonet.network import InteriorEdge, Vertex, canonical_key, is_admissible, make_network
from geonet.sweep import SphereConfig, minmax_closed_form
from helpers import (
    fan_chords,
    golden_triangle,
    line_network,
    naive_chord_sets,
    pt,
    square_network,
)


def roundtrip(net, tmp_path):
    path = tmp_path / "net.json"
    write_network(net, path)
    return read_network(path)


def test_roundtrip_golden(tmp_path):
    net = golden_triangle()
    back = roundtrip(net, tmp_path)
    assert canonical_key(back) == canonical_key(net)
    assert [v.position.tan_half for v in back.vertices] == [
        v.position.tan_half for v in net.vertices
    ]
    assert [v.exterior_mult for v in back.vertices] == [100, 56, 100]
    assert [(e.i, e.j, e.mult) for e in back.edges] == [
        (e.i, e.j, e.mult) for e in net.edges
    ]


def test_roundtrip_infinity(tmp_path):
    back = roundtrip(line_network(5), tmp_path)
    assert back.vertices[1].position.tan_half is INFINITY


def test_tan_half_encoding():
    data = network_to_dict(golden_triangle())
    assert data["version"] == "geonet/1"
    assert data["vertices"][0]["tan_half"] == [0, 1]
    assert data["vertices"][1]["tan_half"] == [4, 3]
    assert data["vertices"][2]["tan_half"] == [-24, 7]
    assert network_to_dict(line_network())["vertices"][1]["tan_half"] == "inf"


def test_radical_positions_serialize_as_null(tmp_path):
    # tan(pi/8)-style points have no rational encoding; they degrade to float
    p = tangent_point(pt(0), pt(1))
    assert isinstance(p.tan_half, RadExpr)
    net = make_network(
        [Vertex(pt(0), 1), Vertex(p, 2), Vertex(pt(INFINITY), 1)],
        [InteriorEdge(0, 2, 1)],
    )
    data = network_to_dict(net)
    assert data["vertices"][1]["tan_half"] is None
    back = roundtrip(net, tmp_path)
    assert back.vertices[1].position.tan_half is None
    assert back.vertices[1].position.angle == pytest.approx(p.angle)


def test_version_rejected():
    data = network_to_dict(line_network())
    data["version"] = "geonet/999"
    with pytest.raises(VersionError):
        network_from_dict(data)


def test_missing_keys_rejected():
    data = network_to_dict(line_network())
    del data["edges"]
    with pytest.raises(ParseError):
        network_from_dict(data)
    with pytest.raises(ParseError):
        network_from_dict({"version": "geonet/1", "vertices": 3, "edges": []})


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"version": "geonet/1",\n  "vertices": [}', encoding="utf-8")
    with pytest.raises(ParseError) as info:
        read_network(path)
    assert info.value.line == 2
    assert info.value.column is not None
    assert "line 2" in str(info.value)


def test_malformed_records_rejected():
    base = network_to_dict(line_network())
    bad = json.loads(json.dumps(base))
    bad["vertices"][0]["tan_half"] = [1, 0]
    with pytest.raises(ParseError):
        network_from_dict(bad)
    bad = json.loads(json.dumps(base))
    bad["vertices"][0]["m"] = 1.5
    with pytest.raises(ParseError):
        network_from_dict(bad)
    bad = json.loads(json.dumps(base))
    bad["edges"][0] = {"i": 0, "j": 1}
    with pytest.raises(ParseError):
        network_from_dict(bad)
    bad = json.loads(json.dumps(base))
    del bad["vertices"][0]["angle"]
    with pytest.raises(ParseError, match="vertex 0: missing 'angle'"):
        network_from_dict(bad)
    for tan_half in ("abc", [1], [1, 2, 3], [1.5, 2], [True, 1], {"p": 1}):
        bad = json.loads(json.dumps(base))
        bad["vertices"][1]["tan_half"] = tan_half
        with pytest.raises(ParseError, match="vertex 1: 'tan_half' must be"):
            network_from_dict(bad)
    for top in ([], "geonet/1", None):
        with pytest.raises(ParseError, match="top level must be an object"):
            network_from_dict(top)
    for vertex in (5, [0.0, 1], {"angle": 0.0}):
        bad = json.loads(json.dumps(base))
        bad["vertices"][0] = vertex
        with pytest.raises(ParseError, match="vertex 0: expected an object with 'm'"):
            network_from_dict(bad)
    # a well-formed record naming a vertex the file lacks fails in make_network
    bad = json.loads(json.dumps(base))
    bad["edges"][0]["j"] = 7
    with pytest.raises(ValueError, match=r"edge \(0, 7\) references a missing vertex") as info:
        network_from_dict(bad)
    assert not isinstance(info.value, ParseError)


@pytest.mark.parametrize(
    "angle", [math.nan, math.inf, -math.inf, 10**400, "abc", "1.5", True, None]
)
def test_bad_angle_rejected(angle):
    bad = network_to_dict(line_network())
    bad["vertices"][1]["angle"] = angle
    with pytest.raises(ParseError, match="vertex 1"):
        network_from_dict(bad)
    bad["vertices"][1]["tan_half"] = None
    with pytest.raises(ParseError, match="vertex 1"):
        network_from_dict(bad)


@pytest.mark.parametrize("tan_half", [[0, 1], "inf"])
def test_angle_contradicting_tan_half_rejected(tmp_path, capsys, tan_half):
    data = network_to_dict(line_network())
    data["vertices"][0]["angle"] = 1.0
    data["vertices"][0]["tan_half"] = tan_half
    with pytest.raises(ParseError, match="vertex 0"):
        network_from_dict(data)
    path = tmp_path / "contradiction.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert dispatch(["validate", "--network", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "vertex 0" in captured.err


def test_angle_near_tan_half_keeps_exact_angle():
    data = network_to_dict(golden_triangle())
    exact = [v["angle"] for v in data["vertices"]]
    data["vertices"][0]["angle"] = -1e-13  # t = 0, written just below the cut
    data["vertices"][1]["angle"] += 1e-12
    back = network_from_dict(data)
    assert [v.position.angle for v in back.vertices] == exact


@pytest.mark.parametrize(
    "where, field",
    [("vertices", "m"), ("edges", "i"), ("edges", "j"), ("edges", "m")],
)
def test_boolean_integers_rejected(where, field):
    bad = network_to_dict(line_network())
    bad[where][0][field] = True
    with pytest.raises(ParseError):
        network_from_dict(bad)


def test_scalar_encoding():
    assert scalar_to_json(7) == 7
    assert scalar_to_json(Fraction(3, 1)) == 3
    assert scalar_to_json(Fraction(-8, 5)) == [-8, 5]
    assert scalar_to_json(RadExpr.of(Fraction(1, 2))) == [1, 2]
    radical = RadExpr.of(1) + RadExpr.sqrt(2)
    assert scalar_to_json(radical) == {"radical_terms": [[1, 1, 1], [2, 1, 1]]}
    # anything else is written as a float
    assert scalar_to_json(0.25) == 0.25
    assert type(scalar_to_json(0.25)) is float


# --- command-line behavior -------------------------------------------------

def write_fixture(net, tmp_path, name="net.json"):
    path = tmp_path / name
    write_network(net, path)
    return str(path)


def test_cli_validate_success(tmp_path, capsys):
    path = write_fixture(golden_triangle(), tmp_path)
    assert dispatch(["validate", "--network", path]) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["admissible"] is True
    assert report["stationary"] is True
    assert report["vertices"] == 3 and report["edges"] == 3
    assert captured.err == ""


def test_cli_validate_failure_writes_only_stderr(tmp_path, capsys):
    path = write_fixture(square_network(), tmp_path)
    assert dispatch(["validate", "--network", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not admissible" in captured.err


def test_cli_validate_nan_angle_is_failure(tmp_path, capsys):
    data = network_to_dict(line_network())
    data["vertices"][0]["tan_half"] = None
    data["vertices"][0]["angle"] = math.nan
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(data), encoding="utf-8")  # writes NaN, as json allows
    assert "NaN" in path.read_text(encoding="utf-8")
    assert dispatch(["validate", "--network", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "vertex 0" in captured.err


def test_cli_missing_file_is_failure(tmp_path, capsys):
    assert dispatch(["validate", "--network", str(tmp_path / "nope.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


@pytest.mark.parametrize(
    "args, code",
    [(["certify-n3"], 0), (["validate", "--network", "nope.json"], 1), (["frobnicate"], 2)],
)
def test_cli_main_exits_with_dispatch_code(args, code, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["geonet", *args])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == code
    assert (capsys.readouterr().out != "") == (code == 0)


def test_cli_usage_errors(capsys):
    assert dispatch(["validate"]) == 2  # missing --network
    assert dispatch(["frobnicate"]) == 2
    out = capsys.readouterr()
    assert out.out == ""


def test_cli_enumerate(capsys):
    assert dispatch(["enumerate", "--n", "4"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(rows) == 3  # empty set plus each lone diagonal
    assert dispatch(["enumerate", "--n", "4", "--allow-adjacent", "--max-only"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(rows) == 2
    assert all(len(r["chords"]) == 5 for r in rows)


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("allow_adjacent", [False, True])
@pytest.mark.parametrize("max_only", [False, True])
def test_cli_enumerate_matches_oracle(n, allow_adjacent, max_only, capsys):
    argv = ["enumerate", "--n", str(n)]
    argv += ["--allow-adjacent"] * allow_adjacent + ["--max-only"] * max_only
    assert dispatch(argv) == 0
    sets = list(naive_chord_sets(n, allow_adjacent))
    if max_only:
        top = max(len(cs.chords) for cs in sets)
        sets = [cs for cs in sets if len(cs.chords) == top]
    want = "".join(
        json.dumps({"n": n, "chords": [list(c) for c in cs.chords]}) + "\n" for cs in sets
    )
    out = capsys.readouterr()
    assert (out.out, out.err) == (want, "")


def test_import_without_numpy():
    src = str(Path(geonet.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys, geonet, geonet.cli\n"
        "assert 'numpy' not in sys.modules, 'numpy imported'\n"
        "from geonet import flow_to_cmc\n"
        "assert flow_to_cmc.__module__ == 'geonet.sweep' and 'numpy' in sys.modules\n"
    )
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_sweep_names_load_on_access():
    from geonet import sweep

    assert geonet.flow_to_cmc is sweep.flow_to_cmc
    assert {"flow_to_cmc", "RadExpr"} <= set(dir(geonet))
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        geonet.nonexistent


def test_cli_solve_fixed_exterior(tmp_path, capsys):
    path = write_fixture(golden_triangle(), tmp_path)
    assert dispatch(["solve", "--network", path, "--fix-exterior"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["unknowns"] == ["edge:0-1", "edge:0-2", "edge:1-2"]
    assert out["nullity"] == 0
    assert out["particular"] == [35, 75, 35]
    assert out["fixed_exterior"] == [100, 56, 100]


def test_cli_solve_positive_search(tmp_path, capsys):
    path = write_fixture(golden_triangle(), tmp_path)
    assert dispatch(["solve", "--network", path, "--bound", "100"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kernel"] == [[100, 56, 100, 35, 75, 35]]
    assert [100, 56, 100, 35, 75, 35] in out["positive_solutions"]


def test_cli_solve_heptagon_bound_50(tmp_path, capsys):
    # free exteriors on a fan-triangulated heptagon: nullity 5, so the whole
    # box 50^5 is above SEARCH_BOX_CAP, but the rational lattice is a point
    tans = [0, Fraction(1, 3), 1, 4, -5, Fraction(-3, 2), Fraction(-1, 4)]
    net = make_network(
        [Vertex(pt(t), 1) for t in tans],
        [InteriorEdge(i, j, 1) for i, j in fan_chords(len(tans))],
    )
    path = write_fixture(net, tmp_path)
    assert dispatch(["solve", "--network", path, "--bound", "50"]) == 0
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert out["nullity"] == 5
    assert out["positive_solutions"] == []
    assert captured.err == ""


def test_cli_replace(tmp_path, capsys):
    line_path = write_fixture(line_network(2), tmp_path, "line.json")
    assert dispatch(["replace", "--network", line_path, "--vertex", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["replacement"] is not None
    golden_path = write_fixture(golden_triangle(), tmp_path, "golden.json")
    assert dispatch(["replace", "--network", golden_path, "--vertex", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["replacement"] is None
    assert out["problem"]["mults"] == [100, 35, 75]
    assert dispatch(["replace", "--network", golden_path, "--vertex", "9"]) == 1


def test_cli_audit(tmp_path, capsys):
    path = write_fixture(golden_triangle(), tmp_path)
    assert dispatch(["audit", "--network", path, "--depth", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"].startswith("refuted")
    assert "no replacement" in out["detail"]


def test_cli_certify(capsys):
    assert dispatch(["certify-n3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "refuted-at-depth-2"
    assert out["witness"] == "(3/4)·π"
    assert "(3/4)·π is not a rational point" in out["detail"]


def test_cli_sweep(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    assert (
        dispatch(
            ["sweep", "--c", "1.0", "--samples", "101", "--emit-csv", str(csv_path)]
        )
        == 0
    )
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == pytest.approx(
        minmax_closed_form(SphereConfig(c=1.0)), abs=1e-8
    )
    assert out["argmax_phi"] == pytest.approx(math.pi / 4, abs=1e-6)
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,phi,c_length"
    assert len(lines) == 102


SWEEP_CSV_11 = b"""t,phi,c_length
0.0,0.0,0.0
0.1,0.3141592653589793,1.634090061028992
0.2,0.6283185307179586,2.493182046116587
0.3,0.9424777960769379,2.4931820461165874
0.4,1.2566370614359172,1.634090061028992
0.5,1.5707963267948966,1.3951473992034527e-15
0.6,1.8849555921538759,-2.2491320164219406
0.7,2.199114857512855,-4.893145275845239
0.8,2.5132741228718345,-7.673225338513931
0.9,2.827433388230814,-10.317238597937232
1.0,3.141592653589793,-12.56637061435917
"""


def test_cli_sweep_csv_bytes(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    assert dispatch(["sweep", "--c", "1", "--samples", "11", "--emit-csv", str(csv_path)]) == 0
    assert csv_path.read_bytes() == SWEEP_CSV_11


def test_cli_sweep_samples_where_the_last_angle_rounded_above_pi(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    assert dispatch(["sweep", "--c", "1", "--samples", "14", "--emit-csv", str(csv_path)]) == 0
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 15
    assert lines[-1] == f"1.0,{math.pi},-12.56637061435917"


def test_cli_sweep_flow(capsys):
    assert dispatch(["sweep", "--c", "1.0", "--flow", "--points", "64"]) == 0
    out = json.loads(capsys.readouterr().out)
    flow = out["flow_curve"]
    assert len(flow["points"]) == 64
    assert flow["max_curvature_deviation"] < 1e-3
    assert flow["final_c_length"] == pytest.approx(out["closed_form"], abs=5e-3)


def test_cli_sweep_flow_at_large_c(capsys):
    # the climb is capped where the round mode would pass the target circle
    argv = ["sweep", "--c", "1e3", "--samples", "5", "--flow", "--points", "32",
            "--max-iters", "2000"]
    assert dispatch(argv) == 0
    out = json.loads(capsys.readouterr().out)
    flow = out["flow_curve"]
    assert len(flow["points"]) == 32
    assert flow["max_curvature_deviation"] < 1e-4
    assert flow["final_c_length"] == pytest.approx(out["closed_form"], rel=5e-3)


def test_cli_sweep_rejects_bad_c(capsys):
    assert dispatch(["sweep", "--c", "-1.0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""


@pytest.mark.parametrize("c", ["nan", "inf", "-inf"])
def test_cli_sweep_rejects_non_finite_c(c, capsys):
    assert dispatch(["sweep", f"--c={c}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


def test_cli_sweep_at_large_c_matches_closed_form(capsys):
    assert dispatch(["sweep", "--c", "1e20", "--samples", "5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["closed_form"] == pytest.approx(math.pi * 1e-20, rel=1e-15)
    assert out["value"] == pytest.approx(out["closed_form"], rel=1e-14)


@pytest.mark.parametrize("c", ["1e301", "1e308"])
def test_cli_sweep_rejects_unresolvable_c(c, capsys):
    assert dispatch(["sweep", "--c", c, "--samples", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "at most" in captured.err


def test_cli_sweep_rejects_bad_max_iters(capsys):
    argv = ["sweep", "--c", "1.0", "--flow", "--points", "64", "--max-iters", "-5"]
    assert dispatch(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "max_iters must be at least 1, got -5" in captured.err


def test_cli_sweep_flow_at_unresolvable_c_fails_cleanly():
    # the target circle at c = 1e300 is far below float resolution: the flow
    # must give up with its typed error, not with numpy warnings on stderr
    src = str(Path(geonet.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["sweep", "--c", "1e300", "--samples", "5", "--flow", "--points", "32",
            "--max-iters", "2000"]
    result = subprocess.run(
        [sys.executable, "-m", "geonet.cli", *argv], env=env, capture_output=True, text=True
    )
    assert result.returncode == 1
    assert result.stdout == ""
    assert "RuntimeWarning" not in result.stderr
    assert result.stderr.startswith("error: flow ")


def test_cli_sweep_failed_flow_writes_no_csv(tmp_path, capsys):
    # machine output only on success: the csv too
    csv_path = tmp_path / "out.csv"
    argv = ["sweep", "--c", "1", "--samples", "5", "--emit-csv", str(csv_path),
            "--flow", "--points", "32", "--max-iters", "1"]
    assert dispatch(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "did not reach the curvature target" in captured.err
    assert not csv_path.exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_emit_prints_only_strict_json(value, capsys):
    with pytest.raises(ValueError):
        _emit({"value": value})
    assert capsys.readouterr().out == ""


def test_cli_render(tmp_path, capsys):
    path = write_fixture(golden_triangle(), tmp_path)
    assert dispatch(["render", "--network", path]) == 0
    svg = capsys.readouterr().out
    assert svg.startswith("<svg ")
    assert svg.count('class="ray"') == 3
    assert svg.count('class="chord"') == 3
    assert 'class="label"' not in svg
    assert dispatch(["render", "--network", path, "--labels"]) == 0
    assert capsys.readouterr().out.count('class="label"') == 3


def test_cli_render_deterministic(tmp_path, capsys):
    path = write_fixture(golden_triangle(), tmp_path)
    assert dispatch(["render", "--network", path]) == 0
    first = capsys.readouterr().out
    assert dispatch(["render", "--network", path]) == 0
    assert capsys.readouterr().out == first


def test_cli_render_empty_network(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"version": "geonet/1", "vertices": [], "edges": []}), encoding="utf-8")
    assert dispatch(["render", "--network", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out.count("<circle") == 1
    assert "<line" not in captured.out
    assert captured.err == ""


@pytest.mark.parametrize("command", [["validate", "--mode", "float"], ["render"]])
def test_cli_multiplicity_beyond_float_range_fails_cleanly(command, tmp_path, capsys):
    path = write_fixture(line_network(10**400), tmp_path)
    assert dispatch([*command, "--network", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: int too large to convert to float\n"


def off_line_network(tmp_path):
    """Two float vertices 0.1416 rad off antipodal: residual norm 0.0708."""
    data = network_to_dict(line_network())
    data["vertices"][1] = {"angle": math.pi + 0.1416, "tan_half": None, "m": 1}
    path = tmp_path / "off.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("tol", ["inf", "nan", "-1", "-inf"])
def test_cli_validate_rejects_bad_tol(tol, tmp_path, capsys):
    path = off_line_network(tmp_path)
    assert dispatch(["validate", "--network", path, "--mode", "float", f"--tol={tol}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: tolerance" in captured.err


def test_validate_tolerance_rule(tmp_path):
    net = read_network(off_line_network(tmp_path))
    report = is_admissible(net, mode="float", tol=0.1)
    assert report.admissible and report.max_residual == pytest.approx(0.0708, abs=1e-4)
    assert not is_admissible(net, mode="float", tol=0.0).admissible
    for tol in (math.inf, math.nan, -1e-12):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            is_admissible(net, mode="float", tol=tol)


@pytest.mark.parametrize("scale", ["nan", "inf", "-inf", "0"])
def test_cli_render_rejects_bad_stroke_scale(scale, tmp_path, capsys):
    path = write_fixture(golden_triangle(), tmp_path)
    assert dispatch(["render", "--network", path, f"--stroke-scale={scale}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: stroke scale" in captured.err
