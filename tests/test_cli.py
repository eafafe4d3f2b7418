import json
import math
from pathlib import Path

import pytest

import aek.cli as cli
import aek.midplanes as midplanes
from aek.cli import REPORT_SCHEMA, load_spec

SPECS = Path(__file__).resolve().parent.parent / "specs"


def write_spec(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def paraboloid_spec(tmp_path, mode="rational", grid=3):
    half = "1/2" if mode == "rational" else 0.5
    return write_spec(tmp_path, f"paraboloid_{mode}.json", {
        "coefficients": {"2,0": half, "0,2": half},
        "patch": [-1, 1, -1, 1],
        "mode": mode,
        "grid": grid,
    })


# ---------------------------------------------------------------------------
# spec parsing


def test_unknown_keys_rejected(tmp_path, capsys):
    path = write_spec(tmp_path, "bad.json", {
        "coefficients": {"2,0": 1}, "patch": [-1, 1, -1, 1], "bogus": True,
    })
    code, _, err = run_cli(capsys, "normalize", "--spec", path)
    assert code == 1
    assert "bogus" in err


@pytest.mark.parametrize("key", ["residual", "simple"])
def test_unread_tolerance_keys_rejected(tmp_path, capsys, key):
    path = write_spec(tmp_path, "tol.json", {
        "coefficients": {"2,0": 1}, "patch": [-1, 1, -1, 1],
        "tolerances": {key: 1e-6},
    })
    code, _, err = run_cli(capsys, "normalize", "--spec", path)
    assert code == 1
    assert "unknown tolerance keys" in err


def test_bad_coefficient_key_rejected(tmp_path, capsys):
    path = write_spec(tmp_path, "bad2.json", {
        "coefficients": {"x,y": 1}, "patch": [-1, 1, -1, 1],
    })
    code, _, _ = run_cli(capsys, "normalize", "--spec", path)
    assert code == 1


def test_float_value_rejected_in_rational_mode(tmp_path, capsys):
    path = write_spec(tmp_path, "bad3.json", {
        "coefficients": {"2,0": 0.5, "0,2": 0.5},
        "patch": [-1, 1, -1, 1],
        "mode": "rational",
    })
    code, _, err = run_cli(capsys, "normalize", "--spec", path)
    assert code == 1
    assert "rational" in err


def test_rational_strings_parse(tmp_path):
    path = write_spec(tmp_path, "ok.json", {
        "coefficients": {"2,0": "1/2", "0,2": "1/2", "3,0": "-2/7"},
        "patch": [-1, 1, -1, 1],
        "mode": "rational",
    })
    spec = load_spec(path)
    from fractions import Fraction

    assert spec.coefficients[(3, 0)] == Fraction(-2, 7)


def test_bad_point_is_usage_error(tmp_path, capsys):
    path = paraboloid_spec(tmp_path)
    code, _, _ = run_cli(capsys, "normalize", "--spec", path,
                         "--point", "nonsense")
    assert code == 1


# ---------------------------------------------------------------------------
# normalize


def test_normalize_paraboloid_report(tmp_path, capsys):
    path = paraboloid_spec(tmp_path)
    code, out, _ = run_cli(capsys, "normalize", "--spec", path,
                           "--point", "0,0")
    assert code == 0
    report = json.loads(out)
    frame = report["results"]["frame"]
    assert frame["a"] == "0/1"
    assert frame["b"] == "0/1"
    assert frame["apolarity_residuals"] == ["0/1", "0/1"]


def test_normalize_sphere_reports_eighth(capsys):
    code, out, _ = run_cli(capsys, "normalize", "--spec",
                           str(SPECS / "sphere.json"), "--point", "0,0")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["frame"]["f4"]["f40"] == pytest.approx(
        1 / 8, abs=1e-12)


def test_normalize_hyperbolic_exit_2(tmp_path, capsys):
    path = write_spec(tmp_path, "hyp.json", {
        "coefficients": {"2,0": 1, "0,2": -1}, "patch": [-1, 1, -1, 1],
    })
    code, _, err = run_cli(capsys, "normalize", "--spec", path)
    assert code == 2
    assert "positive definite" in err


# ---------------------------------------------------------------------------
# invariants


def test_invariants_sphere_center(capsys):
    code, out, _ = run_cli(
        capsys, "invariants", "--spec", str(SPECS / "sphere.json"),
        "--point", "0.01,0.02", "--direction", "0.6",
    )
    assert code == 0
    report = json.loads(out)
    center = report["results"]["moutard_center"]["world"]
    assert center == pytest.approx([0, 0, 1], abs=1e-10)


def test_invariants_paraboloid_at_infinity(tmp_path, capsys):
    path = paraboloid_spec(tmp_path)
    code, out, _ = run_cli(capsys, "invariants", "--spec", path,
                           "--point", "0,0", "--direction", "0")
    assert code == 0
    report = json.loads(out)
    assert "at_infinity" in report["results"]["moutard_center"]["local"]


def test_invariants_su_direction_echo(tmp_path, capsys):
    path = write_spec(tmp_path, "generic.json", {
        "coefficients": {"2,0": 0.5, "0,2": 0.5, "3,0": 0.25, "1,2": -0.75,
                         "0,3": -0.1, "2,1": 0.3},
        "patch": [-0.2, 0.2, -0.2, 0.2],
        "mode": "float",
    })
    code, out, _ = run_cli(capsys, "invariants", "--spec", path,
                           "--point", "0,0", "--direction", "0")
    assert code == 0
    report = json.loads(out)
    frame = report["results"]["frame"]
    su = report["results"]["su_direction"]["local"]
    assert su == pytest.approx(
        [-2 * frame["a"], 6 * frame["b"], 1], abs=1e-12)


def test_report_schema(tmp_path, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    path = paraboloid_spec(tmp_path)
    for args in (
        ["normalize", "--spec", path, "--point", "0,0"],
        ["invariants", "--spec", path, "--point", "0,0",
         "--direction", "0.3"],
    ):
        _, out, _ = run_cli(capsys, *args)
        jsonschema.validate(json.loads(out), REPORT_SCHEMA)


# ---------------------------------------------------------------------------
# verify


def test_verify_passes_rational(tmp_path, capsys):
    path = paraboloid_spec(tmp_path)
    code, out, _ = run_cli(capsys, "verify", "--spec", path,
                           "--point", "0,0")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["all_passed"] is True
    names = {c["name"] for c in report["results"]["checks"]}
    assert "expansion-quartic" in names
    assert "determinant-identity" in names


def test_verify_float_mode_warns(tmp_path, capsys):
    path = paraboloid_spec(tmp_path, mode="float")
    code, _, err = run_cli(capsys, "verify", "--spec", path,
                           "--point", "0,0")
    assert code == 0
    assert "warning" in err


def test_verify_detects_corrupted_form(tmp_path, capsys, monkeypatch):
    # fault injection: corrupt one constant of the pair-sum forms; the
    # quartic expansion check must then fail and exit 3
    original = midplanes.pair_sum_forms

    def corrupted(frame):
        form_u, form_v = original(frame)
        broken = midplanes.DirectionalForm(
            coeff_x=form_u.coeff_x,
            coeff_y=(form_u.coeff_y[0] + 1, *form_u.coeff_y[1:]),
            coeff_z=form_u.coeff_z,
            coeff_0=form_u.coeff_0,
            mode=form_u.mode,
        )
        return broken, form_v

    monkeypatch.setattr(midplanes, "pair_sum_forms", corrupted)
    path = paraboloid_spec(tmp_path)
    code, out, _ = run_cli(capsys, "verify", "--spec", path,
                           "--point", "0,0")
    assert code == 3
    report = json.loads(out)
    failing = {c["name"] for c in report["results"]["checks"]
               if not c["passed"]}
    assert "expansion-quartic" in failing


# ---------------------------------------------------------------------------
# evolute


def test_evolute_sphere_outputs(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(
        capsys, "evolute", "--spec", str(SPECS / "sphere.json"),
        "--grid", "3", "--out", str(out_dir), "--workers", "1",
    )
    assert code == 0
    report = json.loads(out)
    assert report["results"]["samples_degenerate"] == 9
    csv_lines = (out_dir / "evolute_points.csv").read_text().splitlines()
    assert csv_lines[0] == "u,v,branch_id,theta,x,y,z,D_residual,regular_flag"
    assert len(csv_lines) == 10
    for line in csv_lines[1:]:
        parts = line.split(",")
        x, y, z = float(parts[4]), float(parts[5]), float(parts[6])
        assert (x, y, z) == pytest.approx((0, 0, 1), abs=1e-9)
        assert parts[3] == ""  # no discrete direction on the sphere
    # mesh is degenerate: all vertices nearly coincide
    verts = [
        tuple(float(c) for c in line.split()[1:])
        for line in (out_dir / "evolute_mesh.obj").read_text().splitlines()
        if line.startswith("v ")
    ]
    assert verts
    spread = max(
        max(abs(a - b) for a, b in zip(v, verts[0])) for v in verts
    )
    assert spread < 1e-9


def test_evolute_six_branches_at_center(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "evolute", "--spec", str(SPECS / "cubic_six.json"),
        "--grid", "5", "--out", str(tmp_path), "--workers", "1",
        "--regularity", "off",
    )
    assert code == 0
    csv_lines = (tmp_path / "evolute_points.csv").read_text().splitlines()
    center_rows = [
        line.split(",") for line in csv_lines[1:]
        if float(line.split(",")[0]) == 0.0 and float(line.split(",")[1]) == 0.0
    ]
    assert len(center_rows) == 6
    assert len({row[2] for row in center_rows}) == 6  # six distinct branches
    thetas = sorted(float(row[3]) for row in center_rows)
    for k, th in enumerate(thetas):
        assert th == pytest.approx(k * math.pi / 6, abs=1e-8)


def test_evolute_regularity_full_is_usage_error(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "evolute", "--spec", str(SPECS / "cubic_six.json"),
        "--grid", "3", "--out", str(tmp_path), "--regularity", "full",
    )
    assert code == 1


def test_evolute_reports_workers_that_ran(tmp_path, capsys):
    # 49 samples run serially, whatever the request
    code, out, _ = run_cli(
        capsys, "evolute", "--spec", str(SPECS / "cubic_six.json"),
        "--grid", "7", "--out", str(tmp_path), "--workers", "2",
        "--regularity", "off",
    )
    assert code == 0
    assert json.loads(out)["diagnostics"]["workers"] == 1


def test_evolute_empty_grid_usage_error(tmp_path, capsys):
    path = paraboloid_spec(tmp_path)
    code, _, _ = run_cli(capsys, "evolute", "--spec", path, "--grid", "0",
                         "--out", str(tmp_path))
    assert code == 1


def test_evolute_csv_obj_agree(tmp_path, capsys):
    out_dir = tmp_path / "agree"
    run_cli(
        capsys, "evolute", "--spec", str(SPECS / "cubic_six.json"),
        "--grid", "4", "--out", str(out_dir), "--workers", "1",
        "--regularity", "off",
    )
    csv_points = set()
    for line in (out_dir / "evolute_points.csv").read_text().splitlines()[1:]:
        parts = line.split(",")
        csv_points.add((parts[4], parts[5], parts[6]))
    obj_lines = (out_dir / "evolute_mesh.obj").read_text().splitlines()
    for line in obj_lines:
        if line.startswith("v "):
            x, y, z = line.split()[1:]
            assert (x, y, z) in csv_points
        elif line.startswith("f "):
            idx = [int(p) for p in line.split()[1:]]
            assert len(idx) == 3 and all(i >= 1 for i in idx)


def test_reports_and_csv_reproducible(tmp_path, capsys):
    # rational-mode report bytes and float-mode CSV bytes are stable
    path = paraboloid_spec(tmp_path)
    _, out1, _ = run_cli(capsys, "normalize", "--spec", path,
                         "--point", "1/4,-1/3")
    _, out2, _ = run_cli(capsys, "normalize", "--spec", path,
                         "--point", "1/4,-1/3")
    assert out1 == out2

    dirs = [tmp_path / "r1", tmp_path / "r2"]
    for d in dirs:
        run_cli(capsys, "evolute", "--spec", str(SPECS / "sphere.json"),
                "--grid", "3", "--out", str(d), "--workers", "1")
    files = ["evolute_points.csv", "evolute_mesh.obj",
             "evolute_report.json"]
    for name in files:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_mode_override(tmp_path, capsys):
    path = paraboloid_spec(tmp_path, mode="rational")
    code, out, _ = run_cli(capsys, "normalize", "--spec", path,
                           "--point", "0,0", "--mode", "float")
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "float"
    assert report["results"]["frame"]["a"] == 0.0


def test_direction_pair_parse(tmp_path, capsys):
    path = paraboloid_spec(tmp_path, mode="float")
    code, out, _ = run_cli(capsys, "invariants", "--spec", path,
                           "--point", "0,0", "--direction", "3,4")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["direction"] == pytest.approx([0.6, 0.8])
