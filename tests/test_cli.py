import json
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial

import aek.cli as cli
import aek.midplanes as midplanes
from aek.cli import load_spec

from oracles import turned_graph_coefficients

SPECS = Path(__file__).resolve().parent.parent / "specs"

#: JSON schema of the report envelope every command writes
REPORT_SCHEMA = {
    "type": "object",
    "properties": {
        "command": {"type": "string"},
        "spec_file": {"type": "string"},
        "mode": {"enum": ["rational", "float"]},
        "results": {"type": "object"},
        "diagnostics": {"type": "object"},
    },
    "required": ["command", "mode", "results", "diagnostics"],
    "additionalProperties": False,
}


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


@pytest.mark.parametrize("argv", [["normalize"], ["evolute", "--grid", "3"]],
                         ids=["normalize", "evolute"])
@pytest.mark.parametrize("value", [{}, {"root": 1e-9}, "abc"],
                         ids=["empty", "root", "string"])
def test_tolerances_block_rejected(tmp_path, capsys, argv, value):
    """The root, solve and branch thresholds are fixed constants, so a
    spec that still holds ``tolerances`` has an unknown key."""
    path = write_spec(tmp_path, "tol.json", {
        "coefficients": {"2,0": 1, "0,2": 1}, "patch": [-1, 1, -1, 1],
        "tolerances": value,
    })
    code, out, err = run_cli(capsys, argv[0], "--spec", path, *argv[1:],
                             "--out", str(tmp_path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "tolerances" in err


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


@pytest.mark.parametrize("extra, message", [
    ({"grid": 0}, "'grid' must be a positive integer"),
    ({"mode": "complex"}, "unknown mode"),
    ({"patch": [-1, 1, -1]}, "'patch' must be [umin, umax, vmin, vmax]"),
    ({"coefficients": {"-1,2": 1}}, "is not 'i,j' with i,j >= 0"),
    ({"coefficients": [1, 2]}, "'coefficients' must be an object"),
    ({"patch": [0.1, -0.1, -0.1, 0.1]}, "umin < umax"),
    ({"patch": [-0.1, 0.1, 0.2, 0.2]}, "vmin < vmax"),
    ({"patch": [-float("inf"), float("inf"), -1, 1]}, "not a finite"),
    ({"coefficients": {"2,0": 10 ** 400}}, "coefficient '2,0'"),
    ({"coefficients": {"2,0": 1, "0,2": 1, "3,0": float("nan")}},
     "not a finite number"),
    ({"coefficients": {"2,0": 1, "0,2": 1, "3,0": "1e400"},
      "mode": "rational"}, "coefficient '3,0'"),
])
def test_malformed_spec_values_exit_1(tmp_path, capsys, extra, message):
    path = write_spec(tmp_path, "bad.json", {
        "coefficients": {"2,0": 1, "0,2": 1}, "patch": [-1, 1, -1, 1],
        **extra,
    })
    code, _, err = run_cli(capsys, "normalize", "--spec", path)
    assert code == 1
    assert message in err


@pytest.mark.parametrize("text, message", [
    # one monomial under two spellings
    ('{"coefficients": {"2,0": 0.5, "0,2": 0.5, "02,0": 7.0, "3,0": 1.0},'
     ' "patch": [-1, 1, -1, 1]}', "repeats (2, 0)"),
    # one name twice in the JSON text
    ('{"coefficients": {"2,0": 0.5, "0,2": 0.5, "2,0": 7.0},'
     ' "patch": [-1, 1, -1, 1]}', "names '2,0' twice"),
    ('{"coefficients": {"2,0": 0.5, "0,2": 0.5}, "patch": [-1, 1, -1, 1],'
     ' "patch": [-2, 2, -2, 2]}', "names 'patch' twice"),
], ids=["two-spellings", "repeated-coefficient", "repeated-key"])
def test_spec_naming_a_term_twice_exits_1(tmp_path, capsys, text, message):
    path = tmp_path / "twice.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "normalize", "--spec", str(path))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("command", ["normalize", "invariants", "verify"])
@pytest.mark.parametrize("body, message", [
    # Hessian diag(2, 1): det 2 has no rational square root
    ({"coefficients": {"2,0": 1, "0,2": "1/2"}, "patch": [-1, 1, -1, 1],
      "mode": "rational"}, "square root"),
    # the Hessian overflows, so the normalizing map is singular
    ({"coefficients": {"2,0": 1e308, "0,2": 1e308},
      "patch": [-1, 1, -1, 1]}, "singular"),
])
def test_normalization_failure_exit_2(tmp_path, capsys, command, body,
                                      message):
    path = write_spec(tmp_path, "spec.json", body)
    code, out, err = run_cli(capsys, command, "--spec", path)
    assert code == 2
    assert out == ""
    assert "cannot normalize at (0" in err and message in err


_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(["1/2", "-1/3", "abc", "1e400", "1/0", 10 ** 400])
    | st.text(max_size=4)
)
_JSON = st.recursive(
    _JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=3), inner,
                                     max_size=3)),
    max_leaves=8,
)
_NUMBERS = (st.integers(-3, 3) | st.floats(-3, 3)
            | st.sampled_from(["1/2", "-1/3", "3/2", "1/0", "1e400",
                               1e308, 10 ** 400, float("nan")]))
_NEAR_VALID = st.fixed_dictionaries({
    "coefficients": st.fixed_dictionaries(
        dict.fromkeys(["2,0", "0,2"],
                      st.sampled_from([1, "1/2", 0.5, 2]) | _NUMBERS),
        optional=dict.fromkeys(["1,1", "3,0", "1,2", "0,0", "4,2"],
                               _NUMBERS)),
    "patch": st.lists(_NUMBERS, min_size=4, max_size=4) | st.tuples(
        *[st.sampled_from([-1, -0.1, "-1/2"]),
          st.sampled_from([1, 0.1, "1/2"])] * 2).map(list),
}, optional={
    "mode": st.sampled_from(["float", "rational"]),
})
# any JSON under the spec keys; exponent keys stay at degree 6 or below,
# so every example is cheap
_ARBITRARY = st.fixed_dictionaries({}, optional={
    "coefficients": st.dictionaries(
        st.text(alphabet="0123,-", max_size=3), _JSON, max_size=4) | _JSON,
    "patch": _JSON,
    "mode": _JSON,
    "grid": _JSON,
})
_SPECS = _NEAR_VALID | _ARBITRARY


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(body=_SPECS)
def test_any_spec_object_gives_an_exit_code(body):
    """Whatever the spec keys hold, ``aek normalize`` ends in exit 0, 1
    or 2, never in an uncaught exception."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(json.dumps(body))
        assert cli.main(["normalize", "--spec", str(path),
                         "--out", tmp]) in (0, 1, 2)


def test_bad_point_is_usage_error(tmp_path, capsys):
    path = paraboloid_spec(tmp_path)
    code, _, _ = run_cli(capsys, "normalize", "--spec", path,
                         "--point", "nonsense")
    assert code == 1


@pytest.mark.parametrize("direction", ["nan", "inf", "0,0", "x"])
def test_bad_direction_is_usage_error(capsys, direction):
    code, out, err = run_cli(
        capsys, "invariants", "--spec", str(SPECS / "cubic_six.json"),
        "--point", "0.01,0.02", "--direction", direction)
    assert code == 1
    assert out == ""
    assert err.startswith("error: bad direction") and err.count("\n") == 1


@pytest.mark.parametrize("command, spec, option, value, rest", [
    ("invariants", "cubic_six.json", "--point", "-0.02,0.01", ()),
    ("normalize", "paraboloid.json", "--point", "-1/3,1/7",
     ("--mode", "rational")),
    ("invariants", "cubic_six.json", "--direction", "-1,0",
     ("--point", "0.02,-0.01")),
], ids=["float-point", "rational-point", "direction"])
def test_signed_value_as_separate_word(tmp_path, capsys, command, spec,
                                       option, value, rest):
    """A --point or --direction value that starts with a minus sign
    gives the same exit code, stdout and files as a separate word as
    after '='."""
    runs = []
    for form, words in (("apart", (option, value)),
                        ("joined", (f"{option}={value}",))):
        out_dir = tmp_path / form
        code, out, _ = run_cli(capsys, command, "--spec", str(SPECS / spec),
                               *rest, *words, "--out", str(out_dir))
        files = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        runs.append((code, out, files))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and runs[0][2]


def test_point_without_value_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "normalize", "--point", "--spec",
                             "x.json")
    assert code == 1 and out == ""
    assert "--point" in err


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


@pytest.mark.parametrize("mode, message", [
    ("rational", "point (2, 1/3) outside patch (-1, 1, -1, 1)"),
    ("float", "point (2.0, 0.3333333333333333) outside patch "
              "(-1.0, 1.0, -1.0, 1.0)"),
], ids=["rational", "float"])
def test_point_outside_patch_prints_its_coordinates(capsys, mode, message):
    code, _, err = run_cli(capsys, "normalize", "--spec",
                           str(SPECS / "paraboloid.json"), "--mode", mode,
                           "--point", "2,1/3")
    assert code == 2
    assert err == f"geometry error: {message}\n"


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


def test_verify_checks_its_point_before_the_random_checks(
        tmp_path, capsys, monkeypatch):
    """A point outside the patch, or a spec that is not convex, exits 2
    before any random frame is drawn."""
    def no_random_checks(*args, **kwargs):
        raise AssertionError("a random check ran")

    monkeypatch.setattr(cli, "random_frame", no_random_checks)
    code, _, err = run_cli(capsys, "verify", "--spec",
                           paraboloid_spec(tmp_path), "--point", "2,0")
    assert code == 2
    assert "outside patch" in err
    saddle = write_spec(tmp_path, "saddle.json", {
        "coefficients": {"2,0": 1, "0,2": -1}, "patch": [-1, 1, -1, 1],
    })
    code, _, err = run_cli(capsys, "verify", "--spec", saddle)
    assert code == 2
    assert "positive definite" in err


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


@pytest.mark.parametrize("phi", [0.0, 0.77])
def test_evolute_branches_are_sheets(tmp_path, capsys, phi):
    """On cubic_six, turned or not, each branch is a sheet: one CSV row
    per (branch_id, u, v), rows in (u, v, theta) order, one OBJ vertex
    per branch and grid point, faces within a branch, and one event
    line per (branch, kind, other branch)."""
    spec = json.loads((SPECS / "cubic_six.json").read_text())
    spec["coefficients"] = turned_graph_coefficients(spec["coefficients"],
                                                    phi)
    path = write_spec(tmp_path, "turned.json", spec)
    code, out, _ = run_cli(capsys, "evolute", "--spec", path, "--grid", "21",
                           "--out", str(tmp_path), "--workers", "1")
    assert code == 0
    rows = [line.split(",") for line in
            (tmp_path / "evolute_points.csv").read_text().splitlines()[1:]]
    keys = [(int(r[2]), float(r[0]), float(r[1])) for r in rows]
    assert len(set(keys)) == len(keys) == len(rows) > 0
    order = [(float(r[0]), float(r[1]), float(r[3])) for r in rows]
    assert order == sorted(order)

    # the OBJ lists each branch's vertices in turn, in grid order
    by_branch = sorted(zip(keys, rows))
    obj = (tmp_path / "evolute_mesh.obj").read_text().splitlines()
    verts = [tuple(map(float, line.split()[1:])) for line in obj
             if line.startswith("v ")]
    assert verts == [tuple(map(float, r[4:7])) for _, r in by_branch]
    branch_of = [key[0] for key, _ in by_branch]
    for line in obj:
        if line.startswith("f "):
            corners = [int(n) - 1 for n in line.split()[1:]]
            assert len({branch_of[n] for n in corners}) == 1

    branches = json.loads(out)["results"]["branches"]
    assert {int(r[2]) for r in rows} == {b["id"] for b in branches}
    for b in branches:
        kinds = [e.split(" at ")[0] for e in b["events"]]
        assert len(set(kinds)) == len(kinds)


def test_evolute_regularity_full_is_usage_error(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "evolute", "--spec", str(SPECS / "cubic_six.json"),
        "--grid", "3", "--out", str(tmp_path), "--regularity", "full",
    )
    assert code == 1


@pytest.mark.parametrize("workers", ["0", "-4"])
def test_workers_below_one_is_a_usage_error(tmp_path, capsys, workers):
    code, out, err = run_cli(
        capsys, "evolute", "--spec", str(SPECS / "cubic_six.json"),
        "--grid", "3", "--workers", workers, "--out", str(tmp_path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--workers" in err
    assert not any(tmp_path.iterdir())


def test_boolean_grid_is_usage_error(tmp_path, capsys):
    """JSON ``true`` is a Python int, but not a grid size."""
    path = write_spec(tmp_path, "bool.json", {
        "coefficients": {"2,0": 0.5, "0,2": 0.5}, "patch": [-1, 1, -1, 1],
        "grid": True,
    })
    code, out, err = run_cli(capsys, "evolute", "--spec", path,
                             "--workers", "1", "--out", str(tmp_path / "o"))
    assert code == 1 and out == ""
    assert err == "error: 'grid' must be a positive integer\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, out", [
    (["evolute", "--grid", "3", "--workers", "1"], "F"),
    (["normalize"], "F"),
    (["normalize"], "F/sub"),
], ids=["evolute", "normalize", "normalize-below-file"])
def test_out_naming_a_file_is_usage_error(tmp_path, capsys, argv, out):
    """An ``--out`` that is a file, or lies below one, ends in one
    ``error:`` line and exit 1, before any report is printed."""
    (tmp_path / "F").write_text("kept\n")
    code, stdout, err = run_cli(
        capsys, argv[0], "--spec", str(SPECS / "cubic_six.json"), *argv[1:],
        "--out", str(tmp_path / out))
    assert code == 1 and stdout == ""
    assert err.startswith("error: cannot write output: ")
    assert err.count("\n") == 1
    assert (tmp_path / "F").read_text() == "kept\n"


def test_empty_grid_is_checked_before_the_geometry(tmp_path, capsys):
    """``--grid 0`` is a usage error (exit 1) even on a saddle, whose
    convexity screen would end the run with exit 2."""
    path = write_spec(tmp_path, "saddle.json", {
        "coefficients": {"2,0": 0.5, "0,2": -0.5}, "patch": [-1, 1, -1, 1],
    })
    code, _, err = run_cli(capsys, "evolute", "--spec", path, "--grid", "3",
                           "--workers", "1", "--out", str(tmp_path / "3"))
    assert code == 2 and err.startswith("geometry error: ")
    code, out, err = run_cli(capsys, "evolute", "--spec", path, "--grid",
                             "0", "--out", str(tmp_path / "0"))
    assert code == 1 and out == ""
    assert err == "error: grid must have at least one sample\n"
    assert not (tmp_path / "0").exists()


#: runs ``aek.cli.main`` on argv with a finder that refuses numpy, so an
#: import of it in this process or in a forked pool worker fails the
#: command, then checks that numpy never reached ``sys.modules``
_WITHOUT_NUMPY = """
import sys

class RefuseNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ImportError("numpy imported")

sys.meta_path.insert(0, RefuseNumpy())
from aek.cli import main

code = main(sys.argv[1:])
assert "numpy" not in sys.modules
sys.exit(code)
"""


@pytest.mark.parametrize("argv", [
    ["evolute", "--spec", str(SPECS / "cubic_six.json"), "--grid", "9",
     "--regularity", "off", "--workers", "1"],
    ["evolute", "--spec", str(SPECS / "cubic_six.json"), "--grid", "9",
     "--regularity", "off", "--workers", "2"],
    ["verify", "--spec", str(SPECS / "paraboloid.json"), "--mode",
     "rational", "--seed", "1"],
], ids=["evolute-1", "evolute-2", "verify-rational"])
def test_commands_run_without_numpy(tmp_path, argv):
    """numpy is a test dependency only: no command imports it, and the
    2-worker run really uses its pool."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, *argv, "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    if argv[0] == "evolute":
        assert report["diagnostics"]["workers"] == int(argv[-1])
        assert report["results"]["samples_ok"] == 81
    else:
        assert report["results"]["all_passed"]


def interior_pocket_spec() -> dict:
    """phi = v^2/2 + F(u) on [-1, 1]^2, with F(0) = F'(0) = 0 and
    F'' = 1 - 1000 prod (u - c)^2 over the abscissae c of the 5x5
    convexity screen's cell centres: F'' = 1 at every cell centre, but
    F'' = -0.129 at u = +-0.6 and -90.4 at u = +-1."""
    centres = polynomial.polyfromroots([0.0, 0.4, -0.4, 0.8, -0.8])
    f2 = polynomial.polysub([1.0], 1000 * polynomial.polymul(centres,
                                                             centres))
    coefficients = {f"{i},0": float(c)
                    for i, c in enumerate(polynomial.polyint(f2, 2)) if c}
    coefficients["0,2"] = 0.5
    return {"coefficients": coefficients, "patch": [-1, 1, -1, 1]}


def test_interior_non_convex_columns_missed_by_the_screen(tmp_path, capsys):
    """The spec passes the load-time screen, and the grid columns where
    F'' < 0 end as ``non_convex`` failures, not as an abort, with the
    same report and CSV from 1 and from 2 workers."""
    path = write_spec(tmp_path, "pocket.json", interior_pocket_spec())
    runs = {}
    for workers in ("1", "2"):
        out_dir = tmp_path / workers
        code, out, _ = run_cli(
            capsys, "evolute", "--spec", path, "--grid", "11",
            "--workers", workers, "--out", str(out_dir))
        assert code == 0
        runs[workers] = (json.loads(out)["results"],
                         (out_dir / "evolute_points.csv").read_bytes())
    results = runs["1"][0]
    assert results["samples_ok"] == 77
    assert results["samples_degenerate"] == 0
    assert {f["status"] for f in results["failures"]} == {"non_convex"}
    columns = Counter(round(f["point"][0], 9) for f in results["failures"])
    assert columns == {-1.0: 11, -0.6: 11, 0.6: 11, 1.0: 11}
    assert runs["2"] == runs["1"]


def test_evolute_reports_workers_that_ran(tmp_path, capsys):
    # 49 samples run serially, whatever the request
    code, out, _ = run_cli(
        capsys, "evolute", "--spec", str(SPECS / "cubic_six.json"),
        "--grid", "7", "--out", str(tmp_path), "--workers", "2",
        "--regularity", "off",
    )
    assert code == 0
    assert json.loads(out)["diagnostics"]["workers"] == 1


#: finite coefficients whose frames overflow floats on [-1, 1]^2
_HUGE_FLOAT = {"2,0": 0.5, "0,2": 0.5, "3,0": 1e160, "4,0": 1e300,
               "0,4": 1e300}
_HUGE_RATIONAL = {"2,0": "1/2", "0,2": "1/2", "3,0": "1e200", "4,0": "1e300"}
#: a Hessian so small on u = 0 that the Hessian step scales the quartic
#: part past the float range there
_TINY_HESSIAN = {"2,0": 5e-151, "0,2": 5e-151, "4,0": 1e10}


@pytest.mark.parametrize("mode, coefficients, overflowed", [
    # the frames of the column u = 0 overflow
    ("float", _HUGE_FLOAT, [[1, 0], [1, 1], [1, 2]]),
    # the sextic's coefficient scale overflows when squared
    ("rational", _HUGE_RATIONAL, [[1, 0], [1, 1], [1, 2]]),
    # the frames of the column u = 0 overflow in the Hessian step
    ("float", _TINY_HESSIAN, [[1, 0], [1, 1], [1, 2]]),
])
def test_evolute_records_float_overflow(tmp_path, capsys, mode,
                                        coefficients, overflowed):
    """A sample whose float arithmetic overflows ends as an ``error``
    failure, not as a traceback or a degenerate sample, and the run
    goes on.  Every failure is such an ``error`` sample."""
    path = write_spec(tmp_path, "huge.json", {
        "coefficients": coefficients, "patch": [-1, 1, -1, 1], "mode": mode,
    })
    code, out, _ = run_cli(capsys, "evolute", "--spec", path, "--grid", "3",
                           "--workers", "1", "--out", str(tmp_path))
    assert code == 0
    results = json.loads(out)["results"]
    failed = {tuple(f["index"]): f for f in results["failures"]}
    assert [list(i) for i, f in sorted(failed.items())
            if "float overflow" in f["message"]] == overflowed
    assert all(f["status"] == "error" for f in failed.values())
    assert (results["samples_ok"] + results["samples_degenerate"]
            + len(failed)) == results["samples"] == 9


def test_roots_of_unequal_row_scales_get_their_centers(tmp_path, capsys):
    """On the column u = 0 of this patch the four envelope-limit rows at
    theta = 0 have norms from 0.5 to 1.5e17, which a rank test against
    the largest entry read as rank below 3.  The centers come from the
    Moutard closed form, so each of the five roots writes its row, no
    sample is a failure, and the exit code stays 0."""
    path = write_spec(tmp_path, "small.json", {
        "coefficients": {"2,0": 0.5, "0,2": 0.5, "3,0": 1e8, "4,0": 1e17},
        "patch": [-1, 1, -1, 1], "mode": "float",
    })
    code, out, _ = run_cli(capsys, "evolute", "--spec", path, "--grid", "5",
                           "--workers", "1", "--out", str(tmp_path))
    assert code == 0
    results = json.loads(out)["results"]
    assert results["samples_ok"] == 25
    assert results["failures"] == []
    lines = (tmp_path / "evolute_points.csv").read_text().splitlines()[1:]
    assert [line.split(",")[:4] for line in lines] == [
        ["0.0", v, "0", "0.0"] for v in ("-1.0", "-0.5", "0.0", "0.5", "1.0")]


def test_invariants_float_overflow_exit_2(tmp_path, capsys):
    """A rational frame beyond the float range has no float copy: one
    ``error:`` line and exit 2."""
    path = write_spec(tmp_path, "huge.json", {
        "coefficients": _HUGE_RATIONAL, "patch": [-1, 1, -1, 1],
        "mode": "rational",
    })
    code, out, err = run_cli(capsys, "invariants", "--spec", path,
                             "--point", "0,0")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: frame has no float copy")


def test_normalize_overflowed_float_frame_exit_2(tmp_path, capsys):
    """A float frame whose jet overflows is refused as an overflow, not
    printed with NaN and Infinity and not blamed on apolarity."""
    path = write_spec(tmp_path, "huge.json", {
        "coefficients": _HUGE_FLOAT, "patch": [-1, 1, -1, 1],
    })
    code, out, err = run_cli(capsys, "normalize", "--spec", path,
                             "--point", "0,0")
    assert code == 2 and out == ""
    assert err == ("error: cannot normalize at (0.0, 0.0): float overflow: "
                   "a jet coefficient is inf or NaN\n")


def test_normalize_tiny_hessian_overflow_exit_2(tmp_path, capsys):
    """A Hessian step whose result leaves the float range is refused as
    an overflow, not ended in a traceback."""
    path = write_spec(tmp_path, "tiny.json", {
        "coefficients": _TINY_HESSIAN, "patch": [-1, 1, -1, 1],
    })
    code, out, err = run_cli(capsys, "normalize", "--spec", path,
                             "--point", "0,0")
    assert code == 2 and out == ""
    assert err == ("error: cannot normalize at (0.0, 0.0): float overflow: "
                   "math range error\n")


@pytest.mark.parametrize("umin, umax", [
    # the stencil's normalize_at finds the Hessian not positive definite
    (-0.18665266666666666, 0.013347333333333322),
    # the stencil's frames carry apolarity residuals of 1e-10, which
    # the float normal-form tolerance takes as round-off
    (-0.18648666666666663, 0.01351333333333335),
])
def test_evolute_survives_failed_pick_stencil(tmp_path, capsys, umin, umax):
    """The u-column next to the non-convex edge (u < -1/6) has Pick
    stencil points that cannot be normalized; they get a NaN rate, and
    the run records the same failures and rows as without the stencil."""
    path = write_spec(tmp_path, "edge.json", {
        "coefficients": {"2,0": 0.5, "0,2": 0.5, "3,0": 1.0},
        "patch": [umin, umax, -0.1, 0.1],
        "mode": "float",
    })
    results = {}
    for regularity in ("fast", "off"):
        code, out, _ = run_cli(
            capsys, "evolute", "--spec", path, "--grid", "11",
            "--workers", "1", "--regularity", regularity,
            "--out", str(tmp_path / regularity),
        )
        assert code == 0
        results[regularity] = json.loads(out)["results"]
    assert results["fast"]["failures"] == results["off"]["failures"]
    assert results["fast"]["csv_rows"] == results["off"]["csv_rows"]


def test_evolute_regular_flag_wiring(tmp_path, capsys):
    """Every CSV regular_flag is the regularity rule recomputed from the
    row's own inputs: Pick rates along (1, 0) and (0, 1), the root's
    simplicity and the section curvature rate.  Without the stencil the
    column is empty."""
    from aek.errors import AekError
    from aek.evolute import (direction_sextic, pick_derivative,
                             regularity_rule, section_curvature_rate)
    from aek.frames import normalize_at

    spec_path = str(SPECS / "cubic_six.json")
    surface = cli.build_surface(load_spec(spec_path))
    rows = {}
    for regularity in ("fast", "off"):
        code, _, _ = run_cli(
            capsys, "evolute", "--spec", spec_path, "--grid", "11",
            "--workers", "1", "--regularity", regularity,
            "--out", str(tmp_path / regularity))
        assert code == 0
        rows[regularity] = [
            line.split(",") for line in (tmp_path / regularity /
                                         "evolute_points.csv")
            .read_text().splitlines()[1:]]
    assert rows["off"] and all(r[8] == "" for r in rows["off"])

    def rate(point, w):
        try:
            return pick_derivative(surface, point, w)
        except (AekError, ValueError, ArithmeticError):
            return float("nan")

    rates, flags = {}, set()
    for r in rows["fast"]:
        point, theta = (float(r[0]), float(r[1])), float(r[3])
        if point not in rates:
            rates[point] = (rate(point, (1, 0)), rate(point, (0, 1)))
        frame = normalize_at(surface, point)
        want = regularity_rule(
            direction_sextic(frame).root(theta).simple,
            section_curvature_rate(frame, (math.cos(theta),
                                           math.sin(theta))),
            rates[point])
        assert r[8] == str(int(want)), r
        flags.add(r[8])
    assert flags == {"0", "1"}


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
