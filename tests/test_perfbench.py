"""The benchmark harness's view of the package."""

import ast
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    """Every required tracer target names an attribute of ``aek``; a
    missing one makes every traced benchmark command raise."""
    for name, (module, path) in load_tracer().TARGETS.items():
        owner = importlib.import_module(module)
        for part in path.split("."):
            assert hasattr(owner, part), f"{name}: {module}.{path}"
            owner = getattr(owner, part)
        assert callable(owner), name


def test_aek_imports_of_benchmark_and_tools_resolve():
    """Every ``from aek... import name`` in ``perfbench/*.py`` and
    ``tools/*.py`` resolves, the imports inside functions included: a
    broken lazy import would fail the benchmark, not the tests."""
    missing, importing = [], set()
    for path in sorted([*(ROOT / "perfbench").glob("*.py"),
                        *(ROOT / "tools").glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.ImportFrom) and not node.level
                    and node.module.split(".")[0] == "aek"):
                continue
            importing.add(path.name)
            owner = importlib.import_module(node.module)
            missing += [f"{path.name}:{node.lineno} {node.module}.{a.name}"
                        for a in node.names if not hasattr(owner, a.name)]
    assert {"checks.py", "reference.py"} <= importing
    assert not missing


def test_reference_trace_calls_run():
    """``perfbench/reference.py`` traces cubic_six with 0, 2 and 8 Pick
    directions; each call runs, and every solution carries a regularity
    flag exactly when the stencil ran."""
    from aek.cli import build_surface, load_spec
    from aek.evolute import trace_evolute

    spec = Path(__file__).resolve().parent.parent / "specs" / "cubic_six.json"
    surface = build_surface(load_spec(str(spec)))
    for picks in (0, 2, 8):
        trace = trace_evolute(surface, grid=3, pick_directions=picks)
        flags = [bs.solution.regular for b in trace.branches
                 for bs in b.samples]
        assert flags
        if picks:
            assert all(isinstance(f, bool) for f in flags)
        else:
            assert all(f is None for f in flags)


def test_launcher_runs_rational_verify(tmp_path):
    """The benchmark's entry point runs the ``verify-rational`` command
    in a fresh interpreter and records exit code 0."""
    sidecar = tmp_path / "sidecar.json"
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "launch.py"), str(sidecar),
         "--", "verify", "--spec", str(ROOT / "specs" / "paraboloid.json"),
         "--mode", "rational", "--seed", "1"],
        cwd=tmp_path, capture_output=True, timeout=300, check=False)
    assert json.loads(sidecar.read_text())["exit_code"] == 0


def test_traced_verify_counts_the_expansion_checks(tmp_path):
    """A traced rational ``verify`` expands each of its 20 random frames
    once and runs both structural checks on that expansion, and the
    tracer sees every call."""
    sidecar = tmp_path / "sidecar.json"
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "launch.py"), str(sidecar),
         "--trace", "--", "verify",
         "--spec", str(ROOT / "specs" / "paraboloid.json"),
         "--mode", "rational", "--seed", "1"],
        cwd=tmp_path, capture_output=True, timeout=300, check=False)
    info = json.loads(sidecar.read_text())
    assert info["exit_code"] == 0
    spans = info["trace"]["spans"]
    assert [spans[f"midplanes.{name}"][0] for name in (
        "expand_mid_plane", "check_cubic_term", "check_quartic_term")] \
        == [20, 20, 20]


def test_traced_evolute_sees_the_per_root_work(tmp_path):
    """A traced ``evolute`` takes one Moutard center and one section
    curvature rate per root found, and the tracer sees every call."""
    sidecar = tmp_path / "sidecar.json"
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "launch.py"), str(sidecar),
         "--trace", "--", "evolute",
         "--spec", str(ROOT / "specs" / "cubic_six.json"),
         "--grid", "5", "--workers", "1", "--out", str(tmp_path)],
        cwd=tmp_path, capture_output=True, timeout=300, check=False)
    info = json.loads(sidecar.read_text())
    assert info["exit_code"] == 0
    spans, counts = info["trace"]["spans"], info["trace"]["counts"]
    roots = counts["evolute.roots_found"]
    assert roots > 0
    assert [spans[name][0] for name in (
        "invariants.moutard_center", "evolute.section_curvature_rate")] \
        == [roots, roots]
