"""The benchmark harness's view of the package."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
