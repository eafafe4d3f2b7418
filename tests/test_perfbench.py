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
