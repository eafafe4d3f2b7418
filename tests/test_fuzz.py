"""Seeded random specs through ``aek.cli.main``, by tools/fuzz.py: every
run ends in a documented exit code, no exception escapes, and every
failed evolute sample names its status and reason."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    found = importlib.util.spec_from_file_location(
        "fuzz", ROOT / "tools" / "fuzz.py")
    module = importlib.util.module_from_spec(found)
    found.loader.exec_module(module)
    return module


FUZZ = _tool()


@pytest.mark.parametrize("seed", range(1, 41))
def test_random_spec_ends_in_a_documented_way(seed):
    assert FUZZ.check_spec(seed) == []


def test_specs_are_seeded_and_cover_both_modes():
    """A seed names its spec; the drawn specs come in both modes, with
    terms up to degree 8."""
    first = [FUZZ.draw_spec(seed) for seed in range(1, 41)]
    assert first == [FUZZ.draw_spec(seed) for seed in range(1, 41)]
    modes = [spec["mode"] for spec, _, _ in first]
    assert 0 < modes.count("rational") < modes.count("float")
    degrees = [max(sum(map(int, key.split(","))) for key in spec[
        "coefficients"]) for spec, _, _ in first]
    assert max(degrees) == 8 and min(degrees) >= 2


def test_a_problem_is_reported(monkeypatch):
    """An exception that escapes ``main``, an undocumented exit code and
    a failure without a reason are each reported."""
    monkeypatch.setattr(FUZZ.cli, "main", lambda argv: 3)
    assert FUZZ.check_spec(1) == [f"seed 1: {name}: exit 3" for name in
                                  ("normalize", "invariants", "evolute")]

    def boom(argv):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(FUZZ.cli, "main", boom)
    problems = FUZZ.check_spec(1)
    assert len(problems) == 3
    assert all("exception escaped main" in p and "ZeroDivisionError" in p
               for p in problems)

    def silent_failure(argv):
        print(json.dumps({"results": {"failures": [
            {"status": "error", "message": ""}]}}))
        return 0

    monkeypatch.setattr(FUZZ.cli, "main", silent_failure)
    assert FUZZ.check_spec(1) == [
        "seed 1: evolute: failure {'status': 'error', 'message': ''}"]
