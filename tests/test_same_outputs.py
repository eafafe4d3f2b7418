"""Smoke test of tools/same_outputs.py, the byte-identity check."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    found = importlib.util.spec_from_file_location(
        "same_outputs", ROOT / "tools" / "same_outputs.py")
    module = importlib.util.module_from_spec(found)
    found.loader.exec_module(module)
    return module


def test_same_tree_reports_identical(tmp_path, capsys):
    tool = _tool()
    copy = tmp_path / "src"
    shutil.copytree(ROOT / "src", copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    command = "evolute --spec cubic_six.json --grid 3 --workers 1"
    assert tool.compare(copy, ROOT / "src", [command]) == 0
    assert capsys.readouterr().out == f"identical  {command} (exit 0)\n"


def test_one_changed_byte_names_the_file(tmp_path):
    tool = _tool()
    a, b = tmp_path / "a", tmp_path / "b"
    for top in (a, b):
        top.mkdir()
        (top / "evolute_points.csv").write_bytes(b"u,v\n0.1,0.2\n")
        (top / "evolute_mesh.obj").write_bytes(b"v 0.0 1.0 2.0\n")
    assert tool.differing_files(a, b) == []
    (b / "evolute_mesh.obj").write_bytes(b"v 0.0 1.0 2.1\n")
    assert tool.differing_files(a, b) == ["evolute_mesh.obj"]
