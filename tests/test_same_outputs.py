"""Smoke tests of tools/same_outputs.py: the byte-identity check and the
second report on commands whose bytes differ."""

import importlib.util
import re
import shutil
from pathlib import Path

import pytest

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


def test_second_report_separates_round_off_from_changed_labels(tmp_path):
    """The second report gives the largest relative change of each float
    column and report value, and names the exact parts that differ."""
    tool = _tool()
    header = "u,v,branch_id,theta,x,y,z,D_residual,regular_flag\n"
    a, b = tmp_path / "a", tmp_path / "b"
    for top, theta, branch in ((a, "0.5", "0"), (b, "0.5000000000000001", "1")):
        top.mkdir()
        (top / "evolute_points.csv").write_text(
            header + f"0.1,0.2,{branch},{theta},1.0,2.0,-4.0,0.0,1\n"
            f"0.1,0.2,2,3.0,1.0,2.0,-4.0,1e-15,0\n")
    (a / "r.json").write_text('{"ok": true, "gaps": [1e-15, 2.0]}')
    (b / "r.json").write_text('{"ok": true, "gaps": [3e-15, 2.0]}')
    changes = tool.close_report((a, b), (b"", b""))
    assert changes.mismatched == {"csv branch_id"}
    largest = changes.largest()
    assert largest["csv theta"] == pytest.approx(2 ** -53 / 3.0, rel=1e-6)
    assert largest["csv x"] == 0.0
    assert largest["csv D_residual"] == 0.0
    assert largest["gaps[]"] == pytest.approx(1e-15, rel=1e-6)
    assert changes.summary().startswith(
        "exact parts differ: csv branch_id; largest relative change: ")
    (b / "evolute_points.csv").write_text(header + "0.1,0.2,0,0.5,1.0,2.0,"
                                          "-4.0,0.0,1\n")
    changes = tool.close_report((a, b), (b"", b""))
    assert {"csv rows", "csv root counts"} <= changes.mismatched


def test_second_report_counts_and_names_changed_flag_rows(tmp_path):
    """An exact CSV column that differs gets a line with the number of
    rows it differs in and the first three as (u, v, theta)."""
    tool = _tool()
    header = "u,v,branch_id,theta,x,y,z,D_residual,regular_flag\n"
    flags = {"a": "0,0,1,0,0", "b": "1,0,0,1,1"}
    for name, row_flags in flags.items():
        top = tmp_path / name
        top.mkdir()
        (top / "evolute_points.csv").write_text(header + "".join(
            f"{u},0.5,0,{theta},1.0,2.0,3.0,0.0,{flag}\n"
            for u, theta, flag in zip(("-0.1", "0.0", "0.1", "0.2", "0.3"),
                                      ("0.25", "1.5", "3.0", "0.75", "2.0"),
                                      row_flags.split(","))))
    changes = tool.close_report((tmp_path / "a", tmp_path / "b"),
                                (b"", b""))
    assert changes.mismatched == {"csv regular_flag"}
    assert changes.row_lines() == [
        "csv regular_flag: 4 row(s) differ, first as (u, v, theta): "
        "(-0.1, 0.5, 0.25), (0.1, 0.5, 3.0), (0.2, 0.5, 0.75)"]


def test_compare_prints_the_changed_flag_rows(tmp_path, capsys):
    """A tree whose regularity rule never passes flips every flagged row
    of a small grid, and the second report names those rows."""
    tool = _tool()
    copy = tmp_path / "src"
    shutil.copytree(ROOT / "src", copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    evolute = copy / "aek" / "evolute.py"
    text = evolute.read_text()
    assert text.count("return (simple_root and") == 1
    evolute.write_text(text.replace("return (simple_root and",
                                    "return (False and simple_root and"))
    command = "evolute --spec cubic_six.json --grid 3 --workers 1"
    assert tool.compare(ROOT / "src", copy, [command]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"DIFFERENT  {command} (evolute_points.csv)"
    assert lines[1].startswith(
        "    exact parts differ: csv regular_flag; largest relative change: ")
    row = r"\(-?[0-9.e-]+, -?[0-9.e-]+, [0-9.e-]+\)"
    assert re.fullmatch(
        r"    csv regular_flag: \d+ row\(s\) differ, first as "
        rf"\(u, v, theta\): {row}(, {row}){{0,2}}", lines[2])
    assert len(lines) == 3
