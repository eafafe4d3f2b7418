"""Self-test of the benchmark's checks at tiny grid sizes.

    python3 perfbench/selftest.py

Runs each kind of command once on a tiny input, shows that its real
output passes the checks, then corrupts the output and shows that the
checks reject it.  Prints one line per case and exits 1 if any case
does not behave as expected.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import random
import shutil
import sys

import run
from checks import read_rows

sys.path.insert(0, run.SRC)


def _rewrite_csv(out_dir: str, edit) -> None:
    path = os.path.join(out_dir, "evolute_points.csv")
    rows = edit(read_rows(path))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _rewrite_report(out_dir: str, command: str, edit) -> None:
    path = os.path.join(out_dir, f"{command}_report.json")
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    edit(report)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


def _drop_origin_row(rows):
    origin = next(i for i, r in enumerate(rows)
                  if float(r["u"]) == 0.0 and float(r["v"]) == 0.0)
    return rows[:origin] + rows[origin + 1:]


def _shift_centers(axis, by):
    def edit(rows):
        for r in rows:
            r[axis] = repr(float(r[axis]) + by)
        return rows
    return edit


def _shift_first_center(rows):
    rows[0]["z"] = repr(float(rows[0]["z"]) + 1e-9)
    return rows


def _set_residual(report):
    for check in report["results"]["checks"]:
        if check["name"] == "expansion-quartic":
            check["detail"]["max_residual"] = 1e-30


def _inexact_determinant(report):
    for check in report["results"]["checks"]:
        if check["name"] == "determinant-identity":
            check["detail"]["exact"] = False


class SelfTest:
    def __init__(self, work: str):
        self.work = work
        self.ok = True

    def expect(self, label: str, errors: list, marker: str | None) -> None:
        """Passes when no error is wanted (marker None) and none came,
        or when an error containing the marker came."""
        hits = [e for e in errors if marker is not None and marker in e]
        good = bool(hits) if marker is not None else not errors
        self.ok = self.ok and good
        shown = (hits or errors)[:1]
        verdict = f"rejected: {shown[0][:90]}" if errors else "accepted"
        print(f"[{'ok' if good else 'FAIL'}] {label}: {verdict}")

    def case(self, name: str, grid: int, corruptions,
             real_fails: tuple = ()) -> None:
        wl = dataclasses.replace(run.WORKLOADS[name], grid=grid)
        work = os.path.join(self.work, f"{name}-{grid}")
        os.makedirs(work)
        inputs = run.make_inputs(name, wl, 7, work)
        surface = None
        if wl.command == "evolute":
            from aek.cli import build_surface, load_spec
            surface = build_surface(load_spec(inputs.spec_path))
        out_dir = os.path.join(work, "op")
        op = run.run_op(run.aek_args(wl, inputs, out_dir), out_dir, False)

        def check(current):
            fresh = dataclasses.replace(current, errors=[], failure="")
            run.check_op(wl, inputs, fresh, out_dir, random.Random(1),
                         surface, spot=True)
            return fresh.errors + ([fresh.failure] if fresh.failure else [])

        label, marker = real_fails or ("real output", None)
        self.expect(f"{name} {label}", check(op), marker)
        for label, marker, corrupt in corruptions:
            saved = os.path.join(work, "saved")
            shutil.copytree(out_dir, saved)
            changed = corrupt(op, out_dir)
            self.expect(f"{name} {label}", check(changed or op), marker)
            shutil.rmtree(out_dir)
            shutil.move(saved, out_dir)


def main() -> int:
    work = os.path.join(run.WORK, f"selftest-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    test = SelfTest(work)
    try:
        test.case("sphere-off", 5, [
            ("center shifted off (0, 0, 1)", "from the sphere's center",
             lambda op, d: _rewrite_csv(d, _shift_first_center)),
        ])
        test.case("cubic6-fast", 5, [
            ("origin root dropped", "origin has 5 directions",
             lambda op, d: _rewrite_csv(d, _drop_origin_row)),
            ("centers moved off the curvature centers",
             "differs from the curvature center",
             lambda op, d: _rewrite_csv(d, _shift_centers("x", 1e-6))),
        ])
        test.case("cubic6-pool", 9, [])
        # 49 samples: the command silently traces them in one process
        test.case("cubic6-pool", 7, [],
                  real_fails=("with 49 samples, too few for the pool",
                              "pool fell back to serial"))
        test.case("verify-rational", 0, [
            ("nonzero rational residual", "is not an exact zero",
             lambda op, d: _rewrite_report(d, "verify", _set_residual)),
            ("determinant identity not exact", "identity is not exact",
             lambda op, d: _rewrite_report(d, "verify",
                                           _inexact_determinant)),
        ])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest " + ("passed" if test.ok else "FAILED"))
    return 0 if test.ok else 1


if __name__ == "__main__":
    sys.exit(main())
