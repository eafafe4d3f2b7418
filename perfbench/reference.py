"""Reference figures: the hand-timed baseline, taken with the harness.

    python3 perfbench/reference.py

Single runs, so read them as orders of magnitude, not as a gate:

* ``aek evolute`` on the unrotated ``cubic_six`` spec, 41x41,
  ``--regularity fast``, with 1 and with 2 workers; both CSVs must be
  byte-identical.  The pool's scaling efficiency is
  wall(1 worker) / (2 * wall(2 workers)).
* ``trace_evolute`` cost per sample at regularity off, fast and full
  (0, 2 and 8 Pick directions), in one process on a 15x15 grid.
* the unit cost of ``normalize_at``, ``evolute_directions`` and
  ``solve_evolute_point`` (per root) over the same grid.
* ``aek verify --mode rational`` on the paraboloid, default seed.

Writes ``perfbench/results/reference.json`` with the environment.
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import sys
import time

import run

sys.path.insert(0, run.SRC)

GRID = 41
LAYER_GRID = 15


def _evolute(work: str, workers: int) -> tuple:
    out_dir = os.path.join(work, f"w{workers}")
    op = run.run_op(["evolute", "--spec",
                     os.path.join(run.SPECS, "cubic_six.json"),
                     "--grid", str(GRID), "--workers", str(workers),
                     "--regularity", "fast", "--out", out_dir], out_dir, False)
    if op.failure:
        raise RuntimeError(op.failure)
    return op, os.path.join(out_dir, "evolute_points.csv")


def _layers() -> dict:
    from aek.cli import build_surface, load_spec
    from aek.evolute import (evolute_directions, grid_points,
                             solve_evolute_point, trace_evolute)
    from aek.frames import normalize_at

    surface = build_surface(load_spec(os.path.join(run.SPECS,
                                                   "cubic_six.json")))
    samples = LAYER_GRID * LAYER_GRID
    per_sample = {}
    for label, picks in (("off", 0), ("fast", 2), ("full", 8)):
        start = time.perf_counter()
        trace_evolute(surface, grid=LAYER_GRID, pick_directions=picks)
        per_sample[label] = (time.perf_counter() - start) / samples * 1e3
    us, vs = grid_points(surface.patch, (LAYER_GRID, LAYER_GRID))
    points = [(u, v) for u in us for v in vs]
    start = time.perf_counter()
    frames = [normalize_at(surface, p) for p in points]
    normalize_ms = (time.perf_counter() - start) / samples * 1e3
    start = time.perf_counter()
    roots = [evolute_directions(f) for f in frames]
    directions_ms = (time.perf_counter() - start) / samples * 1e3
    solves = [(f, r.theta) for f, rs in zip(frames, roots) for r in rs.roots]
    start = time.perf_counter()
    for frame, theta in solves:
        solve_evolute_point(frame, theta)
    solve_ms = (time.perf_counter() - start) / len(solves) * 1e3
    return {
        "grid": LAYER_GRID,
        "trace_evolute_ms_per_sample": per_sample,
        "normalize_at_ms": normalize_ms,
        "evolute_directions_ms": directions_ms,
        "solve_evolute_point_ms_per_root": solve_ms,
        "roots": len(solves),
    }


def main() -> int:
    work = os.path.join(run.WORK, f"reference-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        one, csv1 = _evolute(work, 1)
        two, csv2 = _evolute(work, 2)
        same = filecmp.cmp(csv1, csv2, shallow=False)
        with open(csv1, encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
        verify_dir = os.path.join(work, "verify")
        verify = run.run_op(["verify", "--spec",
                             os.path.join(run.SPECS, "paraboloid.json"),
                             "--mode", "rational", "--out", verify_dir],
                            verify_dir, False)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {
        "environment": run.environment(),
        "evolute_cubic_six_41": {
            "regularity": "fast",
            "wall_s_1_worker": one.wall_s,
            "wall_s_2_workers": two.wall_s,
            "cpu_s_1_worker": one.cpu_s,
            "cpu_s_2_workers": two.cpu_s,
            "pool_efficiency": one.wall_s / (2 * two.wall_s),
            "csv_rows": rows,
            "csv_identical": same,
        },
        "layers_cubic_six": _layers(),
        "verify_rational_paraboloid_s": verify.wall_s,
        "verify_exit_code": verify.exit_code,
    }
    path = os.path.join(run.HERE, "results", "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(json.dumps(record, indent=1))
    return 0 if same and verify.exit_code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
