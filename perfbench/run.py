"""The aek benchmark: the ``aek`` CLI run as a user runs it.

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Each workload repeats one ``aek`` command, in a fresh interpreter each
time, for ``--seconds`` seconds (at least once), checks every output
(see ``checks.py``) and prints its metrics by name and unit; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of untraced commands.
``--trace 1`` runs pairs of an untraced and a traced command and
reports the per-layer metrics of the traced ones, plus the tracing
overhead.  Every run also writes its figures and the environment to
``perfbench/results/runs/``.  Inputs come from ``--seed`` alone; see
README.md for what each workload varies.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPECS = os.path.join(ROOT, "specs")
WORK = os.path.join(HERE, "work")
RESULTS = os.path.join(HERE, "results", "runs")
LAUNCH = os.path.join(HERE, "launch.py")

SETUP_PROBES = 9
OP_TIMEOUT_S = 150.0
#: a pool run whose workers did less than this share of the CPU work
#: fell back to serial
POOL_MIN_CHILD_SHARE = 0.5
#: center comparisons one ``aek verify`` makes (100 envelope-limit
#: solutions and 100 curvature centers against the Moutard center)
VERIFY_CENTERS = 200


@dataclass(frozen=True)
class Workload:
    command: str          # "evolute" or "verify"
    spec: str             # file name under specs/
    grid: int = 0
    workers: int = 1
    regularity: str = "off"


WORKLOADS = {
    "cubic6-fast": Workload("evolute", "cubic_six.json", 11, 1, "fast"),
    "sphere-off": Workload("evolute", "sphere.json", 21, 1, "off"),
    "verify-rational": Workload("verify", "paraboloid.json"),
    "cubic6-pool": Workload("evolute", "cubic_six.json", 11, 2, "fast"),
}


def benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def metric_units() -> tuple:
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    bench = benchmark()
    return tuple({m["name"]: m["unit"] for m in bench[key]}
                 for key in ("end_to_end", "per_layer"))


# ---------------------------------------------------------------------------
# inputs


def rotate_coefficients(coeffs: dict, phi: float) -> dict:
    """Coefficients of p(c u + s v, -s u + c v): the graph turned by phi,
    so every tangent direction angle grows by phi."""
    c, s = math.cos(phi), math.sin(phi)
    out = {}
    for key, value in coeffs.items():
        i, j = (int(p) for p in key.split(","))
        coef = float(Fraction(value)) if isinstance(value, str) else value
        for k in range(i + 1):
            for m in range(j + 1):
                w = (coef * math.comb(i, k) * math.comb(j, m)
                     * c ** (i - k) * s ** k * (-s) ** (j - m) * c ** m)
                e = (i - k + j - m, k + m)
                out[e] = out.get(e, 0.0) + w
    return {f"{i},{j}": w for (i, j), w in sorted(out.items()) if w}


@dataclass
class Inputs:
    spec_path: str
    rotation: float = 0.0
    verify_seeds: random.Random | None = None
    spot_seed: int = 0  # of the sympy spot check on verify-rational


def make_inputs(name: str, wl: Workload, seed: int, work: str) -> Inputs:
    """The workload's inputs, a function of the seed alone.

    cubic6-*: cubic_six turned by a seeded angle in [0, 2 pi/3); its
    convexity disc r < 1/6 is round, so the square patch stays convex.
    sphere-off: the sphere patch moved by a seeded offset of at most
    0.01 in u and v.  verify-rational: the seeds passed to ``--seed``.
    """
    rng = random.Random(f"{name}/{seed}")
    with open(os.path.join(SPECS, wl.spec), encoding="utf-8") as fh:
        spec = json.load(fh)
    if wl.command == "verify":
        return Inputs(os.path.join(SPECS, wl.spec),
                      verify_seeds=random.Random(rng.random()),
                      spot_seed=rng.randrange(1 << 30))
    inputs = Inputs(os.path.join(work, "spec.json"))
    if wl.spec == "cubic_six.json":
        inputs.rotation = rng.uniform(0.0, 2 * math.pi / 3)
        spec["coefficients"] = rotate_coefficients(spec["coefficients"],
                                                   inputs.rotation)
    else:
        du, dv = rng.uniform(-0.01, 0.01), rng.uniform(-0.01, 0.01)
        umin, umax, vmin, vmax = (float(Fraction(str(c)))
                                  for c in spec["patch"])
        spec["patch"] = [umin + du, umax + du, vmin + dv, vmax + dv]
    spec["grid"] = wl.grid
    with open(inputs.spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=1)
    return inputs


# ---------------------------------------------------------------------------
# running commands


@dataclass
class Op:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    children_cpu_s: float = 0.0
    trace: dict | None = None
    samples: int = 0
    centers: int = 0
    out_bytes: int = 0
    failure: str = ""
    errors: list = field(default_factory=list)


def _timed(argv: list, log_path: str):
    """Run argv; return (wall, rusage, exit code) from wait4."""
    with open(log_path, "w", encoding="utf-8") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=log,
                                cwd=ROOT)
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage, proc.returncode


def probe_setup(spec_path: str, work: str) -> list:
    argv = [sys.executable, LAUNCH, "--setup", spec_path]
    walls = []
    for _ in range(SETUP_PROBES):
        wall, _, code = _timed(argv, os.path.join(work, "setup.log"))
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}: "
                               + _tail(os.path.join(work, "setup.log")))
        walls.append(wall)
    return walls


def _tail(path: str, lines: int = 5) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return " | ".join(fh.read().splitlines()[-lines:])


def aek_args(wl: Workload, inputs: Inputs, out_dir: str) -> list:
    args = [wl.command, "--spec", inputs.spec_path, "--out", out_dir]
    if wl.command == "verify":
        return args + ["--mode", "rational",
                       "--seed", str(inputs.verify_seeds.randrange(1 << 30))]
    return args + ["--grid", str(wl.grid), "--workers", str(wl.workers),
                   "--regularity", wl.regularity]


def run_op(argv_tail: list, out_dir: str, trace: bool) -> Op:
    os.makedirs(out_dir)
    sidecar = os.path.join(out_dir, "launch.json")
    argv = [sys.executable, LAUNCH, sidecar] + (["--trace"] if trace else [])
    wall, usage, code = _timed(argv + ["--"] + argv_tail,
                               os.path.join(out_dir, "stderr.log"))
    op = Op(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            code)
    if not os.path.exists(sidecar):
        op.failure = f"command died (exit {code}): " + _tail(
            os.path.join(out_dir, "stderr.log"))
        return op
    with open(sidecar, encoding="utf-8") as fh:
        info = json.load(fh)
    op.children_cpu_s = info["children_cpu_s"]
    op.trace = info.get("trace")
    op.out_bytes = sum(
        os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir)
        if f not in ("launch.json", "stderr.log"))
    if code != 0:
        op.failure = f"exit code {code}: " + _tail(
            os.path.join(out_dir, "stderr.log"))
    return op


def check_op(wl: Workload, inputs: Inputs, op: Op, out_dir: str,
             rng: random.Random, surface, spot: bool) -> None:
    """Fill in the op's sample and center counts and its check errors."""
    import checks

    if wl.workers > 1 and op.children_cpu_s < POOL_MIN_CHILD_SHARE * op.cpu_s:
        op.failure = (f"pool fell back to serial: workers used "
                      f"{op.children_cpu_s:.2f} of {op.cpu_s:.2f} CPU s")
    if op.trace is not None and wl.workers > 1 and not op.trace["worker_pids"]:
        op.failure = "traced pool run: no worker process ran a sample"
    if op.failure:
        return
    report = checks.read_report(out_dir, wl.command)
    if wl.command == "verify":
        op.samples, op.centers = 1, VERIFY_CENTERS
        op.errors = checks.check_verify_report(op.exit_code, report)
        if spot:
            op.errors += checks.spot_check_determinant(inputs.spot_seed)
        return
    rows = checks.read_rows(os.path.join(out_dir, "evolute_points.csv"))
    op.samples, op.centers = report["results"]["samples"], len(rows)
    op.errors = checks.check_evolute_report(op.exit_code, report, rows)
    if wl.spec == "sphere.json":
        op.errors += checks.check_sphere_centers(rows, op.samples)
    else:
        op.errors += checks.check_origin_directions(rows, inputs.rotation)
        op.errors += checks.check_curvature_centers(surface, rows, rng)


# ---------------------------------------------------------------------------
# metrics


def _median(values):
    return statistics.median(values) if values else 0.0


def slowest(ops: list) -> Op:
    """The operation that took the most CPU time.

    On a shared host the CPU runs at a base speed with bursts of extra
    speed that come and go within seconds, so the operation with the
    most CPU time is the one that ran at base speed, and its figures
    are the steadiest between runs.  Choosing by CPU time rather than
    wall time keeps out an operation that merely waited while other
    processes held the CPU (see README.md, "Noise and bounds").
    """
    return max(ops, key=lambda o: o.cpu_s)


def end_to_end(ops: list, setup_s: float) -> dict:
    op = slowest(ops)
    return {
        "wall_s": op.wall_s,
        "setup_s": setup_s,
        "samples_per_s": op.samples / (op.wall_s - setup_s),
        "centers_per_s": op.centers / (op.wall_s - setup_s),
        "cpu_s": op.cpu_s,
        "peak_rss_mb": _median([o.peak_rss_mb for o in ops]),
    }


def layer_values(op: Op, names) -> dict:
    spans = op.trace["spans"]
    counts = op.trace["counts"]

    def span(name, i):
        return spans.get(name, (0, 0.0, 0.0))[i]

    samples = counts.get("evolute.samples", 0)
    out = {}
    for metric in names:
        base, _, kind = metric.rpartition(".")
        if kind in ("calls", "total_s", "self_s"):
            out[metric] = span(base, ("calls", "total_s", "self_s")
                               .index(kind))
    out["frames.normalize_per_sample"] = (
        span("frames.normalize_at", 0) / samples if samples else 0.0)
    out["evolute.directions_per_sample"] = (
        span("evolute.evolute_directions", 0) / samples if samples else 0.0)
    out["evolute.branch_match_s"] = span("evolute.trace_evolute", 2)
    out["evolute.roots_found"] = counts.get("evolute.roots_found", 0)
    out["cli.out_bytes"] = op.out_bytes
    out["pool.worker_pids"] = len(op.trace["worker_pids"])
    return out


def per_layer(traced: list, plain: list, names) -> dict:
    rows = [layer_values(o, names) for o in traced]
    out = {m: _median([r[m] for r in rows]) for m in rows[0]}
    out["pool.children_cpu_s"] = _median([o.children_cpu_s for o in plain])
    out["trace.overhead_s"] = slowest(traced).wall_s - slowest(plain).wall_s
    return out


def environment() -> dict:
    import numpy

    sha = "unknown"
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.samefile(lines[0], ROOT):
            sha = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": sha,
        "src_lines": src_lines,
    }


# ---------------------------------------------------------------------------
# one workload


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from aek.cli import build_surface, load_spec

    wl = WORKLOADS[name]
    work = os.path.join(WORK, f"{name}-s{seed}-t{int(trace)}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        inputs = make_inputs(name, wl, seed, work)
        surface = None
        if wl.command == "evolute":
            surface = build_surface(load_spec(inputs.spec_path))
        setup_walls = probe_setup(inputs.spec_path, work)
        rng = random.Random(f"{name}/{seed}/spot")
        plain, traced = [], []
        deadline = time.perf_counter() + seconds
        round_no = 0
        while round_no == 0 or time.perf_counter() < deadline:
            for is_traced in ((False, True) if trace else (False,)):
                out_dir = os.path.join(work, f"op{round_no}-{int(is_traced)}")
                op = run_op(aek_args(wl, inputs, out_dir), out_dir, is_traced)
                check_op(wl, inputs, op, out_dir, rng, surface,
                         spot=round_no == 0 and not is_traced)
                (traced if is_traced else plain).append(op)
                shutil.rmtree(out_dir)
            round_no += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = plain + traced
    failed = [o for o in ops if o.failure]
    errors = [e for o in ops for e in o.errors]
    good_plain = [o for o in plain if not o.failure] or plain
    good_traced = [o for o in traced if not o.failure] or traced
    setup_s = _median(setup_walls)
    e2e_units, layer_units = metric_units()
    if trace:
        units = layer_units
        values = per_layer(good_traced, good_plain, units)
    else:
        units = e2e_units
        values = end_to_end(good_plain, setup_s)
    result = {
        "correct": not errors,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {m: {"value": values[m], "unit": u}
                    for m, u in units.items()},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "environment": environment(),
        "setup_walls_s": setup_walls,
        "ops": [{"traced": o.trace is not None, "wall_s": o.wall_s,
                 "cpu_s": o.cpu_s, "children_cpu_s": o.children_cpu_s,
                 "peak_rss_mb": o.peak_rss_mb, "exit_code": o.exit_code,
                 "samples": o.samples, "centers": o.centers,
                 "failure": o.failure, "errors": o.errors[:10]}
                for o in ops],
        "failures": sorted({o.failure for o in failed}),
        "errors": errors[:20],
        "result": result,
    }
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{name}-s{seed}-t{int(trace)}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for line in record["failures"] + record["errors"]:
        print(f"{name}: {line}", file=sys.stderr)
    return result


def _print_metrics(name: str, result: dict) -> None:
    print(f"{name}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for metric, m in result["metrics"].items():
        print(f"  {metric:48s} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    run_seconds = benchmark()["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [os.path.join(SRC, "aek", "cli.py")] + sorted(
        {os.path.join(SPECS, w.spec) for w in WORKLOADS.values()})
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        print(f"error: the aek sources are not here: {missing}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds,
                                     bool(args.trace))
        _print_metrics(name, results[name])
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
