"""Batch front door: JSON surface specs in, JSON/CSV/OBJ reports out.

Commands
--------
normalize   frame data at a point (exit 2 on non-convex points)
invariants  Transon plane, cone ruling, Moutard quadric/center, curvature
verify      structural check suite (exit 3 on any failure)
evolute     trace the mid-planes evolute over a grid, write mesh files

Exit codes: 0 success, 1 usage or spec parse error, 2 geometric
precondition failure, 3 verification failure.  Reports are emitted on
stdout as a single JSON document with deterministic field order;
timing goes to stderr so identical inputs give identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    AekError,
    NonConvexPointError,
    PatchBoundsError,
    SpecFormatError,
)
from .evolute import (
    D_IDENTITY_CONSTANT,
    direction_sextic,
    discriminant_D,
    evolute_directions,
    pick_invariant,
    section_curvature_rate,
    solve_evolute_point,
    trace_evolute,
)
from .frames import (
    AffineMap3,
    BlaschkeFrame,
    SurfaceModel,
    normalize_at,
    pull_back,
    pull_back_direction,
    random_frame,
    to_float_frame,
)
from .geometry import (
    AtInfinity,
    Plane3,
    Quadric3,
    direction_pair,
    unit_direction,
)
from .invariants import (
    affine_curvature,
    affine_curvature_derivative,
    center_of_affine_curvature,
    moutard_center,
    moutard_quadric,
    section_along,
    su_cone_direction,
    transon_gradients,
    transon_plane,
)
from .midplanes import (
    check_cubic_term,
    check_quartic_term,
    expand_mid_plane,
    midplane_limit_probe,
)
from .scalars import FLOAT, RATIONAL, coerce

_SPEC_KEYS = {"coefficients", "patch", "mode", "grid"}


@dataclass(frozen=True)
class SurfaceSpec:
    """Validated contents of a surface spec file."""

    coefficients: dict
    patch: tuple
    mode: str
    grid: int
    path: str


def _number(value, mode: str, what: str):
    """A spec value as a finite scalar of ``mode``, or SpecFormatError."""
    try:
        number = coerce(value, mode)
        if not math.isfinite(number):
            raise ValueError(f"{value!r} is not a finite number")
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise SpecFormatError(f"{what}: {exc}") from None
    return number


def _unique_names(pairs) -> dict:
    """A JSON object of the spec; a name given twice is a SpecFormatError."""
    obj = {}
    for name, value in pairs:
        if name in obj:
            raise SpecFormatError(f"spec names {name!r} twice in one object")
        obj[name] = value
    return obj


def load_spec(path: str, mode_override: str | None = None) -> SurfaceSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_unique_names)
    except OSError as exc:
        raise SpecFormatError(f"cannot read spec: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"spec is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise SpecFormatError("spec root must be a JSON object")
    if mode_override is not None:
        raw = {**raw, "mode": mode_override}
    unknown = set(raw) - _SPEC_KEYS
    if unknown:
        raise SpecFormatError(f"unknown spec keys: {sorted(unknown)}")
    if "coefficients" not in raw or "patch" not in raw:
        raise SpecFormatError("spec needs 'coefficients' and 'patch'")
    mode = raw.get("mode", FLOAT)
    if mode not in (RATIONAL, FLOAT):
        raise SpecFormatError(f"unknown mode {mode!r}")
    coeffs = {}
    if not isinstance(raw["coefficients"], dict):
        raise SpecFormatError("'coefficients' must be an object")
    for key, value in raw["coefficients"].items():
        try:
            i, j = (int(part) for part in key.split(","))
            if i < 0 or j < 0:
                raise ValueError
        except ValueError:
            raise SpecFormatError(
                f"coefficient key {key!r} is not 'i,j' with i,j >= 0"
            ) from None
        if (i, j) in coeffs:
            raise SpecFormatError(f"coefficient {key!r} repeats ({i}, {j})")
        coeffs[(i, j)] = _number(value, mode, f"coefficient {key!r}")
    patch = raw["patch"]
    if (not isinstance(patch, list) or len(patch) != 4):
        raise SpecFormatError("'patch' must be [umin, umax, vmin, vmax]")
    patch = tuple(_number(c, mode, "patch") for c in patch)
    if not (patch[0] < patch[1] and patch[2] < patch[3]):
        raise SpecFormatError("'patch' needs umin < umax and vmin < vmax")
    grid = raw.get("grid", 41)
    if isinstance(grid, bool) or not isinstance(grid, int) or grid < 1:
        raise SpecFormatError("'grid' must be a positive integer")
    return SurfaceSpec(coeffs, patch, mode, grid, path)


def build_surface(spec: SurfaceSpec) -> SurfaceModel:
    return SurfaceModel.from_coefficients(
        spec.coefficients, spec.patch, spec.mode
    )


def parse_point(text: str, mode: str):
    try:
        parts = text.split(",")
        if len(parts) != 2:
            raise ValueError("expected 'u,v'")
        return tuple(coerce(p.strip(), mode) for p in parts)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise SpecFormatError(f"bad point {text!r}: {exc}") from None


def parse_direction(text: str):
    """An angle in radians, or an explicit 'xi,eta' pair."""
    try:
        if "," in text:
            return unit_direction(direction_pair(
                Fraction(p.strip()) for p in text.split(",")))
        theta = float(text)
        if not math.isfinite(theta):
            raise ValueError("not a finite angle")
        return math.cos(theta), math.sin(theta)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise SpecFormatError(f"bad direction {text!r}: {exc}") from None


# ---------------------------------------------------------------------------
# serialization


def jsonable(obj):
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, float):
        return obj
    if isinstance(obj, (int, str, bool)) or obj is None:
        return obj
    if isinstance(obj, AtInfinity):
        return {"at_infinity": [jsonable(c) for c in obj.direction]}
    if isinstance(obj, Plane3):
        return {
            "normal": [jsonable(c) for c in obj.normal],
            "offset": jsonable(obj.offset),
        }
    if isinstance(obj, Quadric3):
        return {"matrix": [[jsonable(c) for c in row] for row in obj.matrix]}
    if isinstance(obj, AffineMap3):
        return {
            "linear": [[jsonable(c) for c in row] for row in obj.linear],
            "translation": [jsonable(c) for c in obj.translation],
            "det": jsonable(obj.det_linear),
        }
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(c) for c in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def render_report(command: str, spec: SurfaceSpec, results: dict,
                  diagnostics: dict) -> str:
    body = {
        "command": command,
        "spec_file": spec.path,
        "mode": spec.mode,
        "results": jsonable(results),
        "diagnostics": jsonable(diagnostics),
    }
    return json.dumps(body, indent=2)


def _frame_summary(frame: BlaschkeFrame) -> dict:
    return {
        "a": frame.a,
        "b": frame.b,
        "f4": {
            "f40": frame.f4[0], "f31": frame.f4[1], "f22": frame.f4[2],
            "f13": frame.f4[3], "f04": frame.f4[4],
        },
        "f50": frame.f50,
        "apolarity_residuals": list(frame.apolarity_residuals),
        "pick_invariant": pick_invariant(frame),
        "world_from_local": frame.world_from_local,
    }


# ---------------------------------------------------------------------------
# commands


def cmd_normalize(spec: SurfaceSpec, point_text: str) -> tuple[str, int]:
    surface = build_surface(spec)
    point = parse_point(point_text, spec.mode)
    frame = normalize_at(surface, point)
    results = {
        "point": list(point),
        "frame": _frame_summary(frame),
        "hessian": list(surface.hessian(point)),
    }
    diagnostics = {
        "det_linear": frame.world_from_local.det_linear,
        "surface_degree": surface.height.order,
    }
    return render_report("normalize", spec, results, diagnostics), 0


def cmd_invariants(spec: SurfaceSpec, point_text: str,
                   direction_text: str) -> tuple[str, int]:
    surface = build_surface(spec)
    point = parse_point(point_text, spec.mode)
    xi, eta = parse_direction(direction_text)
    frame = to_float_frame(normalize_at(surface, point))
    t = (xi, eta)
    plane = transon_plane(frame, t)
    su = su_cone_direction(frame, t)
    quadric = moutard_quadric(frame, t)
    center = moutard_center(frame, t)
    curv_center = center_of_affine_curvature(frame, t)
    section, lam, _ = section_along(frame, t)
    mu = affine_curvature(section)
    mu_prime = affine_curvature_derivative(section)

    def both(obj):
        return {"local": obj, "world": pull_back(frame, obj)}

    results = {
        "point": list(point),
        "direction": [xi, eta],
        "frame": _frame_summary(frame),
        "transon_plane": both(plane),
        "su_direction": {
            "local": list(su),
            "world": list(pull_back_direction(frame, su)),
        },
        "moutard_quadric": both(quadric),
        "moutard_center": both(center),
        "curvature_center": both(curv_center),
        "section": {
            "lambda": lam, "a3": section.a3, "a4": section.a4,
            "a5": section.a5, "mu": mu, "mu_prime": mu_prime,
        },
        "mu_prime_along_direction": section_curvature_rate(frame, t),
    }
    return render_report("invariants", spec, results, {}), 0


def _draw_direction(rng: random.Random, mode: str):
    """A random tangent direction (xi, eta) with small rational or
    uniform float entries, or None when the draw is (0, 0)."""
    if mode == RATIONAL:
        xi = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        eta = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    else:
        xi, eta = rng.uniform(-1, 1), rng.uniform(-1, 1)
    if not xi and not eta:
        return None
    return xi, eta


def _verify_checks(spec: SurfaceSpec, point, seed: int) -> list[dict]:
    # the spec surface's own frame first, so that a bad point or spec
    # fails before the random checks; its check is reported last
    frame = normalize_at(build_surface(spec), point)
    mode = spec.mode
    rng = random.Random(seed)
    checks = []

    def add(name, passed, detail):
        checks.append({"name": name, "passed": bool(passed),
                       "detail": detail})

    # expansion structure over random frames
    worst3, worst4 = 0.0, 0.0
    exact_ok = True
    for _ in range(20):
        fr = random_frame(rng, mode)
        expansion = expand_mid_plane(fr)
        r3 = check_cubic_term(fr, expansion)
        r4 = check_quartic_term(fr, expansion)
        worst3 = max(worst3, r3.max_abs_residual)
        worst4 = max(worst4, r4.max_abs_residual)
        exact_ok = exact_ok and r3.passed and r4.passed
    add("expansion-cubic", worst3 < 1e-12, {"max_residual": worst3})
    add("expansion-quartic", worst4 < 1e-12, {"max_residual": worst4})
    add("expansion-exactness", exact_ok,
        {"mode": mode, "note": "exact zero required in rational mode"})

    # Euler relation: 3 G = xi G_xi + eta G_eta on the covector level
    euler_worst = 0.0
    for _ in range(50):
        fr = random_frame(rng, mode)
        direction = _draw_direction(rng, mode)
        if direction is None:
            continue
        xi, eta = direction
        g = transon_plane(fr, (xi, eta)).normal
        g_xi, g_eta = transon_gradients(fr, (xi, eta))
        resid = max(
            abs(float(3 * gc - (xi * c1 + eta * c2)))
            for gc, c1, c2 in zip(g, g_xi, g_eta)
        )
        euler_worst = max(euler_worst, resid)
    add("euler-relation", euler_worst < 1e-12, {"max_residual": euler_worst})

    # determinant identity against the direction sextic
    num, den = D_IDENTITY_CONSTANT
    det_worst = 0.0
    det_exact = True
    for _ in range(100):
        fr = random_frame(rng, mode)
        direction = _draw_direction(rng, mode)
        if direction is None:
            continue
        xi, eta = direction
        d_val = discriminant_D(fr, (xi, eta))
        s = direction_sextic(fr)
        expected = (xi * xi + eta * eta) ** 2 * s.evaluate(xi, eta) * num / den
        if d_val != expected:
            det_exact = False
        scale = max(1.0, abs(float(expected)))
        det_worst = max(det_worst, abs(float(d_val - expected)) / scale)
    add("determinant-identity", det_worst < 1e-9,
        {"max_relative_residual": det_worst,
         "exact": det_exact and mode == RATIONAL, "sign": f"+{num}/{den}"})

    # Moutard center vs center of affine curvature
    cc_worst = 0.0
    count = 0
    while count < 100:
        fr = random_frame(rng, FLOAT)
        theta = rng.uniform(0, math.pi)
        t = (math.cos(theta), math.sin(theta))
        mc = moutard_center(fr, t)
        cc = center_of_affine_curvature(fr, t)
        if isinstance(mc, AtInfinity) or isinstance(cc, AtInfinity):
            continue
        scale = max(1.0, max(abs(c) for c in mc))
        cc_worst = max(
            cc_worst,
            max(abs(p - q) for p, q in zip(mc, cc)) / scale,
        )
        count += 1
    add("curvature-center-match", cc_worst < 1e-10,
        {"max_relative_gap": cc_worst})

    # envelope-limit solution vs Moutard center
    env_worst = 0.0
    count = 0
    while count < 100:
        fr = random_frame(rng, FLOAT)
        roots = evolute_directions(fr)
        if roots.identically_zero or not roots.roots:
            continue
        best = max(roots.roots, key=lambda r: abs(r.q_derivative))
        if not best.simple:
            continue
        try:
            x = solve_evolute_point(fr, best.theta)
        except AekError:
            continue
        # the solve's center is at infinity only where this one is
        mc = moutard_center(fr, (math.cos(best.theta), math.sin(best.theta)))
        if isinstance(mc, AtInfinity):
            continue
        scale = max(1.0, max(abs(c) for c in mc))
        env_worst = max(env_worst,
                        max(abs(p - q) for p, q in zip(x, mc)) / scale)
        count += 1
    add("envelope-center-match", env_worst < 1e-10,
        {"max_relative_gap": env_worst})

    # mid-plane collapse convergence
    orders = []
    for _ in range(10):
        fr = random_frame(rng, FLOAT)
        theta = rng.uniform(0, math.pi)
        probe = midplane_limit_probe(
            fr, (math.cos(theta), math.sin(theta)),
            (1e-1, 1e-2, 1e-3, 1e-4),
        )
        orders.append(probe.fitted_order)
    add("midplane-limit-order", min(orders) >= 0.9,
        {"min_fitted_order": min(orders)})

    ap = frame.apolarity_residuals
    ap_worst = max(abs(float(r)) for r in ap)
    add("surface-frame-apolarity", ap_worst < 1e-10,
        {"residuals": [float(r) for r in ap]})
    return checks


def cmd_verify(spec: SurfaceSpec, point_text: str,
               seed: int = 42) -> tuple[str, int]:
    point = parse_point(point_text, spec.mode)
    if spec.mode == FLOAT:
        print("warning: verify in float mode checks tolerances, "
              "not exact zeros; rational mode is recommended",
              file=sys.stderr)
    checks = _verify_checks(spec, point, seed)
    all_passed = all(c["passed"] for c in checks)
    results = {
        "checks": checks,
        "all_passed": all_passed,
    }
    report = render_report("verify", spec, results,
                           {"seed": seed, "count": len(checks)})
    return report, 0 if all_passed else 3


def write_evolute_csv(path: str, trace) -> int:
    """One row per finite center, in (u, v, theta) order; the
    regular_flag column is empty where no Pick rates were sampled."""
    rows = sorted(
        ((branch.branch_id, bs) for branch in trace.branches
         for bs in branch.samples
         if not isinstance(bs.solution.center_world, AtInfinity)),
        key=lambda row: (row[1].index, row[1].solution.theta or 0.0))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("u,v,branch_id,theta,x,y,z,D_residual,regular_flag\n")
        for branch_id, bs in rows:
            sol = bs.solution
            theta = "" if sol.theta is None else repr(float(sol.theta))
            x, y, z = (repr(float(c)) for c in sol.center_world)
            flag = "" if sol.regular is None else int(sol.regular)
            fh.write(
                f"{bs.point[0]!r},{bs.point[1]!r},{branch_id},"
                f"{theta},{x},{y},{z},{sol.d_value!r},{flag}\n"
            )
    return len(rows)


def write_evolute_obj(path: str, trace) -> tuple[int, int]:
    """Per-branch triangulation over grid adjacency; cells with a
    missing corner become holes (or a single triangle when only one
    corner is missing)."""
    vertices = []
    faces = []
    for branch in trace.branches:
        vmap = {}
        for bs in branch.samples:
            sol = bs.solution
            if isinstance(sol.center_world, AtInfinity):
                continue
            vmap[bs.index] = len(vertices) + 1
            vertices.append(tuple(float(c) for c in sol.center_world))
        for (i, j) in sorted(vmap):
            corners = [(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]
            present = [c for c in corners if c in vmap]
            if len(present) == 4:
                a, b, c, d = (vmap[p] for p in corners)
                faces.append((a, b, c))
                faces.append((a, c, d))
            elif len(present) == 3:
                faces.append(tuple(vmap[p] for p in present))
    with open(path, "w", encoding="utf-8") as fh:
        for v in vertices:
            fh.write(f"v {v[0]!r} {v[1]!r} {v[2]!r}\n")
        for f in faces:
            fh.write(f"f {f[0]} {f[1]} {f[2]}\n")
    return len(vertices), len(faces)


@contextmanager
def _output_errors():
    """An OSError in making the output directory or writing a file in
    it, such as an ``--out`` that names a file, as a usage error."""
    try:
        yield
    except OSError as exc:
        raise SpecFormatError(f"cannot write output: {exc}") from None


def cmd_evolute(spec: SurfaceSpec, out_dir: str, grid: int | None,
                workers: int, regularity: str) -> tuple[str, int]:
    if workers < 1:
        raise SpecFormatError(f"--workers must be at least 1, got {workers}")
    n = grid if grid is not None else spec.grid
    if n < 1:
        raise SpecFormatError("grid must have at least one sample")
    surface = build_surface(spec)
    with _output_errors():
        os.makedirs(out_dir, exist_ok=True)
    pick_dirs = {"off": 0, "fast": 2}[regularity]
    trace = trace_evolute(surface, grid=(n, n), workers=workers,
                          pick_directions=pick_dirs)
    csv_path = os.path.join(out_dir, "evolute_points.csv")
    obj_path = os.path.join(out_dir, "evolute_mesh.obj")
    with _output_errors():
        rows = write_evolute_csv(csv_path, trace)
        nverts, nfaces = write_evolute_obj(obj_path, trace)
    n_ok = sum(1 for s in trace.samples if s.status == "ok")
    n_degenerate = sum(1 for s in trace.samples if s.status == "degenerate")
    results = {
        "grid": [n, n],
        "samples": len(trace.samples),
        "samples_ok": n_ok,
        "samples_degenerate": n_degenerate,
        "failures": [
            {"index": list(f[0]), "point": list(f[1]),
             "status": f[2], "message": f[3]}
            for f in trace.failures
        ],
        "branches": [
            {
                "id": b.branch_id,
                "size": len(b.samples),
                "degenerate": b.degenerate,
                "max_link_gap": b.max_link_gap,
                "events": b.events,
            }
            for b in trace.branches
        ],
        "csv_rows": rows,
        "obj_vertices": nverts,
        "obj_faces": nfaces,
        "files": {
            "csv": "evolute_points.csv",
            "obj": "evolute_mesh.obj",
        },
    }
    succeeded = n_ok + n_degenerate
    code = 0 if succeeded > 0 else 2
    return render_report("evolute", spec, results,
                         {"workers": trace.workers,
                          "regularity": regularity}), code


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise SpecFormatError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="aek", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("normalize", "invariants", "verify", "evolute"):
        p = sub.add_parser(name)
        p.add_argument("--spec", required=True, help="surface spec JSON")
        p.add_argument("--mode", choices=(RATIONAL, FLOAT),
                       help="override the spec's numeric mode")
        p.add_argument("--out", default=None, help="output directory")
        if name in ("normalize", "invariants", "verify"):
            p.add_argument("--point", default="0,0", help="chart point u,v")
        if name == "invariants":
            p.add_argument("--direction", default="0",
                           help="angle in radians, or xi,eta")
        if name == "verify":
            p.add_argument("--seed", type=int, default=42)
        if name == "evolute":
            p.add_argument("--grid", type=int, default=None)
            p.add_argument("--workers", type=int,
                           default=os.cpu_count() or 1)
            p.add_argument("--regularity", choices=("off", "fast"),
                           default="fast")
    return parser


#: a value that argparse would take for an option: a minus sign, then a
#: digit or a dot
_SIGNED_VALUE = re.compile(r"-[0-9.]")


def _join_signed_values(argv) -> list:
    """``--point -0.02,0.01`` as ``--point=-0.02,0.01``, and so for
    ``--direction``: argparse reads a separate value that starts with a
    minus sign as an option unless it is a lone number."""
    out = []
    pending = None
    for word in argv:
        if pending and _SIGNED_VALUE.match(word):
            out[-1] = f"{pending}={word}"
            pending = None
            continue
        out.append(word)
        pending = word if word in ("--point", "--direction") else None
    return out


def main(argv=None) -> int:
    started = time.monotonic()
    try:
        args = build_parser().parse_args(
            _join_signed_values(sys.argv[1:] if argv is None else argv))
        spec = load_spec(args.spec, args.mode)
        if args.command == "evolute":
            report, code = cmd_evolute(spec, args.out or ".", args.grid,
                                       args.workers, args.regularity)
        else:
            if args.out:
                with _output_errors():
                    os.makedirs(args.out, exist_ok=True)
            if args.command == "normalize":
                report, code = cmd_normalize(spec, args.point)
            elif args.command == "invariants":
                report, code = cmd_invariants(spec, args.point,
                                              args.direction)
            else:
                report, code = cmd_verify(spec, args.point, args.seed)
        if args.out or args.command == "evolute":
            path = os.path.join(args.out or ".",
                                f"{args.command}_report.json")
            with _output_errors(), open(path, "w", encoding="utf-8") as fh:
                fh.write(report + "\n")
        print(report)
        print(f"elapsed: {time.monotonic() - started:.3f}s", file=sys.stderr)
        return code
    except SpecFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NonConvexPointError, PatchBoundsError) as exc:
        print(f"geometry error: {exc}", file=sys.stderr)
        return 2
    except AekError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
