"""Correctness checks on the outputs of one ``aek`` command.

Every check returns a list of error strings; an empty list means the
output passed.  The checks read the files the command wrote and test
properties the method must have, computed apart from the command's own
report where the package offers a second route:

* on the sphere every evolute center is the sphere's center;
* on ``cubic_six`` the origin has exactly six directions, k*pi/6 after
  the chart rotation; no point has more than six; spot-checked centers
  agree with ``center_of_affine_curvature``, which reaches the center
  through the planar section jet instead of the envelope-limit solve;
* rational ``verify`` reports exact zeros, and a seeded spot check
  recomputes the determinant identity with ``sympy``.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from fractions import Fraction

#: the sphere spec is the unit sphere graph z = 1 - sqrt(1 - r^2)
SPHERE_CENTER = (0.0, 0.0, 1.0)
#: world-coordinate distance allowed from the sphere's center
SPHERE_TOL = 1e-13
#: relative gap allowed between the solved and the curvature center
CENTER_TOL = 1e-9
#: angle gap allowed at the origin of cubic_six
ORIGIN_ANGLE_TOL = 1e-9
CENTER_SPOT_ROWS = 8


def read_rows(csv_path: str) -> list[dict]:
    with open(csv_path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def read_report(out_dir: str, command: str) -> dict:
    with open(os.path.join(out_dir, f"{command}_report.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def _point(row):
    return float(row["u"]), float(row["v"])


def _center(row):
    return float(row["x"]), float(row["y"]), float(row["z"])


def check_evolute_report(code: int, report: dict, rows: list) -> list:
    errors = []
    if code != 0:
        errors.append(f"exit code {code}")
    if report["results"]["failures"]:
        errors.append(f"{len(report['results']['failures'])} sample "
                      "failures in the report")
    if report["results"]["csv_rows"] != len(rows):
        errors.append(f"report says {report['results']['csv_rows']} CSV "
                      f"rows, the file has {len(rows)}")
    per_point = {}
    for row in rows:
        key = (row["u"], row["v"])
        per_point[key] = per_point.get(key, 0) + 1
    crowded = [k for k, n in per_point.items() if n > 6]
    if crowded:
        errors.append(f"{len(crowded)} points with more than six roots, "
                      f"first at {crowded[0]}")
    return errors


def check_origin_directions(rows: list, rotation: float) -> list:
    """The six-root example: directions rotation + k*pi/6 at the origin."""
    thetas = [float(r["theta"]) for r in rows
              if max(abs(c) for c in _point(r)) < 1e-12]
    if len(thetas) != 6:
        return [f"origin has {len(thetas)} directions, expected 6"]
    errors = []
    for k in range(6):
        want = (rotation + k * math.pi / 6) % math.pi
        gap = min(abs((t - want + math.pi / 2) % math.pi - math.pi / 2)
                  for t in thetas)
        if gap > ORIGIN_ANGLE_TOL:
            errors.append(f"no origin direction at {want:.12f} "
                          f"(nearest is {gap:.3e} away)")
    return errors


def check_curvature_centers(surface, rows: list, rng: random.Random,
                            count: int = CENTER_SPOT_ROWS) -> list:
    """Solved centers against the center of affine curvature."""
    from aek.frames import normalize_at, pull_back
    from aek.geometry import AtInfinity
    from aek.invariants import center_of_affine_curvature

    errors = []
    for row in rng.sample(rows, min(count, len(rows))):
        theta = float(row["theta"])
        frame = normalize_at(surface, _point(row))
        local = center_of_affine_curvature(
            frame, (math.cos(theta), math.sin(theta)))
        if isinstance(local, AtInfinity):
            errors.append(f"curvature center at infinity for row {row}")
            continue
        want = pull_back(frame, local)
        got = _center(row)
        scale = max(1.0, max(abs(c) for c in want))
        gap = max(abs(p - q) for p, q in zip(got, want)) / scale
        if not gap <= CENTER_TOL:
            errors.append(f"center {got} differs from the curvature center "
                          f"{tuple(want)} by {gap:.3e} at "
                          f"({row['u']}, {row['v']})")
    return errors


def check_sphere_centers(rows: list, samples: int) -> list:
    errors = []
    if len(rows) != samples:
        errors.append(f"{len(rows)} centers for {samples} samples")
    worst = max((max(abs(p - q) for p, q in zip(_center(r), SPHERE_CENTER))
                 for r in rows), default=0.0)
    if not worst <= SPHERE_TOL:
        errors.append(f"a center is {worst:.3e} from the sphere's center")
    return errors


def check_verify_report(code: int, report: dict) -> list:
    errors = []
    if code != 0:
        errors.append(f"exit code {code}")
    results = report["results"]
    if results["all_passed"] is not True:
        failed = [c["name"] for c in results["checks"] if not c["passed"]]
        errors.append(f"verify checks failed: {failed}")
    checks = {c["name"]: c for c in results["checks"]}
    for name in ("expansion-cubic", "expansion-quartic"):
        residual = checks[name]["detail"]["max_residual"]
        if residual != 0:
            errors.append(f"{name} residual {residual!r} is not an exact "
                          "zero")
    if checks["determinant-identity"]["detail"]["exact"] is not True:
        errors.append("determinant identity is not exact")
    return errors


def spot_check_determinant(seed: int) -> list:
    """Recompute the determinant identity with sympy at a seeded frame.

    The extended envelope-limit matrix (rows G_xi, G_eta, form_u,
    form_v, right-hand sides last) has determinant
    (3/32) (xi^2 + eta^2)^2 q(xi, eta) for the direction sextic q.
    """
    import sympy

    from aek.evolute import direction_sextic
    from aek.frames import random_frame
    from aek.invariants import transon_gradients
    from aek.midplanes import pair_sum_forms
    from aek.scalars import RATIONAL

    rng = random.Random(seed)
    frame = random_frame(rng, RATIONAL)
    xi = Fraction(rng.randint(1, 9), rng.randint(1, 5))
    eta = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    g_xi, g_eta = transon_gradients(frame, (xi, eta))
    form_u, form_v = pair_sum_forms(frame)
    r3 = form_u.at_direction(xi, eta)
    r4 = form_v.at_direction(xi, eta)
    rows = [(*g_xi, 0), (*g_eta, 0), (*r3.coeffs, r3.rhs),
            (*r4.coeffs, r4.rhs)]
    det = sympy.Matrix([[sympy.Rational(c.numerator, c.denominator)
                         if isinstance(c, Fraction) else sympy.Integer(c)
                         for c in row] for row in rows]).det()
    q = direction_sextic(frame).evaluate(xi, eta)
    want = Fraction(3, 32) * (xi * xi + eta * eta) ** 2 * q
    if det != sympy.Rational(want.numerator, want.denominator):
        return [f"sympy determinant {det} != (3/32)|T|^4 q = {want} "
                f"(spot-check seed {seed})"]
    return []
