"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
all); assertions carry the same bounds, so the suite is the gate.
"""

import math
import random
import time
from fractions import Fraction

from aek.frames import (
    SurfaceModel,
    frame_from_coefficients,
    normalize_at,
    pull_back,
    random_frame,
)
from aek.geometry import AtInfinity
from aek.evolute import (
    compute_sample,
    direction_sextic,
    discriminant_D,
    evolute_directions,
    solve_evolute_point,
)
from aek.invariants import (
    SectionJet,
    affine_curvature,
    affine_curvature_derivative,
    center_of_affine_curvature,
    moutard_center,
    su_cone_direction,
)
from aek.midplanes import check_cubic_term, check_quartic_term, \
    expand_mid_plane, midplane_limit_probe
from aek.scalars import FLOAT, RATIONAL

from oracles import (
    chart_preserving_unimodular,
    map_chart_point,
    moutard_gap,
    mu_prime_oracle,
    sphere_surface,
    transform_graph_surface,
)


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_expansion_identities_exact():
    """Order-3 and order-4 expansion residuals exactly zero, 20 random
    rational frames, under 10 seconds."""
    rng = random.Random(42)
    started = time.monotonic()
    exact = True
    for _ in range(20):
        fr = random_frame(rng, RATIONAL)
        expansion = expand_mid_plane(fr)
        r3 = check_cubic_term(fr, expansion)
        r4 = check_quartic_term(fr, expansion)
        exact = exact and r3.exact and r4.exact \
            and r3.max_abs_residual == 0 and r4.max_abs_residual == 0
    elapsed = time.monotonic() - started
    report(
        "criterion-1 expansion identities exact",
        exact and elapsed < 10.0,
        f"exact={exact}, elapsed={elapsed:.2f}s (< 10s)",
    )


def test_criterion_2_cone_ruling_closed_form():
    """Cone ruling at (1,0) equals (-2 f30, -2 f21, 1) exactly on
    symbolic-rational frames."""
    rng = random.Random(7)
    ok = True
    for _ in range(50):
        fr = random_frame(rng, RATIONAL)
        ok = ok and su_cone_direction(fr, (1, 0)) == \
            (-2 * fr.a, 6 * fr.b, 1)
    report("criterion-2 cone ruling closed form", ok,
           "50 symbolic-rational frames, exact equality")


def test_criterion_3_envelope_solution_is_moutard_center():
    """Envelope-limit solutions equal Moutard centers to 1e-10 relative
    on 100 random frames with a solvable direction, under 5 seconds."""
    rng = random.Random(11)
    started = time.monotonic()
    worst = 0.0
    solved = 0
    while solved < 100:
        fr = random_frame(rng, FLOAT)
        roots = evolute_directions(fr)
        if roots.identically_zero or not roots.roots:
            continue
        best = max(roots.roots, key=lambda r: abs(r.q_derivative))
        if not best.simple:
            continue
        try:
            center = solve_evolute_point(fr, best.theta)
        except Exception:
            continue
        gap = moutard_gap(fr, best.theta, center)
        if gap is None:
            continue
        worst = max(worst, gap)
        solved += 1
    elapsed = time.monotonic() - started
    report(
        "criterion-3 envelope solution = Moutard center",
        worst < 1e-10 and elapsed < 5.0,
        f"max relative gap {worst:.2e} (< 1e-10), "
        f"elapsed={elapsed:.2f}s (< 5s)",
    )


def test_criterion_4_determinant_identity():
    """Extended determinant equals +(3/32)(xi^2+eta^2)^2 q exactly on
    100 random rational frames and directions (sign convention: +)."""
    rng = random.Random(23)
    checked = 0
    ok = True
    while checked < 100:
        fr = random_frame(rng, RATIONAL)
        xi = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        eta = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        if not xi and not eta:
            continue
        d = discriminant_D(fr, (xi, eta))
        q = direction_sextic(fr).evaluate(xi, eta)
        ok = ok and d == Fraction(3, 32) * (xi * xi + eta * eta) ** 2 * q
        checked += 1
    report("criterion-4 determinant identity", ok,
           "100 rational frames/directions, exact, sign +3/32")


def test_criterion_5_six_root_example():
    """The pure-cubic example has exactly six root directions at
    multiples of pi/6, within 1e-8."""
    fr = frame_from_coefficients(1, 0, mode=RATIONAL)
    roots = evolute_directions(fr)
    thetas = sorted(r.theta for r in roots.roots)
    ok = (not roots.identically_zero and len(thetas) == 6 and all(
        abs(th - k * math.pi / 6) < 1e-8 for k, th in enumerate(thetas)
    ))
    report("criterion-5 six roots at k*pi/6", ok,
           f"roots={[round(t, 10) for t in thetas]}")


def test_criterion_6_midplane_collapse_order():
    """Mid-plane collapse onto the Transon plane with fitted order
    >= 0.9, 10 random frames and directions, t down to 1e-4."""
    rng = random.Random(31)
    orders = []
    for _ in range(10):
        fr = random_frame(rng, FLOAT)
        theta = rng.uniform(0, math.pi)
        probe = midplane_limit_probe(
            fr, (math.cos(theta), math.sin(theta)),
            (1e-1, 1e-2, 1e-3, 1e-4),
        )
        decreasing = all(
            b < a for a, b in zip(probe.distances, probe.distances[1:])
        )
        assert decreasing or probe.fitted_order == math.inf
        orders.append(probe.fitted_order)
    ok = min(orders) >= 0.9
    report("criterion-6 mid-plane collapse order", ok,
           f"min fitted order {min(orders):.3f} (>= 0.9)")


def test_criterion_7_curvature_center_equals_moutard():
    """Center of affine curvature = Moutard center: 1e-10 relative on
    100 random frames/directions, and symbolically on 5 rational
    fixtures (both equal the displayed closed form)."""
    rng = random.Random(43)
    worst = 0.0
    checked = 0
    while checked < 100:
        fr = random_frame(rng, FLOAT)
        theta = rng.uniform(0, math.pi)
        t = (math.cos(theta), math.sin(theta))
        mc = moutard_center(fr, t)
        cc = center_of_affine_curvature(fr, t)
        if isinstance(mc, AtInfinity) or isinstance(cc, AtInfinity):
            continue
        scale = max(1.0, max(abs(c) for c in mc))
        worst = max(
            worst, max(abs(p - q) for p, q in zip(mc, cc)) / scale
        )
        checked += 1

    fixtures = [
        frame_from_coefficients(
            Fraction(1, 3), Fraction(-1, 2),
            f4=(Fraction(1, 5), Fraction(1, 7), 0, Fraction(2, 3), 0),
            mode=RATIONAL),
        frame_from_coefficients(Fraction(2, 7), 0, mode=RATIONAL),
        frame_from_coefficients(0, Fraction(3, 4),
                                f4=(1, 0, 0, 0, 1), mode=RATIONAL),
        frame_from_coefficients(Fraction(-1, 2), Fraction(1, 6),
                                f4=(0, Fraction(1, 2), 0, 0, 0),
                                mode=RATIONAL),
        frame_from_coefficients(Fraction(5, 8), Fraction(-2, 9),
                                f4=(Fraction(1, 2), 0, Fraction(-1, 3),
                                    0, Fraction(1, 4)),
                                mode=RATIONAL),
    ]
    symbolic_ok = True
    for fr in fixtures:
        f30, f21, f40 = fr.a, -3 * fr.b, fr.f4[0]
        den = 4 * (2 * f40 - 5 * f30 * f30 - f21 * f21)
        want = tuple(c / den for c in (-2 * f30, -2 * f21, 1))
        symbolic_ok = symbolic_ok and \
            moutard_center(fr, (1, 0)) == want and \
            center_of_affine_curvature(fr, (1, 0)) == want
    report(
        "criterion-7 curvature center = Moutard center",
        worst < 1e-10 and symbolic_ok,
        f"max relative gap {worst:.2e} (< 1e-10), "
        f"5 rational fixtures exact={symbolic_ok}",
    )


def test_criterion_8_planar_curvature_formulas():
    """Unit-circle curvature 1 (1e-12); conic jets have zero curvature
    rate (1e-10); the rate matches the numeric arc-length oracle to
    1e-6 on 10 random quintic jets."""
    circle = SectionJet(0, 3, 0, RATIONAL)
    ok_circle = abs(float(affine_curvature(circle)) - 1.0) < 1e-12

    conics = [
        SectionJet(0, 0, 0, RATIONAL),              # parabola
        SectionJet(0, 3, 0, RATIONAL),              # circle
        SectionJet(0, Fraction(7, 3), 0, RATIONAL), # ellipse jet
    ]
    ok_conics = all(
        abs(float(affine_curvature_derivative(s))) < 1e-10 for s in conics
    )

    rng = random.Random(47)
    worst = 0.0
    for _ in range(10):
        a3, a4, a5 = (rng.uniform(-1, 1) for _ in range(3))
        got = float(affine_curvature_derivative(
            SectionJet(a3, a4, a5, FLOAT)))
        worst = max(worst, abs(got - mu_prime_oracle(a3, a4, a5)))
    report(
        "criterion-8 planar curvature formulas",
        ok_circle and ok_conics and worst < 1e-6,
        f"circle mu=1 exact, conic rates zero, "
        f"oracle gap {worst:.2e} (< 1e-6)",
    )


def test_criterion_9_degenerate_fixtures():
    """Sphere: direction sextic identically zero and every Moutard
    center equals the world center to 1e-10; paraboloid: centers at
    infinity everywhere."""
    sphere_exact = frame_from_coefficients(
        0, 0, f4=(Fraction(1, 8), 0, Fraction(1, 4), 0, Fraction(1, 8)),
        mode=RATIONAL,
    )
    q_zero = all(c == 0 for c in direction_sextic(sphere_exact).q_coeffs)

    surf = sphere_surface()
    worst = 0.0
    for p0 in ((0.0, 0.0), (0.03, -0.02), (-0.04, 0.01), (0.02, 0.04)):
        fr = normalize_at(surf, p0)
        assert evolute_directions(fr).identically_zero
        for theta in (0.0, 0.5, 1.1, 1.7, 2.4, 3.0):
            t = (math.cos(theta), math.sin(theta))
            center = pull_back(fr, moutard_center(fr, t))
            worst = max(
                worst,
                max(abs(c - w) for c, w in zip(center, (0.0, 0.0, 1.0))),
            )
    sphere_ok = q_zero and worst < 1e-10

    par = SurfaceModel.from_coefficients(
        {(2, 0): 0.5, (0, 2): 0.5}, (-1, 1, -1, 1), FLOAT,
    )
    par_ok = True
    for p0 in ((0.0, 0.0), (0.3, -0.2), (-0.5, 0.4)):
        fr = normalize_at(par, p0)
        for theta in (0.0, 0.9, 2.2):
            mc = moutard_center(fr, (math.cos(theta), math.sin(theta)))
            center = solve_evolute_point(fr, theta)
            par_ok = par_ok and isinstance(mc, AtInfinity) \
                and isinstance(center, AtInfinity)
    report(
        "criterion-9 degenerate fixtures",
        sphere_ok and par_ok,
        f"sphere q==0 and center gap {worst:.2e} (< 1e-10); "
        f"paraboloid at infinity everywhere={par_ok}",
    )


def _finite_world_centers(surface, points) -> dict:
    """The finite world centers of the evolute sample at each
    ((i, j), (u, v)) of ``points``, by index."""
    return {idx: [sol.center_world
                  for sol in compute_sample(surface, idx, p).solutions
                  if not isinstance(sol.center_world, AtInfinity)]
            for idx, p in points}


def test_criterion_10_affine_covariance_of_trace():
    """The evolute samples commute with 5 random (graph-compatible)
    unimodular affine maps to 1e-8 pointwise on a 9 x 9 grid, under
    60 seconds."""
    rng = random.Random(53)
    started = time.monotonic()
    # the quartic term keeps every Moutard denominator bounded away
    # from zero on the grid (max center magnitude ~28), so the absolute
    # pointwise tolerance is meaningful at every sample
    base = SurfaceModel.from_coefficients(
        {(2, 0): 0.5, (0, 2): 0.5, (3, 0): 0.3, (1, 2): -0.9, (4, 0): 0.45},
        (-0.12, 0.12, -0.12, 0.12), FLOAT,
    )
    nu = nv = 9
    us = [-0.12 + 0.24 * i / (nu - 1) for i in range(nu)]
    vs = [-0.12 + 0.24 * j / (nv - 1) for j in range(nv)]
    base_points = [((i, j), (u, v))
                   for i, u in enumerate(us) for j, v in enumerate(vs)]
    base_centers = _finite_world_centers(base, base_points)

    worst = 0.0
    for _ in range(5):
        amap = chart_preserving_unimodular(rng)
        moved = transform_graph_surface(base, amap)
        moved_points = [
            (idx, map_chart_point(amap, p)) for idx, p in base_points
        ]
        moved_centers = _finite_world_centers(moved, moved_points)
        for idx, centers in base_centers.items():
            got = moved_centers[idx]
            assert len(got) == len(centers), (idx, len(got), len(centers))
            for c in centers:
                want = amap.apply_point(c)
                gap = min(
                    max(abs(a - b) for a, b in zip(want, g)) for g in got
                )
                worst = max(worst, gap)
    elapsed = time.monotonic() - started
    report(
        "criterion-10 affine covariance of the trace",
        worst < 1e-8 and elapsed < 60.0,
        f"max pointwise gap {worst:.2e} (< 1e-8), "
        f"elapsed={elapsed:.1f}s (< 60s)",
    )
