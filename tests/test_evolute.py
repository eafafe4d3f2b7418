import math
import random
from fractions import Fraction

import pytest

from aek.errors import NoSolutionError
from aek.frames import (
    SurfaceModel,
    frame_from_coefficients,
    normalize_at,
    random_frame,
    rotate_frame,
)
from aek.geometry import AtInfinity, angle_gap
from aek.evolute import (
    direction_sextic,
    discriminant_D,
    evolute_directions,
    pick_derivative,
    pick_invariant,
    regularity_report,
    regularity_rule,
    section_curvature_rate,
    solve_evolute_point,
    trace_evolute,
)
from aek.invariants import su_cone_direction
from aek.scalars import FLOAT, RATIONAL

from oracles import PYTHAGOREAN_DIRECTIONS, sphere_surface

SPHERE_F4 = (Fraction(1, 8), 0, Fraction(1, 4), 0, Fraction(1, 8))


def sphere_frame():
    return frame_from_coefficients(0, 0, f4=SPHERE_F4, mode=RATIONAL)


def cubic_frame(a=1):
    return frame_from_coefficients(a, 0, mode=RATIONAL)


# ---------------------------------------------------------------------------
# the direction sextic


def test_sextic_pure_cubic_case():
    fr = cubic_frame(Fraction(1, 2))
    s = direction_sextic(fr)
    a2 = Fraction(1, 4)
    assert s.q3_coeffs == (0, 3 * a2, 0, -10 * a2, 0, 3 * a2, 0)
    assert s.q4_coeffs == (0, 0, 0, 0, 0, 0, 0)
    assert s.q_coeffs == (0, 36 * a2, 0, -120 * a2, 0, 36 * a2, 0)


def test_sextic_sphere_vanishes():
    s = direction_sextic(sphere_frame())
    assert s.q_coeffs == (0, 0, 0, 0, 0, 0, 0)


def test_sextic_paraboloid_vanishes():
    s = direction_sextic(frame_from_coefficients(0, 0, mode=RATIONAL))
    assert all(c == 0 for c in s.q_coeffs)


def test_sextic_antipodal_evenness():
    rng = random.Random(1)
    for _ in range(10):
        fr = random_frame(rng, RATIONAL)
        s = direction_sextic(fr)
        xi = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        eta = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        assert s.evaluate(xi, eta) == s.evaluate(-xi, -eta)


def test_vertical_direction_value():
    rng = random.Random(2)
    for _ in range(10):
        fr = random_frame(rng, RATIONAL)
        s = direction_sextic(fr)
        assert s.evaluate(0, 1) == -12 * fr.a * fr.b + fr.f4[3]


# ---------------------------------------------------------------------------
# determinant identity


def test_determinant_identity_exact():
    rng = random.Random(3)
    checked = 0
    while checked < 30:
        fr = random_frame(rng, RATIONAL)
        xi = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        eta = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if not xi and not eta:
            continue
        d = discriminant_D(fr, (xi, eta))
        s = direction_sextic(fr)
        assert d == Fraction(3, 32) * (xi * xi + eta * eta) ** 2 \
            * s.evaluate(xi, eta)
        checked += 1


def test_determinant_vanishes_for_sphere():
    fr = sphere_frame()
    for d in PYTHAGOREAN_DIRECTIONS:
        assert discriminant_D(fr, d) == 0


def test_determinant_zero_at_root_direction():
    assert discriminant_D(cubic_frame(), (1, 0)) == 0


# ---------------------------------------------------------------------------
# root finding


def test_six_roots_at_multiples_of_30_degrees():
    roots = evolute_directions(cubic_frame())
    assert not roots.identically_zero
    assert len(roots.roots) == 6
    for k, r in enumerate(sorted(roots.roots, key=lambda r: r.theta)):
        assert r.theta == pytest.approx(k * math.pi / 6, abs=1e-8)
        assert r.simple


def test_sphere_roots_identically_zero():
    roots = evolute_directions(sphere_frame())
    assert roots.identically_zero
    assert roots.roots == ()


def test_random_roots_satisfy_postconditions():
    rng = random.Random(4)
    for _ in range(25):
        fr = random_frame(rng, FLOAT)
        out = evolute_directions(fr)
        if out.identically_zero:
            continue
        assert len(out.roots) <= 6
        s = direction_sextic(fr)
        for r in out.roots:
            assert abs(s.theta_value(r.theta)) <= 1e-8 * out.scale
            assert 0 <= r.theta < math.pi


def test_roots_stable_under_antipodal_flip():
    rng = random.Random(5)
    fr = random_frame(rng, FLOAT)
    flipped = frame_from_coefficients(
        -fr.a, -fr.b, f4=fr.f4,
        f5=(-fr.f50, 0, 0, 0, 0, 0), mode=FLOAT,
    )
    # negating the odd rows realizes q(-xi, -eta); root sets agree
    a_roots = sorted(r.theta for r in evolute_directions(fr).roots)
    b_roots = sorted(r.theta for r in evolute_directions(flipped).roots)
    assert len(a_roots) == len(b_roots)
    for x, y in zip(a_roots, b_roots):
        assert angle_gap(x, y) < 1e-7


# ---------------------------------------------------------------------------
# solving centers


def test_solve_pure_cubic_closed_form():
    a = Fraction(1, 2)
    sol = solve_evolute_point(cubic_frame(a), 0.0)
    want = (1 / (10 * a), 0, -1 / (20 * a * a))
    assert sol.center_local == pytest.approx(tuple(float(c) for c in want),
                                             abs=1e-14)
    assert sol.residuals is not None
    assert max(sol.residuals) < 1e-14
    assert sol.dropped_index is not None
    assert sol.moutard_gap < 1e-14
    assert sol.simple_root


def test_solve_rejects_non_root():
    with pytest.raises(NoSolutionError):
        solve_evolute_point(cubic_frame(), 0.1)


def test_solve_sphere_any_direction():
    for theta in (0.0, 0.7, 1.9, 2.8):
        sol = solve_evolute_point(sphere_frame(), theta)
        assert sol.center_local == pytest.approx((0, 0, 1), abs=1e-12)


def test_solve_paraboloid_at_infinity():
    sol = solve_evolute_point(
        frame_from_coefficients(0, 0, mode=RATIONAL), 0.3
    )
    assert isinstance(sol.center_local, AtInfinity)
    assert isinstance(sol.center_world, AtInfinity)


def test_solutions_match_moutard_center_sweep():
    rng = random.Random(6)
    checked = 0
    while checked < 60:
        fr = random_frame(rng, FLOAT)
        out = evolute_directions(fr)
        if out.identically_zero or not out.roots:
            continue
        best = max(out.roots, key=lambda r: abs(r.q_derivative))
        if not best.simple:
            continue
        try:
            sol = solve_evolute_point(fr, best.theta)
        except Exception:
            continue
        if sol.moutard_gap is None:
            continue
        assert sol.moutard_gap < 1e-10
        scale = max(1.0, max(abs(c) for c in sol.center_local))
        assert max(sol.residuals) < 1e-10 * scale
        checked += 1


# ---------------------------------------------------------------------------
# Pick invariant machinery


def test_pick_invariant_values():
    assert pick_invariant(frame_from_coefficients(0, 0, mode=RATIONAL)) == 0
    assert pick_invariant(sphere_frame()) == 0
    fr = cubic_frame(1)
    assert pick_invariant(fr) == 1
    # rotating so the first axis kills the cubic leaves pure b, and the
    # invariant equals the square of that b
    frf = frame_from_coefficients(1.0, 0.0, mode=FLOAT)
    killed = rotate_frame(frf, math.pi / 6)
    assert killed.a == pytest.approx(0, abs=1e-14)
    assert killed.b ** 2 == pytest.approx(pick_invariant(frf), rel=1e-12)


def test_pick_derivative_sphere_vanishes():
    s = sphere_surface()
    for w in ((1.0, 0.0), (0.6, 0.8)):
        assert abs(pick_derivative(s, (0.01, 0.005), w)) < 1e-8


def test_pick_derivative_position_dependent_cubic():
    s = SurfaceModel.from_coefficients(
        {(2, 0): 0.5, (0, 2): 0.5, (3, 1): 1.0},
        (-0.2, 0.2, -0.2, 0.2), FLOAT,
    )
    b1 = pick_derivative(s, (0.03, 0.02), (1.0, 0.0), h=1e-4)
    b2 = pick_derivative(s, (0.03, 0.02), (1.0, 0.0), h=5e-5)
    assert abs(b1) > 1e-3
    # Richardson control: the two step sizes agree to three digits
    assert b1 == pytest.approx(b2, rel=1e-3)


def test_pick_derivative_rejects_zero_direction():
    s = sphere_surface()
    with pytest.raises(ValueError):
        pick_derivative(s, (0.0, 0.0), (0.0, 0.0))


# ---------------------------------------------------------------------------
# section curvature rate


def test_curvature_rate_trivial_cases():
    assert section_curvature_rate(
        frame_from_coefficients(0, 0, mode=RATIONAL), (1, 0)) == 0
    assert section_curvature_rate(sphere_frame(), (1, 0)) == 0


def test_curvature_rate_pure_f50():
    fr = frame_from_coefficients(0, 0, f5=(1, 0, 0, 0, 0, 0), mode=RATIONAL)
    assert section_curvature_rate(fr, (1, 0)) == 40


def test_curvature_rate_matches_section_jets():
    # dual route: closed form vs jet extraction + planar formula
    from aek.frames import rotate_to
    from aek.invariants import affine_curvature_derivative, section_projection

    rng = random.Random(7)
    for _ in range(10):
        fr = random_frame(rng, RATIONAL)
        for d in ((1, 0), (Fraction(3, 5), Fraction(4, 5))):
            rot, _ = rotate_to(fr, d)
            section = section_projection(rot, 6 * rot.b)
            assert section_curvature_rate(fr, d) == \
                affine_curvature_derivative(section)


# ---------------------------------------------------------------------------
# regularity diagnostics


def regular_fixture():
    # apolar cubic + u^4 + u^5: mu' != 0 at the origin, and the quartic
    # term makes the cubic coefficient drift at first order (the pure
    # quintic alone leaves the Pick invariant critical: the u^5 shift
    # and the Hessian rescale cancel)
    return SurfaceModel.from_coefficients(
        {(2, 0): 0.5, (0, 2): 0.5, (3, 0): 0.3, (1, 2): -0.9,
         (4, 0): 0.2, (5, 0): 1.0},
        (-0.1, 0.1, -0.1, 0.1), FLOAT,
    )


def test_regularity_flags_good_branch():
    report = regularity_report(regular_fixture(), (0.0, 0.0), 0.0, h=5e-5)
    assert report.simple_root
    assert report.mu_prime == pytest.approx(
        40 + 320 * 0.3 ** 3 - 240 * 0.3 * 0.2, rel=1e-6)
    assert report.mu_prime_nonzero
    assert report.pick_rate_nonzero
    assert report.regular


def test_regularity_rule_needs_simple_root():
    assert regularity_rule(True, 1.0, (float("nan"), 1.0)) == (
        True, True, True)
    assert regularity_rule(False, 1.0, (1.0,)) == (True, True, False)
    assert regularity_rule(True, 1e-10, (1.0,)) == (True, False, False)
    assert regularity_rule(True, 1.0, (float("nan"), 1e-7)) == (
        False, True, False)


def test_regularity_sphere_fails_everything():
    report = regularity_report(sphere_surface(), (0.01, 0.0), 0.0)
    assert not report.simple_root
    assert abs(report.mu_prime) < 1e-9
    assert not report.regular


def test_paraboloid_no_solution_upstream():
    s = SurfaceModel.from_coefficients(
        {(2, 0): 0.5, (0, 2): 0.5}, (-1, 1, -1, 1), FLOAT,
    )
    fr = normalize_at(s, (0.1, -0.2))
    assert evolute_directions(fr).identically_zero
    sol = solve_evolute_point(fr, 0.0)
    assert isinstance(sol.center_local, AtInfinity)


# ---------------------------------------------------------------------------
# tracing


def test_trace_sphere_single_degenerate_branch():
    res = trace_evolute(sphere_surface(), grid=(3, 3))
    assert not res.failures
    assert all(s.status == "degenerate" for s in res.samples)
    assert len(res.branches) == 1
    branch = res.branches[0]
    assert branch.degenerate
    assert len(branch.samples) == 9
    for bs in branch.samples:
        assert bs.solution.center_world == pytest.approx((0, 0, 1),
                                                         abs=1e-10)


def test_trace_six_branch_seeds_at_center():
    s = SurfaceModel.from_coefficients(
        {(2, 0): 0.5, (0, 2): 0.5, (3, 0): 1.0, (1, 2): -3.0},
        (-0.1, 0.1, -0.1, 0.1), FLOAT,
    )
    res = trace_evolute(s, grid=(5, 5))
    center = next(sp for sp in res.samples if sp.index == (2, 2))
    assert center.status == "ok"
    thetas = sorted(sol.theta for sol in center.solutions)
    assert len(thetas) == 6
    for k, th in enumerate(thetas):
        assert th == pytest.approx(k * math.pi / 6, abs=1e-8)
    for b in res.branches:
        assert b.max_link_gap < 0.2


def test_trace_collects_nonconvex_corner():
    s = SurfaceModel.from_coefficients(
        {(2, 0): 0.5, (0, 2): 0.5, (3, 0): 0.9},
        (-0.2, 0.2, -0.2, 0.2), FLOAT,
    )
    res = trace_evolute(s, grid=(5, 5))
    statuses = {sp.index: sp.status for sp in res.samples}
    assert statuses[(0, 0)] == "non_convex"
    assert any(st == "ok" for st in statuses.values())
    assert len(res.failures) == 5  # the whole u = -0.2 column
    assert res.branches  # tracing continued


def test_trace_parallel_matches_serial():
    s = SurfaceModel.from_coefficients(
        {(2, 0): 0.5, (0, 2): 0.5, (3, 0): 1.0, (1, 2): -3.0},
        (-0.1, 0.1, -0.1, 0.1), FLOAT,
    )
    serial = trace_evolute(s, grid=(9, 9), workers=1)
    parallel = trace_evolute(s, grid=(9, 9), workers=2)
    assert len(serial.samples) == len(parallel.samples)
    for a, b in zip(serial.samples, parallel.samples):
        assert a.index == b.index and a.status == b.status
        assert len(a.solutions) == len(b.solutions)
        for x, y in zip(a.solutions, b.solutions):
            assert x.theta == y.theta
            assert x.center_world == y.center_world
    assert (serial.workers, parallel.workers) == (1, 2)


def test_compute_sample_normalizes_and_finds_roots_once(monkeypatch):
    import aek.evolute as evolute

    s = SurfaceModel.from_coefficients(
        {(2, 0): 0.5, (0, 2): 0.5, (3, 0): 1.0, (1, 2): -3.0},
        (-0.1, 0.1, -0.1, 0.1), FLOAT,
    )
    calls = {}
    for name in ("normalize_at", "evolute_directions"):
        def counted(*args, _name=name, _fn=getattr(evolute, name), **kw):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kw)
        monkeypatch.setattr(evolute, name, counted)
    # the base point once, plus two stencil points per Pick direction
    for picks, normalizations in ((2, 5), (0, 1)):
        calls.clear()
        sample = evolute.compute_sample(s, (0, 0), (0.02, -0.01),
                                        pick_directions=picks)
        assert sample.status == "ok" and len(sample.solutions) > 1
        assert calls == {"normalize_at": normalizations,
                         "evolute_directions": 1}


# ---------------------------------------------------------------------------
# branch velocity (tangency of the traced branch)


def _branch_center(surface, point, theta_near):
    frame = normalize_at(surface, point)
    roots = evolute_directions(frame)
    best = min(roots.roots, key=lambda r: angle_gap(r.theta, theta_near))
    sol = solve_evolute_point(frame, best.theta)
    return sol.center_world, best.theta


def _branch_velocity(surface, p0, w, theta_near, h):
    cp, _ = _branch_center(surface, (p0[0] + h * w[0], p0[1] + h * w[1]),
                           theta_near)
    cm, _ = _branch_center(surface, (p0[0] - h * w[0], p0[1] - h * w[1]),
                           theta_near)
    return tuple((a - b) / (2 * h) for a, b in zip(cp, cm))


def test_branch_velocity_along_direction_follows_cone_ruling():
    # stepping along the branch direction with mu' != 0: the velocity
    # aligns with the cone ruling of that direction
    surface = regular_fixture()
    frame = normalize_at(surface, (0.0, 0.0))
    s_dir = su_cone_direction(frame, (1.0, 0.0))
    v = _branch_velocity(surface, (0.0, 0.0), (1.0, 0.0), 0.0, 1e-4)
    dot = sum(a * b for a, b in zip(v, s_dir))
    cross = (
        v[1] * s_dir[2] - v[2] * s_dir[1],
        v[2] * s_dir[0] - v[0] * s_dir[2],
        v[0] * s_dir[1] - v[1] * s_dir[0],
    )
    angle = math.atan2(math.hypot(*cross), abs(dot))
    assert math.hypot(*v) > 1e-6  # nonzero velocity
    assert angle < 1e-3


def _killing_angle(kappa: complex, ref: float) -> float:
    ang = math.atan2(kappa.imag, kappa.real) if kappa != 0 else ref
    delta = (ang - ref + math.pi) % (2 * math.pi) - math.pi
    return (ref + delta - math.pi / 2) / 3


def _canonical_center(surface, ref_phase, point, theta_near):
    """Branch center in the cubic-killing, volume-1 local frame.

    This is the frame family of the regularity analysis: stepping the
    base point, velocities of these coordinates subtract the base-point
    and frame drift that dominate the ambient center velocity.
    """
    from aek.matutil import det3

    fr = normalize_at(surface, point)
    psi = _killing_angle(complex(float(fr.a), float(fr.b)), ref_phase)
    frk = rotate_frame(fr, psi)
    roots = evolute_directions(frk)
    best = min(roots.roots, key=lambda r: angle_gap(r.theta, theta_near))
    sol = solve_evolute_point(frk, best.theta)
    x, y, z = sol.center_local
    m = det3(frk.world_from_local.linear) ** (-0.5)
    sm = math.sqrt(m)
    return (x / sm, y / sm, z / m), frk, m


def test_branch_velocity_transverse_leaves_transon_plane():
    """Stepping transversally with a nonzero pick rate, with the branch
    direction not a cubic zero: the moving-frame velocity escapes the
    Transon plane, by exactly the pick-rate term (threshold calibrated
    by the two-step Richardson error estimate).

    The ambient velocity would not do: the dominant evolute sweep and
    the frame drift cancel the escape term there, so the statement is
    about the canonical (cubic-killing, unimodular) frame family.
    """
    surface = regular_fixture()
    fr0 = normalize_at(surface, (0.0, 0.0))
    ref = math.atan2(float(fr0.b), float(fr0.a))
    psi0 = _killing_angle(complex(float(fr0.a), float(fr0.b)), ref)
    frk0 = rotate_frame(fr0, psi0)
    roots0 = evolute_directions(frk0)
    theta_k = min(
        roots0.roots, key=lambda r: angle_gap(r.theta, (-psi0) % math.pi)
    ).theta
    xi, eta = math.cos(theta_k), math.sin(theta_k)
    cubic_factor = eta ** 3 - 3 * eta * xi * xi
    assert abs(cubic_factor) > 1e-3  # the branch direction is no cubic zero

    w = (math.sqrt(0.5), math.sqrt(0.5))
    b_rate = pick_derivative(surface, (0.0, 0.0), w, h=5e-5)
    assert abs(b_rate) > 1e-3

    X0, _, m0 = _canonical_center(surface, ref, (0.0, 0.0), theta_k)
    b_c = math.sqrt(m0) * float(frk0.b)

    def velocity(h):
        xp, _, _ = _canonical_center(
            surface, ref, (h * w[0], h * w[1]), theta_k)
        xm, _, _ = _canonical_center(
            surface, ref, (-h * w[0], -h * w[1]), theta_k)
        return tuple((a - b) / (2 * h) for a, b in zip(xp, xm))

    v1 = velocity(1e-4)
    v2 = velocity(5e-5)
    fd_error = max(abs(a - b) for a, b in zip(v1, v2)) / 3
    g_cov = (
        xi * (xi * xi + eta * eta) / 2,
        eta * (xi * xi + eta * eta) / 2,
        b_c * cubic_factor,
    )
    value = sum(n * c for n, c in zip(g_cov, v2))
    threshold = 10 * fd_error * max(abs(n) for n in g_cov)
    assert abs(value) > threshold
    assert abs(value) > 1e-3 * max(abs(n) for n in g_cov) * math.hypot(*v2)
    # the escape equals the pick-rate term of the derivative identity
    # (the canonical-frame b rate differs from the chart one only by a
    # gauge factor whose drift is second order here)
    predicted = -b_rate * math.sqrt(m0) * cubic_factor * X0[2]
    assert value == pytest.approx(predicted, abs=50 * fd_error)


def test_double_root_flagged_multiple():
    # f31 = 0 and 2 f40 = f22 remove the xi^6 and xi^5 eta terms, so the
    # sextic carries an eta^2 factor: theta = 0 is a double root
    fr = frame_from_coefficients(
        0, 0,
        f4=(Fraction(1, 2), 0, 1, Fraction(-1, 3), 0),
        mode=RATIONAL,
    )
    s = direction_sextic(fr)
    assert s.q_coeffs[0] == 0 and s.q_coeffs[1] == 0
    roots = evolute_directions(fr)
    zero_roots = [r for r in roots.roots if angle_gap(r.theta, 0.0) < 1e-6]
    assert zero_roots and not zero_roots[0].simple


def test_regularity_report_accepts_bare_frame():
    fr = frame_from_coefficients(1.0, 0.0, f5=(1, 0, 0, 0, 0, 0),
                                 mode=FLOAT)
    report = regularity_report(fr, (0.0, 0.0), 0.0)
    assert report.simple_root
    assert report.mu_prime_nonzero
    assert report.pick_rates == ()
    assert not report.regular  # pick rate unverifiable without a surface


def test_determinant_constant_is_recorded_convention():
    from aek.evolute import D_IDENTITY_CONSTANT

    num, den = D_IDENTITY_CONSTANT
    fr = frame_from_coefficients(
        Fraction(1, 2), Fraction(1, 3),
        f4=(Fraction(1, 7), 0, Fraction(-1, 5), 0, Fraction(1, 9)),
        mode=RATIONAL,
    )
    xi, eta = Fraction(2), Fraction(-3)
    d = discriminant_D(fr, (xi, eta))
    q = direction_sextic(fr).evaluate(xi, eta)
    assert d == Fraction(num, den) * (xi * xi + eta * eta) ** 2 * q
