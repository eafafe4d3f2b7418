import math
import random
from fractions import Fraction

import pytest

from aek.errors import DegeneratePairError
from aek.frames import (
    SurfaceModel, frame_from_coefficients, random_frame, to_float_frame,
)
from aek.geometry import Plane3, plane_distance
from aek.invariants import transon_plane
from aek.jets import Jet4
from aek.midplanes import (
    check_cubic_term,
    check_quartic_term,
    expand_mid_plane,
    mid_plane,
    mid_plane_equation,
    midplane_limit_probe,
    transon_form,
)
from aek.scalars import FLOAT, RATIONAL

from oracles import (
    envelope_limit_probe,
    envelope_system,
    equation_scale,
    equation_value,
    evaluate_midplane_exact,
    form_graded_part,
    fraction_gauss_solve,
    graded_part,
    linear_form_tables,
    midplane_taylor_oracle,
    sphere_surface,
)


def paraboloid(mode=RATIONAL):
    half = "1/2" if mode == RATIONAL else 0.5
    return SurfaceModel.from_coefficients(
        {(2, 0): half, (0, 2): half}, (-1, 1, -1, 1), mode
    )


# ---------------------------------------------------------------------------
# mid-plane evaluation


def test_paraboloid_symmetric_pair_plane():
    # oracle by hand: N1 = (-t,0,1), N2 = (t,0,1), C = (t,0,0) gives the
    # covector along x only
    s = paraboloid()
    t = Fraction(1, 10)
    plane = mid_plane(s, ((t, 0), (-t, 0))).canonical()
    assert plane == Plane3((1, 0, 0), 0, RATIONAL).canonical()


def test_pair_swap_gives_same_plane():
    rng = random.Random(2)
    fr = random_frame(rng, RATIONAL)
    p1 = (Fraction(1, 9), Fraction(-1, 7))
    p2 = (Fraction(-1, 8), Fraction(1, 11))
    a = mid_plane(fr, (p1, p2)).canonical()
    b = mid_plane(fr, (p2, p1)).canonical()
    assert a == b


def test_sphere_pair_contains_center_and_midpoint():
    s = sphere_surface()
    rng = random.Random(5)
    for _ in range(10):
        p1 = (rng.uniform(-0.04, 0.04), rng.uniform(-0.04, 0.04))
        p2 = (rng.uniform(-0.04, 0.04), rng.uniform(-0.04, 0.04))
        if math.hypot(p1[0] - p2[0], p1[1] - p2[1]) < 1e-3:
            continue
        eq = mid_plane_equation(s, (p1, p2))
        scale = equation_scale(eq)
        # geometric oracle: both tangent planes are equidistant from the
        # sphere center, so the center lies on the mid-plane
        assert abs(equation_value(eq, (0, 0, 1))) < 1e-9 * scale
        m = tuple(
            (a + b) / 2
            for a, b in zip((*p1, s.value(p1)), (*p2, s.value(p2)))
        )
        assert abs(equation_value(eq, m)) < 1e-12 * scale


def test_midplane_contains_midpoint_generally():
    rng = random.Random(7)
    for _ in range(20):
        fr = random_frame(rng, FLOAT)
        p1 = (rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
        p2 = (rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
        if math.hypot(p1[0] - p2[0], p1[1] - p2[1]) < 1e-3:
            continue
        eq = mid_plane_equation(fr, (p1, p2))
        f = fr.normalized
        m = tuple(
            (a + b) / 2
            for a, b in zip(
                (p1[0], p1[1], f.evaluate(p1)),
                (p2[0], p2[1], f.evaluate(p2)),
            )
        )
        assert abs(equation_value(eq, m)) < 1e-12 * max(
            equation_scale(eq), 1e-30)


def test_midplane_contains_tangent_intersection_line():
    rng = random.Random(8)
    checked = 0
    while checked < 20:
        fr = random_frame(rng, FLOAT)
        p1 = (rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
        p2 = (rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
        if math.hypot(p1[0] - p2[0], p1[1] - p2[1]) < 1e-2:
            continue
        f = fr.normalized
        fx, fy = f.partial("x"), f.partial("y")
        planes = []
        for p in (p1, p2):
            gx, gy = fx.evaluate(p), fy.evaluate(p)
            z0 = f.evaluate(p)
            # tangent: z - z0 = gx (x - px) + gy (y - py)
            planes.append((
                (-gx, -gy, 1.0),
                z0 - gx * p[0] - gy * p[1],
            ))
        (n1, d1), (n2, d2) = planes
        direction = (
            n1[1] * n2[2] - n1[2] * n2[1],
            n1[2] * n2[0] - n1[0] * n2[2],
            n1[0] * n2[1] - n1[1] * n2[0],
        )
        if math.hypot(*direction) < 1e-6:
            continue
        # a point on the line: solve the 2x2 system in the best plane pair
        import numpy as np

        a = np.array([n1, n2, direction])
        b = np.array([d1, d2, 0.0])
        point = np.linalg.solve(a, b)
        eq = mid_plane_equation(fr, (p1, p2))
        scale = max(equation_scale(eq), 1e-30)
        for lam in (0.0, 0.7):
            q = point + lam * np.array(direction)
            assert abs(equation_value(eq, tuple(q))) < 1e-10 * scale * max(
                1.0, float(np.linalg.norm(q)))
        checked += 1


def test_coincident_pair_rejected():
    s = paraboloid()
    with pytest.raises(DegeneratePairError):
        mid_plane(s, ((Fraction(1, 5), 0), (Fraction(1, 5), 0)))


# ---------------------------------------------------------------------------
# envelope system rows


def test_row_one_matches_mid_plane():
    rng = random.Random(3)
    fr = random_frame(rng, RATIONAL)
    pair = ((Fraction(1, 7), Fraction(-1, 9)), (Fraction(-1, 6), Fraction(1, 8)))
    system = envelope_system(fr, pair)
    assert system.rows[0] == mid_plane_equation(fr, pair)


def test_rows_match_finite_differences():
    """The closed-form partials agree with central differences of the
    exact functional (Richardson-extrapolated)."""
    rng = random.Random(4)
    fr = random_frame(rng, FLOAT)
    pair = ((0.11, -0.07), (-0.05, 0.09))
    system = envelope_system(fr, pair)
    x_probe = (0.3, -0.2, 0.7)

    def f_value(u1, v1, u2, v2):
        eq = mid_plane_equation(fr, ((u1, v1), (u2, v2)))
        return equation_value(eq, x_probe)

    args = [pair[0][0], pair[0][1], pair[1][0], pair[1][1]]

    def partial(k, h):
        hi = list(args)
        lo = list(args)
        hi[k] += h
        lo[k] -= h
        return (f_value(*hi) - f_value(*lo)) / (2 * h)

    partials = []
    for k in range(4):
        d1 = partial(k, 1e-5)
        d2 = partial(k, 5e-6)
        partials.append((4 * d2 - d1) / 3)
    expected = [
        partials[0] - partials[2],
        partials[1] - partials[3],
        partials[0] + partials[2],
        partials[1] + partials[3],
    ]
    for row, want in zip(system.rows[1:], expected):
        assert equation_value(row, x_probe) == pytest.approx(want, abs=1e-8)


def test_rows_are_exact_derivatives():
    """In rational mode each row equals the derivative, at t = 0, of the
    exact functional at the pair moved by t along the row's coordinate
    combination.  The functional is a polynomial of degree at most 18
    in t (order-5 heights), so 20 offsets recover it exactly; its t^19
    coefficient must come out zero."""
    rng = random.Random(11)
    ts = [Fraction(k, 7) for k in range(-10, 10)]
    vandermonde = [[t ** p for p in range(len(ts))] for t in ts]
    moves = ((1, 0, -1, 0), (0, 1, 0, -1), (1, 0, 1, 0), (0, 1, 0, 1))

    def coord():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12))

    for _ in range(3):
        fr = random_frame(rng, RATIONAL)
        start = [coord() for _ in range(4)]
        system = envelope_system(fr, ((start[0], start[1]),
                                      (start[2], start[3])))
        cov, const = evaluate_midplane_exact(
            fr, ((start[0], start[1]), (start[2], start[3])))
        assert system.rows[0].coeffs == cov and system.rows[0].rhs == -const
        for row, move in zip(system.rows[1:], moves):
            columns = [[] for _ in range(4)]
            for t in ts:
                q = [x + t * d for x, d in zip(start, move)]
                cov, const = evaluate_midplane_exact(
                    fr, ((q[0], q[1]), (q[2], q[3])))
                for col, value in zip(columns, (*cov, -const)):
                    col.append(value)
            polys = fraction_gauss_solve(vandermonde, columns)
            assert all(poly[-1] == 0 for poly in polys)
            assert (*row.coeffs, row.rhs) == tuple(poly[1] for poly in polys)


def test_paraboloid_symmetric_pair_sum_rows():
    """For the paraboloid the pair-sum rows lose their covector part
    entirely; what remains is the constant of the pair-sum form (which
    is why the envelope solutions sit at infinity).  The mid-plane
    functional of the paraboloid has no order-5 remainder, so the rows
    equal twice the form constants exactly at finite separations."""
    s = paraboloid()
    t = Fraction(1, 8)
    du = 2 * t
    rho2 = du * du
    system = envelope_system(s, ((t, 0), (-t, 0)))
    row_u, row_v = system.rows[3], system.rows[4]
    assert all(c == 0 for c in row_u.coeffs)
    assert row_u.rhs == rho2 * du / 2  # 2 * (rho^2 du / 4)
    assert all(c == 0 for c in row_v.coeffs)
    assert row_v.rhs == 0  # dv = 0


def test_difference_rows_scale_to_transon_gradients():
    from aek.invariants import transon_gradients

    fr = frame_from_coefficients(0.3, -0.2, f4=(0.1, 0, 0.05, 0, -0.1),
                                 mode=FLOAT)
    xi, eta = 0.6, 0.8
    g_xi, g_eta = transon_gradients(fr, (xi, eta))
    for t in (1e-3, 1e-4):
        pair = ((t * xi / 2, t * eta / 2), (-t * xi / 2, -t * eta / 2))
        system = envelope_system(fr, pair)
        for row, target in ((system.rows[1], g_xi), (system.rows[2], g_eta)):
            got = tuple(c / (2 * t * t) for c in row.coeffs)
            assert got == pytest.approx(tuple(target), abs=5 * t)


# ---------------------------------------------------------------------------
# exact expansions


def _form_is_zero(form) -> bool:
    return not any(part.nonzero_slots()
                   for part in (form.cx, form.cy, form.cz, form.c1))


def _cubic_check(frame):
    return check_cubic_term(frame, expand_mid_plane(frame))


def _quartic_check(frame):
    return check_quartic_term(frame, expand_mid_plane(frame))


def test_low_order_part_vanishes():
    rng = random.Random(6)
    for _ in range(5):
        fr = random_frame(rng, RATIONAL)
        form = expand_mid_plane(fr)
        for d in (0, 1, 2):
            assert _form_is_zero(form_graded_part(form, d))


def test_cubic_part_coefficients():
    # x-coefficient of the cubic part reads du (du^2 + dv^2)/2
    fr = frame_from_coefficients(Fraction(1, 2), Fraction(-1, 3),
                                 mode=RATIONAL)
    form = expand_mid_plane(fr)
    cx = form.cx
    assert cx.coefficient(3, 0, 0, 0) == Fraction(1, 2)
    assert cx.coefficient(2, 0, 1, 0) == Fraction(-3, 2)
    assert cx.coefficient(1, 2, 0, 0) == Fraction(1, 2)
    assert cx.coefficient(1, 1, 0, 1) == -1
    assert cx.coefficient(0, 2, 1, 0) == Fraction(-1, 2)


def test_quartic_cubic_form_terms_match_display():
    # with only the cubic coefficient a present, the quartic part of the
    # x-coefficient is (5a/2 du^3 + 3a/2 du dv^2) su - (9a/2 du^2 dv
    # + 3a/2 dv^3) sv
    a = Fraction(2, 5)
    fr = frame_from_coefficients(a, 0, mode=RATIONAL)
    form = expand_mid_plane(fr)
    u1, v1, u2, v2 = (Jet4.variable(n, 4, RATIONAL) for n in Jet4.varnames)
    du, dv = u1 - u2, v1 - v2
    su, sv = u1 + u2, v1 + v2
    expected = (
        ((du * du * du).scaled(5 * a / 2)
         + (du * dv * dv).scaled(3 * a / 2)) * su
        - ((du * du * dv).scaled(9 * a / 2)
           + (dv * dv * dv).scaled(3 * a / 2)) * sv
    )
    assert graded_part(form.cx, 4) == graded_part(expected, 4)


def test_expansion_against_brute_force_oracle():
    """Exact interpolation of pointwise evaluations reproduces the jet
    tables coefficient by coefficient, for several random frames."""
    rng = random.Random(11)
    for _ in range(5):
        fr = random_frame(rng, RATIONAL, magnitude=3)
        oracle = midplane_taylor_oracle(fr, 4)
        tables = linear_form_tables(expand_mid_plane(fr))
        assert oracle == tables


def test_float_expansion_tracks_rational():
    """Float and rational expansions run different jet kernels; on the
    same frame they agree to within 1e-12 of the coefficient scale."""
    rng = random.Random(21)
    for _ in range(10):
        fr = random_frame(rng, RATIONAL)
        exact = expand_mid_plane(fr)
        approx = expand_mid_plane(to_float_frame(fr))
        assert approx.mode == FLOAT
        scale = max(1.0, *(getattr(exact, part).max_abs()
                           for part in ("cx", "cy", "cz", "c1")))
        for part in ("cx", "cy", "cz", "c1"):
            e, f = getattr(exact, part), getattr(approx, part)
            worst = max(abs(float(a) - b) for a, b in zip(e.coeffs, f.coeffs))
            assert worst <= 1e-12 * scale, part


def test_cubic_term_check_exact_rational():
    rng = random.Random(12)
    for _ in range(20):
        report = _cubic_check(random_frame(rng, RATIONAL))
        assert report.exact
        assert report.max_abs_residual == 0


def test_cubic_term_check_paraboloid():
    report = _cubic_check(frame_from_coefficients(0, 0, mode=RATIONAL))
    assert report.exact


def test_cubic_term_check_float():
    rng = random.Random(13)
    for _ in range(5):
        report = _cubic_check(random_frame(rng, FLOAT))
        assert report.max_abs_residual < 1e-12


def test_quartic_term_check_exact_rational():
    rng = random.Random(14)
    for _ in range(20):
        report = _quartic_check(random_frame(rng, RATIONAL))
        assert report.exact
        assert report.max_abs_residual == 0


def test_quartic_term_check_no_cubic():
    # pure-quartic frames exercise the f4-only rows of the forms
    rng = random.Random(15)
    for _ in range(5):
        f4 = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 6))
                   for _ in range(5))
        fr = frame_from_coefficients(0, 0, f4=f4, mode=RATIONAL)
        assert _quartic_check(fr).exact


def test_quartic_term_check_float():
    rng = random.Random(16)
    for _ in range(5):
        report = _quartic_check(random_frame(rng, FLOAT))
        assert report.max_abs_residual < 1e-12


def test_transon_form_jet_is_graded_cubic():
    fr = frame_from_coefficients(Fraction(1, 4), Fraction(-2, 7),
                                 mode=RATIONAL)
    g = transon_form(fr).as_jet()
    assert form_graded_part(g, 3).cx == g.cx
    assert not g.c1.nonzero_slots()


def test_transon_form_at_a_direction_is_the_transon_plane():
    """The form and :func:`transon_plane` are two encodings of one
    plane: on rational frames they agree exactly, covector and
    offset."""
    rng = random.Random(19)
    for _ in range(30):
        fr = random_frame(rng, RATIONAL)
        xi = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        eta = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if not xi and not eta:
            continue
        eq = transon_form(fr).at_direction(xi, eta)
        plane = transon_plane(fr, (xi, eta))
        assert eq.coeffs == plane.normal
        assert eq.rhs == plane.offset


# ---------------------------------------------------------------------------
# collapse probes


def test_paraboloid_probe_is_exact():
    fr = frame_from_coefficients(0, 0, mode=FLOAT)
    probe = midplane_limit_probe(fr, (1.0, 0.0), (1e-1, 1e-2, 1e-3, 1e-4))
    assert all(d <= 1e-14 for d in probe.distances)
    assert probe.fitted_order >= 0.9


def test_generic_probe_order_at_least_one():
    rng = random.Random(17)
    for _ in range(5):
        fr = random_frame(rng, FLOAT)
        theta = rng.uniform(0, math.pi)
        probe = midplane_limit_probe(
            fr, (math.cos(theta), math.sin(theta)),
            (1e-1, 1e-2, 1e-3, 1e-4),
        )
        assert probe.fitted_order >= 1.0
        assert all(
            d2 < d1 for d1, d2 in zip(probe.distances, probe.distances[1:])
        ) or probe.fitted_order == math.inf


def test_probe_limit_plane_matches_transon_second_axis():
    # frame with a = 0: the collapse along (0, 1) tends to y + 2b z = 0
    b = 0.37
    fr = frame_from_coefficients(0.0, b, mode=FLOAT)
    probe = midplane_limit_probe(fr, (0.0, 1.0), (1e-2, 1e-3))
    plane = mid_plane(fr, ((0.0, 5e-4), (0.0, -5e-4))).canonical()
    want = Plane3((0.0, 1.0, 2 * b), 0.0, FLOAT)
    assert plane_distance(plane, want) < 1e-5
    assert probe.distances[-1] < 1e-5


def test_envelope_rows_converge_to_limit_forms():
    rng = random.Random(18)
    for _ in range(3):
        fr = random_frame(rng, FLOAT)
        theta = rng.uniform(0, math.pi)
        orders = envelope_limit_probe(
            fr, (math.cos(theta), math.sin(theta)),
            (1e-1, 1e-2, 1e-3),
        )
        for order in orders:
            # slope of a short log-log fit of an O(t) sequence
            assert order >= 0.9
