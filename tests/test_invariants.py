import math
import random
from fractions import Fraction

import pytest

from aek.errors import DegenerateConeError
from aek.frames import (
    frame_from_coefficients,
    random_frame,
    rotate_frame,
    to_float_frame,
)
from aek.geometry import AtInfinity, Plane3
from aek.invariants import (
    SectionJet,
    affine_curvature,
    affine_curvature_derivative,
    center_of_affine_curvature,
    moutard_center,
    moutard_quadric,
    section_projection,
    su_cone_direction,
    transon_gradients,
    transon_plane,
)
from aek.jets import Jet2, substitute
from aek.scalars import FLOAT, RATIONAL

from oracles import (
    AXIS_TURNS,
    PYTHAGOREAN_DIRECTIONS,
    mu_prime_oracle,
    quadric_value,
    section_by_substitution,
)

SPHERE_F4 = (Fraction(1, 8), 0, Fraction(1, 4), 0, Fraction(1, 8))


def sphere_frame():
    return frame_from_coefficients(0, 0, f4=SPHERE_F4, mode=RATIONAL)


def generic_frame():
    return frame_from_coefficients(
        Fraction(1, 3), Fraction(-1, 2),
        f4=(Fraction(1, 5), Fraction(1, 7), 0, Fraction(2, 3), Fraction(-1, 4)),
        f5=(Fraction(2, 9), 0, Fraction(-1, 3), 0, 0, Fraction(1, 2)),
        mode=RATIONAL,
    )


def f30_f21(fr):
    """The coefficients of x^3 and x^2 y of the frame's jet: a and -3b."""
    return fr.normalized.coefficient(3, 0), fr.normalized.coefficient(2, 1)


# ---------------------------------------------------------------------------
# planar sections


def test_paraboloid_section_is_parabola():
    fr = frame_from_coefficients(0, 0, mode=RATIONAL)
    sec = section_projection(fr, 0)
    assert (sec.a3, sec.a4, sec.a5) == (0, 0, 0)


def test_section_coefficients_at_lambda_zero():
    fr = generic_frame()
    sec = section_projection(fr, 0)
    assert sec.a3 == 6 * f30_f21(fr)[0]
    assert sec.a4 == 24 * fr.f4[0]


def test_section_a4_general_lambda():
    fr = generic_frame()
    f21 = f30_f21(fr)[1]
    for lam in (Fraction(1, 2), Fraction(-2), Fraction(3)):
        sec = section_projection(fr, lam)
        assert sec.a4 == 24 * (lam * lam / 8 + lam * f21 / 2 + fr.f4[0])


def test_section_through_cone_ruling():
    # the plane y = -2 f21 z contains (1,0) and the cone ruling
    fr = generic_frame()
    f21 = f30_f21(fr)[1]
    sec = section_projection(fr, -2 * f21)
    assert sec.a4 == 24 * (fr.f4[0] - f21 ** 2 / 2)


def test_section_quintic_coefficient_closed_form():
    # jet-arithmetic a5 against the displayed closed form, exactly
    fr = generic_frame()
    a, b = fr.a, fr.b
    sec = section_projection(fr, 6 * b)
    assert sec.a3 == 6 * a
    assert sec.a4 == 24 * (fr.f4[0] - Fraction(9, 2) * b * b)
    assert sec.a5 == 120 * (-27 * a * b * b + 3 * b * fr.f4[1] + fr.f50)


def test_section_projection_matches_swept_fixed_point():
    """One sweep of the section solve y = lam f(x, y) gives the same
    a3, a4 and a5 as iterating it to convergence (five sweeps)."""
    rng = random.Random(5)
    xj = Jet2.variable("x", 5, RATIONAL)
    for _ in range(30):
        fr = random_frame(rng, RATIONAL)
        lam = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        ys = Jet2.zero(5, RATIONAL)
        for _ in range(5):
            ys = substitute(fr.normalized, (xj, ys)).scaled(lam)
        g = substitute(fr.normalized, (xj, ys))
        sec = section_projection(fr, lam)
        assert (sec.a3, sec.a4, sec.a5) == (
            6 * g.coefficient(3, 0), 24 * g.coefficient(4, 0),
            120 * g.coefficient(5, 0))


def _section_reprs(section):
    return [repr(c) for c in (section.a3, section.a4, section.a5)]


def test_section_projection_matches_whole_jet_section_float():
    """The graded section equals the whole-jet section coefficient for
    coefficient, signed zeros included: random frames and frames with
    signed zero coefficients, turned by random angles and the axis
    turns, at lam = 6b, -6b, a random value and both zeros."""
    rng = random.Random(31)
    frames = [random_frame(rng, FLOAT) for _ in range(40)] + [
        frame_from_coefficients(0.0, -0.0, f4=(0.0, -0.0, 0.25, 0.0, -0.0),
                                f5=(-0.0,) * 6, mode=FLOAT),
        frame_from_coefficients(0.3, 0.0, f4=(-0.0, 0.1, 0.0, -0.0, 0.2),
                                mode=FLOAT)]
    for fr in frames:
        turns = [(math.cos(t), math.sin(t))
                 for t in (rng.uniform(-math.pi, math.pi) for _ in range(4))]
        for pair in turns + list(AXIS_TURNS):
            rot = rotate_frame(fr, pair)
            for lam in (6 * rot.b, -6 * rot.b, rng.uniform(-3, 3), 0.0, -0.0):
                assert _section_reprs(section_projection(rot, lam)) == \
                    _section_reprs(section_by_substitution(rot, lam))


def test_section_projection_matches_whole_jet_section_rational():
    rng = random.Random(37)
    for _ in range(20):
        fr = random_frame(rng, RATIONAL)
        for pair in PYTHAGOREAN_DIRECTIONS:
            rot = rotate_frame(fr, pair)
            drawn = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            for lam in (6 * rot.b, drawn, 0):
                sec = section_projection(rot, lam)
                want = section_by_substitution(rot, lam)
                assert (sec.a3, sec.a4, sec.a5) == (want.a3, want.a4, want.a5)


# ---------------------------------------------------------------------------
# Transon planes and the cone


def test_transon_plane_first_axis():
    fr = generic_frame()
    plane = transon_plane(fr, (1, 0)).canonical()
    # x + 2 a z = 0, rescaled
    want = Plane3((1, 0, 2 * fr.a), 0, RATIONAL).canonical()
    assert plane == want


def test_transon_plane_no_cubic():
    fr = sphere_frame()
    for xi, eta in PYTHAGOREAN_DIRECTIONS:
        plane = transon_plane(fr, (xi, eta)).canonical()
        assert plane.normal[2] == 0
        assert plane.offset == 0


def test_transon_plane_second_axis():
    fr = generic_frame()
    plane = transon_plane(fr, (0, 1)).canonical()
    want = Plane3((0, 1, 2 * fr.b), 0, RATIONAL).canonical()
    assert plane == want


def test_euler_relation_exact():
    rng = random.Random(4)
    for _ in range(30):
        fr = random_frame(rng, RATIONAL)
        xi = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        eta = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if not xi and not eta:
            continue
        g = transon_plane(fr, (xi, eta)).normal
        g_xi, g_eta = transon_gradients(fr, (xi, eta))
        for k in range(3):
            assert 3 * g[k] == xi * g_xi[k] + eta * g_eta[k]


def test_su_direction_closed_form():
    fr = generic_frame()
    f30, f21 = f30_f21(fr)
    assert su_cone_direction(fr, (1, 0)) == (-2 * f30, -2 * f21, 1)


def test_su_direction_no_cubic_is_vertical():
    fr = frame_from_coefficients(0, 0, f4=(1, 0, 0, 0, 0), mode=RATIONAL)
    assert su_cone_direction(fr, (Fraction(3, 5), Fraction(4, 5))) == (0, 0, 1)


def test_su_direction_sphere():
    fr = sphere_frame()
    for d in PYTHAGOREAN_DIRECTIONS:
        assert su_cone_direction(fr, d) == (0, 0, 1)


def test_su_ruling_lies_in_transon_plane():
    rng = random.Random(6)
    for _ in range(30):
        fr = random_frame(rng, RATIONAL)
        xi = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        eta = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if not xi and not eta:
            continue
        try:
            s = su_cone_direction(fr, (xi, eta))
        except DegenerateConeError:
            continue
        plane = transon_plane(fr, (xi, eta))
        assert plane.offset == 0
        assert sum(n * c for n, c in zip(plane.normal, s)) == 0


# ---------------------------------------------------------------------------
# Moutard quadric and center


def test_moutard_quadric_of_paraboloid_is_itself():
    fr = frame_from_coefficients(0, 0, mode=RATIONAL)
    q = moutard_quadric(fr, (1, 0))
    # z = (x^2 + y^2)/2
    for x, y in ((0, 0), (Fraction(1, 2), 0), (1, -1), (Fraction(2, 3), 2)):
        z = Fraction(x * x + y * y, 2)
        assert quadric_value(q, (x, y, z)) == 0


def test_moutard_quadric_of_sphere_is_the_sphere():
    fr = sphere_frame()
    for d in PYTHAGOREAN_DIRECTIONS:
        q = moutard_quadric(fr, d)
        # x^2 + y^2 + (z-1)^2 = 1, up to scale: check points on the sphere
        for x, z in ((0, 0), (Fraction(3, 5), Fraction(1, 5)),
                     (Fraction(4, 5), Fraction(2, 5)), (1, 1), (0, 2)):
            assert quadric_value(q, (x, 0, z)) == 0


def test_moutard_quadric_generic_cross_terms():
    fr = generic_frame()
    q = moutard_quadric(fr, (1, 0))
    m = q.matrix
    scale = m[0][0] / Fraction(1, 2)  # normalize to the displayed gauge
    assert m[0][2] / scale == fr.a  # xz coefficient pair: 2a total
    assert m[1][2] / scale == -3 * fr.b  # yz pair: -6b total
    assert quadric_value(q, (0, 0, 0)) == 0


def test_moutard_center_closed_form():
    fr = generic_frame()
    a, b, f40 = fr.a, fr.b, fr.f4[0]
    den = 4 * (2 * f40 - 5 * a * a - 9 * b * b)
    want = tuple(c / den for c in (-2 * a, 6 * b, 1))
    assert moutard_center(fr, (1, 0)) == want


def test_moutard_center_paraboloid_at_infinity():
    fr = frame_from_coefficients(0, 0, mode=RATIONAL)
    c = moutard_center(fr, (1, 0))
    assert isinstance(c, AtInfinity)
    assert c == AtInfinity((0, 0, 1))


def test_moutard_center_sphere():
    fr = sphere_frame()
    for d in PYTHAGOREAN_DIRECTIONS:
        assert moutard_center(fr, d) == (0, 0, 1)


def test_center_collinear_with_ruling():
    rng = random.Random(8)
    checked = 0
    while checked < 30:
        fr = random_frame(rng, FLOAT)
        theta = rng.uniform(0, math.pi)
        t = (math.cos(theta), math.sin(theta))
        c = moutard_center(fr, t)
        if isinstance(c, AtInfinity):
            continue
        s = su_cone_direction(fr, t)
        cross = (
            c[1] * s[2] - c[2] * s[1],
            c[2] * s[0] - c[0] * s[2],
            c[0] * s[1] - c[1] * s[0],
        )
        norm = math.hypot(*c) * math.hypot(*s)
        assert max(abs(x) for x in cross) < 1e-12 * norm
        checked += 1


def test_osculating_conics_lie_on_quadric():
    fr = frame_from_coefficients(
        0.21, -0.13, f4=(0.12, 0.07, -0.04, 0.05, 0.2), mode=FLOAT,
    )
    f30 = float(f30_f21(fr)[0])
    quadric = moutard_quadric(fr, (1.0, 0.0))
    scale = max(abs(c) for row in quadric.matrix for c in row)
    for lam in (-1.0, 0.0, 1.0):
        mu = float(affine_curvature(section_projection(fr, lam)))
        a_coef = 4 * f30 * f30 + mu
        for x in [0.02 * (k + 1) for k in range(10)]:
            b_coef = 4 * f30 * x - 2
            c_coef = x * x
            disc = math.sqrt(b_coef ** 2 - 4 * a_coef * c_coef)
            z = 2 * c_coef / (-b_coef + disc)  # branch through the origin
            point = (x, lam * z, z)
            assert abs(quadric_value(quadric, point)) < 1e-10 * scale


# ---------------------------------------------------------------------------
# planar affine curvature


def test_parabola_curvatures_vanish():
    sec = SectionJet(0, 0, 0, RATIONAL)
    assert affine_curvature(sec) == 0
    assert affine_curvature_derivative(sec) == 0


def test_unit_circle_curvature():
    # oracle: the defining ODE gives constant curvature 1 on the unit
    # circle (checked numerically by the arc-length stencil)
    sec = SectionJet(0, 3, 0, RATIONAL)
    assert affine_curvature(sec) == 1
    from oracles import GraphCurve, mu_by_stencil

    stencil = mu_by_stencil(GraphCurve([0, 0, 0.5, 0, 3 / 24, 0]), 0.0)
    assert stencil == pytest.approx(1.0, abs=1e-8)


def test_conics_have_constant_curvature():
    for sec in (SectionJet(0, 3, 0, RATIONAL),      # circle
                SectionJet(0, 0, 0, RATIONAL),      # parabola
                SectionJet(0, Fraction(12, 5), 0, RATIONAL)):  # ellipse jet
        assert affine_curvature_derivative(sec) == 0


def test_curvature_formula_matches_ruling_section():
    fr = generic_frame()
    f30, f21 = f30_f21(fr)
    f40 = fr.f4[0]
    sec = section_projection(fr, -2 * f21)
    mu = affine_curvature(sec)
    assert mu == -4 * (5 * f30 ** 2 - 2 * f40 + f21 ** 2)


def test_curvature_derivative_matches_arclength_oracle():
    rng = random.Random(10)
    for _ in range(10):
        a3, a4, a5 = (rng.uniform(-1, 1) for _ in range(3))
        sec = SectionJet(a3, a4, a5, FLOAT)
        got = affine_curvature_derivative(sec)
        want = mu_prime_oracle(a3, a4, a5)
        assert got == pytest.approx(want, abs=1e-6)


# ---------------------------------------------------------------------------
# center of affine curvature vs Moutard center


def test_centers_agree_symbolically():
    fr = generic_frame()
    a, b, f40 = fr.a, fr.b, fr.f4[0]
    den = 4 * (2 * f40 - 5 * a * a - 9 * b * b)
    want = tuple(c / den for c in (-2 * a, 6 * b, 1))
    assert center_of_affine_curvature(fr, (1, 0)) == want
    assert moutard_center(fr, (1, 0)) == want


def test_centers_agree_on_rational_rotations():
    fr = generic_frame()
    for d in PYTHAGOREAN_DIRECTIONS:
        assert center_of_affine_curvature(fr, d) == moutard_center(fr, d)


def test_float_moutard_center_tracks_exact():
    rng = random.Random(29)
    for _ in range(100):
        fr = random_frame(rng, RATIONAL)
        fr_float = to_float_frame(fr)
        for d in PYTHAGOREAN_DIRECTIONS:
            exact = moutard_center(fr, d)
            approx = moutard_center(fr_float, tuple(map(float, d)))
            if isinstance(exact, AtInfinity):
                assert isinstance(approx, AtInfinity) and approx == exact
                continue
            scale = max(abs(c) for c in exact)
            assert max(abs(float(e) - a)
                       for e, a in zip(exact, approx)) <= 1e-12 * scale


def test_centers_agree_random_sweep():
    rng = random.Random(13)
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
        assert max(abs(p - q) for p, q in zip(mc, cc)) < 1e-10 * scale
        checked += 1


def test_paraboloid_curvature_center_at_infinity():
    fr = frame_from_coefficients(0, 0, mode=RATIONAL)
    assert isinstance(center_of_affine_curvature(fr, (1, 0)), AtInfinity)


def test_sphere_curvature_center():
    fr = sphere_frame()
    assert center_of_affine_curvature(fr, (1, 0)) == (0, 0, 1)


def test_plane_guards():
    with pytest.raises(ValueError):
        Plane3((0, 0, 0), 1, RATIONAL)
    from aek.geometry import Quadric3
    with pytest.raises(ValueError):
        Quadric3(((1, 2, 0, 0), (0, 1, 0, 0),
                  (0, 0, 1, 0), (0, 0, 0, 1)), RATIONAL)
