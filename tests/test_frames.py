import math
import random
from fractions import Fraction

import pytest

from aek.errors import (
    NonConvexPointError,
    NormalizationError,
    PatchBoundsError,
)
from aek.frames import (
    _FORM_TOL,
    AffineMap3,
    BlaschkeFrame,
    SurfaceModel,
    _graph_shear,
    frame_from_coefficients,
    normalize_at,
    pull_back,
    pull_back_direction,
    push_forward,
    random_frame,
    rotate_frame,
    rotate_to,
    to_float_frame,
    turned_coefficients,
)
from aek.geometry import Plane3
from aek.invariants import moutard_center
from aek.jets import Jet2, substitute
from aek.scalars import FLOAT, RATIONAL

from oracles import (
    PYTHAGOREAN_DIRECTIONS,
    chart_preserving_unimodular,
    map_chart_point,
    sphere_surface,
    transform_graph_surface,
)


def surface(coeffs, patch=(-1, 1, -1, 1), mode=RATIONAL):
    return SurfaceModel.from_coefficients(coeffs, patch, mode)


# ---------------------------------------------------------------------------
# normalize_at


def test_paraboloid_is_already_normal():
    s = surface({(2, 0): "1/2", (0, 2): "1/2"})
    fr = normalize_at(s, (0, 0))
    assert fr.a == 0 and fr.b == 0
    assert fr.f4 == (0, 0, 0, 0, 0)
    assert fr.world_from_local.linear == AffineMap3.identity(RATIONAL).linear
    assert fr.world_from_local.translation == (0, 0, 0)


def test_double_paraboloid_scales_chart():
    s = surface({(2, 0): 1.0, (0, 2): 1.0}, mode=FLOAT)
    fr = normalize_at(s, (0.0, 0.0))
    lin = fr.world_from_local.linear
    assert lin[0][0] == pytest.approx(1 / math.sqrt(2), rel=1e-14)
    assert lin[1][1] == pytest.approx(1 / math.sqrt(2), rel=1e-14)
    assert lin[2][2] == 1.0
    assert fr.a == pytest.approx(0) and fr.b == pytest.approx(0)


def test_shear_enforces_apolarity():
    s = surface({(2, 0): "1/2", (0, 2): "1/2", (3, 0): 1},
                patch=(-0.1, 0.1, -0.1, 0.1))
    fr = normalize_at(s, (0, 0))
    jet = fr.normalized
    assert jet.coefficient(3, 0) == Fraction(1, 4)
    assert jet.coefficient(1, 2) == Fraction(-3, 4)
    assert fr.apolarity_residuals == (0, 0)
    # the recorded shear: x -> x + alpha z with alpha = -3/2
    assert fr.world_from_local.linear[0][2] == Fraction(-3, 2)


def test_float_normal_form_tolerance_scales_with_the_jet():
    """A float frame's residuals are checked against the jet's scale, as
    the normal-form snap checks its low terms: a one-ulp apolarity
    residual on a cubic of 1e100 is round-off, and one above the scaled
    tolerance is not.  A normalization whose jet overflows is refused as
    an overflow."""
    fr = frame_from_coefficients(1e100, 0.0, mode=FLOAT)

    def frame_with(e, value):
        terms = dict(fr.normalized.terms())
        terms[e] = value
        return BlaschkeFrame(Jet2.from_terms(terms, 5, FLOAT),
                             fr.world_from_local)

    rounded = frame_with((1, 2), math.nextafter(-3e100, 0.0))
    assert rounded.apolarity_residuals[0] > 1e80
    with pytest.raises(ValueError, match="apolarity residual"):
        frame_with((1, 2), -3e100 + 3 * _FORM_TOL * 3e100)
    huge = surface({(2, 0): 0.5, (0, 2): 0.5, (3, 0): 1e160, (4, 0): 1e300,
                    (0, 4): 1e300}, mode=FLOAT)
    with pytest.raises(NormalizationError, match="float overflow"):
        normalize_at(huge, (0.0, 0.0))


def test_graph_shear_is_an_exact_fixed_point():
    """``order - 2`` sweeps reach the fixed point g = h(x + alpha g,
    y + beta g): one more sweep changes no coefficient."""
    rng = random.Random(11)

    def draw():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    xj = Jet2.variable("x", 5, RATIONAL)
    yj = Jet2.variable("y", 5, RATIONAL)
    for _ in range(30):
        h = Jet2.from_terms(
            {(i, d - i): draw() for d in range(2, 6) for i in range(d + 1)},
            5, RATIONAL)
        alpha, beta = draw(), draw()
        g = _graph_shear(h, alpha, beta)
        assert substitute(h, (xj + g.scaled(alpha),
                              yj + g.scaled(beta))) == g


def test_tangent_plane_maps_correctly():
    s = surface({(2, 0): "1/2", (0, 2): "1/2", (3, 0): 1, (1, 1): "1/5"},
                patch=(-0.1, 0.1, -0.1, 0.1), mode=FLOAT)
    p0 = (0.05, -0.02)
    fr = normalize_at(s, p0)
    # local origin lands on the surface point
    world = pull_back(fr, (0.0, 0.0, 0.0))
    assert world[0] == pytest.approx(p0[0])
    assert world[1] == pytest.approx(p0[1])
    assert world[2] == pytest.approx(float(s.value(p0)))
    # the local plane z=0 maps to the world tangent plane
    gz = s.gradient(p0)
    tangent = pull_back(fr, Plane3((0.0, 0.0, 1.0), 0.0, FLOAT)).canonical()
    want = Plane3(
        (-gz[0], -gz[1], 1.0),
        -gz[0] * p0[0] - gz[1] * p0[1] + s.value(p0),
        FLOAT,
    ).canonical()
    assert tangent.normal == pytest.approx(want.normal, abs=1e-12)
    assert tangent.offset == pytest.approx(want.offset, abs=1e-12)


def test_non_convex_point_rejected():
    s = SurfaceModel.from_coefficients(
        {(2, 0): 1, (0, 2): -1}, (-1, 1, -1, 1), RATIONAL,
        check_convexity=False,
    )
    with pytest.raises(NonConvexPointError):
        normalize_at(s, (0, 0))


def test_load_time_convexity_screen():
    with pytest.raises(NonConvexPointError):
        surface({(2, 0): 1, (0, 2): -1})


def test_patch_bounds_checked():
    s = surface({(2, 0): "1/2", (0, 2): "1/2"})
    with pytest.raises(PatchBoundsError):
        normalize_at(s, (2, 0))


def test_rational_mode_needs_exact_sqrt():
    s = surface({(2, 0): 1, (0, 2): 1})  # Hessian diag(2, 2)
    with pytest.raises(ValueError, match="square root"):
        normalize_at(s, (0, 0))


def test_sphere_polynomial_normalizes_to_sphere_jet():
    s = sphere_surface()
    fr = normalize_at(s, (0.0, 0.0))
    assert fr.a == pytest.approx(0, abs=1e-14)
    assert fr.f4[0] == pytest.approx(1 / 8, abs=1e-13)
    assert fr.f4[2] == pytest.approx(1 / 4, abs=1e-13)
    assert fr.f4[4] == pytest.approx(1 / 8, abs=1e-13)
    assert fr.f50 == pytest.approx(0, abs=1e-13)


# ---------------------------------------------------------------------------
# rotations


SPHERE_F4 = (Fraction(1, 8), 0, Fraction(1, 4), 0, Fraction(1, 8))


def test_rotate_identity():
    fr = frame_from_coefficients(1, Fraction(-1, 2), mode=RATIONAL)
    rot = rotate_frame(fr, cos_sin=(1, 0))
    assert rot.normalized == fr.normalized


def test_rotate_half_turn_flips_cubic():
    fr = frame_from_coefficients(1, 0, mode=RATIONAL)
    rot = rotate_frame(fr, cos_sin=(-1, 0))
    assert rot.a == -1 and rot.b == 0


def test_rotate_by_30_degrees_kills_a():
    fr = frame_from_coefficients(1.0, 0.0, mode=FLOAT)
    rot = rotate_frame(fr, math.pi / 6)
    assert rot.a == pytest.approx(0, abs=1e-14)
    assert abs(rot.b) == pytest.approx(1, abs=1e-14)


def test_rotate_quarter_turn_matches_substitution_oracle():
    # oracle: substituting x -> y, y -> -x in x^3 - 3xy^2 gives y^3 - 3yx^2
    fr = frame_from_coefficients(1, 0, mode=RATIONAL)
    rot = rotate_frame(fr, cos_sin=(0, 1))
    assert (rot.a, rot.b) == (0, 1)


def test_pick_norm_invariant_under_rotation():
    fr = frame_from_coefficients(
        Fraction(2, 3), Fraction(-1, 2),
        f4=(Fraction(1, 5), 0, 0, 0, 0), mode=RATIONAL,
    )
    for c, s in ((Fraction(3, 5), Fraction(4, 5)),
                 (Fraction(5, 13), Fraction(12, 13))):
        rot = rotate_frame(fr, cos_sin=(c, s))
        assert rot.a ** 2 + rot.b ** 2 == fr.a ** 2 + fr.b ** 2
    frf = to_float_frame(fr)
    for theta in (0.3, 1.1, 2.9):
        rot = rotate_frame(frf, theta)
        assert rot.a ** 2 + rot.b ** 2 == pytest.approx(
            float(fr.a ** 2 + fr.b ** 2), rel=1e-12
        )


def test_rotate_to_brings_direction_first():
    fr = frame_from_coefficients(
        Fraction(1, 2), Fraction(1, 3), mode=RATIONAL
    )
    rot, back = rotate_to(fr, (Fraction(3, 5), Fraction(4, 5)))
    # the rotated frame's first axis is the requested direction
    assert back.apply_vector((1, 0, 0)) == (Fraction(3, 5), Fraction(4, 5), 0)
    # cubic norm preserved exactly
    assert rot.a ** 2 + rot.b ** 2 == fr.a ** 2 + fr.b ** 2


def test_turned_coefficients_match_rotate_to_exactly():
    rng = random.Random(17)
    for _ in range(20):
        fr = random_frame(rng, RATIONAL)
        for d in PYTHAGOREAN_DIRECTIONS:
            rot, back = rotate_to(fr, d)
            coeffs, turned_back = turned_coefficients(fr, d)
            assert coeffs == (rot.a, rot.b, rot.f4[0], rot.f4[1], rot.f50)
            assert turned_back.linear == back.linear


def test_moutard_center_rotation_equivariance():
    rng = random.Random(9)
    for _ in range(20):
        fr = random_frame(rng, FLOAT)
        theta = rng.uniform(0, 2 * math.pi)
        t = (math.cos(rng.uniform(0, math.pi)),
             math.sin(rng.uniform(0, math.pi)))
        rot = rotate_frame(fr, theta)
        c, s = math.cos(theta), math.sin(theta)
        t_new = (c * t[0] - s * t[1], s * t[0] + c * t[1])
        lhs = moutard_center(rot, t_new)
        rhs = moutard_center(fr, t)
        if not isinstance(rhs, tuple):
            continue
        want = (c * rhs[0] - s * rhs[1], s * rhs[0] + c * rhs[1], rhs[2])
        assert max(abs(p - q) for p, q in zip(lhs, want)) < 1e-10 * max(
            1.0, max(abs(q) for q in want)
        )


# ---------------------------------------------------------------------------
# pull back / push forward


def test_pull_back_point_and_inverse_roundtrip():
    rng = random.Random(3)
    s = surface(
        {(2, 0): 0.5, (0, 2): 0.5, (3, 0): 0.4, (2, 1): -0.2, (0, 4): 0.3},
        patch=(-0.2, 0.2, -0.2, 0.2), mode=FLOAT,
    )
    fr = normalize_at(s, (0.05, -0.03))
    for _ in range(10):
        p = tuple(rng.uniform(-1, 1) for _ in range(3))
        q = push_forward(fr, pull_back(fr, p))
        assert max(abs(a - b) for a, b in zip(p, q)) < 1e-12


def test_sphere_frame_center_pullback():
    # oracle: the sphere's center is (0, 0, 1) in its own world chart
    s = sphere_surface()
    for p0 in ((0.0, 0.0), (0.02, -0.01), (-0.03, 0.04)):
        fr = normalize_at(s, p0)
        center = moutard_center(fr, (1.0, 0.0))
        world = pull_back(fr, center)
        assert world[0] == pytest.approx(0, abs=1e-11)
        assert world[1] == pytest.approx(0, abs=1e-11)
        assert world[2] == pytest.approx(1, abs=1e-11)


def test_normal_form_covariance_under_chart_preserving_maps():
    """A unimodular map of the special graph-compatible form with
    orthogonal tangent block commutes with normalization exactly;
    general maps agree up to the residual scale-rotation gauge."""
    rng = random.Random(12)
    base = surface(
        {(2, 0): 0.5, (0, 2): 0.5, (3, 0): 0.3, (1, 2): -0.9, (4, 0): 0.2},
        patch=(-0.2, 0.2, -0.2, 0.2), mode=FLOAT,
    )
    p0 = (0.03, -0.06)
    fr = normalize_at(base, p0)

    # pure z-shear block: identity tangent part -> frames match exactly
    amap = AffineMap3(
        ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.4, -0.3, 1.0)),
        (0.1, 0.2, -0.05), FLOAT,
    )
    moved = transform_graph_surface(base, amap)
    fr2 = normalize_at(moved, map_chart_point(amap, p0))
    composed = amap.compose(fr.world_from_local)
    for r in range(3):
        for c in range(3):
            assert fr2.world_from_local.linear[r][c] == pytest.approx(
                composed.linear[r][c], abs=1e-10)
        assert fr2.world_from_local.translation[r] == pytest.approx(
            composed.translation[r], abs=1e-10)

    # general chart-preserving unimodular maps: residual gauge is a
    # scale-rotation of the local frame (z-shear and translation vanish)
    for _ in range(5):
        amap = chart_preserving_unimodular(rng)
        moved = transform_graph_surface(base, amap)
        fr2 = normalize_at(moved, map_chart_point(amap, p0))
        g = fr2.world_from_local.inverse().compose(
            amap.compose(fr.world_from_local))
        lin = g.linear
        # block structure: no coupling between tangent block and z
        assert abs(lin[0][2]) < 1e-9 and abs(lin[1][2]) < 1e-9
        assert abs(lin[2][0]) < 1e-9 and abs(lin[2][1]) < 1e-9
        assert max(abs(t) for t in g.translation) < 1e-9
        m = lin[2][2]
        assert m > 0
        # tangent block = sqrt(m) * orthogonal
        dot = lin[0][0] * lin[0][1] + lin[1][0] * lin[1][1]
        n0 = math.hypot(lin[0][0], lin[1][0])
        n1 = math.hypot(lin[0][1], lin[1][1])
        assert abs(dot) < 1e-9
        assert n0 == pytest.approx(math.sqrt(m), rel=1e-8)
        assert n1 == pytest.approx(math.sqrt(m), rel=1e-8)


def test_moutard_center_world_is_map_covariant():
    """Gauge or no gauge, pulled-back centers transform by the map."""
    rng = random.Random(21)
    base = surface(
        {(2, 0): 0.5, (0, 2): 0.5, (3, 0): 0.3, (1, 2): -0.9, (4, 0): 0.2},
        patch=(-0.2, 0.2, -0.2, 0.2), mode=FLOAT,
    )
    p0 = (0.03, -0.06)
    fr = normalize_at(base, p0)
    center = pull_back(fr, moutard_center(fr, (1.0, 0.0)))
    for _ in range(5):
        amap = chart_preserving_unimodular(rng)
        moved = transform_graph_surface(base, amap)
        fr2 = normalize_at(moved, map_chart_point(amap, p0))
        # the same geometric direction in the new local chart
        d_local = (1.0, 0.0)
        d_world = pull_back_direction(fr, (*d_local, 0.0))
        d_new = fr2.world_from_local.inverse().apply_vector(
            amap.apply_vector(d_world))
        c2 = pull_back(fr2, moutard_center(fr2, (d_new[0], d_new[1])))
        want = amap.apply_point(center)
        assert max(abs(p - q) for p, q in zip(c2, want)) < 1e-9 * max(
            1.0, max(abs(q) for q in want))


def test_rational_roundtrip_exact():
    fr = frame_from_coefficients(
        Fraction(1, 3), Fraction(-2, 7),
        f4=(Fraction(1, 5), 0, 0, 0, 0), mode=RATIONAL,
    )
    sheared = rotate_frame(fr, cos_sin=(Fraction(3, 5), Fraction(4, 5)))
    p = (Fraction(1, 2), Fraction(-1, 3), Fraction(2, 9))
    assert push_forward(sheared, pull_back(sheared, p)) == p
    m = sheared.world_from_local
    assert m.compose(m.inverse()).linear == AffineMap3.identity(RATIONAL).linear
