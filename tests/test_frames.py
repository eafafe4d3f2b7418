import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aek.cli import build_surface, load_spec
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
    _apolarity_pair,
    _sym_inv_sqrt2,
    frame_from_coefficients,
    normalize_at,
    pull_back,
    pull_back_direction,
    random_frame,
    rotate_frame,
    rotate_to,
    to_float_frame,
    turned_coefficients,
)
from aek.geometry import AtInfinity, Plane3
from aek.invariants import moutard_center
from aek.jets import Jet2, substitute
from aek.scalars import FLOAT, RATIONAL

from oracles import (
    AXIS_TURNS,
    PYTHAGOREAN_DIRECTIONS,
    chart_preserving_unimodular,
    graph_shear,
    inverse_map,
    map_chart_point,
    normalize_by_substitution,
    push_forward,
    rotate_by_substitution,
    sphere_surface,
    transform_graph_surface,
    unscreened_surface,
)

SPECS = Path(__file__).resolve().parent.parent / "specs"


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
        g = graph_shear(h, alpha, beta)
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
    s = unscreened_surface({(2, 0): 1, (0, 2): -1}, (-1, 1, -1, 1),
                           RATIONAL)
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
# the graded normalization against the route of whole jets

_small = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@st.composite
def _rational_height(draw):
    """A rational height of degree <= 8 with a tilted tangent plane, and a
    base point off the origin where its Hessian is R diag(p^2, q^2) R^T,
    R a Pythagorean rotation: its inverse square root is rational."""
    c, s = draw(st.sampled_from(PYTHAGOREAN_DIRECTIONS))
    p, q = (draw(st.fractions(min_value=Fraction(1, 4), max_value=3,
                              max_denominator=4)) for _ in range(2))
    degree = draw(st.integers(3, 8))
    terms = {(i, d - i): draw(_small)
             for d in range(3, degree + 1) for i in range(d + 1)}
    terms.update({(0, 0): draw(_small), (1, 0): draw(_small),
                  (0, 1): draw(_small),
                  (2, 0): (c * c * p * p + s * s * q * q) / 2,
                  (1, 1): c * s * (p * p - q * q),
                  (0, 2): (s * s * p * p + c * c * q * q) / 2})
    base = (draw(_small.filter(bool)), draw(_small))
    local = Jet2.from_terms(terms, degree, RATIONAL)
    height = local.shifted((-base[0], -base[1]))
    return SurfaceModel(height, (-3, 3, -3, 3), check_convexity=False), base


@settings(max_examples=25, deadline=None)
@given(_rational_height())
def test_graded_normalization_equals_whole_jet_route_exactly(case):
    """Shift to degree 5, Hessian step part by part, shear degree by
    degree: the same jet and world map as shifting the whole jet and
    substituting into it, exactly."""
    surface, base = case
    assert normalize_at(surface, base) == normalize_by_substitution(
        surface, base)


def _assert_frames_agree(got, want, rel=1e-12):
    scale = max(1.0, want.normalized.max_abs())
    assert max(abs(a - b) for a, b in zip(got.normalized.coeffs,
                                          want.normalized.coeffs)) \
        <= rel * scale
    for m_got, m_want in ((got.world_from_local.linear,
                           want.world_from_local.linear),
                          ((got.world_from_local.translation,),
                           (want.world_from_local.translation,))):
        flat_got = [c for row in m_got for c in row]
        flat_want = [c for row in m_want for c in row]
        scale = max(1.0, max(abs(c) for c in flat_want))
        assert max(abs(a - b) for a, b in zip(flat_got, flat_want)) \
            <= rel * scale


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-0.5, 0.5), min_size=39, max_size=39),
       st.tuples(st.floats(0.5, 1.5), st.floats(-0.3, 0.3),
                 st.floats(0.5, 1.5)),
       st.tuples(st.floats(-0.05, 0.05), st.floats(-0.05, 0.05)))
def test_graded_normalization_tracks_whole_jet_route_in_floats(
        high, quadratic, point):
    terms = dict(zip(((i, d - i) for d in range(3, 9) for i in range(d + 1)),
                     high))
    terms.update(zip(((2, 0), (1, 1), (0, 2)), quadratic))
    s = surface(terms, patch=(-0.1, 0.1, -0.1, 0.1), mode=FLOAT)
    _assert_frames_agree(normalize_at(s, point),
                         normalize_by_substitution(s, point))


def test_graded_normalization_tracks_whole_jet_route_on_the_sphere():
    s = build_surface(load_spec(str(SPECS / "sphere.json")))
    for u in (-0.02, 0.0, 0.013):
        for v in (-0.017, 0.0, 0.02):
            _assert_frames_agree(normalize_at(s, (u, v)),
                                 normalize_by_substitution(s, (u, v)))


def test_hessian_step_keeps_a_tiny_cubic():
    """At (-1, -1) the Hessian step scales the cubic by s00^3, about
    2.4e-452, and the quartic by s11^4: a float product of those factors
    underflows, so the part of each degree takes its power of the scale
    in one rounding.  The cubic a = c30 s00^3 / 4 (h01 = 0) and f04 (the
    quartic's c04 s11^4 plus the shear's terms) come out as the exact
    rational route gives them from the same floats."""
    huge = surface({(2, 0): 0.5, (0, 2): 0.5, (3, 0): 1e160, (4, 0): 1e300,
                    (0, 4): 1e300}, mode=FLOAT)
    p0 = (-1.0, -1.0)
    fr = normalize_at(huge, p0)
    shifted = huge.height.shifted(p0, 5)
    s00, s01, s11 = _sym_inv_sqrt2(2 * shifted.coefficient(2, 0),
                                   shifted.coefficient(1, 1),
                                   2 * shifted.coefficient(0, 2), FLOAT)
    assert s01 == 0
    h = Jet2.from_terms({e: Fraction(c) for e, c in shifted.terms()
                         if sum(e) > 1}, 5, RATIONAL)
    xj = Jet2.variable("x", 5, RATIONAL)
    yj = Jet2.variable("y", 5, RATIONAL)
    h = substitute(h, (xj.scaled(Fraction(s00)), yj.scaled(Fraction(s11))))
    alpha, beta = (-r / 2 for r in _apolarity_pair(h))
    exact = graph_shear(h, alpha, beta)
    cubic = Fraction(shifted.coefficient(3, 0)) * Fraction(s00) ** 3 / 4
    for got, want in ((fr.a, cubic), (fr.a, exact.coefficient(3, 0)),
                      (fr.f4[4], exact.coefficient(0, 4))):
        assert got != 0
        assert abs(Fraction(got) - want) <= Fraction(1e-12) * abs(want)
    assert fr.a == pytest.approx(-2.4056e-152, rel=1e-4)
    assert fr.f4[4] == pytest.approx(-1.2153e-302, rel=1e-4)


def test_hessian_step_overflow_is_a_normalization_error():
    """At the origin s00 = s11 = 1e75, so the Hessian step scales the
    quartic c40 = 1e10 by s00^4 = 1e300 past the float range: a
    NormalizationError, as for any other float overflow."""
    tiny = surface({(2, 0): 5e-151, (0, 2): 5e-151, (4, 0): 1e10},
                   mode=FLOAT)
    with pytest.raises(NormalizationError, match="float overflow"):
        normalize_at(tiny, (0.0, 0.0))


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
    t = math.pi / 6
    rot = rotate_frame(fr, (math.cos(t), math.sin(t)))
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
        rot = rotate_frame(frf, (math.cos(theta), math.sin(theta)))
        assert rot.a ** 2 + rot.b ** 2 == pytest.approx(
            float(fr.a ** 2 + fr.b ** 2), rel=1e-12
        )


#: the four axis turns, each with both signs of its zero entry
def _frame_reprs(frame):
    m = frame.world_from_local
    return [repr(c) for c in (*frame.normalized.coeffs,
                              *(c for row in m.linear for c in row),
                              *m.translation)]


def test_rotate_frame_matches_whole_jet_rotation_float():
    """The graded rotation equals the whole-jet substitution coefficient
    for coefficient, signed zeros included, on random frames and on
    frames normalized on a surface, at random angles and axis turns."""
    rng = random.Random(23)
    s = surface(
        {(2, 0): 0.7, (1, 1): 0.1, (0, 2): 0.4, (3, 0): 0.4, (2, 1): -0.2,
         (0, 4): 0.3, (4, 1): -0.5, (0, 5): 0.2},
        patch=(-0.2, 0.2, -0.2, 0.2), mode=FLOAT,
    )
    frames = [random_frame(rng, FLOAT) for _ in range(30)] + [
        normalize_at(s, (rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)))
        for _ in range(10)]
    for fr in frames:
        turns = [(math.cos(t), math.sin(t))
                 for t in (rng.uniform(-math.pi, math.pi) for _ in range(5))]
        for pair in turns + list(AXIS_TURNS):
            assert _frame_reprs(rotate_frame(fr, pair)) == _frame_reprs(
                rotate_by_substitution(fr, pair))


def test_rotate_frame_matches_whole_jet_rotation_rational():
    rng = random.Random(29)
    pairs = [(c, s) for c, s in PYTHAGOREAN_DIRECTIONS] + [
        (-s, c) for c, s in PYTHAGOREAN_DIRECTIONS]
    for _ in range(20):
        fr = random_frame(rng, RATIONAL)
        for pair in pairs:
            rot = rotate_frame(fr, pair)
            want = rotate_by_substitution(fr, pair)
            assert rot.normalized == want.normalized
            assert rot.world_from_local == want.world_from_local


def test_rotate_frame_rejects_pair_off_the_unit_circle():
    fr = frame_from_coefficients(1, 0, mode=RATIONAL)
    with pytest.raises(ValueError, match="unit circle"):
        rotate_frame(fr, (Fraction(1, 2), Fraction(1, 2)))


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
        rot = rotate_frame(fr, (math.cos(theta), math.sin(theta)))
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
        g = inverse_map(fr2.world_from_local).compose(
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
        d_new = inverse_map(fr2.world_from_local).apply_vector(
            amap.apply_vector(d_world))
        c2 = pull_back(fr2, moutard_center(fr2, (d_new[0], d_new[1])))
        want = amap.apply_point(center)
        assert max(abs(p - q) for p, q in zip(c2, want)) < 1e-9 * max(
            1.0, max(abs(q) for q in want))


def test_pull_back_moves_points_at_infinity_as_directions():
    """A center at infinity pulls back as its direction does, exactly,
    through frames whose maps recenter, scale, shear and rotate."""
    s = surface({(1, 0): "1/3", (0, 1): "-1/4", (2, 0): 2, (0, 2): "9/2",
                 (3, 0): "1/5", (1, 2): "-2/7", (0, 4): "1/9"})
    frames = [normalize_at(s, (0, 0))]
    frames += [rotate_frame(frames[0], pair) for pair in
               ((Fraction(3, 5), Fraction(4, 5)),
                (Fraction(-5, 13), Fraction(12, 13)))]
    rng = random.Random(9)
    for fr in frames:
        for _ in range(10):
            d = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                      for _ in range(3))
            assert pull_back(fr, AtInfinity(d)) == \
                AtInfinity(pull_back_direction(fr, d))


def test_rational_roundtrip_exact():
    fr = frame_from_coefficients(
        Fraction(1, 3), Fraction(-2, 7),
        f4=(Fraction(1, 5), 0, 0, 0, 0), mode=RATIONAL,
    )
    sheared = rotate_frame(fr, cos_sin=(Fraction(3, 5), Fraction(4, 5)))
    p = (Fraction(1, 2), Fraction(-1, 3), Fraction(2, 9))
    assert push_forward(sheared, pull_back(sheared, p)) == p
    m = sheared.world_from_local
    assert m.compose(inverse_map(m)).linear == \
        AffineMap3.identity(RATIONAL).linear
