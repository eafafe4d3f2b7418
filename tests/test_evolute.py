import math
import random
import re
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aek.cli import build_surface, load_spec
from aek.errors import NoSolutionError, RankDeficientError
from aek.frames import (
    AffineMap3,
    BlaschkeFrame,
    SurfaceModel,
    frame_from_coefficients,
    normalize_at,
    pull_back_direction,
    random_frame,
    rotate_frame,
    to_float_frame,
)
from aek.geometry import AtInfinity, angle_gap
from aek.evolute import (
    SIMPLE_ROOT_THRESHOLD,
    EvoluteSolution,
    SamplePoint,
    _label_branches,
    compute_sample,
    direction_sextic,
    discriminant_D,
    evolute_directions,
    grid_points,
    pick_derivative,
    pick_invariant,
    regularity_rule,
    section_curvature_rate,
    solve_evolute_point,
    trace_evolute,
)
from aek.invariants import moutard_center, su_cone_direction
from aek.jets import Jet2, substitute
from aek.scalars import FLOAT, RATIONAL

from oracles import PYTHAGOREAN_DIRECTIONS, sphere_surface

SPECS = Path(__file__).resolve().parent.parent / "specs"
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
    assert s.q_coeffs == tuple(12 * c for c in
                               (0, 3 * a2, 0, -10 * a2, 0, 3 * a2, 0))


def test_sextic_sphere_vanishes():
    s = direction_sextic(sphere_frame())
    assert s.q_coeffs == (0, 0, 0, 0, 0, 0, 0)


def test_sextic_paraboloid_vanishes():
    s = direction_sextic(frame_from_coefficients(0, 0, mode=RATIONAL))
    assert all(c == 0 for c in s.q_coeffs)


@pytest.mark.parametrize("a, f40", [
    (0, math.inf),   # an inf scale would read as an identically zero sextic
    (0, math.nan),
    (1e154, 0),      # finite coefficients whose sextic leaves the range
])
def test_sextic_beyond_float_range_raises(a, f40):
    fr = frame_from_coefficients(a, a, f4=(f40, 0, 0, 0, 0), mode=FLOAT)
    with pytest.raises(OverflowError):
        direction_sextic(fr)


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


def test_sextic_rotation_covariant_exactly():
    """Turning the frame by (c, s) turns every root: the turned sextic
    at R d equals the original sextic at d, as exact rationals."""
    rng = random.Random(29)
    for _ in range(10):
        fr = random_frame(rng, RATIONAL)
        q = direction_sextic(fr)
        for c, s in PYTHAGOREAN_DIRECTIONS[2:]:
            q_turned = direction_sextic(rotate_frame(fr, cos_sin=(c, s)))
            for _ in range(4):
                xi = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                eta = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                turned = q_turned.evaluate(c * xi - s * eta, s * xi + c * eta)
                assert turned == q.evaluate(xi, eta)


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


M = sympy.Symbol("m")


def oracle_directions(frame) -> list:
    """sympy's distinct real root directions of the sextic, as mpmath
    angles in [0, pi): the real roots of q(1, m), counted by
    ``count_roots`` on the square-free part and located by ``nroots`` to
    30 digits, and the vertical when q6 = 0."""
    q = [sympy.Rational(*c.as_integer_ratio())
         for c in direction_sextic(frame).q_coeffs]
    poly = sympy.Poly(list(reversed(q)), M)
    roots = []
    if poly.degree() > 0:
        square_free = poly.sqf_part()
        roots = [r for r in square_free.nroots(n=30, maxsteps=200)
                 if r.is_real]
        assert len(roots) == square_free.count_roots()
    with mpmath.workdps(30):
        thetas = [mpmath.atan(mpmath.mpf(str(r))) % mpmath.pi
                  for r in roots]
        return sorted(thetas + [mpmath.pi / 2] * (q[6] == 0))


def clusters(thetas, gap=1e-12) -> int:
    """The number of groups of sorted angles, a group ending where the
    next angle is more than ``gap`` away, around the circle of
    directions."""
    if not thetas:
        return 0
    breaks = sum(float(b - a) > gap for a, b in zip(thetas, thetas[1:]))
    wraps = float(thetas[0] + mpmath.pi - thetas[-1]) > gap
    return max(1, breaks + wraps)


def check_roots_against_oracle(frame, exact_count: bool):
    """The roots are the oracle's directions, each found once; with
    ``exact_count``, one root per exact direction, else one per group
    of exact directions within 1e-12 of each other."""
    out = evolute_directions(frame)
    assume(not out.identically_zero)
    want = oracle_directions(frame)
    thetas = [r.theta for r in out.roots]
    if exact_count:
        assert len(thetas) == len(want)
    else:
        assert clusters(thetas) == clusters(want)
    assert thetas == sorted(set(thetas))
    assert all(0 <= t < math.pi for t in thetas)
    for t in thetas:
        assert min(angle_gap(t, float(w)) for w in want) < 1e-12
    sextic = direction_sextic(to_float_frame(frame))
    assert all(sextic.is_root(t) for t in thetas)


_RATIONAL = st.fractions(min_value=-4, max_value=4, max_denominator=9)
#: nroots does not converge on coefficients hundreds of decades apart;
#: those frames are in test_roots_at_the_float_resolution_of_theta
_FLOAT = st.floats(min_value=-1e3, max_value=1e3).filter(
    lambda x: x == 0 or abs(x) >= 1e-6)


@settings(max_examples=100, deadline=None)
@given(st.lists(_RATIONAL, min_size=7, max_size=7))
def test_root_count_matches_sympy_on_rational_frames(c):
    check_roots_against_oracle(
        frame_from_coefficients(c[0], c[1], f4=c[2:], mode=RATIONAL), True)


@settings(max_examples=100, deadline=None)
@given(st.lists(_FLOAT, min_size=7, max_size=7))
def test_root_count_matches_sympy_on_float_frames(c):
    """A float sextic is an exact rational polynomial, and its roots are
    counted as such."""
    check_roots_against_oracle(
        frame_from_coefficients(c[0], c[1], f4=c[2:], mode=FLOAT), False)


@pytest.mark.parametrize("c, exact, thetas", [
    # q = (-1, -2 t, 2, 0, 3, 2 t, 0) with t = 2.2e-313: the vertical,
    # and a root 1e-313 beside it, which no float theta tells apart
    ([0.0, 0.0, 0.0, 1.0, 2.2250738585e-313, 0.0, 0.0], 4,
     [math.pi / 6, math.pi / 2, 5 * math.pi / 6]),
    # q6 = -2.3e-220: a lone root 6e-222 from the vertical
    ([1.0, 1.947910809019875e-221, 0.0, 1.0, 0.0, 0.0, 0.0], 6, None),
])
def test_roots_at_the_float_resolution_of_theta(c, exact, thetas):
    """Roots 1e-200 and less from an axis: ``count_roots`` counts them
    apart; two that one float theta cannot tell apart are one direction,
    reported once and not simple, and a lone one is kept."""
    frame = frame_from_coefficients(c[0], c[1], f4=c[2:], mode=FLOAT)
    q = [sympy.Rational(*v.as_integer_ratio())
         for v in direction_sextic(frame).q_coeffs]
    square_free = sympy.Poly(list(reversed(q)), M).sqf_part()
    assert square_free.count_roots() + (q[6] == 0) == exact
    roots = evolute_directions(frame).roots
    got = [r.theta for r in roots]
    assert got == sorted(set(got)) and math.pi / 2 in got
    if thetas is None:
        assert len(got) == exact and all(r.simple for r in roots)
    else:
        assert got == pytest.approx(thetas, abs=1e-15)
        assert [r.simple for r in roots] == [True, False, True]


def double_root_frame(m0):
    """A rational frame with a = 1, b = 0 whose sextic has a double root
    at the direction (1, m0), or at the vertical when m0 is None.

    q is affine in f4, so it is q(0) plus the changes from the unit
    f4 rows; two linear conditions fix two of the five, and the other
    three are 1/5, -1/7 and 1/3."""
    basis = [(0,) * 5] + [tuple(int(i == k) for i in range(5))
                          for k in range(5)]
    q0, *rows = (direction_sextic(frame_from_coefficients(1, 0, f4=f4))
                 .q_coeffs for f4 in basis)
    f4 = sympy.symbols("f40 f31 f22 f13 f04")
    q = [c0 + sum(f * (row[k] - c0) for f, row in zip(f4, rows))
         for k, c0 in enumerate(q0)]
    p = sum(c * M ** k for k, c in enumerate(q))
    conditions = ([q[6], q[5]] if m0 is None
                  else [p.subs(M, m0), sympy.diff(p, M).subs(M, m0)])
    solved = sympy.solve(conditions, f4, dict=True)[0]
    free = dict(zip((f for f in f4 if f not in solved),
                    (sympy.Rational(1, 5), sympy.Rational(-1, 7),
                     sympy.Rational(1, 3))))
    values = {**free, **{f: v.subs(free) for f, v in solved.items()}}
    return frame_from_coefficients(
        1, 0, f4=[Fraction(str(values[f])) for f in f4])


@pytest.mark.parametrize("m0, theta", [
    (sympy.Rational(1, 3), math.atan(1 / 3)),
    (0, 0.0),
    (-2, math.pi - math.atan(2)),
    (None, math.pi / 2),
])
def test_double_root_is_reported_once_and_not_simple(m0, theta):
    """An exact double direction is one root, found through the
    square-free part (or exactly, on an axis or a bisection point), and
    it is not simple; moving every f4 coefficient by +-1e-9 splits it
    into two simple roots or none."""
    frame = double_root_frame(m0)
    out = evolute_directions(frame)
    assert len(out.roots) == len(oracle_directions(frame))
    double = [r for r in out.roots if angle_gap(r.theta, theta) < 1e-12]
    assert len(double) == 1 and not double[0].simple
    for step in (Fraction(1, 10 ** 9), Fraction(-1, 10 ** 9)):
        near = frame_from_coefficients(1, 0, f4=[c + step for c in frame.f4])
        roots = evolute_directions(near).roots
        assert len(roots) == len(oracle_directions(near))
        assert len(roots) - len(out.roots) in (-1, 1)


#: root counts of cubic_six at 21 x 21, rows in u, columns in v, as the
#: companion-matrix roots with polish and dedupe found them
CUBIC_SIX_21_COUNTS = """
444444444444444444444
444444444444444444444
666666666666666666666
666666666666666666666
666666666666666666666
666666666666666666666
666666666666666666666
666666666666666666666
666666666666666666666
666666666666666666666
466666666666666666664
466666666666666666664
446666666666666666644
444666666666666666444
444666666666666666444
444466666666666664444
444466666666666664444
444446666666666644444
444446666666666644444
444444666666666444444
444444666666666444444
""".split()


def test_cubic_six_counts_with_roots_on_the_axes():
    """On the unrotated cubic_six grid, q0 = 0 (a root at theta = 0) and
    q6 = 0 (one at pi/2) exactly at 21 samples each; the counts stay
    those of the earlier float root search, and every axis root is
    found once."""
    surface = build_surface(load_spec(str(SPECS / "cubic_six.json")))
    us, vs = grid_points(surface.patch, (21, 21))
    axis_zeros = [0, 0]
    for u, row in zip(us, CUBIC_SIX_21_COUNTS):
        for v, want in zip(vs, row):
            frame = normalize_at(surface, (u, v))
            q = direction_sextic(frame).q_coeffs
            axis_zeros[0] += q[0] == 0
            axis_zeros[1] += q[6] == 0
            thetas = [r.theta for r in evolute_directions(frame).roots]
            assert len(thetas) == int(want), (u, v)
            if q[0] == 0:
                assert thetas.count(0.0) == 1
            if q[6] == 0:
                assert thetas.count(math.pi / 2) == 1
    assert axis_zeros == [21, 21]


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


def test_solve_accepts_only_what_the_root_search_accepts():
    """|q|/scale = 1e-8 is above ROOT_ACCEPT (1e-9), so the direction is
    no root, for the solve as for the root search."""
    fr = cubic_frame()
    s = direction_sextic(fr)
    # q(theta) = 36 theta + O(theta^3) near 0, and the scale is 120
    theta = 1e-8 * s.scale() / 36
    assert abs(s.theta_value(theta)) / s.scale() == pytest.approx(1e-8)
    assert not s.is_root(theta)
    with pytest.raises(NoSolutionError):
        solve_evolute_point(fr, theta)


def test_rank_deficient_solve_with_finite_moutard_center_raises():
    """A root whose four conditions have rank below 3 while the Moutard
    center is finite has no center to report."""
    fr = frame_from_coefficients(
        7043.757169560442, 0,
        f4=(-1860544314.8900309, 0, -446530635.57360744, 0,
            223265317.78680372),
        mode=FLOAT)
    assert direction_sextic(fr).is_root(0.0)
    assert not isinstance(moutard_center(fr, (1.0, 0.0)), AtInfinity)
    with pytest.raises(RankDeficientError):
        solve_evolute_point(fr, 0.0)


def _paraboloid_frame():
    surface = build_surface(load_spec(str(SPECS / "paraboloid.json")))
    return normalize_at(surface, (Fraction(3, 10), Fraction(-1, 5)))


def _sheared_frame():
    """a = 1 and f40 = 5/2, so 2 f40 - 5 a^2 = 0: the Moutard quadric
    of (1, 0) is a paraboloid, with its axis along (-2, 0, 1); the world
    map is a general affine map."""
    fr = frame_from_coefficients(1, 0, f4=(Fraction(5, 2), 0, 0, 0, 0))
    m = [[Fraction(c) for c in row] for row in
         ((2, 1, Fraction(1, 3)), (0, 1, -1), (1, 0, 3))]
    return BlaschkeFrame(fr.normalized,
                         AffineMap3(m, (1, 2, 3), RATIONAL))


@pytest.mark.parametrize("make_frame, theta", [
    (_paraboloid_frame, 0.4), (_sheared_frame, 0.0)])
def test_center_at_infinity_is_the_moutard_direction(make_frame, theta):
    """A root whose center is at infinity reports the Moutard center's
    direction, pulled back to the world chart."""
    fr = to_float_frame(make_frame())
    sol = solve_evolute_point(fr, theta)
    mc = moutard_center(fr, (math.cos(theta), math.sin(theta)))
    assert isinstance(mc, AtInfinity)
    assert sol.center_local.direction == mc.direction
    assert (sol.center_world.direction
            == pull_back_direction(fr, mc.direction))


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


def _relative_gap(exact, approx):
    """Largest component gap over the largest exact component."""
    scale = max(abs(c) for c in exact)
    return float(max(abs(e - Fraction(a)) for e, a in zip(exact, approx))
                 / scale)


@pytest.mark.parametrize("theta, slot, direction", [
    (0.0, 1, (1, 0)),           # f31 = 12ab kills the xi^6 coefficient
    (math.pi / 2, 3, (0, 1)),   # f13 = 12ab kills the eta^6 coefficient
], ids=["theta_0", "theta_pi_2"])
def test_float_center_tracks_exact_moutard_center(theta, slot, direction):
    """On rational frames with an exact sextic root at theta, the float
    center solve and the float Moutard center both match the exact
    Moutard center to round-off."""
    rng = random.Random(23)
    checked = 0
    while checked < 100:
        a, b, *rest = (Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                       for _ in range(13))
        f4 = rest[:5]
        f4[slot] = 12 * a * b
        fr = frame_from_coefficients(a, b, f4=f4, f5=rest[5:], mode=RATIONAL)
        assert direction_sextic(fr).evaluate(*direction) == 0
        exact = moutard_center(fr, direction)
        if isinstance(exact, AtInfinity):
            continue
        sol = solve_evolute_point(fr, theta)
        assert _relative_gap(exact, sol.center_local) <= 1e-12
        float_center = moutard_center(to_float_frame(fr),
                                      tuple(map(float, direction)))
        assert _relative_gap(exact, float_center) <= 1e-12
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


def _turned_surface(surface, phi):
    """The graph turned by phi about the z axis: a chart point p moves
    to R(phi) p.  The patch grows to hold the turned square."""
    c, s = math.cos(phi), math.sin(phi)
    h = surface.height
    xj = Jet2.variable("x", h.order, FLOAT)
    yj = Jet2.variable("y", h.order, FLOAT)
    turned = substitute(h, (xj.scaled(c) + yj.scaled(s),
                            xj.scaled(-s) + yj.scaled(c)))
    r = math.sqrt(2) * max(abs(float(e)) for e in surface.patch)
    return SurfaceModel(turned, (-r, r, -r, r), check_convexity=False)


@pytest.mark.parametrize("make_surface", [
    lambda: SurfaceModel.from_coefficients(  # specs/cubic_six.json
        {(2, 0): 0.5, (0, 2): 0.5, (3, 0): 1.0, (1, 2): -3.0},
        (-0.1, 0.1, -0.1, 0.1), FLOAT),
    lambda: regular_fixture(),
], ids=["cubic_six", "regular_fixture"])
def test_pick_derivative_rotation_covariant(make_surface):
    """|kappa| is a rotation invariant, so turning the graph, the point
    and the stencil direction together leaves the rate unchanged."""
    def turn(v, phi):
        c, s = math.cos(phi), math.sin(phi)
        return (c * v[0] - s * v[1], s * v[0] + c * v[1])

    surface = make_surface()
    for phi in (0.77, 2.0, -1.3):
        turned = _turned_surface(surface, phi)
        for p, w in (((0.02, -0.01), (1.0, 0.0)),
                     ((-0.03, 0.04), (0.6, 0.8)),
                     ((0.05, 0.03), (0.0, 1.0))):
            rate = pick_derivative(surface, p, w)
            assert abs(rate) > 1e-3
            assert pick_derivative(turned, turn(p, phi), turn(w, phi)) \
                == pytest.approx(rate, rel=1e-8)


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
    sample = compute_sample(regular_fixture(), (0, 0), (0.0, 0.0),
                            pick_directions=2)
    sol = min(sample.solutions, key=lambda s: angle_gap(s.theta, 0.0))
    assert sol.theta == pytest.approx(0.0, abs=1e-12)
    assert sol.simple_root
    assert sol.mu_prime == pytest.approx(
        40 + 320 * 0.3 ** 3 - 240 * 0.3 * 0.2, rel=1e-6)
    assert sol.regular is True


def test_regularity_rule_needs_simple_root():
    assert regularity_rule(True, 1.0, (float("nan"), 1.0)) is True
    assert regularity_rule(False, 1.0, (1.0,)) is False
    assert regularity_rule(True, 1e-10, (1.0,)) is False
    assert regularity_rule(True, 1.0, (float("nan"), 1e-7)) is False


def test_regularity_sphere_fails_everything():
    sample = compute_sample(sphere_surface(), (0, 0), (0.01, 0.0),
                            pick_directions=2)
    assert sample.status == "degenerate"
    (sol,) = sample.solutions
    assert not sol.simple_root
    assert abs(sol.mu_prime) < 1e-9
    assert sol.regular is False


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


def _root(theta, simple=True):
    return EvoluteSolution(
        theta=theta, center_local=(0.0, 0.0, 0.0),
        center_world=(0.0, 0.0, 0.0), residuals=None, dropped_index=None,
        d_value=0.0, simple_root=simple, mu_prime=0.0, moutard_gap=None,
    )


def test_label_branches_refuses_two_roots_of_one_point():
    """(1, 1) has two roots; the left link joins its root 0 to the sheet
    of (0, 0), (0, 1) and (1, 0), so the lower link of its root 1 to
    that same sheet is refused.  (2, 0) holds a non-simple root, which
    links to nothing."""
    roots = {(0, 0): [0.1], (0, 1): [0.0], (1, 0): [0.15],
             (1, 1): [0.0, 0.15], (2, 0): [0.15]}
    samples = [
        SamplePoint(idx, idx, "ok",
                    [_root(th, simple=idx != (2, 0)) for th in thetas])
        for idx, thetas in sorted(roots.items())
    ]
    branches = _label_branches(samples)
    assert [[(bs.index, bs.solution.theta) for bs in b.samples]
            for b in branches] == [
        [((0, 0), 0.1), ((0, 1), 0.0), ((1, 0), 0.15), ((1, 1), 0.0)],
        [((1, 1), 0.15)],
        [((2, 0), 0.15)],
    ]
    assert [b.events for b in branches] == [
        ["refused merge with branch 1 at (1, 1)",
         "root count 2 -> 1 at (1, 1)"],
        ["root count 2 -> 1 at (1, 1)",
         "refused merge with branch 0 at (1, 1)"],
        ["non-simple root at (2, 0)"],
    ]
    assert branches[0].max_link_gap == pytest.approx(0.1)
    assert branches[1].link_gaps == branches[2].link_gaps == ()


def test_simple_root_threshold_clears_the_four_six_transition():
    """On cubic_six 21x21 the root count changes 6 <-> 4 along a curve.
    At the six-root samples next to a four-root one, the roots about to
    merge are still far from non-simple: the smallest |dq/dtheta| is
    5.5e-3 of the scale, over 5000 times SIMPLE_ROOT_THRESHOLD, so the
    threshold does not misfire there."""
    surface = build_surface(load_spec(str(SPECS / "cubic_six.json")))
    res = trace_evolute(surface, grid=21, pick_directions=0)
    by_index = {s.index: s for s in res.samples}
    counts = [len(s.solutions) for s in res.samples if s.status == "ok"]
    assert (counts.count(6), counts.count(4), len(res.samples)) == (
        319, 122, 441)
    assert all(sol.simple_root for s in res.samples for sol in s.solutions)
    ratios = []
    for s in res.samples:
        (i, j), roots = s.index, len(s.solutions)
        neighbours = ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1))
        if roots == 6 and any(len(by_index[n].solutions) == 4
                              for n in neighbours if n in by_index):
            sextic = direction_sextic(normalize_at(surface, s.point))
            ratios += [(abs(sextic.theta_derivative(sol.theta))
                        / sextic.scale(), s.index) for sol in s.solutions]
    assert len({index for _, index in ratios}) == 45
    smallest, at = min(ratios)
    assert smallest > 1e-3 and SIMPLE_ROOT_THRESHOLD == 1e-6
    assert at in ((20, 6), (20, 14))
    event = re.compile(r"(.*) at \(\d+, \d+\)(?:, (\d+) times)?")
    events = sorted((b.branch_id, m[1], int(m[2] or 1)) for b in res.branches
                    for m in map(event.fullmatch, b.events))
    assert events == [
        (0, "refused merge with branch 4", 2),
        (1, "root count 6 -> 4", 34),
        (2, "refused merge with branch 5", 2),
        (4, "refused merge with branch 0", 2),
        (4, "root count 6 -> 4", 38),
        (5, "refused merge with branch 2", 2),
        (5, "root count 6 -> 4", 38),
    ]


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
