"""Mid-planes of surface point pairs and their collapse expansions.

For a pair p1, p2 on the graph the mid-plane is the plane through the
midpoint that contains the intersection line of the two tangent
planes.  It is the zero set of an affine functional of X = (x, y, z);
the functional here carries a fixed factor of -2 relative to the raw
symmetrized product of tangent covectors, which pins the overall scale
so that the cubic term of its pair-collapse expansion is exactly the
Transon form G (the raw gauge gives -G/2).  Everything downstream
(envelope rows, quartic forms, limit probes) inherits that scale.

The expansion machinery works in exact Jet4 arithmetic, so in rational
mode the structural checks return residuals that are exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DegeneratePairError
from .frames import BlaschkeFrame, SurfaceModel, to_float_frame
from .geometry import Plane3, direction_pair, plane_distance, unit_direction
from .invariants import transon_plane
from .jets import Jet4, LinearFormJet
from .scalars import RATIONAL, coerce, zero

_SCALE = -2  # see module docstring
#: float noise floor of a probe distance
_NOISE_FLOOR = 1e-14


def _as_surface(target) -> SurfaceModel:
    """A frame's normalized jet as an unbounded surface; surfaces pass."""
    if isinstance(target, BlaschkeFrame):
        return SurfaceModel(target.normalized,
                            (-math.inf, math.inf, -math.inf, math.inf),
                            check_convexity=False)
    return target


@dataclass(frozen=True)
class LinearEquation:
    """Affine condition ``coeffs . X = rhs`` on space points."""

    coeffs: tuple
    rhs: object
    mode: str

    def as_plane(self) -> Plane3:
        return Plane3(self.coeffs, self.rhs, self.mode)


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _mid_plane_terms(q1, n1, q2, n2, half):
    """(n1.c, n2.c, w, w.m) of a pair, where w = (n1.c) n2 + (n2.c) n1.

    q1, q2 are the graph points (u, v, f) of the pair, n1, n2 their
    tangent covectors (-f_u, -f_v, 1), c = (q1 - q2)/2 and
    m = (q1 + q2)/2; ``half`` is 1/2 in their mode.  The mid-plane
    functional is _SCALE * (w.X - w.m).  Only + and * are used, so the
    entries may be scalars or Jet4 values.
    """
    c = tuple(half * (x - y) for x, y in zip(q1, q2))
    m = tuple(half * (x + y) for x, y in zip(q1, q2))
    a1, a2 = _dot(n1, c), _dot(n2, c)
    w = tuple(a1 * y + a2 * x for x, y in zip(n1, n2))
    return a1, a2, w, _dot(w, m)


def mid_plane(target, pair) -> Plane3:
    """Mid-plane of a point pair, as a plane in the target's chart."""
    eq = mid_plane_equation(target, pair)
    return eq.as_plane()


def mid_plane_equation(target, pair) -> LinearEquation:
    g = _as_surface(target)
    mode = g.mode
    one = coerce(1, mode)
    sides = []
    for point in pair:
        p = tuple(coerce(c, mode) for c in point)
        gx, gy = g.gradient(p)
        sides += [(*p, g.value(p)), (-gx, -gy, one)]
    a1, a2, w, wm = _mid_plane_terms(*sides, one / 2)
    cov = tuple(_SCALE * x for x in w)
    magnitude = (abs(float(a1)) + abs(float(a2))) * max(
        abs(float(x)) for x in (*sides[1], *sides[3])
    )
    if all(not x if mode == RATIONAL else abs(float(x)) <= 1e-14 * max(magnitude, 1e-300)
           for x in cov):
        raise DegeneratePairError(f"mid-plane covector vanished for pair {pair}")
    return LinearEquation(cov, _SCALE * wm, mode)


# ---------------------------------------------------------------------------
# exact pair-collapse expansions


#: order of the pair expansions: the structural checks read degrees <= 4
_ORDER = 4


@lru_cache(maxsize=None)
def _pair_variables(mode):
    return tuple(Jet4.variable(v, _ORDER, mode) for v in Jet4.varnames)


@lru_cache(maxsize=None)
def _pair_monomials(mode):
    """The cubics (du^3, du^2 dv, du dv^2, dv^3) of the pair chart, and
    the cubics times su, then times sv, where d = p1 - p2 and
    s = p1 + p2: frame-independent, so built once per mode."""
    u1, v1, u2, v2 = _pair_variables(mode)
    du, dv = u1 - u2, v1 - v2
    du2, dv2 = du * du, dv * dv
    cubics = (du * du2, du2 * dv, du * dv2, dv * dv2)
    return cubics, tuple(m * s for s in (u1 + u2, v1 + v2) for m in cubics)


def _forms_jet(forms, monomials) -> LinearFormJet:
    """The sum over ``forms`` of each form's cubics with the next four
    ``monomials`` put for (xi^3, xi^2 eta, xi eta^2, eta^3), as Jet4
    tables; a zero coefficient adds nothing."""
    mode = forms[0].mode

    def combined(field):
        coeffs = [c for form in forms for c in getattr(form, field)]
        return sum((m.scaled(c) for c, m in zip(coeffs, monomials) if c),
                   Jet4.zero(_ORDER, mode))

    return LinearFormJet(cx=combined("coeff_x"), cy=combined("coeff_y"),
                         cz=combined("coeff_z"), c1=-combined("coeff_0"))


def expand_mid_plane(frame: BlaschkeFrame) -> LinearFormJet:
    """Expansion of the mid-plane functional in the pair coordinates.

    Returns an affine-in-X form whose four coefficients are exact Jet4
    tables in (u1, v1, u2, v2), through total degree 4.
    """
    mode = frame.mode
    u1, v1, u2, v2 = _pair_variables(mode)
    f = frame.normalized
    fx = f.partial("x")
    fy = f.partial("y")
    one = Jet4.constant(1, _ORDER, mode)
    sides = []
    for point, (u, v) in enumerate(((u1, v1), (u2, v2))):
        sides += [(u, v, f.in_pair_chart(point, _ORDER)),
                  (-fx.in_pair_chart(point, _ORDER),
                   -fy.in_pair_chart(point, _ORDER), one)]
    _, _, w, wm = _mid_plane_terms(*sides, coerce(1, mode) / 2)
    return LinearFormJet(
        cx=w[0].scaled(_SCALE),
        cy=w[1].scaled(_SCALE),
        cz=w[2].scaled(_SCALE),
        c1=wm.scaled(-_SCALE),
    )


@dataclass(frozen=True)
class DirectionalForm:
    """Affine-in-X form whose coefficients are cubics in a direction.

    Each field holds the four coefficients of a homogeneous cubic in
    (xi, eta), listed as (xi^3, xi^2 eta, xi eta^2, eta^3).  The form
    reads coeff_x*x + coeff_y*y + coeff_z*z - coeff_0.
    """

    coeff_x: tuple
    coeff_y: tuple
    coeff_z: tuple
    coeff_0: tuple
    mode: str

    def _eval_cubic(self, coeffs, xi, eta):
        c0, c1, c2, c3 = coeffs
        return (c0 * xi ** 3 + c1 * xi * xi * eta
                + c2 * xi * eta * eta + c3 * eta ** 3)

    def at_direction(self, xi, eta) -> LinearEquation:
        xi = coerce(xi, self.mode)
        eta = coerce(eta, self.mode)
        return LinearEquation(
            (
                self._eval_cubic(self.coeff_x, xi, eta),
                self._eval_cubic(self.coeff_y, xi, eta),
                self._eval_cubic(self.coeff_z, xi, eta),
            ),
            self._eval_cubic(self.coeff_0, xi, eta),
            self.mode,
        )

    def as_jet(self) -> LinearFormJet:
        """The form on the pair difference (du, dv), as Jet4 tables."""
        return _forms_jet((self,), _pair_monomials(self.mode)[0])


def transon_form(frame: BlaschkeFrame) -> DirectionalForm:
    """The Transon form G, whose value at (xi, eta) is the plane
    (xi^2+eta^2)/2 (xi x + eta y) + f3(xi, eta) z = 0 of
    :func:`~aek.invariants.transon_plane`; on the pair difference it is
    the cubic term of the mid-plane expansion."""
    mode = frame.mode
    a, b = frame.a, frame.b
    half = coerce(1, mode) / 2
    z = zero(mode)
    return DirectionalForm(
        coeff_x=(half, z, half, z),
        coeff_y=(z, half, z, half),
        coeff_z=(a, -3 * b, -3 * a, b),
        coeff_0=(z, z, z, z),
        mode=mode,
    )


def pair_sum_forms(frame: BlaschkeFrame):
    """The two forms multiplying (u1+u2) and (v1+v2) in the order-4
    part of the mid-plane expansion."""
    mode = frame.mode
    a, b = frame.a, frame.b
    f40, f31, f22, f13, f04 = frame.f4
    quarter = coerce(1, mode) / 4
    z = zero(mode)
    form_u = DirectionalForm(
        coeff_x=(5 * a / 2, -3 * b, 3 * a / 2, -2 * b),
        coeff_y=(-3 * b / 2, z, -9 * b / 2, -3 * a),
        coeff_z=(2 * f40, 3 * f31 / 2, f22, f13 / 2),
        coeff_0=(quarter, z, quarter, z),
        mode=mode,
    )
    form_v = DirectionalForm(
        coeff_x=(-3 * b, -9 * a / 2, z, -3 * a / 2),
        coeff_y=(-2 * a, 3 * b / 2, -3 * a, 5 * b / 2),
        coeff_z=(f31 / 2, f22, 3 * f13 / 2, 2 * f04),
        coeff_0=(z, quarter, z, quarter),
        mode=mode,
    )
    return form_u, form_v


@dataclass(frozen=True)
class ExpansionReport:
    """Residual summary of a structural expansion check."""

    max_abs_residual: float
    exact: bool

    @property
    def passed(self) -> bool:
        return self.exact or self.max_abs_residual < 1e-12


def _residual_report(diff: LinearFormJet, degrees) -> ExpansionReport:
    """The largest entry of the diff's parts of the given degrees, and
    whether they all vanish; each jet of the diff is read once."""
    sizes = [p.graded_sizes() for p in (diff.cx, diff.cy, diff.cz, diff.c1)]
    worst = 0.0
    exact = True
    for d in degrees:
        worst = max(worst, max(s[d][0] for s in sizes))
        exact = exact and all(s[d][1] for s in sizes)
    return ExpansionReport(worst, exact and diff.mode == RATIONAL)


def check_cubic_term(frame: BlaschkeFrame,
                     expansion: LinearFormJet) -> ExpansionReport:
    """The frame's mid-plane ``expansion`` agrees with the Transon form
    through total degree 3 (exactly, in rational mode)."""
    diff = expansion - transon_form(frame).as_jet()
    return _residual_report(diff, (0, 1, 2, 3))


def check_quartic_term(frame: BlaschkeFrame,
                       expansion: LinearFormJet) -> ExpansionReport:
    """The degree-4 part of the frame's mid-plane ``expansion`` equals
    form_u(du, dv, X) * (u1+u2) + form_v(du, dv, X) * (v1+v2)."""
    predicted = _forms_jet(pair_sum_forms(frame),
                           _pair_monomials(frame.mode)[1])
    return _residual_report(expansion - predicted, (4,))


# ---------------------------------------------------------------------------
# numerical collapse probes


@dataclass(frozen=True)
class ProbeReport:
    t_values: tuple
    distances: tuple
    fitted_order: float


def fit_order(t_values, distances) -> float:
    """Least-squares slope of log(distance) against log(t).

    Distances at or below the float noise floor are excluded; if all
    are, the probe converged faster than measurable and the order is
    reported as infinity.
    """
    pts = [
        (math.log(float(t)), math.log(float(d)))
        for t, d in zip(t_values, distances)
        if d > _NOISE_FLOOR
    ]
    if len(pts) < 2:
        return math.inf
    n = len(pts)
    sx = sum(p[0] for p in pts)
    sy = sum(p[1] for p in pts)
    sxx = sum(p[0] * p[0] for p in pts)
    sxy = sum(p[0] * p[1] for p in pts)
    denom = n * sxx - sx * sx
    if denom == 0:
        return math.inf
    return (n * sxy - sx * sy) / denom


def midplane_limit_probe(frame: BlaschkeFrame, direction, t_values) -> ProbeReport:
    """Distance from the mid-plane of a shrinking symmetric pair to the
    Transon plane of the collapse direction.

    Pairs are centered on the base point so the pair-sum terms vanish
    and the cubic-order convergence is measured cleanly.
    """
    xi, eta = unit_direction(direction_pair(direction))
    frame_f = to_float_frame(frame)
    target = transon_plane(frame_f, (xi, eta)).to_float()
    distances = []
    for t in t_values:
        t = float(t)
        p1 = (t * xi / 2, t * eta / 2)
        p2 = (-t * xi / 2, -t * eta / 2)
        plane = mid_plane(frame_f, (p1, p2))
        distances.append(plane_distance(plane, target))
    return ProbeReport(
        tuple(float(t) for t in t_values),
        tuple(distances),
        fit_order(t_values, distances),
    )

