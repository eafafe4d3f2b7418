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

from .errors import DegeneratePairError
from .frames import BlaschkeFrame, SurfaceModel, to_float_frame
from .geometry import Plane3, as_direction, plane_distance
from .jets import Jet4, LinearFormJet, substitute
from .scalars import FLOAT, RATIONAL, coerce, zero

_SCALE = -2  # see module docstring


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

    def value(self, point):
        n1, n2, n3 = self.coeffs
        x, y, z = point
        return n1 * x + n2 * y + n3 * z - self.rhs

    def scaled(self, factor):
        return LinearEquation(
            tuple(factor * c for c in self.coeffs), factor * self.rhs, self.mode
        )

    def as_plane(self) -> Plane3:
        return Plane3(self.coeffs, self.rhs, self.mode)

    def max_abs(self) -> float:
        return max(abs(float(c)) for c in (*self.coeffs, self.rhs))


def equation_distance(e1: LinearEquation, e2: LinearEquation) -> float:
    """Scale-free gap between two affine conditions (see plane_distance)."""
    if e1.max_abs() == 0.0 and e2.max_abs() == 0.0:
        return 0.0
    return plane_distance(e1.as_plane(), e2.as_plane())


@dataclass(frozen=True)
class EnvelopeSystem:
    """The five envelope conditions at a concrete pair.

    Rows: the mid-plane functional itself, then the difference and sum
    combinations of its first partials in the two base points:
    (F, F_u1 - F_u2, F_v1 - F_v2, F_u1 + F_u2, F_v1 + F_v2).
    """

    rows: tuple
    pair: tuple
    mode: str


def _pair_points(pair):
    (u1, v1), (u2, v2) = pair
    return (u1, v1), (u2, v2)


def mid_plane(target, pair) -> Plane3:
    """Mid-plane of a point pair, as a plane in the target's chart."""
    eq = mid_plane_equation(target, pair)
    return eq.as_plane()


def mid_plane_equation(target, pair) -> LinearEquation:
    g = _as_surface(target)
    mode = g.mode
    p1, p2 = _pair_points(pair)
    p1 = tuple(coerce(c, mode) for c in p1)
    p2 = tuple(coerce(c, mode) for c in p2)
    f1, f2 = g.value(p1), g.value(p2)
    gx1, gy1 = g.gradient(p1)
    gx2, gy2 = g.gradient(p2)
    n1 = (-gx1, -gy1, coerce(1, mode))
    n2 = (-gx2, -gy2, coerce(1, mode))
    c = ((p1[0] - p2[0]) / 2, (p1[1] - p2[1]) / 2, (f1 - f2) / 2)
    m = ((p1[0] + p2[0]) / 2, (p1[1] + p2[1]) / 2, (f1 + f2) / 2)
    a1 = sum(x * y for x, y in zip(n1, c))
    a2 = sum(x * y for x, y in zip(n2, c))
    w = tuple(a1 * q + a2 * p for p, q in zip(n1, n2))
    cov = tuple(_SCALE * x for x in w)
    rhs = _SCALE * sum(x * y for x, y in zip(w, m))
    magnitude = (abs(float(a1)) + abs(float(a2))) * max(
        abs(float(x)) for x in (*n1, *n2)
    )
    if all(not x if mode == RATIONAL else abs(float(x)) <= 1e-14 * max(magnitude, 1e-300)
           for x in cov):
        raise DegeneratePairError(f"mid-plane covector vanished for pair {pair}")
    return LinearEquation(cov, rhs, mode)


def envelope_system(target, pair) -> EnvelopeSystem:
    """Exact first-order envelope conditions at a concrete pair.

    The partials of the mid-plane functional with respect to the four
    chart coordinates are differentiated in closed form (the functional
    is polynomial in the pair and affine-linear in X), then combined
    into the difference/sum rows.
    """
    g = _as_surface(target)
    mode = g.mode
    p1, p2 = _pair_points(pair)
    p1 = tuple(coerce(c, mode) for c in p1)
    p2 = tuple(coerce(c, mode) for c in p2)
    one = coerce(1, mode)
    f1, f2 = g.value(p1), g.value(p2)
    gx1, gy1 = g.gradient(p1)
    gx2, gy2 = g.gradient(p2)
    hxx1, hxy1, hyy1 = g.hessian(p1)
    hxx2, hxy2, hyy2 = g.hessian(p2)
    n1 = (-gx1, -gy1, one)
    n2 = (-gx2, -gy2, one)
    c = ((p1[0] - p2[0]) / 2, (p1[1] - p2[1]) / 2, (f1 - f2) / 2)
    m = ((p1[0] + p2[0]) / 2, (p1[1] + p2[1]) / 2, (f1 + f2) / 2)

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    a1, a2 = dot(n1, c), dot(n2, c)
    # affine functions of X as (covector, constant): value = cov.X + const
    b1 = (n1, -dot(n1, m))
    b2 = (n2, -dot(n2, m))

    def lin_comb(*pairs):
        cov = tuple(
            sum(s * f[0][i] for s, f in pairs) for i in range(3)
        )
        const = sum(s * f[1] for s, f in pairs)
        return cov, const

    def row_from(aff):
        cov, const = aff
        return LinearEquation(
            tuple(_SCALE * x for x in cov), -_SCALE * const, mode
        )

    base = lin_comb((a1, b2), (a2, b1))
    rows = [row_from(base)]

    # derivative data per variable: (dN1, dN2, dC, dM)
    half = one / 2
    z = zero(mode)
    variants = {
        "u1": ((-hxx1, -hxy1, z), None, (half, z, gx1 / 2), (half, z, gx1 / 2)),
        "v1": ((-hxy1, -hyy1, z), None, (z, half, gy1 / 2), (z, half, gy1 / 2)),
        "u2": (None, (-hxx2, -hxy2, z), (-half, z, -gx2 / 2), (half, z, gx2 / 2)),
        "v2": (None, (-hxy2, -hyy2, z), (z, -half, -gy2 / 2), (z, half, gy2 / 2)),
    }

    partials = {}
    for var, (dn1, dn2, dc, dm) in variants.items():
        dn1 = dn1 or (z, z, z)
        dn2 = dn2 or (z, z, z)
        da1 = dot(dn1, c) + dot(n1, dc)
        da2 = dot(dn2, c) + dot(n2, dc)
        db1 = (dn1, -dot(dn1, m) - dot(n1, dm))
        db2 = (dn2, -dot(dn2, m) - dot(n2, dm))
        total = lin_comb((da1, b2), (a1, db2), (da2, b1), (a2, db1))
        partials[var] = total

    for sign in (-1, 1):
        for du, dv in (("u1", "u2"), ("v1", "v2")):
            cov = tuple(
                partials[du][0][i] + sign * partials[dv][0][i] for i in range(3)
            )
            const = partials[du][1] + sign * partials[dv][1]
            rows.append(row_from((cov, const)))
    # assembled order: F, u-diff, v-diff, u-sum, v-sum
    return EnvelopeSystem(tuple(rows), (p1, p2), mode)


# ---------------------------------------------------------------------------
# exact pair-collapse expansions


def _pair_variables(order, mode):
    return tuple(Jet4.variable(v, order, mode) for v in Jet4.varnames)


def expand_mid_plane(frame: BlaschkeFrame, order: int = 4) -> LinearFormJet:
    """Expansion of the mid-plane functional in the pair coordinates.

    Returns an affine-in-X form whose four coefficients are exact Jet4
    tables in (u1, v1, u2, v2).  Order 4 captures everything the
    structural checks need; order 5 is available for remainder bounds.
    """
    mode = frame.mode
    u1, v1, u2, v2 = _pair_variables(order, mode)
    f = frame.normalized
    fx = f.partial("x")
    fy = f.partial("y")

    f_1 = substitute(f, (u1, v1))
    f_2 = substitute(f, (u2, v2))
    one = Jet4.constant(1, order, mode)
    n1 = (-substitute(fx, (u1, v1)), -substitute(fy, (u1, v1)), one)
    n2 = (-substitute(fx, (u2, v2)), -substitute(fy, (u2, v2)), one)
    half = coerce(1, mode) / 2
    c = ((u1 - u2).scaled(half), (v1 - v2).scaled(half), (f_1 - f_2).scaled(half))
    m = ((u1 + u2).scaled(half), (v1 + v2).scaled(half), (f_1 + f_2).scaled(half))

    def dot(u, v):
        return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]

    a1, a2 = dot(n1, c), dot(n2, c)
    w = tuple(a1 * n2[i] + a2 * n1[i] for i in range(3))
    return LinearFormJet(
        cx=w[0].scaled(_SCALE),
        cy=w[1].scaled(_SCALE),
        cz=w[2].scaled(_SCALE),
        c1=dot(w, m).scaled(-_SCALE),
    )


def transon_form_jet(frame: BlaschkeFrame, order: int = 4) -> LinearFormJet:
    """The Transon form G evaluated on the pair difference (du, dv)."""
    mode = frame.mode
    u1, v1, u2, v2 = _pair_variables(order, mode)
    du, dv = u1 - u2, v1 - v2
    half = coerce(1, mode) / 2
    norm = du * du + dv * dv
    a, b = frame.a, frame.b
    du2, dv2 = du * du, dv * dv
    cubic = (du * du2).scaled(a) - (du * dv2).scaled(3 * a) \
        + (dv * dv2).scaled(b) - (dv * du2).scaled(3 * b)
    return LinearFormJet(
        cx=(du * norm).scaled(half),
        cy=(dv * norm).scaled(half),
        cz=cubic,
        c1=Jet4.zero(order, mode),
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

    def _cubic_jet(self, coeffs, du: Jet4, dv: Jet4) -> Jet4:
        du2, dv2 = du * du, dv * dv
        return ((du * du2).scaled(coeffs[0]) + (du2 * dv).scaled(coeffs[1])
                + (du * dv2).scaled(coeffs[2]) + (dv * dv2).scaled(coeffs[3]))

    def as_jet(self, du: Jet4, dv: Jet4) -> LinearFormJet:
        return LinearFormJet(
            cx=self._cubic_jet(self.coeff_x, du, dv),
            cy=self._cubic_jet(self.coeff_y, du, dv),
            cz=self._cubic_jet(self.coeff_z, du, dv),
            c1=-self._cubic_jet(self.coeff_0, du, dv),
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
    degree: int

    @property
    def passed(self) -> bool:
        return self.exact or self.max_abs_residual < 1e-12


def _residual_report(diff: LinearFormJet, degrees) -> ExpansionReport:
    worst = 0.0
    exact = True
    for d in degrees:
        part = diff.graded_part(d)
        m = part.max_abs()
        worst = max(worst, m)
        if not part.is_zero():
            exact = False
    return ExpansionReport(worst, exact and diff.mode == RATIONAL, max(degrees))


def _cubic_report(frame: BlaschkeFrame,
                  expansion: LinearFormJet) -> ExpansionReport:
    diff = expansion - transon_form_jet(frame, 4)
    return _residual_report(diff, (0, 1, 2, 3))


def _quartic_report(frame: BlaschkeFrame,
                    expansion: LinearFormJet) -> ExpansionReport:
    mode = frame.mode
    u1, v1, u2, v2 = _pair_variables(4, mode)
    du, dv = u1 - u2, v1 - v2
    su, sv = u1 + u2, v1 + v2
    form_u, form_v = pair_sum_forms(frame)
    ju = form_u.as_jet(du, dv)
    jv = form_v.as_jet(du, dv)
    predicted = LinearFormJet(
        cx=ju.cx * su + jv.cx * sv,
        cy=ju.cy * su + jv.cy * sv,
        cz=ju.cz * su + jv.cz * sv,
        c1=ju.c1 * su + jv.c1 * sv,
    )
    diff = expansion.graded_part(4) - predicted.graded_part(4)
    return _residual_report(diff, (4,))


def check_cubic_term(frame: BlaschkeFrame) -> ExpansionReport:
    """Pair-collapse expansion agrees with the Transon form through
    total degree 3 (exactly, in rational mode)."""
    return _cubic_report(frame, expand_mid_plane(frame, 4))


def check_quartic_term(frame: BlaschkeFrame) -> ExpansionReport:
    """The degree-4 part of the expansion equals
    form_u(du, dv, X) * (u1+u2) + form_v(du, dv, X) * (v1+v2)."""
    return _quartic_report(frame, expand_mid_plane(frame, 4))


def check_expansion_terms(frame: BlaschkeFrame):
    """(:func:`check_cubic_term`, :func:`check_quartic_term`) of the
    frame, from one expansion of its mid-plane functional."""
    expansion = expand_mid_plane(frame, 4)
    return _cubic_report(frame, expansion), _quartic_report(frame, expansion)


# ---------------------------------------------------------------------------
# numerical collapse probes


@dataclass(frozen=True)
class ProbeReport:
    t_values: tuple
    distances: tuple
    fitted_order: float

    @property
    def converged(self) -> bool:
        return self.fitted_order >= 0.9 or all(
            d <= 1e-14 for d in self.distances
        )


def fit_order(t_values, distances, floor: float = 1e-14) -> float:
    """Least-squares slope of log(distance) against log(t).

    Distances at or below the float noise floor are excluded; if all
    are, the probe converged faster than measurable and the order is
    reported as infinity.
    """
    pts = [
        (math.log(float(t)), math.log(float(d)))
        for t, d in zip(t_values, distances)
        if d > floor
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
    from .invariants import transon_plane

    d = as_direction(direction, FLOAT)
    xi, eta = d.unit()
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


def envelope_limit_probe(frame: BlaschkeFrame, direction, t_values,
                         center=(0.3, -0.2)) -> dict:
    """Convergence of the scaled envelope rows to their limit forms.

    Pairs have difference t*(xi, eta) and sum t*center, so every row
    has a nonzero limit generically.  Rows 2-3 scale by t^2 toward
    twice the Transon gradients; rows 4-5 scale by t^3 toward twice
    the pair-sum forms.
    """
    from .invariants import transon_gradients

    d = as_direction(direction, FLOAT)
    xi, eta = d.unit()
    frame_f = to_float_frame(frame)
    g_xi, g_eta = transon_gradients(frame_f, (xi, eta))
    form_u, form_v = pair_sum_forms(frame_f)
    targets = [
        LinearEquation(tuple(2 * c for c in g_xi), 0.0, FLOAT),
        LinearEquation(tuple(2 * c for c in g_eta), 0.0, FLOAT),
        form_u.at_direction(xi, eta).scaled(2),
        form_v.at_direction(xi, eta).scaled(2),
    ]
    rows_distances = [[] for _ in range(4)]
    for t in t_values:
        t = float(t)
        cu, cv = center[0] * t / 2, center[1] * t / 2
        p1 = (cu + t * xi / 2, cv + t * eta / 2)
        p2 = (cu - t * xi / 2, cv - t * eta / 2)
        system = envelope_system(frame_f, (p1, p2))
        scaled = [
            system.rows[1].scaled(1 / t ** 2),
            system.rows[2].scaled(1 / t ** 2),
            system.rows[3].scaled(1 / t ** 3),
            system.rows[4].scaled(1 / t ** 3),
        ]
        for k in range(4):
            rows_distances[k].append(equation_distance(scaled[k], targets[k]))
    return {
        "t_values": tuple(float(t) for t in t_values),
        "rows": tuple(
            ProbeReport(tuple(float(t) for t in t_values), tuple(ds),
                        fit_order(t_values, ds))
            for ds in rows_distances
        ),
    }

