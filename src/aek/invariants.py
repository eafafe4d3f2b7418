"""Classical pointwise invariants of a normalized convex surface jet.

All operations take a :class:`~aek.frames.BlaschkeFrame`.  Directions
other than (1, 0) are handled by turning the frame onto the direction,
applying the closed forms for the distinguished direction, and rotating
the result back; the rotation is recorded so world pull-backs stay
consistent.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateConeError
from .frames import BlaschkeFrame, rotate_to, turned_coefficients
from .geometry import AtInfinity, Plane3, Quadric3, as_direction
from .jets import Jet2, substitute
from .scalars import coerce, zero

_INFINITY_TOL = 1e-13


@dataclass(frozen=True)
class SectionJet:
    """Planar section as a graph z = x^2/2 + a3/6 x^3 + a4/24 x^4 + a5/120 x^5."""

    a3: object
    a4: object
    a5: object
    mode: str


def _direction_scalars(frame: BlaschkeFrame, direction):
    d = as_direction(direction, frame.mode)
    return coerce(d.xi, frame.mode), coerce(d.eta, frame.mode)


def section_projection(frame: BlaschkeFrame, lam) -> SectionJet:
    """Section of the graph by the plane y = lam*z, projected to (x, z).

    The section curve solves y = lam * f(x, y); the solve is a jet
    fixed point (each sweep gains at least one order).
    """
    mode = frame.mode
    lam = coerce(lam, mode)
    f = frame.normalized
    xj = Jet2.variable("x", 5, mode)
    ys = Jet2.zero(5, mode)
    for _ in range(5):
        ys = substitute(f, (xj, ys)).scaled(lam)
    g = substitute(f, (xj, ys))
    return SectionJet(
        a3=6 * g.coefficient(3, 0),
        a4=24 * g.coefficient(4, 0),
        a5=120 * g.coefficient(5, 0),
        mode=mode,
    )


def transon_plane(frame: BlaschkeFrame, direction) -> Plane3:
    """Plane of affine normals of all sections through the direction."""
    xi, eta = _direction_scalars(frame, direction)
    n2 = xi * xi + eta * eta
    return Plane3(
        (xi * n2 / 2, eta * n2 / 2, frame.cubic_value(xi, eta)),
        zero(frame.mode),
        frame.mode,
    )


def transon_gradients(frame: BlaschkeFrame, direction):
    """Covectors of the direction-derivatives of the Transon form.

    Returns (g_xi, g_eta); each row is a plane-through-origin covector.
    Their common line is the ruling of the cone swept by the Transon
    planes as the direction varies.
    """
    xi, eta = _direction_scalars(frame, direction)
    a, b = frame.a, frame.b
    f3_xi = 3 * a * (xi * xi - eta * eta) - 6 * b * xi * eta
    f3_eta = -6 * a * xi * eta + 3 * b * (eta * eta - xi * xi)
    g_xi = ((3 * xi * xi + eta * eta) / 2, xi * eta, f3_xi)
    g_eta = (xi * eta, (xi * xi + 3 * eta * eta) / 2, f3_eta)
    return g_xi, g_eta


def su_cone_direction(frame: BlaschkeFrame, direction):
    """Direction vector of the cone ruling for a tangent direction.

    Computed as the cross product of the two Transon gradient covectors
    and scaled so the vertical component is 1 when nonzero.
    """
    g1, g2 = transon_gradients(frame, direction)
    s = (
        g1[1] * g2[2] - g1[2] * g2[1],
        g1[2] * g2[0] - g1[0] * g2[2],
        g1[0] * g2[1] - g1[1] * g2[0],
    )
    scale = max(abs(float(c)) for c in g1 + g2) or 1.0
    if all(abs(float(c)) <= 1e-14 * scale * scale for c in s):
        raise DegenerateConeError(
            f"parallel gradient planes for direction {direction}"
        )
    if s[2]:
        s = (s[0] / s[2], s[1] / s[2], s[2] / s[2])
    return s


def moutard_quadric(frame: BlaschkeFrame, direction) -> Quadric3:
    """Quadric swept by the osculating conics of sections through T.

    For T = (1, 0) the locus is
    z = (x^2+y^2)/2 + 2 f21 y z + 2 f30 x z + 4 (f40 - 2 f30^2) z^2;
    other directions are rotated onto this one.
    """
    (a, b, f40, _, _), back = turned_coefficients(frame, direction)
    mode = frame.mode
    f30, f21 = a, -3 * b
    half = coerce(1, mode) / 2
    z = zero(mode)
    q = Quadric3(
        (
            (half, z, f30, z),
            (z, half, f21, z),
            (f30, f21, 4 * (f40 - 2 * f30 * f30), -half),
            (z, z, -half, z),
        ),
        mode,
    )
    return back.apply_quadric(q)


def moutard_center(frame: BlaschkeFrame, direction):
    """Center of the Moutard quadric, or AtInfinity if it is a paraboloid."""
    (a, b, f40, _, _), back = turned_coefficients(frame, direction)
    num = (-2 * a, 6 * b, coerce(1, frame.mode))
    den = 4 * (2 * f40 - 5 * a * a - 9 * b * b)
    scale = 4 * (2 * abs(float(f40)) + 5 * float(a) ** 2 + 9 * float(b) ** 2)
    if not den or abs(float(den)) <= _INFINITY_TOL * max(1.0, scale):
        return AtInfinity(back.apply_vector(num))
    return back.apply_point(tuple(c / den for c in num))


def affine_curvature(section: SectionJet):
    """Equi-affine curvature of the planar graph at its base point."""
    a3 = coerce(section.a3, section.mode)
    a4 = coerce(section.a4, section.mode)
    return (3 * a4 - 5 * a3 * a3) / 9


def affine_curvature_derivative(section: SectionJet):
    """Derivative of the affine curvature in affine arc length."""
    a3 = coerce(section.a3, section.mode)
    a4 = coerce(section.a4, section.mode)
    a5 = coerce(section.a5, section.mode)
    return (9 * a5 + 40 * a3 ** 3 - 45 * a3 * a4) / 27


def center_of_affine_curvature(frame: BlaschkeFrame, direction):
    """Center of affine curvature of the section spanned by T and the
    cone ruling s(T); coincides with the Moutard center.

    Computed along an independent route from :func:`moutard_center`:
    extract the planar section jet, apply the planar curvature formula,
    and step 1/mu along the section's affine normal inside its plane.
    """
    rot, back = rotate_to(frame, direction)
    lam = 6 * rot.b  # the plane y = lam z contains (1,0) and s(1,0)
    section = section_projection(rot, lam)
    mu = affine_curvature(section)
    normal_2d = (-section.a3 / 3, coerce(1, rot.mode))
    # embed the (x, z) projection plane back into the section plane
    direction_3d = (normal_2d[0], lam * normal_2d[1], normal_2d[1])
    if not mu or abs(float(mu)) <= _INFINITY_TOL * max(
            1.0, abs(float(section.a4)), float(section.a3) ** 2):
        return AtInfinity(back.apply_vector(direction_3d))
    return back.apply_point(tuple(c / mu for c in direction_3d))
