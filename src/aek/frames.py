"""Reduction of a convex surface patch to Blaschke normal form.

``normalize_at`` rewrites the height function around a chosen point as

    z = (x^2 + y^2)/2 + a(x^3 - 3xy^2) + b(y^3 - 3yx^2) + f4 + f5 + ...

with the cubic part apolar (trace-free against the quadratic), and
keeps the invertible affine map from these local coordinates back to
the world chart, so every invariant computed locally can be pulled
back.  The pipeline is deterministic: symmetric positive square root
for the Hessian step (unique, rotation-equivariant), then the unique
apolarity shear.  Residual rotation freedom is deliberately left to
``rotate_frame``; volume is not normalized (``det_linear`` is reported
as a diagnostic instead).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import NonConvexPointError, NormalizationError, PatchBoundsError
from .geometry import Plane3, Quadric3, direction_pair, unit_direction
from .jets import Jet2, substitute
from .matutil import det3, inv3, matmul3, matvec3, transpose3
from .scalars import (
    FLOAT,
    RATIONAL,
    check_mode,
    coerce,
    join_modes,
    one,
    sqrt_scalar,
    zero,
)

#: a float jet is in normal form when every residual (its terms of degree
#: <= 2 against (x^2 + y^2)/2, and the apolarity pair) is at most this
#: times the jet's scale, max(1, largest |coefficient|)
_FORM_TOL = 1e-8
#: the load-time convexity screen samples the cell centres of an n x n grid
_SCREEN_GRID = 5


@dataclass(frozen=True)
class AffineMap3:
    """Invertible affine map of 3-space; the inverse of the linear part
    is computed on first use."""

    linear: tuple
    translation: tuple
    mode: str

    def __post_init__(self):
        lin = tuple(tuple(row) for row in self.linear)
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "translation", tuple(self.translation))
        if not det3(lin):
            raise ValueError("affine map has singular linear part")

    @classmethod
    def identity(cls, mode: str) -> "AffineMap3":
        o, z = one(mode), zero(mode)
        return cls(((o, z, z), (z, o, z), (z, z, o)), (z, z, z), mode)

    @cached_property
    def inv_linear(self):
        return inv3(self.linear)

    @property
    def det_linear(self):
        return det3(self.linear)

    def compose(self, other: "AffineMap3") -> "AffineMap3":
        """self after other: (self . other)(X) = self(other(X))."""
        join_modes(self.mode, other.mode)
        lin = matmul3(self.linear, other.linear)
        tr = tuple(
            a + b for a, b in zip(matvec3(self.linear, other.translation),
                                  self.translation)
        )
        return AffineMap3(lin, tr, self.mode)

    def inverse(self) -> "AffineMap3":
        it = matvec3(self.inv_linear, self.translation)
        return AffineMap3(
            self.inv_linear, tuple(-c for c in it), self.mode
        )

    def apply_point(self, point):
        return tuple(
            a + b for a, b in zip(matvec3(self.linear, tuple(point)),
                                  self.translation)
        )

    def apply_vector(self, vector):
        return matvec3(self.linear, tuple(vector))

    def apply_plane(self, plane: Plane3) -> Plane3:
        """Covector transforms by the inverse transpose."""
        m = matvec3(transpose3(self.inv_linear), plane.normal)
        d = plane.offset + sum(a * b for a, b in zip(m, self.translation))
        return Plane3(m, d, plane.mode)

    def apply_quadric(self, quadric: Quadric3) -> Quadric3:
        inv = self.inv_linear
        minv = [
            [*inv[i], -sum(inv[i][j] * self.translation[j] for j in range(3))]
            for i in range(3)
        ]
        z = zero(self.mode)
        minv.append([z, z, z, one(self.mode)])
        q = quadric.matrix
        qm = [
            [sum(q[i][k] * minv[k][j] for k in range(4)) for j in range(4)]
            for i in range(4)
        ]
        out = [
            [sum(minv[k][i] * qm[k][j] for k in range(4)) for j in range(4)]
            for i in range(4)
        ]
        # enforce exact symmetry against float drift
        for i in range(4):
            for j in range(i + 1, 4):
                s = (out[i][j] + out[j][i]) / 2
                out[i][j] = out[j][i] = s
        return Quadric3(tuple(tuple(row) for row in out), quadric.mode)


@dataclass(frozen=True)
class SurfaceModel:
    """Polynomial graph z = phi(u, v) over a rectangular patch.

    The patch must be locally convex: the Hessian of phi is checked for
    positive definiteness on an interior sample grid at load time.
    Individual operations still guard their own base points, since the
    grid check is a coarse screen.
    """

    height: Jet2
    patch: tuple
    check_convexity: bool = True

    def __post_init__(self):
        umin, umax, vmin, vmax = self.patch
        if not (umin < umax and vmin < vmax):
            raise ValueError("empty patch rectangle")
        object.__setattr__(self, "patch", (umin, umax, vmin, vmax))
        h = self.height
        object.__setattr__(self, "_hx", h.partial("x"))
        object.__setattr__(self, "_hy", h.partial("y"))
        object.__setattr__(self, "_hxx", self._hx.partial("x"))
        object.__setattr__(self, "_hxy", self._hx.partial("y"))
        object.__setattr__(self, "_hyy", self._hy.partial("y"))
        if self.check_convexity:
            self._screen_convexity()

    @classmethod
    def from_coefficients(cls, coeffs: dict, patch, mode: str,
                          check_convexity: bool = True) -> "SurfaceModel":
        check_mode(mode)
        degree = max((i + j for (i, j) in coeffs), default=2)
        degree = max(degree, 2)
        jet = Jet2.from_terms(coeffs, degree, mode)
        return cls(jet, tuple(patch), check_convexity)

    @property
    def mode(self) -> str:
        return self.height.mode

    def _screen_convexity(self):
        n = _SCREEN_GRID
        umin, umax, vmin, vmax = (float(c) for c in self.patch)
        partials = [p.to_float() for p in (self._hxx, self._hxy, self._hyy)]
        for i in range(n):
            for j in range(n):
                u = umin + (i + 0.5) * (umax - umin) / n
                v = vmin + (j + 0.5) * (vmax - vmin) / n
                if _not_positive_definite(
                        *(p.evaluate((u, v)) for p in partials)):
                    raise NonConvexPointError(
                        f"height Hessian not positive definite near "
                        f"({u:.4g}, {v:.4g})"
                    )

    def contains(self, point) -> bool:
        umin, umax, vmin, vmax = self.patch
        u, v = point
        return umin <= u <= umax and vmin <= v <= vmax

    def value(self, point):
        return self.height.evaluate(point)

    def gradient(self, point):
        return self._hx.evaluate(point), self._hy.evaluate(point)

    def hessian(self, point):
        return (
            self._hxx.evaluate(point),
            self._hxy.evaluate(point),
            self._hyy.evaluate(point),
        )

    def world_point(self, point):
        u, v = point
        return (u, v, self.value(point))

    def to_float(self) -> "SurfaceModel":
        if self.mode == FLOAT:
            return self
        return SurfaceModel(
            self.height.to_float(),
            tuple(float(c) for c in self.patch),
            check_convexity=False,
        )


def _normal_form_terms(mode: str) -> dict:
    """The coefficients of degree <= 2 of a jet in normal form: those of
    (x^2 + y^2)/2."""
    half = coerce(1, mode) / 2
    z = zero(mode)
    return {(0, 0): z, (1, 0): z, (0, 1): z,
            (2, 0): half, (1, 1): z, (0, 2): half}


def _form_tolerance(jet: Jet2):
    """The largest residual a jet in normal form may carry: none on
    Fractions, and on floats :data:`_FORM_TOL` times the jet's scale,
    since round-off grows with the coefficients."""
    if jet.mode == RATIONAL:
        return 0
    return _FORM_TOL * max(jet.max_abs(), 1.0)


def _apolarity_pair(jet: Jet2) -> tuple:
    """(3 f30 + f12, 3 f03 + f21), zero exactly when the cubic part of
    the jet is apolar."""
    return (3 * jet.coefficient(3, 0) + jet.coefficient(1, 2),
            3 * jet.coefficient(0, 3) + jet.coefficient(2, 1))


@dataclass(frozen=True)
class BlaschkeFrame:
    """Normalized order-5 jet plus the world bookkeeping map.

    Invariants: the jet has no constant or linear part, quadratic part
    exactly (x^2 + y^2)/2, and the cubic part is apolar, i.e.
    3*f30 + f12 = 0 and 3*f03 + f21 = 0 (exact in rational mode).  The
    coefficients a, b, f4 and f5 are read from the jet on first use.
    """

    normalized: Jet2
    world_from_local: AffineMap3

    def __post_init__(self):
        jet = self.normalized
        if jet.order != 5:
            raise ValueError("frame jet must have order 5")
        tol = _form_tolerance(jet)
        for e, want in _normal_form_terms(jet.mode).items():
            if abs(jet.coefficient(*e) - want) > tol:
                raise ValueError("jet is not in normal form")
        ap1, ap2 = _apolarity_pair(jet)
        if abs(ap1) > tol or abs(ap2) > tol:
            raise ValueError(f"apolarity residual too large: {ap1}, {ap2}")

    @property
    def mode(self) -> str:
        return self.normalized.mode

    @cached_property
    def a(self):
        return self.normalized.coefficient(3, 0)

    @cached_property
    def b(self):
        return self.normalized.coefficient(0, 3)

    @cached_property
    def f4(self) -> tuple:
        """(f40, f31, f22, f13, f04)."""
        return tuple(self.normalized.coefficient(4 - i, i) for i in range(5))

    @cached_property
    def f5(self) -> tuple:
        """(f50, f41, f32, f23, f14, f05)."""
        return tuple(self.normalized.coefficient(5 - i, i) for i in range(6))

    @property
    def f50(self):
        return self.f5[0]

    @property
    def f30(self):
        return self.a

    @property
    def f21(self):
        return -3 * self.b

    @property
    def f31(self):
        return self.f4[1]

    @property
    def apolarity_residuals(self):
        return _apolarity_pair(self.normalized)

    def cubic_value(self, xi, eta):
        """The cubic form along a tangent direction."""
        return (self.a * (xi**3 - 3 * xi * eta**2)
                + self.b * (eta**3 - 3 * eta * xi**2))


def frame_from_coefficients(a, b, f4=(0, 0, 0, 0, 0), f5=(0, 0, 0, 0, 0, 0),
                            mode: str = RATIONAL) -> BlaschkeFrame:
    """Build a frame directly from normal-form coefficients, with the
    identity as its world map.

    ``f4`` lists (f40, f31, f22, f13, f04); ``f5`` lists
    (f50, f41, f32, f23, f14, f05).  This is the entry point for
    symbolic-rational fixtures, which cannot in general be produced by
    ``normalize_at`` (the Hessian square root leaves Q).
    """
    check_mode(mode)
    a = coerce(a, mode)
    b = coerce(b, mode)
    terms = _normal_form_terms(mode)
    terms.update({(3, 0): a, (1, 2): -3 * a, (0, 3): b, (2, 1): -3 * b})
    for k, row in ((4, f4), (5, f5)):
        terms.update(((k - i, i), c) for i, c in enumerate(row) if c)
    return BlaschkeFrame(Jet2.from_terms(terms, 5, mode),
                         AffineMap3.identity(mode))


def _not_positive_definite(h00, h01, h11) -> bool:
    """True when h00 <= 0 or det <= 0, so the symmetric matrix
    [[h00, h01], [h01, h11]] is not positive definite; exact on
    Fractions.  A NaN entry gives False, so a float overflow is not
    reported as a non-convex point."""
    return h00 <= 0 or h00 * h11 - h01 * h01 <= 0


def _sym_inv_sqrt2(h00, h01, h11, mode: str):
    """Inverse of the symmetric positive square root of a 2x2 SPD matrix."""
    if _not_positive_definite(h00, h01, h11):
        raise NonConvexPointError("Hessian not positive definite")
    det = h00 * h11 - h01 * h01
    if not h01:
        r0 = sqrt_scalar(h00, mode)
        r1 = sqrt_scalar(h11, mode)
        z = zero(mode)
        return (one(mode) / r0, z, one(mode) / r1)
    s = sqrt_scalar(det, mode)
    t = sqrt_scalar(h00 + h11 + 2 * s, mode)
    # sqrt(H) = (H + s I)/t, whose determinant is s
    return (
        (h11 + s) / (s * t),
        -h01 / (s * t),
        (h00 + s) / (s * t),
    )


def _graph_shear(h: Jet2, alpha, beta) -> Jet2:
    """Height function after substituting x -> x + alpha z, y -> y + beta z
    into the graph equation and re-solving for z.

    Fixed point of g = h(x + alpha*g, y + beta*g).  The start g = h is
    right through degree 2 (h has no constant or linear part), and a
    sweep turns an error of degree d into one of degree d + 1, so
    ``order - 2`` sweeps are exact at the jet order.
    """
    order, mode = h.order, h.mode
    xj = Jet2.variable("x", order, mode)
    yj = Jet2.variable("y", order, mode)
    g = h
    for _ in range(order - 2):
        g = substitute(h, (xj + g.scaled(alpha), yj + g.scaled(beta)))
    return g


def _snap_normal_form(jet: Jet2) -> Jet2:
    """Replace the (numerically tiny) low-order residue with exact values.

    A jet with an inf or NaN coefficient overflowed, and has no residue
    to judge: ValueError."""
    if not all(map(math.isfinite, jet.coeffs)):
        raise ValueError("float overflow: a jet coefficient is inf or NaN")
    mode = jet.mode
    tol = _form_tolerance(jet)
    wanted = _normal_form_terms(mode)
    terms = {}
    for e, c in jet.terms():
        if e in wanted:
            if abs(float(c) - float(wanted[e])) > tol:
                raise NonConvexPointError(
                    f"normalization failed to reach normal form at {e}: {c}"
                )
            continue
        terms[e] = c
    for e, w in wanted.items():
        if w:
            terms[e] = w
    return Jet2.from_terms(terms, jet.order, mode)


def normalize_at(surface: SurfaceModel, p0) -> BlaschkeFrame:
    """Blaschke-normalize the surface at chart point ``p0``.

    Steps: recenter and subtract the tangent-plane affine part; apply
    the inverse symmetric square root of the Hessian to the chart so
    the quadratic part becomes (x^2+y^2)/2; shear along z to make the
    cubic part apolar.  In rational mode the Hessian square root must
    exist in Q; a point that cannot be normalized for this or another
    reason (float overflow) raises :class:`NormalizationError`.
    """
    try:
        return _normalize_at(surface, p0)
    except (ValueError, ZeroDivisionError) as exc:
        raise NormalizationError(
            f"cannot normalize at ({p0[0]}, {p0[1]}): {exc}") from None


def _normalize_at(surface: SurfaceModel, p0) -> BlaschkeFrame:
    mode = surface.mode
    p0 = tuple(coerce(c, mode) for c in p0)
    if not surface.contains(p0):
        raise PatchBoundsError(f"point {p0} outside patch {surface.patch}")

    shifted = surface.height.shifted(p0)
    c0 = shifted.coefficient(0, 0)
    gu = shifted.coefficient(1, 0)
    gv = shifted.coefficient(0, 1)
    base = {e: c for e, c in shifted.terms()
            if e not in ((0, 0), (1, 0), (0, 1))}
    h = Jet2.from_terms(base, shifted.order, mode).truncated(5)

    o, z = one(mode), zero(mode)
    map1 = AffineMap3(
        ((o, z, z), (z, o, z), (gu, gv, o)),
        (p0[0], p0[1], c0),
        mode,
    )

    h00 = 2 * h.coefficient(2, 0)
    h01 = h.coefficient(1, 1)
    h11 = 2 * h.coefficient(0, 2)
    s00, s01, s11 = _sym_inv_sqrt2(h00, h01, h11, mode)
    xj = Jet2.variable("x", 5, mode)
    yj = Jet2.variable("y", 5, mode)
    h = substitute(h, (xj.scaled(s00) + yj.scaled(s01),
                       xj.scaled(s01) + yj.scaled(s11)))
    map2 = AffineMap3(
        ((s00, s01, z), (s01, s11, z), (z, z, o)), (z, z, z), mode
    )

    alpha, beta = (-r / 2 for r in _apolarity_pair(h))
    h = _graph_shear(h, alpha, beta)
    map3 = AffineMap3(
        ((o, z, alpha), (z, o, beta), (z, z, o)), (z, z, z), mode
    )

    if mode == FLOAT:
        h = _snap_normal_form(h)
    world_from_local = map1.compose(map2).compose(map3)
    return BlaschkeFrame(h, world_from_local)


def rotate_frame(frame: BlaschkeFrame, theta: float | None = None, *,
                 cos_sin=None) -> BlaschkeFrame:
    """Rotate the local tangent chart.

    The new basis is chosen so that a point with new coordinates P sits
    at old coordinates R(-theta) P; directions therefore transform as
    D_new = R(theta) D_old, and results pulled through the recorded map
    are rotation-covariant.  Rational frames require an exact
    ``cos_sin`` pair with c^2 + s^2 = 1.
    """
    mode = frame.mode
    if cos_sin is None:
        if theta is None:
            raise ValueError("need theta or cos_sin")
        if mode == RATIONAL:
            raise ValueError("rational frames need an exact cos_sin pair")
        import math
        c, s = math.cos(theta), math.sin(theta)
    else:
        c = coerce(cos_sin[0], mode)
        s = coerce(cos_sin[1], mode)
        if mode == RATIONAL and c * c + s * s != 1:
            raise ValueError("cos_sin pair is not on the unit circle")
    jet = frame.normalized
    xj = Jet2.variable("x", 5, mode)
    yj = Jet2.variable("y", 5, mode)
    rotated = substitute(jet, (xj.scaled(c) + yj.scaled(s),
                               xj.scaled(-s) + yj.scaled(c)))
    if mode == FLOAT:
        rotated = _snap_normal_form(rotated)
    o, z = one(mode), zero(mode)
    old_from_new = AffineMap3(
        ((c, s, z), (-s, c, z), (z, z, o)), (z, z, z), mode
    )
    return BlaschkeFrame(rotated,
                         frame.world_from_local.compose(old_from_new))


def _turn(frame: BlaschkeFrame, direction):
    """Unit form (xi, eta) of a tangent direction, exact in rational
    mode, and the rotation taking the chart turned onto it back to the
    frame's own local chart."""
    mode = frame.mode
    xi, eta = unit_direction(direction_pair(direction, mode), mode)
    o, z = one(mode), zero(mode)
    back = AffineMap3(
        ((xi, -eta, z), (eta, xi, z), (z, z, o)), (z, z, z), mode
    )
    return xi, eta, back


def rotate_to(frame: BlaschkeFrame, direction) -> tuple[BlaschkeFrame, AffineMap3]:
    """Rotate so the given tangent direction becomes (1, 0).

    Returns the rotated frame together with the 3-space rotation that
    maps rotated-local coordinates back to the original local chart.
    """
    xi, eta, back = _turn(frame, direction)
    if xi == one(frame.mode) and not eta:
        return frame, AffineMap3.identity(frame.mode)
    return rotate_frame(frame, cos_sin=(xi, -eta)), back


def binary_form(coeffs, x, y):
    """Value of the form sum_i coeffs[i] x^(k-i) y^i of degree k."""
    k = len(coeffs) - 1
    return sum(c * x ** (k - i) * y ** i for i, c in enumerate(coeffs))


def turned_coefficients(frame: BlaschkeFrame, direction):
    """(a, b, f40, f31, f50) of the frame turned so the direction
    becomes (1, 0), and the rotation back as in :func:`rotate_to`.

    A rotation keeps the degree of each homogeneous part, so the turned
    coefficients are values of f3, f4 and f5 at the unit direction d and
    at d_perp = (-eta, xi): a = f3(d), b = f3(d_perp), f40 = f4(d),
    f31 = grad f4(d) . d_perp and f50 = f5(d).  They equal the
    coefficients of ``rotate_to(frame, direction)[0]``, exactly in
    rational mode, without substituting into the jet.
    """
    xi, eta, back = _turn(frame, direction)
    f4 = frame.f4
    f4_x = binary_form([(4 - i) * c for i, c in enumerate(f4[:4])], xi, eta)
    f4_y = binary_form([i * c for i, c in enumerate(f4) if i], xi, eta)
    coeffs = (
        frame.cubic_value(xi, eta),
        frame.cubic_value(-eta, xi),
        binary_form(f4, xi, eta),
        -eta * f4_x + xi * f4_y,
        binary_form(frame.f5, xi, eta),
    )
    return coeffs, back


def pull_back(frame: BlaschkeFrame, obj):
    """Map a local point, plane or quadric to world coordinates."""
    m = frame.world_from_local
    if isinstance(obj, Plane3):
        return m.apply_plane(obj)
    if isinstance(obj, Quadric3):
        return m.apply_quadric(obj)
    return m.apply_point(obj)

def pull_back_direction(frame: BlaschkeFrame, vector):
    return frame.world_from_local.apply_vector(vector)


def push_forward(frame: BlaschkeFrame, obj):
    """Map a world point, plane or quadric to local coordinates."""
    m = frame.world_from_local.inverse()
    if isinstance(obj, Plane3):
        return m.apply_plane(obj)
    if isinstance(obj, Quadric3):
        return m.apply_quadric(obj)
    return m.apply_point(obj)


def to_float_frame(frame: BlaschkeFrame) -> BlaschkeFrame:
    """Float copy of a frame (identity on float frames).

    A rational entry beyond the float range raises
    :class:`NormalizationError`.
    """
    if frame.mode == FLOAT:
        return frame
    m = frame.world_from_local
    try:
        wfl = AffineMap3(
            tuple(tuple(float(c) for c in row) for row in m.linear),
            tuple(float(c) for c in m.translation),
            FLOAT,
        )
        normalized = frame.normalized.to_float()
    except OverflowError as exc:
        raise NormalizationError(
            f"frame has no float copy: {exc}") from None
    return BlaschkeFrame(normalized, wfl)


def random_frame(rng: random.Random, mode: str = RATIONAL,
                 magnitude: int = 4) -> BlaschkeFrame:
    """Random normal-form frame for property sweeps; deterministic per rng."""
    def draw():
        if mode == RATIONAL:
            return Fraction(rng.randint(-magnitude, magnitude),
                            rng.randint(1, magnitude))
        return rng.uniform(-1.0, 1.0)

    return frame_from_coefficients(
        draw(), draw(),
        f4=tuple(draw() for _ in range(5)),
        f5=tuple(draw() for _ in range(6)),
        mode=mode,
    )
