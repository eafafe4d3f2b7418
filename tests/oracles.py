"""Independent oracles and fixtures shared by the test suite.

Everything here deliberately avoids the package's jet arithmetic: the
point is to check that machinery against evaluation-only computations
(exact interpolation, quadrature, finite-difference stencils with
self-derived weights), or, for the Pick rate, a closed form read off
one frame that checks the package's stencil of nearby normalizations.
The Blaschke normalization, the frame rotation and the planar section
by whole-jet substitution are the references the package's graded
routes are checked against.  So are the plain loops of the jet kernels:
the recentering term by term and the dense rational ring rules.  A few
helpers that only tests need live here too: the jet truncation, the
graded parts of a jet and of a linear form, the inverse of an affine
map and the push-forward of a frame, a surface without the load-time
convexity screen, the values of equations and quadrics at a point, the
five envelope conditions at a pair with the probe of their limits, and
the four limit conditions at a direction with their residuals and gap
at a solved center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

from aek.frames import (
    AffineMap3,
    BlaschkeFrame,
    SurfaceModel,
    _apolarity_pair,
    _snap_normal_form,
    _sym_inv_sqrt2,
    graded_parts,
    to_float_frame,
)
from aek.geometry import (
    AtInfinity,
    Plane3,
    Quadric3,
    direction_pair,
    plane_distance,
    unit_direction,
)
from aek.invariants import SectionJet, moutard_center, transon_gradients
from aek.jets import (
    Jet2, Jet4, LinearFormJet, _exponents, _pair_table, substitute,
)
from aek.matutil import inv3, matvec3
from aek.midplanes import (
    _SCALE,
    LinearEquation,
    _as_surface,
    _mid_plane_terms,
    fit_order,
    pair_sum_forms,
)
from aek.scalars import FLOAT, coerce, one, zero


# ---------------------------------------------------------------------------
# classic fixtures

#: 1 - sqrt(1 - t) = sum_k catalan(k-1)/2^(2k-1) t^k
_CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]


def sqrt_graph_series(n_terms: int):
    """Taylor coefficients (in t) of 1 - sqrt(1 - t), exact."""
    return [Fraction(0)] + [
        Fraction(_CATALAN[k - 1], 2 ** (2 * k - 1)) for k in range(1, n_terms)
    ]


def sphere_coefficients(degree: int = 16, as_float: bool = False) -> dict:
    """Height polynomial of the unit sphere graph to the given degree."""
    coeffs = {}
    for k in range(1, degree // 2 + 1):
        ck = Fraction(_CATALAN[k - 1], 2 ** (2 * k - 1))
        for i in range(k + 1):
            e = (2 * i, 2 * (k - i))
            coeffs[e] = coeffs.get(e, Fraction(0)) + ck * math.comb(k, i)
    if as_float:
        return {e: float(c) for e, c in coeffs.items()}
    return coeffs


def sphere_surface(patch=(-0.05, 0.05, -0.05, 0.05), mode=FLOAT,
                   degree: int = 16) -> SurfaceModel:
    return SurfaceModel.from_coefficients(
        sphere_coefficients(degree, as_float=(mode == FLOAT)), patch, mode
    )


def turned_graph_coefficients(coeffs: dict, phi: float) -> dict:
    """Spec coefficients of p(c u + s v, -s u + c v): the graph turned by
    phi."""
    c, s = math.cos(phi), math.sin(phi)
    out = {}
    for key, coef in coeffs.items():
        i, j = (int(p) for p in key.split(","))
        for k in range(i + 1):
            for m in range(j + 1):
                e = f"{i - k + j - m},{k + m}"
                out[e] = out.get(e, 0.0) + (
                    coef * math.comb(i, k) * math.comb(j, m)
                    * c ** (i - k) * s ** k * (-s) ** (j - m) * c ** m)
    return out


#: exact unit directions for rational-mode rotation paths
PYTHAGOREAN_DIRECTIONS = [
    (Fraction(1), Fraction(0)),
    (Fraction(0), Fraction(1)),
    (Fraction(3, 5), Fraction(4, 5)),
    (Fraction(5, 13), Fraction(12, 13)),
    (Fraction(8, 17), Fraction(-15, 17)),
]

#: (cos, sin) of the quarter turns, each with both signs of its zero
AXIS_TURNS = ((1.0, 0.0), (1.0, -0.0), (0.0, 1.0), (-0.0, 1.0),
              (-1.0, 0.0), (-1.0, -0.0), (0.0, -1.0), (-0.0, -1.0))


# ---------------------------------------------------------------------------
# exact linear algebra over Fractions


def fraction_gauss_solve(matrix, rhs_columns):
    """Solve A X = B exactly (B given as list of columns)."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] for row in matrix]
    bs = [[Fraction(x) for x in col] for col in rhs_columns]
    for i in range(n):
        pivot_row = max(range(i, n), key=lambda r: abs(a[r][i]))
        if a[pivot_row][i] == 0:
            raise ZeroDivisionError("singular system")
        a[i], a[pivot_row] = a[pivot_row], a[i]
        for col in bs:
            col[i], col[pivot_row] = col[pivot_row], col[i]
        inv = 1 / a[i][i]
        a[i] = [x * inv for x in a[i]]
        for col in bs:
            col[i] *= inv
        for r in range(n):
            if r != i and a[r][i]:
                factor = a[r][i]
                a[r] = [x - factor * y for x, y in zip(a[r], a[i])]
                for col in bs:
                    col[r] -= factor * col[i]
    return bs


@lru_cache(maxsize=None)
def _simplex_nodes(order: int):
    """Principal lattice of the 4-simplex: unisolvent for total degree."""
    nodes = []
    for total in range(order + 1):
        for combo in product(range(total + 1), repeat=4):
            if sum(combo) == total:
                nodes.append(combo)
    return tuple(nodes)


@lru_cache(maxsize=None)
def _interp_inverse(order: int):
    """Inverse of the monomial Vandermonde at the simplex nodes."""
    nodes = _simplex_nodes(order)
    n = len(nodes)
    v = [
        [
            Fraction(
                math.prod(int(x) ** e for x, e in zip(node, mono))
            )
            for mono in nodes
        ]
        for node in nodes
    ]
    identity_cols = [
        [Fraction(1) if r == c else Fraction(0) for r in range(n)]
        for c in range(n)
    ]
    return nodes, fraction_gauss_solve(v, identity_cols)


def evaluate_midplane_exact(frame, pair):
    """The mid-plane functional at a pair, by direct exact evaluation.

    Returns (covector, constant) of the affine function of X, in the
    same -2-scaled gauge the package uses.  No jet products involved:
    only polynomial evaluation of the frame's height table.
    """
    f = frame.normalized
    fx = f.partial("x")
    fy = f.partial("y")
    (u1, v1), (u2, v2) = pair
    p1, p2 = (u1, v1), (u2, v2)
    f1, f2 = f.evaluate(p1), f.evaluate(p2)
    n1 = (-fx.evaluate(p1), -fy.evaluate(p1), Fraction(1))
    n2 = (-fx.evaluate(p2), -fy.evaluate(p2), Fraction(1))
    c = ((u1 - u2) / 2, (v1 - v2) / 2, (f1 - f2) / 2)
    m = ((u1 + u2) / 2, (v1 + v2) / 2, (f1 + f2) / 2)
    a1 = sum(p * q for p, q in zip(n1, c))
    a2 = sum(p * q for p, q in zip(n2, c))
    w = tuple(a1 * q + a2 * p for p, q in zip(n1, n2))
    cov = tuple(-2 * x for x in w)
    const = 2 * sum(p * q for p, q in zip(w, m))
    return cov, const


def midplane_taylor_oracle(frame, order: int = 4):
    """Degree-<= order Taylor tables of the mid-plane functional.

    Brute force: the functional is sampled exactly at scaled lattice
    pairs; a univariate Vandermonde solve per node separates the
    homogeneous parts (the true degree is at most 10), and the simplex
    lattice interpolation recovers the coefficient tables.  Returns a
    dict per component {exponent: Fraction}.
    """
    nodes, vinv = _interp_inverse(order)
    tvals = [Fraction(k) for k in range(1, 13)]
    tv = [[t ** p for p in range(12)] for t in tvals]
    tinv = fraction_gauss_solve(
        tv,
        [[Fraction(1) if r == c else Fraction(0) for r in range(12)]
         for c in range(12)],
    )

    low_values = {"cx": [], "cy": [], "cz": [], "c1": []}
    for node in nodes:
        samples = {"cx": [], "cy": [], "cz": [], "c1": []}
        for t in tvals:
            pair = ((t * node[0], t * node[1]), (t * node[2], t * node[3]))
            cov, const = evaluate_midplane_exact(frame, pair)
            samples["cx"].append(cov[0])
            samples["cy"].append(cov[1])
            samples["cz"].append(cov[2])
            samples["c1"].append(const)
        for key, vals in samples.items():
            # tinv[c] is the c-th column of the inverse Vandermonde
            homog = [
                sum(tinv[r][p] * vals[r] for r in range(12))
                for p in range(12)
            ]
            low_values[key].append(sum(homog[: order + 1]))

    tables = {}
    for key, vals in low_values.items():
        coeffs = [
            sum(vinv[r][k] * vals[r] for r in range(len(nodes)))
            for k in range(len(nodes))
        ]
        tables[key] = {
            mono: coeffs[k] for k, mono in enumerate(nodes) if coeffs[k]
        }
    return tables


def linear_form_tables(form):
    """Coefficient tables of a LinearFormJet as plain dicts."""
    out = {}
    for key, jet in (("cx", form.cx), ("cy", form.cy),
                     ("cz", form.cz), ("c1", form.c1)):
        out[key] = {e: c for e, c in jet.terms()}
    return out


# ---------------------------------------------------------------------------
# affine curvature of a planar graph, by quadrature and stencils


@lru_cache(maxsize=None)
def fd_weights(offsets, m: int):
    """Finite-difference weights for the m-th derivative, derived from
    first principles (moment conditions solved exactly)."""
    n = len(offsets)
    rows = [[Fraction(int(o)) ** p for o in offsets] for p in range(n)]
    rhs = [Fraction(math.factorial(m)) if p == m else Fraction(0)
           for p in range(n)]
    (weights,) = fraction_gauss_solve(rows, [rhs])
    return [float(w) for w in weights]


class GraphCurve:
    """Planar curve y = g(x) for a polynomial g, with affine arc length."""

    def __init__(self, poly_coeffs):
        # ascending coefficients of g
        self.c = [float(v) for v in poly_coeffs]
        self._gl_nodes, self._gl_weights = np.polynomial.legendre.leggauss(24)

    def g(self, x, d: int = 0):
        total = 0.0
        for k, ck in enumerate(self.c):
            if k >= d:
                total += math.perm(k, d) * ck * x ** (k - d)
        return total

    def arc_length(self, x: float) -> float:
        """Affine arc length s(x) = integral of g''(t)^(1/3)."""
        half = x / 2
        nodes = half * self._gl_nodes + half
        vals = np.array([self.g(t, 2) for t in nodes])
        if np.any(vals <= 0):
            raise ValueError("curve not convex on the integration range")
        return float(half * np.dot(self._gl_weights, np.cbrt(vals)))

    def x_of_s(self, s: float) -> float:
        x = s
        for _ in range(60):
            err = self.arc_length(x) - s
            if abs(err) < 1e-15:
                break
            x -= err / self.g(x, 2) ** (1.0 / 3.0)
        return x

    def point_at_s(self, s: float):
        x = self.x_of_s(s)
        return x, self.g(x)


def mu_by_stencil(curve: GraphCurve, s0: float, h: float = 0.005) -> float:
    """Affine curvature via the definition: the cross product of the
    second and third derivatives of the arc-length parametrization,
    both taken with 9-point stencils."""
    offsets = list(range(-4, 5))
    w2 = fd_weights(tuple(offsets), 2)
    w3 = fd_weights(tuple(offsets), 3)
    pts = [curve.point_at_s(s0 + k * h) for k in offsets]
    d2 = [
        sum(w * p[i] for w, p in zip(w2, pts)) / h ** 2 for i in (0, 1)
    ]
    d3 = [
        sum(w * p[i] for w, p in zip(w3, pts)) / h ** 3 for i in (0, 1)
    ]
    return d2[0] * d3[1] - d2[1] * d3[0]


def mu_prime_oracle(a3, a4, a5, h: float = 0.008, H: float = 0.015) -> float:
    """Numeric d(mu)/ds at the base point of the standard quintic graph,
    with two Richardson levels on the outer difference (the inner
    stencil error is roundoff-limited near 1/h^3, so the steps are
    balanced rather than small)."""
    curve = GraphCurve([0.0, 0.0, 0.5, float(a3) / 6,
                        float(a4) / 24, float(a5) / 120])

    def derivative(step):
        mus = [mu_by_stencil(curve, k * step, h=h)
               for k in (-2, -1, 1, 2)]
        return (mus[0] - 8 * mus[1] + 8 * mus[2] - mus[3]) / (12 * step)

    d1 = derivative(2 * H)
    d2 = derivative(H)
    d3 = derivative(H / 2)
    r1 = (16 * d2 - d1) / 15
    r2 = (16 * d3 - d2) / 15
    return (64 * r2 - r1) / 63


# ---------------------------------------------------------------------------
# the Pick rate in closed form


def pick_invariant_rate(frame, direction_w):
    """dJ/dt of the Pick invariant J = a^2 + b^2 at the chart point
    p0 + t w, read off the frame at p0 alone, exact on rational frames:
    grad J . M^-1 w, where M is the chart block of the frame's world
    map, (-alpha, -beta, 1) spans the world vertical in the local chart
    (the apolarity shear of a ``normalize_at`` frame), and

        grad J = J (alpha, beta) + (a (2 f40 - f22) + b (f13 - 3 f31) / 2,
                                    a (f31 - 3 f13) / 2 + b (2 f04 - f22)).

    The rate of |kappa| = sqrt(J) is this over 2 |kappa|."""
    m, inv = frame.world_from_local.linear, frame.world_from_local.inv_linear
    wx, wy = direction_w
    a, b = frame.a, frame.b
    f40, f31, f22, f13, f04 = frame.f4
    k = -(a * a + b * b) / inv[2][2]  # J (alpha, beta) = k inv[:2][2]
    gx = k * inv[0][2] + a * (2 * f40 - f22) + b * (f13 - 3 * f31) / 2
    gy = k * inv[1][2] + a * (f31 - 3 * f13) / 2 + b * (2 * f04 - f22)
    vx, vy = m[1][1] * wx - m[0][1] * wy, m[0][0] * wy - m[1][0] * wx
    return (gx * vx + gy * vy) / (m[0][0] * m[1][1] - m[0][1] * m[1][0])


# ---------------------------------------------------------------------------
# jet kernels: the plain loops


def shifted_by_terms(jet: Jet2, center, order=None) -> Jet2:
    """The recentering p(x + cx, y + cy) to degree ``order``, term by
    term: each kept slot sums the same products in the same order as
    ``Jet2.shifted``, with binomials and slot indices worked out at
    every call."""
    cx, cy = (coerce(c, jet.mode) for c in center)
    n = jet.order
    m = n if order is None else order
    px = [one(jet.mode)]
    py = [one(jet.mode)]
    for _ in range(n):
        px.append(px[-1] * cx)
        py.append(py[-1] * cy)
    comb = math.comb
    out = [zero(jet.mode)] * len(_exponents(2, m))
    rows = {}  # j -> (l(l+1)/2, l, C(j, l), cy^(j-l)) for l <= min(j, m)
    for (i, j), c in zip(_exponents(2, n), jet.coeffs):
        if not c:
            continue
        if j not in rows:
            rows[j] = [(l * (l + 1) // 2, l, comb(j, l), py[j - l])
                       for l in range(min(j, m) + 1)]
        for k in range(min(i, m) + 1):
            ck = c * (comb(i, k) * px[i - k])
            for tri, l, cjl, pyl in rows[j][:m - k + 1]:
                s = tri + k * (k + 2 * l + 3) // 2  # the index of x^k y^l
                out[s] = out[s] + ck * cjl * pyl
    return Jet2(m, jet.mode, out)


def dense_sum(p, q) -> list:
    """p + q entry by entry, a rational zero passed over untouched."""
    return [a + b if a and b else a or b for a, b in zip(p.coeffs, q.coeffs)]


def dense_difference(p, q) -> list:
    return [(a - b if a else -b) if b else a
            for a, b in zip(p.coeffs, q.coeffs)]


def dense_negation(p) -> list:
    return [-a if a else a for a in p.coeffs]


def dense_scaled(p, factor) -> list:
    f = Fraction(factor)
    return [f * a if a else a for a in p.coeffs] if f else [f] * len(p.coeffs)


def dense_product(p, q) -> list:
    """The truncated product over one common denominator, every entry of
    both tables scanned."""
    def numerators(coeffs):
        nonzero = [(k, c) for k, c in enumerate(coeffs) if c]
        den = math.lcm(*(c.denominator for _, c in nonzero))
        return [(k, c.numerator * (den // c.denominator))
                for k, c in nonzero], den

    table = _pair_table(p.nvars, p.order)
    na, da = numerators(p.coeffs)
    nb, db = numerators(q.coeffs)
    acc = [0] * len(p.coeffs)
    for ia, x in na:
        for ib, y in nb:
            ic = table[ia][ib]
            if ic >= 0:
                acc[ic] += x * y
    return [Fraction(n, da * db) for n in acc]


def graded_part(p, degree: int):
    """The homogeneous part of the given total degree of a jet."""
    z = zero(p.mode)
    return type(p)(p.order, p.mode, [
        c if sum(e) == degree else z
        for e, c in zip(_exponents(p.nvars, p.order), p.coeffs)])


def form_graded_part(form: LinearFormJet, degree: int) -> LinearFormJet:
    """The homogeneous part of the given total degree of each
    coefficient of a linear form."""
    return LinearFormJet(*(graded_part(c, degree) for c in
                           (form.cx, form.cy, form.cz, form.c1)))


def dense_max_abs(p) -> float:
    return max((abs(float(c)) for c in p.coeffs), default=0.0)


def dense_is_zero(p) -> bool:
    return not any(p.coeffs)


# ---------------------------------------------------------------------------
# Blaschke normalization and rotation by whole-jet substitution


def truncated(jet, order: int):
    """Copy of a jet at another order: terms above it dropped, or zeros
    padded."""
    return type(jet)(order, jet.mode, [jet.coefficient(*e) for e in
                                       _exponents(jet.nvars, order)])


def graph_shear(h: Jet2, alpha, beta) -> Jet2:
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


def normalize_by_substitution(surface: SurfaceModel, p0) -> BlaschkeFrame:
    """The frame of ``normalize_at`` by the route of whole jets: shift
    the full jet, drop its constant and linear terms, truncate at order
    5, substitute the Hessian step into the jet, and shear by
    :func:`graph_shear`."""
    mode = surface.mode
    p0 = tuple(coerce(c, mode) for c in p0)
    shifted = surface.height.shifted(p0)
    c0, gu, gv = (shifted.coefficient(*e) for e in ((0, 0), (1, 0), (0, 1)))
    h = truncated(Jet2.from_terms(
        {e: c for e, c in shifted.terms() if sum(e) > 1}, shifted.order,
        mode), 5)
    s00, s01, s11 = _sym_inv_sqrt2(2 * h.coefficient(2, 0),
                                   h.coefficient(1, 1),
                                   2 * h.coefficient(0, 2), mode)
    xj = Jet2.variable("x", 5, mode)
    yj = Jet2.variable("y", 5, mode)
    h = substitute(h, (xj.scaled(s00) + yj.scaled(s01),
                       xj.scaled(s01) + yj.scaled(s11)))
    alpha, beta = (-r / 2 for r in _apolarity_pair(graded_parts(h)[3]))
    parts = graded_parts(graph_shear(h, alpha, beta))
    if mode == FLOAT:
        parts = _snap_normal_form(parts)
    o, z = one(mode), zero(mode)
    world = AffineMap3(((o, z, z), (z, o, z), (gu, gv, o)),
                       (p0[0], p0[1], c0), mode).compose(
        AffineMap3(((s00, s01, z), (s01, s11, z), (z, z, o)), (z, z, z),
                   mode)).compose(
        AffineMap3(((o, z, alpha), (z, o, beta), (z, z, o)), (z, z, z),
                   mode))
    return BlaschkeFrame(parts, world)


def rotate_by_substitution(frame: BlaschkeFrame, cos_sin) -> BlaschkeFrame:
    """The frame of ``rotate_frame`` by the route of whole jets:
    substitute x -> c x + s y, y -> -s x + c y into the frame's jet."""
    mode = frame.mode
    c, s = (coerce(t, mode) for t in cos_sin)
    xj = Jet2.variable("x", 5, mode)
    yj = Jet2.variable("y", 5, mode)
    rotated = graded_parts(substitute(
        frame.normalized, (xj.scaled(c) + yj.scaled(s),
                           xj.scaled(-s) + yj.scaled(c))))
    if mode == FLOAT:
        rotated = _snap_normal_form(rotated)
    o, z = one(mode), zero(mode)
    old_from_new = AffineMap3(((c, s, z), (-s, c, z), (z, z, o)), (z, z, z),
                              mode)
    return BlaschkeFrame(rotated,
                         frame.world_from_local.compose(old_from_new))


def section_by_substitution(frame: BlaschkeFrame, lam) -> SectionJet:
    """The section of ``section_projection`` by the route of whole jets.

    The section curve solves y = lam * f(x, y).  Along y = 0, df/dy is
    O(x^2), so ys = lam * f(x, 0) is off by O(x^4), and g = f(x, ys)
    is off only at degree 6 and up: one sweep is exact at order 5.
    """
    mode = frame.mode
    lam = coerce(lam, mode)
    f = frame.normalized
    xj = Jet2.variable("x", 5, mode)
    ys = Jet2.from_terms({(i, 0): f.coefficient(i, 0) for i in range(6)},
                         5, mode).scaled(lam)
    g = substitute(f, (xj, ys))
    return SectionJet(
        a3=6 * g.coefficient(3, 0),
        a4=24 * g.coefficient(4, 0),
        a5=120 * g.coefficient(5, 0),
        mode=mode,
    )


def inverse_map(m: AffineMap3) -> AffineMap3:
    """The inverse affine map, from ``inv3`` of the linear part."""
    inv = inv3(m.linear)
    return AffineMap3(inv, tuple(-c for c in matvec3(inv, m.translation)),
                      m.mode)


def push_forward(frame: BlaschkeFrame, obj):
    """Map a world point, plane or quadric to the frame's local
    coordinates: the inverse of ``pull_back``."""
    m = inverse_map(frame.world_from_local)
    if isinstance(obj, Plane3):
        return m.apply_plane(obj)
    if isinstance(obj, Quadric3):
        return m.apply_quadric(obj)
    return m.apply_point(obj)


def unscreened_surface(coeffs: dict, patch, mode: str) -> SurfaceModel:
    """``SurfaceModel.from_coefficients`` without the load-time
    convexity screen, for heights that are not convex on the whole
    patch."""
    degree = max([2, *(i + j for i, j in coeffs)])
    return SurfaceModel(Jet2.from_terms(coeffs, degree, mode), tuple(patch),
                        check_convexity=False)


def equation_value(eq: LinearEquation, point):
    """coeffs . X - rhs at a space point X."""
    n1, n2, n3 = eq.coeffs
    x, y, z = point
    return n1 * x + n2 * y + n3 * z - eq.rhs


def equation_scale(eq: LinearEquation) -> float:
    """The largest |entry| of an equation's coefficients and rhs."""
    return max(abs(float(c)) for c in (*eq.coeffs, eq.rhs))


def quadric_value(q: Quadric3, point):
    """[X;1]^T Q [X;1] at a space point X."""
    xh = (*point, 1)
    return sum(xh[i] * sum(q.matrix[i][j] * xh[j] for j in range(4))
               for i in range(4))


# ---------------------------------------------------------------------------
# envelope rows near the collapse


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


#: exponents of the constant and of du, dv, su, sv in an order-1 Jet4
_ENVELOPE_SLOTS = ((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                   (0, 0, 0, 1))


def envelope_system(target, pair) -> EnvelopeSystem:
    """Exact first-order envelope conditions at a concrete pair.

    The pair moves as p1 + s + d and p2 + s - d, with d = (du, dv) and
    s = (su, sv) the variables (u1, v1, u2, v2) of an order-1 Jet4, so
    the mid-plane functional of the moved pair carries F in its constant
    coefficient and F_u1 -+ F_u2, F_v1 -+ F_v2 as its derivatives along
    du, dv, su, sv (forward-mode differentiation: the functional is
    polynomial in the pair and affine-linear in X).
    """
    g = _as_surface(target)
    mode = g.mode
    points = tuple(tuple(coerce(c, mode) for c in p) for p in pair)

    def lift(value, rate_u, rate_v, sign):
        return Jet4.from_terms(dict(zip(
            _ENVELOPE_SLOTS,
            (value, sign * rate_u, sign * rate_v, rate_u, rate_v))), 1, mode)

    sides = []
    for p, sign in zip(points, (1, -1)):
        gx, gy = g.gradient(p)
        hxx, hxy, hyy = g.hessian(p)
        sides += [
            (lift(p[0], 1, 0, sign), lift(p[1], 0, 1, sign),
             lift(g.value(p), gx, gy, sign)),
            (lift(-gx, -hxx, -hxy, sign), lift(-gy, -hxy, -hyy, sign),
             lift(1, 0, 0, sign)),
        ]
    _, _, w, wm = _mid_plane_terms(*sides, coerce(1, mode) / 2)
    rows = tuple(
        LinearEquation(tuple(_SCALE * x.coefficient(*e) for x in w),
                       _SCALE * wm.coefficient(*e), mode)
        for e in _ENVELOPE_SLOTS)
    return EnvelopeSystem(rows, points, mode)


def _equation_distance(e1: LinearEquation, e2: LinearEquation) -> float:
    """Scale-free gap between two affine conditions (see plane_distance)."""
    if equation_scale(e1) == 0.0 and equation_scale(e2) == 0.0:
        return 0.0
    return plane_distance(e1.as_plane(), e2.as_plane())


def _scaled_equation(eq: LinearEquation, factor) -> LinearEquation:
    return LinearEquation(tuple(factor * c for c in eq.coeffs),
                          factor * eq.rhs, eq.mode)


def envelope_limit_rows(frame: BlaschkeFrame, direction) -> tuple:
    """The four envelope-limit conditions at a unit direction of a float
    frame, as equations: the two Transon gradients (right-hand side 0)
    and the two pair-sum forms, in the row order of ``discriminant_D``."""
    xi, eta = direction
    g_xi, g_eta = transon_gradients(frame, (xi, eta))
    form_u, form_v = pair_sum_forms(frame)
    return (LinearEquation(g_xi, 0.0, FLOAT),
            LinearEquation(g_eta, 0.0, FLOAT),
            form_u.at_direction(xi, eta), form_v.at_direction(xi, eta))


def limit_residuals(frame: BlaschkeFrame, theta: float, center) -> tuple:
    """|row value| of each envelope-limit condition at theta, at a local
    ``center``."""
    fr = to_float_frame(frame)
    return tuple(abs(equation_value(eq, center)) for eq in
                 envelope_limit_rows(fr, (math.cos(theta), math.sin(theta))))


def moutard_gap(frame: BlaschkeFrame, theta: float, center):
    """Largest component gap of a local ``center`` from the Moutard
    center at theta, over max(1, the Moutard center's largest
    component); None when the Moutard center is at infinity.  The
    formula of ``aek verify``'s envelope-center-match check."""
    fr = to_float_frame(frame)
    mc = moutard_center(fr, (math.cos(theta), math.sin(theta)))
    if isinstance(mc, AtInfinity):
        return None
    scale = max(1.0, max(abs(c) for c in mc))
    return max(abs(p - q) for p, q in zip(center, mc)) / scale


def envelope_limit_probe(frame: BlaschkeFrame, direction, t_values) -> tuple:
    """The fitted convergence order of each scaled envelope row toward
    its limit form.

    Pairs have difference t*(xi, eta) and sum t*(0.3, -0.2), so every row
    has a nonzero limit generically.  Rows 2-3 scale by t^2 toward
    twice the Transon gradients; rows 4-5 scale by t^3 toward twice
    the pair-sum forms.
    """
    xi, eta = unit_direction(direction_pair(direction))
    frame_f = to_float_frame(frame)
    targets = [_scaled_equation(eq, 2)
               for eq in envelope_limit_rows(frame_f, (xi, eta))]
    distances = [[] for _ in range(4)]
    for t in t_values:
        t = float(t)
        cu, cv = 0.3 * t / 2, -0.2 * t / 2
        p1 = (cu + t * xi / 2, cv + t * eta / 2)
        p2 = (cu - t * xi / 2, cv - t * eta / 2)
        rows = envelope_system(frame_f, (p1, p2)).rows
        for k, power in enumerate((2, 2, 3, 3)):
            scaled = _scaled_equation(rows[k + 1], 1 / t ** power)
            distances[k].append(_equation_distance(scaled, targets[k]))
    return tuple(fit_order(t_values, ds) for ds in distances)


# ---------------------------------------------------------------------------
# affine transforms that keep graphs polynomial


def chart_preserving_unimodular(rng) -> AffineMap3:
    """Random unimodular map of the block form [[P, 0], [w, m]] with
    m = 1/det(P), plus a translation.  These are exactly the affine
    maps under which a polynomial graph stays a polynomial graph."""
    while True:
        p = [[rng.uniform(-1.2, 1.2) for _ in range(2)] for _ in range(2)]
        det = p[0][0] * p[1][1] - p[0][1] * p[1][0]
        # det > 0 keeps the image a convex-up graph (m = 1/det > 0)
        if 0.3 < det < 3.0:
            break
    m = 1.0 / det
    w = (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
    t = (rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2),
         rng.uniform(-0.2, 0.2))
    return AffineMap3(
        ((p[0][0], p[0][1], 0.0),
         (p[1][0], p[1][1], 0.0),
         (w[0], w[1], m)),
        t,
        FLOAT,
    )


def transform_graph_surface(surface: SurfaceModel,
                            amap: AffineMap3) -> SurfaceModel:
    """The image surface of a polynomial graph under a chart-preserving
    map, re-graphed over its own chart.

    The composition runs in exact rational arithmetic (floats convert
    exactly), so the produced float surface is correct to rounding;
    a float composition would amplify coefficient noise through the
    inverse tangent block and dominate covariance measurements.
    """
    from aek.scalars import RATIONAL

    phi_f = surface.height.to_float()
    order = phi_f.order
    phi = Jet2(order, RATIONAL, [Fraction(c) for c in phi_f.coeffs])
    lin = tuple(tuple(Fraction(float(c)) for c in row)
                for row in amap.linear)
    tr = tuple(Fraction(float(c)) for c in amap.translation)
    w1, w2, m = lin[2][0], lin[2][1], lin[2][2]
    # z' = w.(u,v) + m*phi(u,v) + tz over (u',v') = P(u,v) + t_xy
    psi = phi.scaled(m) \
        + Jet2.variable("x", order, RATIONAL).scaled(w1) \
        + Jet2.variable("y", order, RATIONAL).scaled(w2)
    p = ((lin[0][0], lin[0][1]), (lin[1][0], lin[1][1]))
    det = p[0][0] * p[1][1] - p[0][1] * p[1][0]
    binv = ((p[1][1] / det, -p[0][1] / det),
            (-p[1][0] / det, p[0][0] / det))
    xj = Jet2.variable("x", order, RATIONAL)
    yj = Jet2.variable("y", order, RATIONAL)
    chi = substitute(psi, (xj.scaled(binv[0][0]) + yj.scaled(binv[0][1]),
                           xj.scaled(binv[1][0]) + yj.scaled(binv[1][1])))
    eta = chi.shifted((-tr[0], -tr[1]))
    eta = (eta + Jet2.constant(tr[2], order, RATIONAL)).to_float()
    umin, umax, vmin, vmax = (float(c) for c in surface.patch)
    corners = [
        (p[0][0] * u + p[0][1] * v + tr[0], p[1][0] * u + p[1][1] * v + tr[1])
        for u in (umin, umax) for v in (vmin, vmax)
    ]
    new_patch = (
        min(c[0] for c in corners), max(c[0] for c in corners),
        min(c[1] for c in corners), max(c[1] for c in corners),
    )
    return SurfaceModel(eta, new_patch, check_convexity=False)


def map_chart_point(amap: AffineMap3, point):
    lin, tr = amap.linear, amap.translation
    u, v = float(point[0]), float(point[1])
    return (lin[0][0] * u + lin[0][1] * v + tr[0],
            lin[1][0] * u + lin[1][1] * v + tr[1])
