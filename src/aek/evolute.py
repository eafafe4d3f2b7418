"""The mid-planes evolute: direction sextic, per-point centers, tracing.

At a normalized point, the pair-collapse limit of the mid-plane
envelope system is four affine conditions on X (the two Transon
gradients and the two pair-sum forms; the Transon form itself is a
combination of its gradients and is discarded).  The system is
solvable exactly when the direction is a root of a homogeneous sextic
q; the solution, when finite, is the Moutard center of the direction.
This module finds the roots, solves the centers, continues them over a
patch, and evaluates the regularity diagnostics for a branch.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NoSolutionError,
    NonConvexPointError,
    PatchBoundsError,
    RankDeficientError,
)
from .frames import (
    BlaschkeFrame,
    SurfaceModel,
    binary_form,
    normalize_at,
    pull_back,
    pull_back_direction,
    to_float_frame,
    turned_coefficients,
)
from .geometry import AtInfinity, angle_gap, as_direction
from .invariants import moutard_center, transon_gradients
from .matutil import det3, det4, solve3
from .midplanes import pair_sum_forms
from .scalars import coerce


@dataclass(frozen=True)
class DirectionSextic:
    """Homogeneous degree-6 direction polynomial q = 12*q3 + q4.

    Coefficient tuples list (xi^6, xi^5 eta, ..., eta^6).  q3 collects
    the cubic-form contributions, q4 the quartic ones.  Evenness in the
    direction is structural, so roots come in antipodal pairs.
    """

    q3_coeffs: tuple
    q4_coeffs: tuple
    mode: str
    #: max(1, max(|a|, |b|)^2, max |f4|) of the frame the sextic came from
    coeff_scale: float

    @property
    def q_coeffs(self) -> tuple:
        return tuple(12 * c3 + c4 for c3, c4 in
                     zip(self.q3_coeffs, self.q4_coeffs))

    def evaluate(self, xi, eta):
        return binary_form(self.q_coeffs, xi, eta)

    def theta_value(self, theta: float) -> float:
        return float(self.evaluate(math.cos(theta), math.sin(theta)))

    def theta_derivative(self, theta: float) -> float:
        xi, eta = math.cos(theta), math.sin(theta)
        q = [float(c) for c in self.q_coeffs]
        dxi = sum((6 - k) * q[k] * xi ** (5 - k) * eta ** k
                  for k in range(6))
        deta = sum(k * q[k] * xi ** (6 - k) * eta ** (k - 1)
                   for k in range(1, 7))
        return -dxi * eta + deta * xi

    def scale(self) -> float:
        return max((abs(float(c)) for c in self.q_coeffs), default=0.0)

    def is_identically_zero(self) -> bool:
        """Every direction is a root: the sextic is at round-off level
        against the frame coefficients it is built from."""
        return self.scale() <= 1e-12 * self.coeff_scale

    def is_simple_root(self, theta: float, simple_tol: float = 1e-6) -> bool:
        """A root direction is simple when |dq/dtheta| clears
        ``simple_tol`` times the coefficient scale; no root of an
        identically zero sextic is simple."""
        return (not self.is_identically_zero()
                and abs(self.theta_derivative(theta))
                > simple_tol * self.scale())


def direction_sextic(frame: BlaschkeFrame) -> DirectionSextic:
    a, b = frame.a, frame.b
    f40, f31, f22, f13, f04 = frame.f4
    q3 = (
        a * b,
        3 * (a * a - b * b),
        -15 * a * b,
        10 * (b * b - a * a),
        15 * a * b,
        3 * (a * a - b * b),
        -a * b,
    )
    q4 = (
        -f31,
        4 * f40 - 2 * f22,
        2 * f31 - 3 * f13,
        4 * (f40 - f04),
        3 * f31 - 2 * f13,
        2 * f22 - 4 * f04,
        f13,
    )
    coeff_scale = max(
        1.0,
        max(abs(float(c)) for c in (a, b)) ** 2,
        max(abs(float(c)) for c in frame.f4),
    )
    return DirectionSextic(q3, q4, frame.mode, coeff_scale)


# Fixed sign convention: rows (G_xi, G_eta, form_u, form_v) with the
# right-hand sides as the fourth column give det = +(3/32)(|T|^2)^2 q.
D_IDENTITY_CONSTANT = (3, 32)


def _limit_rows(frame: BlaschkeFrame, xi, eta):
    """The four envelope-limit conditions at a direction, as
    (covector, rhs) pairs in the fixed row order."""
    g_xi, g_eta = transon_gradients(frame, (xi, eta))
    form_u, form_v = pair_sum_forms(frame)
    r3 = form_u.at_direction(xi, eta)
    r4 = form_v.at_direction(xi, eta)
    z = coerce(0, frame.mode)
    return (
        (g_xi, z),
        (g_eta, z),
        (r3.coeffs, r3.rhs),
        (r4.coeffs, r4.rhs),
    )


def discriminant_D(frame: BlaschkeFrame, direction):
    """Determinant of the extended envelope-limit matrix.

    Row order is fixed as (G_xi, G_eta, form_u, form_v | rhs); with
    this convention the determinant equals
    (3/32)(xi^2+eta^2)^2 * (12 q3 + q4), positive sign.
    """
    d = as_direction(direction, frame.mode)
    rows = _limit_rows(frame, coerce(d.xi, frame.mode),
                       coerce(d.eta, frame.mode))
    m = tuple((*cov, rhs) for cov, rhs in rows)
    return det4(m)


@dataclass(frozen=True)
class DirectionRoot:
    theta: float
    simple: bool
    q_value: float
    q_derivative: float


@dataclass(frozen=True)
class DirectionRoots:
    identically_zero: bool
    roots: tuple
    scale: float


def evolute_directions(frame: BlaschkeFrame, tol: float = 1e-9,
                       simple_tol: float = 1e-6) -> DirectionRoots:
    """Real roots of the direction sextic on [0, pi).

    Roots of the dehomogenized polynomial in eta/xi come from the
    companion-matrix eigenvalues, the vertical direction is checked
    separately, and every root gets one round of angular Newton
    polish.  Simplicity is :meth:`DirectionSextic.is_simple_root`.
    """
    sextic = direction_sextic(frame)
    q = [float(c) for c in sextic.q_coeffs]
    scale = sextic.scale()
    if sextic.is_identically_zero():
        return DirectionRoots(True, (), scale)

    thetas = []
    # dehomogenize: p(m) = q(1, m), m = eta/xi
    pcoeffs = q[:]  # ascending in m
    while pcoeffs and abs(pcoeffs[-1]) <= 1e-13 * scale:
        pcoeffs.pop()
    if len(pcoeffs) > 1:
        roots = np.polynomial.polynomial.polyroots(np.array(pcoeffs))
        for r in roots:
            if abs(r.imag) <= 1e-7 * (1.0 + abs(r)):
                thetas.append(math.atan(r.real) % math.pi)
    if abs(q[6]) <= tol * scale:
        thetas.append(math.pi / 2)

    polished = []
    for th in thetas:
        for _ in range(3):
            dq = sextic.theta_derivative(th)
            if abs(dq) <= 1e-14 * scale:
                break
            step = sextic.theta_value(th) / dq
            if abs(step) > 0.1:
                break
            th = (th - step) % math.pi
        if abs(sextic.theta_value(th)) <= tol * scale:
            polished.append(th % math.pi)

    polished.sort()
    unique = []
    for th in polished:
        if all(angle_gap(th, seen) > 1e-7 for seen in unique):
            unique.append(th)
    unique = unique[:6]

    roots = tuple(
        DirectionRoot(
            theta=th,
            simple=sextic.is_simple_root(th, simple_tol),
            q_value=sextic.theta_value(th),
            q_derivative=sextic.theta_derivative(th),
        )
        for th in unique
    )
    return DirectionRoots(False, roots, scale)


@dataclass(frozen=True)
class EvoluteSolution:
    """A solved envelope-limit point for one direction.

    ``residuals`` holds all four equation residuals at the solved
    point; ``dropped_index`` names the equation left out of the 3x3
    solve, whose residual is reported rather than hidden.
    """

    theta: float
    direction: tuple
    center_local: object
    center_world: object
    residuals: tuple | None
    dropped_index: int | None
    q_value: float
    d_value: float
    simple_root: bool
    mu_prime: float
    moutard_gap: float | None


def solve_evolute_point(frame: BlaschkeFrame, theta: float,
                        tol: float = 1e-7) -> EvoluteSolution:
    """Solve the envelope-limit system at a root direction.

    The Transon form itself is discarded (it is a combination of its
    gradients); of the remaining four conditions the best-conditioned
    three are solved and the fourth residual recorded.  The result is
    cross-checked against the Moutard center, which it must equal.
    """
    fr = to_float_frame(frame)
    sextic = direction_sextic(fr)
    scale = max(sextic.scale(), 1e-300)
    qv = sextic.theta_value(theta)
    if not sextic.is_identically_zero() and abs(qv) > tol * scale:
        raise NoSolutionError(
            f"direction {theta:.6f} is not a root: |q|={abs(qv):.3e} "
            f"(scale {scale:.3e})"
        )
    xi, eta = math.cos(theta), math.sin(theta)
    rows = _limit_rows(fr, xi, eta)
    row_scale = max(abs(c) for cov, rhs in rows for c in (*cov, rhs))
    mat = [cov for cov, _ in rows]
    rhs = [r for _, r in rows]

    best_det, best_drop = 0.0, None
    for drop in range(4):
        keep = [mat[i] for i in range(4) if i != drop]
        dval = det3(keep)
        if abs(dval) > abs(best_det):
            best_det, best_drop = dval, drop

    d_value = float(det4(tuple((*cov, r) for cov, r in rows)))
    simple = sextic.is_simple_root(theta)
    mu_prime = section_curvature_rate(fr, (xi, eta))
    mc = moutard_center(fr, (xi, eta))

    if abs(best_det) <= 1e-12 * max(row_scale, 1.0) ** 3:
        a = np.array(mat, dtype=float)
        bvec = np.array(rhs, dtype=float)
        _, lsq_residual, _, _ = np.linalg.lstsq(a, bvec, rcond=None)
        inconsistent = (
            lsq_residual.size > 0
            and float(lsq_residual[0]) > (1e-10 * max(row_scale, 1.0)) ** 2
        )
        if isinstance(mc, AtInfinity) or inconsistent:
            target = mc if isinstance(mc, AtInfinity) \
                else AtInfinity((0.0, 0.0, 1.0))
            return EvoluteSolution(
                theta=theta, direction=(xi, eta),
                center_local=target,
                center_world=AtInfinity(
                    pull_back_direction(fr, target.direction)
                ),
                residuals=None, dropped_index=None,
                q_value=qv, d_value=d_value, simple_root=simple,
                mu_prime=mu_prime, moutard_gap=None,
            )
        raise RankDeficientError(
            f"envelope-limit matrix rank below 3 at theta={theta:.6f}"
        )

    keep_idx = [i for i in range(4) if i != best_drop]
    x = solve3([mat[i] for i in keep_idx], [rhs[i] for i in keep_idx])
    residuals = tuple(
        abs(sum(mat[i][j] * x[j] for j in range(3)) - rhs[i])
        for i in range(4)
    )
    gap = None
    if not isinstance(mc, AtInfinity):
        denom = max(1.0, max(abs(c) for c in mc))
        gap = max(abs(p - q) for p, q in zip(x, mc)) / denom
    return EvoluteSolution(
        theta=theta, direction=(xi, eta),
        center_local=x,
        center_world=pull_back(fr, x),
        residuals=residuals, dropped_index=best_drop,
        q_value=qv, d_value=d_value, simple_root=simple,
        mu_prime=mu_prime, moutard_gap=gap,
    )


def pick_invariant(frame: BlaschkeFrame):
    """Squared norm of the cubic form (a^2 + b^2 in any rotation)."""
    return frame.a * frame.a + frame.b * frame.b


def _cubic_phase_b(kappa: complex, reference_angle: float) -> float:
    """The cubic coefficient b in the rotated frame that kills a.

    The killing rotation is only fixed modulo 2*pi/3; the branch
    nearest the reference angle is chosen so paired evaluations stay
    on one frame family.
    """
    if kappa == 0:
        return 0.0
    ang = cmath.phase(kappa)
    delta = (ang - reference_angle + math.pi) % (2 * math.pi) - math.pi
    psi = (reference_angle + delta - math.pi / 2) / 3
    return (kappa * cmath.exp(-3j * psi)).imag


def pick_derivative(surface: SurfaceModel, p0, direction_w,
                    h: float = 1e-4,
                    frame: BlaschkeFrame | None = None) -> float:
    """Directional derivative of the cubic-killing-frame coefficient b.

    Central finite difference along the chart line through p0; the
    killing rotation is continued between the two side evaluations so
    the difference measures a derivative, not a frame jump.  ``frame``
    is the frame already normalized at p0, if the caller has one; it
    fixes the reference phase of the killing rotation.
    """
    wx, wy = (float(c) for c in direction_w)
    norm = math.hypot(wx, wy)
    if norm == 0:
        raise ValueError("direction W must be nonzero")
    wx, wy = wx / norm, wy / norm
    surface = surface.to_float()
    p0 = (float(p0[0]), float(p0[1]))
    pp = (p0[0] + h * wx, p0[1] + h * wy)
    pm = (p0[0] - h * wx, p0[1] - h * wy)
    for p in (pp, pm):
        if not surface.contains(p):
            raise PatchBoundsError(
                f"stencil point {p} outside patch {surface.patch}"
            )
    f0 = normalize_at(surface, p0) if frame is None else frame
    kappa0 = complex(float(f0.a), float(f0.b))
    ref = cmath.phase(kappa0) if kappa0 != 0 else math.pi / 2
    fp = normalize_at(surface, pp)
    fm = normalize_at(surface, pm)
    bp = _cubic_phase_b(complex(float(fp.a), float(fp.b)), ref)
    bm = _cubic_phase_b(complex(float(fm.a), float(fm.b)), ref)
    return (bp - bm) / (2 * h)


def section_curvature_rate(frame: BlaschkeFrame, direction):
    """Arc-length derivative of the affine curvature of the section
    spanned by the direction and its cone ruling.

    Uses the closed-form quintic section coefficients of the frame
    turned onto the direction: a3 = 6a, a4 = 24(f40 - 9/2 b^2),
    a5 = 120(-27 a b^2 + 3 b f31 + f50).
    """
    (a, b, f40, f31, f50), _ = turned_coefficients(frame, direction)
    a3 = 6 * a
    a4 = 24 * (f40 - coerce(9, frame.mode) * b * b / 2)
    a5 = 120 * (-27 * a * b * b + 3 * b * f31 + f50)
    return (9 * a5 + 40 * a3 ** 3 - 45 * a3 * a4) / 27


@dataclass(frozen=True)
class RegularityReport:
    """Sufficient-condition diagnostics for branch regularity."""

    theta: float
    simple_root: bool
    mu_prime: float
    pick_rates: tuple
    pick_rate_nonzero: bool
    mu_prime_nonzero: bool
    regular: bool


def regularity_rule(simple_root: bool, mu_prime, pick_rates,
                    rate_tol: float = 1e-6, mu_tol: float = 1e-9):
    """The sufficient regularity condition at a branch point, as
    (pick_rate_nonzero, mu_prime_nonzero, regular).

    The Pick invariant is not critical (some finite directional b-rate
    clears ``rate_tol``), the section curvature rate along T clears
    ``mu_tol``, and the branch direction is a simple root.
    """
    rate_ok = any(abs(r) > rate_tol for r in pick_rates if not math.isnan(r))
    mu_ok = abs(mu_prime) > mu_tol
    return rate_ok, mu_ok, simple_root and rate_ok and mu_ok


def _pick_rates(surface, p0, frame, directions: int, h: float) -> tuple:
    """Pick rates along ``directions`` chart directions spread over
    [0, pi); NaN where the stencil leaves the patch."""
    rates = []
    for k in range(directions):
        ang = math.pi * k / directions
        try:
            rates.append(pick_derivative(
                surface, p0, (math.cos(ang), math.sin(ang)), h, frame))
        except PatchBoundsError:
            rates.append(float("nan"))
    return tuple(rates)


def regularity_report(target, p0, theta: float,
                      directions: int = 8, h: float = 1e-4,
                      rate_tol: float = 1e-6,
                      mu_tol: float = 1e-9) -> RegularityReport:
    """Check the sufficient regularity condition of
    :func:`regularity_rule` at a branch point.

    With a bare frame the pick-rate part cannot be sampled (it needs a
    neighborhood), so the sufficient condition counts as unverified and
    the point is not flagged regular.
    """
    rates = ()
    if isinstance(target, SurfaceModel):
        surface = target.to_float()
        frame = normalize_at(surface, p0)
        rates = _pick_rates(surface, p0, frame, directions, h)
    else:
        frame = to_float_frame(target)
    simple = direction_sextic(frame).is_simple_root(theta)
    mu_prime = float(section_curvature_rate(
        frame, (math.cos(theta), math.sin(theta))
    ))
    rate_ok, mu_ok, regular = regularity_rule(
        simple, mu_prime, rates, rate_tol, mu_tol)
    return RegularityReport(
        theta=theta,
        simple_root=simple,
        mu_prime=mu_prime,
        pick_rates=rates,
        pick_rate_nonzero=rate_ok,
        mu_prime_nonzero=mu_ok,
        regular=regular,
    )


# ---------------------------------------------------------------------------
# tracing over a patch


@dataclass
class SamplePoint:
    """Per-grid-point outcome of the evolute computation."""

    index: tuple
    point: tuple
    status: str  # "ok" | "degenerate" | "non_convex" | "error"
    solutions: list = field(default_factory=list)
    message: str = ""
    pick_rates: tuple | None = None


@dataclass
class BranchSample:
    index: tuple
    point: tuple
    solution: EvoluteSolution


@dataclass
class EvoluteBranch:
    """A continued family of (surface point -> direction -> center)."""

    branch_id: int
    samples: list
    events: list = field(default_factory=list)
    degenerate: bool = False
    link_gaps: tuple = ()

    @property
    def max_link_gap(self) -> float:
        """Largest direction jump along the continuation links; bounded
        by the matching threshold by construction."""
        return max(self.link_gaps, default=0.0)


@dataclass
class TraceResult:
    branches: list
    samples: list
    failures: list
    grid_shape: tuple
    #: processes the samples ran on: the pool size, or 1 when serial
    workers: int


def compute_sample(surface: SurfaceModel, index, point,
                   root_tol: float = 1e-9,
                   solve_tol: float = 1e-7,
                   pick_directions: int = 0,
                   pick_step: float = 1e-4) -> SamplePoint:
    """Normalize, find root directions and solve centers at one point.

    With ``pick_directions`` > 0, the cubic-killing-frame rate of the
    Pick coefficient is sampled along that many chart directions for
    the regularity diagnostics.  The point is normalized and its roots
    are found once; the stencil and every root reuse them.
    """
    try:
        frame = normalize_at(surface, point)
    except NonConvexPointError as exc:
        return SamplePoint(index, point, "non_convex", message=str(exc))
    except (PatchBoundsError, ValueError, ZeroDivisionError) as exc:
        return SamplePoint(index, point, "error", message=str(exc))
    rates = None
    if pick_directions:
        rates = _pick_rates(surface, point, frame, pick_directions,
                            pick_step)
    droots = evolute_directions(frame, tol=root_tol)
    if droots.identically_zero:
        mc = moutard_center(frame, (1.0, 0.0))
        if isinstance(mc, AtInfinity):
            return SamplePoint(index, point, "degenerate",
                               message="centers at infinity",
                               pick_rates=rates)
        sol = EvoluteSolution(
            theta=None, direction=None,
            center_local=mc, center_world=pull_back(frame, mc),
            residuals=None, dropped_index=None,
            q_value=0.0, d_value=0.0, simple_root=False,
            mu_prime=float(section_curvature_rate(frame, (1.0, 0.0))),
            moutard_gap=None,
        )
        return SamplePoint(index, point, "degenerate", [sol],
                           pick_rates=rates)
    sols = []
    messages = []
    for root in droots.roots:
        try:
            sol = solve_evolute_point(frame, root.theta, tol=solve_tol)
        except (NoSolutionError, RankDeficientError) as exc:
            messages.append(f"theta={root.theta:.4f}: {exc}")
            continue
        sols.append(sol)
    return SamplePoint(index, point, "ok", sols, "; ".join(messages),
                       pick_rates=rates)


def grid_points(patch, shape):
    nu, nv = shape
    umin, umax, vmin, vmax = (float(c) for c in patch)
    us = [umin + i * (umax - umin) / (nu - 1) for i in range(nu)] \
        if nu > 1 else [(umin + umax) / 2]
    vs = [vmin + j * (vmax - vmin) / (nv - 1) for j in range(nv)] \
        if nv > 1 else [(vmin + vmax) / 2]
    return us, vs


def trace_evolute(surface: SurfaceModel, grid=(41, 41),
                  root_tol: float = 1e-9, solve_tol: float = 1e-7,
                  angle_threshold: float = 0.2,
                  workers: int = 1,
                  pick_directions: int = 0,
                  points=None) -> TraceResult:
    """Continue the evolute over a chart grid.

    Grid samples are independent (and parallelizable); branches are
    assembled afterwards by nearest-angle matching between neighboring
    grid points, with multiple roots and angle jumps breaking the
    branch.  Per-sample failures are collected, never fatal.

    ``points`` may supply an explicit list of ((i, j), (u, v)) samples
    in place of the regular grid (the indices drive branch adjacency).
    """
    surface = surface.to_float()
    if isinstance(grid, int):
        grid = (grid, grid)
    if points is not None:
        indexed = [(tuple(idx), (float(p[0]), float(p[1])))
                   for idx, p in points]
        grid = (
            1 + max(i for (i, _), _ in indexed),
            1 + max(j for (_, j), _ in indexed),
        )
    else:
        us, vs = grid_points(surface.patch, grid)
        indexed = [
            ((i, j), (u, v))
            for i, u in enumerate(us) for j, v in enumerate(vs)
        ]
    samples, ran_on = _map_samples(surface, indexed, root_tol, solve_tol,
                                   workers, pick_directions)

    by_index = {s.index: s for s in samples}
    failures = [
        (s.index, s.point, s.status, s.message)
        for s in samples if s.status in ("non_convex", "error")
    ]

    # Greedy chain matching, row-major.  Each solution slot gets a
    # branch id from the best matching neighbor slot; a slot whose
    # candidate neighbors disagree sits where two root families
    # collide, which breaks the continuation (recorded, not merged).
    assignment = {}
    events = {}
    link_gaps = {}
    next_id = 0

    for s in samples:
        if s.status not in ("ok", "degenerate"):
            continue
        i, j = s.index
        claimed = set()
        for k, sol in enumerate(s.solutions):
            candidates = []
            for nb_index in ((i - 1, j), (i, j - 1)):
                nb = by_index.get(nb_index)
                if nb is None or nb.status != s.status:
                    continue
                for m, nsol in enumerate(nb.solutions):
                    if (nb_index, m) in claimed:
                        continue
                    if (nb_index, m) not in assignment:
                        continue
                    if sol.theta is None and nsol.theta is None:
                        gap = 0.0
                    elif sol.theta is None or nsol.theta is None:
                        continue
                    else:
                        gap = angle_gap(sol.theta, nsol.theta)
                    if gap < angle_threshold:
                        candidates.append((gap, nb_index, m, nsol))
            candidates.sort(key=lambda c: c[0])
            chosen = None
            for gap, nb_index, m, nsol in candidates:
                if sol.theta is not None and not (
                        sol.simple_root and nsol.simple_root):
                    bid = assignment[(nb_index, m)]
                    events.setdefault(bid, []).append(
                        f"multiple root near {s.index}; branch broken"
                    )
                    continue
                chosen = (gap, nb_index, m)
                break
            if chosen is None:
                assignment[(s.index, k)] = next_id
                next_id += 1
                continue
            gap, nb_index, m = chosen
            bid = assignment[(nb_index, m)]
            assignment[(s.index, k)] = bid
            claimed.add((nb_index, m))
            link_gaps.setdefault(bid, []).append(gap)
            other_ids = {
                assignment[(c[1], c[2])] for c in candidates
            } - {bid}
            if other_ids:
                events.setdefault(bid, []).append(
                    f"root families touch near {s.index} "
                    f"(branches {sorted(other_ids)})"
                )

    groups = {}
    for s in samples:
        if s.status not in ("ok", "degenerate"):
            continue
        for k, sol in enumerate(s.solutions):
            bid = assignment[(s.index, k)]
            groups.setdefault(bid, []).append(
                BranchSample(s.index, s.point, sol)
            )

    branches = []
    for new_id, (bid, items) in enumerate(sorted(groups.items())):
        items.sort(key=lambda bs: bs.index)
        branches.append(EvoluteBranch(
            branch_id=new_id,
            samples=items,
            events=events.get(bid, []),
            degenerate=items[0].solution.theta is None,
            link_gaps=tuple(link_gaps.get(bid, ())),
        ))
    return TraceResult(branches, samples, failures, grid, ran_on)


def _sample_task(args):
    surface, index, point, root_tol, solve_tol, pick_directions = args
    return compute_sample(surface, index, point, root_tol, solve_tol,
                          pick_directions)


def _map_samples(surface, indexed, root_tol, solve_tol, workers,
                 pick_directions=0):
    """The samples, and the number of processes they ran on.

    A pool runs only for more than 64 samples; for fewer, or when the
    pool cannot start (OSError), the samples run serially in this
    process.
    """
    if workers and workers > 1 and len(indexed) > 64:
        # imported here: a serial run then never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        tasks = [
            (surface, idx, pt, root_tol, solve_tol, pick_directions)
            for idx, pt in indexed
        ]
        chunk = max(1, len(tasks) // (workers * 4))
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(_sample_task, tasks,
                                     chunksize=chunk)), workers
        except OSError:
            pass
    return [
        compute_sample(surface, idx, pt, root_tol, solve_tol, pick_directions)
        for idx, pt in indexed
    ], 1
