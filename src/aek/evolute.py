"""The mid-planes evolute: direction sextic, per-point centers, tracing.

At a normalized point, the pair-collapse limit of the mid-plane
envelope system is four affine conditions on X (the two Transon
gradients and the two pair-sum forms; the Transon form itself is a
combination of its gradients and is discarded).  The system is
solvable exactly when the direction is a root of a homogeneous sextic
q; the solution, when finite, is the Moutard center of the direction.
This module finds the roots, takes each center from the Moutard closed
form (the envelope solve stays as an independent route), continues
them over a patch, and flags the points where the sufficient
regularity condition holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial

from .errors import (
    NoSolutionError,
    NonConvexPointError,
    NormalizationError,
    PatchBoundsError,
    RankDeficientError,
)
from .frames import (
    BlaschkeFrame,
    SurfaceModel,
    binary_form,
    normalize_at,
    pull_back,
    to_float_frame,
    turned_coefficients,
)
from .geometry import (
    AtInfinity,
    angle_gap,
    coordinates_text,
    direction_pair,
    unit_direction,
)
from .invariants import (
    SectionJet,
    affine_curvature_derivative,
    moutard_center,
    transon_gradients,
)
from .matutil import det3, det4, solve3
from .midplanes import pair_sum_forms
from .realroots import integer_coefficients, unit_roots
from .scalars import coerce

# Fixed sign convention: rows (G_xi, G_eta, form_u, form_v) with the
# right-hand sides as the fourth column give det = +(3/32)(|T|^2)^2 q.
D_IDENTITY_CONSTANT = (3, 32)

#: a direction is a root of the sextic when |q| is at most this times
#: the sextic's coefficient scale
ROOT_ACCEPT = 1e-9
#: a root is simple when |dq/dtheta| exceeds this times the scale
SIMPLE_ROOT_THRESHOLD = 1e-6
#: neighbour roots link into one branch only within this angle (rad)
BRANCH_LINK_ANGLE = 0.2
#: chart step of the Pick-rate stencil
PICK_STEP = 1e-4


@dataclass(frozen=True)
class DirectionSextic:
    """Homogeneous degree-6 direction polynomial q = 12*q3 + q4.

    ``q_coeffs`` lists (xi^6, xi^5 eta, ..., eta^6).  q3 collects the
    cubic-form contributions, q4 the quartic ones.  Evenness in the
    direction is structural, so roots come in antipodal pairs.
    """

    q_coeffs: tuple
    #: max(max(|a|, |b|)^2, max |f4|) of the frame the sextic came from
    coeff_scale: float

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

    def is_root(self, theta: float) -> bool:
        """|q| at the direction is at most :data:`ROOT_ACCEPT` times the
        scale; every direction is a root of an identically zero
        sextic."""
        return (self.is_identically_zero()
                or abs(self.theta_value(theta)) <= ROOT_ACCEPT * self.scale())

    def root(self, theta: float) -> "DirectionRoot":
        """The root direction theta, with dq/dtheta there; it is simple
        when |dq/dtheta| clears :data:`SIMPLE_ROOT_THRESHOLD` times the
        scale, and no root of an identically zero sextic is."""
        dq = self.theta_derivative(theta)
        simple = (not self.is_identically_zero()
                  and abs(dq) > SIMPLE_ROOT_THRESHOLD * self.scale())
        return DirectionRoot(theta, simple, dq)


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
        max(abs(float(c)) for c in (a, b)) ** 2,
        max(abs(float(c)) for c in frame.f4),
    )
    # an inf or NaN scale would read as an identically zero sextic
    if not math.isfinite(coeff_scale + sum(abs(float(c)) for c in q3 + q4)):
        raise OverflowError("direction sextic beyond the float range")
    return DirectionSextic(
        tuple(12 * c3 + c4 for c3, c4 in zip(q3, q4)), coeff_scale)


def _limit_rows(frame: BlaschkeFrame, xi, eta, forms):
    """The four envelope-limit conditions at a direction, given the
    frame's ``forms``, as (covector, rhs) pairs in the fixed row order."""
    g_xi, g_eta = transon_gradients(frame, (xi, eta))
    form_u, form_v = forms
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
    rows = _limit_rows(frame, *direction_pair(direction, frame.mode),
                       pair_sum_forms(frame))
    m = tuple((*cov, rhs) for cov, rhs in rows)
    return det4(m)


@dataclass(frozen=True)
class DirectionRoot:
    theta: float
    simple: bool
    q_derivative: float


@dataclass(frozen=True)
class DirectionRoots:
    """The distinct real root directions of a direction sextic, in
    ascending theta on [0, pi), each once whatever its multiplicity; no
    roots when the sextic is identically zero."""

    identically_zero: bool
    roots: tuple
    sextic: DirectionSextic


def evolute_directions(frame: BlaschkeFrame) -> DirectionRoots:
    """Real roots of the direction sextic on [0, pi), certified.

    The sextic's coefficients are exact rationals (a float is one), so
    its integer multiple is split at the axes and diagonals: a direction
    theta in {0, pi/4, pi/2, 3pi/4} is a root exactly when q vanishes
    there, and the roots on each open arc between them are the roots in
    (0, 1) of one of q(1, x), q(x, 1), q(-x, 1), q(1, -x), isolated
    exactly by :func:`realroots.unit_roots` and refined in float.  No
    root is dropped; roots closer together than the float resolution of
    theta share one theta and are reported once.  Simplicity is
    :meth:`DirectionSextic.root`.
    """
    sextic = direction_sextic(frame)
    if sextic.is_identically_zero():
        return DirectionRoots(True, (), sextic)

    q = integer_coefficients(sextic.q_coeffs)
    flip = [c if k % 2 == 0 else -c for k, c in enumerate(q)]
    thetas = [theta for theta, value in (
        (0.0, q[0]), (math.pi / 4, sum(q)),
        (math.pi / 2, q[6]), (3 * math.pi / 4, sum(flip))) if value == 0]
    thetas += [math.atan(x) for x in unit_roots(q)]
    thetas += [math.atan2(1.0, x) for x in unit_roots(q[::-1])]
    thetas += [math.atan2(1.0, -x) for x in unit_roots(flip[::-1])]
    thetas += [math.pi - math.atan(x) for x in unit_roots(flip)]
    return DirectionRoots(False, tuple(
        sextic.root(th) for th in sorted({th % math.pi for th in thetas})
    ), sextic)


@dataclass(frozen=True)
class EvoluteSolution:
    """The evolute point of one root direction at a sample.

    ``center_world`` is the Moutard center of the direction, pulled
    back to the world chart (an :class:`AtInfinity` when the quadric is
    a paraboloid); ``d_value`` is the envelope-limit determinant,
    (3/32) q(theta) at the unit direction.  ``regular`` is
    :func:`regularity_rule` at the point, set by :func:`compute_sample`
    when it sampled Pick rates, else None.
    """

    theta: float
    center_world: object
    d_value: float
    simple_root: bool
    mu_prime: float
    regular: bool | None = None


def solve_evolute_point(frame: BlaschkeFrame, theta: float):
    """The local center solved from the envelope-limit system at a root
    direction: a 3-tuple, or the Moutard center's :class:`AtInfinity`.

    The Transon form itself is discarded (it is a combination of its
    gradients); of the remaining four conditions the best-conditioned
    three are solved.  This is the route independent of
    :func:`moutard_center`, which :func:`compute_sample` uses and the
    paper proves equal.  Where the four conditions have rank below 3,
    the center is at infinity exactly when the Moutard center is, along
    its direction; otherwise :class:`RankDeficientError` is raised.
    """
    fr = to_float_frame(frame)
    sextic = direction_sextic(fr)
    if not sextic.is_root(theta):
        raise NoSolutionError(
            f"direction {theta:.6f} is not a root: "
            f"|q|={abs(sextic.theta_value(theta)):.3e} "
            f"(scale {sextic.scale():.3e})"
        )
    xi, eta = math.cos(theta), math.sin(theta)
    rows = _limit_rows(fr, xi, eta, pair_sum_forms(fr))
    row_scale = max(abs(c) for cov, rhs in rows for c in (*cov, rhs))
    mat = [cov for cov, _ in rows]
    rhs = [r for _, r in rows]

    best_det, best_drop = 0.0, None
    for drop in range(4):
        keep = [mat[i] for i in range(4) if i != drop]
        dval = det3(keep)
        if abs(dval) > abs(best_det):
            best_det, best_drop = dval, drop

    if abs(best_det) <= 1e-12 * max(row_scale, 1.0) ** 3:
        mc = moutard_center(fr, (xi, eta))
        if not isinstance(mc, AtInfinity):
            raise RankDeficientError(
                f"envelope-limit matrix rank below 3 at theta={theta:.6f}"
            )
        return mc
    keep_idx = [i for i in range(4) if i != best_drop]
    return solve3([mat[i] for i in keep_idx], [rhs[i] for i in keep_idx])


def pick_invariant(frame: BlaschkeFrame):
    """Squared norm of the cubic form (a^2 + b^2 in any rotation)."""
    return frame.a * frame.a + frame.b * frame.b


def pick_derivative(surface: SurfaceModel, p0, direction_w) -> float:
    """Directional derivative of the Pick norm |kappa| = sqrt(a^2 + b^2).

    Central finite difference of step :data:`PICK_STEP` along the chart
    line through p0.  |kappa| is the coefficient b >= 0 of the frame
    turned to kill a, whichever of the three such turns is taken, so no
    frame continuation is needed.
    Both stencil points are checked against the patch before either is
    normalized, so a stencil that leaves the patch costs no
    normalization.
    """
    h = PICK_STEP
    wx, wy = unit_direction(direction_pair(direction_w))
    surface = surface.to_float()
    p0 = (float(p0[0]), float(p0[1]))
    pp = (p0[0] + h * wx, p0[1] + h * wy)
    pm = (p0[0] - h * wx, p0[1] - h * wy)
    for p in (pp, pm):
        if not surface.contains(p):
            raise PatchBoundsError(
                f"stencil point {coordinates_text(p)} outside patch "
                f"{coordinates_text(surface.patch)}"
            )
    bp, bm = (math.sqrt(pick_invariant(normalize_at(surface, p)))
              for p in (pp, pm))
    return (bp - bm) / (2 * h)


def section_curvature_rate(frame: BlaschkeFrame, direction):
    """Arc-length derivative of the affine curvature of the section
    spanned by the direction and its cone ruling.

    Uses the closed-form quintic section coefficients of the frame
    turned onto the direction: a3 = 6a, a4 = 24(f40 - 9/2 b^2),
    a5 = 120(-27 a b^2 + 3 b f31 + f50).
    """
    (a, b, f40, f31, f50), _ = turned_coefficients(frame, direction)
    return affine_curvature_derivative(SectionJet(
        a3=6 * a,
        a4=24 * (f40 - coerce(9, frame.mode) * b * b / 2),
        a5=120 * (-27 * a * b * b + 3 * b * f31 + f50),
        mode=frame.mode,
    ))


def regularity_rule(simple_root: bool, mu_prime, pick_rates) -> bool:
    """The sufficient regularity condition at a branch point.

    The Pick invariant is not critical (some finite directional rate of
    |kappa| exceeds 1e-6), the section curvature rate along T exceeds
    1e-9 in size, and the branch direction is a simple root.
    """
    return (simple_root and abs(mu_prime) > 1e-9
            and any(abs(r) > 1e-6 for r in pick_rates if not math.isnan(r)))


#: what ``normalize_at`` raises at a point it cannot normalize
_NORMALIZE_ERRORS = (NonConvexPointError, PatchBoundsError, NormalizationError)


def _pick_rates(surface, p0, directions: int) -> tuple:
    """Pick rates along ``directions`` chart directions spread over
    [0, pi); NaN where a stencil point leaves the patch or cannot be
    normalized."""
    rates = []
    for k in range(directions):
        ang = math.pi * k / directions
        try:
            rates.append(pick_derivative(
                surface, p0, (math.cos(ang), math.sin(ang))))
        except _NORMALIZE_ERRORS:
            rates.append(float("nan"))
    return tuple(rates)


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


@dataclass
class BranchSample:
    index: tuple
    point: tuple
    solution: EvoluteSolution


@dataclass
class EvoluteBranch:
    """A sheet of (surface point -> direction -> center), with at most
    one sample per grid point."""

    branch_id: int
    samples: list
    events: list = field(default_factory=list)
    degenerate: bool = False
    link_gaps: tuple = ()

    @property
    def max_link_gap(self) -> float:
        """Largest direction jump along the continuation links; below
        :data:`BRANCH_LINK_ANGLE` by construction."""
        return max(self.link_gaps, default=0.0)


@dataclass
class TraceResult:
    branches: list
    samples: list
    failures: list
    #: processes the samples ran on: the pool size, or 1 when serial
    workers: int


def compute_sample(surface: SurfaceModel, index, point,
                   pick_directions: int = 0) -> SamplePoint:
    """Normalize, find root directions and take their centers at one point.

    Each root's center is its closed-form :func:`moutard_center`, the
    limit of the mid-plane envelope.  With ``pick_directions`` > 0, the
    rate of the Pick norm |kappa| is sampled along that many chart
    directions, and every solution gets its ``regular`` flag from those
    rates.  The float ``surface`` is normalized at the point, and its
    sextic and roots found, once.  A float overflow anywhere in the
    sample makes it an ``error`` sample.
    """
    try:
        frame = normalize_at(surface, point)
    except _NORMALIZE_ERRORS as exc:
        status = ("non_convex" if isinstance(exc, NonConvexPointError)
                  else "error")
        return SamplePoint(index, point, status, message=str(exc))
    try:
        rates = None
        if pick_directions:
            rates = _pick_rates(surface, point, pick_directions)
        droots = evolute_directions(frame)
        if droots.identically_zero:
            status = "degenerate"
            mc = moutard_center(frame, (1.0, 0.0))
            if isinstance(mc, AtInfinity):
                return SamplePoint(index, point, status,
                                   message="centers at infinity")
            sols = [EvoluteSolution(
                theta=None, center_world=pull_back(frame, mc),
                d_value=0.0, simple_root=False,
                mu_prime=float(section_curvature_rate(frame, (1.0, 0.0))),
            )]
        else:
            status = "ok"
            num, den = D_IDENTITY_CONSTANT
            sols = []
            for root in droots.roots:
                t = (math.cos(root.theta), math.sin(root.theta))
                sols.append(EvoluteSolution(
                    theta=root.theta,
                    center_world=pull_back(frame, moutard_center(frame, t)),
                    d_value=droots.sextic.theta_value(root.theta) * num / den,
                    simple_root=root.simple,
                    mu_prime=section_curvature_rate(frame, t),
                ))
        if rates is not None:
            sols = [replace(sol, regular=regularity_rule(
                        sol.simple_root, sol.mu_prime, rates))
                    for sol in sols]
        return SamplePoint(index, point, status, sols)
    except OverflowError as exc:
        return SamplePoint(index, point, "error",
                           message=f"float overflow: {exc}")


def grid_points(patch, shape):
    nu, nv = shape
    umin, umax, vmin, vmax = (float(c) for c in patch)
    us = [umin + i * (umax - umin) / (nu - 1) for i in range(nu)] \
        if nu > 1 else [(umin + umax) / 2]
    vs = [vmin + j * (vmax - vmin) / (nv - 1) for j in range(nv)] \
        if nv > 1 else [(vmin + vmax) / 2]
    return us, vs


def trace_evolute(surface: SurfaceModel, grid=(41, 41),
                  workers: int = 1,
                  pick_directions: int = 0) -> TraceResult:
    """Continue the evolute over a chart grid.

    Grid samples are independent (and parallelizable); branches are
    labelled afterwards by :func:`_label_branches`, each a connected
    sheet with one sample per grid point.  Per-sample failures are
    collected, never fatal: the ``non_convex`` and ``error`` samples.
    """
    surface = surface.to_float()
    us, vs = grid_points(surface.patch, (grid, grid)
                         if isinstance(grid, int) else grid)
    indexed = [
        ((i, j), (u, v))
        for i, u in enumerate(us) for j, v in enumerate(vs)
    ]
    samples, ran_on = _map_samples(surface, indexed, workers,
                                   pick_directions)
    failures = [
        (s.index, s.point, s.status, s.message)
        for s in samples if s.status in ("non_convex", "error")
    ]
    return TraceResult(_label_branches(samples), samples, failures, ran_on)


def _label_branches(samples) -> list:
    """Label the root slots (grid index, root number) with sheets:
    two-pass labelling with union-find (Hoshen & Kopelman, 1976).

    A sample links its roots to those of its left and lower neighbours,
    one to one, nearest angle gap first, within :data:`BRANCH_LINK_ANGLE`;
    only simple roots link, and degenerate samples link with gap 0.  A
    merge that would put two roots of one grid point on one branch is
    refused.  Events mark a non-simple root, a root without a partner
    where the root count changes, and a refused merge, one line per
    (branch, kind, other branch).  Branch ids follow the smallest slot.
    """
    by_index = {s.index: s for s in samples
                if s.status in ("ok", "degenerate")}
    parent, points, links, breaks = {}, {}, [], []

    def find(slot):
        while parent[slot] != slot:
            parent[slot] = parent[parent[slot]]
            slot = parent[slot]
        return slot

    for idx, s in by_index.items():
        for k, sol in enumerate(s.solutions):
            parent[idx, k], points[idx, k] = (idx, k), {idx}
            if sol.theta is not None and not sol.simple_root:
                breaks.append(((idx, k), "non-simple root", None, idx))
    for idx, s in by_index.items():
        for nb in (by_index.get((idx[0] - 1, idx[1])),
                   by_index.get((idx[0], idx[1] - 1))):
            if nb is None or nb.status != s.status:
                continue
            pairs = sorted(
                (gap, k, m)
                for k, a in enumerate(s.solutions)
                for m, b in enumerate(nb.solutions)
                if a.theta is None or (a.simple_root and b.simple_root)
                if (gap := 0.0 if a.theta is None
                    else angle_gap(a.theta, b.theta)) < BRANCH_LINK_ANGLE)
            mine, theirs = set(), set()
            for gap, k, m in pairs:
                if k in mine or m in theirs:
                    continue
                mine.add(k)
                theirs.add(m)
                ra, rb = find((idx, k)), find((nb.index, m))
                if ra != rb and not points[ra].isdisjoint(points[rb]):
                    breaks += [(ra, "refused merge", rb, idx),
                               (rb, "refused merge", ra, idx)]
                    continue
                if ra != rb:
                    if len(points[ra]) < len(points[rb]):
                        ra, rb = rb, ra
                    parent[rb] = ra
                    points[ra] |= points.pop(rb)
                links.append(((idx, k), gap))
            if len(s.solutions) != len(nb.solutions):
                for own, other, used in ((s, nb, mine), (nb, s, theirs)):
                    kind = (f"root count {len(own.solutions)} -> "
                            f"{len(other.solutions)}")
                    breaks += [((own.index, k), kind, None, own.index)
                               for k in range(len(own.solutions))
                               if k not in used]

    members = {}
    for slot in parent:
        members.setdefault(find(slot), []).append(slot)
    roots = sorted(members, key=lambda r: min(members[r]))
    label = {r: n for n, r in enumerate(roots)}
    gaps, seen, events = {}, {}, {}
    for slot, gap in links:
        gaps.setdefault(label[find(slot)], []).append(gap)
    for slot, kind, other, idx in breaks:
        key = (label[find(slot)], kind, other and label[find(other)])
        first, count = seen.get(key, (idx, 0))
        seen[key] = (min(first, idx), count + 1)
    for (bid, kind, other), (first, count) in seen.items():
        events.setdefault(bid, []).append(
            kind + ("" if other is None else f" with branch {other}")
            + f" at {first}" + (f", {count} times" if count > 1 else ""))
    branches = []
    for bid, r in enumerate(roots):
        items = [BranchSample(idx, by_index[idx].point,
                              by_index[idx].solutions[k])
                 for idx, k in sorted(members[r])]
        branches.append(EvoluteBranch(
            bid, items, events.get(bid, []), items[0].solution.theta is None,
            tuple(gaps.get(bid, ()))))
    return branches


def _map_samples(surface, indexed, workers, pick_directions=0):
    """The samples, and the number of processes they ran on.

    A pool of at most one process per sample runs for more than 64
    samples; for fewer, or when the pool cannot start (OSError), the
    samples run serially in this process.
    """
    task = partial(compute_sample, surface, pick_directions=pick_directions)
    indices = [idx for idx, _ in indexed]
    points = [pt for _, pt in indexed]
    if workers and workers > 1 and len(indexed) > 64:
        # imported here: a serial run then never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork starts every process at the first submit, used or not
        workers = min(workers, len(indexed))
        chunk = max(1, len(indexed) // (workers * 4))
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(task, indices, points,
                                     chunksize=chunk)), workers
        except OSError:
            pass
    return list(map(task, indices, points)), 1
