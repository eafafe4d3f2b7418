"""Shared geometric values: planes, quadrics, tangent directions.

Planes and quadrics are projective objects; comparisons go through a
max-component canonical form so tests and convergence probes are
scale-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from .scalars import FLOAT, coerce, sqrt_scalar


@dataclass(frozen=True)
class AtInfinity:
    """Marker value for centers that recede to infinity.

    Carries the asymptotic direction; compares equal to any other
    AtInfinity with a parallel direction.
    """

    direction: tuple

    def __eq__(self, other):
        if not isinstance(other, AtInfinity):
            return NotImplemented
        ax, ay, az = (float(c) for c in self.direction)
        bx, by, bz = (float(c) for c in other.direction)
        cx = ay * bz - az * by
        cy = az * bx - ax * bz
        cz = ax * by - ay * bx
        na = math.hypot(ax, ay, az)
        nb = math.hypot(bx, by, bz)
        if na == 0 or nb == 0:
            return True
        return math.hypot(cx, cy, cz) <= 1e-9 * na * nb

    def __hash__(self):
        return hash("AtInfinity")


@dataclass(frozen=True)
class Plane3:
    """Plane ``normal . X = offset`` with a nonzero covector."""

    normal: tuple
    offset: object
    mode: str

    def __post_init__(self):
        object.__setattr__(self, "normal", tuple(self.normal))
        if len(self.normal) != 3:
            raise ValueError("plane normal must have 3 components")
        if not any(self.normal):
            raise ValueError("plane covector is zero")

    def value(self, point):
        n1, n2, n3 = self.normal
        x, y, z = point
        return n1 * x + n2 * y + n3 * z - self.offset

    def canonical(self) -> "Plane3":
        """Scale so max |component| is 1 and that component is positive."""
        best = max(range(3), key=lambda i: abs(float(self.normal[i])))
        pivot = self.normal[best]
        return Plane3(
            tuple(c / pivot for c in self.normal),
            self.offset / pivot,
            self.mode,
        )

    def to_float(self) -> "Plane3":
        return Plane3(
            tuple(float(c) for c in self.normal), float(self.offset), FLOAT
        )


def plane_distance(p: Plane3, q: Plane3) -> float:
    """Scale-free gap: angle between unit covectors plus offset gap.

    Offsets are compared after max-normalization with the orientations
    aligned, so antipodal representations of one plane have distance 0.
    """
    a = p.canonical().to_float()
    b = q.canonical().to_float()
    na = a.normal
    nb = b.normal
    dot = sum(x * y for x, y in zip(na, nb))
    db = b.offset
    if dot < 0:
        nb = tuple(-c for c in nb)
        db = -db
        dot = -dot
    cross = (
        na[1] * nb[2] - na[2] * nb[1],
        na[2] * nb[0] - na[0] * nb[2],
        na[0] * nb[1] - na[1] * nb[0],
    )
    sin_term = math.hypot(*cross)
    angle = math.atan2(sin_term, dot)
    la = math.hypot(*na)
    lb = math.hypot(*nb)
    return angle + abs(a.offset / la - db / lb)


@dataclass(frozen=True)
class Quadric3:
    """Quadric locus ``[X;1]^T Q [X;1] = 0`` with symmetric 4x4 Q."""

    matrix: tuple
    mode: str

    def __post_init__(self):
        m = tuple(tuple(row) for row in self.matrix)
        if len(m) != 4 or any(len(r) != 4 for r in m):
            raise ValueError("quadric matrix must be 4x4")
        for i in range(4):
            for j in range(i + 1, 4):
                if m[i][j] != m[j][i]:
                    raise ValueError("quadric matrix must be symmetric")
        object.__setattr__(self, "matrix", m)

    def evaluate(self, point):
        xh = (*point, 1)
        total = 0
        for i in range(4):
            row = self.matrix[i]
            total = total + xh[i] * sum(row[j] * xh[j] for j in range(4))
        return total

    def max_abs(self) -> float:
        return max(abs(float(c)) for row in self.matrix for c in row)


def direction_pair(direction, mode: str = FLOAT):
    """A tangent direction (xi, eta) as scalars of ``mode``; (0, 0) is
    not a direction."""
    xi, eta = (coerce(c, mode) for c in direction)
    if not xi and not eta:
        raise ValueError("zero vector is not a direction")
    return xi, eta


def unit_direction(direction, mode: str = FLOAT):
    """A pair from :func:`direction_pair` scaled to unit length: by
    ``math.hypot`` in float mode, by the exact square root in rational
    mode, which may not exist."""
    xi, eta = direction
    if mode == FLOAT:
        n = math.hypot(xi, eta)
    else:
        n = sqrt_scalar(xi * xi + eta * eta, mode)
    return xi / n, eta / n


def angle_gap(t1: float, t2: float) -> float:
    """Distance between direction angles modulo pi."""
    d = abs(t1 - t2) % math.pi
    return min(d, math.pi - d)
