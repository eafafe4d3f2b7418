"""Shared geometric value types: planes, quadrics, tangent directions.

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

    def to_float(self) -> "Quadric3":
        return Quadric3(
            tuple(tuple(float(c) for c in row) for row in self.matrix), FLOAT
        )

    def max_abs(self) -> float:
        return max(abs(float(c)) for row in self.matrix for c in row)


class TangentDirection:
    """Direction ``(xi, eta)`` in a tangent chart, antipodally identified."""

    __slots__ = ("xi", "eta", "mode")

    def __init__(self, xi, eta, mode: str = FLOAT):
        xi = coerce(xi, mode)
        eta = coerce(eta, mode)
        if not xi and not eta:
            raise ValueError("zero vector is not a direction")
        self.xi = xi
        self.eta = eta
        self.mode = mode

    @classmethod
    def from_angle(cls, theta: float) -> "TangentDirection":
        return cls(math.cos(theta), math.sin(theta), FLOAT)

    @property
    def theta(self) -> float:
        """Representative angle in [0, pi)."""
        t = math.atan2(float(self.eta), float(self.xi)) % math.pi
        return 0.0 if t >= math.pi - 1e-15 else t

    def norm_squared(self):
        return self.xi * self.xi + self.eta * self.eta

    def unit(self) -> tuple[float, float]:
        n = math.hypot(float(self.xi), float(self.eta))
        return float(self.xi) / n, float(self.eta) / n

    def exact_unit(self):
        """(xi, eta) scaled to exact unit length; rational mode may fail."""
        n2 = self.norm_squared()
        n = sqrt_scalar(n2, self.mode)
        return self.xi / n, self.eta / n

    def _canonical(self):
        xi, eta = float(self.xi), float(self.eta)
        n = math.hypot(xi, eta)
        xi, eta = xi / n, eta / n
        if xi < 0 or (xi == 0 and eta < 0):
            xi, eta = -xi, -eta
        return xi, eta

    def __eq__(self, other):
        if not isinstance(other, TangentDirection):
            return NotImplemented
        ax, ay = self._canonical()
        bx, by = other._canonical()
        return abs(ax - bx) <= 1e-12 and abs(ay - by) <= 1e-12

    def __hash__(self):
        return hash(tuple(round(c, 9) for c in self._canonical()))

    def __repr__(self):
        return f"TangentDirection({self.xi}, {self.eta})"


def as_direction(obj, mode: str = FLOAT) -> TangentDirection:
    if isinstance(obj, TangentDirection):
        return obj
    if isinstance(obj, (int, float)):
        return TangentDirection.from_angle(float(obj))
    xi, eta = obj
    return TangentDirection(xi, eta, mode)


def angle_gap(t1: float, t2: float) -> float:
    """Distance between direction angles modulo pi."""
    d = abs(t1 - t2) % math.pi
    return min(d, math.pi - d)
