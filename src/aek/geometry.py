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
    """Marker value for centers that recede to infinity, carrying the
    asymptotic direction."""

    direction: tuple


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


def coordinates_text(values) -> str:
    """A point or a patch as ``(2, 1/3)``: each coordinate by ``str``,
    which writes a Fraction as p/q and a float as its repr."""
    return "(" + ", ".join(map(str, values)) + ")"


def angle_gap(t1: float, t2: float) -> float:
    """Distance between direction angles modulo pi."""
    d = abs(t1 - t2) % math.pi
    return min(d, math.pi - d)
