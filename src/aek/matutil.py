"""Tiny exact linear algebra on 2x2..4x4 nested tuples.

numpy cannot carry Fractions through det/inv, and these sizes are fixed,
so the closed forms are written out.  Matrices are tuples of row tuples.
"""

from __future__ import annotations


def matvec3(m, v):
    return tuple(sum(m[i][j] * v[j] for j in range(3)) for i in range(3))


def matmul3(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def transpose3(m):
    return tuple(tuple(m[j][i] for j in range(3)) for i in range(3))


def det2(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def det4(m):
    total = 0
    for j in range(4):
        minor = tuple(
            tuple(m[i][k] for k in range(4) if k != j) for i in range(1, 4)
        )
        term = m[0][j] * det3(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def inv3(m):
    """Inverse via the adjugate; exact over rationals."""
    d = det3(m)
    if not d:
        raise ZeroDivisionError("singular 3x3 matrix")
    cof = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            minor = [
                [m[r][c] for c in range(3) if c != j]
                for r in range(3) if r != i
            ]
            sign = 1 if (i + j) % 2 == 0 else -1
            cof[i][j] = sign * det2(minor)
    return tuple(tuple(cof[j][i] / d for j in range(3)) for i in range(3))


def solve3(m, rhs):
    """Cramer solve of a 3x3 system; exact over rationals."""
    d = det3(m)
    if not d:
        raise ZeroDivisionError("singular 3x3 system")
    out = []
    for j in range(3):
        mj = tuple(
            tuple(rhs[i] if k == j else m[i][k] for k in range(3))
            for i in range(3)
        )
        out.append(det3(mj) / d)
    return tuple(out)
