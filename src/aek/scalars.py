"""Dual-mode scalar arithmetic: exact rationals or double floats.

Every container in this package (jets, maps, frames) carries a ``mode``
tag, either :data:`RATIONAL` or :data:`FLOAT`.  Rational mode uses
:class:`fractions.Fraction` throughout, so residuals that should vanish
vanish exactly; float mode uses plain ``float``.  Mixing modes is an
error, never a silent promotion.
"""

from __future__ import annotations

import math
from fractions import Fraction

RATIONAL = "rational"
FLOAT = "float"
MODES = (RATIONAL, FLOAT)


class ModeMismatchError(TypeError):
    """Raised when values from different numeric modes are combined."""


def check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"unknown scalar mode {mode!r}")
    return mode


def join_modes(m1: str, m2: str) -> str:
    if m1 != m2:
        raise ModeMismatchError(f"cannot mix {m1!r} and {m2!r} values")
    return m1


def coerce(value, mode: str):
    """Convert ``value`` to the scalar type of ``mode``.

    Rational mode accepts ints, Fractions and ``"p/q"`` strings; a float
    is rejected there because the conversion would smuggle binary
    rounding into exact arithmetic.
    """
    check_mode(mode)
    if mode == RATIONAL:
        if isinstance(value, bool):
            raise ModeMismatchError("bool is not a scalar")
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        if isinstance(value, str):
            return Fraction(value)
        raise ModeMismatchError(
            f"rational mode cannot absorb {type(value).__name__} value {value!r}"
        )
    if isinstance(value, bool):
        raise ModeMismatchError("bool is not a scalar")
    if isinstance(value, (int, float, Fraction)):
        return float(value)
    if isinstance(value, str):
        return float(Fraction(value))
    raise ModeMismatchError(
        f"float mode cannot absorb {type(value).__name__} value {value!r}"
    )


def zero(mode: str):
    return Fraction(0) if mode == RATIONAL else 0.0


def one(mode: str):
    return Fraction(1) if mode == RATIONAL else 1.0


def exact_sqrt(value: Fraction) -> Fraction:
    """Square root of a nonnegative rational, exact or ValueError.

    Rational-mode normalization needs square roots of Hessian data; they
    exist in Q only for perfect squares, so failure is an error the
    caller is expected to surface (switch to float mode).
    """
    if value < 0:
        raise ValueError("square root of a negative rational")
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        raise ValueError(f"{value} has no exact rational square root")
    return Fraction(rn, rd)


def sqrt_scalar(value, mode: str):
    if mode == RATIONAL:
        return exact_sqrt(value)
    if value < 0:
        raise ValueError("square root of a negative value")
    return math.sqrt(value)


def format_scalar(value) -> str:
    """Serialize for reports: ``p/q`` for Fractions, repr for floats."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return repr(float(value))
