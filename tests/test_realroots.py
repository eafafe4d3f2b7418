"""Exact root isolation on (0, 1) against sympy's real-root counts."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import aek.realroots as realroots
from aek.realroots import integer_coefficients, unit_roots

X = sympy.Symbol("x")


def distinct_unit_roots(p) -> list:
    """sympy's distinct real roots of p in the open interval (0, 1)."""
    poly = sympy.Poly(list(reversed(p)), X)
    if poly.degree() < 1:
        return []
    return sorted({r for r in sympy.real_roots(poly.sqf_part())
                   if 0 < r < 1})


def from_roots(roots, lead=1, extra=()) -> list:
    """Integer coefficients, ascending, of lead * prod (x - r)^k times
    the integer factors in ``extra``."""
    poly = sympy.Poly(lead, X)
    for r, k in roots:
        poly *= sympy.Poly(X - r, X) ** k
    for factor in extra:
        poly *= sympy.Poly(list(reversed(factor)), X)
    den = sympy.ilcm(*(sympy.Rational(c).q for c in poly.all_coeffs()))
    return [int(c * den) for c in reversed(poly.all_coeffs())]


def check_against_sympy(p):
    want = distinct_unit_roots(p)
    got = unit_roots(p)
    assert len(got) == len(want)
    for x, r in zip(got, want):
        assert x == pytest.approx(float(r), rel=1e-9, abs=1e-300)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=1, max_size=9))
def test_counts_match_sympy_on_integer_polynomials(p):
    check_against_sympy(p)


_ROOTS = st.lists(
    st.tuples(st.fractions(min_value=Fraction(-1, 2), max_value=2,
                           max_denominator=40),
              st.integers(1, 3)),
    min_size=1, max_size=3)


@settings(max_examples=150, deadline=None)
@given(_ROOTS, st.sampled_from([1, -3, 7]),
       st.sampled_from([(), ((1, 0, 1),), ((5, -4, 1),), ((1, 1, 3),)]))
def test_counts_match_sympy_with_multiple_roots(roots, lead, extra):
    """Exact multiple roots, inside, at the ends and outside (0, 1),
    some next to a quadratic factor with no real or with a double root
    (x^2 - 4x + 5 has roots 2 +- i)."""
    check_against_sympy(from_roots(roots, lead, extra))


@pytest.mark.parametrize("roots", [
    [(Fraction(1, 3), 2)],
    [(Fraction(1, 3), 2), (Fraction(1, 3) + Fraction(1, 10 ** 6), 1)],
    [(Fraction(2, 7), 3), (Fraction(5, 7), 2), (Fraction(1, 2), 1)],
])
def test_multiple_roots_end_on_the_gcd_path(monkeypatch, roots):
    """A multiple root that is not dyadic keeps its Descartes count at
    two on every halving; past GCD_DEPTH the square-free part is taken
    once, and every distinct root is found once."""
    calls = []
    square_free = realroots._square_free
    monkeypatch.setattr(realroots, "_square_free",
                        lambda p: calls.append(p) or square_free(p))
    check_against_sympy(from_roots(roots))
    assert len(calls) == 1


def test_dyadic_roots_are_exact():
    """A root at a bisection midpoint is found by exact evaluation, a
    double one too, with no square-free step."""
    p = from_roots([(Fraction(1, 2), 2), (Fraction(3, 4), 1),
                    (Fraction(5, 8), 1)])
    assert unit_roots(p) == [0.5, 0.625, 0.75]


def test_roots_at_the_ends_are_not_inside():
    assert unit_roots(from_roots([(0, 2), (1, 3)])) == []
    assert unit_roots([0, 0, 1]) == []


def test_integer_coefficients_are_exact():
    assert integer_coefficients([0.5, 0.0, -0.75]) == [2, 0, -3]
    assert integer_coefficients([Fraction(1, 3), Fraction(-2, 9), 4]) == [
        3, -2, 36]
    tiny, huge = 2.0 ** -1074, 1e300
    ints = integer_coefficients([tiny, huge])
    assert Fraction(ints[1], ints[0]) == Fraction(huge) / Fraction(tiny)
