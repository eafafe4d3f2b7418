"""Exact real-root isolation for integer polynomials on (0, 1).

Descartes' rule of signs with bisection (Vincent-Collins-Akritas:
Collins & Akritas 1976; Rouillier & Zimmermann, J. Comput. Appl. Math.
162, 2004).  The sign variations of (x + 1)^n p(1/(x + 1)) bound the
number of roots of p in (0, 1) and have its parity; zero variations
mean no root, one means exactly one, and a simple one.  Bisection on
integer coefficients ends for a square-free p; a multiple root keeps
the count at two or more, so past :data:`GCD_DEPTH` halvings the
polynomial is replaced, once, by its square-free part p / gcd(p, p').
Each isolated root is then refined in float by Newton's method kept
inside its bracket.  Polynomials are coefficient lists in ascending
degree.
"""

from __future__ import annotations

import math

#: bisection depth past which the square-free part is taken
GCD_DEPTH = 48


def integer_coefficients(coeffs) -> list:
    """Integers proportional to exact rationals (floats, Fractions or
    ints), with their common factor removed."""
    ratios = [c.as_integer_ratio() for c in coeffs]
    den = math.lcm(*(d for _, d in ratios))
    ints = [n * (den // d) for n, d in ratios]
    g = math.gcd(*ints)
    return [c // g for c in ints] if g > 1 else ints


def unit_roots(p) -> list:
    """The distinct real roots of the integer polynomial p in the open
    interval (0, 1), ascending, as floats.  A root on a bisection point
    is exact; the others are refined in the coordinates of their
    isolating interval, where p's float coefficients carry the least
    cancellation."""
    p = _trim(p)
    while p and p[0] == 0:
        p = p[1:]
    if len(p) < 2:
        return []
    found = _isolate(p, GCD_DEPTH)
    if found is None:
        found = _isolate(_square_free(p), None)
    out = []
    for c, k, q in found:
        x = c / (1 << k)
        if q is not None:
            scale = max(abs(a) for a in q)
            t = _refine([a / scale for a in q], q[0] > 0)
            x += math.ldexp(t, -k)
        out.append(x)
    return sorted(out)


def _trim(p) -> list:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _shift1(p) -> list:
    """Coefficients of p(x + 1)."""
    a = list(p)
    n = len(a) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            a[j] += a[j + 1]
    return a


def _variations(p) -> int:
    """Sign variations of (x + 1)^n p(1/(x + 1)), stopped at two."""
    count, last = 0, 0
    for c in _shift1(p[::-1]):
        if c:
            if last and (c > 0) != (last > 0):
                count += 1
                if count == 2:
                    return 2
            last = c
    return count


def _isolate(p, cap):
    """Isolating intervals (c/2^k, (c+1)/2^k) of the roots of p in
    (0, 1), as (c, k, q) with q(t) a multiple of p((c + t)/2^k), and
    exact dyadic roots c/2^k as (c, k, None); None when a count stays
    at two or more past ``cap`` halvings."""
    out = []
    stack = [(0, 0, p)]
    while stack:
        c, k, q = stack.pop()
        if q[0] == 0:
            # the left end is a root: a midpoint of the parent interval
            out.append((c, k, None))
            while q[0] == 0:
                q = q[1:]
        v = _variations(q)
        if v == 1:
            out.append((c, k, q))
        elif v == 2:
            if cap is not None and k >= cap:
                return None
            n = len(q) - 1
            left = [a << (n - i) for i, a in enumerate(q)]
            stack.append((2 * c + 1, k + 1, _shift1(left)))
            stack.append((2 * c, k + 1, left))
    return out


def _refine(fc, positive: bool) -> float:
    """The one root in (0, 1) of the float polynomial fc, which is
    positive just right of 0 when ``positive``: Newton's method, with a
    bisection step whenever Newton would leave the bracket."""
    lo, hi = 0.0, 1.0
    x = 0.5
    for _ in range(200):
        f, d = 0.0, 0.0
        for c in reversed(fc):
            d = d * x + f
            f = f * x + c
        if f == 0.0:
            return x
        if (f > 0) == positive:
            lo = x
        else:
            hi = x
        nx = x - f / d if d else lo
        if not lo < nx < hi:
            nx = 0.5 * (lo + hi)
        if abs(nx - x) <= 4e-16 * abs(x) or nx in (lo, hi):
            return nx
        x = nx
    return x


def _pseudo_remainder(a, b) -> list:
    r = list(a)
    lead, db = b[-1], len(b) - 1
    while len(r) - 1 >= db and r:
        top, shift = r[-1], len(r) - 1 - db
        r = [c * lead for c in r]
        for i, c in enumerate(b):
            r[i + shift] -= top * c
        r = _trim(r)
    return r


def _primitive(p) -> list:
    g = math.gcd(*p)
    if p[-1] < 0:
        g = -g
    return [c // g for c in p]


def _square_free(p) -> list:
    """p / gcd(p, p'), exactly, by the primitive remainder sequence."""
    p = a = _primitive(p)
    b = _primitive([i * c for i, c in enumerate(p)][1:])
    while b:
        a, b = b, _pseudo_remainder(a, b)
        if b:
            b = _primitive(b)
    return _exact_quotient(p, a)


def _exact_quotient(p, g) -> list:
    """p / g for a divisor g of p; exact over the integers when g is
    primitive (Gauss's lemma)."""
    r = list(p)
    dq = len(p) - len(g)
    quot = [0] * (dq + 1)
    for i in range(dq, -1, -1):
        t = r[i + len(g) - 1] // g[-1]
        quot[i] = t
        for j, c in enumerate(g):
            r[i + j] -= t * c
    return quot
