"""Truncated multivariate polynomial (jet) arithmetic.

Coefficients live in dense tables ordered by total degree then
lexicographically; all operations truncate at the jet's own order, so
the algebra closes over the truncation.  Two concrete charts are used:

* :class:`Jet2` over ``(x, y)``: height functions of surface patches,
  default order 5;
* :class:`Jet4` over ``(u1, v1, u2, v2)``: expansions of point-pair
  quantities, default order 4.

:class:`LinearFormJet` packages an expression that is affine-linear in
a space point ``X = (x, y, z)`` whose four coefficients are ``Jet4``
values; linearity in ``X`` is structural, not enforced by bookkeeping.

Everything is immutable and mode-tagged (see :mod:`aek.scalars`):
rational-mode arithmetic is exact.  Every jet keeps the list of its
nonzero slots: the operation that made it hands the list over, or the
jet scans its entries once, on first use.  ``+``, ``-``, ``scaled``,
``*``, ``max_abs`` and ``Jet4.graded_sizes`` walk that list in both
modes and never test or touch a zero entry, so a slot that no nonzero
entry reaches keeps the zero it had.  A product convolves numerators over one
common denominator: integers for Fractions, the representation of
FLINT's ``fmpq_poly`` (Hart, ICMS 2010), and the floats themselves over
1.  ``Jet2.shifted`` walks a plan cached per pair of orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress, product

from .scalars import (
    FLOAT, RATIONAL, ModeMismatchError, coerce, join_modes, zero,
)


@lru_cache(maxsize=None)
def _exponents(nvars: int, order: int) -> tuple[tuple[int, ...], ...]:
    """All exponent tuples with total degree <= order, graded lex order."""
    out = []
    for total in range(order + 1):
        for combo in product(range(total + 1), repeat=nvars):
            if sum(combo) == total:
                out.append(combo)
    return tuple(out)


@lru_cache(maxsize=None)
def _index(nvars: int, order: int) -> dict[tuple[int, ...], int]:
    return {e: k for k, e in enumerate(_exponents(nvars, order))}


@lru_cache(maxsize=None)
def _pair_table(nvars: int, order: int) -> tuple[tuple[int, ...], ...]:
    """pair_table[i][j] = index of exps[i]+exps[j], or -1 if truncated."""
    exps = _exponents(nvars, order)
    idx = _index(nvars, order)
    table = []
    for ea in exps:
        row = []
        for eb in exps:
            s = tuple(x + y for x, y in zip(ea, eb))
            row.append(idx.get(s, -1))
        table.append(tuple(row))
    return tuple(table)


@lru_cache(maxsize=None)
def _shift_plan(order: int, kept: int) -> tuple:
    """The work of each term x^i y^j of an ``order`` table in a shift
    kept to degree ``kept``: per k <= min(i, kept), the pair
    (C(i, k), i - k) and, per l <= min(j, kept - k), the slot of
    x^k y^l with C(j, l) and j - l."""
    comb = math.comb
    return tuple(
        tuple((comb(i, k), i - k, tuple(
            ((k + l) * (k + l + 1) // 2 + k, comb(j, l), j - l)
            for l in range(min(j, kept - k) + 1)))
            for k in range(min(i, kept) + 1))
        for i, j in _exponents(2, order))


def _numerators(a, b):
    """The nonzero entries of ``a`` and of ``b`` as (slot, numerator)
    pairs, and the rule that builds a product entry from its sum of
    numerator products.  Fractions become integer numerators over the
    least common denominator of their jet, and a product entry is one
    Fraction over the product of the two; floats stand over 1 as they
    are, and so does a product entry."""
    if a.mode != RATIONAL:
        return ([(k, a.coeffs[k]) for k in a.nonzero_slots()],
                [(k, b.coeffs[k]) for k in b.nonzero_slots()], float)
    pairs = []
    den = 1
    for jet in (a, b):
        cs = jet.coeffs
        nonzero = jet.nonzero_slots()
        d = math.lcm(*(cs[k].denominator for k in nonzero))
        pairs.append([(k, cs[k].numerator * (d // cs[k].denominator))
                      for k in nonzero])
        den *= d
    return (*pairs, lambda n: Fraction(n, den))


def _product(a, b, table):
    """Truncated product of two jets of one mode and its nonzero slots:
    the numerators are convolved, and each nonzero output entry is built
    once."""
    na, nb, entry = _numerators(a, b)
    acc = [0] * len(a.coeffs)
    for ia, x in na:
        row = table[ia]
        for ib, y in nb:
            ic = row[ib]
            if ic >= 0:
                acc[ic] += x * y
    nonzero = tuple(compress(range(len(acc)), acc))
    out = [zero(a.mode)] * len(acc)
    for k in nonzero:
        out[k] = entry(acc[k])
    return out, nonzero


@lru_cache(maxsize=None)
def _pair_chart_slots(order2: int, order4: int, point: int) -> tuple:
    """(Jet2 index, Jet4 index) of each term x^i y^j of an ``order2``
    table that an ``order4`` table keeps, as u1^i v1^j (point 0) or
    u2^i v2^j (point 1)."""
    idx4 = _index(4, order4)
    return tuple(
        (k, idx4[(i, j, 0, 0) if point == 0 else (0, 0, i, j)])
        for k, (i, j) in enumerate(_exponents(2, order2))
        if i + j <= order4)


class _Jet:
    """Shared implementation for the fixed-chart jet classes."""

    nvars: int
    varnames: tuple[str, ...]
    __slots__ = ("order", "mode", "coeffs", "_nonzero")

    def __init__(self, order: int, mode: str, coeffs):
        if order < 0:
            raise ValueError("jet order must be nonnegative")
        self.order = order
        self.mode = mode
        n = len(_exponents(self.nvars, order))
        coeffs = tuple(coeffs)
        if len(coeffs) != n:
            raise ValueError(f"expected {n} coefficients, got {len(coeffs)}")
        self.coeffs = coeffs
        self._nonzero = None

    def _made(self, coeffs, nonzero):
        """A jet of this one's class, order and mode with the table
        ``coeffs``, whose nonzero slots are ``nonzero``."""
        jet = object.__new__(type(self))
        jet.order, jet.mode = self.order, self.mode
        jet.coeffs, jet._nonzero = tuple(coeffs), nonzero
        return jet

    # -- construction -------------------------------------------------

    @classmethod
    def zero(cls, order: int, mode: str):
        return cls(order, mode, [zero(mode)] * len(_exponents(cls.nvars, order)))

    @classmethod
    def constant(cls, value, order: int, mode: str):
        c = [zero(mode)] * len(_exponents(cls.nvars, order))
        c[0] = coerce(value, mode)
        return cls(order, mode, c)

    @classmethod
    def variable(cls, name: str, order: int, mode: str):
        if name not in cls.varnames:
            raise ValueError(f"unknown variable {name!r} for {cls.__name__}")
        if order < 1:
            raise ValueError("order too small to hold a variable")
        e = tuple(1 if v == name else 0 for v in cls.varnames)
        c = [zero(mode)] * len(_exponents(cls.nvars, order))
        c[_index(cls.nvars, order)[e]] = coerce(1, mode)
        return cls(order, mode, c)

    @classmethod
    def from_terms(cls, terms: dict, order: int, mode: str):
        """Build from a {exponent-tuple: value} map; degrees above
        ``order`` are rejected, not silently dropped."""
        c = [zero(mode)] * len(_exponents(cls.nvars, order))
        idx = _index(cls.nvars, order)
        for e, v in terms.items():
            e = tuple(e)
            if len(e) != cls.nvars:
                raise ValueError(f"exponent {e} has wrong arity")
            if sum(e) > order:
                raise ValueError(f"term {e} exceeds jet order {order}")
            c[idx[e]] = c[idx[e]] + coerce(v, mode)
        return cls(order, mode, c)

    # -- inspection ---------------------------------------------------

    def coefficient(self, *exponents: int):
        e = tuple(exponents)
        if sum(e) > self.order:
            return zero(self.mode)
        return self.coeffs[_index(self.nvars, self.order)[e]]

    def nonzero_slots(self) -> tuple:
        """The indices of the nonzero entries, in table order."""
        if self._nonzero is None:
            self._nonzero = tuple(k for k, c in enumerate(self.coeffs) if c)
        return self._nonzero

    def terms(self):
        """Yield (exponents, coefficient) for nonzero coefficients."""
        exps = _exponents(self.nvars, self.order)
        for k in self.nonzero_slots():
            yield exps[k], self.coeffs[k]

    def max_abs(self) -> float:
        cs = self.coeffs
        return max((abs(float(cs[k])) for k in self.nonzero_slots()),
                   default=0.0)

    def __repr__(self):
        parts = []
        for e, c in self.terms():
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v
                for v, k in zip(self.varnames, e) if k
            )
            parts.append(f"{c}" + (f"*{mono}" if mono else ""))
        body = " + ".join(parts) if parts else "0"
        return f"{type(self).__name__}[o{self.order},{self.mode}]({body})"

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.order == other.order
            and self.mode == other.mode
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((type(self).__name__, self.order, self.mode, self.coeffs))

    # -- ring operations ----------------------------------------------

    def _check_compatible(self, other):
        if type(self) is not type(other):
            raise ModeMismatchError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )
        if self.order != other.order:
            raise ValueError(
                f"jet order mismatch: {self.order} vs {other.order}"
            )
        join_modes(self.mode, other.mode)

    def __add__(self, other):
        self._check_compatible(other)
        return self._sum(other, False)

    def __sub__(self, other):
        self._check_compatible(other)
        return self._sum(other, True)

    def _sum(self, other, subtract: bool):
        """self + other, or self - other, over the nonzero slots of each;
        a slot where the two cancel leaves the list."""
        mine = self.nonzero_slots()
        theirs = other.nonzero_slots()
        if not theirs:
            return self._made(self.coeffs, mine)
        out = list(self.coeffs)
        cb = other.coeffs
        cancelled = False
        for k in theirs:
            a, b = out[k], cb[k]
            if a:
                b = a - b if subtract else a + b
                if not b:
                    cancelled = True
            elif subtract:
                b = -b
            out[k] = b
        if not mine or mine == theirs:
            nonzero = theirs
        else:
            nonzero = sorted({*mine, *theirs})
        if cancelled:
            nonzero = [k for k in nonzero if out[k]]
        return self._made(out, tuple(nonzero))

    def __neg__(self):
        out = list(self.coeffs)
        nonzero = self.nonzero_slots()
        for k in nonzero:
            out[k] = -out[k]
        return self._made(out, nonzero)

    def scaled(self, factor):
        """``factor`` times each nonzero entry; an entry that the product
        makes zero (a zero factor, or float underflow) leaves the list."""
        f = coerce(factor, self.mode)
        out = list(self.coeffs)
        nonzero = self.nonzero_slots()
        for k in nonzero:
            out[k] = f * out[k]
        return self._made(out, tuple(k for k in nonzero if out[k]))

    def __mul__(self, other):
        if not isinstance(other, _Jet):
            return self.scaled(other)
        self._check_compatible(other)
        return self._made(*_product(
            self, other, _pair_table(self.nvars, self.order)))

    def __rmul__(self, other):
        return self.scaled(other)

    # -- calculus -----------------------------------------------------

    def partial(self, var: str):
        """Formal partial derivative; degree drops by one, order kept."""
        if var not in self.varnames:
            raise ValueError(f"unknown variable {var!r}")
        j = self.varnames.index(var)
        exps = _exponents(self.nvars, self.order)
        idx = _index(self.nvars, self.order)
        out = [zero(self.mode)] * len(self.coeffs)
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            e = exps[k]
            if e[j] == 0:
                continue
            ne = tuple(x - 1 if i == j else x for i, x in enumerate(e))
            out[idx[ne]] = out[idx[ne]] + e[j] * c
        return type(self)(self.order, self.mode, out)

    def evaluate(self, point):
        """Evaluate the jet polynomial at a chart point."""
        if len(point) != self.nvars:
            raise ValueError("point arity mismatch")
        pt = [coerce(p, self.mode) for p in point]
        # power tables per variable
        pows = []
        for p in pt:
            row = [coerce(1, self.mode)]
            for _ in range(self.order):
                row.append(row[-1] * p)
            pows.append(row)
        total = zero(self.mode)
        for e, c in self.terms():
            term = c
            for j, k in enumerate(e):
                if k:
                    term = term * pows[j][k]
            total = total + term
        return total


class Jet2(_Jet):
    """Bivariate jet over the surface chart ``(x, y)``."""

    nvars = 2
    varnames = ("x", "y")
    __slots__ = ()

    def shifted(self, center, order: int | None = None) -> "Jet2":
        """Recenter: the terms of p(x + cx, y + cy) of degree <= ``order``
        (default: the jet's own), exact for the polynomial the table
        stores.  Each kept term sums the same products in the same order
        at any ``order``, so ``shifted(c, k)`` equals the terms of degree
        <= k of ``shifted(c)``.
        """
        cx, cy = (coerce(c, self.mode) for c in center)
        m = self.order if order is None else order
        px = [coerce(1, self.mode)]
        py = [coerce(1, self.mode)]
        for _ in range(self.order):
            px.append(px[-1] * cx)
            py.append(py[-1] * cy)
        out = [zero(self.mode)] * len(_exponents(2, m))
        plan = _shift_plan(self.order, m)
        coeffs = self.coeffs
        for slot in self.nonzero_slots():
            c = coeffs[slot]
            for cik, ik, row in plan[slot]:
                ck = c * (cik * px[ik])
                for s, cjl, jl in row:
                    out[s] += ck * cjl * py[jl]
        return Jet2(m, self.mode, out)

    def to_float(self) -> "Jet2":
        if self.mode == FLOAT:
            return self
        return Jet2(self.order, FLOAT, [float(c) for c in self.coeffs])

    def in_pair_chart(self, point: int, order: int) -> "Jet4":
        """The jet as a Jet4 of the given order in the coordinates
        (u1, v1) of the pair's first point (``point`` 0) or (u2, v2) of
        its second (``point`` 1): x^i y^j becomes u1^i v1^j or
        u2^i v2^j, and terms above ``order`` are dropped.

        Equal to ``substitute(self, (u, v))`` with the bare Jet4
        variables, in both modes (for finite coefficients).
        """
        out = [zero(self.mode)] * len(_exponents(4, order))
        nonzero = []
        for k2, k4 in _pair_chart_slots(self.order, order, point):
            c = self.coeffs[k2]
            if c:
                out[k4] = c
                nonzero.append(k4)
        jet = Jet4(order, self.mode, out)
        jet._nonzero = tuple(nonzero)
        return jet


class Jet4(_Jet):
    """Quadrivariate jet over the point-pair chart ``(u1, v1, u2, v2)``."""

    nvars = 4
    varnames = ("u1", "v1", "u2", "v2")
    __slots__ = ()

    def graded_sizes(self) -> list:
        """(largest |entry|, whether zero) of the homogeneous part of each
        degree d up to the order, from one pass over the nonzero slots."""
        exps = _exponents(4, self.order)
        sizes = [[0.0, True] for _ in range(self.order + 1)]
        for k in self.nonzero_slots():
            size = sizes[sum(exps[k])]
            size[0] = max(size[0], abs(float(self.coeffs[k])))
            size[1] = False
        return [tuple(size) for size in sizes]


def substitute(p: _Jet, subs) -> _Jet:
    """Substitute jets for the variables of ``p``.

    The substitution jets must share one class, order and mode, and
    must have zero constant term (otherwise the truncation would lose
    low-order information).  ``p`` may come from a different chart.
    """
    subs = tuple(subs)
    if len(subs) != p.nvars:
        raise ValueError(f"{p.nvars} substitutions required")
    target = type(subs[0])
    for s in subs:
        if type(s) is not target:
            raise ModeMismatchError("substitution jets must share a chart")
        if s.order != subs[0].order:
            raise ValueError("substitution jets must share an order")
        join_modes(s.mode, subs[0].mode)
        if s.coeffs[0]:
            raise ValueError("substitution has a nonzero constant term")
    join_modes(p.mode, subs[0].mode)
    order = subs[0].order
    mode = subs[0].mode
    # lazy powers of each substitution
    pows = [[target.constant(1, order, mode), s] for s in subs]

    def get_pow(j, k):
        row = pows[j]
        while len(row) <= k:
            row.append(row[-1] * row[1])
        return row[k]

    acc = target.zero(order, mode)
    for e, c in p.terms():
        if sum(e) > order:
            continue  # cannot contribute below the truncation
        term = None
        for j, k in enumerate(e):
            if k:
                f = get_pow(j, k)
                term = f if term is None else term * f
        if term is None:
            term = target.constant(1, order, mode)
        acc = acc + term.scaled(c)
    return acc


# ---------------------------------------------------------------------------
# affine-in-X forms with jet coefficients


@dataclass(frozen=True)
class LinearFormJet:
    """``cx*x + cy*y + cz*z + c1`` with Jet4 coefficients.

    Linearity in ``X = (x, y, z)`` is structural: there simply is no
    slot for higher powers of the space variables.
    """

    cx: Jet4
    cy: Jet4
    cz: Jet4
    c1: Jet4

    def __post_init__(self):
        o, m = self.cx.order, self.cx.mode
        for part in (self.cy, self.cz, self.c1):
            if part.order != o:
                raise ValueError("component order mismatch")
            join_modes(part.mode, m)

    @property
    def mode(self):
        return self.cx.mode

    def __sub__(self, other: "LinearFormJet") -> "LinearFormJet":
        return LinearFormJet(
            self.cx - other.cx, self.cy - other.cy,
            self.cz - other.cz, self.c1 - other.c1,
        )
