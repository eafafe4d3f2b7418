import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aek.cli import build_surface, load_spec
from aek.evolute import grid_points
from aek.frames import random_frame
from aek.jets import Jet2, Jet4, _exponents, substitute
from aek.scalars import FLOAT, RATIONAL, ModeMismatchError, zero

from oracles import (
    dense_difference,
    dense_is_zero,
    dense_max_abs,
    dense_negation,
    dense_product,
    dense_scaled,
    dense_sum,
    graded_part,
    shifted_by_terms,
    sqrt_graph_series,
    truncated,
)


def j2(terms, order=5, mode=RATIONAL):
    return Jet2.from_terms(terms, order, mode)


SPECS = Path(__file__).resolve().parent.parent / "specs"

X = Jet2.variable("x", 5, RATIONAL)
Y = Jet2.variable("y", 5, RATIONAL)


# ---------------------------------------------------------------------------
# arithmetic basics


def test_add_linearity():
    assert X + Y == j2({(1, 0): 1, (0, 1): 1})


def test_add_identity():
    p = j2({(2, 1): Fraction(3, 7), (0, 3): -2})
    assert p + Jet2.zero(5, RATIONAL) == p


def test_cubic_quartic_sum_matches_normal_form():
    # a=1, b=0, f4=0: the cubic rows read x^3 - 3xy^2
    f3 = j2({(3, 0): 1, (1, 2): -3})
    f4 = Jet2.zero(5, RATIONAL)
    assert f3 + f4 == j2({(3, 0): 1, (1, 2): -3})


def test_mul_difference_of_squares():
    assert (X + Y) * (X - Y) == j2({(2, 0): 1, (0, 2): -1})


def test_mul_truncates_at_order():
    x2 = Jet2.variable("x", 2, RATIONAL)
    assert (x2 * x2) * (x2 * x2) == Jet2.zero(2, RATIONAL)


def test_square_of_paraboloid_quadratic():
    q = j2({(2, 0): Fraction(1, 2), (0, 2): Fraction(1, 2)})
    assert q * q == j2({
        (4, 0): Fraction(1, 4), (2, 2): Fraction(1, 2), (0, 4): Fraction(1, 4),
    })


def test_mode_mixing_rejected():
    with pytest.raises(ModeMismatchError):
        X + Jet2.variable("x", 5, FLOAT)
    with pytest.raises(ModeMismatchError):
        Jet2.from_terms({(1, 0): 0.5}, 5, RATIONAL)


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        X + Jet2.variable("x", 4, RATIONAL)


# ---------------------------------------------------------------------------
# composition


def test_compose_linear_shift_of_square():
    p = j2({(2, 0): 1})
    assert substitute(p, (X + Y, Y)) == j2({(2, 0): 1, (1, 1): 2, (0, 2): 1})


def test_compose_rejects_constant_term():
    with pytest.raises(ValueError):
        substitute(X, (X + Jet2.constant(1, 5, RATIONAL), Y))


def test_sphere_graph_composition():
    # oracle: binomial series of 1 - sqrt(1 - t) composed with t = x^2 + y^2,
    # expanded by hand via the binomial theorem
    series = sqrt_graph_series(3)  # through t^2
    t = j2({(2, 0): 1, (0, 2): 1}, order=4)
    expected = {}
    for k, ck in enumerate(series):
        if not ck:
            continue
        for i in range(k + 1):
            e = (2 * i, 2 * (k - i))
            expected[e] = expected.get(e, Fraction(0)) + ck * math.comb(k, i)
    univariate = Jet2.from_terms(
        {(k, 0): c for k, c in enumerate(series)}, 4, RATIONAL
    )
    got = substitute(univariate, (t, Jet2.zero(4, RATIONAL)))
    assert got == Jet2.from_terms(expected, 4, RATIONAL)
    assert got.coefficient(4, 0) == Fraction(1, 8)
    assert got.coefficient(2, 2) == Fraction(1, 4)
    assert got.coefficient(0, 4) == Fraction(1, 8)
    assert got.coefficient(2, 0) == Fraction(1, 2)


def test_rotation_by_quarter_turn_on_cubic():
    # oracle: substitute x -> y, y -> -x directly in x^3 - 3xy^2
    cubic = j2({(3, 0): 1, (1, 2): -3})
    rotated = substitute(cubic, (Y, -X))
    # a(x^3-3xy^2) goes to the pure-b cubic: consistent with the
    # triple-angle action on (a, b)
    assert rotated == j2({(0, 3): 1, (2, 1): -3})


# ---------------------------------------------------------------------------
# partial derivatives and shifts


def test_partial_x_of_cubic():
    cubic = j2({(3, 0): 1, (1, 2): -3})
    assert cubic.partial("x") == j2({(2, 0): 3, (0, 2): -3})


def test_partial_y_of_cubic():
    cubic = j2({(3, 0): 1, (1, 2): -3})
    assert cubic.partial("y") == j2({(1, 1): -6})


def test_normal_form_has_flat_tangent():
    # gradient of a normal-form height function vanishes at the origin
    f = j2({(2, 0): Fraction(1, 2), (0, 2): Fraction(1, 2), (3, 0): 2})
    assert f.partial("x").coefficient(0, 0) == 0
    assert f.partial("y").coefficient(0, 0) == 0


def test_shift_of_square():
    p = j2({(2, 0): 1})
    shifted = p.shifted((1, 0))
    assert shifted.coefficient(0, 0) == 1
    assert shifted.coefficient(1, 0) == 2
    assert shifted.coefficient(2, 0) == 1


def test_shift_by_zero_is_identity():
    p = j2({(2, 0): 1, (1, 2): Fraction(-2, 3), (0, 5): 4})
    assert p.shifted((0, 0)) == p


def test_shift_of_sphere_jet_keeps_convexity():
    # oracle: Hessian of the closed-form sphere graph at (0.1, 0)
    series = sqrt_graph_series(7)
    terms = {}
    for k, ck in enumerate(series):
        for i in range(k + 1):
            e = (2 * i, 2 * (k - i))
            terms[e] = terms.get(e, Fraction(0)) + ck * math.comb(k, i)
    sphere = Jet2.from_terms(terms, 12, RATIONAL).to_float()
    shifted = sphere.shifted((0.1, 0.0))
    hxx = 2 * shifted.coefficient(2, 0)
    hxy = shifted.coefficient(1, 1)
    hyy = 2 * shifted.coefficient(0, 2)
    u = 0.1
    r2 = u * u
    want_xx = (1 - r2 + u * u) / (1 - r2) ** 1.5  # d2/du2 of 1-sqrt(1-u^2-v^2)
    want_yy = 1 / math.sqrt(1 - r2)
    assert hxx == pytest.approx(want_xx, rel=1e-8)
    assert hyy == pytest.approx(want_yy, rel=1e-8)
    assert abs(hxy) < 1e-12
    assert hxx > 0 and hxx * hyy - hxy * hxy > 0


# ---------------------------------------------------------------------------
# ring and calculus properties

_fractions = st.fractions(
    min_value=-2, max_value=2, max_denominator=6
)


def _jet_strategy(order=3):
    n = len(list(Jet2.zero(order, RATIONAL).coeffs))
    return st.lists(_fractions, min_size=n, max_size=n).map(
        lambda cs: Jet2(order, RATIONAL, cs)
    )


@settings(max_examples=40, deadline=None)
@given(_jet_strategy(), _jet_strategy(), _jet_strategy())
def test_ring_axioms_exact(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=25, deadline=None)
@given(_jet_strategy(order=4))
def test_compose_associativity_linear(p):
    x4 = Jet2.variable("x", 4, RATIONAL)
    y4 = Jet2.variable("y", 4, RATIONAL)
    # A: (x, y) -> (2x + y, x - y);  B: (x, y) -> (x - 3y, 2y)
    ax, ay = x4.scaled(2) + y4, x4 - y4
    bx, by = x4 - y4.scaled(3), y4.scaled(2)
    # compose(compose(p, A), B) must equal compose(p, A o B)
    lhs = substitute(substitute(p, (ax, ay)), (bx, by))
    abx = substitute(ax, (bx, by))
    aby = substitute(ay, (bx, by))
    rhs = substitute(p, (abx, aby))
    assert lhs == rhs


def test_partials_commute_exactly():
    rng = random.Random(0)
    for _ in range(20):
        p = Jet2(5, RATIONAL, [
            Fraction(rng.randint(-8, 8), rng.randint(1, 8))
            for _ in range(len(Jet2.zero(5, RATIONAL).coeffs))
        ])
        assert p.partial("x").partial("y") == p.partial("y").partial("x")


def test_float_mode_tracks_rational():
    rng = random.Random(1)
    n = len(Jet2.zero(5, RATIONAL).coeffs)
    for _ in range(10):
        ca = [Fraction(rng.randint(-64, 64), 64) for _ in range(n)]
        cb = [Fraction(rng.randint(-64, 64), 64) for _ in range(n)]
        pr = Jet2(5, RATIONAL, ca)
        qr = Jet2(5, RATIONAL, cb)
        pf, qf = pr.to_float(), qr.to_float()
        for exact, approx in (
            (pr * qr, pf * qf),
            (pr + qr, pf + qf),
            (pr.partial("x"), pf.partial("x")),
            (pr.shifted((Fraction(1, 4), Fraction(-1, 2))),
             pf.shifted((0.25, -0.5))),
        ):
            scale = max(1.0, exact.max_abs())
            worst = max(
                abs(float(a) - b) for a, b in zip(exact.coeffs, approx.coeffs)
            )
            assert worst <= 1e-12 * scale


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_shift_to_an_order_is_the_truncated_shift(data):
    """``shifted(c, order=k)`` keeps the terms of degree <= k of the full
    shift, exactly, in both modes and for k below, at and above the
    jet's order."""
    order = data.draw(st.integers(0, 8))
    p = data.draw(_jet_strategy(order))
    center = data.draw(st.tuples(_fractions, _fractions))
    k = data.draw(st.integers(0, order + 2))
    assert p.shifted(center, order=k) == truncated(p.shifted(center), k)
    pf, cf = p.to_float(), tuple(float(c) for c in center)
    assert pf.shifted(cf, order=k) == truncated(pf.shifted(cf), k)


# ---------------------------------------------------------------------------
# Jet4 and the affine-in-X wrapper


def test_jet4_mul_and_grading():
    u1 = Jet4.variable("u1", 4, RATIONAL)
    v2 = Jet4.variable("v2", 4, RATIONAL)
    p = (u1 + v2) * (u1 + v2)
    assert p.coefficient(2, 0, 0, 0) == 1
    assert p.coefficient(1, 0, 0, 1) == 2
    assert graded_part(p, 2) == p
    assert dense_is_zero(graded_part(p, 3))


def test_float_compose_tracks_rational():
    rng = random.Random(17)
    n = len(Jet2.zero(5, RATIONAL).coeffs)
    for _ in range(5):
        p = Jet2(5, RATIONAL,
                 [Fraction(rng.randint(-64, 64), 64) for _ in range(n)])
        sub = {(1, 0): Fraction(1, 2), (0, 1): Fraction(-1, 4),
               (2, 0): Fraction(1, 8)}
        sx = Jet2.from_terms(sub, 5, RATIONAL)
        sy = Jet2.variable("y", 5, RATIONAL) - sx.scaled(Fraction(1, 3))
        exact = substitute(p, (sx, sy))
        approx = substitute(p.to_float(), (sx.to_float(), sy.to_float()))
        scale = max(1.0, exact.max_abs())
        worst = max(
            abs(float(a) - b) for a, b in zip(exact.coeffs, approx.coeffs)
        )
        assert worst <= 1e-12 * scale


# ---------------------------------------------------------------------------
# the ring kernels against a plain per-coefficient loop

_SIGNED_ZEROS = st.sampled_from((0.0, -0.0))

_KERNEL_VALUES = {
    RATIONAL: st.fractions(min_value=-4, max_value=4, max_denominator=12),
    FLOAT: st.one_of(_SIGNED_ZEROS, st.floats(min_value=-1e3, max_value=1e3,
                                              allow_nan=False)),
}

_ZEROS = {RATIONAL: st.just(Fraction(0)), FLOAT: _SIGNED_ZEROS}
_ZERO_FACTORS = {RATIONAL: (Fraction(0),), FLOAT: (0.0, -0.0)}


def _sparse_jet(cls, order, mode):
    """A table with a few drawn entries at drawn positions, and zeros
    (of either sign, in float mode) elsewhere."""
    n = len(_exponents(cls.nvars, order))
    return st.tuples(
        st.dictionaries(st.integers(0, n - 1), _KERNEL_VALUES[mode],
                        max_size=n),
        st.lists(_ZEROS[mode], min_size=n, max_size=n),
    ).map(lambda drawn: cls(order, mode, [
        drawn[0].get(k, drawn[1][k]) for k in range(n)]))


def _loop_product(p, q):
    """The truncated product, one scalar multiply-add per pair of
    coefficients, in table order."""
    exps = _exponents(p.nvars, p.order)
    out = {e: zero(p.mode) for e in exps}
    for ea, ca in zip(exps, p.coeffs):
        for eb, cb in zip(exps, q.coeffs):
            e = tuple(x + y for x, y in zip(ea, eb))
            if sum(e) <= p.order:
                out[e] = out[e] + ca * cb
    return list(out.values())


def _bits(coeffs):
    """Coefficients compared exactly: floats by their bits, signed
    zeros included."""
    return [c.hex() if isinstance(c, float) else c for c in coeffs]


def _scanned(jet):
    return tuple(k for k, c in enumerate(jet.coeffs) if c)


def _untouched(loop, base):
    """The loop's entry where it or the entry of ``base`` is nonzero,
    and the zero of ``base`` elsewhere: a kernel leaves a slot that no
    nonzero entry reaches as it was, where the loop writes a sum or
    product of two zeros, whose sign may differ in float mode."""
    return [w if w or b else b for w, b in zip(loop, base)]


@pytest.mark.parametrize("cls, order", [(Jet2, 5), (Jet4, 4)])
@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_ring_kernels_match_coefficient_loop(cls, order, mode, data):
    """Sparse tables with signed zeros, q drawn as well as -p and p:
    each ring operation equals the plain loop over coefficients, exactly
    in rational mode and bit for bit in float mode (the kernels run the
    loop's operations in its order), except that a slot no nonzero entry
    reaches keeps the zero of its operand, or of the product's zero
    table.  Every result carries the nonzero slots a fresh scan finds."""
    p = data.draw(_sparse_jet(cls, order, mode))
    q = data.draw(st.one_of(_sparse_jet(cls, order, mode),
                            st.just(-p), st.just(p)))
    c = data.draw(_KERNEL_VALUES[mode])
    cases = [
        (p * q, _untouched(_loop_product(p, q),
                           cls.zero(order, mode).coeffs)),
        (p + q, _untouched([a + b for a, b in zip(p.coeffs, q.coeffs)],
                           p.coeffs)),
        (p - q, _untouched([a - b for a, b in zip(p.coeffs, q.coeffs)],
                           p.coeffs)),
        (-p, _untouched([-a for a in p.coeffs], p.coeffs)),
        *((p.scaled(f), _untouched([f * a for a in p.coeffs], p.coeffs))
          for f in (c, *_ZERO_FACTORS[mode])),
    ]
    for got, want in cases:
        assert type(got) is cls and got.mode == mode
        assert _bits(got.coeffs) == _bits(want)
        assert got._nonzero == _scanned(got)
        assert got.max_abs() == dense_max_abs(got)


@pytest.mark.parametrize("cls, order", [(Jet2, 5), (Jet4, 4)])
def test_scaled_drops_entries_that_underflow(cls, order):
    """A float product that underflows to zero leaves the slot list, so
    max_abs reads the scaled jet as a fresh scan would."""
    n = len(_exponents(cls.nvars, order))
    p = cls(order, FLOAT, [1e-200 if k in (1, n - 1) else 0.0
                           for k in range(n)])
    for factor, want in ((1e-200, ()), (-1e-200, ()), (1e100, (1, n - 1))):
        got = p.scaled(factor)
        assert got._nonzero == _scanned(got) == want
        assert got.max_abs() == dense_max_abs(got)


def _assert_rational_kernels(p, q, c):
    """Each rational kernel equals its dense rule, and every result
    carries the nonzero slots a fresh scan of its table finds."""
    cases = [
        (p + q, dense_sum(p, q)),
        (p - q, dense_difference(p, q)),
        (-p, dense_negation(p)),
        (p.scaled(c), dense_scaled(p, c)),
        (p.scaled(0), dense_scaled(p, 0)),
        (p * q, dense_product(p, q)),
    ]
    for got, want in cases:
        assert type(got) is type(p) and got.mode == RATIONAL
        assert got.order == p.order and list(got.coeffs) == want
        assert all(type(x) is Fraction for x in got.coeffs)
        assert got._nonzero == _scanned(got)
    for jet in (p, q, *(got for got, _ in cases)):
        assert jet.max_abs() == dense_max_abs(jet)
        assert (not jet.nonzero_slots()) == dense_is_zero(jet)


@pytest.mark.parametrize("cls, order", [(Jet2, 5), (Jet4, 4)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rational_kernels_match_dense_rules(cls, order, data):
    p = data.draw(_sparse_jet(cls, order, RATIONAL))
    q = data.draw(st.one_of(_sparse_jet(cls, order, RATIONAL),
                            st.just(-p), st.just(p)))
    _assert_rational_kernels(p, q, data.draw(_KERNEL_VALUES[RATIONAL]))


@pytest.mark.parametrize("cls, order", [(Jet2, 5), (Jet4, 4)])
def test_rational_kernels_on_empty_and_one_entry_jets(cls, order):
    n = len(_exponents(cls.nvars, order))
    empty = cls.zero(order, RATIONAL)
    for k in (0, 1, n // 2, n - 1):
        single = cls(order, RATIONAL, [Fraction(-3, 7) if i == k
                                       else Fraction(0) for i in range(n)])
        for p, q in ((empty, empty), (empty, single), (single, empty),
                     (single, single), (single, -single)):
            _assert_rational_kernels(p, q, Fraction(5, 2))


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_graded_sizes_read_each_part(mode, data):
    """graded_sizes gives the largest entry of each graded part and
    whether it is zero."""
    p = data.draw(_sparse_jet(Jet4, 4, mode))
    assert p.graded_sizes() == [
        (graded_part(p, d).max_abs(), dense_is_zero(graded_part(p, d)))
        for d in range(5)]


def _reprs(jet):
    return [repr(c) for c in jet.coeffs]


def test_shift_plan_matches_term_loop_on_sphere_grid():
    """The sphere jet at the 21 x 21 grid of its spec, kept to each
    order 0-5: every coefficient has the repr of the term loop's."""
    surface = build_surface(load_spec(str(SPECS / "sphere.json")))
    us, vs = grid_points(surface.patch, (21, 21))
    h = surface.height
    for u in us:
        for v in vs:
            for kept in range(6):
                assert (_reprs(h.shifted((u, v), kept))
                        == _reprs(shifted_by_terms(h, (u, v), kept)))


def test_shift_plan_matches_term_loop_on_random_jets():
    """Float jets of degree 3-16 with exact zeros and negative zeros
    match the term loop by repr; rational jets match it exactly."""
    rng = random.Random(2017)
    draws = (0.0, -0.0, 1.0, -2.5)
    for order in range(3, 17):
        n = len(_exponents(2, order))
        for _ in range(3):
            coeffs = [rng.choice(draws) if rng.random() < 0.4
                      else rng.uniform(-1e3, 1e3) * 10.0 ** rng.randint(-8, 8)
                      for _ in range(n)]
            jet = Jet2(order, FLOAT, coeffs)
            exact = Jet2(order, RATIONAL, [
                Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                if rng.random() < 0.5 else Fraction(0) for _ in range(n)])
            center = (rng.choice((0.0, -0.0, rng.uniform(-0.1, 0.1))),
                      rng.uniform(-0.1, 0.1))
            rational_center = (Fraction(rng.randint(-5, 5), 7),
                               Fraction(rng.randint(-5, 5), 11))
            for kept in (*range(6), None):
                assert (_reprs(jet.shifted(center, kept))
                        == _reprs(shifted_by_terms(jet, center, kept)))
                assert (exact.shifted(rational_center, kept)
                        == shifted_by_terms(exact, rational_center, kept))


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_pair_chart_embedding_is_substitution(mode):
    """Re-indexing a frame jet into the pair chart equals substituting
    the bare Jet4 variables of either point, at and below the frame's
    order."""
    rng = random.Random(8)
    for _ in range(8):
        f = random_frame(rng, mode).normalized
        for jet in (f, f.partial("x"), f.partial("y")):
            for order in (3, 4, 5):
                pair = [Jet4.variable(v, order, mode) for v in Jet4.varnames]
                for point in (0, 1):
                    want = substitute(jet, pair[2 * point:2 * point + 2])
                    got = jet.in_pair_chart(point, order)
                    assert got.order == order and got.mode == mode
                    assert _bits(got.coeffs) == _bits(want.coeffs)
                    assert got._nonzero == _scanned(got)
