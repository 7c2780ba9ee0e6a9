"""Truncated series arithmetic, branch parametrization, blow-up rescaling.

The branch oracles here are deliberately different algorithms from the
package's Newton doubling: closed forms where one exists, and otherwise a
digit-by-digit undetermined-coefficients solver.
"""

import math

import numpy as np
import pytest

from padicsums.polynomials import BiPoly, parse_poly
from padicsums.series import (
    CurvePoint,
    HenselPreconditionError,
    Parametrization,
    RescaleError,
    TruncSeries,
    certify_point,
    hensel_param,
    is_srp_poly,
    is_srp_series,
    ord_t,
    rescale_srp,
)


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def _mul_trunc(a: list, b: list, top: int, mod: int) -> list:
    out = [0] * (top + 1)
    for i, ai in enumerate(a[: top + 1]):
        if ai:
            for j, bj in enumerate(b[: top + 1 - i]):
                out[i + j] = (out[i + j] + ai * bj) % mod
    return out


def branch_oracle(f: BiPoly, p: int, precision: int, order: int) -> list:
    """Coefficients of y(t) with f(t, y(t)) = 0, y(0) = 0, solved one order
    at a time: the t^k coefficient of the residual determines the t^k digit
    because f_y(0, 0) is a unit.  Requires an exact origin anchor."""
    mod = p**precision
    assert f.evaluate(0, 0) == 0
    fy0 = f.partial("y").evaluate(0, 0)
    assert fy0 % p != 0
    inv = pow(fy0, -1, mod)
    coeffs = [0]
    for k in range(1, order + 1):
        coeffs.append(0)
        # residual coefficient of t^k for the current partial solution
        xpow = [0, 1] + [0] * (k - 1)  # x = t
        total = [0] * (k + 1)
        for (i, j), c in f.terms.items():
            term = [c % mod]
            for _ in range(i):
                term = _mul_trunc(term, xpow, k, mod)
            for _ in range(j):
                term = _mul_trunc(term, coeffs, k, mod)
            term += [0] * (k + 1 - len(term))
            total = [(u + v) % mod for u, v in zip(total, term)]
        coeffs[k] = (-total[k] * inv) % mod
    return coeffs


# -- series ring ---------------------------------------------------------------


def test_coefficients_reduce_mod_p_to_the_n():
    s = TruncSeries((26, -1, 125), 5, 2)
    assert s.coeffs == (1, 24, 0)
    assert s.order_cap == 2
    assert s.modulus == 25


def test_add_mul_against_direct_expansion():
    p, n = 7, 6
    a = TruncSeries.from_coeffs([1, 2, 3], p, n)
    b = TruncSeries.from_coeffs([4, 5, 6], p, n)
    assert (a + b).coeffs == (5, 7, 9)
    # (1 + 2t + 3t^2)(4 + 5t + 6t^2) = 4 + 13t + 28t^2 + ...
    assert (a * b).coeffs == (4, 13, 28)
    assert (a - b).coeffs == tuple((u - v) % 7**6 for u, v in zip(a.coeffs, b.coeffs))


def test_int_promotion_both_sides():
    s = TruncSeries.from_coeffs([0, 1], 5, 4)
    assert (2 - s).coeffs == (2, 5**4 - 1)
    assert (2 + s).coeffs == (2, 1)
    assert (3 * s).coeffs == (0, 3)
    assert (s - 2).coeffs == (5**4 - 2, 1)


def test_mixed_precision_rejected():
    a = TruncSeries.from_coeffs([1], 5, 4)
    b = TruncSeries.from_coeffs([1], 5, 5)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * TruncSeries.from_coeffs([1], 7, 4)


def test_truncation_aligns_to_shorter_operand():
    a = TruncSeries.from_coeffs([1, 1, 1, 1], 5, 4)
    b = TruncSeries.from_coeffs([1, 1], 5, 4)
    assert (a * b).order_cap == 1
    assert (a + b).order_cap == 1


@pytest.mark.parametrize("solve_for", ["y", "x"])
def test_point_at_is_horner_mod_q(solve_for):
    p, n = 7, 5
    q = p**n
    series = TruncSeries.from_coeffs([0, 1, 4, 1], p, n)
    param = Parametrization(CurvePoint(2, 3, p, n), series, solve_for)
    for t0 in (0, 1, -2, 7, 49, 123456):
        h = (t0 + 4 * t0**2 + t0**3) % q
        point = (2 + t0, 3 + h) if solve_for == "y" else (2 + h, 3 + t0)
        assert param.point_at(t0) == point
        for modulus in (q, p**2):
            assert param.point_at(t0, modulus) == (point[0] % modulus, point[1] % modulus)


@pytest.mark.parametrize("solve_for", ["y", "x"])
def test_point_at_on_an_int64_array_matches_each_element(solve_for):
    # anchor and coefficients far past int64: both are reduced mod q first
    p, n = 7, 40
    series = TruncSeries.from_coeffs([0, 3, 10**30, -1, 5**40], p, n)
    param = Parametrization(CurvePoint(10**30 + 2, -(10**25), p, n), series, solve_for)
    q = p**11
    ts = np.array([0, 1, 6, 49, 12345, q - 1, 7**10 * 3], dtype=np.int64)
    xs, ys = param.point_at(ts, q)
    assert xs.dtype == ys.dtype == np.int64
    assert list(zip(xs.tolist(), ys.tolist())) == [param.point_at(int(t), q) for t in ts]


def test_point_at_rejects_a_modulus_that_does_not_divide_p_to_the_n():
    p, n = 5, 4
    param = Parametrization(CurvePoint(0, 0, p, n), TruncSeries.from_coeffs([0, 1], p, n), "y")
    for modulus in (10, 3, p ** (n + 1)):
        with pytest.raises(ValueError, match="does not divide"):
            param.point_at(2, modulus)


# -- order detection -------------------------------------------------------------


def test_ord_t_basic():
    s = TruncSeries.from_coeffs([0, 0, 3, 9], 3, 10)
    got = ord_t(s)
    assert (got.order, got.leading_val) == (2, 1)
    assert got.confident
    assert ord_t(s, start=3).order == 3
    assert ord_t(TruncSeries.from_coeffs([0] * 6, 3, 10)) is None


def test_ord_t_confidence_threshold():
    # leading coefficient p^3 with only n=5 digits: could be a truncation artifact
    s = TruncSeries.from_coeffs([0, 5**3], 5, 5)
    assert not ord_t(s).confident
    assert ord_t(TruncSeries.from_coeffs([0, 5**3], 5, 16)).confident


@pytest.mark.parametrize(
    "a_coeffs,b_coeffs",
    [
        ([0, 0, 3, 1], [0, 2, 5]),
        ([0, 5, 1], [0, 0, 0, 7]),
        ([4, 1], [0, 0, 2]),
    ],
)
def test_ord_t_of_product_adds(a_coeffs, b_coeffs):
    a = TruncSeries.from_coeffs(a_coeffs, 5, 12, order=10)
    b = TruncSeries.from_coeffs(b_coeffs, 5, 12, order=10)
    oa, ob, oab = ord_t(a), ord_t(b), ord_t(a * b)
    assert oa.confident and ob.confident
    # leading coefficients here multiply to a unit times a power of p, never 0 mod 5^12
    assert oab.order == oa.order + ob.order
    assert oab.leading_val == oa.leading_val + ob.leading_val


# -- SRP shape -------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,p,expected",
    [
        ("y + 3*x^2", 3, True),
        ("y - x^2", 3, False),
        ("x + y", 7, True),
        ("y + 5*x^2 + 25*x^3", 5, True),
        ("y + 5*x^2 + 5*x^3", 5, False),
        ("x + y + 1", 5, False),
    ],
)
def test_is_srp_poly(text, p, expected):
    assert is_srp_poly(parse_poly(text), p) == expected


def test_is_srp_series():
    assert is_srp_series(TruncSeries.from_coeffs([0, 1, 3, 9], 3, 8))
    assert not is_srp_series(TruncSeries.from_coeffs([0, 1, 1], 3, 8))
    assert not is_srp_series(TruncSeries.from_coeffs([1, 1], 3, 8))


# -- point certification -----------------------------------------------------------


def test_certify_point():
    f = parse_poly("y - x^2")
    pt = certify_point(f, 2, 4, 5, 3)
    assert pt.exact
    rough = certify_point(f, 2, 4 + 125, 5, 3)
    assert not rough.exact and rough.level == 3
    with pytest.raises(ValueError):
        certify_point(f, 2, 5, 5, 1)
    with pytest.raises(ValueError):
        certify_point(f, 2, 4, 5, 0)


# -- Hensel parametrization ---------------------------------------------------------


def test_branch_geometric_series():
    # y - x - x*y = 0 solves to y = x/(1 - x): all coefficients 1
    f = parse_poly("y - x - x*y")
    pt = certify_point(f, 0, 0, 5, 1)
    param = hensel_param(f, pt, order=10, precision=12)
    assert param.solve_for == "y"
    assert param.series.coeffs == (0,) + (1,) * 10


def test_branch_catalan_series():
    # x + y + y^2 = 0 solves to y = -sum C_(n-1) x^n (Catalan numbers)
    f = parse_poly("x + y + y^2")
    p, n, top = 7, 20, 9
    pt = certify_point(f, 0, 0, p, 1)
    param = hensel_param(f, pt, order=top, precision=n)
    mod = p**n
    for k in range(1, top + 1):
        assert param.series.coeffs[k] == (-catalan(k - 1)) % mod, k


BRANCH_CASES = [
    ("y - x - x*y", 5, 14, 8),
    ("x + y + y^2", 7, 14, 8),
    ("y - x^2", 3, 14, 8),
    ("y + y^2 - x^3", 5, 14, 8),
    ("2*x + y + x*y + y^3", 3, 14, 8),
    ("y + 3*x^2 + x*y^2", 3, 14, 8),
    # the edges of the doubling schedule: order 1 takes no Newton step, 9 and
    # 17 take one step past a power of two, 16 ends on one; and a wide precision
    ("y + y^2 - x^3", 5, 14, 1),
    ("2*x + y + x*y + y^3", 3, 14, 9),
    ("x + y + y^2", 7, 14, 16),
    ("y + 3*x^2 + x*y^2", 3, 14, 17),
    ("y + y^2 - x^3", 5, 200, 3),
]


@pytest.mark.parametrize(
    "text,p,n,top",
    BRANCH_CASES,
    ids=[
        f"{text}-{p}" if (n, top) == (14, 8) else f"{text}-{p}-n{n}-order{top}"
        for text, p, n, top in BRANCH_CASES
    ],
)
def test_branch_matches_undetermined_coefficients(text, p, n, top):
    f = parse_poly(text)
    pt = certify_point(f, 0, 0, p, 1)
    param = hensel_param(f, pt, order=top, precision=n)
    assert list(param.series.coeffs) == branch_oracle(f, p, n, top)


def test_residual_is_exactly_zero():
    f = parse_poly("y + y^2 - x^3 - 2*x*y")
    pt = certify_point(f, 0, 0, 5, 1)
    param = hensel_param(f, pt, order=16, precision=12)
    assert all(c == 0 for c in param.residual(f).coeffs)


@pytest.mark.parametrize(
    "orders", [(6, 11), (6, 24), (11, 24), (1, 9), (1, 16), (9, 17), (16, 17)]
)
def test_branch_unique_across_truncation_schedules(orders):
    # requesting different t-orders drives different Newton doubling schedules;
    # the common prefix must agree coefficient by coefficient
    f = parse_poly("y + y^2 - x^3 - 2*x*y")
    pt = certify_point(f, 0, 0, 5, 1)
    lo, hi = orders
    a = hensel_param(f, pt, order=lo, precision=12)
    b = hensel_param(f, pt, order=hi, precision=12)
    assert a.series.coeffs == b.series.coeffs[: lo + 1]


def test_points_on_branch_satisfy_equation():
    f = parse_poly("y - x - x*y")
    pt = certify_point(f, 0, 0, 5, 1)
    T, N = 8, 12
    param = hensel_param(f, pt, order=T, precision=N)
    # the truncation tail is O(t^(T+1)), so t0 = p^2 keeps it below p^N
    q = 5**N
    for s in (1, 2, 7):
        x, y = param.point_at(25 * s, q)
        assert f.evaluate(x, y) % q == 0


def test_anchor_refinement_from_rough_point():
    # anchors only correct mod 5^level; the parametrization must still be
    # exact.  The second is certified above the working precision, so its
    # class can only be compared mod 5^precision, where the root is known.
    x0 = 1 + 5**30
    cases = [
        ("y - x^2", 3, 9 + 125, 3, 10, (3, 9)),
        ("y - x^2 - 1", x0, x0**2 + 1 + 5**48, 48, 16, (1, 2)),
    ]
    for text, x, y, level, precision, anchor in cases:
        f = parse_poly(text)
        rough = certify_point(f, x, y, 5, level)
        assert not rough.exact
        param = hensel_param(f, rough, order=4, precision=precision)
        assert (param.anchor.x, param.anchor.y) == anchor
        assert param.anchor.exact
        assert all(c == 0 for c in param.residual(f).coeffs)


def test_solve_for_auto_picks_unit_side():
    # f_y = 0 but f_x = 1 at the origin: parametrize x by y
    f = parse_poly("x - y^2")
    pt = certify_point(f, 0, 0, 7, 1)
    param = hensel_param(f, pt, order=6, precision=10)
    assert param.solve_for == "x"
    x2, y2 = param.point_at(3, 7**10)
    assert f.evaluate(x2, y2) % 7**10 == 0


def test_solve_for_explicit_x():
    f = parse_poly("y - x - x*y")  # also solvable for x: x = y/(1 + y)
    pt = certify_point(f, 0, 0, 5, 1)
    param = hensel_param(f, pt, order=6, precision=10, solve_for="x")
    assert param.solve_for == "x"
    assert all(c == 0 for c in param.residual(f).coeffs)
    # x = y - y^2 + y^3 - ...
    mod = 5**10
    assert param.series.coeffs[1:4] == (1, mod - 1, 1)


def test_solve_for_x_matches_the_swapped_curve_solved_for_y():
    # (0, 2) lies on f only mod 5, so the anchor refinement moves x too.
    f = parse_poly("x + 2*x^2*y - y^3 + 3")
    swapped = parse_poly("y + 2*y^2*x - x^3 + 3")
    by_x = hensel_param(f, certify_point(f, 0, 2, 5, 1), order=9, precision=12, solve_for="x")
    by_y = hensel_param(
        swapped, certify_point(swapped, 2, 0, 5, 1), order=9, precision=12, solve_for="y"
    )
    assert by_x.series == by_y.series
    assert (by_x.anchor.x, by_x.anchor.y) == (by_y.anchor.y, by_y.anchor.x)
    assert by_x.anchor.x != 0


def test_no_unit_partial_raises():
    f = parse_poly("y^2 - x^3")
    pt = certify_point(f, 0, 0, 5, 2)
    with pytest.raises(HenselPreconditionError) as exc:
        hensel_param(f, pt, order=4, precision=2)
    assert exc.value.depth is not None


def test_param_argument_validation():
    f = parse_poly("y - x")
    pt = certify_point(f, 0, 0, 5, 1)
    with pytest.raises(ValueError):
        hensel_param(f, pt, order=0, precision=4)
    with pytest.raises(ValueError):
        hensel_param(f, pt, order=4, precision=0)
    with pytest.raises(ValueError):
        hensel_param(f, pt, order=4, precision=4, solve_for="z")


def test_compose_poly_on_parabola():
    f = parse_poly("y - x^2")
    g = parse_poly("x + y")
    pt = certify_point(f, 0, 0, 5, 1)
    param = hensel_param(f, pt, order=5, precision=8)
    composed = param.compose_poly(g)
    assert composed.coeffs == (0, 1, 1, 0, 0, 0)


def test_eval_at_series_matches_pointwise():
    f = parse_poly("x^2*y - 3*y^2 + x")
    p, n = 7, 8
    sx = TruncSeries.from_coeffs([2, 1, 5], p, n, order=6)
    sy = TruncSeries.from_coeffs([1, 3, 0, 2], p, n, order=6)
    out = f.horner(sx, sy)
    # the constant term is the value at t = 0, where no truncated tail reaches
    assert out.constant == f.evaluate(sx.constant, sy.constant) % p**n


def test_eval_at_series_low_orders_certified_by_derivatives():
    # coefficients 0..2 of f(sx, sy) from the multivariate chain rule
    f = parse_poly("x*y + y^2")
    p, n = 5, 10
    sx = TruncSeries.from_coeffs([1, 2, 3], p, n, order=4)
    sy = TruncSeries.from_coeffs([2, 1, 1], p, n, order=4)
    out = f.horner(sx, sy)
    q = p**n
    # f(1,2) = 6; d/dt = fx*sx' + fy*sy' = y*2 + (x+2y)*1 at t=0 -> 4+5=9
    assert out.coeffs[0] == 6 % q
    assert out.coeffs[1] == 9 % q


# -- blow-up rescaling ---------------------------------------------------------------


def test_rescale_frozen_examples():
    out = rescale_srp(parse_poly("3*y + x^2"), 3, 1)
    assert out.terms == {(0, 1): 1, (2, 0): 3}
    out2 = rescale_srp(parse_poly("5*y + 5*x"), 5, 1)
    assert out2.terms == {(0, 1): 1, (1, 0): 1}
    out3 = rescale_srp(parse_poly("3*y + 3*x + x^3"), 3, 1)
    assert out3.terms == {(0, 1): 1, (1, 0): 1, (3, 0): 27}


def test_rescale_deeper_level():
    # depth 2 at the origin: v(linear) = 2, blow-up scale p^3, division p^5
    f = parse_poly("25*y + x^2*5 + x^5")
    out = rescale_srp(f, 5, 2)
    # 25*(125y)/5^5 = y ; 5*(125x)^2/5^5 = 5^2 x^2 ; (125x)^5/5^5 = 5^10 x^5
    assert out.terms == {(0, 1): 1, (2, 0): 25, (5, 0): 5**10}
    assert is_srp_poly(out, 5)


def test_rescale_output_is_srp_and_unit_linear():
    f = parse_poly("3*y + 3*x + 9*x*y + x^2")
    out = rescale_srp(f, 3, 1)
    assert is_srp_poly(out, 3)
    assert out.coefficient(0, 1) % 3 != 0 or out.coefficient(1, 0) % 3 != 0


def test_rescale_rejects_depth_zero_and_bad_depth():
    with pytest.raises(HenselPreconditionError):
        rescale_srp(parse_poly("y + x^2"), 3, 1)  # unit linear part already
    with pytest.raises(HenselPreconditionError):
        rescale_srp(parse_poly("3*y + x^2"), 3, 0)
    with pytest.raises(RescaleError):
        # claims depth 1 but the true depth is 2: output has no unit linear part
        rescale_srp(parse_poly("9*y + 27*x + x^4"), 3, 1)


def test_rescale_rejects_origin_off_curve():
    with pytest.raises(RescaleError):
        rescale_srp(parse_poly("3*y + 3"), 3, 1)
