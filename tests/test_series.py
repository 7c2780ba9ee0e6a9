"""Truncated series arithmetic, branch parametrization, blow-up rescaling.

The branch oracles here are deliberately different algorithms from the
package's Newton doubling: closed forms where one exists, and otherwise a
digit-by-digit undetermined-coefficients solver.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

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
from references import branch_point, x_series, y_series


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def _mul_trunc(a: list, b: list, top: int, mod: int) -> list:
    out = [0] * (top + 1)
    for i, ai in enumerate(a[: top + 1]):
        if ai:
            for j, bj in enumerate(b[: top + 1 - i]):
                out[i + j] = (out[i + j] + ai * bj) % mod
    return out


def branch_oracle(f: BiPoly, p: int, precision: int, order: int, anchor=(0, 0)) -> list:
    """Coefficients of h(t) with f(x0 + t, y0 + h(t)) = 0, h(0) = 0, solved
    one order at a time: the t^k coefficient of the residual determines the
    t^k digit because f_y(x0, y0) is a unit.  Requires an exact anchor; the
    powers of x0 + t and y0 + h are expanded term by term, with no shift."""
    mod = p**precision
    x0, y0 = anchor
    assert f.evaluate(x0, y0) == 0
    fy0 = f.partial("y").evaluate(x0, y0)
    assert fy0 % p != 0
    inv = pow(fy0, -1, mod)
    coeffs = [0]
    for k in range(1, order + 1):
        coeffs.append(0)
        # residual coefficient of t^k for the current partial solution
        xpow = [x0 % mod, 1] + [0] * (k - 1)  # x = x0 + t
        ypow = [y0 % mod] + coeffs[1:]  # y = y0 + h
        total = [0] * (k + 1)
        for (i, j), c in f.terms.items():
            term = [c % mod]
            for _ in range(i):
                term = _mul_trunc(term, xpow, k, mod)
            for _ in range(j):
                term = _mul_trunc(term, ypow, k, mod)
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


# small integers, and ones far past p^n and int64 of either sign
INTS = st.one_of(st.integers(-50, 50), st.integers(-(10**40), 10**40))
COEFFS = st.lists(INTS, min_size=1, max_size=14)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(min_value=1, max_value=40),
    COEFFS,
    COEFFS,
    INTS,
)
def test_series_ring_matches_per_product_reduction(p, n, a_coeffs, b_coeffs, k):
    # the reference reduces after every product and sum; the order caps differ
    # whenever the lists do, and the shorter one sets the result's cap
    mod = p**n
    a, b = TruncSeries(tuple(a_coeffs), p, n), TruncSeries(tuple(b_coeffs), p, n)
    ra, rb = [c % mod for c in a_coeffs], [c % mod for c in b_coeffs]
    top = min(len(ra), len(rb)) - 1
    expected = {
        "a + b": [(u + v) % mod for u, v in zip(ra, rb)],
        "a - b": [(u - v) % mod for u, v in zip(ra, rb)],
        "a * b": _mul_trunc(ra, rb, top, mod),
        "-a": [-u % mod for u in ra],
        "a + k": [(ra[0] + k) % mod] + ra[1:],
        "k + a": [(k + ra[0]) % mod] + ra[1:],
        "a - k": [(ra[0] - k) % mod] + ra[1:],
        "k - a": [(k - u) % mod if i == 0 else -u % mod for i, u in enumerate(ra)],
        "a * k": [u * k % mod for u in ra],
        "k * a": [k * u % mod for u in ra],
    }
    got = {
        "a + b": a + b, "a - b": a - b, "a * b": a * b, "-a": -a,
        "a + k": a + k, "k + a": k + a, "a - k": a - k, "k - a": k - a,
        "a * k": a * k, "k * a": k * a,
    }
    for name, series in got.items():
        built = TruncSeries(tuple(expected[name]), p, n)
        assert series.coeffs == built.coeffs, name
        assert series == built and hash(series) == hash(built), name
        assert repr(series) == repr(built), name
        assert series.modulus == mod, name


def test_truncation_aligns_to_shorter_operand():
    a = TruncSeries.from_coeffs([1, 1, 1, 1], 5, 4)
    b = TruncSeries.from_coeffs([1, 1], 5, 4)
    assert (a * b).order_cap == 1
    assert (a + b).order_cap == 1


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
    with pytest.raises(ValueError, match="certification level must be >= 1"):
        certify_point(f, 2, 4, 5, 0)


@pytest.mark.parametrize("p", [0, 1, 4, -5, 6])
def test_certify_point_rejects_a_p_that_is_not_prime(p):
    with pytest.raises(ValueError, match=f"p must be prime, got {p}"):
        certify_point(parse_poly("y - x^2 - 1"), 0, 1, p, 1)


@pytest.mark.parametrize("p", [4, 6])
def test_hensel_param_rejects_a_hand_built_point_whose_p_is_not_prime(p):
    # p = 1 would loop forever in the valuation of a partial derivative
    pt = CurvePoint(0, 1, p, 1)
    with pytest.raises(ValueError, match=f"p must be prime, got {p}"):
        hensel_param(parse_poly("y - x^2 - 1"), pt, order=4, precision=4)


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


# anchors away from the origin, negative ones and ones past p^n among them
ANCHORED_CASES = [
    ("y - x - x*y", 5, 14, 8, (1, 2)),
    ("x + y + y^2", 7, 14, 8, (-3, 7)),
    ("y - x^2", 3, 14, 8, (-4, -9)),
    ("y + y^2 - x^3", 5, 14, 8, (5**20 + 2, -(5**17) - 1)),
    ("2*x + y + x*y + y^3", 3, 14, 9, (3**40, 7**30 + 1)),
    ("y + 3*x^2 + x*y^2", 3, 14, 17, (-(3**30) - 2, 5)),
]


@pytest.mark.parametrize(
    "text,p,n,top,anchor",
    [(*case, (0, 0)) for case in BRANCH_CASES] + ANCHORED_CASES,
    ids=[
        f"{text}-{p}" if (n, top) == (14, 8) else f"{text}-{p}-n{n}-order{top}"
        for text, p, n, top in BRANCH_CASES
    ]
    + [f"{text}-{p}-at{a},{b}" for text, p, _, _, (a, b) in ANCHORED_CASES],
)
def test_branch_matches_undetermined_coefficients(text, p, n, top, anchor):
    # f is translated so the anchor lies on it exactly; an anchor only counts
    # mod p^n
    a, b = anchor
    f = parse_poly(text).shift(-a, -b)
    param = hensel_param(f, certify_point(f, a, b, p, 1), order=top, precision=n)
    assert (param.anchor.x, param.anchor.y) == (a % p**n, b % p**n)
    assert list(param.series.coeffs) == branch_oracle(f, p, n, top, anchor)


def test_residual_is_exactly_zero():
    f = parse_poly("y + y^2 - x^3 - 2*x*y")
    pt = certify_point(f, 0, 0, 5, 1)
    param = hensel_param(f, pt, order=16, precision=12)
    assert all(c == 0 for c in param.compose_poly(f).coeffs)


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
        x, y = branch_point(param, 25 * s, q)
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
        assert all(c == 0 for c in param.compose_poly(f).coeffs)


def test_solve_for_auto_picks_unit_side():
    # f_y = 0 but f_x = 1 at the origin: parametrize x by y
    f = parse_poly("x - y^2")
    pt = certify_point(f, 0, 0, 7, 1)
    param = hensel_param(f, pt, order=6, precision=10)
    assert param.solve_for == "x"
    x2, y2 = branch_point(param, 3, 7**10)
    assert f.evaluate(x2, y2) % 7**10 == 0


def test_solve_for_explicit_x():
    f = parse_poly("y - x - x*y")  # also solvable for x: x = y/(1 + y)
    pt = certify_point(f, 0, 0, 5, 1)
    param = hensel_param(f, pt, order=6, precision=10, solve_for="x")
    assert param.solve_for == "x"
    assert all(c == 0 for c in param.compose_poly(f).coeffs)
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


G_TERMS = st.dictionaries(
    st.tuples(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4)),
    st.one_of(st.integers(-99, 99), st.integers(-(10**30), 10**30)),
    max_size=8,
)


@settings(max_examples=200, deadline=None)
@given(
    G_TERMS,
    st.sampled_from([2, 3, 5, 7]),
    st.integers(min_value=1, max_value=12),
    st.lists(st.integers(-(10**20), 10**20), min_size=1, max_size=10),
    INTS,
    INTS,
    st.sampled_from(["x", "y"]),
)
def test_compose_poly_matches_nested_horner(terms, p, n, h_tail, x0, y0, solve_for):
    # the reference composes in the original coordinates: a Horner in y over
    # a Horner in x, on the series x0 + t and y0 + h (or x0 + h and y0 + t)
    g = BiPoly(terms)
    h = TruncSeries((0, *h_tail), p, n)
    param = Parametrization(CurvePoint(x0, y0, p, n), h, solve_for)
    assert param.compose_poly(g) == g.horner(x_series(param), y_series(param))


@pytest.mark.parametrize(
    "text,x,y,p,e,solve_for",
    [
        ("y^2 - x^3 - 25", 0, 5, 5, 1, "y"),
        ("x^2 - y^3 - 25", 5, 0, 5, 1, "x"),
        ("3*y + 3*x + 9*x*y + x^2", 0, 0, 3, 1, "x"),
        ("3*y + 3*x + 9*x*y + x^2", 0, 0, 3, 1, "y"),
    ],
)
def test_compose_poly_in_a_blown_up_chart_matches_nested_horner(text, x, y, p, e, solve_for):
    # contact_order's chart: the curve translated to a depth-e point, blown up
    # by rescale_srp, and parametrized at its origin
    curve = rescale_srp(parse_poly(text).shift(x, y), p, e)
    param = hensel_param(
        curve, certify_point(curve, 0, 0, p, 1), order=12, precision=10, solve_for=solve_for
    )
    assert not any(param.compose_poly(curve).coeffs)
    for weight in ("x", "y", "x + y", "3*x^2 - 7*x*y + y^3 + 1", "x^4*y - 2*y^2"):
        g = parse_poly(weight)
        assert param.compose_poly(g) == g.horner(x_series(param), y_series(param)), weight


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
