"""Polynomial ring operations and the expression parser."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from padicsums.polynomials import BiPoly, PolySyntaxError, parse_poly, parse_univariate

X = BiPoly.variable("x")
Y = BiPoly.variable("y")


# -- construction and arithmetic -------------------------------------------------


def test_zero_coefficients_are_dropped():
    f = BiPoly({(1, 0): 1, (0, 1): 0})
    assert f.terms == {(1, 0): 1}
    assert (X - X).is_zero
    assert BiPoly.zero().is_zero


def test_binomial_square():
    f = (X + Y) ** 2
    assert f.terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}


def test_pow_cap():
    with pytest.raises(ValueError):
        (X + Y) ** 10**6
    with pytest.raises(ValueError):
        X ** (-1)


def test_degree_and_low_degree():
    f = parse_poly("x^3*y + 2*x^2 - 5*y")
    assert f.degree() == 4
    assert f.low_degree() == 1
    assert BiPoly.zero().degree() == -1


def test_partial_derivatives():
    f = parse_poly("x^3*y^2 + 7*x - y")
    assert f.partial("x").terms == {(2, 2): 3, (0, 0): 7}
    assert f.partial("y").terms == {(3, 1): 2, (0, 0): -1}
    with pytest.raises(ValueError):
        f.partial("z")


def test_evaluate_with_and_without_modulus():
    f = parse_poly("x^2 + y^2 + 1")
    assert f.evaluate(2, 3) == 14
    assert f.evaluate(2, 3, modulus=5) == 4
    assert f.evaluate(-2, -3) == 14


def test_horner_matches_evaluate_on_int64_at_the_cap():
    # p = 2, m = 31: the largest int64 modulus; coefficients beyond int64
    # and negative ones are reduced before any product is formed.
    q = 2**31
    f = BiPoly({(3, 2): 10**30, (1, 4): -7, (0, 1): 5, (2, 0): -(10**20), (0, 0): 3})
    coords = np.array([0, q - 1, 1, q // 2], dtype=np.int64)
    xs, ys = np.repeat(coords, 4), np.tile(coords, 4)
    got = f.horner(xs, ys, q)
    assert got.dtype == np.int64
    assert got.tolist() == [f.evaluate(int(x), int(y), q) for x, y in zip(xs, ys)]


def test_horner_matches_evaluate_on_object_arrays():
    q = 7**12
    f = parse_poly("3*x^5*y^2 - 11*x*y^3 + 40353607*y - 2")
    pairs = [(0, 0), (q - 1, 5), (123456789, q - 2), (-9, 7**20 + 3)]
    xs = np.array([x for x, _ in pairs], dtype=object)
    ys = np.array([y for _, y in pairs], dtype=object)
    assert f.horner(xs, ys, q).tolist() == [f.evaluate(x, y, q) for x, y in pairs]


@pytest.mark.parametrize(
    "q, dtype",
    [
        (46337, np.int32),  # the largest prime with q^2 < 2^31
        (3**9, np.int32),
        (2**31 - 1, np.int64),
        (2**61 - 1, object),
        (3**60, object),
    ],
)
def test_horner_is_exact_at_each_dtype_edge(q, dtype):
    # Horner's values stay below q^2 - q only once x, y and the coefficients
    # are reduced: the dtype's extreme coordinates and coefficients far past
    # int64 overflow any step that skips a reduction.
    f = BiPoly({(3, 2): 3**50, (1, 4): -7, (2, 1): -(2**70) - 1, (0, 3): q - 1, (0, 0): 5})
    if dtype is object:
        coords = [0, 1, q - 1, q, -1, -(q - 1), -(2**100), 2**100 + 7]
    else:
        info = np.iinfo(dtype)
        coords = [0, 1, q - 1, q, -1, -(q - 1), int(info.min), int(info.max)]
    grid = np.array(coords, dtype=dtype)
    xs, ys = np.repeat(grid, len(coords)), np.tile(grid, len(coords))
    got = f.horner(xs, ys, q)
    assert got.dtype == dtype
    assert got.tolist() == [f.evaluate(int(x), int(y), q) for x, y in zip(xs, ys)]


@pytest.mark.parametrize("text", ["0", "6", "-4"])
def test_horner_of_constant_keeps_the_operand_shape(text):
    f = parse_poly(text)
    xs = np.arange(6, dtype=np.int64).reshape(2, 3)
    out = f.horner(xs, xs + 1, 5)
    assert out.shape == (2, 3)
    assert out.tolist() == [[f.evaluate(0, 0, 5)] * 3] * 2


@pytest.mark.parametrize(
    "text,shape",
    [
        ("y - x^2", (7, 25)),  # constant leading y-row: acc * y is a (1, 25) row
        ("2*y^2 - x*y + x^3 - 1", (7, 25)),
        ("3*x*y^2 + 4*y - x^5", (7, 25)),  # the leading y-row mod 5 is 3*x
        ("x^2*y^3 + 5*y - x", (7, 25)),
        ("y^2 + 7", (1, 25)),  # no x: the shape of y alone
        ("x^3 - 2*x + 1", (7, 1)),  # no y: the shape of x alone
    ],
)
@pytest.mark.parametrize("modulus", [None, 5, 25])
def test_horner_on_broadcast_operands_matches_the_repeat_tile_grid(text, shape, modulus):
    f = parse_poly(text)
    xs, ys = np.arange(3, 10, dtype=np.int64), np.arange(-5, 20, dtype=np.int64)
    out = f.horner(xs[:, None], ys[None, :], modulus)
    assert out.shape == shape
    flat = f.horner(np.repeat(xs, len(ys)), np.tile(ys, len(xs)), modulus)
    assert np.array_equal(np.broadcast_to(out, (len(xs), len(ys))).ravel(), flat)


def test_partials_are_computed_once():
    f = parse_poly("x^3*y - y^2")
    assert f.partial("x") is f.partial("x")
    assert f.partial("y").terms == {(3, 0): 1, (0, 1): -2}


def test_swap_and_scale():
    f = parse_poly("x^2 - y")
    g = f.scale_vars(3, 9)
    assert g.terms == {(2, 0): 9, (0, 1): -9}


def test_divide_exact():
    f = parse_poly("6*x + 9*y")
    assert f.divide_exact(3).terms == {(1, 0): 2, (0, 1): 3}
    with pytest.raises(ValueError):
        f.divide_exact(4)


@given(
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-9, max_value=9),
)
def test_shift_agrees_with_translated_evaluation(x, y, a, b):
    f = parse_poly("x^3 - 2*x*y + y^2 - 4")
    assert f.shift(a, b).evaluate(x, y) == f.evaluate(x + a, y + b)


@given(st.integers(min_value=-30, max_value=30), st.integers(min_value=-30, max_value=30))
def test_ring_ops_agree_with_evaluation(x, y):
    f = parse_poly("x^2 - y + 3")
    g = parse_poly("x*y - 1")
    assert (f + g).evaluate(x, y) == f.evaluate(x, y) + g.evaluate(x, y)
    assert (f - g).evaluate(x, y) == f.evaluate(x, y) - g.evaluate(x, y)
    assert (f * g).evaluate(x, y) == f.evaluate(x, y) * g.evaluate(x, y)


# -- printing -------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,canonical",
    [
        ("y - x^2", "-x^2 + y"),
        ("x*y - 1", "x*y - 1"),
        ("-x + y", "-x + y"),
        ("2*x^2*y^3 + x", "2*x^2*y^3 + x"),
        ("0", "0"),
        ("y", "y"),
        ("x^2 - 2*x + 1", "x^2 - 2*x + 1"),
    ],
)
def test_canonical_printing(text, canonical):
    assert str(parse_poly(text)) == canonical


def test_print_graded_lex_order():
    # higher total degree first, then higher x-degree
    f = parse_poly("y^2 + x*y + x^3 + x + 1")
    assert str(f) == "x^3 + x*y + y^2 + x + 1"


# -- parsing --------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,terms",
    [
        ("x", {(1, 0): 1}),
        ("-x", {(1, 0): -1}),
        ("x + y", {(1, 0): 1, (0, 1): 1}),
        ("3*x^2*y", {(2, 1): 3}),
        ("2*(x + y)", {(1, 0): 2, (0, 1): 2}),
        ("(x + y)^2", {(2, 0): 1, (1, 1): 2, (0, 2): 1}),
        ("x - (y - x)", {(1, 0): 2, (0, 1): -1}),
        ("7", {(0, 0): 7}),
        ("x^10", {(10, 0): 1}),
    ],
)
def test_parse_cases(text, terms):
    assert parse_poly(text).terms == terms


@pytest.mark.parametrize(
    "text,column",
    [
        ("y -- x", 4),  # '-' is not a binary-then-unary chain
        ("x + ", 5),
        ("* x", 1),
        ("x ^ y", 5),  # exponents must be integer literals
        ("(x + y", 7),
        ("x + y)", 6),
        ("x % y", 3),
        ("", 1),
        ("x^2y", 4),  # no implicit products
        ("2(x + y)", 2),
        ("x ^ -2", 5),  # no negative exponents
    ],
)
def test_parse_errors_carry_positions(text, column):
    with pytest.raises(PolySyntaxError) as exc:
        parse_poly(text)
    assert exc.value.position == column


@pytest.mark.parametrize(
    "text,message",
    [
        ("", "unexpected end of input (column 1)"),
        ("x^", "expected 'int', found end of input (column 3)"),
        ("(x", "expected ')', found end of input (column 3)"),
        ("y - x^2 + ", "unexpected end of input (column 11)"),
    ],
)
def test_parse_errors_name_the_end_of_input(text, message):
    with pytest.raises(PolySyntaxError) as exc:
        parse_poly(text)
    assert str(exc.value) == message


def test_parse_error_message_mentions_column():
    with pytest.raises(PolySyntaxError, match="column 4"):
        parse_poly("y -- x")


def test_unary_minus_only_at_expression_start():
    # allowed at the start and after '('
    assert parse_poly("-x + y").terms == {(1, 0): -1, (0, 1): 1}
    assert parse_poly("y + (-x)").terms == {(1, 0): -1, (0, 1): 1}
    with pytest.raises(PolySyntaxError):
        parse_poly("y + -x")


def test_parse_univariate():
    f = parse_univariate("x^3 - 3*x")
    assert f.terms == {(3, 0): 1, (1, 0): -3}
    with pytest.raises(PolySyntaxError):
        parse_univariate("x + y")


terms_strategy = st.dictionaries(
    st.tuples(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5)),
    st.integers(min_value=-99, max_value=99).filter(bool),
    min_size=1,
    max_size=6,
)


@given(terms_strategy)
def test_print_parse_round_trip(terms):
    f = BiPoly(terms)
    if f.is_zero:
        return
    assert parse_poly(str(f)).terms == f.terms
