"""Primality, valuations, and the additive character."""

import cmath
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from padicsums.padic import (
    INFINITY,
    additive_char,
    is_prime,
    valuation,
)


def val_oracle(n: int, p: int) -> int:
    """Valuation by repeated division, no cleverness."""
    assert n != 0
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# -- primality and valuation ---------------------------------------------------


def test_is_prime_small_table():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(2, 50):
        assert is_prime(n) == (n in primes), n
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)


def test_is_prime_carmichael():
    # Fermat pseudoprimes to many bases; Miller-Rabin must reject them.
    for n in (561, 1105, 1729, 2465, 2821, 6601, 8911):
        assert not is_prime(n)
    assert is_prime(2**61 - 1)


@pytest.mark.parametrize(
    "value,p,expected",
    [
        (12, 2, 2),
        (12, 3, 1),
        (-8, 2, 3),
        (1, 5, 0),
        (625, 5, 4),
        (Fraction(1, 25), 5, -2),
        (Fraction(50, 3), 5, 2),
        (Fraction(-9, 49), 7, -2),
    ],
)
def test_valuation_cases(value, p, expected):
    assert valuation(value, p) == expected


def test_valuation_of_zero_is_infinite():
    assert valuation(0, 7) is INFINITY
    assert valuation(Fraction(0), 7) is INFINITY


def test_valuation_den_argument():
    assert valuation(50, 5, den=125) == -1
    assert valuation(1, 3, den=1) == 0


@given(st.integers(min_value=1, max_value=10**9), st.sampled_from([2, 3, 5, 7, 11]))
def test_valuation_matches_oracle(n, p):
    assert valuation(n, p) == val_oracle(n, p)
    assert valuation(-n, p) == val_oracle(n, p)


@given(
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
    st.sampled_from([2, 3, 5, 7]),
)
def test_valuation_is_additive(a, b, p):
    assert valuation(a * b, p) == valuation(a, p) + valuation(b, p)


def test_infinity_ordering_and_absorption():
    assert INFINITY > 10**100
    assert not (INFINITY < 5)
    assert INFINITY >= INFINITY
    assert INFINITY == INFINITY
    assert INFINITY + 3 == INFINITY
    assert 3 + INFINITY == INFINITY
    assert INFINITY + INFINITY == INFINITY
    assert min(INFINITY, 4) == 4


# -- the additive character ------------------------------------------------------


def test_char_frozen_values():
    assert additive_char(0, 3, 5) == pytest.approx(1.0)
    z = additive_char(1, 1, 5)
    assert z == pytest.approx(cmath.exp(2j * cmath.pi / 5))
    # a full p-th power of the level-1 character returns to 1
    assert z**5 == pytest.approx(1.0)


def test_char_reduces_mod_level():
    p, m = 7, 3
    q = p**m
    assert additive_char(q + 5, m, p) == pytest.approx(additive_char(5, m, p))
    assert additive_char(-1, m, p) == pytest.approx(additive_char(q - 1, m, p))


def test_char_trivial_on_multiples():
    assert additive_char(3**4 * 11, 4, 3) == pytest.approx(1.0)


@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=-(10**9), max_value=10**9),
    st.integers(min_value=-(10**9), max_value=10**9),
)
def test_char_is_additive(p, m, a, b):
    lhs = additive_char(a + b, m, p)
    rhs = additive_char(a, m, p) * additive_char(b, m, p)
    assert abs(lhs - rhs) < 1e-12


@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=-(10**9), max_value=10**9),
)
def test_char_conjugation(p, m, a):
    assert abs(additive_char(-a, m, p) - additive_char(a, m, p).conjugate()) < 1e-12
    assert abs(abs(additive_char(a, m, p)) - 1.0) < 1e-12


def test_char_sums_to_zero_over_full_period():
    for p, m in ((3, 2), (5, 1), (2, 4)):
        q = p**m
        total = sum(additive_char(a, m, p) for a in range(q))
        assert abs(total) < 1e-10
