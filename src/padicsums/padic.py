"""p-adic valuations, primality, and the additive character.

Valuations are computed by exact integer division, with INFINITY as the
valuation of zero.  INFINITY is `math.inf`: it compares above every integer
and is only compared or taken the min of, never subtracted.  The standard
additive character exp(2*pi*i*{z}) is the scalar reference for the
vectorized character sums: it only touches floating point after its phase
has been reduced mod p^m exactly, so two phases that agree mod p^m produce
bit-identical complex values.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

__all__ = [
    "INFINITY",
    "additive_char",
    "is_prime",
    "valuation",
]

INFINITY = math.inf

# Deterministic Miller-Rabin witness set, valid for every n < 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n % w == 0:
            return n == w
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_level(p: int, m: int = 1, what: str = "level") -> None:
    """Refuse (ValueError) a p that is not prime, or a level m below 1.

    The one check of (p, m) for every entry point that works mod p^m; `what`
    names m in the message.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if m < 1:
        raise ValueError(f"{what} must be >= 1, got {m}")


def _int_valuation(n: int, p: int) -> int:
    # n != 0 assumed
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def valuation(value: int | Fraction, p: int, den: int = 1):
    """p-adic valuation of value/den; INFINITY when the numerator vanishes.

    Additivity v(ab) = v(a) + v(b) holds exactly, so the valuation of a
    fraction never depends on the representative chosen.
    """
    _check_level(p)
    if den == 0:
        raise ZeroDivisionError("denominator is zero")
    if isinstance(value, Fraction):
        num = value.numerator
        den = den * value.denominator
    else:
        num = value
    if num == 0:
        return INFINITY
    return _int_valuation(num, p) - _int_valuation(den, p)


def additive_char(phase_num: int, m: int, p: int) -> complex:
    """exp(2*pi*i * r/p^m) where r = phase_num mod p^m, reduced exactly first.

    The reduction happens in integer arithmetic, so the result depends only
    on the residue class of phase_num and the character is exactly additive
    on phases up to floating-point rounding of the final exponential.
    """
    if m < 1:
        raise ValueError(f"character level must be >= 1, got {m}")
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")
    q = p**m
    r = phase_num % q
    return cmath.exp(2j * math.pi * (r / q))
