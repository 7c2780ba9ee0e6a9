"""Symmetry oracles: relations every sum must keep, whatever route computes it.

An affine map A_t(x, y) = A (x, y) + t with det A = +-1 permutes (Z/p^m)^2,
so it carries the zeros of f o A_t mod p^m onto those of f, and the phases
of g o A_t onto those of g: the point counts and the sums S_m agree.  3 is a
unit mod 5 and 7, so 3f has the zeros of f, and u * 3g = 3u * g turns S(u)
of 3g into S(3u) of g; u -> -u conjugates every term.  None of this needs a
reference value, so it checks the stationary-phase route (`decay_records`)
and both enumerations against themselves on curves they were not tuned to.
"""

import pytest

from padicsums.counting import brute_points, lift_points
from padicsums.expsums import decay_records
from padicsums.polynomials import BiPoly, parse_poly

# (curve, weight, p, levels); the second has the singular residue (0, 0) mod 7
CURVES = [
    ("x^3 + y^3 - 1", "x", 7, range(1, 7)),
    ("y^2 - x^3 - 49", "y", 7, range(1, 6)),
    ("y - (x^2 - 2)^3", "y", 7, range(1, 8)),
    ("y^2 - x^3 - x", "x*y + x", 5, range(1, 7)),
]
# (A, t), each with det A = +-1: the swap and two shears
MAPS = [
    (((0, 1), (1, 0)), (0, 0)),
    (((1, 2), (0, 1)), (3, -1)),
    (((2, 1), (1, 1)), (1, 4)),
]
# brute_points and lift_points go up to this level
ENUMERATED = 3


def compose(h: BiPoly, A, t) -> BiPoly:
    """h o A_t, exact over Z: `BiPoly.horner` on polynomial operands."""
    (a, b), (c, d) = A
    x, y = BiPoly.variable("x"), BiPoly.variable("y")
    return h.horner(a * x + b * y + t[0], c * x + d * y + t[1])


def assert_same_sums(got, want, conjugate=False):
    """Equal levels and point counts, and values within the package's tolerance."""
    assert [(r.m, r.point_count) for r in got] == [(r.m, r.point_count) for r in want]
    for r, s in zip(got, want):
        value = s.value.conjugate() if conjugate else s.value
        assert abs(r.value - value) <= 1e-11 * r.point_count + 1e-9, (r, s)


@pytest.fixture(params=CURVES, ids=[f"{f}|{g}" for f, g, _, _ in CURVES])
def curve(request):
    f, g, p, levels = request.param
    return parse_poly(f), parse_poly(g), p, levels


@pytest.mark.parametrize("A, t", MAPS, ids=["swap", "shear", "shear2"])
def test_an_affine_change_of_coordinates_keeps_every_record(curve, A, t):
    f, g, p, levels = curve
    fa, ga = compose(f, A, t), compose(g, A, t)
    assert (fa, ga) != (f, g)
    assert_same_sums(decay_records(fa, ga, p, levels), decay_records(f, g, p, levels))


@pytest.mark.parametrize("A, t", MAPS, ids=["swap", "shear", "shear2"])
def test_an_affine_change_of_coordinates_keeps_the_point_counts(curve, A, t):
    f, _, p, _ = curve
    fa = compose(f, A, t)
    for m in range(1, ENUMERATED + 1):
        count = len(brute_points(f, p, m))
        assert len(brute_points(fa, p, m)) == count, m
        assert len(lift_points(fa, p, m)) == count, m


def test_tripling_the_weight_triples_the_scalar(curve):
    f, g, p, levels = curve
    assert_same_sums(decay_records(f, 3 * g, p, levels), decay_records(f, g, p, levels, u=3))


def test_negating_the_scalar_conjugates_the_sum(curve):
    f, g, p, levels = curve
    want = decay_records(f, g, p, levels)
    assert_same_sums(decay_records(f, g, p, levels, u=-1), want, conjugate=True)


def test_tripling_the_curve_keeps_every_record(curve):
    f, g, p, levels = curve
    assert_same_sums(decay_records(3 * f, g, p, levels), decay_records(f, g, p, levels))
