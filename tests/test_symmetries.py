"""Symmetry oracles: relations every sum must keep, whatever route computes it.

An affine map A_t(x, y) = A (x, y) + t with det A = +-1 permutes (Z/p^m)^2,
so it carries the zeros of f o A_t mod p^m onto those of f, and the phases
of g o A_t onto those of g: the point counts and the sums S_m agree.  3 is a
unit mod 5 and 7, so 3f has the zeros of f, and u * 3g = 3u * g turns S(u)
of 3g into S(3u) of g; u -> -u conjugates every term.  None of this needs a
reference value, so it checks the stationary-phase route (`decay_records`)
and both enumerations against themselves on curves they were not tuned to.
For `sum_onevar`, x -> v x + t (v a unit) permutes Z/p^m and keeps S_m,
h -> h + c turns every term by e(u c / p^m), and v h at u has the integer
phases of h at u v, so the same floats.
"""

import cmath

import pytest
from hypothesis import given, settings, strategies as st

from padicsums.counting import brute_points, lift_points
from padicsums.expsums import PhaseSpec, decay_records, sum_onevar
from padicsums.polynomials import BiPoly, parse_poly, parse_univariate

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


@st.composite
def unimodular_maps(draw):
    """(A, t): A a product of at most three elementary shears, then maybe a swap."""
    (a, b), (c, d) = (1, 0), (0, 1)
    for upper, s in draw(st.lists(st.tuples(st.booleans(), st.integers(-2, 2)), max_size=3)):
        if upper:  # A times (1 s; 0 1)
            b, d = b + s * a, d + s * c
        else:  # A times (1 0; s 1)
            a, c = a + s * b, c + s * d
    if draw(st.booleans()):
        (a, b), (c, d) = (c, d), (a, b)
    return ((a, b), (c, d)), draw(st.tuples(st.integers(-5, 5), st.integers(-5, 5)))


# the drawn maps leave sigma out: the search's cost depends on the x-class
@pytest.mark.parametrize("f, g, p, levels", CURVES, ids=[f"{f}|{g}" for f, g, _, _ in CURVES])
@settings(max_examples=50, deadline=None)
@given(at=unimodular_maps())
def test_a_drawn_affine_map_keeps_the_records_and_the_point_counts(f, g, p, levels, at):
    A, t = at
    (a, b), (c, d) = A
    assert a * d - b * c in (1, -1)
    f, g = parse_poly(f), parse_poly(g)
    fa, ga = compose(f, A, t), compose(g, A, t)
    assert_same_sums(decay_records(fa, ga, p, levels), decay_records(f, g, p, levels))
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


# -- one-variable sums ------------------------------------------------------------

# (h, p, top level); x^3 and (x^2 - 2)^3 have degenerate critical points
ONEVAR = [
    ("x^3", 5, 9),
    ("x^3 + x", 7, 7),
    ("(x^2 - 2)^3", 7, 8),
    ("x^4 + 2*x^2 - 5*x", 3, 10),
    ("x^5 - 7*x^3 + 2*x", 2, 12),
]


@pytest.fixture(params=ONEVAR, ids=[h for h, _, _ in ONEVAR])
def onevar(request):
    h, p, m_max = request.param
    return parse_univariate(h), p, range(1, m_max + 1)


def onevar_sums(h, p, levels, u=1):
    return [sum_onevar(h, PhaseSpec(p, m, u)) for m in levels]


@pytest.mark.parametrize("t, v", [(1, 1), (-4, 1), (0, -1), (3, 2), (25, 3)])
def test_an_affine_change_of_x_keeps_the_onevar_sums(onevar, t, v):
    # x -> v x + t permutes Z/p^m when v is a unit mod p
    h, p, levels = onevar
    if v % p == 0:
        v += 1
    x = BiPoly.variable("x")
    moved = h.horner(v * x + t, BiPoly.variable("y"))
    for u in (1, 2 if p != 2 else 3):
        got, want = onevar_sums(moved, p, levels, u), onevar_sums(h, p, levels, u)
        assert [r.point_count for r in got] == [r.point_count for r in want]
        for r, s in zip(got, want):
            assert abs(r.value - s.value) <= 1e-11 * r.point_count + 1e-9, (r, s)


@pytest.mark.parametrize("c", [1, -3, 26, 7**5 + 2])
def test_a_constant_added_to_h_turns_each_onevar_sum_by_its_phase(onevar, c):
    # every term of S_m(h + c) is e(u c / p^m) times the term of S_m(h)
    h, p, levels = onevar
    u = 2 if p != 2 else 3
    for r, s in zip(onevar_sums(h + c, p, levels, u), onevar_sums(h, p, levels, u)):
        q = p**r.m
        turn = cmath.exp(2j * cmath.pi * (u * c % q) / q)
        assert abs(r.value - turn * s.value) <= 1e-11 * q + 1e-9, (r, s)


@pytest.mark.parametrize("v", [-1, 3, 11])
def test_a_unit_multiple_of_h_is_h_at_the_multiplied_scalar(onevar, v):
    # (v h)' = v h' has the critical classes of h, and u (v h(a)) = (u v) h(a)
    # mod p^m: the same integer phases in the same order, so the same floats
    h, p, levels = onevar
    if v % p == 0:
        v += 1
    for u in (1, -2 if p != 2 else 5):
        got, want = onevar_sums(v * h, p, levels, u), onevar_sums(h, p, levels, u * v)
        assert [(r.m, r.point_count, r.value) for r in got] == [
            (s.m, s.point_count, s.value) for s in want
        ]
