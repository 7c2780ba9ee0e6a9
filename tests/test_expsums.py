"""Character sums over curves: values, symmetries, and serialization.

The reference oracle below sums cmath exponentials over a brute-force grid
scan, one term at a time.  It shares no code with the package's vectorized
character-sum kernel.
"""

import argparse
import cmath
import csv
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from padicsums import cli, counting, expsums
from padicsums.expsums import (
    PhaseSpec,
    SumRecord,
    decay_records,
    sum_curve,
    sum_onevar,
    sum_parametric,
)
from padicsums.counting import BudgetError, brute_points, lift_levels, lift_points
from padicsums.padic import additive_char
from padicsums.polynomials import BiPoly, parse_poly, parse_univariate
from padicsums.series import SeriesPrecisionError, certify_point, hensel_param
from references import branch_point


def direct_sum_oracle(f, g, p, m, u=1):
    q = p**m
    total = 0j
    for x in range(q):
        for y in range(q):
            if f.evaluate(x, y) % q == 0:
                r = (u * g.evaluate(x, y)) % q
                total += cmath.exp(2j * cmath.pi * r / q)
    return total


# -- the scalar z = u/p^m -----------------------------------------------------------


def test_phase_validation():
    with pytest.raises(ValueError):
        PhaseSpec(6, 2, 1)  # not prime
    with pytest.raises(ValueError):
        PhaseSpec(5, 0, 1)
    with pytest.raises(ValueError):
        PhaseSpec(5, 2, 10)  # u not a unit
    assert PhaseSpec(5, 2, 26).u == 1  # numerator reduced mod p^m
    assert PhaseSpec(5, 2, -1).u == 24


def test_record_magnitude_cannot_exceed_count():
    with pytest.raises(ValueError):
        SumRecord(5, 1, 1, "f", "g", complex(10, 0), 4)


def test_normalization_scale():
    rec = SumRecord(5, 2, 1, "f", "g", complex(5, 0), 25)
    assert rec.with_normalization(2).normalized == pytest.approx(5 / 5.0**1)
    assert rec.with_normalization(1).normalized == pytest.approx(5.0)
    for sigma in (0, -2):  # the same check as decay_fit
        with pytest.raises(ValueError, match=f"exponent must be >= 1, got {sigma}"):
            rec.with_normalization(sigma)


# -- values against the independent oracle ---------------------------------------------


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_gauss_sum_magnitude_and_value(p, m):
    if p**(2 * m) > 10**6:
        pytest.skip("oracle grid too large")
    f, g = parse_poly("y - x^2"), parse_poly("y")
    rec = sum_curve(f, g, PhaseSpec(p, m, 1), lift_points(f, p, m))
    assert rec.magnitude == pytest.approx(p ** (m / 2), rel=1e-9)
    assert rec.value == pytest.approx(direct_sum_oracle(f, g, p, m), abs=1e-9)


def test_sum_with_nontrivial_unit_numerator():
    f, g = parse_poly("y - x^3"), parse_poly("x + y")
    p, m, u = 5, 2, 7
    rec = sum_curve(f, g, PhaseSpec(p, m, u), lift_points(f, p, m))
    assert rec.value == pytest.approx(direct_sum_oracle(f, g, p, m, u), abs=1e-9)
    assert rec.u == u


def test_full_character_sum_vanishes():
    # along y = x with weight x the phases sweep every residue equally
    f, g = parse_poly("y - x"), parse_poly("x")
    for p, m in ((2, 3), (3, 2), (5, 2)):
        rec = sum_curve(f, g, PhaseSpec(p, m, 1), lift_points(f, p, m))
        assert rec.magnitude < 1e-10


def test_constant_weight_gives_rotated_count():
    f = parse_poly("y - x^2")
    g = parse_poly("3")
    p, m = 5, 2
    rec = sum_curve(f, g, PhaseSpec(p, m, 1), lift_points(f, p, m))
    expect = 25 * cmath.exp(2j * cmath.pi * 3 / 25)
    assert rec.value == pytest.approx(expect, abs=1e-9)


def test_constant_shift_rotates_the_sum():
    f = parse_poly("y^2 - x^3 - x")
    g = parse_poly("x + y")
    p, m = 3, 2
    pts = lift_points(f, p, m)
    base = sum_curve(f, g, PhaseSpec(p, m, 1), pts)
    shifted = sum_curve(f, g + parse_poly("7"), PhaseSpec(p, m, 1), pts)
    expect = base.value * cmath.exp(2j * cmath.pi * 7 / 9)
    assert shifted.value == pytest.approx(expect, abs=1e-10)


def test_mismatched_point_set_rejected():
    f, g = parse_poly("y - x"), parse_poly("x")
    pts = lift_points(f, 5, 2)
    with pytest.raises(ValueError):
        sum_curve(f, g, PhaseSpec(5, 3, 1), pts)
    with pytest.raises(ValueError):
        sum_curve(f, g, PhaseSpec(7, 2, 1), pts)


# -- one-variable sums ----------------------------------------------------------------


def test_onevar_matches_direct_exponential_sum():
    f_one = parse_univariate("x^3 - 3*x")
    p, m, u = 5, 3, 2
    rec = sum_onevar(f_one, PhaseSpec(p, m, u))
    q = p**m
    direct = sum(
        cmath.exp(2j * cmath.pi * ((u * f_one.evaluate(x, 0)) % q) / q) for x in range(q)
    )
    assert rec.value == pytest.approx(direct, abs=1e-9)
    assert rec.point_count == q
    assert rec.f == str(parse_poly("y - x^3 + 3*x"))
    assert rec.g == "y"


def test_onevar_equals_graph_curve_sum():
    f_one = parse_univariate("x^2")
    p, m = 7, 2
    graph = parse_poly("y - x^2")
    via_curve = sum_curve(
        graph, parse_poly("y"), PhaseSpec(p, m, 1), lift_points(graph, p, m)
    )
    via_onevar = sum_onevar(f_one, PhaseSpec(p, m, 1))
    assert via_onevar.value == pytest.approx(via_curve.value, abs=1e-10)


def test_onevar_rejects_bivariate():
    with pytest.raises(ValueError):
        sum_onevar(parse_poly("x + y"), PhaseSpec(5, 1, 1))


def full_scan_onevar_sum(f_one, phase):
    """Reference loop: one phase per x in Z/p^m, summed in full."""
    q = phase.denominator
    xs = np.arange(q, dtype=np.int64)
    phases = f_one.horner(xs, np.zeros_like(xs), q) * phase.u % q
    return complex(np.exp(2j * np.pi * phases / q).sum())


ONEVAR_CASES = [
    ("x^3", 5, 8),
    ("x^3 + x", 7, 6),
    ("x^4 + 2*x^2", 3, 10),
    ("x^2", 2, 12),
    ("2*x^3 + 5*x^2", 5, 7),
    ("x^5 - x", 5, 7),
]


@pytest.mark.parametrize("unit", ["one", "other"])
@pytest.mark.parametrize("text,p,m_max", ONEVAR_CASES, ids=[c[0] for c in ONEVAR_CASES])
def test_onevar_stationary_phase_matches_the_full_scan(text, p, m_max, unit):
    # degenerate critical points (x^3, x^2 at p = 2, 2*x^3 + 5*x^2) included
    f_one = parse_univariate(text)
    u = 1 if unit == "one" else (7 if p != 7 else 3)
    for m in range(1, m_max + 1):
        phase = PhaseSpec(p, m, u)
        rec = sum_onevar(f_one, phase)
        assert rec.point_count == p**m
        assert abs(rec.value - full_scan_onevar_sum(f_one, phase)) <= 1e-11 * p**m + 1e-9


def test_onevar_without_critical_points_is_exactly_zero():
    # f' = 5x^4 - 1 is a unit everywhere at p = 5: no class survives once r >= 1
    f_one = parse_univariate("x^5 - x")
    for m in range(2, 8):
        assert sum_onevar(f_one, PhaseSpec(5, m, 1)).value == 0


def test_onevar_gauss_sum_at_the_cap():
    # 3^19 < 2^31 <= 3^20; the full scan would need 3^19 phases, the rule 3^10
    rec = sum_onevar(parse_univariate("x^2"), PhaseSpec(3, 19, 1))
    assert rec.point_count == 3**19
    assert rec.magnitude == pytest.approx(3**9.5, rel=1e-9)


# -- branch-restricted sums --------------------------------------------------------------


def restricted_oracle(f, g, p, m, l, u=1):
    """Brute force over curve points whose x-coordinate has valuation >= l."""
    q = p**m
    total = 0j
    for x in range(0, q, p**l):
        for y in range(q):
            if f.evaluate(x, y) % q == 0:
                total += cmath.exp(2j * cmath.pi * ((u * g.evaluate(x, y)) % q) / q)
    return total


@pytest.mark.parametrize("l,m", [(1, 3), (2, 4), (3, 4)])
def test_parametric_sum_matches_restricted_brute(l, m):
    p = 5
    f, g = parse_poly("y - x^2"), parse_poly("x + y")
    pt = certify_point(f, 0, 0, p, 1)
    param = hensel_param(f, pt, order=max(2, m), precision=m + 2)
    rec = sum_parametric(param, g, l, PhaseSpec(p, m, 1))
    assert rec.point_count == p ** (m - l)
    assert rec.value == pytest.approx(restricted_oracle(f, g, p, m, l), abs=1e-9)


def test_parametric_exact_power_magnitude():
    # weight y on the parabola branch: sum of e(t^2/p^m) over v(t) >= l
    # collapses to p^(m-l) exactly once 2l >= m
    p, f, g = 5, parse_poly("y - x^2"), parse_poly("y")
    pt = certify_point(f, 0, 0, p, 1)
    for m in (4, 5, 6):
        l = m // 2 + 1
        param = hensel_param(f, pt, order=max(4, m), precision=m + 2)
        rec = sum_parametric(param, g, l, PhaseSpec(p, m, 1))
        assert rec.magnitude == pytest.approx(p ** (m - l), rel=1e-12)


def test_parametric_exact_phases_above_int64_wall():
    # q = 2^32 is past the int64 cap, the one-variable level 2^17 is not;
    # with t = 2^15 * s the phase t^2 = 2^30 * s^2 mod 2^32, so the 2^17 terms are
    # 1 for even s and i for odd s: S = 2^16 * (1 + i), a quadratic Gauss sum
    p, m, l = 2, 32, 15
    f, g = parse_poly("y - x^2"), parse_poly("y")
    param = hensel_param(f, certify_point(f, 0, 0, p, 1), order=16, precision=m)
    rec = sum_parametric(param, g, l, PhaseSpec(p, m, 1))
    assert rec.point_count == 2**17
    assert rec.value == pytest.approx(2**16 * (1 + 1j), abs=1e-6)


def scalar_parametric_sum(param, g, l, phase):
    """Reference loop: one branch point, evaluate and additive_char per t."""
    p, m, q = phase.p, phase.m, phase.denominator
    return sum(
        additive_char(phase.u * g.evaluate(*branch_point(param, t, q), q) % q, m, p)
        for t in range(0, q, p**l)
    )


@pytest.mark.parametrize("l", [0, 1, 7])
@pytest.mark.parametrize(
    "curve,solve_for", [("y + 5*x^2 + 5*x*y", "y"), ("x + 5*y^2 + 5*x*y + 125*y^3", "x")]
)
def test_parametric_sum_matches_the_scalar_loop_on_int64(curve, solve_for, l):
    # restricted-shape branches, so the tail rule admits l = 0 at T = 8
    p, m = 5, 7
    f, g = parse_poly(curve), parse_poly("x + 3*y^2 + x*y - 2*x^3")
    param = hensel_param(f, certify_point(f, 0, 0, p, 1), order=8, precision=m + 2)
    assert param.solve_for == solve_for
    phase = PhaseSpec(p, m, 3)
    rec = sum_parametric(param, g, l, phase)
    assert rec.point_count == p ** (m - l)
    assert rec.value == pytest.approx(scalar_parametric_sum(param, g, l, phase), abs=1e-9)


@pytest.mark.parametrize("curve,solve_for", [("y - x^2 - x", "y"), ("x - y^2 - 2*y", "x")])
def test_parametric_sum_matches_the_scalar_loop_above_int64(curve, solve_for):
    # q = 2^32 is past the int64 cap; the sum over s runs at level m - l = 12
    p, m, l = 2, 32, 20
    f, g = parse_poly(curve), parse_poly("x + 3*y^2 + x*y - 2*x^3")
    param = hensel_param(f, certify_point(f, 0, 0, p, 1), order=4, precision=m)
    assert param.solve_for == solve_for
    phase = PhaseSpec(p, m, 3)
    rec = sum_parametric(param, g, l, phase)
    assert rec.point_count == 2**12
    assert rec.value == pytest.approx(scalar_parametric_sum(param, g, l, phase), abs=1e-9)


def test_parametric_tail_guards():
    p, m = 5, 8
    f, g = parse_poly("y - x^2"), parse_poly("y")
    pt = certify_point(f, 0, 0, p, 1)
    small = hensel_param(f, pt, order=2, precision=m + 1)
    with pytest.raises(SeriesPrecisionError):
        sum_parametric(small, g, 1, PhaseSpec(p, m, 1))  # (T+1)*l = 3 < 8
    lowp = hensel_param(f, pt, order=10, precision=3)
    with pytest.raises(SeriesPrecisionError):
        sum_parametric(lowp, g, 2, PhaseSpec(p, m, 1))  # p-adic digits too few
    with pytest.raises(ValueError):
        sum_parametric(small, g, 9, PhaseSpec(p, m, 1))  # l > m


def test_srp_series_gets_relaxed_tail_rule():
    # branch coefficients of an SRP curve gain a power of p per order, which
    # buys the weaker tail inequality T + (T+1)*l >= m
    p, m = 5, 6
    f = parse_poly("y + 5*x^2 + 5*x*y")  # branch: y = -5x^2 + 25x^3 - ...
    pt = certify_point(f, 0, 0, p, 1)
    param = hensel_param(f, pt, order=3, precision=m + 2)
    from padicsums.series import is_srp_series

    assert is_srp_series(param.series)
    # T + (T+1)*l = 3 + 4 = 7 >= 6 passes; the strict rule (T+1)*l = 4 < 6 fails
    rec = sum_parametric(param, parse_poly("y"), 1, PhaseSpec(p, m, 1))
    assert rec.point_count == p ** (m - 1)
    # oracle: solve y = -5x^2/(1 + 5x) per x, no series involved
    q = p**m
    direct = 0j
    for x in range(0, q, p):
        y = (-5 * x * x * pow(1 + 5 * x, -1, q)) % q
        direct += cmath.exp(2j * cmath.pi * y / q)
    assert rec.value == pytest.approx(direct, abs=1e-9)


@pytest.mark.parametrize("weight", ["x^5", "x^2*y + x^4"])
def test_parametric_sum_composes_the_weight_exactly(weight):
    # The relaxed tail rule makes only the points exact mod p^m: truncating
    # g(branch(t)) at t^3 instead is off by 3125 for x^5 and 2500 for x^2*y + x^4.
    p, m, l = 5, 6, 1
    f, g = parse_poly("y + 5*x^2 + 5*x*y"), parse_poly(weight)
    param = hensel_param(f, certify_point(f, 0, 0, p, 1), order=3, precision=8)
    phase = PhaseSpec(p, m, 1)
    rec = sum_parametric(param, g, l, phase)
    assert rec.point_count == p ** (m - l)
    assert rec.value == pytest.approx(scalar_parametric_sum(param, g, l, phase), abs=1e-9)


def test_parametric_sum_at_l_equal_to_m_is_the_anchor_term():
    # one point, with q = 7^30 > 2^63: the anchor phase is a Python int.  The
    # anchor's y is 2/3 in Z_7, so its phase is far from 0 mod q.
    p, m = 7, 30
    f, g = parse_poly("3*y - x^2 - 1"), parse_poly("y + x*y^2")
    param = hensel_param(f, certify_point(f, 1, 3, p, 1), order=2, precision=m)
    phase = PhaseSpec(p, m, 3)
    rec = sum_parametric(param, g, m, phase)
    assert rec.point_count == 1
    assert rec.value == pytest.approx(scalar_parametric_sum(param, g, m, phase), abs=1e-12)


def test_stationary_phase_sums_refuse_a_level_one_grid_above_the_brute_cap():
    # the partial tables over p^2 > 10^8 residues would take terabytes
    with pytest.raises(BudgetError, match="budget is 100000000"):
        decay_records(parse_poly("y - x^2"), parse_poly("y"), 1000003, [1])


def test_parametric_sum_is_capped_before_it_allocates():
    # p^(m-l) = 2^35 branch points: over the 2^31 cap of the one-variable sum
    p, m, l = 2, 40, 5
    f = parse_poly("y - x^2")
    param = hensel_param(f, certify_point(f, 0, 0, p, 1), order=8, precision=m)
    with pytest.raises(BudgetError):
        sum_parametric(param, parse_poly("y"), l, PhaseSpec(p, m, 1))


# at most this many branch points per example, so the scalar loop stays fast
MAX_BRANCH_POINTS = 3125
SMALL_COEFFS = st.integers(min_value=-9, max_value=9)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.sampled_from([2, 3, 5, 7]),
    st.sampled_from(["x", "y"]),
    st.booleans(),
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda k: 2 <= sum(k) <= 3),
        SMALL_COEFFS.filter(bool),
        max_size=4,
    ),
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda k: sum(k) <= 3),
        SMALL_COEFFS.filter(bool),
        max_size=5,
    ),
    st.data(),
)
def test_parametric_sum_matches_the_scalar_loop(p, solve_for, restricted, higher, g_terms, data):
    # f = a*x + b*y + (terms of degree 2..3) with the solved-for partial a
    # unit at the origin; "restricted" scales degree d by p^(d-1), which
    # gives a restricted-shape branch and so admits l = 0
    unit = p * data.draw(SMALL_COEFFS) + data.draw(st.integers(1, p - 1))
    other = data.draw(SMALL_COEFFS) * (p if solve_for == "x" else 1)
    terms = {(1, 0): unit, (0, 1): other} if solve_for == "x" else {(1, 0): other, (0, 1): unit}
    for (i, j), c in higher.items():
        terms[(i, j)] = c * p ** (i + j - 1) if restricted else c
    f, g = BiPoly(terms), BiPoly(g_terms)
    m = data.draw(st.integers(1, 6))
    lowest = max(0 if restricted else 1, m - int(math.log(MAX_BRANCH_POINTS, p) + 1e-9))
    l = data.draw(st.integers(lowest, m))
    u = p * data.draw(st.integers(0, 50)) + data.draw(st.integers(1, p - 1))
    param = hensel_param(f, certify_point(f, 0, 0, p, 1), order=m, precision=m + 1)
    assert param.solve_for == solve_for
    phase = PhaseSpec(p, m, u)
    rec = sum_parametric(param, g, l, phase)
    assert rec.point_count == p ** (m - l)
    want = scalar_parametric_sum(param, g, l, phase)
    assert abs(rec.value - want) <= 1e-11 * p ** (m - l) + 1e-9


# -- record streams and serialization -------------------------------------------------


def test_decay_records_match_individual_sums():
    f, g = parse_poly("y - x^3"), parse_poly("y")
    p = 3
    records = decay_records(f, g, p, range(1, 5))
    assert [r.m for r in records] == [1, 2, 3, 4]
    for rec in records:
        single = sum_curve(f, g, PhaseSpec(p, rec.m, 1), lift_points(f, p, rec.m))
        assert rec.value == pytest.approx(single.value, abs=1e-12)
        assert rec.point_count == single.point_count


def test_decay_records_validation(monkeypatch):
    f, g = parse_poly("y - x"), parse_poly("x")
    assert decay_records(f, g, 3, []) == []
    with pytest.raises(ValueError):
        decay_records(f, g, 3, [0, 1])
    # p and u are PhaseSpec's checks, made before anything is enumerated
    monkeypatch.setattr(expsums, "_lift_tables", lambda *a, **k: pytest.fail("enumerated"))
    for p in (0, 4, -3):
        with pytest.raises(ValueError, match="p must be prime"):
            decay_records(f, g, p, [1, 2])
    with pytest.raises(ValueError, match="divisible by p"):
        decay_records(f, g, 3, [1, 2], u=3)


def lift_oracle_records(f, g, p, levels, u):
    """sum_curve on every point of each requested lift level."""
    return [
        sum_curve(f, g, PhaseSpec(p, ps.m, u), ps)
        for ps in lift_levels(f, p, max(levels))
        if ps.m in levels
    ]


def assert_records_agree(got, want):
    assert [r.m for r in got] == [r.m for r in want]
    for a, b in zip(got, want):
        assert a.point_count == b.point_count
        assert abs(a.value - b.value) <= 1e-11 * b.point_count + 1e-9


CURVE_TERMS = st.dictionaries(
    st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)),
    st.integers(min_value=-9, max_value=9).filter(bool),
    min_size=1,
    max_size=4,
)
# the oracle lifts all of Y_m, up to p^(2m) points on a degenerate curve
MAX_LEVEL = {2: 8, 3: 5, 5: 3, 7: 3}


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    CURVE_TERMS,
    CURVE_TERMS,
    st.sampled_from([2, 3, 5, 7]),
    st.integers(min_value=1, max_value=10**6),
    st.data(),
)
def test_decay_records_match_the_lift_oracle(f_terms, g_terms, p, u, data):
    f, g = BiPoly(f_terms), BiPoly(g_terms)
    if u % p == 0:
        u += 1
    # any subset of levels: the chain of classes also climbs through the k
    # whose levels 2k - 1 and 2k are not asked for
    levels = sorted(data.draw(st.sets(st.integers(1, MAX_LEVEL[p]), min_size=1)))
    assert_records_agree(decay_records(f, g, p, levels, u), lift_oracle_records(f, g, p, levels, u))


@pytest.mark.parametrize(
    "curve,weight,p,m_max",
    [("y^2 - x^3 - 49", "x + y", 7, 6), ("y^2 - x^3", "y", 5, 7), ("y^2 - x^3", "x + 2*y", 5, 7)],
)
def test_decay_records_sum_the_singular_subtree(curve, weight, p, m_max):
    # most points of Y_m lie over the classes where both partials vanish mod p
    f, g = parse_poly(curve), parse_poly(weight)
    levels = list(range(1, m_max + 1))
    assert_records_agree(decay_records(f, g, p, levels, 3), lift_oracle_records(f, g, p, levels, 3))


@pytest.mark.parametrize("weight", ["x", "x + y", "x*y"])
@pytest.mark.parametrize("p,m_max", [(3, 9), (5, 7)])
def test_decay_records_match_the_lift_oracle_where_the_newton_inverse_doubles(weight, p, m_max):
    # r = m - ceil(m/2) reaches 4 at p=3 and 3 at p=5, so the inverse in the
    # Newton lift doubles its precision twice; the weights keep x-solved
    # classes (x), y-solved ones (x + y) and, at p=3, both (x*y)
    f, g = parse_poly("x - y^2"), parse_poly(weight)
    levels = list(range(1, m_max + 1))
    assert_records_agree(decay_records(f, g, p, levels, 2), lift_oracle_records(f, g, p, levels, 2))


def test_decay_records_lift_each_k_to_its_top_level_once(monkeypatch):
    # the lift of a class to Y_2k, reduced mod p^(2k-1), is its lift to
    # Y_(2k-1): one Newton step per k with a wanted level, none at k = 1 here
    calls = []
    real = counting._lift_to

    def spy(f, xs, ys, p, k, m, tables):
        calls.append((k, m))
        return real(f, xs, ys, p, k, m, tables)

    monkeypatch.setattr(expsums, "_lift_to", spy)
    decay_records(parse_poly("y - x^2"), parse_poly("y"), 5, range(3, 8))
    assert calls == [(2, 4), (3, 6), (4, 7)]


def test_decay_records_enumerate_only_up_to_half_the_top_level(monkeypatch):
    # J = -2x on y - x^2 with weight y: one class of each level has
    # J = 0 mod p^k, so each step of the chain lifts one class
    f, g = parse_poly("y - x^2"), parse_poly("y")
    jac = f.partial("x") * g.partial("y") - f.partial("y") * g.partial("x")
    sizes = []
    real = counting._lift_step

    def spy(f, xs, ys, p, k, tables):
        assert (jac.horner(xs, ys, p**k) == 0).all()
        sizes.append((k, len(xs)))
        return real(f, xs, ys, p, k, tables)

    monkeypatch.setattr(expsums, "_lift_step", spy)
    records = decay_records(f, g, 5, range(3, 10))
    assert sizes == [(1, 1), (2, 1), (3, 1), (4, 1)]  # up to Y_5 = Y_ceil(9/2)
    assert [r.point_count for r in records] == [5**m for m in range(3, 10)]


def test_decay_records_at_a_large_prime_keep_no_level_in_memory():
    # Y_2 of y - x^2 holds 1009^2 points, but only the class x = 0 mod 1009
    # is critical, so the chain holds 1009 classes at level 2
    f, g = parse_poly("y - x^2"), parse_poly("y")
    tracemalloc.start()
    try:
        records = decay_records(f, g, 1009, [1, 2, 3])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r.point_count for r in records] == [1009, 1009**2, 1009**3]
    assert peak < 8 * 2**20


def test_json_round_trip_and_determinism(capsys):
    argv = ["sum", "--p", "5", "--m", "1..3", "--f", "y - x^2", "--g", "y"]
    outs = []
    for _ in range(2):
        assert cli.main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    payload = json.loads(outs[0])
    assert payload["config"]["p"] == 5
    assert len(payload["records"]) == 3
    got = payload["records"][1]
    assert got["m"] == 2
    assert got["magnitude"] == pytest.approx(5.0)


def test_csv_quotes_fields_with_commas(capsys):
    rec = SumRecord(5, 2, 1, "branch at (0, 0)", "y", complex(1, 0), 5)
    cli._write_records(argparse.Namespace(format="csv", out=None), {"p": 5}, [rec])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# p=5"
    rows = list(csv.reader(lines[1:]))
    assert rows[0] == list(cli._RECORD_COLUMNS)
    assert rows[1][3] == "branch at (0, 0)"
    assert rows[1][0] == "5"


def test_sig15_rounding_in_records():
    rec = SumRecord(5, 1, 1, "f", "g", complex(1 / 3, 2 / 7), 5)
    d = cli._record_fields(rec)
    assert d["re"] == float(f"{1 / 3:.15g}")
    assert d["im"] == float(f"{2 / 7:.15g}")
