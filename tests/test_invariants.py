"""Depth, contact orders, the oscillation exponent, and the decay fit.

Witness orders are re-verified here with a valuation-slope oracle: on curves
whose branch has a closed form, v(g(x) - g(x0)) along x = x0 + p^j must grow
linearly in j with the claimed order as slope, all in integer arithmetic.
"""

import json
import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from padicsums.expsums import PhaseSpec, SumRecord, decay_records, sum_curve
from padicsums.counting import BudgetError, lift_points
from padicsums.invariants import (
    ContactInconclusiveError,
    CurveDepthReport,
    DepthBound,
    ExponentCertificate,
    WeightConstantError,
    Witness,
    contact_exponent,
    contact_exponent_onevar,
    contact_order,
    curve_depth,
    decay_fit,
    point_depth,
)
from padicsums import cli, invariants
from padicsums.invariants import _HIT_SIEVE, _capped_valuations, _exact_hits, _refuted
from padicsums.padic import _int_valuation, valuation
from padicsums.polynomials import BiPoly, _gcd, parse_poly, parse_univariate
from padicsums.series import certify_point
from references import extend_pairs


def slope_of_valuations(values: dict) -> float:
    """Least-squares slope of v against j for an exact integer family."""
    js = sorted(values)
    n = len(js)
    mean_j = sum(js) / n
    mean_v = sum(values[j] for j in js) / n
    num = sum((j - mean_j) * (values[j] - mean_v) for j in js)
    den = sum((j - mean_j) ** 2 for j in js)
    return num / den


# -- depth ---------------------------------------------------------------------


def test_point_depth_singular_lift():
    f = parse_poly("y^2 - x^3 - 25")
    pt = certify_point(f, 0, 5, 5, 8)
    assert point_depth(f, pt) == DepthBound(1, True, 8)


def test_point_depth_srp_origin():
    f = parse_poly("5*y + x^2")
    pt = certify_point(f, 0, 0, 5, 4)
    assert point_depth(f, pt) == DepthBound(1, True, 4)


def test_point_depth_smooth_point():
    f = parse_poly("y - x^2")
    pt = certify_point(f, 2, 4, 5, 4)
    assert point_depth(f, pt) == DepthBound(0, True, 4)


def test_point_depth_clips_at_certification_level():
    # rough point: a vanishing residue only proves v >= level
    f = parse_poly("y^2 - x^3 - 25")
    rough = certify_point(f, 0, 5 + 125, 5, 3)
    d = point_depth(f, rough)
    assert d.value == 1 and d.exact  # v(f_y) = 1 < 3 is measured, not clipped
    deep = certify_point(parse_poly("y^2 - x^3"), 0, 0, 5, 2)
    d2 = point_depth(parse_poly("y^2 - x^3"), deep)
    assert d2 == DepthBound(2, False, 2)


def test_curve_depth_reports():
    assert curve_depth(parse_poly("y - x^3"), 5).max_depth == 0
    node = curve_depth(parse_poly("y^2 - x^3 - 49"), 7)
    assert (node.max_depth, node.complete, node.witness) == (1, True, (0, 7))
    double = curve_depth(parse_poly("y^2 - 2*x^2*y + x^4"), 3)
    assert not double.complete  # (y - x^2)^2: depth unbounded along the curve
    assert double.max_depth == double.probe_level


def scalar_curve_depth(f, p, probe):
    """curve_depth as one point_depth call per point: the reference."""
    level = 2 * probe
    best, witness, complete = 0, None, True
    points = lift_points(f, p, level)
    for x, y in zip(points.xs.tolist(), points.ys.tolist()):
        d = point_depth(f, certify_point(f, x, y, p, level))
        if not d.exact:
            complete = False
        if d.value > best:
            best, witness = d.value, (x, y)
    return CurveDepthReport(best, level, complete, witness)


@pytest.mark.parametrize(
    "curve,p,probe,want",
    [
        ("y^2 - x^3", 5, 2, (4, False, (0, 0))),
        ("y^2 - x^3", 5, 3, (6, False, (0, 0))),
        ("y^2 - x^3 - 25", 5, 2, (1, True, (0, 5))),
        ("y^2 - x^3 - 49", 7, 2, (1, True, (0, 7))),
        ("y - x^2 + 3*x*y", 5, 2, (0, True, None)),
        ("x^2 + 3*y^2 + 3", 3, 2, (0, True, None)),  # no points mod 9
        # the first point has x = 0; the node sits at (3, 7)
        ("y^2 - (x - 3)^3 - 49", 7, 2, (1, True, (3, 7))),
    ],
)
def test_curve_depth_matches_the_scalar_loop(curve, p, probe, want):
    f = parse_poly(curve)
    report = curve_depth(f, p, probe)
    assert report == scalar_curve_depth(f, p, probe)
    assert (report.max_depth, report.complete, report.witness) == want
    if report.witness == (3, 7):
        assert lift_points(f, p, 2 * probe).xs[0] == 0


@pytest.mark.parametrize("p", [0, 1, 4])
def test_curve_depth_rejects_a_non_prime(p):
    with pytest.raises(ValueError, match="p must be prime"):
        curve_depth(parse_poly("y - x^2"), p)


def test_curve_depth_rejects_a_probe_below_one():
    with pytest.raises(ValueError, match="probe must be >= 1, got 0"):
        curve_depth(parse_poly("y - x^2"), 5, 0)


# -- contact orders -------------------------------------------------------------


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_tangency_order_at_origin(k, p):
    f = parse_poly(f"y - x^{k}")
    pt = certify_point(f, 0, 0, p, 1)
    got = contact_order(f, parse_poly("y"), pt)
    assert (got.order, got.leading_val, got.chart_scale) == (k, 0, 0)
    assert got.confident


def test_contact_at_noncritical_point_is_one():
    f = parse_poly("y - x^2")
    pt = certify_point(f, 1, 1, 5, 1)
    got = contact_order(f, parse_poly("y"), pt)
    assert got.order == 1 and got.confident


def test_contact_through_blowup_chart():
    # (0, 5) has depth 1 on y^2 = x^3 + 25 over Z_5; hand expansion of the
    # rescaled chart gives 2y' + 5y'^2 = 125 t^3, so the weight y moves at
    # order 3 with a p^3 leading coefficient while x moves at order 1.
    f = parse_poly("y^2 - x^3 - 25")
    pt = certify_point(f, 0, 5, 5, 12)
    got_x = contact_order(f, parse_poly("x"), pt)
    assert (got_x.order, got_x.leading_val, got_x.chart_scale) == (1, 0, 1)
    got_y = contact_order(f, parse_poly("y"), pt)
    assert (got_y.order, got_y.leading_val, got_y.chart_scale) == (3, 3, 1)
    assert got_y.confident


@pytest.mark.parametrize("k", [10, 40])
def test_contact_order_found_on_the_first_attempt(k):
    # the starting t-order 2 deg f deg g + 4 exceeds the Bezout bound
    # deg f * deg g, so a high contact order needs no second attempt
    f = parse_poly(f"y - x^{k}")
    pt = certify_point(f, 0, 0, 3, 1)
    got = contact_order(f, parse_poly("y"), pt)
    assert (got.order, got.leading_val, got.confident) == (k, 0, True)
    assert got.trace == ()


def test_contact_inconclusive_when_weight_constant_on_branch():
    # only the precision escalates: one t-order, N = 16 .. 256
    f = parse_poly("y - x^2")
    pt = certify_point(f, 0, 0, 5, 1)
    with pytest.raises(ContactInconclusiveError) as exc:
        contact_order(f, f, pt)
    assert exc.value.trace == tuple(
        f"T=12 N={n}: all residues zero" for n in (16, 32, 64, 128, 256)
    )


def test_contact_builds_the_blowup_chart_once(monkeypatch):
    # g = f + 25 is constant on the branch through the depth-1 point (0, 5),
    # so N escalates 16 .. 256; the chart does not depend on N
    builds = []
    real = invariants.rescale_srp

    def spy(*args):
        builds.append(args)
        return real(*args)

    monkeypatch.setattr(invariants, "rescale_srp", spy)
    f = parse_poly("y^2 - x^3 - 25")
    with pytest.raises(ContactInconclusiveError) as exc:
        contact_order(f, parse_poly("y^2 - x^3"), certify_point(f, 0, 5, 5, 1))
    assert exc.value.trace == tuple(
        f"T=22 N={n}: all residues zero" for n in (16, 32, 64, 128, 256)
    )
    assert len(builds) == 1


def test_contact_low_confidence_when_the_level_stops_escalation():
    # (0, 5^20) is on the curve only mod 5^20, so N = 16 cannot double; the
    # leading coefficient 5^8 of 5^8*t + t^2 is divisible by 5^(16/2)
    f = parse_poly("y - x^2")
    pt = certify_point(f, 0, 5**20, 5, 20)
    assert not pt.exact
    got = contact_order(f, parse_poly("5^8*x + x^2"), pt)
    assert (got.order, got.leading_val, got.confident) == (1, 8, False)
    assert got.trace == ("T=12 N=16: order 1 with leading valuation 8 (low confidence)",)


def test_contact_rejects_constant_weight():
    f = parse_poly("y - x^2")
    pt = certify_point(f, 0, 0, 5, 1)
    with pytest.raises(WeightConstantError):
        contact_order(f, parse_poly("7"), pt)


def test_contact_needs_enough_certification_for_inexact_points():
    # only correct mod 5^3, not an exact solution: the working precision may
    # not exceed what the certification level backs up
    f = parse_poly("y^2 - x^3 - 25")
    shallow = certify_point(f, 0, 5 + 125, 5, 3)
    assert not shallow.exact
    with pytest.raises(ContactInconclusiveError):
        contact_order(f, parse_poly("x"), shallow)


# -- oscillation exponent ----------------------------------------------------------


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_exponent_of_monomial_tangency(p, k):
    f = parse_poly("y - x") if k == 1 else parse_poly(f"y - x^{k}")
    cert = contact_exponent(f, parse_poly("y"), p)
    assert cert.exponent == k
    assert cert.confidence == "certified"
    if k == 1:
        assert cert.witnesses == ()
    else:
        w = cert.witnesses[0]
        assert (w.x, w.y, w.order) == (0, 0, k)


def test_exponent_witness_passes_valuation_slope_check():
    # y = x^3 with weight y: v(g(p^j) - g(0)) must grow with slope 3
    p, k = 5, 3
    cert = contact_exponent(parse_poly("y - x^3"), parse_poly("y"), p)
    w = cert.witnesses[0]
    vals = {j: valuation((w.x + p**j) ** k - w.x**k, p) for j in range(2, 6)}
    assert slope_of_valuations(vals) == pytest.approx(w.order)


def test_exponent_with_offcenter_rational_critical_point():
    # weight x + y on the parabola: critical at x = -1/2, order 2
    cert = contact_exponent(parse_poly("y - x^2"), parse_poly("x + y"), 5)
    assert cert.exponent == 2
    assert cert.confidence == "certified"
    w = cert.witnesses[0]
    assert w.x % 25 == 12  # -1/2 in Z_5
    assert (2 * w.x + 1) % 5**10 == 0  # certified well past mod p
    assert w.certified_by == "hensel-unique"
    # independent slope check: g(x, x^2) - g(x0, x0^2) = (x - x0)^2 exactly
    g0 = w.x + w.x**2
    vals = {j: valuation((w.x + 5**j) + (w.x + 5**j) ** 2 - g0, 5) for j in range(2, 6)}
    assert slope_of_valuations(vals) == pytest.approx(2.0)


def test_exponent_with_critical_point_in_the_zero_class():
    # The parabola translated by x -> x - 3 with weight x + y - 3: the
    # critical point x = 5/2 lies in the class x = 0 mod 5, whose unpinned
    # v(x) is bounded by the class level, so the class is not refuted.
    cert = contact_exponent(
        parse_poly("y - x^2 + 6*x - 9"), parse_poly("x + y - 3"), 5
    )
    assert cert.exponent == 2
    assert cert.confidence == "certified"
    (w,) = cert.witnesses
    assert w.certified_by == "hensel-unique"
    assert (2 * w.x - 5) % 5**10 == 0


def test_exponent_search_past_the_int64_modulus():
    # The search reaches level 6, and 37^6 > 2^31: exact Python-int classes.
    assert 37**6 > 2**31
    cert = contact_exponent(parse_poly("y - x^2"), parse_poly("x^3"), 37)
    assert cert.exponent == 3
    assert cert.confidence == "certified"
    assert cert.witnesses[0].level == 6


def certificate_or_error(f, g, p):
    try:
        return contact_exponent(parse_poly(f), parse_poly(g), p)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "f, g, p",
    [
        # the five critical-locus searches of the benchmark
        ("y^2 - x^3", "y", 5),
        ("x^3 + y^3 - 1", "x", 7),
        ("y - x^4", "y", 7),
        ("y^2 - 2*x^2*y + x^4", "x", 5),
        ("y - x^2 + 6*x - 9", "x + y - 3", 5),
        # the three decay families at p = 5 and 7
        ("y - x^2", "y", 5),
        ("y - x^3", "y", 5),
        ("y - x^2", "x + y", 5),
        ("y - x^2", "y", 7),
        ("y - x^3", "y", 7),
        ("y - x^2", "x + y", 7),
        # degenerate critical points at +-sqrt(2), irrational in Q
        ("y - (x^2 - 2)^3", "y", 7),
    ],
)
def test_exponent_search_is_unchanged_by_the_digit_pair_step(monkeypatch, f, g, p):
    # exponent, confidence, witnesses and notes, or the same error, when
    # each level is extended by testing every candidate pair
    got = certificate_or_error(f, g, p)
    monkeypatch.setattr(invariants, "_extend_pairs", extend_pairs)
    assert got == certificate_or_error(f, g, p)


def test_exponent_invariant_under_unimodular_shear():
    # (x, y) -> (x + y, y) is a bijection of Z_p^2, so the exponent of the
    # transformed pair must match
    p = 5
    base = contact_exponent(parse_poly("y - x^2"), parse_poly("y"), p)
    sheared = contact_exponent(
        parse_poly("y - (x + y)^2"), parse_poly("y"), p
    )
    assert sheared.exponent == base.exponent == 2
    assert sheared.confidence == "certified"


def test_exponent_through_singular_point():
    # y^2 = x^3 + 25 with weight y: the depth-1 point (0, 5) carries order 3
    cert = contact_exponent(parse_poly("y^2 - x^3 - 25"), parse_poly("y"), 5)
    assert cert.exponent == 3
    orders = {(w.x % 5, w.y % 5): w.order for w in cert.witnesses}
    assert orders[(0, 0)] == 3


def test_exponent_rejects_constant_weight():
    with pytest.raises(WeightConstantError):
        contact_exponent(parse_poly("y - x^2"), parse_poly("5"), 5)


def test_exponent_rejects_identically_critical_pair():
    # J(f, f) = 0 as a polynomial
    with pytest.raises(WeightConstantError):
        contact_exponent(parse_poly("y - x^2"), parse_poly("y - x^2"), 5)


def test_exponent_detects_weight_vanishing_on_curve():
    # g = x*(y - x^2) is zero on every branch but J is a nonzero polynomial
    with pytest.raises(WeightConstantError):
        contact_exponent(parse_poly("y - x^2"), parse_poly("x*y - x^3"), 3)


@pytest.mark.parametrize(
    "curve,weight,p,message",
    [
        ("y^2 - 2*x^2*y + x^4", "x", 5, r"the repeated factor y - x\^2,"),
        ("y^2 - x^3", "y", 3, "may have a repeated factor"),
    ],
    ids=["repeated-factor", "cusp"],
)
def test_exponent_without_a_parametrizable_branch_is_inconclusive(curve, weight, p, message):
    # The weight moves along both curves, so "weight constant" would be wrong.
    # (y - x^2)^2 is decided by the gcd of f and its partials before any search;
    # at the cusp every critical point found is singular, so no contact order
    # is measured.
    with pytest.raises(ContactInconclusiveError, match=message):
        contact_exponent(parse_poly(curve), parse_poly(weight), p)


def spy_on_levels(monkeypatch) -> list[int]:
    """The level k of every `_extend_pairs` call the search makes."""
    levels = []

    def spy(polys, xs, ys, p, k):
        levels.append(k)
        return extend_pairs_fast(polys, xs, ys, p, k)

    extend_pairs_fast = invariants._extend_pairs
    monkeypatch.setattr(invariants, "_extend_pairs", spy)
    return levels


@pytest.mark.parametrize("p", [5, 7])
def test_exponent_names_a_repeated_factor_before_any_search(monkeypatch, p):
    # (y - x^2)^2: the search used to extend the whole component digit pair by
    # digit pair (exit 4 at p = 5 after 15,625 classes, exponent 1 "heuristic"
    # at p = 7); the gcd of f, f_x and f_y names the factor at once
    levels = spy_on_levels(monkeypatch)
    with pytest.raises(ContactInconclusiveError, match=r"repeated factor y - x\^2,") as info:
        contact_exponent(parse_poly("y^2 - 2*x^2*y + x^4"), parse_poly("x"), p)
    assert info.value.trace[0] == "gcd(f, f_x, f_y) = y - x^2"
    assert levels == []


def test_a_squarefree_repeated_factor_keeps_its_trace(monkeypatch):
    # r = gcd(f, f_x, f_y) = y - x^2 is squarefree: r is the factor named
    with pytest.raises(ContactInconclusiveError) as info:
        contact_exponent(parse_poly("y^2 - 2*x^2*y + x^4"), parse_poly("x"), 5)
    assert list(info.value.trace) == [
        "gcd(f, f_x, f_y) = y - x^2",
        "y - x^2 = 0 is smooth at (0, 0) mod 5",
    ]


@pytest.mark.parametrize(
    "curve,weight,p,factor,repeated",
    [
        # r = (y - x^2)^2, every zero of which is singular; the search used to
        # print exponent 1, "heuristic", at the budget
        ("(y - x^2)^3", "x", 5, "y - x^2", "y^2 - 2*x^2*y + x^4"),
        ("(y - x^2)^3", "x", 7, "y - x^2", "y^2 - 2*x^2*y + x^4"),
        # f = x^4 y (y + 3): r = x^3
        ("x^4*y^2 + 3*x^4*y", "3*x*y^2 - 3", 7, "x", "x^3"),
        ("(y - x^2)^4*(x + 1)", "y", 5, "y - x^2", "y^3 - 3*x^2*y^2 + 3*x^4*y - x^6"),
    ],
)
def test_exponent_names_the_squarefree_part_of_a_repeated_factor(
    monkeypatch, curve, weight, p, factor, repeated
):
    levels = spy_on_levels(monkeypatch)
    with pytest.raises(ContactInconclusiveError, match=f"the repeated factor {re.escape(factor)},") as info:
        contact_exponent(parse_poly(curve), parse_poly(weight), p)
    assert list(info.value.trace) == [
        f"gcd(f, f_x, f_y) = {repeated}",
        f"its squarefree part is {factor}",
        f"{factor} = 0 is smooth at (0, 0) mod {p}",
    ]
    assert levels == []


def test_exponent_names_a_component_where_the_weight_is_constant(monkeypatch):
    # f = y (1 + 2x) and J = 4y share y; g = 2y is 0 along y = 0.  At depth 4
    # the search took about 3 s and printed exponent 1, "certified", with
    # 2,401 "undecided" notes.
    levels = spy_on_levels(monkeypatch)
    start = time.perf_counter()
    with pytest.raises(WeightConstantError, match="share the factor y, which is smooth"):
        contact_exponent(parse_poly("y + 2*x*y"), parse_poly("2*y"), 7)
    assert time.perf_counter() - start < 1.0
    assert levels == []


def test_exponent_searches_when_the_shared_factor_has_no_smooth_residue():
    # J = (x^2 + y^2 + 3) (...): the first factor of f is shared with J, but
    # x^2 + y^2 = 0 mod 3 only at (0, 0), where both partials vanish (and
    # x^2 + y^2 + 3 has no point over Z_3), so the search runs as before and
    # finds the certificate it always found
    f, g = parse_poly("(x^2 + y^2 + 3)*(y - x^2)"), parse_poly("x^2 + y^2")
    jac = f.partial("x") * g.partial("y") - f.partial("y") * g.partial("x")
    assert _gcd(f, jac) == parse_poly("x^2 + y^2 + 3")
    witness = dict(level=48, order=2, leading_val=0, certified_by="hensel-unique")
    y0 = 39883221538436254931680
    assert contact_exponent(f, g, 3) == ExponentCertificate(
        exponent=2,
        witnesses=(
            Witness(x=47555204092331293811005, y=y0, chart_scale=0, **witness),
            Witness(x=32211238984541216052356, y=y0, chart_scale=0, **witness),
            Witness(x=0, y=0, chart_scale=1, **witness),
        ),
        search_depth=6,
        confidence="certified",
        notes=(),
    )


def test_exponent_refuses_the_smooth_residue_scan_above_the_brute_cap():
    # the factor's residue scan is the lift tables', with their cap and message
    start = time.perf_counter()
    message = "the grid mod 1000003 has 1000006000009 cells, budget is 100000000"
    with pytest.raises(BudgetError, match=f"^{re.escape(message)}$"):
        contact_exponent(parse_poly("y^2 - 2*x^2*y + x^4"), parse_poly("x"), 1000003)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("depth", [0, -1])
def test_exponent_rejects_a_search_depth_below_one(depth):
    with pytest.raises(ValueError, match="search depth must be >= 1"):
        contact_exponent(parse_poly("y^2 - x^3"), parse_poly("y"), 5, depth=depth)


@pytest.mark.parametrize("budget", [0, -5])
@pytest.mark.parametrize("onevar", [False, True], ids=["curve", "onevar"])
def test_exponent_rejects_a_budget_below_one(budget, onevar):
    # refused before any work, with the message the CLI gives for --budget
    with pytest.raises(ValueError, match=f"budget must be >= 1, got {budget}"):
        if onevar:
            contact_exponent_onevar(parse_poly("x^3"), 7, budget=budget)
        else:
            contact_exponent(parse_poly("x^3 + y^3 - 1"), parse_poly("x"), 7, budget=budget)


def test_exponent_on_empty_curve():
    cert = contact_exponent(parse_poly("x^2 + 3*y^2 + 3"), parse_poly("y"), 3)
    assert cert.exponent == 1
    assert cert.confidence == "certified"
    assert cert.witnesses == ()


def test_exponent_budget_exhaustion_is_heuristic_not_fatal():
    cert = contact_exponent(parse_poly("y - x^4"), parse_poly("y"), 2, budget=3)
    assert cert.confidence == "heuristic"
    assert any("budget" in note for note in cert.notes)


def test_exponent_refuses_a_level_one_grid_above_the_brute_cap():
    # the level-1 scan of p^2 > 10^8 residues is refused, not budget-noted
    with pytest.raises(BudgetError, match="budget is 100000000"):
        contact_exponent(parse_poly("y - x^2"), parse_poly("y"), 1000003)


@pytest.mark.parametrize("p", [0, 1, 4])
def test_exponent_rejects_a_non_prime(p):
    # p = 1 made the valuation loop run forever
    with pytest.raises(ValueError, match="p must be prime"):
        contact_exponent(parse_poly("y - x^3"), parse_poly("y"), p)


def scalar_refutes(jac, x0, y0, p, k):
    """True when one monomial of jac dominates on the class (x0, y0) mod p^k.

    The per-class reference for the array refutation: a nonzero
    representative pins v(x) on every lift, a zero one only bounds it below
    by k; a unique exact minimum with every bound above it forces v(jac)
    finite on the whole class.
    """
    vx = None if x0 == 0 else _int_valuation(x0, p)
    vy = None if y0 == 0 else _int_valuation(y0, p)
    exact, bounds = [], []
    for (i, j), c in jac.terms.items():
        total = (
            _int_valuation(c, p)
            + (0 if i == 0 else i * (vx if vx is not None else k))
            + (0 if j == 0 else j * (vy if vy is not None else k))
        )
        if (i == 0 or vx is not None) and (j == 0 or vy is not None):
            exact.append(total)
        else:
            bounds.append(total)
    if not exact or exact.count(min(exact)) != 1:
        return False
    return not bounds or min(bounds) > min(exact)


@st.composite
def jacobian_and_classes(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    k = draw(st.integers(min_value=1, max_value=8))
    unit = st.integers(min_value=1, max_value=40).filter(lambda c: c % p)
    terms = draw(
        st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            st.tuples(unit, st.integers(0, 4), st.booleans()).map(
                lambda t: (-1 if t[2] else 1) * t[0] * p ** t[1]
            ),
            min_size=1,
            max_size=5,
        )
    )
    # representatives p^a * u mod p^k; a = k gives the zero class
    rep = st.tuples(st.integers(0, k), unit).map(lambda t: p ** t[0] * t[1] % p**k)
    classes = draw(st.lists(st.tuples(rep, rep), min_size=1, max_size=12))
    return BiPoly(terms), classes, p, k


@settings(max_examples=300, deadline=None)
@given(jacobian_and_classes(), st.sampled_from([np.int64, object]))
def test_array_refutation_matches_the_scalar_reference(case, dtype):
    jac, classes, p, k = case
    xs = np.array([x for x, _ in classes], dtype=dtype)
    ys = np.array([y for _, y in classes], dtype=dtype)
    want = [scalar_refutes(jac, x, y, p, k) for x, y in classes]
    assert _refuted(jac, xs, ys, p, k).tolist() == want


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(min_value=1, max_value=14),
    st.lists(st.tuples(st.integers(0, 14), st.integers(1, 10**4)), min_size=1, max_size=8),
    st.sampled_from([np.int64, object]),
)
def test_capped_valuations_match_the_scalar_valuation(p, k, reps, dtype):
    # residues p^a * u mod p^k, where a >= k (or p | u) reach the cap
    if dtype is np.int64 and p**k > 2**31:
        dtype = object
    vals = [p**a * u % p**k for a, u in reps]
    want = [k if v == 0 else min(_int_valuation(v, p), k) for v in vals]
    grid = np.array([vals, vals[::-1]], dtype=dtype)
    assert _capped_valuations(grid, p, k).tolist() == [want, want[::-1]]


def test_refutation_bounds_a_zero_representative_by_the_level():
    # J = 5 - 2x for y - x^2 + 6x - 9 and x + y - 3: on the class x = 0 mod 5
    # the term -2x is only bounded by v >= 1, which ties with v(5) = 1, so
    # the class holding the critical point x = 5/2 must stay open.
    f, g = parse_poly("y - x^2 + 6*x - 9"), parse_poly("x + y - 3")
    jac = f.partial("x") * g.partial("y") - f.partial("y") * g.partial("x")
    assert jac == parse_poly("5 - 2*x")
    xs, ys = np.array([0, 1]), np.array([4, 4])
    assert not scalar_refutes(jac, 0, 4, 5, 1)
    assert _refuted(jac, xs, ys, 5, 1).tolist() == [False, True]


@pytest.mark.parametrize(
    "curve,weight,level", [("y - x^2", "x + y", 1), ("5*y - x^2", "y", 3)]
)
def test_newton_gate_admits_a_class_at_the_first_level_it_can(
    monkeypatch, curve, weight, level
):
    # det = f_x J_y - f_y J_x is 2, then 10, at the critical point: with
    # v(det) = t the Newton hypothesis holds from level 2t + 1 on, and the
    # gate det != 0 mod p^((k+1)//2) must neither delay nor anticipate it
    calls = []
    real = invariants._newton_pair

    def spy(*args):
        out = real(*args)
        calls.append((args[5], out is not None))
        return out

    monkeypatch.setattr(invariants, "_newton_pair", spy)
    cert = contact_exponent(parse_poly(curve), parse_poly(weight), 5)
    assert [w.certified_by for w in cert.witnesses] == ["hensel-unique"]
    assert min(k for k, _ in calls) == level and (level, True) in calls


def scalar_exact_hit(f, jac, x0, y0, q):
    for c, (x, y) in enumerate([(x0, y0), (x0, y0 - q), (x0 - q, y0), (x0 - q, y0 - q)]):
        if f.evaluate(x, y) == 0 and jac.evaluate(x, y) == 0:
            return c
    return -1


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_exact_hits_match_the_scalar_search(dtype):
    q = 7**3
    # f = x - a, jac = y - b meet at (a, b); the class (a mod q, b mod q)
    # finds it as candidate 0-3 depending on the signs, others find nothing
    for a, b, want_hit in ((1, 2, 0), (1, -1, 1), (-2, 5, 2), (-1, -3, 3)):
        f, jac = BiPoly.variable("x") - a, BiPoly.variable("y") - b
        classes = [(a % q, b % q), (a % q, (b + 1) % q), (0, 0), (q - 1, q - 1)]
        xs = np.array([x for x, _ in classes], dtype=dtype)
        ys = np.array([y for _, y in classes], dtype=dtype)
        want = [scalar_exact_hit(f, jac, x, y, q) for x, y in classes]
        assert want[:2] == [want_hit, -1]
        assert _exact_hits(f, jac, xs, ys, q).tolist() == want
    # x - 3 - _HIT_SIEVE passes the int64 sieve at x = 3 but is not zero there
    f, jac = parse_poly(f"x - 3 - {_HIT_SIEVE}"), parse_poly("y")
    assert f.evaluate(3, 0) % _HIT_SIEVE == 0
    xs, ys = np.array([3], dtype=dtype), np.array([0], dtype=dtype)
    assert _exact_hits(f, jac, xs, ys, q).tolist() == [-1]


# -- one-variable exponent -----------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_onevar_monomials(k):
    f_one = parse_univariate("x") if k == 1 else parse_univariate(f"x^{k}")
    cert = contact_exponent_onevar(f_one, 7)
    assert cert.exponent == k
    assert cert.confidence == "certified"


def test_onevar_two_simple_critical_points():
    # (x^3 - 3x)' = 3(x^2 - 1): roots +-1, both order 2
    cert = contact_exponent_onevar(parse_univariate("x^3 - 3*x"), 5)
    assert cert.exponent == 2
    assert sorted(w.x % 5 for w in cert.witnesses) == [1, 4]
    assert cert.confidence == "certified"


def test_onevar_notes_roots_outside_zp():
    # (x^3 + 3x)' = 3(x^2 + 1) has no roots in Z_3
    cert = contact_exponent_onevar(parse_univariate("x^3 + 3*x"), 3)
    assert cert.exponent == 1
    assert any("outside Z_p" in note for note in cert.notes)


def test_onevar_low_confidence_witness_is_heuristic():
    # the exact critical point 0 has order 2, but its leading coefficient
    # 5^130 is divisible by 5^(256/2) even at the last precision
    cert = contact_exponent_onevar(parse_univariate("5^130*x^2"), 5)
    (w,) = cert.witnesses
    assert (w.order, w.leading_val, w.certified_by) == (2, 130, "exact-point")
    assert cert.confidence == "heuristic"
    assert any("low confidence" in note for note in cert.notes)


def test_onevar_rejects_bivariate():
    with pytest.raises(ValueError):
        contact_exponent_onevar(parse_poly("x + y"), 5)


# -- decay regression ----------------------------------------------------------------


def synthetic_records(p, ms, magnitudes):
    return [
        SumRecord(p, m, 1, "f", "g", complex(mag, 0.0), int(p ** (2 * m)))
        for m, mag in zip(ms, magnitudes)
    ]


def test_decay_fit_square_root_cancellation():
    p = 5
    ms = [2, 3, 4, 5, 6]
    recs = synthetic_records(p, ms, [p ** (m / 2) for m in ms])
    rep = decay_fit(recs, 2)
    assert rep.passed
    assert rep.fitted_slope == pytest.approx(0.5, abs=1e-12)
    assert rep.a_estimate == pytest.approx(1.0)
    assert not rep.all_zero and rep.zero_levels == ()


def test_decay_fit_detects_violation():
    p = 5
    ms = [2, 3, 4, 5, 6]
    recs = synthetic_records(p, ms, [p ** (0.9 * m) for m in ms])
    rep = decay_fit(recs, 2)  # predicted slope 0.5, observed 0.9
    assert not rep.passed
    assert rep.fitted_slope == pytest.approx(0.9, abs=1e-12)


def test_decay_fit_excludes_zero_levels():
    p = 3
    recs = synthetic_records(p, [1, 2, 3, 4, 5], [3**0.5, 0.0, 3**1.5, 9.0, 3**2.5])
    rep = decay_fit(recs, 2)
    assert rep.zero_levels == (2,)
    assert rep.passed and rep.fitted_slope == pytest.approx(0.5, abs=1e-12)


def test_decay_fit_all_zero_is_trivial_pass():
    recs = synthetic_records(3, [1, 2, 3], [0.0, 0.0, 0.0])
    rep = decay_fit(recs, 1)
    assert rep.passed and rep.all_zero
    assert rep.fitted_slope is None and rep.a_estimate == 0.0


def test_decay_fit_too_few_nonzero_records():
    recs = synthetic_records(3, [1, 2, 3], [3.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        decay_fit(recs, 2)


def test_decay_fit_validation():
    recs = synthetic_records(3, [1, 2, 3], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        decay_fit(recs, 0)
    with pytest.raises(ValueError):
        decay_fit([], 2)
    mixed = recs + synthetic_records(5, [1], [1.0])
    with pytest.raises(ValueError):
        decay_fit(mixed, 2)
    for tolerance in (math.inf, math.nan):
        with pytest.raises(ValueError, match="tolerance must be finite"):
            decay_fit(recs, 2, tolerance=tolerance)


def test_decay_fit_accepts_certificate():
    f, g = parse_poly("y - x^2"), parse_poly("y")
    p = 5
    cert = contact_exponent(f, g, p)
    recs = decay_records(f, g, p, range(2, 7))
    rep = decay_fit(recs, cert)
    assert rep.exponent == 2
    assert rep.passed
    assert rep.fitted_slope == pytest.approx(0.5, abs=1e-9)


def test_decay_end_to_end_on_vanishing_family():
    f, g = parse_poly("y - x"), parse_poly("x")
    recs = decay_records(f, g, 3, range(1, 7))
    rep = decay_fit(recs, contact_exponent(f, g, 3))
    assert rep.all_zero and rep.passed
    assert rep.zero_levels == (1, 2, 3, 4, 5, 6)


def test_decay_writers(capsys):
    argv = ["verify", "--p", "5", "--m", "2..5", "--f", "y - x^2", "--g", "y"]
    assert cli.main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["p"] == 5
    assert payload["report"]["exponent"] == 2
    assert payload["report"]["passed"] is True
    assert payload["report"]["fitted_slope"] == pytest.approx(0.5, abs=1e-9)
    assert cli.main([*argv, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "# p=5" in lines
    assert "m,logp_magnitude" in lines
    data = [line for line in lines if not line.startswith("#") and "," in line][1:]
    assert len(data) == 4
