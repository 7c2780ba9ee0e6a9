"""Depth, contact orders, the oscillation exponent, and the decay fit.

Witness orders are re-verified here with a valuation-slope oracle: on curves
whose branch has a closed form, v(g(x) - g(x0)) along x = x0 + p^j must grow
linearly in j with the claimed order as slope, all in integer arithmetic.
"""

import io
import json
import math

import pytest

from padicsums.expsums import PhaseSpec, SumRecord, decay_records, sum_curve
from padicsums.counting import lift_points
from padicsums.invariants import (
    ContactInconclusiveError,
    DepthBound,
    WeightConstantError,
    contact_exponent,
    contact_exponent_onevar,
    contact_order,
    curve_depth,
    decay_fit,
    point_depth,
    write_decay_csv,
    write_decay_json,
)
from padicsums.padic import valuation
from padicsums.polynomials import parse_poly, parse_univariate
from padicsums.series import certify_point


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


def test_contact_escalates_order_cap_and_records_trace():
    f = parse_poly("y - x^10")
    pt = certify_point(f, 0, 0, 3, 1)
    got = contact_order(f, parse_poly("y"), pt, order_start=4)
    assert got.order == 10
    assert any("all residues zero" in line for line in got.trace)


def test_contact_inconclusive_when_weight_constant_on_branch():
    f = parse_poly("y - x^2")
    pt = certify_point(f, 0, 0, 5, 1)
    with pytest.raises(ContactInconclusiveError) as exc:
        contact_order(f, f, pt, order_start=4, order_cap=8, precision_cap=32)
    assert exc.value.trace


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
        contact_order(f, parse_poly("x"), shallow, precision_start=16)


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
        contact_exponent(
            parse_poly("y - x^2"),
            parse_poly("x*y - x^3"),
            3,
            order_cap=16,
            precision_cap=32,
        )


@pytest.mark.parametrize(
    "curve,weight,p",
    [("y^2 - 2*x^2*y + x^4", "x", 5), ("y^2 - x^3", "y", 3)],
    ids=["repeated-factor", "cusp"],
)
def test_exponent_without_a_parametrizable_branch_is_inconclusive(curve, weight, p):
    # Every critical point found is singular, so no contact order is measured;
    # the weight moves along both curves, so "weight constant" would be wrong.
    with pytest.raises(ContactInconclusiveError, match="may have a repeated factor"):
        contact_exponent(parse_poly(curve), parse_poly(weight), p)


@pytest.mark.parametrize("depth", [0, -1])
def test_exponent_rejects_a_search_depth_below_one(depth):
    with pytest.raises(ValueError, match="search depth must be >= 1"):
        contact_exponent(parse_poly("y^2 - x^3"), parse_poly("y"), 5, depth=depth)


def test_exponent_on_empty_curve():
    cert = contact_exponent(parse_poly("x^2 + 3*y^2 + 3"), parse_poly("y"), 3)
    assert cert.exponent == 1
    assert cert.confidence == "certified"
    assert cert.witnesses == ()


def test_exponent_budget_exhaustion_is_heuristic_not_fatal():
    cert = contact_exponent(parse_poly("y - x^4"), parse_poly("y"), 2, budget=3)
    assert cert.confidence == "heuristic"
    assert any("budget" in note for note in cert.notes)


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


def test_decay_writers():
    f, g = parse_poly("y - x^2"), parse_poly("y")
    rep = decay_fit(decay_records(f, g, 5, range(2, 6)), 2)
    jbuf, cbuf = io.StringIO(), io.StringIO()
    write_decay_json(rep, jbuf, config={"p": 5})
    write_decay_csv(rep, cbuf, config={"p": 5})
    payload = json.loads(jbuf.getvalue())
    assert payload["config"] == {"p": 5}
    assert payload["report"]["passed"] is True
    assert payload["report"]["fitted_slope"] == pytest.approx(0.5, abs=1e-9)
    lines = cbuf.getvalue().splitlines()
    assert "# p=5" in lines
    assert "m,logp_magnitude" in lines
    data = [line for line in lines if not line.startswith("#") and "," in line][1:]
    assert len(data) == 4
