"""Acceptance gate: nine checks, one printed verdict line each.

Run with `pytest -v -rA tests/test_acceptance.py` (or -s) to see the
verdict lines; each criterion also fails its test on violation.
"""

import cmath
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from padicsums.counting import brute_points, lift_points
from padicsums.expsums import PhaseSpec, decay_records, sum_curve, sum_parametric
from padicsums.invariants import contact_exponent, contact_exponent_onevar, contact_order, decay_fit
from padicsums.padic import additive_char, valuation
from padicsums.polynomials import BiPoly, parse_poly, parse_univariate
from padicsums.series import certify_point, hensel_param, rescale_srp
from references import count_report


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")


# -- 1: Gauss-sum anchor -------------------------------------------------------------


def gauss_oracle_magnitude(p: int, m: int) -> float:
    """|sum of e(x^2 / p^m)| by direct per-point accumulation on the graph."""
    q = p**m
    total = 0j
    for x in range(q):
        total += cmath.exp(2j * cmath.pi * ((x * x) % q) / q)
    return abs(total)


def test_criterion_1_gauss_anchor():
    start = time.monotonic()
    f, g = parse_poly("y - x^2"), parse_poly("y")
    worst = 0.0
    for p in (3, 5, 7):
        for m in (2, 4, 6):
            rec = sum_curve(f, g, PhaseSpec(p, m, 1), lift_points(f, p, m))
            expected = float(p) ** (m / 2)
            rel = abs(rec.magnitude - expected) / expected
            worst = max(worst, rel)
            assert rel < 1e-7, (p, m, rec.magnitude)
            oracle = gauss_oracle_magnitude(p, m)
            assert abs(rec.magnitude - oracle) / expected < 1e-7, (p, m)
    elapsed = time.monotonic() - start
    ok = elapsed < 10.0
    _report(1, ok, f"|S_m| = p^(m/2) to {worst:.1e} rel, oracle-checked, {elapsed:.2f}s")
    assert ok, f"runtime {elapsed:.2f}s exceeds 10s"


# -- 2: vanishing anchor -------------------------------------------------------------


def test_criterion_2_vanishing_anchor():
    f, g = parse_poly("y - x"), parse_poly("x")
    worst = 0.0
    for p in (2, 3, 5):
        for m in range(1, 7):
            rec = sum_curve(f, g, PhaseSpec(p, m, 1), lift_points(f, p, m))
            worst = max(worst, rec.magnitude)
    ok = worst < 1e-10
    _report(2, ok, f"full character sums vanish, max |S_m| = {worst:.2e}")
    assert ok


# -- 3: enumeration oracle equivalence -------------------------------------------------


EQUIV_CORPUS = [
    "y - x^2",
    "y - x^3",
    "x*y - 1",
    "y^2 - x^3",
    "y^2 - x^3 - x",
    "x^2 + y^2 + 1",
    "y - x - x*y",
    "3*y + x^2",
    "x^3 + y^3 - 1",
    "y^2 - 2*x^4 + x",
]


def test_criterion_3_oracle_equivalence():
    checked = 0
    for p in (2, 3, 5, 7):
        curves = EQUIV_CORPUS + [f"y^2 - x^3 - {p * p}"]
        m = 1
        while p ** (2 * m) <= 10**6:
            for text in curves:
                f = parse_poly(text)
                assert lift_points(f, p, m).same_points(brute_points(f, p, m)), (
                    text,
                    p,
                    m,
                )
                checked += 1
            m += 1
    ok = checked >= 10
    _report(3, ok, f"lift == brute on {checked} (curve, p, m) combinations, 0 discrepancies")
    assert ok


# -- 4: count stabilization -------------------------------------------------------------


SMOOTH_BY_P = {
    2: ["y - x^2", "y - x^3", "x*y - 1", "y - x - x*y", "x^3 + y^3 - 1"],
    3: ["y - x^2", "y - x^3", "x*y - 1", "y^2 - x^3 - x", "x^2 + y^2 + 1"],
    5: ["y - x^2", "y - x^3", "x*y - 1", "y^2 - x^3 - x", "x^2 + y^2 + 1"],
}


def _is_smooth_mod_p(f: BiPoly, p: int) -> bool:
    fx, fy = f.partial("x"), f.partial("y")
    level = lift_points(f, p, 1)
    return all(
        fx.evaluate(x, y, p) != 0 or fy.evaluate(x, y, p) != 0
        for x, y in zip(level.xs.tolist(), level.ys.tolist())
    )


def test_criterion_4_count_stabilization():
    worst_m0 = 0
    for p, curves in SMOOTH_BY_P.items():
        for text in curves:
            f = parse_poly(text)
            assert _is_smooth_mod_p(f, p), (text, p)
            rep = count_report(f, p, 8)
            assert rep.stabilized, (text, p)
            assert rep.stable_from <= 4, (text, p, rep.stable_from)
            for i in range(rep.stable_from - 1, 7):
                assert rep.counts[i + 1] == p * rep.counts[i], (text, p, i)
            worst_m0 = max(worst_m0, rep.stable_from)
    ok = worst_m0 <= 4
    _report(4, ok, f"count ratios lock to p for m >= m0, worst m0 = {worst_m0}")
    assert ok


# -- 5: parametrization residuals ----------------------------------------------------------


def test_criterion_5_hensel_residuals():
    T, N = 16, 12
    suite = []
    for text, p, anchor, solve in (
        ("y - x - x*y", 5, (0, 0), "auto"),
        ("x + y + y^2", 7, (0, 0), "auto"),
        ("y - x^2", 3, (0, 0), "auto"),
        ("y + y^2 - x^3", 5, (0, 0), "auto"),
        ("2*x + y + x*y + y^3", 3, (0, 0), "auto"),
        ("x - y^2", 7, (0, 0), "auto"),
        ("y - x - x*y", 5, (0, 0), "x"),
        ("y - x^2", 5, (3, 9), "auto"),
    ):
        f = parse_poly(text)
        pt = certify_point(f, anchor[0], anchor[1], p, 1)
        suite.append((f, hensel_param(f, pt, order=T, precision=N, solve_for=solve)))

    # blow-up charts reached through the rescaling substitution
    deep = parse_poly("y^2 - x^3 - 25").shift(0, 5)
    fstar = rescale_srp(deep, 5, 1)
    suite.append((fstar, hensel_param(fstar, certify_point(fstar, 0, 0, 5, 1), order=T, precision=N)))
    fstar2 = rescale_srp(parse_poly("3*y + x^2"), 3, 1)
    suite.append((fstar2, hensel_param(fstar2, certify_point(fstar2, 0, 0, 3, 1), order=T, precision=N)))

    for f, param in suite:
        assert param.n >= 12 and param.series.order_cap >= 16
        assert all(c == 0 for c in param.compose_poly(f).coeffs), str(f)
        assert param.series.constant == 0
    _report(5, True, f"{len(suite)} parametrizations exact mod (p^{N}, t^{T + 1})")


# -- 6: closed-form contact exponents ---------------------------------------------------------


def test_criterion_6_closed_form_exponents():
    checked = []
    for p in (5, 7):
        for k in (1, 2, 3, 4):
            f = parse_poly("y - x") if k == 1 else parse_poly(f"y - x^{k}")
            cert = contact_exponent(f, parse_poly("y"), p)
            assert cert.exponent == k, (p, k, cert.exponent)
            if k > 1:
                w = cert.witnesses[0]
                assert (w.x, w.y) == (0, 0), (p, k)
                # independent Taylor check: the branch is literally (t, t^k),
                # so v(g(branch(p^j))) must be exactly k*j
                for j in (1, 2, 3):
                    assert valuation(pow(p**j, k), p) == k * j
            one = contact_exponent_onevar(
                parse_univariate("x") if k == 1 else parse_univariate(f"x^{k}"), p
            )
            assert one.exponent == k, (p, k, one.exponent)
            if k > 1:
                f_one = parse_univariate(f"x^{k}")
                for j in (1, 2, 3):
                    assert valuation(f_one.evaluate(p**j, 0) - f_one.evaluate(0, 0), p) == k * j
            checked.append((p, k))
    _report(6, True, f"sigma(y - x^k, y) = sigma_onevar(x^k) = k on {len(checked)} (p, k) pairs")


# -- 7: decay regression ------------------------------------------------------------------


def test_criterion_7_decay_regression():
    start = time.monotonic()
    results = []
    for p in (5, 7):
        for ftext, gtext in (("y - x^2", "y"), ("y - x^3", "y"), ("y - x^2", "x + y")):
            f, g = parse_poly(ftext), parse_poly(gtext)
            cert = contact_exponent(f, g, p)
            assert cert.confidence == "certified", (ftext, gtext, p)
            records = decay_records(f, g, p, range(3, 9))
            rep = decay_fit(records, cert, tolerance=0.05)
            assert rep.passed, (ftext, gtext, p, rep.fitted_slope)
            assert rep.fitted_slope <= rep.predicted_exponent + 0.05
            # pointwise bound with the fitted constant
            for r in rep.records:
                bound = rep.a_estimate * float(p) ** (r.m * rep.predicted_exponent)
                assert r.magnitude <= bound * (1 + 1e-12) + 1e-9, (ftext, p, r.m)
            results.append((p, ftext, gtext, rep.fitted_slope, rep.predicted_exponent))
    elapsed = time.monotonic() - start
    ok = elapsed < 300.0
    worst = max(r[3] - r[4] for r in results)
    _report(
        7,
        ok,
        f"slopes within bound on {len(results)} families "
        f"(worst slope-minus-predicted {worst:+.3f}), {elapsed:.1f}s",
    )
    assert ok, f"runtime {elapsed:.1f}s exceeds 300s"


# -- 8: exact branch-restricted magnitude -----------------------------------------------------


def test_criterion_8_restricted_sum_magnitude():
    p = 5
    f, g = parse_poly("y - x^2"), parse_poly("y")
    pt = certify_point(f, 0, 0, p, 1)
    param = hensel_param(f, pt, order=16, precision=12)
    worst = 0.0
    for m in (4, 5, 6):
        l = m // 2 + 1
        rec = sum_parametric(param, g, l, PhaseSpec(p, m, 1))
        expected = float(p) ** (m - l)
        err = abs(rec.magnitude - expected)
        worst = max(worst, err)
        assert err < 1e-9, (m, l, rec.magnitude)
    _report(8, True, f"|restricted sum| = p^(m-l) exactly, max error {worst:.2e}")


# -- 9: randomized property suite ---------------------------------------------------------------


SMALL_PRIMES = st.sampled_from([2, 3, 5, 7])

POLY_TERMS = st.dictionaries(
    st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)),
    st.integers(min_value=-9, max_value=9).filter(bool),
    min_size=1,
    max_size=4,
)


def test_criterion_9_property_suite():
    n_examples = 1000
    common = settings(
        max_examples=n_examples,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )

    @common
    @given(
        SMALL_PRIMES,
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=-(10**9), max_value=10**9),
        st.integers(min_value=-(10**9), max_value=10**9),
    )
    def character_additivity(p, m, a, b):
        lhs = additive_char(a + b, m, p)
        rhs = additive_char(a, m, p) * additive_char(b, m, p)
        assert abs(lhs - rhs) < 1e-12

    @common
    @given(
        SMALL_PRIMES,
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=-(10**9), max_value=10**9),
    )
    def conjugation_symmetry(p, m, a):
        assert abs(additive_char(-a, m, p) - additive_char(a, m, p).conjugate()) < 1e-12

    @common
    @given(POLY_TERMS, st.sampled_from([2, 3, 5]), st.integers(min_value=1, max_value=3))
    def lift_consistency(terms, p, m):
        if p == 5:
            m = min(m, 2)  # keep the brute grid small
        f = BiPoly(terms)
        assert lift_points(f, p, m).same_points(brute_points(f, p, m))

    @common
    @given(
        st.sampled_from([3, 5, 7]),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=500),
        st.integers(min_value=-500, max_value=500),
    )
    def contact_unit_invariance(p, k, c, d):
        # scaling the weight by a p-adic unit and shifting by a constant
        # cannot change where or how fast it starts moving along the branch
        if c % p == 0:
            c += 1
        f = parse_poly("y - x") if k == 1 else parse_poly(f"y - x^{k}")
        pt = certify_point(f, 0, 0, p, 1)
        base = contact_order(f, BiPoly.variable("y"), pt)
        scaled = contact_order(f, BiPoly({(0, 1): c, (0, 0): d}), pt)
        assert scaled.order == base.order == k
        assert scaled.leading_val == base.leading_val

    @common
    @given(POLY_TERMS, st.sampled_from([2, 3]), st.integers(min_value=2, max_value=3))
    def projection_consistency(terms, p, m):
        f = BiPoly(terms)
        high = lift_points(f, p, m)
        low = lift_points(f, p, m - 1)
        q = p ** (m - 1)
        projected = {(x % q, y % q) for x, y in zip(high.xs.tolist(), high.ys.tolist())}
        assert projected <= set(zip(low.xs.tolist(), low.ys.tolist()))

    failures = []
    for prop in (
        character_additivity,
        conjugation_symmetry,
        lift_consistency,
        contact_unit_invariance,
        projection_consistency,
    ):
        try:
            prop()
        except Exception as exc:  # pragma: no cover - reported below
            failures.append(f"{prop.__name__}: {exc}")
    ok = not failures
    _report(9, ok, f"5 properties x {n_examples} randomized instances" if ok else "; ".join(failures))
    assert ok, failures
