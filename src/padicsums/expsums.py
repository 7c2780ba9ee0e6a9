"""Oscillatory character sums along curves mod p^m.

The sum attached to a curve f = 0, weight polynomial g, and scalar
z = u / p^m (gcd(u, p) = 1, m >= 1) is

    S_m = sum over (x, y) in Y_m of exp(2*pi*i * u*g(x,y) / p^m),

with Y_m the solution set mod p^m.

Curve, one-variable and branch sums follow the stationary-phase rule.  Take
k = ceil(m/2) and r = m - k, so 2k >= m and r <= k.  Over a class C of
Y_k where f_x or f_y is a unit mod p lie exactly p^r points of Y_m, the
lifts of one P* in Y_m along the branch through it.  The branch has
integral Taylor coefficients, and the square of a step of size p^k
vanishes mod p^m, so their phases are g(P*) + p^k s c mod p^m with s
running over Z/p^r and c = -J/f_y (or J/f_x), J = f_x g_y - f_y g_x.
Hence C adds p^r exp(2*pi*i * u*g(P*)/p^m) when J = 0 mod p^r on C, and
exactly 0 otherwise; J mod p^r is fixed by C, because r <= k.  Classes
where both partials vanish mod p have no such branch: their points of
Y_m are enumerated and summed one by one.  J has integer coefficients,
so J mod p^(k-1) is fixed by a class's reduction mod p^(k-1): the
classes kept for m = 2k - 1 are the p lifts of each class kept for
m = 2k - 2.  `decay_records` loops once over m: each odd m lifts this
chain one level and the singular points of Y_m advance with m.  A
class's lift to Y_2k reduces to its lift to Y_(2k-1), so one Newton
step per k serves m = 2k - 1 and m = 2k.  A one-variable sum is the
curve y = f(x) with weight y, where J = -f' and every class is smooth:

    S_m = p^r * sum over a mod p^k with f'(a) = 0 mod p^r of
          exp(2*pi*i * u*f(a)/p^m),

exact for every polynomial, degenerate critical points included, since
f(a + p^k s) = f(a) + p^k s f'(a) mod p^m.  A branch sum is a one-variable
sum: along branch(t) with t = p^l s, every non-constant term of
g(branch(p^l s)) carries p^l, so

    g(branch(p^l s)) = g(anchor) + p^l H(s),    H in Z[s],

and the sum over s mod p^(m-l) is exp(2*pi*i * u*g(anchor)/p^m) times the
one-variable sum of H at level m - l.  References: J.-I. Igusa, An
Introduction to the Theory of Local Zeta Functions, AMS/IP 2000
(stationary phase formula); J. Denef, Report on Igusa's local zeta
function, Seminaire Bourbaki 741 (1991).

`sum_curve` sums over a given point set; it is the oracle the rule is
checked against (on `lift_levels` or `brute_points`).  Every sum takes its
phases with `_phase_values` (`BiPoly.horner` mod p^m, in integer arithmetic
before any float conversion) and adds the characters with one kernel,
`_char_sum`.  That kernel adds the terms with np.add.reduce in the given
point order: the reduction is pairwise, so results are deterministic and
the rounding error stays logarithmic in the term count.

A `SumRecord` keeps the full float value; the command line front end,
`padicsums.cli`, writes records out and rounds them to 15 significant
digits there.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .counting import PointSet, _check_vector_safe, _lift_step, _lift_tables, _lift_to
from .padic import _check_level
from .polynomials import BiPoly
from .series import Parametrization, SeriesPrecisionError, is_srp_series

__all__ = [
    "PhaseSpec",
    "SumRecord",
    "decay_records",
    "sum_curve",
    "sum_onevar",
    "sum_parametric",
]


@dataclass(frozen=True)
class PhaseSpec:
    """The scalar z = u / p^m with u a unit mod p: level m, numerator u."""

    p: int
    m: int
    u: int

    def __post_init__(self):
        _check_level(self.p, self.m, "phase level")
        # every sum divides by p^m as a float; p^1024 tops it for any p >= 2
        if self.p ** min(self.m, 1024) > sys.float_info.max:
            raise ValueError(f"modulus {self.p}^{self.m} exceeds the largest float")
        if self.u % self.p == 0:
            raise ValueError(
                f"u = {self.u} is divisible by p = {self.p}; "
                "the scalar must have valuation exactly -m"
            )
        object.__setattr__(self, "u", self.u % self.denominator)

    @property
    def denominator(self) -> int:
        return self.p**self.m


@dataclass(frozen=True)
class SumRecord:
    """One evaluated sum, with enough metadata to reproduce it."""

    p: int
    m: int
    u: int
    f: str
    g: str
    value: complex
    point_count: int
    normalized: float | None = None

    def __post_init__(self):
        # Triangle inequality: each term has modulus 1.
        if self.magnitude > self.point_count + 1e-6:
            raise ValueError(
                f"magnitude {self.magnitude} exceeds point count {self.point_count}"
            )

    @property
    def magnitude(self) -> float:
        return abs(self.value)

    def with_normalization(self, sigma: int) -> "SumRecord":
        if sigma < 1:
            raise ValueError(f"exponent must be >= 1, got {sigma}")
        scale = float(self.p) ** (self.m * (1.0 - 1.0 / sigma))
        return replace(self, normalized=self.magnitude / scale)


def _phase_values(g: BiPoly, xs: np.ndarray, ys: np.ndarray, phase: PhaseSpec) -> np.ndarray:
    q = phase.denominator
    gv = g.horner(xs, ys, q)
    return (gv * (phase.u % q)) % q


def _char_sum(phases: np.ndarray, q: int) -> complex:
    theta = phases * (2.0 * math.pi / q)
    terms = np.cos(theta) + 1j * np.sin(theta)
    # np.add.reduce on a contiguous array is pairwise, hence deterministic.
    return complex(np.add.reduce(terms))


def sum_curve(f: BiPoly, g: BiPoly, phase: PhaseSpec, points: PointSet) -> SumRecord:
    """S_m over a pre-enumerated point set (so one set can serve many z)."""
    if points.p != phase.p:
        raise ValueError(f"point set has p = {points.p}, phase has p = {phase.p}")
    if points.m != phase.m:
        raise ValueError(
            f"point set level {points.m} does not match phase level {phase.m}"
        )
    phases = _phase_values(g, points.xs, points.ys, phase)
    value = _char_sum(phases, phase.denominator)
    return SumRecord(
        p=phase.p,
        m=phase.m,
        u=phase.u,
        f=str(f),
        g=str(g),
        value=value,
        point_count=len(points),
    )


def sum_onevar(f_one: BiPoly, phase: PhaseSpec) -> SumRecord:
    """Sum of exp(2*pi*i * u*f_one(x)/p^m) over all x mod p^m.

    This is the sum along the curve y = f_one(x) with weight y.  It is
    taken by the stationary-phase rule (module docstring): p^r times the
    sum over the p^k classes a where f_one'(a) = 0 mod p^r.
    """
    if f_one.uses_y():
        raise ValueError("one-variable sums need a polynomial in x only")
    _check_vector_safe(phase.p, phase.m)
    q = phase.denominator
    k = (phase.m + 1) // 2
    r = phase.m - k
    xs = np.arange(phase.p**k, dtype=np.int64)
    xs = xs[f_one.partial("x").horner(xs, np.zeros_like(xs), phase.p**r) == 0]
    phases = _phase_values(f_one, xs, np.zeros_like(xs), phase)
    value = phase.p**r * _char_sum(phases, q)
    return SumRecord(
        p=phase.p,
        m=phase.m,
        u=phase.u,
        f=str(BiPoly.variable("y") - f_one),
        g="y",
        value=value,
        point_count=q,
    )


def sum_parametric(
    param: Parametrization, g: BiPoly, l: int, phase: PhaseSpec
) -> SumRecord:
    """Branch-restricted sum: t ranges over p^l * Z/p^m along branch(t).

    The truncated series stands in for the full branch, which is only sound
    when every dropped term t^k c_k has valuation >= m across the range of
    t.  With v(t) >= l that needs (T+1)*l >= m in general, and the weaker
    T + (T+1)*l >= m when the series has the restricted coefficient growth
    v(c_k) >= k - 1.  Violations raise SeriesPrecisionError: recompute the
    parametrization with a larger t-order.

    g is composed with the branch exactly, as a polynomial in s = t / p^l
    (truncating g(branch(t)) at t^T would not do: on restricted-shape
    branches the relaxed rule makes only the points exact mod p^m).  The
    two coordinates of branch(p^l s) are read off the series coefficients,
    h(p^l s) on the solved coordinate and p^l s on the free one, each plus
    the anchor's coordinate mod p^n, and g is composed with them by one
    `BiPoly.horner`.  The sum is then the one-variable sum of the module
    docstring, at level m - l: cost p^ceil((m-l)/2) phases, after a
    composition of degree deg(g) * T.  Like `sum_onevar` it needs
    p^(m-l) <= 2^31 and raises BudgetError above that.  point_count is
    p^(m-l).
    """
    if l < 0:
        raise ValueError("l must be >= 0")
    if l > phase.m:
        raise ValueError(f"l = {l} exceeds the level m = {phase.m}")
    if param.p != phase.p:
        raise ValueError("parametrization prime does not match the phase")
    if param.n < phase.m:
        raise SeriesPrecisionError(
            f"series carries {param.n} p-adic digits, need at least m = {phase.m}: "
            "recompute the parametrization at higher precision"
        )
    T = param.series.order_cap
    if is_srp_series(param.series):
        tail_ok = T + (T + 1) * l >= phase.m
    else:
        tail_ok = (T + 1) * l >= phase.m
    if not tail_ok:
        raise SeriesPrecisionError(
            f"t-order {T} too small to restrict to v(t) >= {l} at level {phase.m}: "
            "recompute the parametrization with a larger t-order"
        )

    q, mod = phase.denominator, param.series.modulus
    scale = param.p**l
    h = BiPoly({(k, 0): c * scale**k for k, c in enumerate(param.series.coeffs)})
    t = BiPoly({(1, 0): scale})
    x, y = (h, t) if param.solve_for == "x" else (t, h)
    composed = g.horner(x + param.anchor.x % mod, y + param.anchor.y % mod)
    g0 = composed.coefficient(0, 0)
    # a float phase: u*g0 mod q exceeds int64 when q does
    value = _char_sum(np.array([float(phase.u * g0 % q)]), q)
    if l < phase.m:
        rest = (composed - g0).divide_exact(scale)
        value *= sum_onevar(rest, PhaseSpec(phase.p, phase.m - l, phase.u)).value
    return SumRecord(
        p=phase.p,
        m=phase.m,
        u=phase.u,
        f=f"branch at ({param.anchor.x % q}, {param.anchor.y % q})",
        g=str(g),
        value=value,
        point_count=q // scale,
    )


def decay_records(
    f: BiPoly,
    g: BiPoly,
    p: int,
    m_range: Iterable[int],
    u: int = 1,
) -> list[SumRecord]:
    """One record per level in m_range, by the stationary-phase rule.

    One loop over m = 1..max m; each odd m starts k = ceil(m/2).  There the
    chain of classes (module docstring) takes one `_lift_step` of the
    previous k's critical classes and, when m or m + 1 is wanted, one
    `_lift_to` to Y_min(2k, max m) with free digits 0 (m = 1 sums them as
    given).  The singular points of Y_m advance by one `_lift_step` per m.
    point_count is (smooth points of Y_1) * p^(m-1) plus the singular points.
    """
    wanted = set(m_range)
    if not wanted:
        return []
    if min(wanted) < 1:
        raise ValueError("levels must be >= 1")
    m_max = max(wanted)
    # Phases are reduced mod p^m in int64, though no class above ceil(m/2) is lifted.
    _check_vector_safe(p, m_max)
    PhaseSpec(p, m_max, u)  # p prime and u a unit, before any work
    tables = _lift_tables(f, p)
    jac = f.partial("x") * g.partial("y") - f.partial("y") * g.partial("x")
    chain = tables.points(singular=False)  # level 1 of the chain of classes, as xs, ys
    sx, sy = tables.points(singular=True)  # the singular points of Y_m
    n_smooth, records = len(chain[0]), []
    for m in range(1, m_max + 1):
        k = (m + 1) // 2
        if m % 2:  # a new k
            if m > 1:  # level k of the chain: the lifts of the critical classes
                level = PointSet(p, k, *_lift_step(f, *np.mod(crit, p ** (k - 1)), p, k - 1))
                chain = level.xs, level.ys
            pts = _lift_to(f, *chain, p, k, min(2 * k, m_max)) if {m, m + 1} & wanted else chain
            at = jac.horner(*pts, p**k) == 0
            crit = pts[0][at], pts[1][at]
        if m in wanted:
            kept = chain if m == 1 else crit if m % 2 == 0 else pts
            phase = PhaseSpec(p, m, u)
            value = p ** (m - k) * _char_sum(_phase_values(g, *kept, phase), phase.denominator)
            if len(sx):
                value += _char_sum(_phase_values(g, sx, sy, phase), phase.denominator)
            count = n_smooth * p ** (m - 1) + len(sx)
            records.append(SumRecord(p, m, phase.u, str(f), str(g), value, count))
        if m < m_max and len(sx):
            sx, sy = _lift_step(f, sx, sy, p, m)
    return records
