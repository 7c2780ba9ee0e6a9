"""Truncated power series over Z/p^n and Hensel parametrization of branches.

A series is a fixed-length coefficient vector c_0..c_T with entries reduced
mod p^n; every ring operation is exact in that quotient.  `hensel_param`
produces the branch of a plane curve through a point where one partial
derivative is a unit, by Newton iteration on series that doubles the t-order
each step.  The inverse of the solved-for partial along the branch is carried
along and refined by its own Newton step at each doubling, so no step inverts
a series.  The residual f(branch(t)) == 0 mod (p^n, t^(T+1)) is asserted on
every call.  `rescale_srp` implements the blow-up substitution
(x, y) -> (p^(e+1) x, p^(e+1) y) followed by exact division by p^(2e+1),
which turns a point of depth e into an origin of depth 0 whose equation has
coefficient valuations growing at least linearly in the degree (the
"restricted" shape that keeps later parametric sums convergent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .padic import INFINITY, _int_valuation
from .polynomials import BiPoly

__all__ = [
    "CurvePoint",
    "HenselPreconditionError",
    "Parametrization",
    "RescaleError",
    "SeriesOrder",
    "SeriesPrecisionError",
    "TruncSeries",
    "certify_point",
    "hensel_param",
    "is_srp_poly",
    "is_srp_series",
    "ord_t",
    "rescale_srp",
]


class HenselPreconditionError(ValueError):
    """Neither partial derivative is a unit at the point; carries the depth."""

    def __init__(self, message: str, depth):
        super().__init__(message)
        self.depth = depth


class SeriesPrecisionError(ArithmeticError):
    """Working precision (p-adic or t-adic) too small for the request."""


class RescaleError(ValueError):
    """Blow-up substitution inconsistent with the claimed depth."""


@dataclass(frozen=True)
class TruncSeries:
    """Power series in t truncated at t^T, coefficients in Z/p^n."""

    coeffs: tuple[int, ...]
    p: int
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("p-adic precision must be >= 1")
        if not self.coeffs:
            raise ValueError("series needs at least the constant coefficient")
        mod = self.p**self.n
        object.__setattr__(self, "coeffs", tuple(c % mod for c in self.coeffs))

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_coeffs(cls, coeffs, p: int, n: int, order: int | None = None):
        coeffs = list(coeffs)
        if order is not None:
            coeffs = (coeffs + [0] * (order + 1))[: order + 1]
        return cls(tuple(coeffs), p, n)

    # -- structure -----------------------------------------------------------

    @property
    def order_cap(self) -> int:
        """T: the largest power of t carried."""
        return len(self.coeffs) - 1

    @property
    def modulus(self) -> int:
        return self.p**self.n

    @property
    def constant(self) -> int:
        return self.coeffs[0]

    def _align(self, other: "TruncSeries") -> int:
        if (self.p, self.n) != (other.p, other.n):
            raise ValueError("mixed series precisions")
        return min(self.order_cap, other.order_cap)

    def padded(self, order: int) -> "TruncSeries":
        """Cut or zero-extend to t-order `order`; extending is only sound as a seed."""
        if order == self.order_cap:
            return self
        coeffs = self.coeffs[: order + 1]
        return TruncSeries(coeffs + (0,) * (order + 1 - len(coeffs)), self.p, self.n)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = TruncSeries((other,) + (0,) * self.order_cap, self.p, self.n)
        top = self._align(other)
        return TruncSeries(
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs))[: top + 1],
            self.p,
            self.n,
        )

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries(tuple(-c for c in self.coeffs), self.p, self.n)

    def __sub__(self, other):
        if isinstance(other, int):
            other = TruncSeries((other,) + (0,) * self.order_cap, self.p, self.n)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return TruncSeries(
                tuple(other * c for c in self.coeffs), self.p, self.n
            )
        top = self._align(other)
        mod = self.modulus
        out = [0] * (top + 1)
        for i, a in enumerate(self.coeffs[: top + 1]):
            if a == 0:
                continue
            for j in range(min(top - i, other.order_cap) + 1):
                b = other.coeffs[j]
                if b:
                    out[i + j] = (out[i + j] + a * b) % mod
        return TruncSeries(tuple(out), self.p, self.n)

    __rmul__ = __mul__


class SeriesOrder(NamedTuple):
    """t-order of a series with the p-valuation of its leading coefficient.

    `confident` is False when the leading coefficient is divisible by
    p^(n/2): the order might then be an artifact of limited precision and
    the caller should recompute at doubled n.
    """

    order: int
    leading_val: int
    confident: bool


def ord_t(series: TruncSeries, start: int = 0) -> SeriesOrder | None:
    """First index >= start with a nonzero residue; None when all vanish."""
    for k in range(start, series.order_cap + 1):
        c = series.coeffs[k]
        if c:
            v = _int_valuation(c, series.p)
            return SeriesOrder(k, v, 2 * v < series.n)
    return None


def is_srp_series(series: TruncSeries) -> bool:
    """Restricted shape: c_0 = 0 and v(c_k) >= k - 1 for every carried k."""
    if series.constant != 0:
        return False
    for k in range(1, series.order_cap + 1):
        c = series.coeffs[k]
        if c and _int_valuation(c, series.p) < k - 1:
            return False
    return True


def is_srp_poly(f: BiPoly, p: int) -> bool:
    """Restricted shape over Z: f(0,0) = 0 and v(c_ij) >= i + j - 1."""
    for (i, j), c in f.terms.items():
        if i == 0 and j == 0:
            return False  # nonzero constant (zero coefficients are dropped)
        if _int_valuation(c, p) < i + j - 1:
            return False
    return True


# -- curve points ------------------------------------------------------------


@dataclass(frozen=True)
class CurvePoint:
    """Approximate point on f = 0: the congruence holds mod p^level.

    `exact` marks points that satisfy the equation in Z itself, for which
    valuations of derivative values need no clipping at the level.
    """

    x: int
    y: int
    p: int
    level: int
    exact: bool = False


def certify_point(f: BiPoly, x: int, y: int, p: int, level: int) -> CurvePoint:
    """Validate f(x, y) == 0 mod p^level and build the point record."""
    if level < 1:
        raise ValueError("certification level must be >= 1")
    value = f.evaluate(x, y)
    if value % p**level:
        raise ValueError(
            f"({x}, {y}) does not lie on the curve mod {p}^{level}"
        )
    return CurvePoint(x, y, p, level, exact=(value == 0))


def _partial_vals_at(f: BiPoly, pt: CurvePoint):
    """Valuations of (f_x, f_y) at the point, clipped at the level unless exact."""
    vals = []
    for var in ("x", "y"):
        value = f.partial(var).evaluate(pt.x, pt.y)
        if value == 0:
            vals.append(INFINITY if pt.exact else pt.level)
        else:
            v = _int_valuation(value, pt.p)
            if not pt.exact and v >= pt.level:
                v = pt.level
            vals.append(v)
    return vals[0], vals[1]


# -- Hensel parametrization ---------------------------------------------------


@dataclass(frozen=True)
class Parametrization:
    """Branch of f = 0 through `anchor`, exact mod (p^n, t^(T+1)).

    solve_for == "y": branch(t) = (x0 + t, y0 + h(t));
    solve_for == "x": branch(t) = (x0 + h(t), y0 + t).
    h always has zero constant term, so branch(0) is the anchor itself.
    """

    anchor: CurvePoint
    series: TruncSeries
    solve_for: str

    @property
    def p(self) -> int:
        return self.series.p

    @property
    def n(self) -> int:
        return self.series.n

    def x_series(self) -> TruncSeries:
        t = _t_identity(self.series)
        base = self.series if self.solve_for == "x" else t
        return base + self.anchor.x

    def y_series(self) -> TruncSeries:
        t = _t_identity(self.series)
        base = self.series if self.solve_for == "y" else t
        return base + self.anchor.y

    def point_at(self, t0, modulus: int | None = None):
        """Coordinates of branch(t0) for an integer or an integer array t0.

        h(t0) is evaluated with `BiPoly.horner` mod `modulus`, or mod p^n
        when no modulus is given (the coordinates are then not reduced).  h
        is only known mod p^n, so a modulus that does not divide p^n raises
        ValueError.  An int64 array t0 needs modulus <= 2^31.
        """
        if modulus is not None and self.series.modulus % modulus:
            raise ValueError(f"modulus {modulus} does not divide p^n = {self.series.modulus}")
        h_poly = BiPoly({(k, 0): c for k, c in enumerate(self.series.coeffs)})
        h = h_poly.horner(t0, 0, modulus or self.series.modulus)
        x, y = self.anchor.x, self.anchor.y
        if modulus is not None:  # so an int64 t0 never meets a large anchor
            x, y = x % modulus, y % modulus
        if self.solve_for == "y":
            x, y = x + t0, y + h
        else:
            x, y = x + h, y + t0
        if modulus is not None:
            x, y = x % modulus, y % modulus
        return x, y

    def compose_poly(self, g: BiPoly) -> TruncSeries:
        """g(branch(t)) as a truncated series.

        Called as `residual(f)` with the curve f, it is the zero series
        exactly when the parametrization is valid.
        """
        return g.horner(self.x_series(), self.y_series())

    residual = compose_poly


def _t_identity(model: TruncSeries) -> TruncSeries:
    return TruncSeries.from_coeffs([0, 1], model.p, model.n, model.order_cap)


def _refine_anchor(f: BiPoly, pt: CurvePoint, n: int, solve_for: str) -> CurvePoint:
    """Lift the `solve_for` coordinate to a solution mod p^n by scalar Newton.

    Requires that partial of f to be a unit at the point; convergence is
    quadratic, so the iteration cap is logarithmic in n.
    """
    p = pt.p
    mod = p**n
    deriv = f.partial(solve_for)
    x0, y0 = pt.x % mod, pt.y % mod
    for _ in range(max(1, math.ceil(math.log2(n)) + 2)):
        r = f.evaluate(x0, y0, mod)
        if r == 0:
            break
        d = deriv.evaluate(x0, y0, mod)
        if d % p == 0:
            raise HenselPreconditionError(
                f"{solve_for}-derivative is not a unit at the anchor",
                _int_valuation(d, p) if d else n,
            )
        step = r * pow(d, -1, mod)
        if solve_for == "y":
            y0 = (y0 - step) % mod
        else:
            x0 = (x0 - step) % mod
    else:
        raise RuntimeError("anchor refinement failed to converge (unreachable)")
    return CurvePoint(x0, y0, p, n, exact=(f.evaluate(x0, y0) == 0))


def hensel_param(
    f: BiPoly,
    point: CurvePoint,
    *,
    order: int,
    precision: int,
    solve_for: str = "auto",
) -> Parametrization:
    """Unique branch of f = 0 through the point, as a truncated series.

    The solved-for coordinate needs a unit partial derivative; with
    solve_for="auto" the coordinate with the smaller derivative valuation is
    solved for, ties going to y.  The residual f(branch(t)) is recomputed
    and asserted to vanish mod (p^precision, t^(order+1)) before returning.
    """
    if order < 1:
        raise ValueError("t-order must be >= 1")
    if precision < 1:
        raise ValueError("precision must be >= 1")
    vx, vy = _partial_vals_at(f, point)
    if solve_for == "auto":
        solve_for = "y" if vy <= vx else "x"
    if solve_for not in ("x", "y"):
        raise ValueError(f"solve_for must be 'x', 'y', or 'auto', got {solve_for!r}")
    unit_val = vy if solve_for == "y" else vx
    if unit_val != 0:
        raise HenselPreconditionError(
            f"no unit partial derivative at ({point.x}, {point.y}): "
            f"v(f_x) = {vx}, v(f_y) = {vy}",
            min(vx, vy),
        )

    p, n = point.p, precision
    anchor = _refine_anchor(f, point, n, solve_for)
    mod = p**n
    f_solved = f.partial(solve_for)
    f_free = f.partial("x" if solve_for == "y" else "y")

    # Seed: first-order solution h = -(f_free/f_solved)(anchor) * t.
    free0 = f_free.evaluate(anchor.x, anchor.y, mod)
    solved0 = f_solved.evaluate(anchor.x, anchor.y, mod)
    inv0 = pow(solved0, -1, mod)
    slope = (-free0 * inv0) % mod
    h = TruncSeries.from_coeffs([0, slope], p, n)
    # w ~ 1/f_solved(branch), refined by one Newton step per doubling; the step
    # of h needs it only to about half the new t-order, which that step reaches
    w = TruncSeries((inv0,), p, n)

    cur = 1
    steps = 0
    while True:
        param = Parametrization(anchor, h, solve_for)
        # returns only once the recomputed residual vanishes at the full order
        if cur == order and all(c == 0 for c in param.residual(f).coeffs):
            break
        steps += 1
        if steps > math.ceil(math.log2(order + 1)) + 4:
            raise RuntimeError("series Newton failed to converge (unreachable)")
        cur = min(2 * cur, order)
        branch = Parametrization(anchor, h.padded(cur), solve_for)
        w = w.padded(cur)
        w = w * (2 - branch.compose_poly(f_solved) * w)
        h = branch.series - branch.residual(f) * w

    if param.series.constant != 0:
        raise RuntimeError("internal error: parametrization does not fix the anchor")
    return param


# -- blow-up rescaling --------------------------------------------------------


def rescale_srp(f: BiPoly, p: int, e: int) -> BiPoly:
    """p^-(2e+1) * f(p^(e+1) x, p^(e+1) y) for a curve translated to the origin.

    Preconditions: the origin lies on the curve (mod at least p^(2e+2)) and
    has depth e >= 1, i.e. min(v(f_x(0,0)), v(f_y(0,0))) = e.  The output has
    depth 0 at the origin and restricted coefficient growth, which is what
    makes a further parametrization there possible.
    """
    if e < 1:
        raise HenselPreconditionError("rescale needs depth e >= 1", e)
    c10, c01 = f.coefficient(1, 0), f.coefficient(0, 1)
    lin_vals = [
        _int_valuation(c, p) if c else INFINITY for c in (c10, c01)
    ]
    depth = min(lin_vals)
    if depth == 0:
        raise HenselPreconditionError(
            "origin already has a unit partial derivative; nothing to rescale", 0
        )
    scale = p**(e + 1)
    try:
        out = f.scale_vars(scale, scale).divide_exact(p**(2 * e + 1))
    except ValueError as exc:
        raise RescaleError(
            f"blow-up by p^{e + 1} is not integral: {exc}; "
            "the claimed depth does not match the point"
        ) from exc
    out_lin = [out.coefficient(1, 0), out.coefficient(0, 1)]
    if all(c % p == 0 for c in out_lin):
        raise RescaleError(
            "rescaled origin still has no unit partial derivative; "
            f"claimed depth {e} does not match the point (true depth {depth})"
        )
    const = out.coefficient(0, 0)
    if const and _int_valuation(const, p) < 1:
        raise RescaleError(
            "rescaled constant term is a unit; the origin does not lie on the curve"
        )
    body = BiPoly({k: c for k, c in out.terms.items() if k != (0, 0)})
    if not is_srp_poly(body, p):
        raise RescaleError("rescaled polynomial lost the restricted shape (unreachable)")
    return out
