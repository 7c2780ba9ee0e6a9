"""Decay invariants: branch contact orders and the oscillation exponent.

The magnitude of the sum S_m decays like p^(m(1-1/sigma)), where sigma is
the largest contact order of the weight polynomial g with the curve f = 0
at a critical point (a point of the curve where the Jacobian
J = f_x g_y - f_y g_x vanishes).  This module computes:

  * point_depth     -- minimal valuation of the partial derivatives at a point
  * curve_depth     -- its maximum over all points lifted to a probe level
  * contact_order   -- the t-order of g(branch(t)) - g(P) at a point, using
                       a blow-up chart when the point has positive depth;
                       the chart is built once and only the precision
                       escalates
  * contact_exponent -- the maximum contact order over Z_p critical points;
                       a component shared by f and the Jacobian is decided
                       exactly by a gcd first, the critical points are then
                       found by a depth-limited lifting search whose classes
                       are certified (an exact or Hensel-unique critical
                       point lifts) or refuted (a dominant monomial pins the
                       Jacobian's valuation), with an honest heuristic flag
                       for anything left unresolved
  * decay_fit       -- least-squares slope of log_p |S_m| against m, checked
                       against the predicted exponent

The search and curve_depth work in whole-array passes over the classes or
points of a level; only those that pass a gate (the Newton determinant
nonzero mod p^((k+1)//2), an exact hit, both partials 0 mod p^level) are
handled one by one.  A gated class goes through `series._newton_pair`, the
one scalar Newton iteration, which also refines `hensel_param`'s anchors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .counting import BudgetError, _extend_pairs, _int_dtype, _lift_tables, lift_points
from .expsums import SumRecord
from .padic import INFINITY, _check_level, _int_valuation
from .polynomials import BiPoly, _gcd, _squarefree
from .series import (
    CurvePoint,
    HenselPreconditionError,
    _newton_pair,
    _partial_vals_at,
    certify_point,
    hensel_param,
    ord_t,
    rescale_srp,
)

__all__ = [
    "ContactInconclusiveError",
    "ContactOrder",
    "CurveDepthReport",
    "DecayReport",
    "DepthBound",
    "ExponentCertificate",
    "WeightConstantError",
    "Witness",
    "contact_exponent",
    "contact_exponent_onevar",
    "contact_order",
    "curve_depth",
    "decay_fit",
    "point_depth",
]

DEFAULT_SEARCH_DEPTH = 6
DEFAULT_SEARCH_BUDGET = 200_000
_PRECISION_START = 16
_PRECISION_CAP = 256
_NEWTON_WITNESS_LEVEL = 48
_ZERO_FLOOR = 1e-8


class ContactInconclusiveError(ArithmeticError):
    """Contact order undecided at the precision caps; carries the trace."""

    def __init__(self, message: str, trace):
        super().__init__(message + "; trace: " + "; ".join(trace))
        self.trace = tuple(trace)


class WeightConstantError(ValueError):
    """The weight polynomial is constant along the curve."""


# -- depth of points and curves -------------------------------------------------


@dataclass(frozen=True)
class DepthBound:
    """min(v(f_x), v(f_y)) at a point; `exact` False means only '>= value'."""

    value: int
    exact: bool
    level: int


def point_depth(f: BiPoly, pt: CurvePoint) -> DepthBound:
    """Depth of the point: how far the curve is from a unit-derivative chart.

    Derivative values are exact integers, but for a point only certified mod
    p^level a vanishing residue proves nothing beyond v >= level, so the
    bound is clipped there and flagged inexact.
    """
    vx, vy = _partial_vals_at(f, pt)
    v = min(vx, vy)
    if v == INFINITY:
        # exact point with both partials literally zero: singular over Z
        return DepthBound(pt.level, False, pt.level)
    if pt.exact:
        return DepthBound(v, True, pt.level)
    return DepthBound(v, v < pt.level, pt.level)


@dataclass(frozen=True)
class CurveDepthReport:
    """Max point depth over every point lifted to the probe level."""

    max_depth: int
    probe_level: int
    complete: bool
    witness: tuple[int, int] | None

    def to_json_dict(self) -> dict:
        return {
            "max_depth": self.max_depth,
            "probe_level": self.probe_level,
            "complete": self.complete,
            "witness": list(self.witness) if self.witness else None,
        }


def curve_depth(f: BiPoly, p: int, probe: int = 3) -> CurveDepthReport:
    """Maximum depth over points mod p^probe that lift to level 2*probe.

    This is a finite-depth lower bound for the true supremum; `complete` is
    False when some point's depth was still indeterminate at the probe
    level, in which case rerunning with a larger probe is the remedy.  Only
    points where both partials vanish mod p^level go through `point_depth`.
    """
    _check_level(p, probe, "probe")
    level = 2 * probe
    pts = lift_points(f, p, level)
    partials = np.array([f.partial(v).horner(pts.xs, pts.ys, p**level) for v in "xy"])
    depths = _capped_valuations(partials, p, level).min(axis=0)
    complete, witness = True, None
    for n in np.flatnonzero(depths == level):
        d = point_depth(f, certify_point(f, int(pts.xs[n]), int(pts.ys[n]), p, level))
        depths[n], complete = d.value, complete and d.exact
    best = int(depths.max(initial=0))
    if best:
        n = depths.argmax()
        witness = (int(pts.xs[n]), int(pts.ys[n]))
    return CurveDepthReport(best, level, complete, witness)


# -- contact order of the weight along a branch ---------------------------------


@dataclass(frozen=True)
class ContactOrder:
    """t-order of g along the branch through a point, with its chart data.

    `chart_scale` is 0 when the branch lives in the original coordinates and
    e when the point had depth e >= 1 and the blow-up substitution
    (x, y) -> (p^(e+1) x, p^(e+1) y) was needed first.  `leading_val` is the
    valuation of the leading series coefficient in that chart.
    """

    order: int
    leading_val: int
    chart_scale: int
    confident: bool
    anchor: CurvePoint
    trace: tuple[str, ...]


def _rescaled_weight(g: BiPoly, x0: int, y0: int, p: int, e: int) -> BiPoly:
    """Translate g to the point and pull it through the blow-up chart.

    Dividing by p^(D(e+1)), D the least total degree after translation,
    keeps coefficients integral while removing the uniform scale the
    substitution introduces; the t-order is unchanged, the leading valuation
    is measured in the chart.
    """
    gt = g.shift(x0, y0)
    g0 = gt - BiPoly.constant(gt.coefficient(0, 0))
    if g0.is_zero:
        raise WeightConstantError("weight polynomial is constant")
    d = g0.low_degree()
    scale = p ** (e + 1)
    return g0.scale_vars(scale, scale).divide_exact(p ** (d * (e + 1)))


def contact_order(f: BiPoly, g: BiPoly, pt: CurvePoint) -> ContactOrder:
    """First t-order at which g moves along the branch through the point.

    At a smooth point of the branch's chart the contact order is the local
    intersection number of f and g - g(P), which Bezout bounds by
    deg f * deg g unless g is constant on the branch.  So the t-order is
    fixed at T = 2 deg f deg g + 4, above that bound, and only the p-adic
    precision N escalates: a run of all-zero residues, or a leading
    coefficient divisible by p^(N/2), doubles N from _PRECISION_START up to
    _PRECISION_CAP, as far as an inexact point's level backs 2N.  An all-zero
    run at the last N raises with the full trace; a low-confidence order
    there is returned with `confident` False.

    The chart (the point's depth e and, for e >= 1, the blown-up curve,
    weight and seed) does not depend on N, so it is built once; each N only
    parametrizes and composes in it.
    """
    if g.is_constant:
        raise WeightConstantError("weight polynomial is constant")
    T = 2 * max(1, f.degree()) * max(1, g.degree()) + 4
    N = _PRECISION_START
    p = pt.p
    trace: list[str] = []
    try:
        # the only check that depends on N; escalation keeps 2N <= level
        if not pt.exact and N > pt.level:
            raise HenselPreconditionError(
                f"point certified to level {pt.level}, below working precision {N}",
                None,
            )
        depth = point_depth(f, pt)
        if not depth.exact:
            raise HenselPreconditionError(
                f"point depth indeterminate at level {pt.level}; recertify deeper",
                depth.value,
            )
        e = depth.value
        curve, weight, seed = f, g, pt
        if e:
            need = 2 * e + 2
            if not pt.exact and pt.level < need:
                raise HenselPreconditionError(
                    f"point certified to level {pt.level}, need {need} for depth {e}",
                    e,
                )
            curve = rescale_srp(f.shift(pt.x, pt.y), p, e)
            weight = _rescaled_weight(g, pt.x, pt.y, p, e)
            # a unit partial at the origin: the same branch whatever N and seed level
            seed = certify_point(curve, 0, 0, p, max(1, pt.level - (2 * e + 1)))
        while True:
            param = hensel_param(curve, seed, order=T, precision=N)
            found = ord_t(param.compose_poly(weight), start=1)
            if found is not None and found.confident:
                break
            if found is None:
                trace.append(f"T={T} N={N}: all residues zero")
            else:
                trace.append(
                    f"T={T} N={N}: order {found.order} with leading valuation "
                    f"{found.leading_val} (low confidence)"
                )
            if N == _PRECISION_CAP or not (pt.exact or 2 * N <= pt.level):
                break
            N *= 2
    except HenselPreconditionError as exc:
        trace.append(f"T={T} N={N}: {exc}")
        raise ContactInconclusiveError(
            "cannot parametrize at the requested precision", trace
        ) from exc
    if found is None:
        raise ContactInconclusiveError(
            "contact order undecided at the caps (weight may be constant along this branch)",
            trace,
        )
    return ContactOrder(
        found.order, found.leading_val, e, found.confident, param.anchor, tuple(trace)
    )


# -- the oscillation exponent ----------------------------------------------------


@dataclass(frozen=True)
class Witness:
    """A certified critical point with its measured contact order."""

    x: int
    y: int
    level: int
    order: int
    leading_val: int
    chart_scale: int
    certified_by: str


@dataclass(frozen=True)
class ExponentCertificate:
    """The oscillation exponent with its witnesses and search provenance.

    confidence == "certified" means every candidate class in the critical
    locus search was either witnessed by a lifted critical point or refuted;
    "heuristic" admits unresolved classes at the depth/budget limits, so the
    exponent is a certified lower bound that the reported sums still obey,
    or a witness whose contact order is low-confidence (its leading
    coefficient divisible by p^(N/2) at the last precision N).
    """

    exponent: int
    witnesses: tuple[Witness, ...]
    search_depth: int
    confidence: str
    notes: tuple[str, ...] = ()


def _capped_valuations(vals: np.ndarray, p: int, k: int) -> np.ndarray:
    """min(v(a), k) for each residue a mod p^k in the array; 0 gives k.

    v(a) >= s exactly when p^s divides a, so on an integer array the answer
    counts the s in 1..k with a // p^s * p^s == a: k passes of a division
    by a scalar, which numpy runs faster than `%` or the per-element
    Euclid loop of np.gcd.  Object arrays (the search's deep levels, a few
    classes each) take gcd(a, p^k) = p^min(v(a), k) instead, one gcd per
    Python int rather than k passes of Python-int arithmetic, and its
    index among p^0..p^k.
    """
    if vals.dtype == object:
        powers = np.array([p**s for s in range(k + 1)], dtype=object)
        return np.searchsorted(powers, np.gcd(vals, p**k))
    capped = np.zeros(vals.shape, dtype=np.int64)
    for s in range(1, k + 1):
        d = p**s
        capped += vals // d * d == vals
    return capped


def _refuted(jac: BiPoly, xs: np.ndarray, ys: np.ndarray, p: int, k: int) -> np.ndarray:
    """Mask of the classes mod p^k on which one monomial of jac dominates.

    A nonzero representative pins v(x) (or v(y)) on every lift, so each
    monomial has an exact valuation there; a zero representative only
    bounds it below, by the class level k.  Taking min(v, k) gives both at
    once.  A class is refuted when the least monomial valuation is reached
    by exactly one monomial and that one is exact: then v(jac) is that
    minimum on every lift, so no lift is a critical point.
    """
    exps = np.array(list(jac.terms)).T  # (2, terms): the x and y degrees
    vc = np.array([_int_valuation(c, p) for c in jac.terms.values()])
    v = _capped_valuations(np.array([xs, ys]), p, k).T  # (classes, 2)
    total = vc + v @ exps
    inexact = (v == k) @ (exps > 0)
    at_min = total == total.min(axis=1, keepdims=True)
    return (at_min.sum(axis=1) == 1) & (at_min & ~inexact).any(axis=1)


# A prime near the int64 evaluation cap: an exact zero is zero mod it.
_HIT_SIEVE = 2**31 - 1


def _exact_hits(f: BiPoly, jac: BiPoly, xs: np.ndarray, ys: np.ndarray, q: int) -> np.ndarray:
    """Per class mod q, which small representative solves f = jac = 0 exactly.

    The candidates are (x0, y0), (x0, y0 - q), (x0 - q, y0), (x0 - q, y0 - q),
    numbered 0-3 in that order; the entry is the first that solves both
    equations over Z, or -1.  An int64 pass mod _HIT_SIEVE discards almost
    every candidate, and only the survivors are evaluated exactly.
    """
    hits = np.full(len(xs), -1)
    for c in range(4):
        if (hits >= 0).all():
            break
        x, y = xs - q * (c // 2), ys - q * (c % 2)
        sx = (x % _HIT_SIEVE).astype(np.int64, copy=False)
        sy = (y % _HIT_SIEVE).astype(np.int64, copy=False)
        todo = np.flatnonzero((hits < 0) & (f.horner(sx, sy, _HIT_SIEVE) == 0))
        if len(todo):
            todo = todo[jac.horner(sx[todo], sy[todo], _HIT_SIEVE) == 0]
            ox, oy = x[todo].astype(object), y[todo].astype(object)
            hits[todo[(f.horner(ox, oy) == 0) & (jac.horner(ox, oy) == 0)]] = c
    return hits


def _extend_classes(
    polys: Sequence[BiPoly], xs: np.ndarray, ys: np.ndarray, p: int, k: int, budget: int
) -> tuple[np.ndarray, np.ndarray]:
    """One digit-pair extension level for a simultaneous system."""
    if len(xs) * p * p > budget:
        raise BudgetError(
            f"critical-locus search needs {len(xs) * p * p} tests at "
            f"level {k + 1}, budget is {budget}"
        )
    dtype = _int_dtype(p ** (k + 1))
    return _extend_pairs(polys, np.asarray(xs, dtype), np.asarray(ys, dtype), p, k)


def _smooth_residue(h: BiPoly, p: int) -> tuple[int, int] | None:
    """A zero of h mod p at which a partial of h is a unit, or None.

    By Hensel such a residue lifts to a point of h = 0 over Z_p.  The
    smooth points of Y_1 come from the lift tables of h, under the brute
    scan's cap on the p^2 residues.
    """
    xs, ys = _lift_tables(h, p).points(singular=False)
    return (int(xs[0]), int(ys[0])) if len(xs) else None


def _y_major(h: BiPoly) -> str:
    """h with its y-leading term, the one `_gcd` makes positive, first."""
    return h._text(lambda k: (k[1], k[0]))


def contact_exponent(
    f: BiPoly,
    g: BiPoly,
    p: int,
    *,
    depth: int = DEFAULT_SEARCH_DEPTH,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> ExponentCertificate:
    """Largest contact order of g at a Z_p critical point of the curve.

    A component that f and the Jacobian J = f_x g_y - f_y g_x share is
    decided exactly, by gcds over Z[x, y], before any search.  When
    r = gcd(f, f_x, f_y) is not constant, f has a repeated factor (Q_p has
    characteristic 0): each factor of s = r / gcd(r, r_x, r_y), the
    squarefree part of r, divides f at least twice.  If s has a smooth
    residue (a zero mod p at which a partial of s is a unit, so a point
    over Z_p by Hensel), the curve is not reduced there and
    ContactInconclusiveError names s.  (r itself would not do: f = s^3
    gives r = s^2, every zero of which is singular.)  When f is squarefree
    and h = gcd(f, J) is not constant with a smooth residue, J vanishes on
    h = 0, so g is constant along each branch of that component:
    WeightConstantError names h.  A shared factor with no smooth residue,
    such as x^2 + y^2 at p = 3, leaves the input to the search, and only
    such an h turns an all-undecided search into WeightConstantError.

    Candidates are the classes mod p^depth where both f and the Jacobian
    J = f_x g_y - f_y g_x vanish.  During the search a class is certified as
    soon as a unique critical point lifts in it (2-variable Hensel), refuted
    when a dominant Jacobian monomial pins v(J) finite on the whole class,
    and at full depth small exact solutions are recognized directly.  Classes
    still open at `depth` (which must be >= 1) get up to `depth` more levels,
    since they may die out deeper.  `budget` caps the digit pairs of each
    level above the first, n * p^2 for n open classes, and must be >= 1.
    Points of the curve away from the critical locus contribute order 1.

    A level is resolved in array passes: a classes x monomials valuation
    matrix refutes; the Newton hypothesis v(det) <= (k-1)/2 is exactly
    det != 0 mod p^((k+1)//2), det = f_x J_y - f_y J_x; exact hits are
    sieved in int64.  Witnesses are measured in frontier order.  The open
    classes then extend by `counting._extend_pairs`, which decides the p^2
    digit pairs of a class from f and J at three points of it, since both
    are affine in the pair mod p^(k+1).
    """
    _check_level(p, depth, "search depth")
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if g.is_constant:
        raise WeightConstantError("weight polynomial is constant")
    jac = f.partial("x") * g.partial("y") - f.partial("y") * g.partial("x")
    if jac.is_zero:
        raise WeightConstantError(
            "the Jacobian of (f, g) vanishes identically: "
            "the weight is constant along every branch of the curve"
        )

    # shared components first, exactly (see above); the search is the fallback
    repeated = _gcd(f, f.partial("x"), f.partial("y"))
    if not repeated.is_constant:
        factor = _squarefree(repeated)  # s, not s^2, when f = s^3
        at = _smooth_residue(factor, p)
        if at:
            name = _y_major(factor)
            notes = [f"gcd(f, f_x, f_y) = {_y_major(repeated)}"]
            if factor != repeated:
                notes.append(f"its squarefree part is {name}")
            raise ContactInconclusiveError(
                f"f has the repeated factor {name}, which has a point over Z_p: "
                "the curve is not reduced there",
                notes + [f"{name} = 0 is smooth at {at} mod {p}"],
            )
    else:
        shared = _gcd(f, jac)
        at = None if shared.is_constant else _smooth_residue(shared, p)
        if at:
            raise WeightConstantError(
                f"f and the Jacobian share the factor {_y_major(shared)}, which is smooth "
                f"at {at} mod {p} and so has a point over Z_p: the weight is constant "
                "along that component of the curve"
            )

    # Level 1 is Y_1 from the lift tables, under the brute scan's cap on the
    # p^2 residues; the budget caps deeper levels.
    tables = _lift_tables(f, p)
    cx, cy = tables.xs, tables.ys
    notes: list[str] = []
    if not len(cx):
        return ExponentCertificate(
            1, (), depth, "certified", ("curve has no points mod p",)
        )

    critical = jac.horner(cx, cy, p) == 0  # the level-1 classes of (f, jac), in scan order
    xs, ys = cx[critical], cy[critical]
    all_critical_mod_p = bool(critical.all())
    det = f.partial("x") * jac.partial("y") - f.partial("y") * jac.partial("x")

    witnesses: list[Witness] = []
    attempted = unparametrized = doubtful = 0

    def measure(x: int, y: int, level: int, how: str) -> None:
        nonlocal attempted, unparametrized, doubtful
        attempted += 1
        pt = certify_point(f, x, y, p, level)
        shown = min(level, 4)
        where = f"({x % p**shown}, {y % p**shown}) mod p^{shown}"
        try:
            result = contact_order(f, g, pt)
        except ContactInconclusiveError as exc:
            unparametrized += isinstance(exc.__cause__, HenselPreconditionError)
            notes.append(f"contact order at {where} undecided at the precision caps")
            return
        if not result.confident:
            doubtful += 1
            notes.append(
                f"contact order {result.order} at {where} has a leading coefficient "
                f"of valuation {result.leading_val}, low confidence at the precision caps"
            )
        witnesses.append(
            Witness(
                x=pt.x,
                y=pt.y,
                level=pt.level,
                order=result.order,
                leading_val=result.leading_val,
                chart_scale=result.chart_scale,
                certified_by=how,
            )
        )

    def resolve(xs, ys, k: int, final: bool):
        """The classes mod p^k left open by refutation, Newton and exact hits."""
        open_ = ~_refuted(jac, xs, ys, p, k)
        gated = open_ & (det.horner(xs, ys, p ** ((k + 1) // 2)) != 0)
        hits = np.full(len(xs), -1)
        if final:
            hits[open_] = _exact_hits(f, jac, xs[open_], ys[open_], p**k)
        for n in np.flatnonzero(gated | (hits >= 0)):
            x0, y0 = int(xs[n]), int(ys[n])
            refined = gated[n] and _newton_pair(f, jac, x0, y0, p, k, _NEWTON_WITNESS_LEVEL)
            if refined:
                measure(refined[0], refined[1], _NEWTON_WITNESS_LEVEL, "hensel-unique")
            elif hits[n] >= 0:
                q, c = p**k, int(hits[n])
                measure(x0 - q * (c // 2), y0 - q * (c % 2), max(k, 2), "exact-point")
            else:
                continue
            open_[n] = False
        return xs[open_], ys[open_]

    k = 1
    try:
        while True:
            xs, ys = resolve(xs, ys, k, final=k >= depth)
            if not len(xs) or k == 2 * depth:
                break
            xs, ys = _extend_classes((f, jac), xs, ys, p, k, budget)
            k += 1
    except BudgetError as exc:
        notes.append(str(exc))

    if all_critical_mod_p and attempted and not witnesses:  # every attempt undecided
        if unparametrized:
            raise ContactInconclusiveError(
                "every point of the curve mod p is critical and no branch shows the "
                "weight moving, but some branches could not be parametrized: f may "
                "have a repeated factor, or a singular point on the critical locus",
                [f"{unparametrized} of {attempted} contact attempt(s) found no branch"],
            )
        if repeated.is_constant and not shared.is_constant:  # J = 0 where shared = 0
            raise WeightConstantError(
                f"f and the Jacobian share the factor {_y_major(shared)}, and no branch "
                "shows the weight moving: the weight is constant on the curve"
            )
        raise ContactInconclusiveError(
            "every point of the curve mod p is critical and no contact order was decided "
            "at the precision caps", notes
        )

    confidence = "certified" if not len(xs) and not doubtful else "heuristic"
    if len(xs):
        notes.append(f"{len(xs)} candidate class(es) unresolved at depth {k}")
    exponent = max([1] + [w.order for w in witnesses])
    return ExponentCertificate(
        exponent=exponent,
        witnesses=tuple(witnesses),
        search_depth=depth,
        confidence=confidence,
        notes=tuple(notes),
    )


def contact_exponent_onevar(
    f_one: BiPoly,
    p: int,
    *,
    depth: int = DEFAULT_SEARCH_DEPTH,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> ExponentCertificate:
    """Oscillation exponent of the one-variable sum of exp(2 pi i u f_one(x)/p^m).

    Computed along the graph y = f_one(x) with weight y; critical points are
    the Z_p roots of f_one'.  When the derivative's degree exceeds the root
    multiplicity the search certified, the remaining roots lie outside Z_p
    or beyond the search depth, and a note records that.
    """
    if f_one.uses_y():
        raise ValueError("expected a polynomial in x only")
    f = BiPoly.variable("y") - f_one
    cert = contact_exponent(f, BiPoly.variable("y"), p, depth=depth, budget=budget)
    deriv_degree = max(0, f_one.partial("x").degree())
    found = sum(w.order - 1 for w in cert.witnesses)
    if deriv_degree > found:
        cert = replace(
            cert,
            notes=cert.notes
            + (
                f"derivative degree {deriv_degree} exceeds certified root "
                f"multiplicity {found}: some critical points lie outside Z_p "
                "or beyond the search depth",
            ),
        )
    return cert


# -- decay regression -------------------------------------------------------------


@dataclass(frozen=True)
class DecayReport:
    """Observed decay of |S_m| against the predicted p^(m(1-1/sigma)) law."""

    exponent: int
    predicted_exponent: float
    fitted_slope: float | None
    a_estimate: float
    tolerance: float
    passed: bool
    all_zero: bool
    zero_levels: tuple[int, ...]
    records: tuple[SumRecord, ...]

    @property
    def decay_rate(self) -> float:
        """Per-level saving 1/exponent; predicted_exponent is its complement."""
        return 1.0 / self.exponent


def _is_zero_magnitude(record: SumRecord) -> bool:
    # float cancellation noise grows with the term count
    return record.magnitude <= max(_ZERO_FLOOR, record.point_count * 5e-14)


def decay_fit(
    records: Sequence[SumRecord],
    exponent: int | ExponentCertificate,
    tolerance: float = 0.05,
) -> DecayReport:
    """Fit log_p |S_m| ~ slope * m and compare against 1 - 1/exponent.

    Records indistinguishable from zero are listed and excluded from the
    fit; when everything vanishes the bound holds trivially.  The constant
    estimate A = max |S_m| / p^(m(1-1/sigma)) makes the pointwise bound
    |S_m| <= A p^(m(1-1/sigma)) tight by construction, so the meaningful
    check is the fitted slope.
    """
    if isinstance(exponent, ExponentCertificate):
        sigma = exponent.exponent
    else:
        sigma = exponent
    if sigma < 1:
        raise ValueError(f"exponent must be >= 1, got {sigma}")
    if not math.isfinite(tolerance):
        raise ValueError(f"tolerance must be finite, got {tolerance}")
    if not records:
        raise ValueError("no records to fit")
    p = records[0].p
    if any(r.p != p for r in records):
        raise ValueError("records mix different primes")
    predicted = 1.0 - 1.0 / sigma

    normalized = tuple(
        sorted((r.with_normalization(sigma) for r in records), key=lambda r: (r.m, r.u))
    )
    zero_levels = tuple(r.m for r in normalized if _is_zero_magnitude(r))
    live = [r for r in normalized if not _is_zero_magnitude(r)]

    slope = None
    a_estimate = 0.0
    if live:
        if len(live) < 3:
            raise ValueError(
                f"need at least 3 nonzero magnitudes for a slope fit, got {len(live)}"
            )
        ms = np.array([r.m for r in live], dtype=float)
        logs = np.array([math.log(r.magnitude, p) for r in live])
        slope = float(np.polyfit(ms, logs, 1)[0])
        a_estimate = max(r.normalized for r in normalized)
    return DecayReport(
        exponent=sigma,
        predicted_exponent=predicted,
        fitted_slope=slope,
        a_estimate=a_estimate,
        tolerance=tolerance,
        passed=slope is None or (slope <= predicted + tolerance and math.isfinite(a_estimate)),
        all_zero=not live,
        zero_levels=zero_levels,
        records=normalized,
    )
