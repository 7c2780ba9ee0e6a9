"""Test-only references, none of which has a caller in the package.

`count_report` measures the growth law the acceptance criterion on count
stabilization checks; `read_points` parses the text that `padicsums points`
writes, so tests can round-trip it.  `x_series` and `y_series` give a
branch's coordinates as series in t, the reference that
`Parametrization.compose_poly` is tested against, and `branch_point` gives
one point of a branch in Python ints.  `extend_pairs` is the digit-pair
step that tests every candidate, the reference for `counting._extend_pairs`,
and `full_grid_points` the scan that evaluates every cell of (Z/p^m)^2, the
reference for `counting.brute_points`.  `quotient` divides in Z[x, y] by
leading terms, the divisibility check for `polynomials._gcd`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import IO

import numpy as np

from padicsums.counting import _GRID_BLOCK, _PAIR_BLOCK, PointSet, lift_levels
from padicsums.polynomials import BiPoly
from padicsums.series import Parametrization, TruncSeries


@dataclass(frozen=True)
class CountReport:
    """Growth of Card(Y_m) against the p^m law for a range of levels."""

    p: int
    m_values: tuple[int, ...]
    counts: tuple[int, ...]
    ratios: tuple[Fraction, ...]
    density: Fraction
    stabilized: bool
    stable_from: int | None


def count_report(f: BiPoly, p: int, m_max: int) -> CountReport:
    """Counts for m = 1..m_max, consecutive ratios, and the density.

    The density Card(Y_m)/p^m is exact (a Fraction); `stabilized` records
    whether the ratios lock onto p from some level `stable_from` onwards,
    which is the dimension-one growth law for a curve with smooth lifting
    behavior in the tested range.
    """
    counts = [len(level) for level in lift_levels(f, p, m_max)]
    ratios = [Fraction(counts[i + 1], counts[i]) if counts[i] else Fraction(0)
              for i in range(len(counts) - 1)]
    stable_from = None
    for start in range(len(counts)):
        if all(counts[i + 1] == p * counts[i] for i in range(start, len(counts) - 1)):
            stable_from = start + 1  # smallest m with exact p-fold growth onward
            break
    return CountReport(
        p=p,
        m_values=tuple(range(1, m_max + 1)),
        counts=tuple(counts),
        ratios=tuple(ratios),
        density=Fraction(counts[-1], p**m_max),
        stabilized=stable_from is not None,
        stable_from=stable_from,
    )


_HEADER_RE = re.compile(r"^#\s*p=(\d+)\s+m=(\d+)\s+f=(.*)$")


def read_points(fh: IO[str]) -> tuple[PointSet, dict]:
    """Parse `points` output: the set and the '#' header fields."""
    header: dict[str, str] = {}
    xs, ys = [], []
    for line in fh:
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            match = _HEADER_RE.match(line)
            if match:
                header["p"], header["m"], header["f"] = match.groups()
            else:
                key, _, value = line[1:].strip().partition("=")
                header.setdefault(key.strip(), value)
            continue
        sx, _, sy = line.partition(",")
        xs.append(int(sx))
        ys.append(int(sy))
    p, m = int(header["p"]), int(header["m"])
    return PointSet(p, m, np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64)), header


def _t_identity(model: TruncSeries) -> TruncSeries:
    return TruncSeries.from_coeffs([0, 1], model.p, model.n, model.order_cap)


def x_series(param: Parametrization) -> TruncSeries:
    """x0 + h(t) when solving for x, else x0 + t."""
    base = param.series if param.solve_for == "x" else _t_identity(param.series)
    return base + param.anchor.x


def y_series(param: Parametrization) -> TruncSeries:
    """y0 + h(t) when solving for y, else y0 + t."""
    base = param.series if param.solve_for == "y" else _t_identity(param.series)
    return base + param.anchor.y


def branch_point(param: Parametrization, t0: int, q: int) -> tuple[int, int]:
    """branch(t0) mod q, for a q that divides p^n."""
    h = sum(c * t0**k for k, c in enumerate(param.series.coeffs))
    dx, dy = (t0, h) if param.solve_for == "y" else (h, t0)
    return (param.anchor.x + dx) % q, (param.anchor.y + dy) % q


def extend_pairs(polys, xs: np.ndarray, ys: np.ndarray, p: int, k: int):
    """`counting._extend_pairs` by testing every candidate.

    All p^2 digit pairs of every class are tiled, a block of `_PAIR_BLOCK`
    candidates at a time, and each is evaluated mod p^(k+1); the lifts come
    ordered by class, then a, then b.
    """
    q, q1 = p**k, p ** (k + 1)
    found_x, found_y = [xs[:0]], [ys[:0]]
    total = len(xs) * p * p
    for start in range(0, total, _PAIR_BLOCK):
        t = np.arange(start, min(start + _PAIR_BLOCK, total))
        cls = t // (p * p)
        cx = xs[cls] + q * (t // p % p).astype(xs.dtype)
        cy = ys[cls] + q * (t % p).astype(xs.dtype)
        for g in polys:
            hit = g.horner(cx, cy, q1) == 0
            cx, cy = cx[hit], cy[hit]
        found_x.append(cx)
        found_y.append(cy)
    return np.concatenate(found_x), np.concatenate(found_y)


def full_grid_points(f: BiPoly, p: int, m: int) -> PointSet:
    """`counting.brute_points` by evaluating every cell of (Z/p^m)^2.

    A block of x rows (about `_GRID_BLOCK` cells) goes to `BiPoly.horner`
    at a time, x as a column and y as a row; the grid is int32 when
    q^2 < 2^31, q = p^m.  The flat index of a hit in a block starting at
    row x0, plus x0*q, is its key x*q + y.
    """
    q = p**m
    dtype = np.int32 if q * q < 2**31 else np.int64
    ys = np.arange(q, dtype=dtype)[None, :]
    chunk = max(1, _GRID_BLOCK // q)
    keys = []
    for x0 in range(0, q, chunk):
        xs = np.arange(x0, min(x0 + chunk, q), dtype=dtype)[:, None]
        # f mod q free of y (or x) gives one column (or row): widen the mask
        hit = np.broadcast_to(f.horner(xs, ys, q) == 0, (len(xs), q))
        keys.append(np.flatnonzero(hit) + x0 * q)
    keys = np.concatenate(keys)
    return PointSet(p, m, keys // q, keys % q)


def quotient(f: BiPoly, d: BiPoly) -> BiPoly | None:
    """f / d when the nonzero d divides f in Z[x, y], else None.

    Division by leading terms in lex order with y > x: a multiple of d
    has a leading term divisible by d's, so the remainder stays a
    multiple until it is 0, or its leading term shows that d does not
    divide f.  Each step lowers the leading term, so the loop ends.
    """
    order = lambda k: (k[1], k[0])  # noqa: E731
    lead = max(d.terms, key=order)
    rest, q = f, BiPoly()
    while not rest.is_zero:
        (i, j), c = max(rest.terms.items(), key=lambda kc: order(kc[0]))
        i, j = i - lead[0], j - lead[1]
        if i < 0 or j < 0 or c % d.terms[lead]:
            return None
        term = BiPoly({(i, j): c // d.terms[lead]})
        q, rest = q + term, rest - term * d
    return q
