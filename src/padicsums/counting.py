"""Point enumeration for plane curves over Z/p^m.

Two independent routes to the same set: `brute_points` decides every cell
of the (Z/p^m)^2 grid, `lift_points` grows solutions digit by digit, using
the one-step Hensel formula at residues where a partial derivative is a
unit and digit pairs elsewhere.  The brute route is the oracle for the
lifting route: they share the evaluator (`BiPoly.horner`) and Y_1, from
the one scan of the p^2 residues (`_residue_zeros`), not the enumeration.
As f(x, y) = f(x mod p, y mod p) mod p for integer coefficients, every
point of Y_m lies above one of Y_1: the grid scan evaluates f mod p^m only
on the cells above Y_1, about a 1/p share of the grid, and a lifted point
reads its residue facts from the lift tables (`_lift_tables`), one row per
point of Y_1.  Smooth points have one Newton division, `_newton_step`, which
lifts points of Y_k to Y_m (k <= m <= 2k) in one exact Hensel step.
It evaluates f once per call: the points where y is solved for and those
where x is sit in two blocks of one array, and each block takes its
correction along its own solved row.  `_lift_to` applies it to the
smooth points as given.  One level of the lifting route is `_lift_step`:
that step at m = k + 1 on the smooth points, each block laid out (p, n)
so that the free digit takes 0..p-1 by broadcasting, and digit pairs at
the singular ones.  It starts from any points of Y_k: the stationary-phase
sums of the expsums module use it to climb their chain of critical classes
and the singular subtrees, and `_lift_to` to take each class to Y_m.  Each
level's size is bounded before it is allocated, smooth * p + singular *
p^2 points, and a level above `_LIFT_LEVEL_CAP` is refused with BudgetError.

The digit-pair step, `_extend_pairs`, also serves the critical-locus
search of the invariants module.  It is first-order Hensel too: on a class
mod p^k, k >= 1, a polynomial is affine in the digit pair (a, b) mod
p^(k+1), so three evaluations per class decide which of its p^2 pairs lift.

A `PointSet` orders and deduplicates its points through one int64 key per
point, x*p^m + y, whose order is exactly the lexicographic order of (x, y).

Point sets and lifting stay in int64; guards cap the modulus so that every
intermediate product provably fits.  Both scans go in blocks of about 2^17
cells, so no array of p^2 cells outlives a block; the brute grid is int32
when q^2 < 2^31, which holds under the default budget.

The module returns point sets and writes nothing; the command line front
end, `padicsums.cli`, owns the text format of `points`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .padic import _check_level
from .polynomials import BiPoly

__all__ = [
    "BudgetError",
    "PointSet",
    "brute_points",
    "lift_levels",
    "lift_points",
]

BRUTE_BUDGET = 10**8
# int64 safety: evaluation reduces mod p^m, so products stay below (p^m)^2.
_VECTOR_MODULUS_CAP = 2**31
# Digit-pair candidates per array pass (128 KB per int64 array).
_PAIR_BLOCK = 2**14
# Grid cells per block of the residue scan and the brute sub-grids (512 KB as int32).
_GRID_BLOCK = 2**17
# Points one lift level may hold (512 MB as a (2, n) int64 array).
_LIFT_LEVEL_CAP = 2**25
_SINGULAR = 2  # the lift tables' kind of a residue where f_x = f_y = 0 mod p


class BudgetError(RuntimeError):
    """Requested enumeration exceeds the configured work or overflow budget."""


@dataclass(frozen=True)
class PointSet:
    """Solutions of f = 0 in (Z/p^m)^2, lexicographically sorted, no duplicates.

    p must be prime and m >= 1, checked first.  Points are sorted and
    deduplicated by the key x*q + y, q = p^m.  Every PointSet has
    q <= 2^31 (the int64 evaluation cap), so keys stay below q^2 <= 2^62
    and fit in int64.
    """

    p: int
    m: int
    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        _check_level(self.p, self.m)
        _check_vector_safe(self.p, self.m)
        q = self.p**self.m
        xs = np.asarray(self.xs, dtype=np.int64)
        ys = np.asarray(self.ys, dtype=np.int64)
        for arr in (xs, ys):
            # read as unsigned, a negative int64 is at least 2^63 > q
            if len(arr) and arr.view(np.uint64).max() >= q:
                raise ValueError(f"coordinates must be canonical residues mod {q}")
        keys = xs * q + ys
        keys.sort()
        if (keys[1:] == keys[:-1]).any():
            raise ValueError("duplicate points in a PointSet")
        xs, ys = np.divmod(keys, q)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def __len__(self) -> int:
        return len(self.xs)

    def same_points(self, other: "PointSet") -> bool:
        return (
            self.p == other.p
            and self.m == other.m
            and len(self) == len(other)
            and bool(np.array_equal(self.xs, other.xs))
            and bool(np.array_equal(self.ys, other.ys))
        )


def _int_dtype(modulus: int):
    """int64 when arithmetic mod `modulus` fits in it, else exact Python ints."""
    return np.int64 if modulus <= _VECTOR_MODULUS_CAP else object


def _check_vector_safe(p: int, m: int) -> None:
    """Refuse (BudgetError) p^m above the int64 evaluation cap before p^m is
    computed, which alone stalls at m = 10^8: |p|^32 exceeds the cap when
    |p| >= 2, so at most 32 factors of p decide.  The message names p^m."""
    if abs(p) ** min(m, 32) > _VECTOR_MODULUS_CAP:
        raise BudgetError(
            f"modulus {p}^{m} exceeds the exact int64 evaluation cap {_VECTOR_MODULUS_CAP}"
        )


def _extend_pairs(polys, xs: np.ndarray, ys: np.ndarray, p: int, k: int):
    """Digit-pair lifts of the classes (xs, ys) mod p^k where all `polys` vanish.

    Returns, as the columns of a (2, n) array, every (x + q a, y + q b),
    q = p^k and a, b in 0..p-1, at which each polynomial is 0 mod p^(k+1),
    ordered by class, then a, then b.  Since k >= 1, q^2 = 0 mod p^(k+1),
    and Taylor's formula has integral coefficients, so

        g(x + q a, y + q b) = g(x, y) + q (a g_x(x, y) + b g_y(x, y))  mod p^(k+1).

    With v0, vx and vy the values of g at (x, y), (x + q, y) and (x, y + q)
    mod p^(k+1), q g_x = vx - v0 and q g_y = vy - v0 there, so g at every
    lift is v0 + a (vx - v0) + b (vy - v0): the pairs that lift solve a
    linear condition mod p, read off three evaluations per class and
    polynomial instead of p^2.  A class where g != 0 mod q has no lift,
    since vx - v0 and vy - v0 are multiples of q.

    The arithmetic runs in the dtype of xs: int64 needs p^(k+1) <= 2^31,
    object arrays of Python ints are exact at any level.  Work goes in
    blocks of about `_PAIR_BLOCK` digit pairs (of one class and a run of
    its digits a when p^2 is larger), so memory stays bounded at any p and
    class count.
    """
    q, q1, pp = p**k, p ** (k + 1), p * p
    found = [np.zeros((2, 0), dtype=xs.dtype)]
    digits = np.arange(p, dtype=xs.dtype)
    steps = q * digits
    rows, span = max(1, _PAIR_BLOCK // pp), max(1, _PAIR_BLOCK // p)
    for start in range(0, len(xs), rows):
        bx, by = xs[start : start + rows], ys[start : start + rows]
        px, py = np.concatenate([bx, bx + q, bx]), np.concatenate([by, by, by + q])
        v = np.array([g.horner(px, py, q1) for g in polys]).reshape(len(polys), 3, -1, 1)
        v0, vx, vy = v.swapaxes(0, 1)  # each (polys, classes, 1)
        # (a, b) lifts where -(v0 + a (vx - v0)) = b (vy - v0) for every g
        want = -(v0 + (vx - v0) * digits) % q1  # (polys, classes, a)
        have = ((vy - v0) * digits % q1)[:, :, None, :]  # (polys, classes, 1, b)
        # a block holds one class whenever it takes more than one run of a;
        # one (2, n) piece per run, as many small long-lived pieces fragment the heap
        for a0 in range(0, p, span):
            cls, a, b = np.nonzero((want[:, :, a0 : a0 + span, None] == have).all(axis=0))
            found.append(np.stack([bx[cls] + steps[a0:][a], by[cls] + steps[b]]))
    return np.concatenate(found, axis=1)


def _residue_zeros(f: BiPoly, p: int):
    """Y_1, the zeros of f mod p: int64 arrays x, y and keys x*p + y, keys increasing.

    The one scan of the p^2 residues: x a column and y a row, in int32 when
    p^2 < 2^31, one run of whole rows (about `_GRID_BLOCK` cells) per
    `BiPoly.horner` call.  A hit's flat index in a run from row x0, plus
    x0*p, is its key.
    """
    dtype = np.int32 if p * p < 2**31 else np.int64
    rows = max(1, _GRID_BLOCK // p)
    ys = np.arange(p, dtype=dtype)[None, :]
    hit, keys = np.empty((min(rows, p), p), dtype=bool), []
    for x0 in range(0, p, rows):
        xs = np.arange(x0, min(x0 + rows, p), dtype=dtype)[:, None]
        # f mod p free of y (or x) gives one column (or row): `out` widens it
        np.equal(f.horner(xs, ys, p), 0, out=hit[: len(xs)])
        keys.append(np.flatnonzero(hit[: len(xs)]) + x0 * p)
    keys = np.concatenate(keys)
    xs, ys = np.divmod(keys, p)
    return xs, ys, keys


def _grid_zeros(f: BiPoly, x0s: np.ndarray, y0s: np.ndarray, step: int, n: int, modulus: int):
    """Zeros mod `modulus` of f on the sub-grids (x0 + step i, y0 + step j), i, j < n.

    There is one n x n sub-grid per residue (x0, y0) of x0s, y0s.  x enters
    as a column and y as a row, of shapes (r, rows, 1) and (r, 1, n) over r
    residues, so the x-Horner steps run once per row and only the y steps
    span the cells.  One `BiPoly.horner` call spans about `_GRID_BLOCK`
    cells: as many whole sub-grids as fit, or runs of one sub-grid's rows
    when it is larger.  Returns the x and y arrays of the zeros, in the
    dtype of x0s, which must hold (modulus - 1)^2 + modulus - 1.
    """
    rows = min(n, max(1, _GRID_BLOCK // n))
    span = max(1, _GRID_BLOCK // (rows * n))
    js = step * np.arange(n, dtype=x0s.dtype)
    found_x, found_y = [x0s[:0]], [y0s[:0]]
    for start in range(0, len(x0s), span):
        bx = x0s[start : start + span, None, None]
        by = y0s[start : start + span, None, None]
        for i0 in range(0, n, rows):
            di = step * np.arange(i0, min(i0 + rows, n), dtype=x0s.dtype)[:, None]
            # f mod modulus free of y (or x) gives one column (or row): widen the mask
            value = f.horner(bx + di, by + js, modulus)
            hit = np.flatnonzero(np.broadcast_to(value == 0, (len(bx), len(di), n)))
            res, cell = np.divmod(hit, len(di) * n)  # np.nonzero of a 3-d mask costs ~7x
            i, j = np.divmod(cell, n)
            found_x.append(bx[res, 0, 0] + di[i, 0])
            found_y.append(by[res, 0, 0] + js[j])
    return np.concatenate(found_x), np.concatenate(found_y)


def brute_points(f: BiPoly, p: int, m: int, budget: int = BRUTE_BUDGET) -> PointSet:
    """Grid oracle: decide every pair in (Z/p^m)^2, in two exact scans.

    f has integer coefficients, so f(x, y) = f(x mod p, y mod p) mod p: a
    cell can vanish mod q = p^m only above a point of Y_1.  The first scan,
    `_residue_zeros`, gives Y_1 (the answer at m = 1).  The second,
    `_grid_zeros`, evaluates f mod q on the q^2/p^2 cells above each point
    of Y_1, and on no other cell: every cell it skips is a proven non-zero,
    so the scan still decides all q^2 cells, and the budget caps that grid.
    It runs in int32 when q^2 < 2^31 (no Horner value exceeds q^2 - q),
    which halves the cost of each multiply-add, else int64.
    """
    _check_level(p, m)
    _check_vector_safe(p, m)
    q = p**m
    if q * q > budget:
        raise BudgetError(
            f"brute enumeration needs {q * q} evaluations, budget is {budget}"
        )
    xs, ys, _ = _residue_zeros(f, p)
    if m > 1:
        dtype = np.int32 if q * q < 2**31 else np.int64
        xs, ys = _grid_zeros(f, xs.astype(dtype), ys.astype(dtype), p, q // p, q)
    return PointSet(p, m, xs, ys)


class _LiftTables(NamedTuple):
    """Y_1 and the residue facts of f at its points, one row per point.

    xs, ys and keys x*p + y are Y_1 in increasing key order.  Per point,
    kind is the coordinate solved for (0: y, f_y a unit mod p; 1: x, only
    f_x is; else `_SINGULAR`) and w = -1/f_s mod p for it (0 if singular).
    """

    p: int
    xs: np.ndarray
    ys: np.ndarray
    keys: np.ndarray
    kind: np.ndarray
    w: np.ndarray


def _lift_tables(f: BiPoly, p: int) -> _LiftTables:
    """The lift tables of f: Y_1 from `_residue_zeros`, under the brute scan's cap
    on the p^2 residues, and the partials of f mod p on Y_1 alone."""
    if p * p > BRUTE_BUDGET:
        raise BudgetError(f"the grid mod {p} has {p * p} cells, budget is {BRUTE_BUDGET}")
    xs, ys, keys = _residue_zeros(f, p)
    fx, fy = f.partial("x").horner(xs, ys, p), f.partial("y").horner(xs, ys, p)
    kind = np.where(fy != 0, 0, np.where(fx != 0, 1, _SINGULAR))
    inv = np.array([0] + [p - pow(v, -1, p) for v in range(1, p)], dtype=np.int64)
    return _LiftTables(p, xs, ys, keys, kind, inv[np.where(kind == 0, fy, fx)])


def _by_solved(tables: _LiftTables, xs: np.ndarray, ys: np.ndarray):
    """The points grouped by solved coordinate: (xs, ys, w, n_y, n_smooth).

    First the n_y points where y is solved for, then those where x is, up
    to n_smooth, then the singular ones, each group in input order; w is
    -1/f_s mod p at each smooth point, from the tables.  Points of one
    kind come back as given.
    """
    # a point keeps its residue mod p, hence its row of the tables, as it lifts
    rows = np.searchsorted(tables.keys, xs % tables.p * tables.p + ys % tables.p)
    kind = tables.kind[rows]
    counts = np.bincount(kind, minlength=_SINGULAR + 1)
    n_y, n_x = int(counts[0]), int(counts[1])
    if counts.max() < len(xs):  # mixed kinds: a stable sort groups them
        order = np.argsort(kind, kind="stable")
        xs, ys, rows = xs[order], ys[order], rows[order]
    return xs, ys, tables.w[rows[: n_y + n_x]], n_y, n_y + n_x


def _newton_step(f: BiPoly, xs, ys, w, n_y: int, p: int, k: int, m: int, tiles: int):
    """Smooth points of Y_k lifted to Y_m in one exact Hensel step, as a (2, n) array.

    y is solved for at the first n_y points, x at the rest; w = -1/f_s
    mod p at each.  With r = m - k <= k, f(P + p^k t) = f(P) + p^k t f_s(P)
    mod p^m along the solved coordinate, so one Newton step
    t = (f(P)/p^k) w mod p^r is exact once w = -1/f_s(P) mod p^r; for
    r >= 2, w doubles its precision by w(2 + f_s w).  With `tiles` = p
    each point's free coordinate first takes the digits 0..p-1 at p^k, so
    the columns are every lift to Y_(k+1); with `tiles` = 1 it stays as
    given.  Each group's columns are tile-major, the y-solved group first,
    and f is evaluated once over all of them.  Only + * % // act on the
    arrays, so any integer dtype serves.
    """
    r = m - k
    q, qr = p**k, p**r
    pts = np.empty((2, tiles * len(xs)), dtype=xs.dtype)
    groups = []
    for solved, lo, hi in ((1, 0, n_y), (0, n_y, len(xs))):
        if hi > lo:
            block = pts[:, tiles * lo : tiles * hi].reshape(2, tiles, hi - lo)
            block[0], block[1] = xs[lo:hi], ys[lo:hi]
            if tiles > 1:
                block[1 - solved] += q * np.arange(tiles, dtype=xs.dtype)[:, None]
            wg = w[lo:hi]
            if r > 1:
                d = f.partial("xy"[solved]).horner(block[0], block[1], qr)
                precision = 1
                while precision < r:
                    wg = wg * ((2 + d * wg) % qr) % qr
                    precision *= 2
            groups.append((solved, lo, hi, block, wg))
    value = f.horner(pts[0], pts[1], p**m) // q
    for solved, lo, hi, block, wg in groups:
        block[solved] += value[tiles * lo : tiles * hi].reshape(tiles, hi - lo) * wg % qr * q
    return pts


def _lift_step(f: BiPoly, xs: np.ndarray, ys: np.ndarray, p: int, k: int, tables):
    """Every lift to level k+1 of the points (xs, ys) of Y_k, as a (2, n) array.

    The smooth points take one `_newton_step` with their free digit tiled
    over 0..p-1.  Where both partials vanish mod p, the first-order term of
    `_extend_pairs` is 0 for every digit pair, so a singular point has all
    p^2 lifts or none.  Columns come as the smooth-y lifts, the smooth-x
    lifts (each digit-major: the digit, then the points in input order),
    then the singular ones; empty input gives a (2, 0) array of its dtype.
    The output has at most smooth * p + singular * p^2 columns; above
    `_LIFT_LEVEL_CAP` the step raises BudgetError before it allocates.
    """
    xs, ys, w, n_y, n_smooth = _by_solved(tables, xs, ys)
    bound = n_smooth * p + (len(xs) - n_smooth) * p * p
    if bound > _LIFT_LEVEL_CAP:
        raise BudgetError(
            f"level {k + 1} may hold {bound} points, the cap is {_LIFT_LEVEL_CAP}"
        )
    columns = []
    if n_smooth:
        columns.append(_newton_step(f, xs[:n_smooth], ys[:n_smooth], w, n_y, p, k, k + 1, p))
    if n_smooth < len(xs):
        columns.append(_extend_pairs((f,), xs[n_smooth:], ys[n_smooth:], p, k))
    if len(columns) == 1:  # one kind of point: no copy of the level
        return columns[0]
    return np.concatenate([np.zeros((2, 0), dtype=xs.dtype)] + columns, axis=1)


def _lift_to(f: BiPoly, xs: np.ndarray, ys: np.ndarray, p: int, k: int, m: int, tables):
    """Each smooth point of Y_k lifted to the point of Y_m on its free coordinate.

    The coordinate solved for is y where f_y is a unit mod p, else x; the
    free one stays as given, so a point reduced mod p^k gets free digits 0
    up to p^m.  One `_newton_step` (r = m - k <= k) lifts them all;
    singular points are left out.  Returns a (2, n) array whose columns
    are the y-solved points, then the x-solved ones, each in input order
    (at m = k, no step: the input as given).
    """
    if m == k:
        return np.stack([xs, ys])
    xs, ys, w, n_y, n_smooth = _by_solved(tables, xs, ys)
    return _newton_step(f, xs[:n_smooth], ys[:n_smooth], w, n_y, p, k, m, 1)


def lift_levels(f: BiPoly, p: int, m: int) -> Iterator[PointSet]:
    """Yield the solution sets mod p, p^2, ..., p^m by digit lifting.

    Level 1 is Y_1 from the lift tables, and each further level is one
    `_lift_step`.  At a residue where a partial of f is a unit mod p each
    point has exactly p lifts, which is what makes the counts grow by
    exactly p per level once every residue in play is smooth.
    """
    _check_level(p, m)
    _check_vector_safe(p, m)
    tables = _lift_tables(f, p)
    xs, ys = tables.xs, tables.ys
    yield PointSet(p, 1, xs, ys)

    for k in range(1, m):
        xs, ys = _lift_step(f, xs, ys, p, k, tables)
        yield PointSet(p, k + 1, xs, ys)


def lift_points(f: BiPoly, p: int, m: int) -> PointSet:
    """Solution set mod p^m via the digit-lifting tree."""
    last = None
    for level in lift_levels(f, p, m):
        last = level
    assert last is not None
    return last
