"""Point enumeration: brute grid scan vs digit-lifting, growth, the points text."""

import collections
import contextlib
import io
import itertools
import json
import math
import tracemalloc
from fractions import Fraction
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from padicsums import cli, counting
from padicsums.counting import (
    BudgetError,
    PointSet,
    brute_points,
    lift_levels,
    lift_points,
)
from padicsums.counting import (
    _GRID_BLOCK,
    _PAIR_BLOCK,
    _extend_pairs,
    _lift_step,
    _lift_tables,
    _lift_to,
)
from padicsums.invariants import _extend_classes
from padicsums.polynomials import BiPoly, parse_poly
from references import count_report, extend_pairs, full_grid_points, read_points


def pairs(ps):
    """The points of a PointSet as (x, y) tuples of Python ints, in order."""
    return list(zip(ps.xs.tolist(), ps.ys.tolist()))


def grid_oracle(f, p, m):
    """The definition, written as plainly as possible."""
    q = p**m
    return sorted(
        (x, y) for x in range(q) for y in range(q) if f.evaluate(x, y) % q == 0
    )


# -- PointSet container -----------------------------------------------------------


def test_pointset_sorts_and_validates():
    ps = PointSet(5, 1, np.array([3, 0, 1]), np.array([4, 0, 2]))
    assert pairs(ps) == [(0, 0), (1, 2), (3, 4)]
    assert len(ps) == 3


def test_pointset_rejects_duplicates_and_out_of_range():
    with pytest.raises(ValueError):
        PointSet(5, 1, np.array([1, 1]), np.array([2, 2]))
    with pytest.raises(ValueError):
        PointSet(5, 1, np.array([5]), np.array([0]))


@pytest.mark.parametrize(
    "xs, ys, message",
    [
        ([0, -1], [3, 4], "canonical residues mod 125"),  # negative x
        ([2, 3], [-(2**40), 4], "canonical residues mod 125"),  # negative y, far below
        ([125, 3], [0, 4], "canonical residues mod 125"),  # x = q
        ([3, 7], [4, 125], "canonical residues mod 125"),  # y = q
        ([4, 3, 4], [9, 9, 9], "duplicate points"),  # not adjacent until sorted
    ],
)
def test_pointset_refuses_bad_coordinates_and_duplicates(xs, ys, message):
    with pytest.raises(ValueError, match=message):
        PointSet(5, 3, np.array(xs), np.array(ys))


def test_pointset_key_order_at_the_cap():
    top = 2**31 - 1
    ps = PointSet(2, 31, np.array([top, 0, top]), np.array([0, top, top]))
    assert pairs(ps) == [(0, top), (top, 0), (top, top)]


def test_pointset_rejects_modulus_above_cap():
    empty = np.empty(0, dtype=np.int64)
    with pytest.raises(BudgetError):
        PointSet(2, 32, empty, empty)


# -- frozen small cases -------------------------------------------------------------


def test_hyperbola_mod_4():
    f = parse_poly("x*y - 1")
    assert pairs(lift_points(f, 2, 2)) == [(1, 1), (3, 3)]
    assert pairs(brute_points(f, 2, 2)) == [(1, 1), (3, 3)]


def test_circle_mod_3():
    # x^2 + y^2 = 2 mod 3 forces both coordinates nonzero
    f = parse_poly("x^2 + y^2 + 1")
    assert pairs(brute_points(f, 3, 1)) == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_unit_group_count():
    # xy = 1 has exactly phi(p^m) solutions
    f = parse_poly("x*y - 1")
    for p, m in ((3, 3), (5, 2), (7, 2)):
        assert len(lift_points(f, p, m)) == p ** (m - 1) * (p - 1)


def test_empty_curve():
    f = parse_poly("x^2 + 3*y^2 + 3")  # x^2 = -3(1 + y^2) is 0 mod 3 only if 3 | x
    counts = [len(level) for level in lift_levels(f, 3, 3)]
    assert counts == [3, 0, 0]


# -- the two enumerations agree -------------------------------------------------------


CORPUS = [
    "y - x^2",
    "y - x^3",
    "x - y^3",
    "x*y - 1",
    "y^2 - x^3",
    "y^2 - x^3 - x",
    "x^2 + y^2 + 1",
    "y^2 - x^3 - 25",
    "y - x - x*y",
    "3*y + x^2",
    "x^3 + y^3 - 1",
    "y^2 - 2*x^4 + x",
    "5*x + y^2",
    "3*x*y + 3",
    "3*x*y + 1",
]


@pytest.mark.parametrize("text", CORPUS)
@pytest.mark.parametrize("p", [2, 3, 5])
def test_lift_matches_brute_and_grid(text, p):
    f = parse_poly(text)
    for m in range(1, 4):
        if p ** (2 * m) > 10**5:
            continue
        lifted = lift_points(f, p, m)
        brute = brute_points(f, p, m)
        assert lifted.same_points(brute), (text, p, m)
        assert pairs(lifted) == grid_oracle(f, p, m), (text, p, m)


class HornerCall(NamedTuple):
    x: tuple
    y: tuple
    dtype: object  # of the array operands; None when neither is an array
    modulus: int | None
    poly: BiPoly


@contextlib.contextmanager
def horner_calls():
    """Record a `HornerCall` for each `BiPoly.horner` call, any operands."""
    calls = []
    horner = BiPoly.horner

    def spy(self, x, y, modulus=None):
        arrays = [a for a in (x, y) if isinstance(a, np.ndarray)]
        dtype = np.result_type(*arrays) if arrays else None
        calls.append(HornerCall(np.shape(x), np.shape(y), dtype, modulus, self))
        return horner(self, x, y, modulus)

    with mock.patch.object(BiPoly, "horner", spy):
        yield calls


def cells(call):
    """The number of cells one recorded `BiPoly.horner` call evaluates."""
    return math.prod(np.broadcast_shapes(call[0], call[1]))


def split_calls(calls, f):
    """The recorded calls on f itself, and those on other polynomials."""
    return [c for c in calls if c.poly is f], [c for c in calls if c.poly is not f]


def tables_calls(f, p, kept):
    """The calls that build the lift tables of f mod p: f_x, then f_y, each
    over the `kept` points of Y_1 as int64 arrays."""
    n = (kept,)
    return [(n, n, np.int64, p, f.partial("x")), (n, n, np.int64, p, f.partial("y"))]


def test_brute_points_matches_a_scalar_scan_over_uneven_blocks():
    # q = 729: Y_1 holds 3 residues, each under a 243 x 243 sub-grid mod q;
    # two sub-grids fit in a block, so the last block holds one
    f = parse_poly("y^2 - x^3 - x")
    assert _GRID_BLOCK // 243**2 == 2
    with horner_calls() as calls:
        found = pairs(brute_points(f, 3, 6))
        assert pairs(brute_points(f, 3, 1)) == grid_oracle(f, 3, 1)
    calls, others = split_calls(calls, f)
    assert others == tables_calls(f, 3, 3)  # once per polynomial and prime
    assert [c[:2] for c in calls] == [
        ((1, 3, 1), (1, 1, 3)),  # the p^2 residues: the one sub-grid at the origin
        ((2, 243, 1), (2, 1, 243)),
        ((1, 243, 1), (1, 1, 243)),
    ]
    assert [c[2:4] for c in calls] == [(np.int32, 3), (np.int32, 729), (np.int32, 729)]
    assert len(found) == 729
    assert found == grid_oracle(f, 3, 6)


@pytest.mark.parametrize(
    "text, p, m, kept",
    [
        ("3*x*y + 3", 3, 3, 9),  # f = 0 mod p: every residue is kept
        ("x^2 - 2", 5, 3, 0),  # 2 is no square mod 5: Y_1 is empty
        ("y^2 - x^3 - x", 2, 10, 2),  # (q/p)^2 = 2^18 cells: runs of 256 rows
    ],
)
def test_brute_points_evaluates_only_the_cells_above_y1(text, p, m, kept):
    f = parse_poly(text)
    q, n = p**m, p ** (m - 1)
    with horner_calls() as calls:
        got = brute_points(f, p, m)
    calls, others = split_calls(calls, f)
    assert others == tables_calls(f, p, kept)
    assert len(full_grid_points(f, p, 1)) == kept
    assert got.same_points(full_grid_points(f, p, m))
    if q <= 125:
        assert pairs(got) == grid_oracle(f, p, m)
    sizes = [cells(c) for c in calls]
    assert sizes[0] == p * p and sum(sizes) == p * p + kept * n * n
    assert max(sizes) <= _GRID_BLOCK


@st.composite
def brute_inputs(draw):
    """A random f (sometimes 0 mod p), a level with q <= 64, and a block size."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    m = draw(st.integers(1, max(j for j in range(1, 7) if p**j <= 64)))
    scale = draw(st.sampled_from([1, 1, p]))
    terms = draw(
        st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            st.integers(-30, 30).filter(bool),
            max_size=5,
        )
    )
    f = BiPoly({e: scale * c for e, c in terms.items()})
    block = draw(st.sampled_from([_GRID_BLOCK, 1]) | st.integers(2, 300))
    return f, p, m, block


@settings(max_examples=150, deadline=None)
@given(brute_inputs())
def test_brute_points_matches_the_full_grid_scan(case):
    # small blocks split the residues into batches and sub-grids into row runs
    f, p, m, block = case
    n = p ** (m - 1)
    with mock.patch.object(counting, "_GRID_BLOCK", block), horner_calls() as calls:
        got = brute_points(f, p, m)
    assert pairs(got) == pairs(full_grid_points(f, p, m)) == grid_oracle(f, p, m)
    kept = len(full_grid_points(f, p, 1))
    calls, others = split_calls(calls, f)
    assert others == tables_calls(f, p, kept)
    sizes = [cells(c) for c in calls]
    # at m = 1 the residue scan is the answer
    assert sum(sizes) == p * p + (kept * n * n if m > 1 else 0)
    for c, size in zip(calls, sizes):
        assert size <= max(block, c[1][-1])  # a block, or one row when a row is longer
        assert c[0][-1] == 1 and c[1][-2] == 1  # x a column, y a row


@pytest.mark.parametrize("text, p", [("x^2 - 2", 5), ("x - y^2", 3)])
def test_lift_matches_brute_with_empty_fibers(text, p):
    # x^2 - 2 has no point mod 5 (2 is not a square); x - y^2 at p = 3 is
    # smooth in x alone where 3 | y, smooth in y elsewhere
    f = parse_poly(text)
    for level in lift_levels(f, p, 5):
        assert level.same_points(brute_points(f, p, level.m)), (text, level.m)


def test_lift_step_of_no_points():
    f = parse_poly("y^2 - x^3")
    empty = np.zeros(0, dtype=np.int64)
    out = _lift_step(f, empty, empty, 5, 2)
    assert out.shape == (2, 0) and out.dtype == np.int64


def test_smooth_lifts_test_no_digit_pairs(monkeypatch):
    # y - x^2 has f_y = 1: level 1 comes from the lift tables and every
    # further level from Newton steps, so no digit pair is tested
    calls = []

    def spy(polys, xs, ys, p, k):
        calls.append(k)
        return _extend_pairs(polys, xs, ys, p, k)

    monkeypatch.setattr(counting, "_extend_pairs", spy)
    assert len(lift_points(parse_poly("y - x^2"), 5, 4)) == 5**4
    assert calls == []


def test_lift_handles_singular_residues():
    # (0, 0) mod 5 is singular on y^2 = x^3; the tree must still be exact
    f = parse_poly("y^2 - x^3")
    for m in (2, 3, 4):
        assert lift_points(f, 5, m).same_points(brute_points(f, 5, m))


def test_lift_levels_are_consistent_projections():
    f = parse_poly("y^2 - x^3 - x")
    levels = list(lift_levels(f, 3, 4))
    for k in range(1, 4):
        higher = {(x % 3**k, y % 3**k) for x, y in pairs(levels[k])}
        assert higher <= set(pairs(levels[k - 1]))


def scalar_lift_step(f, points, p, k):
    """`_lift_step` in Python ints: each solved digit found by trying all p."""
    q, q1 = p**k, p ** (k + 1)
    fx, fy = f.partial("x"), f.partial("y")
    smooth_y, smooth_x, singular = [], [], []
    for x, y in points:
        if fy.evaluate(x, y) % p:
            smooth_y.append((x, y))
        elif fx.evaluate(x, y) % p:
            smooth_x.append((x, y))
        else:
            singular.append((x, y))
    columns = []
    for a in range(p):  # digit-major: the free digit a, then the points in order
        for x, y in smooth_y:
            (b,) = [b for b in range(p) if f.evaluate(x + q * a, y + q * b) % q1 == 0]
            columns.append((x + q * a, y + q * b))
    for a in range(p):
        for x, y in smooth_x:
            (b,) = [b for b in range(p) if f.evaluate(x + q * b, y + q * a) % q1 == 0]
            columns.append((x + q * b, y + q * a))
    for x, y in singular:  # by class, then a, then b
        for a in range(p):
            columns += [(x + q * a, y + q * b) for b in range(p)
                        if f.evaluate(x + q * a, y + q * b) % q1 == 0]
    return columns


@pytest.mark.parametrize("text", ["y^2 - x^3", "x - y^2", "x*y - 1", "y^2 - x^3 - x"])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_lift_step_matches_a_scalar_digit_search_in_column_order(text, p):
    # the curves mix residues where y is solved for, where x is, and singular ones
    f = parse_poly(text)
    rng = np.random.default_rng(0)
    for k in (1, 2, 3):
        level = lift_points(f, p, k)
        order = rng.permutation(len(level))  # columns follow the input order
        xs, ys = level.xs[order], level.ys[order]
        got = _lift_step(f, xs, ys, p, k)
        want = scalar_lift_step(f, list(zip(xs.tolist(), ys.tolist())), p, k)
        assert list(zip(got[0].tolist(), got[1].tolist())) == want, k


@pytest.mark.parametrize(
    "text,p",
    # both solved coordinates at one level; a singular residue, (0, 0) mod 7
    [("x^3 + y^3 - 1", 7), ("y^2 - x^3 - 49", 7), ("x^2 + y^2 + 1", 5)],
)
def test_lift_step_keeps_column_order_with_mixed_residues(text, p):
    f = parse_poly(text)
    rng = np.random.default_rng(1)
    for k in (1, 2):
        level = lift_points(f, p, k)
        order = rng.permutation(len(level))
        xs, ys = level.xs[order], level.ys[order]
        got = _lift_step(f, xs, ys, p, k)
        want = scalar_lift_step(f, list(zip(xs.tolist(), ys.tolist())), p, k)
        assert list(zip(got[0].tolist(), got[1].tolist())) == want, k


def test_level_one_comes_from_the_lift_tables():
    # the tables' Y_1 is the reference digit-pair scan of the one class mod
    # p^0 and the full grid scan mod p, in the same (key) order
    for text, p in [("x^3 + y^3 - 1", 7), ("y^2 - x^3", 5), ("x^2 - 2", 5), ("3*x*y + 3", 3)]:
        f = parse_poly(text)
        origin = np.zeros(1, dtype=np.int64)
        want = list(zip(*(c.tolist() for c in extend_pairs((f,), origin, origin, p, 0))))
        tables = _lift_tables(f, p)
        assert pairs(tables) == want == pairs(full_grid_points(f, p, 1))
        assert tables.keys.tolist() == [x * p + y for x, y in want]


@pytest.mark.parametrize(
    "text,p,kinds",
    # kind 0: y solved for, 1: x only (3 | y on x - y^2, (4, 0) on the node),
    # 2: singular ((0, 0) on the cusp and the node, every residue of 3*x*y + 3)
    [("x - y^2", 3, {0, 1}), ("y^2 - x^3", 5, {0, 2}), ("x^3 + y^3 - 1", 7, {0, 1}),
     ("y^2 - x^3 - x^2", 5, {0, 1, 2}), ("3*x*y + 3", 3, {2}), ("x*y - 1", 11, {0})],
)
def test_lift_table_kinds_and_inverses_match_the_partials(text, p, kinds):
    f = parse_poly(text)
    tables = _lift_tables(f, p)
    assert len(tables.xs) == len(full_grid_points(f, p, 1))
    assert set(tables.kind.tolist()) == kinds
    rows = zip(*(a.tolist() for a in (tables.xs, tables.ys, tables.kind, tables.w)))
    for x, y, kind, w in rows:
        fx, fy = f.partial("x").evaluate(x, y) % p, f.partial("y").evaluate(x, y) % p
        assert kind == (0 if fy else 1 if fx else 2), (x, y)
        solved = (fy, fx, None)[kind]
        assert w == (0 if solved is None else -pow(solved, -1, p) % p), (x, y)


def test_lift_tables_scan_the_residues_in_blocks():
    # p = 1009: 1,018,081 residues, about 7.8 blocks; the partials are
    # evaluated on the 1009 points of Y_1 alone
    f = parse_poly("y - x^2")
    with horner_calls() as calls:
        tables = _lift_tables(f, 1009)
    assert len(tables.xs) == 1009
    assert max(cells(c) for c in calls) <= _GRID_BLOCK
    assert sum(cells(c) for c in calls) == 1009**2 + 2 * 1009


def test_lift_points_at_a_large_prime_keeps_no_grid_in_memory():
    # one int64 array over the 1,018,081 residues mod 1009 takes 7.8 MiB, so
    # a lower peak shows that no array of p^2 cells is held
    f = parse_poly("y - x^2")
    tracemalloc.start()
    try:
        got = lift_points(f, 1009, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(got) == 1009
    assert peak < 8 * 2**20


@contextlib.contextmanager
def residue_scans():
    """Count, per modulus p, the `BiPoly.horner` calls over all p^2 residues mod p."""
    scans = collections.Counter()
    horner = BiPoly.horner

    def spy(self, x, y, modulus=None):
        if modulus is not None and np.broadcast(x, y).size == modulus**2:
            scans[modulus] += 1
        return horner(self, x, y, modulus)

    with mock.patch.object(BiPoly, "horner", spy):
        yield scans


def test_verify_scans_the_residues_once():
    # decay_records and contact_exponent both read Y_1 of the one parsed f
    with residue_scans() as scans, contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["verify", "--p", "5", "--m", "3..8", "--f", "y - x^2", "--g", "y"])
    assert (code, scans[5]) == (0, 1)


def test_brute_and_lift_on_one_polynomial_scan_the_residues_once():
    f = parse_poly("x^3 + y^3 - 1")
    with residue_scans() as scans:
        brute = brute_points(f, 7, 3)
        assert scans[7] == 1
        lift = lift_points(f, 7, 3)
        assert scans[7] == 1
        assert lift.same_points(brute)
        # another prime is another scan, once
        assert lift_points(f, 5, 2).same_points(brute_points(f, 5, 2))
        assert scans == {7: 1, 5: 1}


def test_a_fresh_parse_scans_the_residues_again():
    # Y_1 is kept on the polynomial object, not in a cache keyed by its terms
    with residue_scans() as scans:
        f = parse_poly("y - x^2")
        lift_points(f, 5, 2)
        lift_points(f, 5, 3)
        assert scans[5] == 1
        g = parse_poly("y - x^2")
        assert g == f
        assert lift_points(g, 5, 3).same_points(lift_points(f, 5, 3))
        assert scans[5] == 2


def test_the_kept_residues_are_read_only():
    f = parse_poly("y^2 - x^3 - x^2")
    before = pairs(brute_points(f, 5, 1))
    tables = _lift_tables(f, 5)
    for arr in (tables.xs, tables.ys):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1
    assert pairs(brute_points(f, 5, 1)) == before == pairs(full_grid_points(f, 5, 1))


@contextlib.contextmanager
def tables_built():
    """Count the lift tables `counting` builds (one `_LiftTables` per build)."""
    built = []
    real = counting._LiftTables

    def spy(*fields):
        built.append(fields)
        return real(*fields)

    with mock.patch.object(counting, "_LiftTables", spy):
        yield built


def test_verify_builds_the_lift_tables_once():
    # decay_records and contact_exponent read the tables of the one parsed f;
    # the BiPoly operands of contact_order's series reach the horner spy too
    with tables_built() as built, horner_calls() as calls:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["verify", "--p", "5", "--m", "3..8", "--f", "y - x^2", "--g", "y"])
    assert (code, len(built)) == (0, 1)
    assert any(isinstance(c.poly, BiPoly) and c.dtype is None for c in calls)


def test_brute_and_lift_on_one_polynomial_build_the_tables_once():
    f = parse_poly("y^2 - x^3 - x^2")
    with tables_built() as built:
        brute = brute_points(f, 5, 3)
        assert len(built) == 1
        assert lift_points(f, 5, 3).same_points(brute)
        assert len(built) == 1
        g = parse_poly("y^2 - x^3 - x^2")  # a fresh parse builds its own
        assert lift_points(g, 5, 3).same_points(brute)
        assert len(built) == 2


def test_every_array_of_the_tables_is_read_only():
    f = parse_poly("y^2 - x^3 - x^2")  # kinds 0, 1 and 2 at p = 5
    tables = _lift_tables(f, 5)
    assert _lift_tables(f, 5) is tables
    for arr in tables:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1
    want = pairs(full_grid_points(f, 5, 1))
    assert pairs(tables) == pairs(brute_points(f, 5, 1)) == want


def test_the_tables_keep_their_cap_and_the_brute_scan_its_budget(monkeypatch):
    # the tables refuse p^2 > BRUTE_BUDGET even when Y_1 is already kept;
    # brute_points scans under its own budget alone
    monkeypatch.setattr(counting, "BRUTE_BUDGET", 48)
    f = parse_poly("y - x^2")
    assert len(brute_points(f, 7, 1, budget=49)) == 7
    with pytest.raises(BudgetError, match="^the grid mod 7 has 49 cells, budget is 48$"):
        _lift_tables(f, 7)
    assert len(_lift_tables(f, 5).xs) == 5


def test_lift_level_cap_refuses_before_any_lift(monkeypatch):
    # y^2 - x^3 at p = 5: Y_3 has 100 smooth and 125 singular points, so level
    # 4 may hold 100 * 5 + 125 * 25 = 3625; the refusal comes before either
    # lift runs
    calls = []
    for name in ("_newton_step", "_extend_pairs"):
        real = getattr(counting, name)
        monkeypatch.setattr(
            counting, name, lambda *a, real=real, name=name: calls.append(name) or real(*a)
        )
    monkeypatch.setattr(counting, "_LIFT_LEVEL_CAP", 3624)
    f = parse_poly("y^2 - x^3")
    levels = lift_levels(f, 5, 6)
    assert [len(next(levels)) for _ in range(3)] == [5, 45, 225]
    done = len(calls)
    assert {"_newton_step", "_extend_pairs"} <= set(calls)
    with pytest.raises(BudgetError, match="level 4 may hold 3625 points, the cap is 3624"):
        next(levels)
    assert len(calls) == done
    monkeypatch.setattr(counting, "_LIFT_LEVEL_CAP", 3625)
    assert len(lift_points(f, 5, 4)) == len(brute_points(f, 5, 4))


def test_verify_above_the_lift_level_cap_exits_two(monkeypatch, capsys):
    # with the cap at 2^25 points, the singular subtree of the cusp at p = 5
    # is refused at level 9 of m = 3..10 (it used to grow to gigabytes)
    monkeypatch.setattr(counting, "_LIFT_LEVEL_CAP", 10**4)
    code = cli.main(["verify", "--p", "5", "--m", "3..10", "--f", "y^2 - x^3", "--g", "y"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert "may hold" in err and "the cap is 10000" in err


def zero_digit_lifts(f, xs, ys, p, k, m):
    """m - k steps of `_lift_step`, each keeping the lift whose free digit is 0."""
    for j in range(k, m):
        xs, ys = _lift_step(f, xs, ys, p, j)
        fy_red = f.partial("y").horner(xs, ys, p)
        free = np.where(fy_red != 0, xs, ys)  # x when y is solved for, else y
        xs, ys = xs[free < p**j], ys[free < p**j]
    return xs, ys


@pytest.mark.parametrize(
    "text,p",
    # y solved for everywhere, x everywhere, and both (x where y = 0 mod 3)
    [("y - x^2", 2), ("y - x^2", 3), ("x - y^2", 2), ("x - y^2", 3)],
)
def test_newton_lift_matches_the_zero_digit_loop(text, p):
    f, k = parse_poly(text), 4
    top = lift_points(f, p, k)
    for m in range(k, 2 * k + 1):  # r = 0..4: the inverse doubles 0, 1 and 2 times
        got = _lift_to(f, top.xs, top.ys, p, k, m)
        want = zero_digit_lifts(f, top.xs, top.ys, p, k, m)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert (f.horner(got[0], got[1], p**m) == 0).all()


def test_brute_budget():
    f = parse_poly("y - x^2")
    with pytest.raises(BudgetError):
        brute_points(f, 5, 4, budget=100)


def point_set(f, p, m):
    """A PointSet of the point (0, 0) at (p, m); f is not read."""
    return PointSet(p, m, np.array([0]), np.array([0]))


@pytest.mark.parametrize(
    "enumerate_, p, m, message",
    [
        (brute_points, 4, 2, "p must be prime, got 4"),
        (brute_points, -3, 1, "p must be prime, got -3"),
        (brute_points, 5, 0, "level must be >= 1, got 0"),
        (lift_points, 0, 1, "p must be prime, got 0"),
        (lift_points, 4, 2, "p must be prime, got 4"),
        (lift_points, 5, 0, "level must be >= 1, got 0"),
        (count_report, 1, 3, "p must be prime, got 1"),
        (point_set, 4, 1, "p must be prime, got 4"),
        (point_set, 5, 0, "level must be >= 1, got 0"),
    ],
)
def test_enumerations_refuse_a_bad_p_or_level(enumerate_, p, m, message):
    with pytest.raises(ValueError, match=message):
        enumerate_(parse_poly("y - x^2"), p, m)


def test_lift_refuses_a_level_one_grid_above_the_brute_cap():
    # p^2 > 10^8 residues: the level-1 scan and the partial tables are refused
    with pytest.raises(BudgetError, match="budget is 100000000"):
        lift_points(parse_poly("y - x^2"), 1000003, 1)


# -- growth and stabilization -----------------------------------------------------------


def test_smooth_curve_counts_grow_by_p():
    rep = count_report(parse_poly("y - x^3"), 5, 5)
    assert rep.counts == (5, 25, 125, 625, 3125)
    assert rep.stabilized and rep.stable_from == 1
    assert all(r == 5 for r in rep.ratios)
    assert rep.density == Fraction(1)


def test_singular_curve_stabilizes_later():
    # y^2 = x^3 + 49 over Z_7 has a depth-1 point at (0, 7)
    rep = count_report(parse_poly("y^2 - x^3 - 49"), 7, 6)
    assert rep.stabilized
    assert 1 < rep.stable_from <= 4
    for i in range(rep.stable_from - 1, len(rep.counts) - 1):
        assert rep.counts[i + 1] == 7 * rep.counts[i]
    assert rep.density == Fraction(rep.counts[-1], 7**6)


def test_report_of_empty_curve():
    rep = count_report(parse_poly("x^2 + 3*y^2 + 3"), 3, 4)
    assert rep.counts == (3, 0, 0, 0)
    assert rep.stabilized and rep.stable_from == 2
    assert rep.density == 0


# -- simultaneous systems ------------------------------------------------------------


def test_system_tree_matches_direct_scan():
    f = parse_poly("y - x^2")
    j = parse_poly("2*x")  # critical locus of (f, y): x = 0 on the curve

    def direct(k):
        q = 5**k
        return [
            (x, y)
            for x in range(q)
            for y in range(q)
            if f.evaluate(x, y) % q == 0 and j.evaluate(x, y) % q == 0
        ]

    xs, ys = (np.array(c, dtype=np.int64) for c in zip(*direct(1)))
    for k in (1, 2):
        xs, ys = _extend_classes([f, j], xs, ys, 5, k, budget=200_000)
        assert sorted(zip(xs.tolist(), ys.tolist())) == direct(k + 1)


def test_digit_pair_step_keeps_class_order_across_blocks():
    # 2401 classes mod 7^2 give 117,649 candidates: several blocks.
    f = parse_poly("y - x^2 + 3*x*y")
    p, k = 7, 2
    q, q1 = p**k, p ** (k + 1)
    classes = [(x, y) for x in range(q) for y in range(q)]
    xs = np.array([x for x, _ in classes], dtype=np.int64)
    ys = np.array([y for _, y in classes], dtype=np.int64)
    cx, cy = _extend_pairs((f,), xs, ys, p, k)
    want = [
        (x + q * a, y + q * b)
        for x, y in classes
        for a in range(p)
        for b in range(p)
        if f.evaluate(x + q * a, y + q * b, q1) == 0
    ]
    assert len(classes) * p * p > 4 * _PAIR_BLOCK
    assert list(zip(cx.tolist(), cy.tolist())) == want


@st.composite
def pair_step_inputs(draw):
    """One or two polynomials through an exact point, and classes mod p^k near it.

    Each polynomial is h - h(x0, y0) for a random h, so the class of
    (x0, y0) lifts; the other classes are (x0 + p^i u, y0 + p^j w), and
    those where some polynomial is nonzero mod p^k must die.  Deep cases
    take object arrays with p^(k+1) > 2^31; the others int64 or object,
    their classes sometimes tiled over several `_PAIR_BLOCK` blocks.
    """
    p = draw(st.sampled_from([2, 3, 5, 7]))
    deep = draw(st.booleans())
    if deep:
        k = next(j for j in itertools.count(1) if p ** (j + 1) > 2**31) + draw(st.integers(0, 2))
    else:
        k = draw(st.integers(1, 4))
    q = p**k
    x0, y0 = draw(st.integers(-(10**6), 10**6)), draw(st.integers(-(10**6), 10**6))
    terms = st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.integers(-9, 9).filter(bool),
        min_size=1,
        max_size=5,
    )
    polys = []
    for _ in range(draw(st.integers(1, 2))):
        h = BiPoly(draw(terms))
        polys.append(h - BiPoly.constant(h.evaluate(x0, y0)))
    near = (st.integers(0, k), st.integers(-50, 50))  # (i, u) or (j, w)
    classes = [(0, 0, 0, 0)] + draw(st.lists(st.tuples(*near, *near), max_size=12))
    xs = [(x0 + p**i * u) % q for i, u, _, _ in classes]
    ys = [(y0 + p**j * w) % q for _, _, j, w in classes]
    dtype = object if deep or draw(st.booleans()) else np.int64
    tiles = 1
    if dtype is np.int64 and draw(st.booleans()):
        tiles = 3 * _PAIR_BLOCK // (p * p * len(xs)) + 1
    xs, ys = (np.tile(np.array(c, dtype=dtype), tiles) for c in (xs, ys))
    return tuple(polys), xs, ys, p, k


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pair_step_inputs())
def test_digit_pair_step_matches_the_candidate_scan(case):
    # the Hensel-linear step against the reference that evaluates every pair
    polys, xs, ys, p, k = case
    got, want = _extend_pairs(polys, xs, ys, p, k), extend_pairs(polys, xs, ys, p, k)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert g.tolist() == w.tolist()
    assert len(want[0])  # the class of the exact point lifts


@pytest.mark.parametrize("p, m", [(2, 8), (5, 4)])
def test_a_singular_point_has_all_or_none_of_its_lifts(p, m):
    # both partials of y^2 - x^3 vanish mod p at (0, 0), so the first-order
    # term of the digit-pair step is 0 on every pair there
    f = parse_poly("y^2 - x^3")
    sx, sy = _lift_tables(f, p).points(singular=True)
    assert (sx.tolist(), sy.tolist()) == ([0], [0])  # the one singular point of Y_1
    for k in range(1, m):
        level, above = brute_points(f, p, k), brute_points(f, p, k + 1)
        fx_red, fy_red = (f.partial(v).horner(level.xs, level.ys, p) for v in "xy")
        singular = (fx_red == 0) & (fy_red == 0)
        assert singular.any()
        lifts = {}
        for x, y in pairs(above):
            lifts.setdefault((x % p**k, y % p**k), []).append((x, y))
        for x, y in zip(level.xs[singular].tolist(), level.ys[singular].tolist()):
            assert len(lifts.get((x, y), [])) in (0, p * p), (k, x, y)
        cx, cy = _extend_pairs((f,), level.xs[singular], level.ys[singular], p, k)
        want = sorted(pt for pt in pairs(above) if pt[0] % p == 0 and pt[1] % p == 0)
        assert sorted(zip(cx.tolist(), cy.tolist())) == want


def test_system_tree_budget():
    f = parse_poly("y - x^2")
    with pytest.raises(BudgetError):
        _extend_classes([f], np.array([0, 1]), np.array([0, 1]), 5, 1, budget=10)


# -- serialization ---------------------------------------------------------------------


def test_write_read_round_trip(capsys):
    # the CLI writes the points; the test-only reader parses them back
    f = parse_poly("y - x^2")
    assert cli.main(["points", "--p", "5", "--m", "2", "--f", "y - x^2"]) == 0
    back, header = read_points(io.StringIO(capsys.readouterr().out))
    assert back.same_points(lift_points(f, 5, 2))
    assert (header["p"], header["m"]) == ("5", "2")
    assert header["f"] == str(f)  # survives spaces in the polynomial text
    assert json.loads(header["config"])["command"] == "points"


def test_read_points_parses_canonical_header():
    text = "# p=3 m=2 f=-x^2 + y\n0,0\n1,1\n4,7\n"
    ps, header = read_points(io.StringIO(text))
    assert header["f"] == "-x^2 + y"
    assert pairs(ps) == [(0, 0), (1, 1), (4, 7)]
    assert ps.p == 3 and ps.m == 2
