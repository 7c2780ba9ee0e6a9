"""Tracing from outside the program: wrap its public functions, record spans.

`Tracer.install` replaces each traced function in every padicsums module
that binds it (the name the calling module looks up), and each traced
method on its class; `uninstall` puts the originals back.  Coarse calls
become spans (name, start, end, parent, case id) kept in memory; hot leaf
calls (BiPoly.evaluate, additive_char, point_depth, certify_point) only bump
counters, so that tracing a pass does not store a million spans.

A span's self time is its duration minus the time covered by its child
spans.  Time in a leaf call that is not a span counts as its caller's.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter

# (module, attribute, span name); generators get one span per next().
SPANS = [
    ("cli", "main", "cli.main"),
    ("polynomials", "parse_poly", "polynomials.parse"),
    ("polynomials", "parse_univariate", "polynomials.parse"),
    ("counting", "lift_levels", "counting.lift_level"),
    ("counting", "lift_points", "counting.lift_points"),
    ("counting", "brute_points", "counting.brute_points"),
    ("expsums", "decay_records", "expsums.decay_records"),
    ("expsums", "sum_curve", "expsums.sum_curve"),
    ("expsums", "sum_onevar", "expsums.sum_onevar"),
    ("expsums", "sum_parametric", "expsums.sum_parametric"),
    ("invariants", "contact_exponent", "invariants.contact_exponent"),
    ("invariants", "contact_order", "invariants.contact_order"),
    ("invariants", "curve_depth", "invariants.curve_depth"),
    ("invariants", "decay_fit", "invariants.decay_fit"),
    ("series", "hensel_param", "series.hensel_param"),
]
# (module, class, method, span name)
METHOD_SPANS = [
    ("counting", "PointSet", "__post_init__", "counting.pointset"),
    ("counting", "PointSet", "same_points", "counting.same_points"),
]
# Leaf calls: counted, and timed when the name is listed in LEAF_TIMED.
LEAVES = [
    ("padic", "additive_char", "padic.additive_char"),
    ("invariants", "point_depth", "invariants.point_depth"),
    ("series", "certify_point", "series.certify_point"),
]
METHOD_LEAVES = [("polynomials", "BiPoly", "evaluate", "polynomials.evaluate")]
LEAF_TIMED = {"padic.additive_char"}

# name -> (unit, better); the order is the report's.
LAYER_METRICS = {
    "counting.lift_level_s": ("s", "lower"),
    "counting.pointset_s": ("s", "lower"),
    "counting.points": ("count", "lower"),
    "counting.brute_s": ("s", "lower"),
    "counting.brute_cells": ("count", "lower"),
    "counting.brute_hit_ratio": ("ratio", "higher"),
    "expsums.sum_curve_s": ("s", "lower"),
    "expsums.terms": ("count", "higher"),
    "expsums.sum_parametric_s": ("s", "lower"),
    "expsums.sum_onevar_s": ("s", "lower"),
    "padic.additive_char_calls": ("count", "lower"),
    "padic.additive_char_s": ("s", "lower"),
    "invariants.contact_exponent_s": ("s", "lower"),
    "invariants.contact_order_calls": ("count", "lower"),
    "invariants.contact_order_s": ("s", "lower"),
    "invariants.curve_depth_s": ("s", "lower"),
    "invariants.point_depth_calls": ("count", "lower"),
    "invariants.decay_fit_s": ("s", "lower"),
    "invariants.certified_ratio": ("ratio", "higher"),
    "series.hensel_param_calls": ("count", "lower"),
    "series.hensel_param_s": ("s", "lower"),
    "series.certify_point_calls": ("count", "lower"),
    "polynomials.evaluate_calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "polynomials.parse_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
# Counts that must repeat exactly from pass to pass and run to run.
EXACT_COUNTS = (
    "polynomials.evaluate_calls",
    "padic.additive_char_calls",
    "counting.points",
    "counting.brute_cells",
    "expsums.terms",
    "invariants.contact_order_calls",
)


class Tracer:
    """Spans and counters of one traced run, grouped by pass."""

    def __init__(self, mods: dict):
        self.mods = mods
        self.spans: list[list] = []  # [name, start, end, parent, case, pass]
        self.stack: list[int] = []
        self.case = ""
        self.pass_no = -1
        self.pass_start = 0  # index of the current pass's first span
        self.counts: Counter = Counter()  # of the current pass
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.case, self.pass_no])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def _observe(self, name: str, result) -> None:
        """Counters read off a traced call's result."""
        c = self.counts
        if name == "counting.lift_level":
            c["counting.points"] += len(result)
        elif name == "counting.brute_points":
            c["counting.brute_cells"] += (result.p ** result.m) ** 2
            c["counting.brute_found"] += len(result)
        elif name in ("expsums.sum_curve", "expsums.sum_onevar", "expsums.sum_parametric"):
            c["expsums.terms"] += result.point_count
        elif name == "invariants.contact_exponent":
            c["invariants.certified"] += result.confidence == "certified"

    def _span(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name + "_calls"] += 1
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer._observe(name, result)
            return result

        return wrapper

    def _gen_span(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = tracer._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._close(idx)
                tracer._observe(name, item)
                yield item

        return wrapper

    def _leaf(self, name: str, fn):
        counts, key = self.counts, name + "_calls"
        if name not in LEAF_TIMED:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return counted
        tkey, clock = name + "_s", time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                counts[tkey] += clock() - t0
                counts[key] += 1

        return timed

    # -- install / uninstall -----------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        for mod, attr, name in SPANS + LEAVES:
            original = getattr(self.mods[mod], attr)
            if (mod, attr, name) in LEAVES:
                wrapped = self._leaf(name, original)
            elif inspect.isgeneratorfunction(original):
                wrapped = self._gen_span(name, original)
            else:
                wrapped = self._span(name, original)
            for module in self.mods.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapped)
        for mod, cls_name, meth, name in METHOD_SPANS + METHOD_LEAVES:
            cls = getattr(self.mods[mod], cls_name)
            original = vars(cls)[meth]
            if (mod, cls_name, meth, name) in METHOD_LEAVES:
                self._replace(cls, meth, self._leaf(name, original))
            else:
                self._replace(cls, meth, self._span(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- per-pass layer metrics ------------------------------------------------------

    def start_pass(self) -> None:
        self.pass_no += 1
        self.pass_start = len(self.spans)
        self.counts.clear()

    def pass_metrics(self) -> dict[str, float]:
        """Layer metrics of the current pass (trace.overhead_s excluded)."""
        total: Counter = Counter()  # inclusive time per span name
        child_time: Counter = Counter()  # per span index
        for idx in range(self.pass_start, len(self.spans)):
            name, start, end, parent = self.spans[idx][:4]
            if parent >= 0:
                child_time[parent] += end - start
            up = parent  # count a span nested in one of its own name once
            while up >= 0 and self.spans[up][0] != name:
                up = self.spans[up][3]
            if up < 0:
                total[name] += end - start
        self_cli = sum(
            self.spans[idx][2] - self.spans[idx][1] - child_time[idx]
            for idx in range(self.pass_start, len(self.spans))
            if self.spans[idx][0] == "cli.main"
        )
        c = self.counts
        ce_calls = c["invariants.contact_exponent_calls"]
        return {
            "counting.lift_level_s": total["counting.lift_level"],
            "counting.pointset_s": total["counting.pointset"],
            "counting.points": c["counting.points"],
            "counting.brute_s": total["counting.brute_points"],
            "counting.brute_cells": c["counting.brute_cells"],
            "counting.brute_hit_ratio": (
                c["counting.brute_found"] / c["counting.brute_cells"]
                if c["counting.brute_cells"] else 0.0
            ),
            "expsums.sum_curve_s": total["expsums.sum_curve"],
            "expsums.terms": c["expsums.terms"],
            "expsums.sum_parametric_s": total["expsums.sum_parametric"],
            "expsums.sum_onevar_s": total["expsums.sum_onevar"],
            "padic.additive_char_calls": c["padic.additive_char_calls"],
            "padic.additive_char_s": c["padic.additive_char_s"],
            "invariants.contact_exponent_s": total["invariants.contact_exponent"],
            "invariants.contact_order_calls": c["invariants.contact_order_calls"],
            "invariants.contact_order_s": total["invariants.contact_order"],
            "invariants.curve_depth_s": total["invariants.curve_depth"],
            "invariants.point_depth_calls": c["invariants.point_depth_calls"],
            "invariants.decay_fit_s": total["invariants.decay_fit"],
            "invariants.certified_ratio": (
                c["invariants.certified"] / ce_calls if ce_calls else 0.0
            ),
            "series.hensel_param_calls": c["series.hensel_param_calls"],
            "series.hensel_param_s": total["series.hensel_param"],
            "series.certify_point_calls": c["series.certify_point_calls"],
            "polynomials.evaluate_calls": c["polynomials.evaluate_calls"],
            "cli.self_s": self_cli,
            "polynomials.parse_s": total["polynomials.parse"],
        }

    def write(self, path) -> None:
        """Spans as JSON lines: name, start, end, parent index, case, pass."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, case, pass_no in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "case": case, "pass": pass_no,
                }) + "\n")
