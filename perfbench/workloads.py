"""Workload corpora, seed-driven input variation, case runners and checks.

Each workload is a list of cases.  A case runs one call into the program
(a CLI invocation in-process, or a library call), returns a JSON-able
outcome, and is checked against `reference.json`, which holds the outcomes
of the untranslated corpus as computed by the program when the benchmark
was defined (regenerate with `make_reference.py`).

The seed varies the inputs without changing their cost or their answers:

* oracle_scan, branch_sums: every curve, weight and anchor is translated
  by one seed-chosen pair (a, b) of integers that are units at 3, 5 and 7,
  i.e. f(x, y) -> f(x - a, y - b).  Translation is a bijection of
  (Z/p^m)^2, so point counts, S_m and the lift tree's shape are unchanged.
  The pair is redrawn until every translated polynomial has the full
  monomial support of its shift, so every seed evaluates the same number
  of terms.  One-variable sums translate x only: their weight y is fixed
  by the CLI, and shifting y would rotate S_m by a root of unity.
* decay_sweep: the same, in y only (see build_cases).
* invariants_search: the seed only permutes the case order.  Translation
  would change which classes the critical-locus search can refute by a
  dominant monomial, and with it the cost.
"""

from __future__ import annotations

import cmath
import contextlib
import importlib
import io
import json
import math
import random
import re
import sys
from dataclasses import dataclass, field
from math import comb
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("cli", "polynomials", "padic", "series", "counting", "expsums", "invariants")


def load_program() -> dict:
    """Import numpy and padicsums from this checkout's src/; name -> module.

    Raises ImportError when the checkout has no src/padicsums, or when the
    package that imports is not the checkout's own (e.g. an installed copy).
    """
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401  (part of set-up time)
    import padicsums

    home = Path(padicsums.__file__).resolve().parent
    if home != src / "padicsums":
        raise ImportError(f"padicsums imported from {home}, not from {src}")
    return {name: importlib.import_module(f"padicsums.{name}") for name in MODULES}


# -- polynomial text: a tiny independent reader/writer for sums of monomials ----

_TERM_RE = re.compile(r"[+-]?[^+-]+")


def poly_terms(text: str) -> dict[tuple[int, int], int]:
    """Parse 'c*x^i*y^j +/- ...' into {(i, j): c}."""
    terms: dict[tuple[int, int], int] = {}
    for chunk in _TERM_RE.findall(text.replace(" ", "")):
        sign = -1 if chunk.startswith("-") else 1
        coeff, i, j = sign, 0, 0
        for factor in chunk.lstrip("+-").split("*"):
            base, _, power = factor.partition("^")
            k = int(power) if power else 1
            if base == "x":
                i += k
            elif base == "y":
                j += k
            else:
                coeff *= int(base) ** k
        terms[(i, j)] = terms.get((i, j), 0) + coeff
    return {k: c for k, c in terms.items() if c}


def poly_text(terms: dict[tuple[int, int], int]) -> str:
    """Inverse of poly_terms (canonical order: high degree first)."""
    pieces = []
    for (i, j) in sorted(terms, key=lambda k: (-(k[0] + k[1]), -k[0])):
        c = terms[(i, j)]
        factors = [] if abs(c) == 1 and (i or j) else [str(abs(c))]
        factors += [f"x^{i}" if i > 1 else "x"] if i else []
        factors += [f"y^{j}" if j > 1 else "y"] if j else []
        body = "*".join(factors)
        if not pieces:
            pieces.append(body if c > 0 else "-" + body)
        else:
            pieces.append(("+ " if c > 0 else "- ") + body)
    return " ".join(pieces) if pieces else "0"


def translate(text: str, a: int, b: int) -> str:
    """Text of f(x - a, y - b)."""
    out: dict[tuple[int, int], int] = {}
    for (i, j), c in poly_terms(text).items():
        for k in range(i + 1):
            for l in range(j + 1):
                coeff = c * comb(i, k) * (-a) ** (i - k) * comb(j, l) * (-b) ** (j - l)
                out[(k, l)] = out.get((k, l), 0) + coeff
    return poly_text({k: c for k, c in out.items() if c})


def _full_support(text: str, a: int, b: int) -> bool:
    """True when f(x - a, y - b) has every monomial the shift can create."""
    want = {
        (k, l)
        for (i, j) in poly_terms(text)
        for k in (range(i + 1) if a else [i])
        for l in (range(j + 1) if b else [j])
    }
    return set(poly_terms(translate(text, a, b))) == want


def seed_shift(seed: int, shifts: list[tuple[str, bool, bool]]) -> tuple[int, int]:
    """The seed's pair (a, b) of units at 3, 5 and 7.

    `shifts` lists (polynomial, shift x, shift y); the pair is redrawn until
    each of them keeps the full support of its shift.
    """
    rng = random.Random(seed)
    units = [v for v in range(1, 105) if math.gcd(v, 105) == 1]
    while True:
        a, b = rng.choice(units), rng.choice(units)
        if all(_full_support(t, a * sx, b * sy) for t, sx, sy in shifts):
            return a, b


# -- cases --------------------------------------------------------------------


@dataclass
class Case:
    """One call into the program: `run(modules)` returns a JSON-able outcome."""

    id: str
    run: Callable[[dict], dict]
    size: Callable[[dict, dict], int] = lambda outcome, ref: 0
    extra: dict = field(default_factory=dict)


def _cli(mods: dict, argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = mods["cli"].main(argv)
    return {"rc": rc, "out": buf.getvalue()}


def _records(payload_records) -> list[dict]:
    return [
        {"m": r["m"], "point_count": r["point_count"], "re": r["re"], "im": r["im"]}
        for r in payload_records
    ]


def _verify_case(mods, argv):
    raw = _cli(mods, argv)
    doc = json.loads(raw["out"])
    rep = doc["report"]
    return {
        "rc": raw["rc"],
        "exponent": rep["exponent"],
        "confidence": doc["config"]["exponent_confidence"],
        "passed": rep["passed"],
        "records": _records(rep["records"]),
    }


def _onevar_case(mods, argv):
    raw = _cli(mods, argv)
    return {"rc": raw["rc"], "records": _records(json.loads(raw["out"])["records"])}


def _param_case(mods, argv):
    raw = _cli(mods, argv)
    doc = json.loads(raw["out"])
    return {
        "rc": raw["rc"],
        "coefficients": doc["parametrization"]["coefficients"],
        "records": _records([doc["sum"]]),
    }


def _oracle_case(mods, text, p, m):
    f = mods["polynomials"].parse_poly(text)
    brute = mods["counting"].brute_points(f, p, m)
    lift = mods["counting"].lift_points(f, p, m)
    return {"brute": len(brute), "lift": len(lift), "same": bool(lift.same_points(brute))}


def _cexp_case(mods, ftext, gtext, p):
    parse = mods["polynomials"].parse_poly
    try:
        cert = mods["invariants"].contact_exponent(parse(ftext), parse(gtext), p)
    except (ArithmeticError, ValueError) as exc:
        return {"error": type(exc).__name__}
    return {"exponent": cert.exponent, "confidence": cert.confidence}


def _depth_case(mods, ftext, p, probe):
    rep = mods["invariants"].curve_depth(mods["polynomials"].parse_poly(ftext), p, probe)
    return rep.to_json_dict()


def _contact_case(mods, ftext, gtext, x, y, p, level):
    parse = mods["polynomials"].parse_poly
    f = parse(ftext)
    pt = mods["series"].certify_point(f, x, y, p, level)
    co = mods["invariants"].contact_order(f, parse(gtext), pt)
    return {
        "order": co.order,
        "leading_val": co.leading_val,
        "chart_scale": co.chart_scale,
        "confident": co.confident,
    }


def _record_terms(outcome, ref):
    return sum(r["point_count"] for r in outcome.get("records", ()))


# -- the four workloads ----------------------------------------------------------

DECAY_FAMILIES = [("y - x^2", "y"), ("y - x^3", "y"), ("y - x^2", "x + y")]
DECAY_LEVELS = [(5, 3, 7), (7, 3, 6)]

ORACLE_CORPUS = [
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
ORACLE_LEVELS = [(3, 5), (5, 4), (7, 3)]

CONTACT_EXPONENT_CASES = [
    ("y^2 - x^3", "y", 5),
    ("x^3 + y^3 - 1", "x", 7),
    ("y - x^4", "y", 7),
    ("y^2 - 2*x^2*y + x^4", "x", 5),
    ("y - x^2 + 6*x - 9", "x + y - 3", 5),
]
# Cases whose answer at the commit that wrote reference.json is wrong.  They
# are checked against the true answer, so they count as failed until fixed.
KNOWN_DEFECTS = {
    # (y - x^2)^2 with weight x: x moves along (t, t^2), so the exponent is 1
    # or the search is inconclusive; WeightConstantError is a wrong label.
    "contact_exponent p=5 f=y^2 - 2*x^2*y + x^4 g=x": lambda out: (
        out.get("exponent") == 1 or out.get("error") == "ContactInconclusiveError"
    ),
    # y - x^2, g = x + y translated by (3, 0): the critical point x = 5/2 has
    # contact order 2, but the search refutes its class x = 0 mod 5 because
    # an unpinned v(x) is bounded by 10^6 instead of by the class level.
    "contact_exponent p=5 f=y - x^2 + 6*x - 9 g=x + y - 3": lambda out: (
        out.get("exponent") == 2
    ),
}
CURVE_DEPTH_CASES = [("y^2 - x^3 - 25", 5, 2), ("y^2 - x^3 - 49", 7, 2)]
# (0, 5) has depth 1 on y^2 - x^3 - 25 at p = 5: contact_order needs the chart.
CONTACT_ORDER_CASES = [("y^2 - x^3 - 25", "y", 0, 5, 5, 8)]

PARAM_CASES = [("y - x^2", "y", 5, (6, 7)), ("y - x^3", "y", 5, (6, 7))]
ONEVAR_CASES = [("x^3", 5, "6..9"), ("x^3 + x", 7, "5..7")]

WORKLOADS = ("decay_sweep", "oracle_scan", "invariants_search", "branch_sums")


def build_cases(workload: str, seed: int | None) -> list[Case]:
    """The workload's cases; seed None gives the untranslated corpus."""
    if workload == "decay_sweep":
        # Shift y only: verify also runs contact_exponent, whose search cost
        # depends on the residue class of the critical x (y - x^3 at p = 7
        # goes from 2 ms to 3.6 s under an x-shift).
        shifts = [(t, False, True) for fam in DECAY_FAMILIES for t in fam]
        _, b = (0, 0) if seed is None else seed_shift(seed, shifts)
        a = 0
        cases = []
        for p, lo, hi in DECAY_LEVELS:
            for ftext, gtext in DECAY_FAMILIES:
                argv = ["verify", "--p", str(p), "--m", f"{lo}..{hi}",
                        "--f", translate(ftext, a, b), "--g", translate(gtext, a, b)]
                cases.append(Case(
                    f"verify p={p} m={lo}..{hi} f={ftext} g={gtext}",
                    lambda mods, argv=argv: _verify_case(mods, argv),
                    _record_terms,
                    {"gauss_p": p} if (ftext, gtext) == ("y - x^2", "y") else {},
                ))
        return cases

    if workload == "oracle_scan":
        shifts = [(t, True, True) for t in ORACLE_CORPUS]
        a, b = (0, 0) if seed is None else seed_shift(seed, shifts)
        return [
            Case(
                f"oracle p={p} m={m} f={text}",
                lambda mods, t=translate(text, a, b), p=p, m=m: _oracle_case(mods, t, p, m),
                lambda outcome, ref: outcome["brute"] + outcome["lift"],
            )
            for p, m in ORACLE_LEVELS
            for text in ORACLE_CORPUS
        ]

    if workload == "invariants_search":
        cases = [
            Case(
                f"contact_exponent p={p} f={f} g={g}",
                lambda mods, f=f, g=g, p=p: _cexp_case(mods, f, g, p),
            )
            for f, g, p in CONTACT_EXPONENT_CASES
        ]
        cases += [
            Case(
                f"curve_depth p={p} probe={probe} f={f}",
                lambda mods, f=f, p=p, probe=probe: _depth_case(mods, f, p, probe),
                # the report covers every point lifted to level 2 * probe
                lambda outcome, ref: ref["points"],
                {"points_at": (f, p, 2 * probe)},
            )
            for f, p, probe in CURVE_DEPTH_CASES
        ]
        cases += [
            Case(
                f"contact_order p={p} at=({x},{y}) level={level} f={f} g={g}",
                lambda mods, f=f, g=g, x=x, y=y, p=p, level=level: _contact_case(
                    mods, f, g, x, y, p, level
                ),
            )
            for f, g, x, y, p, level in CONTACT_ORDER_CASES
        ]
        if seed is not None:
            random.Random(seed).shuffle(cases)
        return cases

    if workload == "branch_sums":
        shifts = [(t, True, True) for f, g, _, _ in PARAM_CASES for t in (f, g)]
        shifts += [(f, True, False) for f, _, _ in ONEVAR_CASES]
        a, b = (0, 0) if seed is None else seed_shift(seed, shifts)
        cases = []
        for ftext, gtext, p, levels in PARAM_CASES:
            for m in levels:
                argv = ["param", "--p", str(p), "--f", translate(ftext, a, b),
                        "--at", f"{a},{b}", "--g", translate(gtext, a, b),
                        "--m", str(m), "--l", "1"]
                cases.append(Case(
                    f"param p={p} m={m} l=1 at=(0,0) f={ftext} g={gtext}",
                    lambda mods, argv=argv: _param_case(mods, argv),
                    _record_terms,
                ))
        for ftext, p, levels in ONEVAR_CASES:
            argv = ["sum", "--onevar", "--p", str(p), "--m", levels,
                    "--f", translate(ftext, a, 0)]
            cases.append(Case(
                f"onevar p={p} m={levels} f={ftext}",
                lambda mods, argv=argv: _onevar_case(mods, argv),
                _record_terms,
            ))
        return cases

    raise ValueError(f"unknown workload {workload!r}")


# -- correctness ------------------------------------------------------------------

EXACT_FIELDS = (
    "rc", "exponent", "confidence", "passed", "brute", "lift", "same", "coefficients",
    "max_depth", "probe_level", "complete", "witness",
    "order", "leading_val", "chart_scale", "confident", "error",
)


def gauss_oracle_magnitude(p: int, m: int) -> float:
    """|sum over x mod p^m of e(x^2 / p^m)| by direct per-point accumulation."""
    q = p**m
    return abs(sum(cmath.exp(2j * cmath.pi * ((x * x) % q) / q) for x in range(q)))


def check(case: Case, outcome: dict, ref: dict) -> str | None:
    """None when the outcome is right, else a one-line reason."""
    if case.id in KNOWN_DEFECTS:
        return None if KNOWN_DEFECTS[case.id](outcome) else f"known defect: got {outcome}"
    want = ref["outcome"]
    for key in EXACT_FIELDS:
        if want.get(key) != outcome.get(key):
            return f"{key}: got {outcome.get(key)!r}, want {want.get(key)!r}"
    got_recs, want_recs = outcome.get("records", []), want.get("records", [])
    if len(got_recs) != len(want_recs):
        return f"{len(got_recs)} records, want {len(want_recs)}"
    for got, exp in zip(got_recs, want_recs):
        if (got["m"], got["point_count"]) != (exp["m"], exp["point_count"]):
            return f"m={exp['m']}: point_count {got['point_count']}, want {exp['point_count']}"
        # Summation order may change (pruning, translation): scale by terms.
        tol = 1e-11 * got["point_count"] + 1e-9
        if abs(complex(got["re"], got["im"]) - complex(exp["re"], exp["im"])) > tol:
            return f"m={exp['m']}: S_m {got['re']}+{got['im']}i, want {exp['re']}+{exp['im']}i"
        oracle = ref.get("gauss", {}).get(str(got["m"]))
        if oracle is not None and abs(abs(complex(got["re"], got["im"])) - oracle) > 1e-9 * oracle:
            return f"m={got['m']}: |S_m| differs from the Gauss-sum oracle {oracle}"
    return None


def known_defect(case: Case, outcome: dict, ref: dict) -> bool:
    """The wrong answer is the one reference.json recorded, not a new one."""
    return case.id in KNOWN_DEFECTS and outcome == ref["outcome"]
