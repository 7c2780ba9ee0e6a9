"""Command-line front end.

Subcommands:
  points  enumerate curve points mod p^m ('x,y' lines under a '#' header)
  sum     evaluate sums for a range of levels m (JSON or CSV records)
  verify  fit the decay of |S_m| against the predicted exponent (exit 1 on fail)
  sigma   compute the oscillation exponent certificate (JSON)
  param   branch parametrization at a point, optionally a restricted sum

Each option is declared once, in _OPTIONS; each subcommand in _COMMANDS lists
the options it takes, the ones it requires and its own defaults.  The parser
is built from these tables once per process, on the first main() call, and
each output's config block echoes the options that _COMMANDS lists.
Options can also come from --config FILE (key=value lines, '#' comments);
explicit flags win.  Config values go through the same parser as flags, so
they are checked the same way.

The library returns values; this module alone writes them out, through one
writer, `_write`.  A JSON output is one object, {"config": ..., <section>:
...}, indented and key-sorted.  A CSV output is '# key=value' lines for the
sorted config and any notes, then a column header and the rows; `points`
writes its header and config as two such notes and rows of 'x,y' with no
column header.  Every output embeds the resolved configuration, and floats
of sum records are rounded to 15 significant digits, so identical
configurations produce byte-identical files.

Exit codes: 0 success / verification passed; 1 verification failed;
2 usage, parse, or budget errors; 3 weight constant on the curve;
4 inconclusive (precision exhausted, or f may have a repeated factor);
5 internal error (any other exception, such as running out of memory).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import json
import math
import sys

from .counting import (
    BRUTE_BUDGET,
    BudgetError,
    brute_points,
    lift_levels,
    lift_points,
)
from .expsums import (
    PhaseSpec,
    SumRecord,
    decay_records,
    sum_curve,
    sum_onevar,
    sum_parametric,
)
from .invariants import (
    DEFAULT_SEARCH_BUDGET,
    DEFAULT_SEARCH_DEPTH,
    ContactInconclusiveError,
    WeightConstantError,
    contact_exponent,
    contact_exponent_onevar,
    decay_fit,
)
from .padic import is_prime
from .polynomials import PolySyntaxError, parse_poly, parse_univariate
from .series import SeriesPrecisionError, certify_point, hensel_param

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_WEIGHT_CONSTANT = 3
EXIT_INCONCLUSIVE = 4
EXIT_INTERNAL = 5

def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


_OPTIONS = {
    "p": {"type": int, "help": "prime p"},
    "config": {"help": "key=value defaults file"},
    "out": {"help": "output file (default stdout)"},
    "budget": {
        "type": int,
        "help": "work cap: grid cells of the brute scan (points and sum, --method brute "
        "only) or digit-pair tests per level of the critical-point search (verify, sigma)",
    },
    "m": {"help": "level m, or inclusive range a..b"},
    "f": {"help": "curve polynomial in x, y"},
    "g": {"help": "weight polynomial in x, y"},
    "onevar": {
        "action": "store_true",
        "help": "treat --f as a one-variable polynomial in x, sum over x mod p^m",
    },
    "u": {"type": int, "default": 1, "help": "unit numerator of z = u/p^m"},
    "method": {"choices": ("auto", "brute", "lift"), "default": "auto"},
    "depth": {"type": int, "default": DEFAULT_SEARCH_DEPTH, "help": "critical-locus search depth"},
    "format": {"choices": ("json", "csv"), "default": "json"},
    "sigma": {"type": int, "help": "normalize magnitudes by p^(m(1-1/sigma))"},
    "tolerance": {"type": float, "default": 0.05, "help": "slope tolerance"},
    "at": {"help": "anchor point 'x,y'"},
    "level": {"type": int, "default": 1, "help": "certification level of the anchor"},
    "order": {"type": int, "default": 16, "help": "t-order of the series"},
    "precision": {"type": int, "default": 16, "help": "p-adic digits carried"},
    "l": {"type": int, "default": 0, "help": "restrict the sum to v(t) >= l"},
}


def _parse_m_range(text: str) -> list[int]:
    """Either a single level '4' or an inclusive range '3..8'."""
    if ".." in text:
        lo_text, _, hi_text = text.partition("..")
        lo, hi = int(lo_text), int(hi_text)
        if lo < 1 or hi < lo:
            raise ValueError(f"bad level range {text!r}")
        return list(range(lo, hi + 1))
    m = int(text)
    if m < 1:
        raise ValueError(f"level must be >= 1, got {m}")
    return [m]


def _load_config(path: str) -> dict[str, list[str]]:
    """key -> the argv words that set it; the last line of a key wins."""
    values: dict[str, list[str]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _OPTIONS or key == "config":
                raise ValueError(f"{path}:{lineno}: unknown option {key!r}")
            if _OPTIONS[key].get("action") == "store_true":
                values[key] = [f"--{key}"] if _parse_bool(value) else []
            else:
                values[key] = [f"--{key}", value]
    return values


def _resolved_config(args) -> dict:
    """The command and each of its _COMMANDS options that is set, but config, out, budget."""
    _, _, names, _ = _COMMANDS[args.command]
    out = {"command": args.command}
    for name in names.split():
        key = name.rstrip("!")
        if key not in ("config", "out", "budget") and getattr(args, key) is not None:
            out[key] = getattr(args, key)
    return out


def _write(args, config: dict, sections: dict | None = None, *, notes=(), columns=(), rows=()):
    """Write one output to --out or stdout: JSON with `sections`, else CSV.

    JSON is {"config": config, **sections}.  CSV is a '# key=value' line per
    sorted config key, one '# note' line per note, the `columns` header
    (none if empty) and the rows.  Callers build only the format written.
    """
    out = open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext(sys.stdout)
    with out as fh:
        if sections is not None:
            json.dump({"config": config, **sections}, fh, indent=2, sort_keys=True)
            fh.write("\n")
            return
        for line in [f"{key}={config[key]}" for key in sorted(config)] + list(notes):
            fh.write(f"# {line}\n")
        writer = csv.writer(fh, lineterminator="\n")
        if columns:
            writer.writerow(columns)
        writer.writerows(rows)


_RECORD_COLUMNS = ("p", "m", "u", "f", "g", "re", "im", "magnitude", "point_count", "normalized")


def _sig15(x: float) -> float:
    """Round to 15 significant digits so that outputs are stable."""
    return float(f"{x:.15g}")


def _record_fields(r: SumRecord) -> dict:
    """A SumRecord's output fields by column, floats rounded by `_sig15`."""
    values = (r.p, r.m, r.u, r.f, r.g, r.value.real, r.value.imag, r.magnitude,
              r.point_count, r.normalized)
    return {
        col: _sig15(v) if isinstance(v, float) else v for col, v in zip(_RECORD_COLUMNS, values)
    }


def _write_records(args, config: dict, records) -> None:
    """Sum records as a JSON "records" list or as CSV rows, per --format."""
    if args.format == "json":
        _write(args, config, {"records": [_record_fields(r) for r in records]})
        return
    rows = (
        ["" if v is None else f"{v:.15g}" if isinstance(v, float) else v
         for v in _record_fields(r).values()]
        for r in records
    )
    _write(args, config, columns=_RECORD_COLUMNS, rows=rows)


def _single_level(args) -> int:
    levels = _parse_m_range(args.m)
    if len(levels) != 1:
        raise ValueError("this command needs a single level m, not a range")
    return levels[0]


def _brute_budget(args, method: str) -> int:
    """The grid cap of the brute scan; no other method reads --budget."""
    if args.budget is not None and method != "brute":
        raise ValueError(
            f"{args.command} takes --budget only with --method brute, whose grid scan it caps"
        )
    return BRUTE_BUDGET if args.budget is None else args.budget


def cmd_points(args) -> int:
    f = parse_poly(args.f)
    m = _single_level(args)
    method = "lift" if args.method == "auto" else args.method
    budget = _brute_budget(args, method)
    if method == "brute":
        ps = brute_points(f, args.p, m, budget=budget)
    else:
        ps = lift_points(f, args.p, m)
    config = _resolved_config(args)
    config.update(method=method, budget=budget)
    notes = (f"p={ps.p} m={ps.m} f={f}", f"config={json.dumps(config, sort_keys=True)}")
    _write(args, {}, notes=notes, rows=zip(ps.xs.tolist(), ps.ys.tolist()))
    return EXIT_OK


def _onevar_poly(args):
    """The --f of an --onevar run, parsed as a polynomial in x; no --g allowed."""
    if not args.f or args.g:
        raise ValueError("--onevar takes the one-variable polynomial in --f, with no --g")
    return parse_univariate(args.f)


def _curve_and_weight(args):
    """The --f and --g of a bivariate run, both required, parsed."""
    if not args.f or not args.g:
        raise ValueError(f"{args.command} needs --f and --g (or --onevar)")
    return parse_poly(args.f), parse_poly(args.g)


def cmd_sum(args) -> int:
    levels = _parse_m_range(args.m)
    config = _resolved_config(args)
    budget = _brute_budget(args, args.method)
    if args.onevar:
        if args.method != "auto":
            raise ValueError("sum --onevar takes no --method: it has no brute or lift route")
        f_one = _onevar_poly(args)
        records = [sum_onevar(f_one, PhaseSpec(args.p, m, args.u)) for m in levels]
    else:
        f, g = _curve_and_weight(args)
        if args.method == "auto":
            records = decay_records(f, g, args.p, levels, u=args.u)
        else:
            # The oracles: sum_curve over every point of each Y_m.
            if args.method == "brute":
                point_sets = (brute_points(f, args.p, m, budget=budget) for m in levels)
            else:
                point_sets = (ps for ps in lift_levels(f, args.p, levels[-1]) if ps.m in levels)
            records = [sum_curve(f, g, PhaseSpec(args.p, ps.m, args.u), ps) for ps in point_sets]
    if args.sigma is not None:
        records = [r.with_normalization(args.sigma) for r in records]
    _write_records(args, config, records)
    return EXIT_OK


def _certificate(args):
    """(exponent certificate, parsed polynomials) of a verify or sigma run.

    The polynomials are (f_one,) for --onevar and (f, g) otherwise.
    """
    if args.onevar:
        f_one = _onevar_poly(args)
        cert = contact_exponent_onevar(f_one, args.p, depth=args.depth, budget=args.budget)
        return cert, (f_one,)
    f, g = _curve_and_weight(args)
    return contact_exponent(f, g, args.p, depth=args.depth, budget=args.budget), (f, g)


def cmd_verify(args) -> int:
    levels = _parse_m_range(args.m)
    cert, polys = _certificate(args)
    if args.onevar:
        records = [sum_onevar(*polys, PhaseSpec(args.p, m, args.u)) for m in levels]
    else:
        records = decay_records(*polys, args.p, levels, u=args.u)
    report = decay_fit(records, cert, tolerance=args.tolerance)
    config = _resolved_config(args)
    config["exponent_confidence"] = cert.confidence
    if args.format == "json":
        records = [_record_fields(r) for r in report.records]
        fields = {**vars(report), "decay_rate": report.decay_rate, "records": records}
        _write(args, config, {"report": fields})
    else:
        # log_p |S_m| of the nonzero records: the points the slope was fitted to
        slope = "" if report.fitted_slope is None else f"{report.fitted_slope:.15g}"
        notes = (
            f"predicted_exponent={report.predicted_exponent:.15g}",
            f"fitted_slope={slope}",
            f"passed={report.passed}",
        )
        rows = (
            (r.m, f"{math.log(r.magnitude, r.p):.15g}")
            for r in report.records
            if r.m not in report.zero_levels
        )
        _write(args, config, notes=notes, columns=("m", "logp_magnitude"), rows=rows)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def cmd_sigma(args) -> int:
    cert, _ = _certificate(args)
    _write(args, _resolved_config(args), {"certificate": dataclasses.asdict(cert)})
    return EXIT_OK


def cmd_param(args) -> int:
    f = parse_poly(args.f)
    try:
        x_text, _, y_text = args.at.partition(",")
        x0, y0 = int(x_text), int(y_text)
    except ValueError as exc:
        raise ValueError(f"--at expects 'x,y' integers, got {args.at!r}") from exc
    pt = certify_point(f, x0, y0, args.p, args.level)
    param = hensel_param(f, pt, order=args.order, precision=args.precision)
    # main() lets --u and --l through only with --g; the config shows their defaults
    u = _OPTIONS["u"]["default"] if args.u is None else args.u
    l = _OPTIONS["l"]["default"] if args.l is None else args.l
    config = _resolved_config(args)
    config.update(u=u, l=l)
    sections = {
        "parametrization": {
            "anchor": [param.anchor.x, param.anchor.y],
            "solve_for": param.solve_for,
            "p": param.p,
            "precision": param.n,
            "coefficients": list(param.series.coeffs),
        },
    }
    if args.g is not None:
        g = parse_poly(args.g)
        phase = PhaseSpec(args.p, _single_level(args), u)
        sections["sum"] = _record_fields(sum_parametric(param, g, l, phase))
    _write(args, config, sections)
    return EXIT_OK


# Each subcommand: (help, handler, options in --help order, its own defaults).
# A trailing "!" makes the option required on that subcommand.  points and
# sum have no --budget default: they reject an explicit --budget unless
# --method brute.  param has no --u or --l default: they need --g.
_COMMANDS = {
    "points": ("enumerate curve points mod p^m", cmd_points,
               "p! config out budget m! method f!", {}),
    "sum": ("evaluate sums for levels m", cmd_sum,
            "p! config out budget m! f g onevar u method format sigma", {}),
    "verify": ("fit |S_m| decay against the predicted exponent", cmd_verify,
               "p! config out budget m! f g onevar u depth format tolerance",
               {"budget": DEFAULT_SEARCH_BUDGET}),
    "sigma": ("oscillation exponent certificate", cmd_sigma,
              "p! config out budget f g onevar depth", {"budget": DEFAULT_SEARCH_BUDGET}),
    "param": ("branch parametrization at a point", cmd_param,
              "p! config out m f! g u at! level order precision l", {"u": None, "l": None}),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of _COMMANDS and _OPTIONS; one object per process."""
    parser = argparse.ArgumentParser(
        prog="padicsums",
        description="Exponential sums along plane curves over the p-adic integers.",
    )
    # --config may also come before the subcommand; _apply_config reads it
    parser.add_argument("--config", **_OPTIONS["config"])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, func, names, defaults) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        for name in names.split():
            key = name.rstrip("!")
            sp.add_argument(f"--{key}", required=name.endswith("!"), **_OPTIONS[key])
        sp.set_defaults(func=func, **defaults)
    return parser


def _apply_config(argv: list[str]) -> list[str]:
    """Fold --config file values in as defaults; explicit flags still win."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    known, _ = probe.parse_known_args(argv)
    if not known.config:
        return argv
    # Insert the config words right after the subcommand so that any
    # explicit occurrence later in argv overrides them.  A --config given
    # before the subcommand is skipped with its value, which may be any word.
    at = 0
    while at < len(argv) and argv[at] not in _COMMANDS:
        at += 2 if argv[at] == "--config" else 1
    injected = [word for words in _load_config(known.config).values() for word in words]
    return argv[: at + 1] + injected + argv[at + 1 :]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_apply_config(argv))
        for key in ("f", "g", "m", "at"):  # each goes on one '# key=value' line
            value = getattr(args, key, None)
            if value is not None and "".join(value.splitlines()) != value:
                parser.error(f"--{key} must not contain a line break")
        if not is_prime(args.p):
            parser.error(f"p must be prime, got {args.p}")
        if args.command == "param" and args.g is not None and not args.m:
            parser.error("param needs --m")
        if args.command == "param" and args.g is None:
            for key in ("m", "u", "l"):
                if getattr(args, key) is not None:
                    parser.error(f"param takes --{key} only with --g, for a restricted sum")
        # refuse bad values before any work; u and tolerance with the library's messages
        if getattr(args, "u", None) is not None:
            PhaseSpec(args.p, 1, args.u)
        if not math.isfinite(getattr(args, "tolerance", 0.0)):
            raise ValueError(f"tolerance must be finite, got {args.tolerance}")
        if getattr(args, "budget", None) is not None and args.budget < 1:
            raise ValueError(f"budget must be >= 1, got {args.budget}")
        return args.func(args)
    except SystemExit as exc:
        # argparse uses 2 for usage errors already; normalize None to 0
        return int(exc.code or 0)
    except PolySyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except WeightConstantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WEIGHT_CONSTANT
    except (ContactInconclusiveError, SeriesPrecisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (BudgetError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # never 1, which would read as a failed verification
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
