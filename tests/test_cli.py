"""Exit codes, determinism, and config handling of the command line front end."""

import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from padicsums import cli
from padicsums.cli import main
from padicsums.invariants import DEFAULT_SEARCH_BUDGET, WeightConstantError
from references import read_points


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- exit codes -------------------------------------------------------------------


def test_sum_exits_zero(capsys):
    code, out, err = run(capsys, "sum", "--p", "5", "--m", "2", "--f", "y - x^2", "--g", "y")
    assert code == 0
    payload = json.loads(out)
    assert payload["records"][0]["magnitude"] == pytest.approx(5.0)


def test_verify_pass_and_fail_codes(capsys):
    ok, _, _ = run(
        capsys, "verify", "--p", "5", "--m", "3..7", "--f", "y - x^2", "--g", "y"
    )
    assert ok == 0
    # the slope equals the predicted exponent exactly, so a negative
    # tolerance flips the verdict without needing a broken curve
    bad, out, _ = run(
        capsys,
        "verify",
        "--p", "5",
        "--m", "3..7",
        "--f", "y - x^2",
        "--g", "y",
        "--tolerance", "-0.1",
    )
    assert bad == 1
    assert json.loads(out)["report"]["passed"] is False


@pytest.mark.parametrize(
    "exc, message",
    [
        (MemoryError("Unable to allocate 8.00 GiB"), "MemoryError: Unable to allocate 8.00 GiB"),
        (ZeroDivisionError("division by zero"), "ZeroDivisionError: division by zero"),
    ],
    ids=["memory", "other"],
)
def test_an_unexpected_exception_exits_five_not_one(capsys, monkeypatch, exc, message):
    # 1 is verify's counterexample code, so a crash must not exit with it
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "decay_records", fail)
    code, out, err = run(
        capsys, "verify", "--p", "5", "--m", "3..5", "--f", "y - x^2", "--g", "y"
    )
    assert (code, out, err) == (cli.EXIT_INTERNAL, "", f"error: internal: {message}\n")
    assert cli.EXIT_INTERNAL == 5


@pytest.mark.parametrize("tolerance", ["inf", "nan"])
def test_verify_rejects_a_tolerance_that_is_not_finite(capsys, monkeypatch, tolerance):
    # inf passed every fit, and nan failed every fit and wrote NaN into the JSON;
    # the value is refused before the certificate is computed
    def no_certificate(*args, **kwargs):
        raise AssertionError("contact_exponent ran before the tolerance was checked")

    monkeypatch.setattr(cli, "contact_exponent", no_certificate)
    code, out, err = run(
        capsys, "verify", "--p", "5", "--m", "3..5", "--f", "y - x^2", "--g", "y",
        "--tolerance", tolerance,
    )
    assert (code, out) == (2, "")
    assert f"tolerance must be finite, got {tolerance}" in err


@pytest.mark.parametrize(
    "bad,message",
    [
        (("--u", "10"), "u = 10 is divisible by p = 5"),
        (("--m", "3..x"), "invalid literal for int()"),
        (("--budget", "0"), "budget must be >= 1, got 0"),
    ],
    ids=["unit", "levels", "budget"],
)
def test_verify_refuses_bad_input_before_the_certificate(capsys, monkeypatch, bad, message):
    # these ran the whole critical-point search before they exited 2, or exited 0
    def no_certificate(*args, **kwargs):
        raise AssertionError("contact_exponent ran before the input was checked")

    monkeypatch.setattr(cli, "contact_exponent", no_certificate)
    code, out, err = run(
        capsys, "verify", "--p", "5", "--m", "3..5", "--f", "y - x^2", "--g", "y", *bad
    )
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [
        ("sum", "--p", "5", "--m", "2", "--f", "y -- x", "--g", "y"),  # syntax
        ("sum", "--p", "4", "--m", "2", "--f", "y - x", "--g", "y"),  # not prime
        ("sum", "--p", "5", "--m", "5..2", "--f", "y - x", "--g", "y"),  # bad range
        ("sum", "--p", "5", "--m", "0", "--f", "y - x", "--g", "y"),  # bad level
        ("sum", "--p", "5", "--m", "2", "--f", "y - x"),  # missing --g
        ("points", "--p", "5", "--m", "2"),  # missing --f
        ("sum", "--m", "2", "--f", "y - x", "--g", "y"),  # missing --p
        ("points", "--p", "5", "--m", "4", "--f", "y - x^2", "--method", "brute", "--budget", "10"),
    ]
    # not prime: p = 1 made the search loop forever, 0 and 4 gave a "certified" sigma
    + [
        (command, "--p", p, *rest)
        for command, *rest in (
            ("sigma", "--f", "y - x^3", "--g", "y"),
            ("verify", "--m", "2..3", "--f", "y - x^2", "--g", "y"),
            ("points", "--m", "2", "--f", "y - x^2"),
            ("param", "--f", "y - x^2", "--at", "0,0"),
        )
        for p in ("0", "1", "4")
    ]
    # a budget below 1: sigma and verify gave a "heuristic" certificate and exit 0
    + [
        ("sigma", "--p", "7", "--f", "x^3+y^3-1", "--g", "x", "--budget", "-5"),
        ("verify", "--p", "5", "--m", "3..5", "--f", "y - x^2", "--g", "y", "--budget", "0"),
        ("sum", "--p", "5", "--m", "2", "--f", "y - x^2", "--g", "y", "--method", "brute",
         "--budget", "0"),
        ("points", "--p", "5", "--m", "2", "--f", "y - x^2", "--method", "brute", "--budget", "-1"),
    ]
    # a p^2 grid above the brute cap: a residue scan of 10^12 cells, refused
    # before it starts
    + [
        (command, "--p", "1000003", *rest)
        for command, *rest in (
            ("sum", "--m", "1", "--f", "y - x^2", "--g", "y"),
            ("sum", "--m", "1", "--f", "y - x^2", "--g", "y", "--method", "lift"),
            ("sigma", "--f", "y - x^2", "--g", "y"),
            ("verify", "--m", "1..3", "--f", "y - x^2", "--g", "y"),
            ("points", "--m", "1", "--f", "y - x^2"),
        )
    ],
)
def test_usage_errors_exit_two(capsys, argv):
    code, _, _ = run(capsys, *argv)
    assert code == 2


def test_weight_constant_exits_three(capsys):
    code, _, err = run(capsys, "sigma", "--p", "5", "--f", "y - x^2", "--g", "y - x^2")
    assert code == 3
    assert "constant" in err


def test_repeated_factor_exits_four(capsys):
    code, _, err = run(capsys, "sigma", "--p", "5", "--f", "y^2 - 2*x^2*y + x^4", "--g", "x")
    assert code == 4
    assert "f has the repeated factor y - x^2," in err


@pytest.mark.parametrize(
    "f,g,p,factor",
    [("(y - x^2)^3", "x", "5", "y - x^2"), ("x^4*y^2 + 3*x^4*y", "3*x*y^2 - 3", "7", "x")],
)
def test_a_cubed_or_higher_repeated_factor_exits_four(capsys, f, g, p, factor):
    # gcd(f, f_x, f_y) is (y - x^2)^2, or x^3: its squarefree part is named
    code, out, err = run(capsys, "sigma", "--p", p, "--f", f, "--g", g)
    assert (code, out) == (4, "")
    assert f"f has the repeated factor {factor}, which has a point over Z_p" in err


def test_weight_constant_on_a_component_exits_three(capsys):
    code, out, err = run(capsys, "sigma", "--p", "7", "--f", "y + 2*x*y", "--g", "2*y")
    assert (code, out) == (3, "")
    assert "share the factor y, which is smooth at (0, 0) mod 7" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("sigma", "--p", "5", "--f", "y - 5^300*x^2", "--g", "y"),
        ("verify", "--p", "5", "--m", "3..8", "--f", "y - 5^300*x^2", "--g", "y"),
        ("sigma", "--p", "7", "--f", "y - 7^300*x^3", "--g", "y"),
    ],
    ids=["sigma-square", "verify-square", "sigma-cube"],
)
def test_no_contact_order_decided_exits_four(capsys, argv):
    # g = y moves along each curve, but its contact order lies past the 5^256
    # precision cap: every point mod p is critical and every attempt ends
    # undecided, while gcd(f, J) is constant, so nothing shows g constant
    code, out, err = run(capsys, *argv)
    assert (code, out) == (4, "")
    assert "no contact order was decided at the precision caps" in err


def test_weight_vanishing_on_a_curve_singular_mod_p_exits_three(capsys):
    # g = x*f gives J = -f_y*f, so gcd(f, J) = f; every zero of x^2 - 5y mod 5
    # is singular, so no smooth residue names it before the search, and the
    # search decides no contact order: the shared factor is what proves exit 3
    code, out, err = run(capsys, "sigma", "--p", "5", "--f", "x^2 - 5*y", "--g", "x^3 - 5*x*y")
    assert (code, out) == (3, "")
    assert "share the factor 5*y - x^2, and no branch shows the weight moving" in err


@pytest.mark.parametrize("command", [("sigma",), ("verify", "--m", "2..3")], ids=["sigma", "verify"])
@pytest.mark.parametrize("depth", ["0", "-1"])
def test_search_depth_below_one_exits_two(capsys, command, depth):
    code, out, err = run(
        capsys, *command, "--p", "5", "--f", "y^2 - x^3", "--g", "y", "--depth", depth
    )
    assert (code, out) == (2, "")
    assert f"search depth must be >= 1, got {depth}" in err


def test_precision_exhaustion_exits_four(capsys):
    code, _, err = run(
        capsys,
        "param",
        "--p", "5",
        "--f", "y - x^2",
        "--at", "0,0",
        "--order", "2",
        "--g", "y",
        "--m", "8",
        "--l", "1",
        "--precision", "10",
    )
    assert code == 4
    assert "t-order" in err


# -- outputs ----------------------------------------------------------------------


def test_points_output_round_trips(capsys):
    code, out, _ = run(capsys, "points", "--p", "2", "--m", "2", "--f", "x*y - 1")
    assert code == 0
    ps, header = read_points(io.StringIO(out))
    assert list(zip(ps.xs.tolist(), ps.ys.tolist())) == [(1, 1), (3, 3)]
    assert header["f"] == "x*y - 1"
    assert "config" in header


def test_sum_csv_format(capsys):
    code, out, _ = run(
        capsys,
        "sum",
        "--p", "3",
        "--m", "1..3",
        "--f", "y - x^3",
        "--g", "y",
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    comments = [line for line in lines if line.startswith("#")]
    assert any("command=sum" in c for c in comments)
    header_idx = lines.index(next(l for l in lines if l.startswith("p,")))
    assert len(lines) - header_idx - 1 == 3  # one row per level


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sum_refuses_a_line_break_in_the_curve(capsys, fmt):
    # a config value is one '# key=value' line of the CSV block
    code, out, err = run(
        capsys, "sum", "--p", "5", "--m", "2", "--f", "y -\n x^2", "--g", "y", "--format", fmt
    )
    assert (code, out) == (2, "")
    assert "--f must not contain a line break" in err


@pytest.mark.parametrize(
    "argv, key",
    [
        (["sum", "--p", "5", "--m", "2", "--f", "y - x^2", "--g", "y\r"], "g"),
        (["verify", "--p", "5", "--m", "3..\u20285", "--f", "y - x^2", "--g", "y"], "m"),
        (["param", "--p", "5", "--f", "y - x^2", "--at", "0,\x0b0"], "at"),
    ],
)
def test_every_config_text_value_refuses_a_line_break(capsys, argv, key):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"--{key} must not contain a line break" in err


def test_sum_onevar(capsys):
    code, out, _ = run(capsys, "sum", "--p", "5", "--m", "2", "--onevar", "--f", "x^2")
    assert code == 0
    rec = json.loads(out)["records"][0]
    assert rec["point_count"] == 25
    assert rec["magnitude"] == pytest.approx(5.0)


def test_sum_onevar_linear_vanishes(capsys):
    code, out, _ = run(capsys, "sum", "--onevar", "--p", "5", "--m", "1..1", "--f", "x")
    assert code == 0
    rec = json.loads(out)["records"][0]
    assert rec["magnitude"] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize(
    "argv",
    [
        ("sum", "--m", "2"),
        ("verify", "--m", "2..3"),
        ("sigma",),
    ],
    ids=["sum", "verify", "sigma"],
)
def test_sum_onevar_rejects_weight(capsys, argv):
    code, _, err = run(
        capsys, *argv, "--p", "5", "--onevar", "--f", "x^2", "--g", "y"
    )
    assert code == 2
    assert "--onevar takes the one-variable polynomial in --f, with no --g" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("sum", "--m", "2"),
        ("verify", "--m", "2..3"),
        ("sigma",),
    ],
    ids=["sum", "verify", "sigma"],
)
def test_bivariate_commands_need_f_and_g(capsys, argv):
    code, _, err = run(capsys, *argv, "--p", "5", "--f", "y - x")
    assert code == 2
    assert f"{argv[0]} needs --f and --g (or --onevar)" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--m", "2..3"),
        ("sigma",),
    ],
    ids=["verify", "sigma"],
)
def test_search_budget_reaches_contact_exponent(capsys, monkeypatch, argv):
    # The critical-point search takes the library's budget, not the brute
    # scan's 10^8, unless --budget says otherwise.
    seen = []

    def fake_contact_exponent(f, g, p, *, depth, budget):
        seen.append(budget)
        raise WeightConstantError("stub")

    monkeypatch.setattr(cli, "contact_exponent", fake_contact_exponent)
    args = (*argv, "--p", "5", "--f", "y - x^2", "--g", "x")
    assert run(capsys, *args)[0] == 3
    assert run(capsys, *args, "--budget", "7")[0] == 3
    assert seen == [DEFAULT_SEARCH_BUDGET, 7]


@pytest.mark.parametrize("flag", [("--budget", "1"), ("--onevar",)], ids=["budget", "onevar"])
def test_param_rejects_options_it_does_not_read(capsys, flag):
    code, _, err = run(capsys, "param", "--p", "5", "--f", "y - x^2", "--at", "0,0", *flag)
    assert code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in err


@pytest.mark.parametrize(
    "flags,message",
    [
        (("--m", "5", "--l", "2"), "param takes --m only with --g"),
        (("--g", "y"), "param needs --m"),
        # --u and --l only shape the restricted sum
        (("--u", "2"), "param takes --u only with --g"),
        (("--l", "0"), "param takes --l only with --g"),
        (("--g", "y", "--m", "3..4"), "this command needs a single level m, not a range"),
    ],
    ids=["m-without-g", "g-without-m", "u-without-g", "l-without-g", "m-range"],
)
def test_param_takes_g_and_m_only_together(capsys, flags, message):
    code, out, err = run(capsys, "param", "--p", "5", "--f", "y - x^2", "--at", "0,0", *flags)
    assert (code, out) == (2, "")
    assert message in err


def test_param_refuses_an_anchor_that_is_not_a_pair(capsys):
    code, out, err = run(capsys, "param", "--p", "5", "--f", "y - x^2", "--at", "0")
    assert (code, out) == (2, "")
    assert "--at expects 'x,y' integers, got '0'" in err


def test_param_restricted_sum_over_the_cap_exits_two(capsys):
    # 2^35 branch points; refused before anything of that size is built
    code, out, err = run(
        capsys,
        "param",
        "--p", "2",
        "--f", "y - x^2",
        "--at", "0,0",
        "--order", "8",
        "--precision", "40",
        "--g", "y",
        "--m", "40",
        "--l", "5",
    )
    assert (code, out) == (2, "")
    assert "exceeds the exact int64 evaluation cap" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("points", "--p", "5", "--m", "1000000", "--f", "y - x^2"),
        ("sum", "--p", "5", "--m", "1000000", "--f", "y - x^2", "--g", "y", "--method", "lift"),
        ("sum", "--onevar", "--p", "5", "--m", "1000000", "--f", "x^3"),
        ("verify", "--p", "5", "--m", "3..1000000", "--f", "y - x^2", "--g", "y"),
        ("sum", "--p", "5", "--m", "1..1000000", "--f", "y - x^2", "--g", "y"),
    ],
    ids=["points", "sum-lift", "sum-onevar", "verify", "sum"],
)
def test_a_level_above_the_int64_cap_is_refused_before_any_work(capsys, monkeypatch, argv):
    # 5^1000000 has 698,971 digits: the refusal names it as p^m and never computes it
    monkeypatch.setattr(cli, "_certificate", lambda args: pytest.fail("searched"))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: modulus 5^1000000 exceeds the exact int64 evaluation cap 2147483648\n"


PARAM = ("param", "--p", "5", "--f", "y - x^2", "--at", "0,0", "--order", "8", "--g", "y")


@pytest.mark.parametrize(
    "argv, m",
    [
        (("--precision", "40", "--m", "100000000", "--l", "1"), 100000000),
        (("--precision", "500", "--m", "442", "--l", "441"), 442),
        (("--precision", "500", "--m", "500", "--l", "500"), 500),
    ],
    ids=["m=10^8", "m=442", "l=m=500"],
)
def test_a_level_above_the_largest_float_is_refused_at_once(capsys, argv, m):
    # param keeps exact phases past the int64 cap, but every sum divides by
    # p^m as a float: 5^442 > 1.8e308 used to fail there (exit 5), and
    # 5^100000000 took longer than 10 s before any check
    start = time.perf_counter()
    code, out, err = run(capsys, *PARAM, *argv)
    assert time.perf_counter() - start < 2
    assert (code, out, err) == (2, "", f"error: modulus 5^{m} exceeds the largest float\n")


def test_param_at_the_largest_float_still_sums(capsys):
    # 5^441 < 1.8e308: the sum runs, over 5^(441 - 440) values of t
    code, out, err = run(capsys, *PARAM, "--precision", "500", "--m", "441", "--l", "440")
    assert (code, err) == (0, "")
    record = json.loads(out)["sum"]
    assert (record["m"], record["point_count"]) == (441, 5)


def test_sum_brute_method_agrees_with_lift(capsys):
    args = ("--p", "3", "--m", "2", "--f", "y^2 - x^3", "--g", "x + y")
    _, out_lift, _ = run(capsys, "sum", *args, "--method", "lift")
    _, out_brute, _ = run(capsys, "sum", *args, "--method", "brute")
    a = json.loads(out_lift)["records"][0]
    b = json.loads(out_brute)["records"][0]
    assert (a["re"], a["im"], a["point_count"]) == (b["re"], b["im"], b["point_count"])


@pytest.mark.parametrize(
    "curve,weight,p,levels",
    [("y^2 - x^3", "x + y", "3", "1..4"), ("y - x^3", "x + y", "5", "1..3"), ("x^3 + y^3 - 1", "x", "7", "2..3")],
)
def test_sum_methods_agree(capsys, curve, weight, p, levels):
    # auto is stationary phase; lift and brute sum over every point of Y_m
    records = {}
    for method in ("auto", "lift", "brute"):
        code, out, _ = run(
            capsys, "sum", "--p", p, "--m", levels, "--f", curve, "--g", weight,
            "--u", "2", "--method", method,
        )
        assert code == 0
        records[method] = json.loads(out)["records"]
    for method in ("auto", "lift"):
        assert len(records[method]) == len(records["brute"])
        for a, b in zip(records[method], records["brute"]):
            assert (a["m"], a["point_count"]) == (b["m"], b["point_count"])
            tol = 1e-11 * b["point_count"] + 1e-9
            assert abs(complex(a["re"], a["im"]) - complex(b["re"], b["im"])) <= tol


@pytest.mark.parametrize("method", ["brute", "lift"])
def test_sum_onevar_rejects_an_oracle_method(capsys, method):
    code, out, err = run(
        capsys, "sum", "--onevar", "--p", "5", "--m", "2", "--f", "x^2", "--method", method
    )
    assert (code, out) == (2, "")
    assert "sum --onevar takes no --method" in err


@pytest.mark.parametrize(
    "command,extra",
    [
        ("sum", ()),
        ("sum", ("--method", "auto")),
        ("sum", ("--method", "lift")),
        ("sum", ("--onevar",)),
        # points --method lift|auto ran uncapped and printed the unread budget
        ("points", ()),
        ("points", ("--method", "auto")),
        ("points", ("--method", "lift")),
    ],
    ids=["default", "auto", "lift", "onevar", "points-default", "points-auto", "points-lift"],
)
def test_sum_rejects_budget_without_brute(capsys, command, extra):
    if command == "points":
        fg = ("--f", "y - x^2")
    elif "--onevar" in extra:
        fg = ("--f", "x^2")
    else:
        fg = ("--f", "y - x^2", "--g", "y")
    code, out, err = run(capsys, command, "--p", "5", "--m", "2", *fg, *extra, "--budget", "10")
    assert (code, out) == (2, "")
    assert f"{command} takes --budget only with --method brute" in err


def test_sum_budget_caps_the_brute_scan(capsys):
    args = ("sum", "--p", "5", "--m", "2", "--f", "y - x^2", "--g", "y", "--method", "brute")
    code, out, _ = run(capsys, *args, "--budget", "625")
    assert code == 0
    assert "budget" not in json.loads(out)["config"]
    code, _, err = run(capsys, *args, "--budget", "624")
    assert code == 2
    assert "budget is 624" in err


def test_sigma_json_structure(capsys):
    code, out, _ = run(capsys, "sigma", "--p", "7", "--f", "y - x^3", "--g", "y")
    assert code == 0
    payload = json.loads(out)
    assert payload["certificate"]["exponent"] == 3
    assert payload["certificate"]["confidence"] == "certified"
    assert payload["config"]["command"] == "sigma"


def _witness(x, y, order, chart_scale=0, leading_val=0):
    return {
        "certified_by": "exact-point",
        "chart_scale": chart_scale,
        "leading_val": leading_val,
        "level": 6,
        "order": order,
        "x": x,
        "y": y,
    }


# Whole sigma certificates, witness order and note text included, as the
# scalar per-class search wrote them; the array search must reproduce them.
# The cusp's "certified" label is ROADMAP 4(a), pinned here as it stands.
PINNED_CERTIFICATES = [
    (
        ("--p", "7", "--f", "x^3 + y^3 - 1", "--g", "x"),
        "heuristic", 3, ["2 candidate class(es) unresolved at depth 12"], [_witness(1, 0, 3)],
    ),
    (
        ("--p", "5", "--f", "y^2 - x^3", "--g", "y"),
        "certified", 1,
        ["contact order at (0, 0) mod p^4 undecided at the precision caps"], [],
    ),
    (
        ("--p", "7", "--f", "y - x^3 + 3*x^2 - 3*x + 1", "--g", "y"),
        "heuristic", 3,
        [
            "critical-locus search needs 705894 tests at level 11, budget is 200000",
            "14406 candidate class(es) unresolved at depth 10",
        ],
        [_witness(1, 0, 3)],
    ),
    (
        ("--p", "5", "--f", "y^2 - x^3", "--g", "y", "--budget", "100"),
        "heuristic", 1,
        [
            "critical-locus search needs 125 tests at level 3, budget is 100",
            "5 candidate class(es) unresolved at depth 2",
        ],
        [],
    ),
    (
        ("--p", "5", "--f", "y^2 - x^3 - 25", "--g", "y"),
        "certified", 3, [], [_witness(0, 5, 3, 1, 3), _witness(0, -5, 3, 1, 3)],
    ),
    # x^2 + 1 has no root mod 3: no point of the curve to search from
    (("--p", "3", "--f", "x^2 + 1", "--g", "y"), "certified", 1, ["curve has no points mod p"], []),
]


@pytest.mark.parametrize(
    "argv,confidence,exponent,notes,witnesses",
    PINNED_CERTIFICATES,
    ids=["fermat-cubic", "cusp", "shifted-cubic", "budget", "node-pair", "no-points"],
)
def test_sigma_certificate_is_pinned(capsys, argv, confidence, exponent, notes, witnesses):
    code, out, _ = run(capsys, "sigma", *argv)
    assert code == 0
    opts = dict(zip(argv[::2], argv[1::2]))
    assert json.loads(out) == {
        "certificate": {
            "confidence": confidence,
            "exponent": exponent,
            "notes": notes,
            "search_depth": 6,
            "witnesses": witnesses,
        },
        "config": {
            "command": "sigma",
            "depth": 6,
            "f": opts["--f"],
            "g": opts["--g"],
            "onevar": False,
            "p": int(opts["--p"]),
        },
    }


def test_sigma_onevar(capsys):
    code, out, _ = run(capsys, "sigma", "--p", "5", "--onevar", "--f", "x^3 - 3*x")
    assert code == 0
    assert json.loads(out)["certificate"]["exponent"] == 2


def test_param_coefficients(capsys):
    code, out, _ = run(
        capsys, "param", "--p", "5", "--f", "y - x^2", "--at", "0,0", "--order", "4"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["parametrization"]["coefficients"] == [0, 0, 1, 0, 0]
    assert payload["parametrization"]["solve_for"] == "y"


def test_param_with_restricted_sum(capsys):
    code, out, _ = run(
        capsys,
        "param",
        "--p", "5",
        "--f", "y - x^2",
        "--at", "0,0",
        "--order", "8",
        "--precision", "10",
        "--g", "y",
        "--m", "6",
        "--l", "4",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["sum"]["magnitude"] == pytest.approx(25.0)


def test_verify_embeds_confidence(capsys):
    code, out, _ = run(
        capsys, "verify", "--p", "5", "--m", "3..6", "--f", "y - x^2", "--g", "y"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["exponent_confidence"] == "certified"
    assert payload["report"]["passed"] is True


def test_verify_onevar_is_verify_on_the_graph_curve(capsys):
    # the one-variable sum of h is the sum along y = h with weight y, and
    # both certificates come from that curve: only the config blocks differ
    levels = ("--p", "5", "--m", "3..8")
    onevar = run(capsys, "verify", "--onevar", *levels, "--f", "x^3")
    graph = run(capsys, "verify", *levels, "--f", "y - (x^3)", "--g", "y")
    assert onevar[0] == graph[0] == 0
    onevar_out, graph_out = json.loads(onevar[1]), json.loads(graph[1])
    assert onevar_out["report"] == graph_out["report"]
    assert onevar_out["config"]["onevar"] and not graph_out["config"]["onevar"]


# Each output format byte for byte, kept in tests/golden/<id>.txt.  The
# inputs print stably: every float is an exact zero or integer, or a CSV
# value rounded to 15 digits.
GOLDEN = {
    "points": ("points", "--p", "3", "--m", "2", "--f", "y - x^2"),
    "sum-json": ("sum", "--p", "5", "--m", "2", "--f", "y - x^2", "--g", "y"),
    "sum-csv": ("sum", "--p", "5", "--m", "2", "--f", "y - x^2", "--g", "y", "--format", "csv",
                "--sigma", "2"),
    "verify-json": ("verify", "--p", "3", "--m", "2..4", "--f", "y - x", "--g", "x"),
    "verify-csv": ("verify", "--p", "5", "--m", "3..8", "--f", "y - x^2", "--g", "y",
                   "--format", "csv"),
    "verify-csv-all-zero": ("verify", "--p", "3", "--m", "1..6", "--f", "y - x", "--g", "x",
                            "--format", "csv"),
    "sigma": ("sigma", "--p", "7", "--f", "y - x^3", "--g", "y"),
    "param": ("param", "--p", "5", "--f", "y - x^2", "--at", "0,0", "--order", "4"),
    "param-sum": ("param", "--p", "5", "--f", "y - x^2", "--at", "0,0", "--order", "8",
                  "--precision", "10", "--g", "y", "--m", "6", "--l", "4"),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_output_is_byte_identical_to_its_golden_file(capsys, tmp_path, name):
    golden = (Path(__file__).parent / "golden" / f"{name}.txt").read_bytes()
    assert run(capsys, *GOLDEN[name]) == (0, golden.decode("utf-8"), "")
    path = tmp_path / "out.txt"
    assert run(capsys, *GOLDEN[name], "--out", str(path)) == (0, "", "")
    assert path.read_bytes() == golden


# -- determinism and files -----------------------------------------------------------


def test_output_file_and_byte_determinism(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code, out, _ = run(
            capsys,
            "sum",
            "--p", "7",
            "--m", "2..4",
            "--f", "y - x^3",
            "--g", "x + y",
            "--out", str(path),
        )
        assert code == 0
        assert out == ""  # everything went to the file
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_config_file_defaults_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults\np = 5\nm = 2\nf = y - x^2\ng = y\n")
    code, out, _ = run(capsys, "sum", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["records"][0]["p"] == 5
    # explicit flag wins over the file
    code, out, _ = run(capsys, "sum", "--config", str(cfg), "--p", "7")
    assert code == 0
    assert json.loads(out)["records"][0]["p"] == 7


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("prime = 5\n")
    code, _, err = run(capsys, "sum", "--config", str(cfg), "--m", "2", "--f", "y - x", "--g", "y")
    assert code == 2
    assert "unknown option" in err


def test_missing_config_file(capsys):
    code, _, _ = run(capsys, "sum", "--config", "/nonexistent.cfg", "--p", "5", "--m", "2", "--f", "y - x", "--g", "y")
    assert code == 2


@pytest.mark.parametrize(
    "line,message",
    [
        ("onevar = maybe", "expected a boolean, got 'maybe'"),
        ("config = other.cfg", "unknown option 'config'"),
        ("tolerance = 0.1", "unrecognized arguments: --tolerance 0.1"),  # a verify option
        ("p = five", "argument --p: invalid int value: 'five'"),
        ("p 5", "expected key=value, got 'p 5'"),
    ],
    ids=["bad-flag", "config", "other-subcommand", "wrong-type", "no-equals"],
)
def test_config_file_values_are_checked_like_flags(tmp_path, capsys, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"p = 5\nm = 2\nf = y - x^2\ng = y\n{line}\n")
    code, out, err = run(capsys, "sum", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("value,onevar", [("yes", True), ("off", False)])
def test_config_file_flag(tmp_path, capsys, value, onevar):
    cfg = tmp_path / "flag.cfg"
    cfg.write_text(f"p = 5\nm = 2\nf = x^2\nonevar = {value}\n")
    weight = () if onevar else ("--g", "y")
    code, out, _ = run(capsys, "sum", "--config", str(cfg), *weight)
    assert code == 0
    assert json.loads(out)["config"]["onevar"] is onevar


@pytest.mark.parametrize("before", [False, True], ids=["after-subcommand", "before-subcommand"])
def test_config_file_on_either_side_of_the_subcommand(tmp_path, monkeypatch, capsys, before):
    # the file's path is the word "sum", so it must not be taken for the subcommand
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sum").write_text("p = 5\nm = 2..3\nf = y - x^2\ng = y\n")
    argv = ("--config", "sum", "sum") if before else ("sum", "--config", "sum")
    plain = run(capsys, "sum", "--p", "5", "--m", "2..3", "--f", "y - x^2", "--g", "y")
    assert run(capsys, *argv) == plain
    # explicit flags still win, wherever --config stands
    code, out, _ = run(capsys, *argv, "--p", "7")
    assert code == 0
    assert [r["p"] for r in json.loads(out)["records"]] == [7, 7]


def test_sigma_rejects_the_unit_it_never_reads(tmp_path, capsys):
    # the certificate does not depend on u, so sigma takes no --u
    argv = ("sigma", "--p", "5", "--f", "y - x^3", "--g", "y")
    code, out, err = run(capsys, *argv, "--u", "3")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --u 3" in err
    cfg = tmp_path / "unit.cfg"
    cfg.write_text("u = 3\n")
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --u 3" in err
    assert run(capsys, *argv)[0] == 0


def test_the_shared_parser_keeps_no_state_between_calls(tmp_path, capsys):
    cfg = tmp_path / "p7.cfg"
    cfg.write_text("p = 7\n")
    args = ("--m", "2", "--f", "y - x^2", "--g", "y")
    from_config = run(capsys, "sum", "--config", str(cfg), *args)
    assert json.loads(from_config[1])["config"]["p"] == 7
    # the file's p does not stay behind for the next call
    code, out, err = run(capsys, "sum", *args)
    assert (code, out) == (2, "")
    assert "the following arguments are required: --p" in err
    assert run(capsys, "sum", "--config", str(cfg), *args) == from_config
    explicit = run(capsys, "sum", "--p", "5", *args)
    assert json.loads(explicit[1])["config"]["p"] == 5
    assert run(capsys, "sum", "--p", "5", *args) == explicit


def test_the_parser_is_built_once_on_the_first_main_call():
    # A fresh interpreter: importing the module builds nothing, and main()
    # with no argv reads sys.argv like the console script does.
    script = """
import sys
from padicsums import cli
assert cli.build_parser.cache_info().currsize == 0
sys.argv = ["padicsums", "sum", "--p", "5", "--m", "2..3", "--f", "y - x^2", "--g", "y"]
assert cli.main() == 0
assert cli.main(sys.argv[1:]) == 0
assert cli.build_parser() is cli.build_parser()
assert cli.build_parser.cache_info().misses == 1
"""
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    once = proc.stdout[: len(proc.stdout) // 2]
    assert proc.stdout == once * 2  # main() and main(argv) printed the same bytes
    assert json.loads(once)["config"]["m"] == "2..3"


FILES = ("--config", "empty.cfg", "--out", "out.txt")


@pytest.mark.parametrize(
    "argv,config",
    [
        (
            ("points", "--p", "5", "--m", "2", "--f", "y - x^2"),
            {"budget": 10**8, "command": "points", "f": "y - x^2", "m": "2", "method": "lift",
             "p": 5},
        ),
        (
            ("sum", "--p", "5", "--m", "2", "--f", "y - x^2", "--g", "y"),
            {"command": "sum", "f": "y - x^2", "format": "json", "g": "y", "m": "2",
             "method": "auto", "onevar": False, "p": 5, "u": 1},
        ),
        (
            ("verify", "--p", "5", "--m", "2..4", "--f", "y - x^2", "--g", "y"),
            {"command": "verify", "depth": 6, "exponent_confidence": "certified",
             "f": "y - x^2", "format": "json", "g": "y", "m": "2..4", "onevar": False, "p": 5,
             "tolerance": 0.05, "u": 1},
        ),
        (
            ("sigma", "--p", "5", "--f", "y - x^2", "--g", "y"),
            {"command": "sigma", "depth": 6, "f": "y - x^2", "g": "y", "onevar": False, "p": 5},
        ),
        (
            ("param", "--p", "5", "--f", "y - x^2", "--at", "0,0"),
            {"at": "0,0", "command": "param", "f": "y - x^2", "l": 0, "level": 1, "order": 16,
             "p": 5, "precision": 16, "u": 1},
        ),
        # every option each subcommand takes: config, out and budget are not
        # echoed, except the budget that points resolves
        (
            ("points", "--p", "5", *FILES, "--budget", "1000", "--m", "2", "--method", "brute",
             "--f", "y - x^2"),
            {"budget": 1000, "command": "points", "f": "y - x^2", "m": "2", "method": "brute",
             "p": 5},
        ),
        (
            ("sum", "--p", "5", *FILES, "--budget", "20000", "--m", "2..3", "--f", "y - x^2",
             "--g", "y", "--u", "2", "--method", "brute", "--format", "json", "--sigma", "2"),
            {"command": "sum", "f": "y - x^2", "format": "json", "g": "y", "m": "2..3",
             "method": "brute", "onevar": False, "p": 5, "sigma": 2, "u": 2},
        ),
        (
            ("verify", "--p", "5", *FILES, "--budget", "5000", "--m", "2..4", "--f", "y - x^2",
             "--g", "y", "--u", "2", "--depth", "4", "--format", "json", "--tolerance", "0.1"),
            {"command": "verify", "depth": 4, "exponent_confidence": "certified",
             "f": "y - x^2", "format": "json", "g": "y", "m": "2..4", "onevar": False, "p": 5,
             "tolerance": 0.1, "u": 2},
        ),
        (
            ("sigma", "--p", "5", *FILES, "--budget", "5000", "--f", "y - x^2", "--g", "y",
             "--depth", "4"),
            {"command": "sigma", "depth": 4, "f": "y - x^2", "g": "y", "onevar": False, "p": 5},
        ),
        (
            ("param", "--p", "5", *FILES, "--m", "3", "--f", "y - x^2", "--g", "y", "--u", "2",
             "--at", "0,0", "--level", "2", "--order", "8", "--precision", "12", "--l", "1"),
            {"at": "0,0", "command": "param", "f": "y - x^2", "g": "y", "l": 1, "level": 2,
             "m": "3", "order": 8, "p": 5, "precision": 12, "u": 2},
        ),
    ],
    ids=["points", "sum", "verify", "sigma", "param"] + [
        "points-all", "sum-all", "verify-all", "sigma-all", "param-all"
    ],
)
def test_minimal_argv_config_block_is_pinned(capsys, tmp_path, monkeypatch, argv, config):
    # every default a subcommand writes into its output, as each one prints it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "empty.cfg").write_text("# no defaults\n")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    if "--out" in argv:
        out = (tmp_path / "out.txt").read_text()
    if argv[0] == "points":
        printed = json.loads(read_points(io.StringIO(out))[1]["config"])
    else:
        printed = json.loads(out)["config"]
    assert printed == config


@pytest.mark.parametrize("sigma", ["0", "-2"])
def test_sum_rejects_a_normalization_exponent_below_one(capsys, sigma):
    code, out, err = run(
        capsys, "sum", "--p", "5", "--m", "2", "--f", "y - x^2", "--g", "y", "--sigma", sigma
    )
    assert (code, out) == (2, "")
    assert f"exponent must be >= 1, got {sigma}" in err


def test_sum_normalization_by_exponent_one_is_the_magnitude(capsys):
    code, out, _ = run(
        capsys, "sum", "--p", "5", "--m", "2..3", "--f", "y - x^2", "--g", "y", "--sigma", "1"
    )
    assert code == 0
    for record in json.loads(out)["records"]:
        assert record["normalized"] == record["magnitude"]
