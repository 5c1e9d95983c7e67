"""Command line interface: output contracts, exit codes, determinism."""

import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracvar
from fracvar import (
    FracOrder,
    MultiTermFDE,
    SampledPath,
    Variant,
    action,
    el_residual,
    frac_deriv,
    lagrangian_catalog,
    lift,
    make_lagrangian,
    make_model,
    model_catalog,
    solve_fode2,
    solve_multiterm,
)
from fracvar.cli import _build_parser, main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(c) for c in ln.split(",")] for ln in lines[1:]]
    return header, rows


# === documented examples ====================================================


def test_deriv_power_function_example(capsys):
    code, out, _ = run(
        capsys, ["deriv", "--alpha", "0.5", "--fn", "pow", "--gamma", "2", "--grid", "0:1:1025"]
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["t", "value"]
    assert len(rows) == 1025
    worst = 0.0
    for t, v in rows:
        if t < 0.1:
            continue
        exact = math.gamma(3) / math.gamma(2.5) * t**1.5
        worst = max(worst, abs(v - exact) / exact)
    assert worst <= 1e-2


def test_mlf_classical_value(capsys):
    code, out, _ = run(capsys, ["mlf", "--alpha", "1", "--z", "2"])
    assert code == 0
    assert out.split("\n")[0] == "value"
    assert abs(float(out.split("\n")[1]) - math.exp(2.0)) <= 1e-10


def test_deriv_side_right(capsys):
    code, out, _ = run(
        capsys,
        ["deriv", "--alpha", "0.5", "--side", "right", "--fn", "pow", "--gamma", "2",
         "--grid", "0:1:129"],
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 129


# === exit codes =============================================================


def test_short_grid_is_a_usage_error(capsys):
    code, _, err = run(capsys, ["deriv", "--alpha", "1.5", "--grid", "0:1:4"])
    assert code == 2
    assert "grid" in err


def test_series_overflow_is_a_numerical_error(capsys):
    code, _, err = run(capsys, ["mlf", "--alpha", "0.25", "--z", "49"])
    assert code == 3
    assert "overflow" in err.lower()


def test_series_cancellation_is_a_numerical_error(capsys):
    # E_1(-20) = 2.1e-9; the series sums to 2.7e-7 through terms of 4e7.
    code, out, err = run(capsys, ["mlf", "--alpha", "1", "--z", "-20"])
    assert code == 3
    assert out == ""
    assert "cancellation" in err


def test_compounded_term_rounding_is_a_numerical_error(capsys):
    # E_1.5(-49) = -4.7949127e-3; the series returned -4.7949122e-3, its
    # terms' compounded log-gamma rounding unaccounted for.
    code, out, err = run(capsys, ["mlf", "--alpha", "1.5", "--z", "-49"])
    assert code == 3
    assert out == ""
    assert "cancellation" in err


def test_series_budget_is_a_usage_error(capsys):
    code, _, err = run(capsys, ["mlf", "--alpha", "0.25", "--z", "60"])
    assert code == 2
    assert "budget" in err


# A NaN argument is an input error, not a series overflow; inf keeps the
# budget message.
@pytest.mark.parametrize("z, message", [("nan", "z must be a number"), ("inf", "budget")])
def test_non_finite_series_argument_is_a_usage_error(capsys, z, message):
    code, out, err = run(capsys, ["mlf", "--alpha", "1", "--z", z])
    assert code == 2
    assert out == ""
    assert message in err


def test_unknown_names_are_usage_errors(capsys):
    assert run(capsys, ["solve", "--model", "pendulum"])[0] == 2
    assert (
        run(capsys, ["action", "--lagrangian", "nope", "--fn", "sin", "--grid", "0:1:33"])[0]
        == 2
    )


def test_unknown_names_print_their_message_unquoted(capsys):
    assert run(capsys, ["solve", "--model", "nope"]) == (2, "", (
        "error: unknown model 'nope'; available: friction, phillips, business-cycle, "
        "bagley-torvik\n"))
    assert run(capsys, ["el-check", "--lagrangian", "nope"]) == (2, "", (
        "error: unknown Lagrangian 'nope'; available: bagley-torvik, order1-potential, "
        "order2-potential, order3-potential, power-law-mixed\n"))


# Orders and grids rejected by the library: before any sampling, except a
# lift's alpha and k, which lift checks on entry, after the path is sampled.
@pytest.mark.parametrize("argv, message", [
    (["deriv", "--alpha", "0"], "order mu must be positive"),
    (["deriv", "--alpha", "-1"], "order mu must be positive"),
    (["deriv", "--grid", "1:0:33"], "t1 must exceed t0"),
    (["lift", "--grid", "1:0:33"], "t1 must exceed t0"),
    (["action", "--grid", "1:0:33"], "t1 must exceed t0"),
    (["deriv", "--grid", "0:1"], "grid must look like t0:T:n, got '0:1'"),
    (["lift", "--alpha", "1.5"], "alpha must lie in (0, 1)"),
    (["lift", "--k", "0"], "jet order k must be at least 1"),
], ids=["deriv-alpha-0", "deriv-alpha-negative", "deriv-reversed-grid", "lift-reversed-grid",
        "action-reversed-grid", "grid-without-count", "lift-alpha", "lift-k"])
def test_bad_orders_and_grids_are_usage_errors(capsys, argv, message):
    assert run(capsys, argv) == (2, "", f"error: {message}\n")


def test_el_check_file_errors(capsys, tmp_path):
    code, _, err = run(
        capsys,
        ["el-check", "--lagrangian", "bagley-torvik", "--from-file", str(tmp_path / "no.csv")],
    )
    assert code == 2
    bad = tmp_path / "bad.csv"
    ts = [0.0, 0.1, 0.2, 0.35, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    bad.write_text("t,x\n" + "".join(f"{t},{t * t}\n" for t in ts))
    code, _, err = run(
        capsys, ["el-check", "--lagrangian", "bagley-torvik", "--from-file", str(bad)]
    )
    assert code == 2
    assert "uniform" in err


# The file is the path, so a function or grid flag beside it used to be
# dropped without a word; it is a usage error naming the flag.
@pytest.mark.parametrize("flag", [["--fn", "sin"], ["--grid", "0:5:99"], ["--gamma", "9"],
                                  ["--cval", "2"], ["--center", "0.2"], ["--width", "0.3"]],
                         ids=["fn", "grid", "gamma", "cval", "center", "width"])
def test_el_check_file_refuses_function_and_grid_flags(capsys, tmp_path, flag):
    data = tmp_path / "p.csv"
    data.write_text("t,x\n" + "".join(f"{j / 16!r},{(j / 16) ** 2!r}\n" for j in range(17)))
    base = ["el-check", "--from-file", str(data)]
    assert run(capsys, base)[0] == 0
    message = f"error: {flag[0]} cannot be combined with --from-file\n"
    assert run(capsys, base + flag) == (2, "", message)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({flag[0][2:]: flag[1]}))
    assert run(capsys, base + ["--config", str(cfg)]) == (2, "", message)


# A NaN or infinite time compares false against any tolerance, so the
# uniform-grid check must be written to fail on it.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("cells", [{4: "nan"}, {0: "nan"}, {4: "inf"}, {0: "-inf", 1: "-inf"}],
                         ids=["nan", "nan-first", "inf", "inf-first"])
def test_el_check_file_with_non_finite_times_is_a_usage_error(capsys, tmp_path, cells):
    ts = [cells.get(j, str(0.1 * j)) for j in range(11)]
    bad = tmp_path / "bad.csv"
    bad.write_text("t,x\n" + "".join(f"{t},{0.01 * j * j}\n" for j, t in enumerate(ts)))
    code, out, err = run(capsys, ["el-check", "--from-file", str(bad)])
    assert code == 2
    assert out == ""
    assert err == "error: sampled input must sit on a uniform time grid\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("cells", [{4: "nan"}, {0: "nan"}, {4: "inf"}, {0: "-inf", 1: "-inf"}],
                         ids=["nan", "nan-first", "inf", "inf-first"])
def test_el_check_file_with_non_finite_x_is_a_usage_error(capsys, tmp_path, cells):
    xs = [cells.get(j, str(0.01 * j * j)) for j in range(11)]
    bad = tmp_path / "bad.csv"
    bad.write_text("t,x\n" + "".join(f"{0.1 * j},{x}\n" for j, x in enumerate(xs)))
    code, out, err = run(capsys, ["el-check", "--from-file", str(bad)])
    assert code == 2
    assert out == ""
    assert err == f"error: {bad} has a non-finite x in data row {min(cells) + 1}\n"


GRID9 = [j / 8 for j in range(9)]


@pytest.mark.parametrize("text, message", [
    ("t,x\n", "holds no data rows"),
    ("t\n" + "".join(f"{t}\n" for t in GRID9), "needs columns t and x"),
    ("t,x\n0,0\n0.125\n", "has malformed rows"),
    ("t,x\n0,0\n0.125,zero\n", "has malformed rows"),
    ("t,x\n" + "".join(f"{t},{t}\n" for t in GRID9[:8]),
     "sampled input too short: need at least 9 nodes"),
    # A first line of numbers used to be taken for a header and dropped, t = 0 with it.
    ("".join(f"{j / 8},{j**3 / 512}\n" for j in range(10)),
     "has no header line: its first line is data, not column names"),
], ids=["no-data-rows", "one-column", "missing-cell", "bad-number", "eight-rows", "no-header"])
def test_el_check_file_contents_errors(capsys, tmp_path, text, message):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    code, out, err = run(capsys, ["el-check", "--from-file", str(bad)])
    assert (code, out) == (2, "")
    assert message in err and err.count("\n") == 1


def test_el_check_file_without_t_and_x_reads_its_first_two_columns(capsys, tmp_path):
    rows = "".join(f"{t},{t**2.5},{-t}\n" for t in GRID9)
    named, unnamed = tmp_path / "named.csv", tmp_path / "unnamed.csv"
    named.write_text("t,x,other\n" + rows)
    unnamed.write_text("time,position,other\n" + rows)
    expected = run(capsys, ["el-check", "--from-file", str(named)])
    assert expected[0] == 0
    assert run(capsys, ["el-check", "--from-file", str(unnamed)]) == expected


# h**-mu overflows (mu = 150, 103 and the lift's top level 108 at h = 2**-10)
# or underflows (mu = 400 at h = 10000 / 1024): one usage error line, no warning.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, mu", [
    (["deriv", "--alpha", "150"], "150"),
    (["deriv", "--alpha", "103"], "103"),
    (["lift", "--alpha", "0.9", "--k", "120"], "108"),
    (["deriv", "--alpha", "400", "--grid", "0:10000:1025"], "400"),
], ids=["deriv-150", "deriv-103", "lift-k120", "deriv-400-long-step"])
def test_huge_orders_are_usage_errors(capsys, argv, mu):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: h**-mu is not a finite nonzero float") and f"mu={mu}," in err
    assert err.count("\n") == 1


# Finite h**-mu whose product with a history sum overflows used to print a
# numpy warning before "output is not finite at row ...".
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, mu, node", [
    (["deriv", "--alpha", "60"], "60", 822),
    (["deriv", "--alpha", "60", "--side", "right"], "60", 822),
    (["lift", "--alpha", "0.9", "--k", "66"], "59.4", 887),
], ids=["deriv-60", "deriv-60-right", "lift-k66"])
def test_scaled_sum_overflow_is_a_numerical_failure(capsys, argv, mu, node):
    code, out, err = run(capsys, argv)
    assert code == 3
    assert out == ""
    assert err == (
        f"numerical failure: h**-mu times the history sum overflows for order mu={mu}, "
        f"step h=0.000976562, at node {node} from the base\n"
    )


# Finite sums whose rounding reaches their size used to print them, exit 0.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, mu", [
    (["deriv", "--alpha", "5.5", "--fn", "sin"], "5.5"),
    (["deriv", "--alpha", "30", "--fn", "sin"], "30"),
    (["deriv", "--alpha", "4.5", "--fn", "sin", "--grid", "0:1:4097", "--side", "right"], "4.5"),
    (["lift", "--alpha", "0.9", "--k", "6", "--fn", "sin"], "5.4"),
], ids=["deriv-5.5", "deriv-30", "deriv-4.5-right-4097", "lift-k6"])
def test_results_swamped_by_rounding_are_numerical_failures(capsys, argv, mu):
    code, out, err = run(capsys, argv)
    assert (code, out) == (3, "")
    assert err.startswith(f"numerical failure: rounding error may reach the derivative's size "
                          f"for order mu={mu}, step h=")
    assert err.count("\n") == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["deriv", "lift", "action", "el-check"])
@pytest.mark.parametrize("grid", ["0:inf:9", "-inf:1:9", "-1e308:1e308:9"])
def test_non_finite_grid_is_a_usage_error(capsys, command, grid):
    code, out, err = run(capsys, [command, f"--grid={grid}"])
    assert code == 2
    assert out == ""
    assert err == "error: grid ends t0, t1 and their step must be finite\n"


def test_el_check_rejects_classical_variant_of_fractional_powers(capsys):
    argv = ["el-check", "--lagrangian", "power-law-mixed", "--coefficients",
            "literature-fractional", "--fn", "exp", "--grid", "0:1:257"]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "--variant fractional" in err
    code, out, _ = run(capsys, argv + ["--variant", "fractional"])
    assert code == 0
    assert len(parse_csv(out)[1]) == 257


# t**-1 is infinite at the base node, so every derivative row is NaN;
# exp(800) overflows the last rows of the sampled path. The 5000-node
# derivative takes the FFT path, and power-law-mixed's U_x = x**(gamma_exp -
# alpha) is infinite at x = 0 from a finite input. All but the first and
# lift used to print a numpy RuntimeWarning before the line.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv, row",
    [
        (["deriv", "--fn", "pow", "--gamma", "-1", "--grid", "0:1:9"], 0),
        (["lift", "--fn", "exp", "--grid", "0:800:33", "--k", "2"], 29),
        (["deriv", "--fn", "pow", "--gamma", "-1", "--grid", "0:1:5000"], 0),
        (["el-check", "--fn", "pow", "--gamma", "-1", "--grid", "0:1:33"], 0),
        (["action", "--fn", "exp", "--grid", "0:800:33"], 0),
        (["el-check", "--lagrangian", "power-law-mixed", "--gamma-exp", "0.2", "--fn", "pow",
          "--gamma", "1", "--grid", "0:1:33"], 0),
    ],
    ids=["deriv", "lift", "deriv-fft", "el-check", "action", "el-check-power-law"],
)
def test_non_finite_table_is_a_numerical_error(capsys, argv, row):
    code, out, err = run(capsys, argv)
    assert code == 3
    assert out == ""
    assert err == f"numerical failure: {argv[0]} output is not finite at row {row}\n"


# The solvers stop at the first non-finite node with a typed error, without
# a RuntimeWarning, before any table is written. A forcing of 1e308
# overflows the multi-term solve's far sums at the second block's first
# node; the FODE2 right side -b1 x overflows to -inf at the first node,
# both from finite inputs.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["solve", "--model", "bagley-torvik", "--forcing", "1e308", "--h", "0.00048828125"],
            "solution is not finite at t = 0.250488",
        ),
        (
            ["solve", "--model", "phillips", "--variant", "fractional", "--b1", "1e308",
             "--x0", "10"],
            "solution is not finite or exceeded 1e+12 at t = 0.00488281",
        ),
    ],
    ids=["multiterm", "fode2"],
)
def test_non_finite_solution_is_a_numerical_error(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert code == 3
    assert out == ""
    assert message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--model", "friction", "--x0", "inf"], "x0 must be finite"),
        (["--model", "friction", "--v0", "nan"], "v0 must be finite"),
        (["--model", "phillips", "--t-end", "inf", "--h", "0.01"], "t_end must be finite"),
        (["--model", "phillips", "--variant", "classical", "--t-end", "nan"],
         "t_end must be finite"),
        (["--model", "friction", "--h", "nan"], "step size h must be positive"),
        (["--model", "business-cycle", "--alpha", "inf"], "alpha must be finite"),
        (["--model", "bagley-torvik", "--alpha", "inf"], "alpha must be finite"),
        (["--model", "bagley-torvik", "--a", "inf"], "a must be finite"),
        (["--model", "bagley-torvik", "--b", "nan"], "b must be finite"),
        (["--model", "business-cycle", "--b1", "nan"], "b1 must be finite"),
        (["--model", "phillips", "--variant", "classical", "--a1", "inf"],
         "a1 must be finite"),
        (["--model", "friction", "--m", "nan"], "m must be finite"),
        (["--model", "friction", "--gamma-coef", "inf"], "gamma_coef must be finite"),
        (["--model", "phillips", "--a1", "inf"], "a1 must be finite"),
        (["--model", "phillips", "--b1", "nan"], "b1 must be finite"),
        (["--model", "phillips", "--f", "inf"], "f must be finite"),
        (["--model", "phillips", "--variant", "classical", "--f", "inf"], "f must be finite"),
        (["--model", "business-cycle", "--f", "nan"], "f must be finite"),
        (["--model", "bagley-torvik", "--forcing", "inf"], "forcing must be finite"),
    ],
    ids=["x0", "v0", "t_end-fode2", "t_end-multiterm", "h", "business-cycle-alpha",
         "bagley-torvik-alpha", "bagley-torvik-a", "bagley-torvik-b", "business-cycle-b1",
         "phillips-a1", "friction-m", "friction-gamma-coef", "phillips-fractional-a1",
         "phillips-fractional-b1", "phillips-fractional-f", "phillips-classical-f",
         "business-cycle-f", "bagley-torvik-forcing-cval"],
)
def test_non_finite_solver_inputs_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, ["solve", *argv])
    assert code == 2
    assert out == ""
    assert f"error: {message}" in err


# Scaled coefficients c h**(-mu) that overflow used to print numpy
# RuntimeWarnings and exit 3 at the first node, or, for a huge order, exit 3
# with the bare OverflowError text "(34, 'Numerical result out of range')".
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--model", "bagley-torvik", "--a", "1e308"],
        ["solve", "--model", "business-cycle", "--a1", "1e308"],
        ["solve", "--model", "bagley-torvik", "--variant", "fractional", "--alpha", "20"],
        ["solve", "--model", "bagley-torvik", "--variant", "fractional", "--alpha", "200"],
    ],
    ids=["bagley-torvik-a", "business-cycle-a1", "bagley-torvik-alpha",
         "bagley-torvik-alpha-200"],
)
def test_overflowing_scaled_coefficients_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == "error: degenerate implicit update: scaled coefficients overflow at this h\n"


# m = 0 used to end in a ZeroDivisionError traceback, and non-finite
# Lagrangian parameters in a RuntimeWarning and a misleading
# finite-difference mismatch.
@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--model", "friction", "--m", "0"], "m must be nonzero"),
        (["el-check", "--lagrangian", "order2-potential", "--a1", "inf"], "a1 must be finite"),
        (["el-check", "--lagrangian", "bagley-torvik", "--a", "nan"], "a must be finite"),
        (["action", "--lagrangian", "power-law-mixed", "--gamma-exp", "inf"],
         "gamma_exp must be finite"),
        (["el-check", "--lagrangian", "bagley-torvik", "--forcing", "inf"],
         "forcing must be finite"),
        (["el-check", "--lagrangian", "order1-potential", "--potential-quadratic", "inf"],
         "potential_quadratic must be finite"),
        (["action", "--lagrangian", "order2-potential", "--a2", "nan"], "a2 must be finite"),
    ],
    ids=["friction-m-zero", "order2-a1", "bagley-torvik-a", "power-law-gamma-exp",
         "forcing-cval", "potential-quadratic", "order2-a2"],
)
def test_bad_catalog_coefficients_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


# A step too small for t_end / h to be finite used to exit 3 with "cannot
# convert float infinity to integer"; orders and exponents whose Gamma
# factors overflow exited 3 with "math range error", and power-law-mixed's
# alpha = 500.5 ended in a ZeroDivisionError traceback.
@pytest.mark.parametrize("argv, message", [
    (["solve", "--model", "friction", "--h", "1e-320"],
     "step size h = 9.99989e-321 is too small: t_end / h overflows"),
    (["el-check", "--lagrangian", "order2-potential", "--alpha", "1e3"],
     "alpha = 1000 overflows the Gamma factors of the 'normalized' coefficients"),
    (["el-check", "--lagrangian", "order2-potential", "--alpha", "1e3", "--coefficients",
      "literature"], "alpha = 1000 overflows the Gamma factors of the 'literature' coefficients"),
    (["el-check", "--lagrangian", "bagley-torvik", "--coefficients", "literature", "--alpha",
      "1e3"], "alpha = 1000 overflows the Gamma factors of the 'literature' coefficients"),
    (["el-check", "--lagrangian", "power-law-mixed", "--gamma-exp", "200"],
     "gamma_exp = 200 puts Gamma(1 + gamma_exp) or Gamma(1 + gamma_exp - alpha) out of "
     "floating-point range"),
    (["action", "--lagrangian", "power-law-mixed", "--alpha", "500.5"],
     "alpha = 500.5 overflows the Gamma factors of the 'normalized' coefficients"),
], ids=["h", "order2-alpha", "order2-literature-alpha", "bagley-torvik-literature-alpha",
        "power-law-gamma-exp", "power-law-alpha"])
def test_out_of_range_steps_and_orders_are_usage_errors(capsys, argv, message):
    assert run(capsys, argv) == (2, "", f"error: {message}\n")


# An infinite order used to overflow the order's integer ceiling or the
# series (exit 3).
@pytest.mark.parametrize(
    "argv, message",
    [
        (["deriv", "--alpha", "inf"], "order mu must be finite"),
        (["mlf", "--alpha", "inf", "--z", "2"], "alpha must be finite"),
    ],
    ids=["deriv", "mlf"],
)
def test_infinite_orders_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert f"error: {message}" in err


# Commands that no other test runs as given: a success writes nothing to
# stderr, a failure no table and one typed line. The fractional solves at
# h = 2**-13 take the blocked spectral path (business-cycle) and blocks of
# chord steps (phillips), and must raise no RuntimeWarning; a zero leading
# coefficient of the derived plate equation is a usage error; an order whose
# Gamma(1 + alpha) overflows sums to its first term.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, code", [
    (["solve", "--model", "business-cycle", "--variant", "fractional", "--alpha", "0.4",
      "--h", "0.0001220703125"], 0),
    (["solve", "--model", "phillips", "--variant", "fractional", "--h", "0.0001220703125"], 0),
    (["solve", "--model", "bagley-torvik", "--a", "0"], 2),
    (["solve", "--model", "business-cycle", "--forcing", "5"], 2),
    (["deriv", "--fn", "sin", "--gamma", "3"], 2),
    (["deriv", "--out", "."], 2),
    (["deriv", "--fn", "pow", "--gamma", "-1", "--grid", "0:1:33"], 3),
    (["mlf", "--alpha", "1e308", "--z", "0"], 0),
], ids=["business-cycle-fine", "phillips-fine", "plate-zero-leading", "foreign-model-flag",
        "foreign-function-flag", "out-directory", "deriv-non-finite-33", "mlf-gamma-overflow"])
def test_commands_end_in_their_exit_code_and_stderr(capsys, argv, code):
    got, out, err = run(capsys, argv)
    assert got == code
    if code == 0:
        assert err == ""
    else:
        assert out == ""
        assert err.startswith({2: "error: ", 3: "numerical failure: "}[code])
        assert err.count("\n") == 1


# === output formats =========================================================


def test_json_format_carries_meta(capsys):
    code, out, _ = run(capsys, ["mlf", "--alpha", "1", "--z", "2", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc) == ["columns", "meta", "rows"]
    assert doc["meta"]["scheme"] == "grunwald-letnikov"
    assert set(doc["meta"]) >= {"alpha", "h", "scheme", "version"}


def test_lift_table_has_jet_columns(capsys):
    code, out, _ = run(
        capsys,
        ["lift", "--alpha", "0.5", "--k", "2", "--fn", "pow", "--gamma", "2",
         "--grid", "0:1:33"],
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["t", "x", "y1", "y2"]
    assert len(rows) == 33


def test_models_catalog_listing(capsys):
    code, out, _ = run(capsys, ["models", "list"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "name,variant,kind,orders,description"
    expected = [  # four models, two variants each, at the factories' defaults
        ["friction", "classical", "fode2", "1"],
        ["friction", "fractional", "fode2", "0.999"],
        ["phillips", "classical", "multiterm", "2;1"],
        ["phillips", "fractional", "fode2", "0.999"],
        ["business-cycle", "classical", "multiterm", "3;2;1"],
        ["business-cycle", "fractional", "multiterm", "3;2;1"],
        ["bagley-torvik", "classical", "multiterm", "2;1.5"],
        ["bagley-torvik", "fractional", "multiterm", "2;1.5"],
    ]
    assert [ln.split(",")[:4] for ln in lines[1:]] == expected
    _, out, _ = run(capsys, ["models", "list", "--format", "json"])
    doc = json.loads(out)
    assert doc["columns"] == lines[0].split(",")
    assert doc["rows"] == [ln.split(",") for ln in lines[1:]]
    assert [row[:4] for row in doc["rows"]] == expected


# === determinism ============================================================


def test_repeated_runs_are_byte_identical(capsys):
    argv = ["solve", "--model", "phillips", "--variant", "fractional", "--h", str(5 / 512)]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2
    assert len(out1.strip().split("\n")) == 514  # header + 513 nodes


def test_out_files_are_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["deriv", "--alpha", "0.5", "--fn", "sin", "--grid", "0:1:65"]
    assert run(capsys, argv + ["--out", str(a)])[0] == 0
    assert run(capsys, argv + ["--out", str(b)])[0] == 0
    ba, bb = a.read_bytes(), b.read_bytes()
    assert ba == bb
    assert b"\r" not in ba
    assert ba.startswith(b"t,value\n")


@pytest.mark.parametrize("target", [".", "missing/out.csv"], ids=["directory", "missing-directory"])
def test_unwritable_out_is_a_usage_error(capsys, tmp_path, target):
    out = tmp_path / target
    code, stdout, err = run(capsys, ["deriv", "--grid", "0:1:9", "--out", str(out)])
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1


# The benchmark runs the module as a script; it must behave as main does.
@pytest.mark.parametrize("argv, code", [
    (["deriv", "--grid", "0:1:9", "--format", "json"], 0),
    (["deriv", "--alpha", "0"], 2),
    (["mlf", "--alpha", "1.5", "--z", "-49"], 3),
], ids=["success", "usage-error", "numerical-failure"])
def test_module_script_matches_main(capsys, argv, code):
    src = str(Path(fracvar.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "fracvar.cli", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), check=False,
    )
    expected = run(capsys, argv)
    assert expected[0] == code
    assert (proc.returncode, proc.stdout, proc.stderr) == expected


def table_columns(text):
    """Column name -> float array of a CSV or JSON table."""
    if text.startswith("{"):
        doc = json.loads(text)
        header, rows = doc["columns"], doc["rows"]
    else:
        header, rows = parse_csv(text)
    return dict(zip(header, np.array(rows, dtype=float).T))


def lift_columns():
    path = SampledPath.from_function(lambda t: t**2.7, 0.0, 1.0, 257)
    traj = lift(path, 0.3, 3)
    jets = {f"y{a + 1}": traj.y[a][0].values for a in range(3)}
    return {"t": path.times(), "x": path.values, **jets}


def bump_deriv_columns():
    path = SampledPath.from_function(lambda t: np.exp(-(((t - 0.3) / 0.2) ** 2)), 0.0, 1.0, 257)
    out = frac_deriv(path, FracOrder(0.7))
    return {"t": out.times(), "value": out.values}


def fode2_solve_columns():
    problem = make_model("phillips", "fractional")
    report = solve_fode2(problem, problem.t_end / 1024.0)
    return {"t": report.solution.times(), "x": report.solution.values, "v": report.aux.values}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv, columns",
    [
        (["lift", "--alpha", "0.3", "--k", "3", "--fn", "pow", "--gamma", "2.7",
          "--grid", "0:1:257"], lift_columns),
        (["solve", "--model", "phillips", "--variant", "fractional"], fode2_solve_columns),
        (["deriv", "--alpha", "0.7", "--fn", "bump", "--center", "0.3", "--width", "0.2",
          "--grid", "0:1:257"], bump_deriv_columns),
    ],
    ids=["lift", "solve-fode2", "deriv-bump"],
)
def test_tables_carry_the_library_values_bit_for_bit(capsys, fmt, argv, columns):
    code, out, _ = run(capsys, argv + ["--format", fmt])
    assert code == 0
    got, expected = table_columns(out), columns()
    assert list(got) == list(expected)
    assert all(np.array_equal(got[name], col) for name, col in expected.items())


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("alpha", ["0.05", "0.5", "0.95"])
def test_derivatives_of_a_constant_below_order_one_are_exact_zeros(capsys, alpha, side):
    code, out, _ = run(capsys, ["deriv", "--alpha", alpha, "--side", side, "--fn", "const",
                                "--cval", "-1.7", "--grid", "0:1:129"])
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 129 and all(v == 0.0 for _, v in rows)


def test_values_print_with_full_precision(capsys):
    _, out, _ = run(capsys, ["mlf", "--alpha", "1", "--z", "2"])
    printed = out.strip().split("\n")[1]
    # 17 significant digits round-trip exactly through float
    assert printed == f"{float(printed):.17g}"
    assert len(printed.replace(".", "").lstrip("0")) >= 16


# === defaults and config files =============================================


def test_bare_commands_use_the_documented_defaults(capsys):
    bare = run(capsys, ["deriv"])
    explicit = run(
        capsys, ["deriv", "--alpha", "0.5", "--fn", "pow", "--gamma", "1", "--grid", "0:1:1025"]
    )
    assert bare == explicit
    assert bare[0] == 0
    assert run(capsys, ["mlf"]) == (0, "value\n1\n", "")


def test_deriv_config_supplies_grid_and_fn(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": "0:1:65", "fn": "sin", "alpha": 0.25}))
    from_config = run(capsys, ["deriv", "--config", str(cfg), "--alpha", "0.75"])
    explicit = run(capsys, ["deriv", "--alpha", "0.75", "--fn", "sin", "--grid", "0:1:65"])
    assert from_config == explicit
    assert len(from_config[1].strip().split("\n")) == 66


def test_lift_config_supplies_k(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 3}))
    from_config = run(capsys, ["lift", "--config", str(cfg), "--grid", "0:1:33"])
    assert from_config == run(capsys, ["lift", "--k", "3", "--grid", "0:1:33"])
    assert from_config[1].split("\n")[0] == "t,x,y1,y2,y3"


def test_solve_config_supplies_model_parameters(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"b1": 2.0, "x0": 0.5, "h": 0.01}))
    base = ["solve", "--model", "phillips"]
    from_config = run(capsys, base + ["--config", str(cfg)])
    assert from_config[0] == 0
    assert from_config == run(capsys, base + ["--b1", "2", "--x0", "0.5", "--h", "0.01"])
    overridden = run(capsys, base + ["--config", str(cfg), "--b1", "3"])
    assert overridden == run(capsys, base + ["--b1", "3", "--x0", "0.5", "--h", "0.01"])
    assert overridden != from_config


@pytest.mark.parametrize("gamma_coef", [1100.0, 2000.0])
def test_stiff_fractional_friction_solves(capsys, gamma_coef):
    # gamma h**alpha > 1 at the default h = 2 / 1024: stepping with F lagged
    # by one node grew past the guard (exit 3); x settles near v0 m / gamma.
    argv = ["solve", "--model", "friction", "--variant", "fractional", "--gamma-coef", str(gamma_coef)]
    code, out, err = run(capsys, argv)
    assert code == 0 and err == ""
    header, rows = parse_csv(out)
    assert header[:2] == ["t", "x"] and len(rows) == 1025
    assert rows[-1][1] == pytest.approx(1.0 / gamma_coef, rel=1e-3)


def test_config_supplies_missing_flags(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 0.25, "z": 1.0}))
    code, out, _ = run(capsys, ["mlf", "--config", str(cfg)])
    assert code == 0
    assert float(out.strip().split("\n")[1]) == pytest.approx(9.5541074007227991, rel=1e-14)


def test_explicit_flags_override_config(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 0.25, "z": 1.0}))
    code, out, _ = run(capsys, ["mlf", "--config", str(cfg), "--z", "2"])
    assert code == 0
    assert float(out.strip().split("\n")[1]) == pytest.approx(35544441.509929918, rel=1e-12)


def test_unknown_config_key_is_rejected(capsys, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"alpha": 0.25, "zz": 1.0}))
    code, _, err = run(capsys, ["mlf", "--config", str(cfg)])
    assert code == 2
    assert "zz" in err


@pytest.mark.parametrize("text, message", [
    (None, "cannot load config"),
    ("[0.25, 1.0]", "config must be a JSON object of flag values"),
], ids=["missing-file", "not-an-object"])
def test_unreadable_configs_are_usage_errors(capsys, tmp_path, text, message):
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    code, out, err = run(capsys, ["mlf", "--config", str(cfg)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command, values, key",
    [
        ("lift", {"k": 2.5}, "k"),
        ("lift", {"k": True}, "k"),
        ("deriv", {"alpha": "x"}, "alpha"),
        ("deriv", {"grid": [1]}, "grid"),
        ("deriv", {"format": "xml"}, "format"),
    ],
)
def test_config_values_are_type_checked(capsys, tmp_path, command, values, key):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(values))
    code, out, err = run(capsys, [command, "--config", str(cfg)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: config key {key!r}")


def test_config_accepts_integers_for_float_flags(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 1, "grid": "0:1:17"}))
    from_config = run(capsys, ["deriv", "--config", str(cfg)])
    assert from_config[0] == 0
    assert from_config == run(capsys, ["deriv", "--alpha", "1", "--grid", "0:1:17"])
    # JSON output writes each flag's value as its type: 1.0, as from --alpha 1.
    from_config = run(capsys, ["deriv", "--config", str(cfg), "--format", "json"])
    assert repr(json.loads(from_config[1])["meta"]["alpha"]) == "1.0"
    assert from_config == run(capsys, ["deriv", "--alpha", "1", "--grid", "0:1:17", "--format", "json"])


# === round trips ============================================================


def test_action_prints_a_number(capsys):
    code, out, _ = run(
        capsys,
        ["action", "--lagrangian", "order1-potential", "--fn", "pow", "--gamma", "2",
         "--grid", "0:1:513"],
    )
    assert code == 0
    assert out.split("\n")[0] == "action"
    assert float(out.split("\n")[1]) == pytest.approx(-0.31864417782006327, abs=1e-12)


def test_lagrangian_flags_reach_the_factory(capsys):
    code, out, _ = run(capsys, ["action", "--lagrangian", "power-law-mixed", "--gamma-exp", "1.5"])
    assert code == 0
    lag = make_lagrangian("power-law-mixed", gamma_exp=1.5)
    path = SampledPath.from_function(lambda t: t**1.0, 0.0, 1.0, 1025)
    assert float(out.split("\n")[1]) == action(lag, lift(path, lag.alpha, lag.k))


# The catalogs' and the built-in functions' float parameters become flags of
# the same name (dest), the order-k potentials' potential_quadratic among
# them; the forcing and step flags are listed by hand. Every float flag
# stays None when unset.
@pytest.mark.parametrize("command, params", [
    ("solve", {"a", "a1", "a2", "alpha", "b", "b1", "c", "f", "gamma_coef", "m", "t_end",
               "v0", "x0"}),
    ("el-check", {"a", "a1", "a2", "alpha", "b", "c", "gamma_exp", "potential_quadratic"}),
    ("action", {"a", "a1", "a2", "alpha", "b", "c", "gamma_exp", "potential_quadratic"}),
])
def test_float_flags_of_the_catalog_commands(command, params):
    by_hand = {"solve": {"h", "forcing"}}.get(
        command, {"gamma", "cval", "center", "width", "forcing"}
    )
    floats = [a for a in _build_parser()[1][command]._actions if a.type is float]
    assert {a.dest for a in floats} == params | by_hand
    assert all(a.default is None for a in floats)


# A generated flag's help gives each default with the entries that take it.
@pytest.mark.parametrize("command", ["deriv", "lift", "action", "el-check", "solve"])
def test_generated_parameter_flags_have_help(command):
    sp = _build_parser()[1][command]
    generated = {n for key in ("parameters", "fn_parameters") for n in sp.get_default(key) or ()}
    flags = {a.dest: a.help for a in sp._actions if a.dest in generated and a.type is float}
    assert flags and all(flags.values())
    if command == "solve":
        assert flags["gamma_coef"] == "default 0.5 (friction)"


# --potential-quadratic q makes U = q x**2 / 2 with U_x = q x.
@pytest.mark.parametrize("k", [1, 2, 3])
def test_potential_quadratic_reaches_the_order_k_potentials(capsys, k):
    flags = ["--lagrangian", f"order{k}-potential", "--alpha", "0.3", "--a1", "0.4",
             "--potential-quadratic", "0.7", "--fn", "pow", "--gamma", "3", "--grid", "0:1:129"]
    lag = make_lagrangian(f"order{k}-potential", alpha=0.3, a1=0.4,
                          potential=lambda t, x: 0.5 * 0.7 * x * x,
                          potential_x=lambda t, x: 0.7 * x)
    traj = lift(SampledPath.from_function(lambda t: t**3.0, 0.0, 1.0, 129), 0.3, k)
    code, out, _ = run(capsys, ["action"] + flags)
    assert code == 0
    assert float(out.split("\n")[1]) == action(lag, traj)
    code, out, _ = run(capsys, ["el-check"] + flags)
    assert code == 0
    residual = el_residual(lag, traj, Variant.CLASSICAL).residual[0].values
    assert np.array_equal(table_columns(out)["residual"], residual)


def test_zero_forcing_selector_reaches_the_plate_model(capsys):
    code, out, _ = run(
        capsys,
        ["solve", "--model", "bagley-torvik", "--variant", "classical", "--h", str(2**-6),
         "--forcing", "0"],
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["t", "x"] and len(rows) == 65
    assert all(x == 0.0 for _, x in rows)


def test_zero_forcing_selector_reaches_power_law_mixed(capsys):
    code, out, _ = run(capsys, ["action", "--lagrangian", "power-law-mixed", "--forcing", "0"])
    assert code == 0
    lag = make_lagrangian("power-law-mixed", forcing=0.0)
    path = SampledPath.from_function(lambda t: t**1.0, 0.0, 1.0, 1025)
    value = action(lag, lift(path, lag.alpha, lag.k))
    assert float(out.split("\n")[1]) == value
    assert value != action(make_lagrangian("power-law-mixed"), lift(path, lag.alpha, lag.k))


# A value for each float parameter flag, unlike every factory's default.
FLAG_VALUES = {"a": 1.2, "a1": 0.4, "a2": 0.6, "alpha": 0.35, "b": 0.8, "b1": 1.5, "c": 1.3,
               "f": 0.3, "gamma_coef": 0.7, "gamma_exp": 1.5, "m": 1.5, "potential_quadratic": 0.7,
               "t_end": 0.5, "v0": 0.5, "x0": 0.25}


def parameter_flags(command):
    """(flag arguments, factory keywords) of every parameter flag of ``command``, and of none.

    The empty flag list calls the factory at its defaults, ``forcing=None`` among them.
    """
    by_hand = {"coefficients", "forcing"}
    floats = [n for n in _build_parser()[1][command].get_default("parameters") if n not in by_hand]
    flags = [([f"--{n.replace('_', '-')}", repr(FLAG_VALUES[n])], {n: FLAG_VALUES[n]})
             for n in floats]
    flags += [([], {}), (["--forcing", "0"], {"forcing": 0.0}),
              (["--forcing", "0.5"], {"forcing": 0.5})]
    if command != "solve":
        flags.append((["--coefficients", "literature"], {"coefficients": "literature"}))
        flags.append((["--potential-quadratic", "0"], {"potential_quadratic": 0.0}))
    return flags


def entry_table(command, problem):
    """The command's table, column -> values, computed by the library from the built entry."""
    if command == "solve":
        h = problem.t_end / 1024.0
        report = (solve_multiterm if isinstance(problem, MultiTermFDE) else solve_fode2)(problem, h)
        aux = {} if report.aux is None else {"v": report.aux.values}
        return {"t": report.solution.times(), "x": report.solution.values, **aux}
    traj = lift(SampledPath.from_function(lambda t: t**1.0, 0.0, 1.0, 65), problem.alpha, problem.k)
    if command == "action":
        return {"action": np.array([action(problem, traj)])}
    residual = el_residual(problem, traj, Variant.CLASSICAL).residual[0]
    return {"t": residual.times(), "residual": residual.values}


# A flag whose keywords the chosen entry's factory takes reaches it: the
# table equals the library's from the factory called with them directly.
# Any other flag used to be dropped without a word (business-cycle solved
# unforced with a constant forcing, the plate ignored a zero
# --potential-quadratic); it is a usage error naming its keyword.
@pytest.mark.parametrize("command, name, variant", [
    *(("solve", name, variant) for name in model_catalog()
      for variant in ("classical", "fractional")),
    *((command, name, None) for command in ("el-check", "action") for name in lagrangian_catalog()),
])
def test_every_parameter_flag_reaches_its_entry_or_is_refused(capsys, command, name, variant):
    if command == "solve":
        kind, factory, args = "model", model_catalog()[name][1], (variant,)
        base = ["solve", "--model", name, "--variant", variant]
    else:
        kind, factory, args = "Lagrangian", lagrangian_catalog()[name], ()
        base = [command, "--lagrangian", name, "--grid", "0:1:65"]
    takes = inspect.signature(factory).parameters
    refused = 0
    for flag, keywords in parameter_flags(command):
        code, out, err = run(capsys, base + flag)
        foreign = [k for k in keywords if k not in takes]
        if foreign:
            refused += 1
            assert (code, out) == (2, "")
            assert err == f"error: {kind} {name!r} takes no parameter {foreign[0]!r}\n"
            continue
        assert (code, err) == (0, ""), flag
        expected = entry_table(command, factory(*args, **keywords))
        got = table_columns(out)
        assert list(got) == list(expected), flag
        assert all(np.array_equal(got[c], expected[c]) for c in expected), flag
    assert refused > 0


# The built-in functions of --fn, restated: name -> factory of a callable of t.
FUNCTIONS = {
    "pow": lambda gamma=1.0: lambda t: t**gamma,
    "const": lambda cval=1.0: lambda t: cval,
    "sin": lambda: np.sin,
    "exp": lambda: np.exp,
    "bump": lambda center=0.5, width=0.1: lambda t: np.exp(-(((t - center) / width) ** 2)),
}


# A function flag the chosen function takes reaches it: the table equals the
# library's from the function sampled with that value. Any other flag, and a
# non-finite value, is a usage error naming it; `--fn sin --gamma 3` used to
# print the plain sine's table and `--cval inf` to exit 3.
@pytest.mark.parametrize("flag, value", [("gamma", 2.5), ("cval", -1.7), ("center", 0.3),
                                         ("width", 0.2)])
@pytest.mark.parametrize("fn", list(FUNCTIONS))
def test_every_function_flag_reaches_its_function_or_is_refused(capsys, fn, flag, value):
    base = ["deriv", "--alpha", "0.7", "--fn", fn, "--grid", "0:1:65", f"--{flag}"]
    if flag not in inspect.signature(FUNCTIONS[fn]).parameters:
        for text in (repr(value), "inf"):
            message = f"error: function {fn!r} takes no parameter {flag!r}\n"
            assert run(capsys, base + [text]) == (2, "", message)
        return
    code, out, err = run(capsys, base + [repr(value)])
    assert (code, err) == (0, "")
    path = SampledPath.from_function(FUNCTIONS[fn](**{flag: value}), 0.0, 1.0, 65)
    expected = frac_deriv(path, FracOrder(0.7))
    got = table_columns(out)
    assert np.array_equal(got["t"], expected.times())
    assert np.array_equal(got["value"], expected.values)
    assert run(capsys, base + ["nan"]) == (2, "", f"error: {flag} must be finite\n")


def test_solve_then_el_check_round_trip(capsys, tmp_path):
    sol = tmp_path / "plate.csv"
    code, _, _ = run(
        capsys,
        ["solve", "--model", "bagley-torvik", "--variant", "classical",
         "--h", str(2**-9), "--out", str(sol)],
    )
    assert code == 0
    code, out, _ = run(
        capsys,
        ["el-check", "--lagrangian", "bagley-torvik", "--from-file", str(sol),
         "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["excluded"] == 2
    # the solver output should be near-stationary for the matching Lagrangian
    assert float(doc["meta"]["norm_inf"]) <= 1e-8
