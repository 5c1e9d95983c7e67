"""Command line interface: output contracts, exit codes, determinism."""

import json
import math

import numpy as np
import pytest

from fracvar import SampledPath, action, find_model, lift, make_lagrangian, solve_fode2
from fracvar.cli import main


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
# exp(800) overflows the last rows of the sampled path.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "argv, row",
    [
        (["deriv", "--fn", "pow", "--gamma", "-1", "--grid", "0:1:9"], 0),
        (["lift", "--fn", "exp", "--grid", "0:800:33", "--k", "2"], 29),
    ],
    ids=["deriv", "lift"],
)
def test_non_finite_table_is_a_numerical_error(capsys, argv, row):
    code, out, err = run(capsys, argv)
    assert code == 3
    assert out == ""
    assert f"{argv[0]} output is not finite at row {row}" in err


# The solvers stop at the first non-finite node with a typed error, without
# a RuntimeWarning, before any table is written. The FODE2 right side
# -b1 x overflows to -inf at the first node from finite coefficients.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["solve", "--model", "bagley-torvik", "--forcing-fn", "const",
             "--forcing-cval", "inf"],
            "solution is not finite at t = 0.000976562",
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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--model", "friction", "--x0", "inf"], "x0 must be finite"),
        (["--model", "friction", "--v0", "nan"], "v0 must be finite"),
        (["--model", "phillips", "--t-end", "inf", "--h", "0.01"], "t_end must be positive"),
        (["--model", "phillips", "--variant", "classical", "--t-end", "nan"],
         "t_end must be positive"),
        (["--model", "friction", "--h", "nan"], "step size h must be positive"),
        (["--model", "business-cycle", "--alpha", "inf"], "term orders must be finite"),
        (["--model", "bagley-torvik", "--alpha", "inf"], "term orders must be finite"),
        (["--model", "bagley-torvik", "--a", "inf"], "term coefficients must be finite"),
        (["--model", "bagley-torvik", "--b", "nan"], "term coefficients must be finite"),
        (["--model", "business-cycle", "--b1", "nan"], "zero_order_coeff must be finite"),
        (["--model", "phillips", "--variant", "classical", "--a1", "inf"],
         "term coefficients must be finite"),
        (["--model", "friction", "--m", "nan"], "m must be finite"),
        (["--model", "friction", "--gamma-coef", "inf"], "gamma_coef must be finite"),
        (["--model", "phillips", "--a1", "inf"], "a1 must be finite"),
        (["--model", "phillips", "--b1", "nan"], "b1 must be finite"),
        (["--model", "phillips", "--f", "inf"], "f must be finite"),
    ],
    ids=["x0", "v0", "t_end-fode2", "t_end-multiterm", "h", "business-cycle-alpha",
         "bagley-torvik-alpha", "bagley-torvik-a", "bagley-torvik-b", "business-cycle-b1",
         "phillips-a1", "friction-m", "friction-gamma-coef", "phillips-fractional-a1",
         "phillips-fractional-b1", "phillips-fractional-f"],
)
def test_non_finite_solver_inputs_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, ["solve", *argv])
    assert code == 2
    assert out == ""
    assert f"error: {message}" in err


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
        (["el-check", "--lagrangian", "bagley-torvik", "--forcing-fn", "const",
          "--forcing-cval", "inf"], "forcing must be finite"),
        (["el-check", "--lagrangian", "order1-potential", "--potential-quadratic", "inf"],
         "--potential-quadratic must be finite"),
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


def fode2_solve_columns():
    problem = find_model("phillips").make("fractional")
    report = solve_fode2(problem, problem.t_end / 1024.0)
    return {"t": report.solution.times(), "x": report.solution.values, "v": report.aux.values}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv, columns",
    [
        (["lift", "--alpha", "0.3", "--k", "3", "--fn", "pow", "--gamma", "2.7",
          "--grid", "0:1:257"], lift_columns),
        (["solve", "--model", "phillips", "--variant", "fractional"], fode2_solve_columns),
    ],
    ids=["lift", "solve-fode2"],
)
def test_tables_carry_the_library_values_bit_for_bit(capsys, fmt, argv, columns):
    code, out, _ = run(capsys, argv + ["--format", fmt])
    assert code == 0
    got, expected = table_columns(out), columns()
    assert list(got) == list(expected)
    assert all(np.array_equal(got[name], col) for name, col in expected.items())


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


def test_zero_forcing_selector_reaches_the_plate_model(capsys):
    code, out, _ = run(
        capsys,
        ["solve", "--model", "bagley-torvik", "--variant", "classical", "--h", str(2**-6),
         "--forcing-fn", "zero"],
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["t", "x"] and len(rows) == 65
    assert all(x == 0.0 for _, x in rows)


def test_zero_forcing_selector_reaches_power_law_mixed(capsys):
    code, out, _ = run(capsys, ["action", "--lagrangian", "power-law-mixed", "--forcing-fn", "zero"])
    assert code == 0
    lag = make_lagrangian("power-law-mixed", forcing=0.0)
    path = SampledPath.from_function(lambda t: t**1.0, 0.0, 1.0, 1025)
    value = action(lag, lift(path, lag.alpha, lag.k))
    assert float(out.split("\n")[1]) == value
    assert value != action(make_lagrangian("power-law-mixed"), lift(path, lag.alpha, lag.k))


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
