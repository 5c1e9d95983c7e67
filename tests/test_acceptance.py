"""End-to-end acceptance suite.

Twelve numbered checks, each printing one PASS/FAIL line (run with
``pytest -s`` to see them). Tolerances are fixed up front; every check
compares the implementation against an independent route (closed forms,
scipy integrators, or direct operator evaluation), never against itself.
"""

import io
import json
import math
from contextlib import redirect_stdout

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from fracvar.cli import main as cli_main
from fracvar.fodesolve import MultiTermFDE, solve_multiterm
from fracvar.fracops import (
    FracOrder,
    SampledPath,
    Side,
    frac_deriv,
    ibp_residual,
)
from fracvar.jet import JetPoint, lift, taylor_reconstruct
from fracvar.specfun import MLParams, gamma, mittag_leffler
from fracvar.varcalc import (
    bagley_torvik_lagrangian,
    el_residual,
    order_potential_lagrangian,
)

from oracles import grid_path, smooth_bump


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{num:2d}/12] {name}: {status} ({detail})")
    assert ok, f"{name}: {detail}"


def test_a01_power_rule_accuracy_and_rate():
    worst = 0.0
    ratios = []
    for alpha in (0.25, 0.5, 0.75):
        for g in (1.0, 2.0, 3.0, 2.0 * alpha):
            errs = []
            for h in (2**-10, 2**-11):
                p = grid_path(lambda t: t**g, h)
                got = frac_deriv(p, FracOrder(alpha)).values
                t = p.times()
                exact = gamma(1 + g) / gamma(1 + g - alpha) * t ** (g - alpha)
                lo = int(round(0.1 / h))
                errs.append(np.max(np.abs(got[lo:] - exact[lo:]) / np.abs(exact[lo:])))
            worst = max(worst, errs[0])
            ratios.append(errs[1] / errs[0])
    ok = worst <= 2e-2 and all(0.4 <= r <= 0.7 for r in ratios)
    report(1, "power rule accuracy", ok,
           f"max rel {worst:.3e}, rate ratios in [{min(ratios):.3f}, {max(ratios):.3f}]")


def test_a02_constants_annihilated_exactly():
    worst = 0.0
    for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
        for n in (33, 257, 1025):
            p = SampledPath.from_function(lambda t: 4.25, 0.0, 1.0, n)
            for side in (Side.LEFT, Side.RIGHT):
                got = frac_deriv(p, FracOrder(alpha), side=side).values
                worst = max(worst, float(np.max(np.abs(got))))
    report(2, "constants annihilate", worst == 0.0, f"max |result| = {worst:.1e}")


def test_a03_classical_limit_of_sine():
    h = 2**-11
    p = grid_path(np.sin, h)
    t = p.times()
    lo, hi = int(round(0.1 / h)), int(round(0.9 / h)) + 1
    errs = []
    for alpha in (0.9, 0.99, 0.999):
        got = frac_deriv(p, FracOrder(alpha)).values
        errs.append(float(np.max(np.abs(got[lo:hi] - np.cos(t[lo:hi])))))
    ok = errs[0] > errs[1] > errs[2]
    report(3, "classical limit", ok,
           "errors " + " > ".join(f"{e:.3e}" for e in errs))


def test_a04_semigroup_composition():
    diffs = []
    for h in (2**-11, 2**-12):
        p = grid_path(lambda t: t**3, h)
        inner = frac_deriv(p, FracOrder(0.4))
        composed = frac_deriv(inner, FracOrder(0.3)).values
        direct = frac_deriv(p, FracOrder(0.7)).values
        lo = int(round(0.05 / h))
        diffs.append(float(np.max(np.abs(composed[lo:] - direct[lo:]))))
    ok = diffs[0] <= 5e-2 and diffs[1] / diffs[0] <= 0.6
    report(4, "semigroup composition", ok,
           f"norms {diffs[0]:.3e} -> {diffs[1]:.3e}")


def test_a05_integration_by_parts():
    f1 = smooth_bump(0.7, 0.12)  # differentiated from the right
    f2 = smooth_bump(0.3, 0.12)  # differentiated from the left
    residuals = []
    magnitude = 0.0
    for h in (2**-10, 2**-11, 2**-12):
        p1, p2 = grid_path(f1, h), grid_path(f2, h)
        residuals.append(abs(ibp_residual(p1, p2, FracOrder(0.5))))
        i1 = np.trapezoid(p1.values * frac_deriv(p2, FracOrder(0.5)).values, dx=h)
        magnitude = max(magnitude, abs(i1))
    ok = max(residuals) <= 5e-3 and residuals[-1] <= residuals[0] + 1e-15
    ok = ok and magnitude > 1e-3  # the cancelling integrals are not trivially zero
    report(5, "integration by parts", ok,
           f"residuals {', '.join(f'{r:.2e}' for r in residuals)}, |I1| {magnitude:.2e}")


def test_a06_mittag_leffler_special_cases():
    worst_exp = 0.0
    for z in np.linspace(-5.0, 5.0, 41):
        rel = abs(mittag_leffler(MLParams(alpha=1.0), float(z)) - math.exp(z)) / math.exp(z)
        worst_exp = max(worst_exp, rel)
    worst_cosh = 0.0
    for z in np.linspace(0.0, 3.0, 31):
        rel = abs(mittag_leffler(MLParams(alpha=2.0), float(z * z)) - math.cosh(z)) / math.cosh(z)
        worst_cosh = max(worst_cosh, rel)
    ok = worst_exp <= 1e-10 and worst_cosh <= 1e-10
    report(6, "exponential series limits", ok,
           f"vs exp {worst_exp:.1e}, vs cosh {worst_cosh:.1e}")


def test_a07_taylor_reconstruction():
    alpha = 0.3
    coeffs = (0.4, -0.7, 0.25, 0.9, -0.33)
    worst = 0.0
    for k in (1, 2, 3, 4):
        pt = JetPoint.scalar(0.0, coeffs[0], coeffs[1 : k + 1])
        for t in np.linspace(0.0, 1.0, 21):
            exact = sum(c * t ** (alpha * a) for a, c in enumerate(coeffs[: k + 1]))
            got = taylor_reconstruct(pt, alpha, float(t))[0]
            worst = max(worst, abs(got - exact))
    report(7, "fractional Taylor reconstruction", worst <= 1e-10,
           f"max abs error {worst:.1e}")


def _plate_problem(t_end=1.0):
    forcing = lambda t: 6.0 * t + 6.0 / math.gamma(2.5) * t**1.5 + t**3
    fde = MultiTermFDE(
        terms=((1.0, 2.0), (1.0, 1.5)), zero_order_coeff=1.0, forcing=forcing, t_end=t_end
    )
    return fde, forcing


def test_a08_plate_equation_manufactured_solution():
    fde, _ = _plate_problem()
    errs = []
    for h in (2**-9, 2**-10, 2**-11):
        rep = solve_multiterm(fde, h)
        t = rep.solution.times()
        exact = t**3
        sl = slice(8, None)
        errs.append(
            float(np.max(np.abs(rep.solution.values[sl] - exact[sl])) / np.max(np.abs(exact)))
        )
    ratios = [errs[1] / errs[0], errs[2] / errs[1]]
    ok = errs[-1] <= 1e-2 and all(0.4 <= r <= 0.7 for r in ratios)
    report(8, "manufactured plate solution", ok,
           f"errors {', '.join(f'{e:.3e}' for e in errs)}")


def test_a09_stationarity_closure_with_sensitivity():
    h = 2**-11
    fde, forcing = _plate_problem()
    rep = solve_multiterm(fde, h)
    t = rep.solution.times()
    sup_err = float(np.max(np.abs(rep.solution.values - t**3)))

    # first-order scheme error estimate for the residual: each term
    # contributes |coef| (mu/2) sup|D^(mu+1) x*| h, plus the solution error
    # passed through the zero-order coefficient
    est = h * (1.0 * (2.0 / 2.0) * 6.0 + 1.0 * (1.5 / 2.0) * (6.0 / math.gamma(1.5))) + sup_err
    bound = 10.0 * est

    traj = lift(rep.solution, 0.25, 4)
    full = bagley_torvik_lagrangian(forcing=forcing)
    norm_full = el_residual(full, traj).norm_inf

    deletions = {
        "restoring term": bagley_torvik_lagrangian(c=0.0),
        "mid-order term": bagley_torvik_lagrangian(b=0.0, forcing=forcing),
        "top-order term": bagley_torvik_lagrangian(a=0.0, forcing=forcing),
    }
    del_norms = {k: el_residual(L, traj).norm_inf for k, L in deletions.items()}
    ok = norm_full <= bound and all(v > bound for v in del_norms.values())
    report(9, "stationarity closure", ok,
           f"norm {norm_full:.3e} vs bound {bound:.3e}; deletions "
           + ", ".join(f"{v:.2f}" for v in del_norms.values()))


def test_a10_lagrangian_family_recovery():
    alpha, h = 0.5, 2**-10
    rng = np.random.default_rng(20260817)
    worst = 0.0
    checked = 0
    # (k, a1, a2) with zeroed damping rows to isolate individual terms
    settings = [(1, 0.0, 0.0), (2, 0.8, 0.0), (2, 0.0, 0.0),
                (3, 0.8, 0.6), (3, 0.0, 0.0)]
    for k, a1, a2 in settings:
        coeffs = rng.uniform(-1.0, 1.0, 4)
        coeffs[0] += 2.0  # keep the path away from zero
        path = grid_path(
            lambda t: coeffs[0] + coeffs[1] * t + coeffs[2] * t**2 + coeffs[3] * t**3, h
        )
        q = float(rng.uniform(0.3, 1.0))
        L = order_potential_lagrangian(
            k, alpha=alpha, a1=a1, a2=a2,
            potential=lambda tt, x: 0.5 * q * x**2,
            potential_x=lambda tt, x: q * x,
        )
        rep = el_residual(L, lift(path, alpha, k))
        damp = {1: (1.0,), 2: (a1, 1.0), 3: (a1, a2, 1.0)}[k]
        target = q * path.values.copy()
        for a in range(1, k + 1):
            target = target + damp[a - 1] * frac_deriv(path, FracOrder(2 * a * alpha)).values
        lo, hi = rep.excluded, path.n_pts - rep.excluded
        err = np.max(np.abs(rep.residual[0].values[lo:hi] - target[lo:hi]))
        worst = max(worst, float(err / np.max(np.abs(target[lo:hi]))))
        checked += 1
    report(10, "Lagrangian family recovery", worst <= 1e-2,
           f"{checked} configurations, worst normalized gap {worst:.3e}")


def test_a11_economic_model_classical_crosscheck():
    from fracvar.fodesolve import solve_fode2
    from fracvar.varcalc import make_model

    prob = make_model("phillips", "fractional")  # alpha = 0.999
    h = 5.0 / 4096
    rep = solve_fode2(prob, h)
    ref = solve_ivp(
        lambda t, y: [y[1], -0.5 * y[1] - 1.0 * y[0] - 0.2],
        (0.0, 5.0),
        [1.0, 0.0],
        t_eval=rep.solution.times(),
        rtol=1e-11,
        atol=1e-12,
    )
    sl = slice(8, None)
    rel = float(
        np.max(np.abs(rep.solution.values[sl] - ref.y[0][sl])) / np.max(np.abs(ref.y[0]))
    )
    report(11, "economic model crosscheck", rel <= 2e-2, f"interior rel error {rel:.3e}")


def test_a12_cli_determinism(tmp_path):
    def capture(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(argv)
        return code, buf.getvalue()

    commands = [
        ["deriv", "--alpha", "0.5", "--fn", "pow", "--gamma", "2", "--grid", "0:1:1025"],
        ["mlf", "--alpha", "1", "--z", "2", "--format", "json"],
        ["solve", "--model", "bagley-torvik", "--variant", "classical", "--h", str(2**-9)],
        ["models", "list"],
    ]
    ok = True
    for argv in commands:
        c1, o1 = capture(argv)
        c2, o2 = capture(argv)
        ok = ok and c1 == c2 == 0 and o1 == o2
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["solve", "--model", "phillips", "--variant", "fractional", "--h", str(5 / 1024)]
    capture(base + ["--out", str(a)])
    capture(base + ["--out", str(b)])
    ok = ok and a.read_bytes() == b.read_bytes()
    report(12, "CLI determinism", ok, f"{len(commands)} commands plus file output")
