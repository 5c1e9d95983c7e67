"""Multi-term and coupled fractional initial value solvers."""

import inspect
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, target
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from fracvar.fodesolve import (
    _SUB,
    _bt_default_forcing,
    _inverse_series,
    FODE2,
    DivergenceError,
    MultiTermFDE,
    fde_residual,
    make_model,
    model_catalog,
    solve_fode2,
    solve_multiterm,
)
from fracvar.fracops import (
    _BLOCK,
    FracOrder,
    SampledPath,
    _history,
    frac_deriv_from_base,
    gl_weights,
)
from fracvar.jet import JetTrajectory, lift
from fracvar.specfun import gamma
from fracvar.varcalc import el_residual, make_lagrangian


def plate_fde(t_end=1.0):
    # manufactured so the exact solution is t^3
    forcing = lambda t: 6.0 * t + 6.0 / math.gamma(2.5) * t**1.5 + t**3
    return MultiTermFDE(
        terms=((1.0, 2.0), (1.0, 1.5)), zero_order_coeff=1.0, forcing=forcing, t_end=t_end
    )


# === construction ===========================================================


def test_terms_are_sorted_and_validated():
    fde = MultiTermFDE(terms=((0.5, 1.0), (1.0, 2.0)), forcing=0.0)
    assert fde.terms == ((1.0, 2.0), (0.5, 1.0))
    assert fde.max_order == 2.0
    with pytest.raises(ValueError):
        MultiTermFDE(terms=(), forcing=0.0)
    with pytest.raises(ValueError):
        MultiTermFDE(terms=((1.0, 0.5), (2.0, 0.5)), forcing=0.0)
    with pytest.raises(ValueError):
        MultiTermFDE(terms=((0.0, 1.5),), forcing=0.0)
    with pytest.raises(ValueError):
        MultiTermFDE(terms=((1.0, -0.5),), forcing=0.0)
    with pytest.raises(ValueError):
        MultiTermFDE(terms=((1.0, 0.5),), forcing=0.0, t_end=0.0)


def test_fode2_validation():
    with pytest.raises(ValueError):
        FODE2(alpha=1.2, rhs=lambda t, x, v: 0.0)
    with pytest.raises(ValueError):
        FODE2(alpha=0.5, rhs=3.0)
    with pytest.raises(ValueError):
        FODE2(alpha=0.5, rhs=lambda t, x, v: 0.0, t_end=-1.0)


def test_grid_guards():
    fde = MultiTermFDE(terms=((1.0, 2.0),), forcing=2.0, t_end=1.0)
    with pytest.raises(ValueError):
        solve_multiterm(fde, 0.3)  # does not divide t_end
    with pytest.raises(ValueError):
        solve_multiterm(fde, 0.25)  # only 4 steps


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_inputs_are_rejected_by_name(bad):
    rhs = lambda t, x, v: -v
    for field in ("x0", "v0", "t_end"):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            FODE2(alpha=0.6, rhs=rhs, **{field: bad})
    with pytest.raises(ValueError, match="^t_end must be"):
        MultiTermFDE(terms=((1.0, 0.5),), forcing=0.0, t_end=bad)
    for fields, name in [
        ({"terms": ((1.0, 2.0), (bad, 1.5))}, "term coefficients"),
        ({"terms": ((bad, 2.0), (1.0, 1.5))}, "term coefficients"),
        ({"terms": ((1.0, 2.0), (1.0, bad))}, "term orders"),
        ({"terms": ((1.0, 2.0),), "zero_order_coeff": bad}, "zero_order_coeff"),
        ({"terms": ((1.0, 1.5),), "forcing": bad}, "forcing"),
    ]:
        with pytest.raises(ValueError, match=f"^{name} must be"):
            MultiTermFDE(**{"forcing": 0.0, **fields})
    # The FODE2 catalog entries close these into the right side, which FODE2
    # never sees.
    for name, field in [("friction", "m"), ("friction", "gamma_coef"), ("phillips", "a1"),
                        ("phillips", "b1"), ("phillips", "f")]:
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            make_model(name, "fractional", **{field: bad})
    fde = MultiTermFDE(terms=((1.0, 2.0),), forcing=2.0, t_end=1.0)
    with pytest.raises(ValueError, match="^step size h must be"):
        solve_multiterm(fde, bad)
    with pytest.raises(ValueError, match="^step size h must be"):
        solve_fode2(FODE2(alpha=0.6, rhs=rhs), bad)


def test_step_whose_count_overflows_is_rejected_by_name():
    # t_end / h = inf used to reach int(), an OverflowError naming neither.
    fde = MultiTermFDE(terms=((1.0, 2.0),), forcing=2.0, t_end=1.0)
    message = r"^step size h = 9\.99989e-321 is too small: t_end / h overflows$"
    with pytest.raises(ValueError, match=message):
        solve_multiterm(fde, 1e-320)
    with pytest.raises(ValueError, match=message):
        solve_fode2(FODE2(alpha=0.6, rhs=lambda t, x, v: -x), 1e-320)


def test_catalog_models_refuse_keywords_their_factory_does_not_take():
    with pytest.raises(ValueError, match="^model 'business-cycle' takes no parameter 'forcing'$"):
        make_model("business-cycle", "fractional", forcing=5.0)
    with pytest.raises(ValueError, match="^model 'friction' takes no parameter 'a1'$"):
        make_model("friction", "classical", a1=0.4)
    with pytest.raises(ValueError, match="^unknown model 'pendulum'; available: friction, "):
        make_model("pendulum", "classical")


# === implicit multi-term solver =============================================


def test_classical_second_order_reduction():
    fde = MultiTermFDE(terms=((1.0, 2.0),), forcing=2.0, t_end=1.0)
    rep = solve_multiterm(fde, 2**-10)
    t = rep.solution.times()
    assert np.max(np.abs(rep.solution.values - t**2)) <= 2e-3
    assert rep.max_defect == 0.0
    assert rep.steps == 1024
    assert rep.aux is None


def test_zero_forcing_stays_zero():
    fde = MultiTermFDE(terms=((1.0, 1.5),), zero_order_coeff=1.0, forcing=0.0)
    rep = solve_multiterm(fde, 2**-7)
    assert np.max(np.abs(rep.solution.values)) == 0.0


def test_single_term_power_forcing():
    fde = MultiTermFDE(terms=((1.0, 0.8),), forcing=lambda t: t**2, t_end=1.0)
    rep = solve_multiterm(fde, 2**-10)
    t = rep.solution.times()
    exact = gamma(3) / gamma(3.8) * t**2.8
    assert np.max(np.abs(rep.solution.values - exact)) <= 2e-3


def test_plate_equation_first_order_convergence():
    errs = []
    for h in (2**-9, 2**-10, 2**-11):
        rep = solve_multiterm(plate_fde(), h)
        t = rep.solution.times()
        exact = t**3
        sl = slice(8, None)
        errs.append(np.max(np.abs(rep.solution.values[sl] - exact[sl])) / np.max(np.abs(exact)))
    assert errs == pytest.approx([5.00241e-3, 2.50034e-3, 1.24995e-3], rel=1e-4)
    assert 0.45 <= errs[1] / errs[0] <= 0.55
    assert 0.45 <= errs[2] / errs[1] <= 0.55


def test_solver_defect_is_small():
    rep = solve_multiterm(plate_fde(), 2**-11)
    assert rep.max_defect <= 1e-8


def test_forcing_linearity():
    mk = lambda f: MultiTermFDE(terms=((1.0, 1.5),), zero_order_coeff=0.5, forcing=f)
    h = 2**-8
    s1 = solve_multiterm(mk(lambda t: math.sin(t)), h).solution.values
    s2 = solve_multiterm(mk(lambda t: t**2), h).solution.values
    s12 = solve_multiterm(mk(lambda t: math.sin(t) + t**2), h).solution.values
    assert np.max(np.abs(s12 - s1 - s2)) <= 1e-12


def test_degenerate_diagonal_is_rejected():
    fde = MultiTermFDE(terms=((1.0, 0.5), (-1.0, 1.0)), forcing=1.0, t_end=16.0)
    with pytest.raises(ValueError):
        solve_multiterm(fde, 1.0)


def test_solver_is_deterministic():
    fde = MultiTermFDE(terms=((1.0, 0.8),), forcing=lambda t: t**2, t_end=1.0)
    a = solve_multiterm(fde, 2**-9).solution.values
    b = solve_multiterm(fde, 2**-9).solution.values
    assert np.array_equal(a, b)


# === forcing evaluation =====================================================


def test_array_forcing_is_called_once_with_the_time_array():
    calls = []

    def forcing(t):
        calls.append(t)
        return t**2

    h = 2**-10
    fde = MultiTermFDE(terms=((1.0, 1.5), (0.5, 0.5)), forcing=forcing)
    rep = solve_multiterm(fde, h)
    assert len(calls) == 1
    assert np.array_equal(calls[0], h * np.arange(1025))
    fde_residual(fde, rep.solution)
    assert len(calls) == 2
    assert np.array_equal(calls[1], rep.solution.times())


@pytest.mark.parametrize("h", [2**-9, 2**-11])
def test_scalar_forcing_falls_back_to_one_call_per_node(h):
    calls = []

    def branching(t):
        calls.append(t)
        return 1.0 if t < 0.5 else 2.0 * t

    mk = lambda f: MultiTermFDE(terms=((1.0, 1.5),), zero_order_coeff=1.0, forcing=f)
    scalar = solve_multiterm(mk(branching), h)
    vector = solve_multiterm(mk(lambda t: np.where(t < 0.5, 1.0, 2.0 * t)), h)
    assert np.array_equal(scalar.solution.values, vector.solution.values)
    assert scalar.max_defect == vector.max_defect
    # One call on the array, which raises, then one call per node.
    n = scalar.solution.n_pts
    assert len(calls) == 1 + n
    assert all(type(t) is float for t in calls[1:])


def test_constant_forcing_broadcasts():
    mk = lambda f: MultiTermFDE(terms=((1.0, 0.7),), zero_order_coeff=0.5, forcing=f)
    h = 2**-11
    ref = solve_multiterm(mk(lambda t: np.full(t.shape, 3.0)), h).solution.values
    for forcing in (3.0, lambda t: 3.0, lambda t: np.float64(3.0)):
        assert np.array_equal(solve_multiterm(mk(forcing), h).solution.values, ref)
    fde = mk(lambda t: 3.0)
    res = fde_residual(fde, solve_multiterm(fde, h).solution)
    assert res.n_pts == 2049 - 2  # ceil(0.7) + 1 startup nodes dropped


@pytest.mark.parametrize("error", [TypeError, ValueError, ZeroDivisionError])
def test_forcing_errors_still_propagate(error):
    def forcing(t):
        raise error("no forcing here")

    fde = MultiTermFDE(terms=((1.0, 1.5),), forcing=forcing)
    with pytest.raises(error, match="no forcing here"):
        solve_multiterm(fde, 2**-8)
    path = SampledPath.from_function(lambda t: t**2, 0.0, 1.0, 65)
    with pytest.raises(error, match="no forcing here"):
        fde_residual(fde, path)


@pytest.mark.parametrize("call, message", [
    (lambda: solve_multiterm(plate_fde(), 0.099), "step size must divide the interval length"),
    (lambda: solve_fode2(FODE2(0.5, lambda t, x, v: -x), 0.099),
     "step size must divide the interval length"),
    (lambda: fde_residual(plate_fde(), SampledPath.from_function(lambda t: t**3, 0.0, 1.0, 4)),
     "path is too short for a residual check at this order"),
], ids=["multiterm-step", "fode2-step", "residual-too-short"])
def test_grid_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# === non-finite values ======================================================


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("n", [257, 3 * _BLOCK + 1])
def test_non_finite_forcing_is_a_divergence_error(bad, n):
    h = 1.0 / (n - 1)
    first_bad = h * (n // 2 + 1)  # the first node past t = 0.5
    array = lambda t: np.where(t > 0.5, bad, 1.0)
    scalar = lambda t: bad if t > 0.5 else 1.0
    for forcing in (array, scalar):
        fde = MultiTermFDE(terms=((1.0, 1.5), (0.5, 0.5)), zero_order_coeff=1.0, forcing=forcing)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a typed error, not a RuntimeWarning
            with pytest.raises(DivergenceError, match=f"not finite at t = {first_bad:g}"):
                solve_multiterm(fde, h)


def test_overflowing_far_sums_are_a_divergence_error():
    # A finite forcing of 1e308 overflows the far sums of the second block:
    # its FFTs turn every node non-finite, and the direct sums name the first.
    fde = make_model("bagley-torvik", "classical", forcing=1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError, match="^solution is not finite at t = 0.5$"):
            solve_multiterm(fde, 2**-10)


# c h**(-mu) overflows for a huge c, or for a huge order (160 here), where
# Python's power used to raise a bare OverflowError. At orders 1600 and
# 1200 the weights' recurrence overflows too, which used to warn.
@pytest.mark.parametrize("name, variant, params", [
    ("bagley-torvik", "classical", {"a": 1e308}),
    ("bagley-torvik", "fractional", {"b": 1e308}),
    ("business-cycle", "fractional", {"a1": 1e308}),
    ("bagley-torvik", "fractional", {"alpha": 20.0}),
    ("bagley-torvik", "fractional", {"alpha": 200.0}),
], ids=["bagley-torvik-a", "bagley-torvik-b", "business-cycle-a1", "bagley-torvik-alpha",
        "bagley-torvik-alpha-200"])
def test_overflowing_scaled_coefficients_are_rejected(name, variant, params):
    fde = make_model(name, variant, **params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="scaled coefficients overflow at this h"):
            solve_multiterm(fde, 2**-10)


def forward_substitution(fde, h):
    """Node-by-node solve of the solver's discrete equations in long double."""
    n = int(round(fde.t_end / h)) + 1
    ld = np.longdouble
    a = sum(ld(c * h ** (-mu)) * gl_weights(FracOrder(mu), n).astype(ld) for c, mu in fde.terms)
    a[0] += ld(fde.zero_order_coeff)
    f = np.array([fde.forcing(t) for t in h * np.arange(n)], dtype=ld)
    x, rev = np.zeros(n, dtype=ld), np.zeros(n, dtype=ld)  # rev holds x time-reversed
    for j in range(1, n):
        x[j] = rev[n - 1 - j] = (f[j] - a[1 : j + 1].dot(rev[n - j :])) / a[0]
    return x.astype(float)


# Grid sizes on both sides of one block of all nodes and of block boundaries.
SOLVE_NODES = st.sampled_from(
    [2 * _BLOCK, 2 * _BLOCK + 1, 3 * _BLOCK - 1, 3 * _BLOCK + 1, 5 * _BLOCK + 1]
)
SOLVE_ORDERS = st.one_of(st.sampled_from([1.0, 2.0]), st.floats(0.0, 2.5, exclude_min=True))


@settings(max_examples=30, deadline=None)
@given(
    n=SOLVE_NODES,
    orders=st.lists(SOLVE_ORDERS, min_size=1, max_size=3, unique_by=lambda mu: round(mu, 6)),
    coefs=st.lists(st.floats(0.2, 1.0), min_size=3, max_size=3),
    c0=st.floats(0.0, 1.0),
    freq=st.floats(0.0, 6.0),
)
@example(n=3 * _BLOCK + 1, orders=[2.0, 1.5], coefs=[1.0, 1.0, 1.0], c0=1.0, freq=0.0)
@example(n=5 * _BLOCK + 1, orders=[2.5, 1.0, 0.3], coefs=[1.0, 0.5, 0.2], c0=0.0, freq=6.0)
@example(n=5 * _BLOCK + 1, orders=[2.455], coefs=[0.7, 0.5, 0.4], c0=0.31, freq=3.0)
def test_block_solve_matches_forward_substitution(n, orders, coefs, c0, freq):
    h = 2.0**-10
    fde = MultiTermFDE(
        terms=tuple(zip(coefs, orders)),
        zero_order_coeff=c0,
        forcing=lambda t: math.cos(freq * t) + t,
        t_end=(n - 1) * h,
    )
    x = solve_multiterm(fde, h).solution.values
    ref = forward_substitution(fde, h)
    rel = float(np.max(np.abs(x - ref)) / np.max(np.abs(ref)))
    target(rel, label="error relative to max |x|")
    assert rel <= 1e-8


def long_double_inverse(a, count):
    """The first ``count`` coefficients of 1 / a(z), by forward substitution in long double."""
    a = a.astype(np.longdouble)
    r = np.zeros(count, dtype=np.longdouble)
    r[0] = 1 / a[0]
    for k in range(1, count):
        m = min(k, a.size - 1)
        r[k] = -a[1 : m + 1].dot(r[k - m : k][::-1]) / a[0]
    return r


# The symbols of the multi-term catalog entries, polynomial ones (integer
# orders) cut to their support, up to 2048 coefficients. At their default
# alpha the fractional variants have the classical orders, so they take
# the alpha of the long-double solve checks. Beyond 2048 coefficients the
# cubic business-cycle symbol amplifies roundoff into r itself: forward
# substitution erred by 1.2e-9 to 4.9e-8 of max |r| at 8193 coefficients
# under 1-ulp changes of the symbol.
@pytest.mark.parametrize("h", [2**-10, 2**-13])
@pytest.mark.parametrize("name, variant, params", [
    ("phillips", "classical", {}),
    ("business-cycle", "classical", {}),
    ("business-cycle", "fractional", {"alpha": 0.4}),
    ("bagley-torvik", "classical", {}),
    ("bagley-torvik", "fractional", {"alpha": 0.3}),
], ids=["phillips", "business-cycle", "business-cycle-0.4", "bagley-torvik", "bagley-torvik-0.3"])
def test_inverse_series_matches_long_double_substitution(name, variant, params, h):
    fde = make_model(name, variant, **params)
    count = min(int(round(fde.t_end / h)) + 1, 4 * _BLOCK)
    a = sum(c * h ** (-mu) * gl_weights(FracOrder(mu), count) for c, mu in fde.terms)
    a[0] += fde.zero_order_coeff
    a = np.trim_zeros(a, "b")
    r, ref = _inverse_series(a, count), long_double_inverse(a, count)
    assert float(np.max(np.abs(r - ref)) / np.max(np.abs(ref))) <= 1e-8


# === residual substitution ==================================================


def test_residual_of_computed_solution_is_small():
    fde = plate_fde()
    rep = solve_multiterm(fde, 2**-11)
    res = fde_residual(fde, rep.solution)
    assert np.max(np.abs(res.values)) <= 1e-6


def test_residual_bookkeeping_and_locality():
    fde = plate_fde()
    rep = solve_multiterm(fde, 2**-11)
    res = fde_residual(fde, rep.solution)
    drop = rep.solution.n_pts - res.n_pts
    assert drop == 3  # ceil(2.0) + 1 startup nodes
    assert res.t0 == pytest.approx(rep.solution.t0 + drop * rep.solution.h)

    bumped = rep.solution.values.copy()
    mid = 1024
    bumped[mid] += 1e-3
    res2 = fde_residual(fde, rep.solution.with_values(bumped))
    diff = np.abs(res2.values - res.values)
    j = mid - drop
    assert diff[j] > 1e3  # the defect explodes where the node was moved
    assert np.max(diff[:j]) == 0.0  # earlier residuals never see it


# === explicit coupled solver ================================================


def test_free_fractional_motion():
    fode = FODE2(alpha=0.6, rhs=lambda t, x, v: 0.0, x0=0.0, v0=1.0, t_end=1.0)
    rep = solve_fode2(fode, 2**-10)
    t = rep.solution.times()
    exact = t**0.6 / gamma(1.6)
    sl = slice(8, None)
    rel = np.max(np.abs(rep.solution.values[sl] - exact[sl])) / np.max(np.abs(exact))
    assert rel <= 1e-2
    assert rep.aux is not None  # velocity channel
    assert rep.aux.n_pts == rep.solution.n_pts
    assert rep.max_defect <= 1e-10


def test_right_side_is_called_once_per_node():
    calls = []

    def rhs(t, x, v):
        calls.append(t)
        return 1.0 - x - 0.3 * v

    h = 2**-9
    rep = solve_fode2(FODE2(alpha=0.6, rhs=rhs), h)
    n = rep.solution.n_pts
    assert calls == [j * h for j in range(n)]
    # The defect equals the one from evaluating F afresh at every node.
    x, v = rep.solution.values, rep.aux.values
    dx, dv = h**-0.6 * _history(np.array([x, v]), gl_weights(FracOrder(0.6), n))
    f = np.array([rhs(t, xj, vj) for t, xj, vj in zip(h * np.arange(n), x, v)])
    assert rep.max_defect == max(np.max(np.abs(dx[1:] - v[1:])), np.max(np.abs(dv[1:] - f[1:])))


def test_right_side_calls_on_a_blocked_grid():
    n = 3 * _BLOCK + 1
    h = 1.0 / (n - 1)
    calls = []

    def rhs(t, x, v):
        calls.append(t)
        return 1.0 - x - 0.3 * v

    rep = solve_fode2(FODE2(alpha=0.6, rhs=rhs), h)
    assert calls == [j * h for j in range(n)]
    x, v = rep.solution.values, rep.aux.values
    dx, dv = h**-0.6 * _history(np.array([x, v]), gl_weights(FracOrder(0.6), n))
    f = np.array([rhs(t, xj, vj) for t, xj, vj in zip(h * np.arange(n), x, v)])
    assert rep.max_defect == max(np.max(np.abs(dx[1:] - v[1:])), np.max(np.abs(dv[1:] - f[1:])))

    # A NaN from F enters V at the next node: here the middle of a sub-block.
    bad_node = 2 * _BLOCK + 3 * _SUB + _SUB // 2
    calls.clear()

    def nan_rhs(t, x, v):
        calls.append(t)
        return math.nan if len(calls) == bad_node else -x

    with pytest.raises(DivergenceError, match=f"at t = {h * bad_node:g}$"):
        solve_fode2(FODE2(alpha=0.6, rhs=nan_rhs, x0=1.0), h)
    assert calls == [j * h for j in range(bad_node)]  # F is not called again


def test_initial_values_are_injected():
    fode = FODE2(alpha=0.7, rhs=lambda t, x, v: -x, x0=2.0, v0=-1.0, t_end=1.0)
    rep = solve_fode2(fode, 2**-8)
    assert rep.solution.values[0] == 2.0
    assert rep.aux.values[0] == -1.0


def test_growth_guard_raises():
    fode = FODE2(alpha=0.5, rhs=lambda t, x, v: 40.0 * v, v0=1.0, t_end=4.0)
    with pytest.raises(DivergenceError):
        solve_fode2(fode, 2**-6)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("n", [257, 3 * _BLOCK + 1])
def test_non_finite_right_side_is_a_divergence_error(bad, n):
    calls = []

    def rhs(t, x, v):
        calls.append(t)
        return bad if t > 0.5 else -x

    h = 1.0 / (n - 1)
    # F at the first node past t = 0.5 enters V at the node after it.
    first_bad = h * (n // 2 + 2)
    message = f"not finite or exceeded 1e\\+12 at t = {first_bad:g}"
    with pytest.raises(DivergenceError, match=message):
        solve_fode2(FODE2(alpha=0.6, rhs=rhs, x0=1.0), h)
    assert len(calls) == n // 2 + 2  # stepping stopped at the first bad node


# Grid sizes on both sides of one block of all nodes and of block boundaries,
# and one-block grids from the smallest to one that ends mid-sub-block.
FODE2_NODES = [
    _SUB + 1, _SUB + 2, 257, 2 * _BLOCK - 3, 2 * _BLOCK, 2 * _BLOCK + 1, 3 * _BLOCK - 1,
    3 * _BLOCK + 1,
]
# Blocked grids whose last block ends on, just past or short of a sub-block edge.
FODE2_SUB_BLOCK_NODES = [2 * _BLOCK + _SUB, 2 * _BLOCK + _SUB + 1, 4 * _BLOCK + 2]


def plain_fode2(fode, h):
    """The explicit scheme of ``solve_fode2`` as a plain O(N**2) loop.

    Returns X, V and, for each, the sum of the absolute values of the terms
    that make up each node.
    """
    n = int(round(fode.t_end / h)) + 1
    w = gl_weights(FracOrder(fode.alpha), n)
    ha = h**fode.alpha
    big = np.zeros((2, n))
    rev = np.zeros((2, n))  # big time-reversed: nodes j-1, j-2, ... are contiguous
    size = np.zeros((2, n))
    for j in range(1, n):
        x_prev, v_prev = big[:, j - 1]
        f = fode.rhs(h * (j - 1), fode.x0 + x_prev, fode.v0 + v_prev)
        hist = [w[1 : j + 1].dot(r[n - j :]) for r in rev]
        drive = ha * (fode.v0 + v_prev), ha * f
        for r in range(2):
            big[r, j] = rev[r, n - 1 - j] = -hist[r] + drive[r]
            size[r, j] = np.abs(w[1 : j + 1]).dot(np.abs(rev[r, n - j :])) + abs(drive[r])
    return big, size


@pytest.mark.parametrize("n", FODE2_NODES + FODE2_SUB_BLOCK_NODES)
@pytest.mark.parametrize("alpha", [0.3, 0.6, 0.95, 1.0])
@pytest.mark.parametrize(
    "rhs",
    [
        lambda t, x, v: 1.0 - 2.0 * x - 0.5 * v,
        lambda t, x, v: math.cos(3.0 * t) + math.sin(x) - 0.3 * v * abs(v),
    ],
    ids=["linear", "nonlinear"],
)
def test_fode2_matches_plain_explicit_stepping(n, alpha, rhs):
    # x0 = v0 = 0, so that x and v are the stepped deviations X and V.
    h = 2**-10
    rep = solve_fode2(FODE2(alpha=alpha, rhs=rhs, t_end=(n - 1) * h), h)
    got = np.array([rep.solution.values, rep.aux.values])
    big, size = plain_fode2(FODE2(alpha=alpha, rhs=rhs, t_end=(n - 1) * h), h)
    # Earlier sub-blocks enter through matrix products and earlier blocks
    # through FFTs. A node also inherits the roundoff of the nodes before
    # it, so its bound is the largest sum of absolute terms up to it.
    assert np.all(np.abs(got - big) <= 1e-13 * np.maximum.accumulate(size, axis=1))


def test_explicit_euler_reduction_at_order_one():
    # alpha = 1 turns the scheme into explicit Euler for x'' = -0.5 x'
    fode = FODE2(alpha=1.0, rhs=lambda t, x, v: -0.5 * v, x0=0.0, v0=1.0, t_end=2.0)
    rep = solve_fode2(fode, 2.0 / 1024)
    t = rep.solution.times()
    exact = (1.0 - np.exp(-0.5 * t)) / 0.5
    assert np.max(np.abs(rep.solution.values - exact)) <= 1e-3


def test_solvers_agree_on_shared_problem():
    # D^0.4 D^0.4 x = t^2 with zero start is also the single-term problem
    # D^0.8 x = t^2
    h = 2**-10
    coupled = solve_fode2(FODE2(alpha=0.4, rhs=lambda t, x, v: t**2, t_end=1.0), h)
    direct = solve_multiterm(
        MultiTermFDE(terms=((1.0, 0.8),), forcing=lambda t: t**2, t_end=1.0), h
    )
    diff = np.max(np.abs(coupled.solution.values - direct.solution.values))
    assert diff <= 1e-2


# === fractional regime oracle ===============================================


def mittag_leffler_series(a, z):
    """E_a(z) = sum_k z**k / Gamma(a k + 1) on an array, for |z| <= 1."""
    z = np.asarray(z, dtype=float)
    total = np.zeros_like(z)
    k = 0
    while True:
        term = z**k / math.gamma(a * k + 1.0)
        total += term
        k += 1
        if k > 2 and np.max(np.abs(term)) < 1e-17:
            return total


def first_order_errors(solve, exact):
    errs = []
    for h in (2**-9, 2**-10, 2**-11):  # 2049 nodes at the finest step
        sol = solve(h).solution
        t = sol.times()
        late = t >= 0.1
        errs.append(np.max(np.abs(sol.values[late] - exact(t[late]))))
    return errs


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_multiterm_relaxation_converges_at_first_order(alpha):
    # D^alpha x + x = 1 from zero history: x = 1 - E_alpha(-t^alpha)
    fde = MultiTermFDE(terms=((1.0, alpha),), zero_order_coeff=1.0, forcing=1.0)
    errs = first_order_errors(
        lambda h: solve_multiterm(fde, h),
        lambda t: 1.0 - mittag_leffler_series(alpha, -(t**alpha)),
    )
    assert errs[0] <= 2e-3
    assert 0.45 <= errs[1] / errs[0] <= 0.55
    assert 0.45 <= errs[2] / errs[1] <= 0.55


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_fode2_oscillator_converges_at_first_order(alpha):
    # D^alpha x = v, D^alpha v = -x, x(0) = 1: x = E_{2 alpha}(-t^{2 alpha})
    fode = FODE2(alpha=alpha, rhs=lambda t, x, v: -x, x0=1.0)
    errs = first_order_errors(
        lambda h: solve_fode2(fode, h),
        lambda t: mittag_leffler_series(2.0 * alpha, -(t ** (2.0 * alpha))),
    )
    assert errs[0] <= 2e-3
    assert 0.45 <= errs[1] / errs[0] <= 0.55
    assert 0.45 <= errs[2] / errs[1] <= 0.55


# === model templates ========================================================


def kinds(name):
    """Variant -> "multiterm" or "fode2", the kind of the model's problem at its defaults."""
    return {v: "multiterm" if isinstance(make_model(name, v), MultiTermFDE) else "fode2"
            for v in ("classical", "fractional")}


def defaults(name):
    """The keyword parameters of a catalog model's factory and their defaults."""
    params = inspect.signature(model_catalog()[name][1]).parameters.values()
    return {p.name: p.default for p in params if p.default is not p.empty}


def test_catalog_names_and_kinds():
    names = sorted(model_catalog())
    assert names == ["bagley-torvik", "business-cycle", "friction", "phillips"]
    for name in model_catalog():
        assert set(kinds(name)) == {"classical", "fractional"}
        assert set(kinds(name).values()) <= {"multiterm", "fode2"}
    with pytest.raises(ValueError):
        make_model("pendulum", "classical")
    with pytest.raises(ValueError):
        make_model("friction", "quantum")


def test_catalog_kinds_are_the_kinds_of_the_factories_problems():
    # The maps each catalog entry used to state by hand.
    stated = {
        "friction": {"classical": "fode2", "fractional": "fode2"},
        "phillips": {"classical": "multiterm", "fractional": "fode2"},
        "business-cycle": {"classical": "multiterm", "fractional": "multiterm"},
        "bagley-torvik": {"classical": "multiterm", "fractional": "multiterm"},
    }
    assert {name: kinds(name) for name in model_catalog()} == stated
    for name in model_catalog():
        for variant, kind in kinds(name).items():
            solver_input = MultiTermFDE if kind == "multiterm" else FODE2
            assert type(make_model(name, variant)) is solver_input


def test_friction_rhs_assembles_potential_gradient():
    prob = make_model(
        "friction", "fractional", potential=lambda t, x: 0.5 * x**2, gamma_coef=0.3, m=2.0
    )
    assert prob.rhs(0.0, 1.0, 0.0) == pytest.approx(0.5, abs=1e-6)
    assert prob.rhs(0.0, 0.0, 1.0) == pytest.approx(-0.15, abs=1e-6)


def test_friction_classical_limit_matches_exponential():
    prob = make_model("friction", "classical")
    assert isinstance(prob, FODE2) and prob.alpha == 1.0
    rep = solve_fode2(prob, 2.0 / 1024)
    t = rep.solution.times()
    exact = (1.0 - np.exp(-0.5 * t)) / 0.5
    assert np.max(np.abs(rep.solution.values - exact)) <= 1e-3


def test_phillips_classical_matches_reference_integrator():
    prob = make_model("phillips", "classical")
    assert isinstance(prob, MultiTermFDE)
    rep = solve_multiterm(prob, 5.0 / 2048)
    sol = solve_ivp(
        lambda t, y: [y[1], -0.5 * y[1] - 1.0 * y[0] - 0.2],
        (0.0, 5.0),
        [0.0, 0.0],
        t_eval=rep.solution.times(),
        rtol=1e-11,
        atol=1e-12,
    )
    assert np.max(np.abs(rep.solution.values - sol.y[0])) <= 2e-3


def test_business_cycle_classical_equals_half_order_fractional():
    classical = make_model("business-cycle", "classical")
    half = make_model("business-cycle", "fractional", alpha=0.5)
    assert classical.terms == half.terms
    a = solve_multiterm(classical, 2**-8).solution.values
    b = solve_multiterm(half, 2**-8).solution.values
    assert np.array_equal(a, b)


def test_friction_template_rejects_zero_mass():
    # The right side divides by m; it used to raise ZeroDivisionError mid-solve.
    with pytest.raises(ValueError, match="^m must be nonzero$"):
        make_model("friction", "fractional", m=0.0)


def model_lagrangian(name, variant, p):
    """The catalog Lagrangian whose classical Euler-Lagrange equation is the model's.

    Phillips and business-cycle are the order-2 and order-3 potentials with
    U = b1 x**2 / 2 + f x, at alpha = 1/2 for the classical variant; the
    plate is the bagley-torvik Lagrangian, at alpha = 1/4 for the classical
    variant, with the model's forcing.
    """
    classical = variant == "classical"
    if name == "bagley-torvik":
        return make_lagrangian(
            "bagley-torvik", a=p["a"], b=p["b"], c=p["c"], alpha=0.25 if classical else p["alpha"],
            forcing=_bt_default_forcing if p["forcing"] is None else p["forcing"],
        )
    return make_lagrangian(
        "order2-potential" if name == "phillips" else "order3-potential",
        alpha=0.5 if classical else p["alpha"], a1=p["a1"], a2=p.get("a2", 0.0),
        potential=lambda t, x: 0.5 * p["b1"] * x**2 + p["f"] * x,
        potential_x=lambda t, x: p["b1"] * x + p["f"],
    )


@pytest.mark.parametrize("name, variant, params, h", [
    ("phillips", "classical", {}, 5.0 / 1024),
    ("business-cycle", "classical", {}, 2**-9),
    ("bagley-torvik", "classical", {}, 2**-9),
    ("business-cycle", "fractional", {"alpha": 0.3, "a1": 0.7, "a2": 0.2, "b1": 1.3, "f": 0.1},
     2**-9),
    ("bagley-torvik", "fractional", {"alpha": 0.2, "a": 0.8, "b": 0.6, "c": 1.7}, 2**-9),
], ids=["phillips-2-0.0048828125", "business-cycle-3-0.001953125", "bagley-torvik-classical",
        "business-cycle-fractional-0.3", "bagley-torvik-fractional-0.2"])
def test_classical_templates_are_stationary_for_the_order_k_potential(name, variant, params, h):
    # x'' + a1 x' + b1 x + f = 0, x''' + a2 x'' + a1 x' + b1 x + f = 0 and the
    # plate, classical or fractional, are the Euler-Lagrange equations of
    # their catalog Lagrangians (see model_lagrangian), so the lifted
    # solutions are stationary. Every jet level here has order at most one.
    p = {**defaults(name), **params}
    sol = solve_multiterm(make_model(name, variant, **params), h).solution
    lag = model_lagrangian(name, variant, p)
    assert el_residual(lag, lift(sol, lag.alpha, lag.k)).norm_inf <= 1e-8


def test_business_cycle_above_order_one_is_stationary_on_base_regularized_jets():
    # At alpha = 0.4 the top level has order 1.2. `lift`'s Taylor fit
    # subtracts a fitted slope there (norm 7e-3), which the solver's
    # zero-history operator does not: these jets take the base value 0.
    alpha = 0.4
    sol = solve_multiterm(make_model("business-cycle", "fractional", alpha=alpha), 2**-9).solution
    levels = [
        frac_deriv_from_base(sol, FracOrder(a * alpha), 0.0).values / gamma(1 + a * alpha)
        for a in (1, 2, 3)
    ]
    traj = JetTrajectory(alpha, 3, 0.0, sol.h, np.array([sol.values, *levels])[:, None])
    p = {**defaults("business-cycle"), "alpha": alpha}
    lag = model_lagrangian("business-cycle", "fractional", p)
    assert el_residual(lag, traj).norm_inf <= 1e-8


def restated_equation(name, variant, p):
    """(terms, zero-order coefficient, forcing) as the factories wrote them out by hand."""
    alpha = p["alpha"]
    if name == "phillips":
        return ((1.0, 2.0), (p["a1"], 1.0)), p["b1"], -p["f"]
    if name == "business-cycle":
        if variant == "classical":
            orders = (3.0, 2.0, 1.0)
        else:
            orders = (6.0 * alpha, 4.0 * alpha, 2.0 * alpha)
        return ((1.0, orders[0]), (p["a2"], orders[1]), (p["a1"], orders[2])), p["b1"], -p["f"]
    orders = (2.0, 1.5) if variant == "classical" else (8.0 * alpha, 6.0 * alpha)
    forcing = _bt_default_forcing if p["forcing"] is None else p["forcing"]
    return ((p["a"], orders[0]), (p["b"], orders[1])), p["c"], forcing


def equation_bits(build):
    """The bytes of an equation's terms, c_0, t_end and forcing samples, or its error."""
    try:
        fde = build()
    except ValueError as exc:
        return str(exc)
    t = np.linspace(0.0, fde.t_end, 17)
    f = np.broadcast_to(np.asarray(fde.forcing(t), dtype=np.float64), t.shape)
    numbers = [v for term in fde.terms for v in term] + [fde.zero_order_coeff, fde.t_end]
    return np.array(numbers).tobytes() + f.tobytes()


@pytest.mark.parametrize("name, variant", [
    ("phillips", "classical"), ("business-cycle", "classical"), ("business-cycle", "fractional"),
    ("bagley-torvik", "classical"), ("bagley-torvik", "fractional"),
])
def test_derived_equations_equal_the_restated_ones_bit_for_bit(name, variant):
    rng = np.random.default_rng(20070)
    draws = [{}]
    for _ in range(150):
        # Zeros (a zero leading coefficient too), signs, magnitudes 1e-8 .. 1e8.
        p = {k: float(rng.choice([0.0, rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-8, 8)]))
             for k, v in defaults(name).items() if isinstance(v, float) and k != "t_end"}
        p["alpha"] = float(rng.choice([rng.uniform(0.0, 1.0), rng.uniform(1.0, 30.0)]))
        p["t_end"] = float(rng.uniform(0.5, 4.0))
        if name == "bagley-torvik" and rng.uniform() < 0.3:
            p["forcing"] = float(rng.uniform(-2.0, 2.0))
        draws.append(p)
    for params in draws:
        p = {**defaults(name), **params}
        terms, c0, forcing = restated_equation(name, variant, p)
        assert equation_bits(lambda: make_model(name, variant, **params)) == equation_bits(
            lambda: MultiTermFDE(terms, c0, forcing, p["t_end"])
        ), params


def test_bagley_torvik_template_default_forcing_is_manufactured():
    prob = make_model("bagley-torvik", "classical")
    rep = solve_multiterm(prob, 2**-9)
    t = rep.solution.times()
    sl = slice(8, None)
    rel = np.max(np.abs(rep.solution.values[sl] - t[sl] ** 3)) / 1.0
    assert rel <= 1e-2


# === Laplace-inversion oracle ===============================================


def laplace_solution(fde, forcing_transform):
    """x(t_end) of a multi-term equation with zero history, by Laplace inversion.

    X(s) = F(s) / (sum_i c_i s**mu_i + c_0), inverted at 30 digits by
    Talbot's contour, which must agree with de Hoog's method.
    """
    with mpmath.workdps(30):
        def transform(s):
            symbol = sum(c * s ** mpmath.mpf(mu) for c, mu in fde.terms)
            return forcing_transform(s) / (symbol + fde.zero_order_coeff)

        talbot = mpmath.invertlaplace(transform, fde.t_end, method="talbot")
        dehoog = mpmath.invertlaplace(transform, fde.t_end, method="dehoog")
        assert abs(talbot - dehoog) <= 1e-25
        return float(talbot)


# Fractional entries of the derived catalog, with orders above and below one
# at their top level. The plate's default forcing 6 t + 6 t**1.5 / Gamma(2.5)
# + t**3 transforms to 6 / s**2 + 6 / s**2.5 + 6 / s**4.
@pytest.mark.parametrize("name, params, forcing_transform", [
    ("business-cycle", {"alpha": 0.4}, lambda s: -0.2 / s),
    ("business-cycle", {"alpha": 0.3, "a1": 0.7, "a2": 0.2, "b1": 1.3, "f": 0.1},
     lambda s: -0.1 / s),
    ("bagley-torvik", {"alpha": 0.3}, lambda s: 6 / s**2 + 6 / s ** mpmath.mpf(2.5) + 6 / s**4),
], ids=["business-cycle-0.4", "business-cycle-0.3", "bagley-torvik-0.3"])
def test_derived_fractional_solves_converge_to_the_laplace_inverse(name, params, forcing_transform):
    fde = make_model(name, "fractional", **params)
    exact = laplace_solution(fde, forcing_transform)
    errors = [abs(solve_multiterm(fde, 2.0**-j).solution.values[-1] - exact) for j in range(9, 13)]
    ratios = [fine / coarse for coarse, fine in zip(errors, errors[1:])]
    assert all(0.45 <= r <= 0.55 for r in ratios), ratios
