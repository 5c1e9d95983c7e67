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

from fracvar import fodesolve
from fracvar.fodesolve import (
    _CHORD_TOL,
    _inverse_series,
    FODE2,
    DivergenceError,
    MultiTermFDE,
    fde_residual,
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
from fracvar.varcalc import (
    _bt_default_forcing,
    el_residual,
    make_lagrangian,
    make_model,
    model_catalog,
)

from oracles import mittag_leffler_reference, plate_fde


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
    # A finite forcing of 1e308 overflows the plate's far sums of the second
    # block, nodes 513 on: its FFTs turn every node non-finite, and the
    # direct sums name the first. Classical phillips, of integer orders
    # alone, overflows its direct far sums at f = 1e306, at node 513 too.
    cases = [(make_model("bagley-torvik", "classical", forcing=1e308), 2**-11, "0.250488"),
             (make_model("phillips", "classical", f=1e306), 5.0 / 1024, "2.50488")]
    for fde, h, t in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match=f"^solution is not finite at t = {t}$"):
                solve_multiterm(fde, h)


# Every multi-term solve takes blocks of at most _BLOCK unknown nodes, one
# of integer orders alone (classical phillips and business-cycle) too.
@pytest.mark.parametrize("n", [2049, 4097])
@pytest.mark.parametrize("name, variant", [
    ("phillips", "classical"), ("business-cycle", "classical"), ("bagley-torvik", "fractional"),
], ids=["phillips", "business-cycle", "bagley-torvik-0.25"])
def test_multiterm_solves_take_blocks_of_at_most_block_nodes(monkeypatch, name, variant, n):
    sizes, block_solver = [], fodesolve._block_solver

    def recorded(weights, scales, c0, size):
        sizes.append(size)
        return block_solver(weights, scales, c0, size)

    monkeypatch.setattr(fodesolve, "_block_solver", recorded)
    fde = make_model(name, variant)
    solve_multiterm(fde, fde.t_end / (n - 1))
    assert sizes and max(sizes) <= _BLOCK


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


# Grid sizes on both sides of block boundaries.
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


# Grids of 2**12 + 1 nodes tile into eight blocks of 512 unknown nodes, and
# those of 2**10 + 1, the command line's default step, into two (phillips,
# whose t_end is 5, into 40 and 10). Each bound is about three times the
# measured error, so that a change that costs more than that in accuracy
# fails. Integer orders alone hand each block on through far sums of size
# h**-mu |x| that cancel. D**3 alone takes a forcing that is not a
# polynomial: with forcing t its solve is exact.
LONG_DOUBLE_CASES = {
    "three-term": (MultiTermFDE(((1.0, 1.8), (0.3, 1.2), (0.7, 0.6)), 1.0, lambda t: t),
                   1.5e-11, 1.2e-12),
    "bagley-torvik": (make_model("bagley-torvik", "classical"), 3e-12, 3.5e-14),  # orders 2, 1.5
    "bagley-torvik-0.2": (make_model("bagley-torvik", "fractional", alpha=0.2),
                          2.5e-11, 1.6e-13),  # orders 1.6, 1.2
    "business-cycle-0.4": (make_model("business-cycle", "fractional", alpha=0.4),
                           2.5e-9, 9e-11),  # orders 2.4, 1.6, 0.8
    "phillips": (make_model("phillips", "classical"), 1.8e-11, 4e-13),  # orders 2, 1
    "business-cycle": (make_model("business-cycle", "classical"), 8e-9, 1.3e-11),  # 3, 2, 1
    "two-term": (MultiTermFDE(((1.0, 2.0), (0.5, 1.0)), 1.0, lambda t: math.cos(3.0 * t) + t),
                 5e-13, 4.5e-14),
    "d3": (MultiTermFDE(((1.0, 3.0),), 0.0, lambda t: math.cos(3.0 * t) + t), 8.5e-9, 1.5e-10),
}


@pytest.mark.parametrize("fde, h, bound", [
    pytest.param(fde, h, bound, id=name + suffix)
    for name, (fde, *bounds) in LONG_DOUBLE_CASES.items()
    for h, bound, suffix in zip((2.0**-12, 2.0**-10), bounds, ("", "-2**-10"))
])
def test_blocked_solves_match_long_double_substitution(fde, h, bound):
    x = solve_multiterm(fde, h).solution.values
    ref = forward_substitution(fde, h)
    assert float(np.max(np.abs(x - ref)) / np.max(np.abs(ref))) <= bound


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


# === implicit coupled solver ================================================


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


def block_of(j):
    """The block of ``fracops._far_blocks`` that node j >= 1 of a blocked grid lies in.

    The solvers' blocks tile the unknown nodes 1 .. n - 1.
    """
    return (j - 1) // _BLOCK


# At 2 * _BLOCK + 1 nodes the unknown nodes are two blocks of _BLOCK.
@pytest.mark.parametrize("n", [257, 2 * _BLOCK + 1, 3 * _BLOCK + 1])
def test_right_side_is_called_on_block_arrays(n):
    h = 1.0 / (n - 1)
    calls = []

    def rhs(t, x, v):
        calls.append(np.array(t))
        return 1.0 - x - 0.3 * v

    rep = solve_fode2(FODE2(alpha=0.6, rhs=rhs), h)
    t = h * np.arange(n)
    # The Jacobian's probes are four copies of one node's time; each step's
    # call takes the node times of a run of nodes within one block.
    probes = [c for c in calls if c.size == 4 and np.all(c == c[0])]
    assert np.array_equal(probes[0], np.zeros(4))
    runs = [c for c in calls if not any(c is p for p in probes)]
    blocks = []
    for c in runs:
        j0 = int(round(c[0] / h))
        assert np.array_equal(c, t[j0 : j0 + c.size]) and c.size <= _BLOCK
        assert block_of(j0) == block_of(j0 + c.size - 1)
        blocks.append(block_of(j0))
    assert blocks == sorted(blocks)  # blocks in order, never back to an earlier one
    assert set(np.concatenate(runs).tolist()) == set(t[1:].tolist())
    # The defect is the second equation's residual at the returned nodes,
    # within the chord tolerance of its terms' size h**-alpha max |v|; fresh
    # history sums give it again to roundoff, and the first equation's to
    # roundoff.
    x, v = rep.solution.values, rep.aux.values
    w = gl_weights(FracOrder(0.6), n)
    dx, dv = h**-0.6 * _history(x, w), h**-0.6 * _history(v, w)
    fresh = np.max(np.abs(dv[1:] - (1.0 - x[1:] - 0.3 * v[1:])))
    size = h**-0.6 * np.max(np.abs(v))
    assert rep.max_defect <= _CHORD_TOL * size
    assert abs(fresh - rep.max_defect) <= 1e-13 * size
    assert np.max(np.abs(dx[1:] - v[1:])) <= 1e-13 * size


def test_scalar_right_side_is_called_node_by_node():
    calls = []

    def rhs(t, x, v):
        value = math.cos(t) - x  # math.cos refuses arrays
        calls.append(t)
        return value

    h = 2**-6
    rep = solve_fode2(FODE2(alpha=0.6, rhs=rhs), h)
    n = rep.solution.n_pts
    assert calls[:4] == [0.0] * 4  # the Jacobian's probes
    steps = len(calls[4:]) // (n - 1)
    assert steps >= 2 and calls[4:] == [j * h for j in range(1, n)] * steps


def test_nan_right_side_names_its_node_and_stops_in_its_block():
    n = 3 * _BLOCK + 1
    h = 1.0 / (n - 1)
    bad_node = 2 * _BLOCK - 37
    calls = []

    def rhs(t, x, v):
        calls.append(np.max(t))
        return np.where(t == h * bad_node, math.nan, -x)

    with pytest.raises(DivergenceError, match=f"at t = {h * bad_node:g}$"):
        solve_fode2(FODE2(alpha=0.6, rhs=rhs, x0=1.0), h)
    assert max(calls) <= h * 2 * _BLOCK  # F is never called on a later block


def test_initial_values_are_injected():
    fode = FODE2(alpha=0.7, rhs=lambda t, x, v: -x, x0=2.0, v0=-1.0, t_end=1.0)
    rep = solve_fode2(fode, 2**-8)
    assert rep.solution.values[0] == 2.0
    assert rep.aux.values[0] == -1.0


def test_growth_guard_raises():
    # v grows like E_0.5(40 t**0.5), about exp(1600 t). At 40 h**0.5 = 5 > 1
    # the implicit scheme would damp that mode and flip its sign (V_1 = -1.25):
    # F's Jacobian is checked for it first.
    h = 2**-6
    fode = FODE2(alpha=0.5, rhs=lambda t, x, v: 40.0 * v, v0=1.0, t_end=4.0)
    with pytest.raises(DivergenceError, match=f"at t = 0 has a growing mode .* reduce h = {h:g}$"):
        solve_fode2(fode, h)
    # E_0.5(4 t**0.5), about exp(16 t): at 4 h**0.5 = 0.5 the scheme follows
    # it up to the guard.
    fode = FODE2(alpha=0.5, rhs=lambda t, x, v: 4.0 * v, v0=1.0, t_end=4.0)
    with pytest.raises(DivergenceError, match="exceeded 1e\\+12") as info:
        solve_fode2(fode, h)
    t_bad = float(str(info.value).rsplit("= ", 1)[1])
    # The scheme is causal: the grid that ends one node earlier solves.
    rep = solve_fode2(FODE2(alpha=0.5, rhs=fode.rhs, v0=1.0, t_end=t_bad - h), h)
    assert max(np.max(np.abs(rep.solution.values)), np.max(np.abs(rep.aux.values - 1.0))) <= 1e12


@pytest.mark.parametrize("alpha, rhs, h", [
    (1.0, lambda t, x, v: x, 1.0),  # modes +-1 = h**-1: the diagonal is zero
    (0.5, lambda t, x, v: 20.0 * v - 99.0 * x, 2**-6),  # modes 9 and 11 > h**-0.5 = 8
], ids=["zero-diagonal", "two-modes"])
def test_modes_the_step_cannot_follow_are_divergence_errors(alpha, rhs, h):
    fode = FODE2(alpha=alpha, rhs=rhs, v0=1.0, t_end=8 * h)
    with pytest.raises(DivergenceError, match=f"at t = 0 has a growing mode .* reduce h = {h:g}$"):
        solve_fode2(fode, h)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("n", [257, 3 * _BLOCK + 1])
def test_non_finite_right_side_is_a_divergence_error(bad, n):
    calls = []

    def rhs(t, x, v):
        calls.append(np.max(t))
        return bad if t > 0.5 else -x  # refuses arrays: called node by node

    h = 1.0 / (n - 1)
    # The first node past t = 0.5 is the first whose X and V are not finite.
    first_bad = n // 2 + 1
    message = f"not finite or exceeded 1e\\+12 at t = {h * first_bad:g}$"
    with pytest.raises(DivergenceError, match=message):
        solve_fode2(FODE2(alpha=0.6, rhs=rhs, x0=1.0), h)
    last = n - 1 if n <= 2 * _BLOCK else (block_of(first_bad) + 1) * _BLOCK
    assert max(calls) <= h * last  # F is never called on a later block


# Grid sizes on both sides of block boundaries, from the smallest grid on,
# and grids whose last block holds a few nodes.
FODE2_NODES = [9, 10, 257, 2 * _BLOCK - 3, 2 * _BLOCK, 2 * _BLOCK + 1, 3 * _BLOCK - 1,
               3 * _BLOCK + 1, 2 * _BLOCK + 8, 2 * _BLOCK + 9, 4 * _BLOCK + 2]


def plain_fode2(fode, h):
    """The implicit scheme of ``solve_fode2`` as a plain O(N**2) loop.

    Node j solves h**-alpha (w * X)_j = v0 + V_j and h**-alpha (w * V)_j =
    F(t_j, x0 + X_j, v0 + V_j) for X_j and V_j by Newton's method on the
    2x2 system, F's derivatives by central differences, from node j - 1.
    The steps are Python floats, by Cramer's rule.
    """
    n = int(round(fode.t_end / h)) + 1
    w = gl_weights(FracOrder(fode.alpha), n)
    s = h**-fode.alpha
    big = np.zeros((2, n))
    rev = np.zeros((2, n))  # big time-reversed: nodes j-1, j-2, ... are contiguous
    for j in range(1, n):
        hist_x, hist_v = (float(w[1 : j + 1].dot(r[n - j :])) for r in rev)
        x, v = big[:, j - 1].tolist()
        for _ in range(50):
            f = lambda dx, dv: fode.rhs(h * j, fode.x0 + x + dx, fode.v0 + v + dv)  # noqa: E731
            res_x, res_v = s * (hist_x + x) - fode.v0 - v, s * (hist_v + v) - f(0.0, 0.0)
            e = 1e-7
            f_x, f_v = (f(e, 0.0) - f(-e, 0.0)) / (2 * e), (f(0.0, e) - f(0.0, -e)) / (2 * e)
            # The step solves [[s, -1], [-f_x, s - f_v]] (dx, dv) = -(res_x, res_v).
            det = s * (s - f_v) - f_x
            dx, dv = (-res_x * (s - f_v) - res_v) / det, (-s * res_v - f_x * res_x) / det
            x, v = x + dx, v + dv
            if abs(dx) <= 1e-16 * max(1.0, abs(x)) and abs(dv) <= 1e-16 * max(1.0, abs(v)):
                break
        big[:, j] = rev[:, n - 1 - j] = x, v
    return big


PLAIN_RIGHT_SIDES = {
    "linear": lambda t, x, v: 1.0 - 2.0 * x - 0.5 * v,
    "nonlinear": lambda t, x, v: math.cos(3.0 * t) + math.sin(x) - 0.3 * v * abs(v),
}


# The cases start at rest, and a few at (x0, v0) = (0.5, -1): on two whole
# blocks of unknown nodes, on the grid just past them, and on 2050 nodes.
PLAIN_CASES = [pytest.param(rhs, alpha, n, 0.0, 0.0, id=f"{name}-{alpha}-{n}")
               for name, rhs in PLAIN_RIGHT_SIDES.items() for alpha in (0.3, 0.6, 0.95, 1.0)
               for n in FODE2_NODES]
PLAIN_CASES += [pytest.param(rhs, alpha, n, 0.5, -1.0, id=f"{name}-{alpha}-{n}-start")
                for name, rhs in PLAIN_RIGHT_SIDES.items() for alpha in (0.3, 0.95, 1.0)
                for n in (2 * _BLOCK + 1, 2 * _BLOCK + 9, 4 * _BLOCK + 2)]


@pytest.mark.parametrize("rhs, alpha, n, x0, v0", PLAIN_CASES)
def test_fode2_matches_plain_implicit_stepping(rhs, alpha, n, x0, v0):
    h = 2**-10
    fode = FODE2(alpha=alpha, rhs=rhs, x0=x0, v0=v0, t_end=(n - 1) * h)
    rep = solve_fode2(fode, h)
    big = plain_fode2(fode, h)
    xs, vs = rep.solution.values - x0, rep.aux.values - v0
    # Chord steps stop once their iterate is within _CHORD_TOL max |X| of
    # the solution of the implicit equations; V = D X carries that to V.
    assert np.max(np.abs(xs - big[0])) <= _CHORD_TOL * np.max(np.abs(big[0]))
    assert np.max(np.abs(vs - big[1])) <= _CHORD_TOL * np.max(np.abs(big[1]))
    # X = D**-1 (v0 + V), so the first equation h**-alpha (w * X) = v0 + V
    # holds to the rounding of the weights' composition: up to 2.2e-12 of
    # max(|v0|, max |V|), at 2050 nodes.
    first = h**-alpha * np.convolve(gl_weights(FracOrder(alpha), n), xs)[:n] - (v0 + vs)
    assert np.max(np.abs(first[1:])) <= 1e-11 * max(abs(v0), np.max(np.abs(vs)))


def plain_explicit_fode2(fode, h):
    """The explicit scheme of the same pair as a plain O(N**2) loop.

    Node j takes v and F from node j - 1: h**-alpha (w * X)_j = v0 + V_{j-1}
    and h**-alpha (w * V)_j = F(t_{j-1}, x0 + X_{j-1}, v0 + V_{j-1}).
    """
    n = int(round(fode.t_end / h)) + 1
    w = gl_weights(FracOrder(fode.alpha), n)
    ha = h**fode.alpha
    big = np.zeros((2, n))
    rev = np.zeros((2, n))  # big time-reversed: nodes j-1, j-2, ... are contiguous
    for j in range(1, n):
        x_prev, v_prev = big[:, j - 1]
        f = fode.rhs(h * (j - 1), fode.x0 + x_prev, fode.v0 + v_prev)
        hist = [w[1 : j + 1].dot(r[n - j :]) for r in rev]
        big[:, j] = rev[:, n - 1 - j] = -hist[0] + ha * (fode.v0 + v_prev), -hist[1] + ha * f
    return big


@pytest.mark.parametrize("n", FODE2_NODES)
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
    # The explicit scheme lags v and F by one node. It and the implicit solve
    # are first-order schemes of the same pair, so their gap at t_end halves
    # with h, in x and in v.
    t_end = (n - 1) * 2**-10
    gaps = []
    for h in (2**-10, 2**-11):
        fode = FODE2(alpha=alpha, rhs=rhs, t_end=t_end)
        rep = solve_fode2(fode, h)
        big = plain_explicit_fode2(fode, h)
        gaps.append(np.array([rep.solution.values[-1], rep.aux.values[-1]]) - big[:, -1])
    ratios = gaps[1] / gaps[0]
    assert np.all((0.45 <= ratios) & (ratios <= 0.55)), ratios


@pytest.mark.parametrize("alpha, rhs", [
    (0.5, lambda t, x, v: -0.1 * v - x - 5.0 * x**3),
    (0.8, lambda t, x, v: -0.1 * v - x - 5.0 * x**3),
    (0.5, lambda t, x, v: 2.0 * (1.0 - x**2) * v - x),
], ids=["duffing-0.5", "duffing-0.8", "van-der-pol-0.5"])
def test_runs_whose_chord_steps_stall_are_halved(alpha, rhs):
    # On one block of 256 steps over [0, 2], F's Jacobian varies too much for
    # chord steps on the whole block: its runs are halved, down to Newton
    # steps on single nodes where needed.
    h = 2.0 / 256
    runs = []

    def counted(t, x, v):
        if np.ptp(t) > 0.0:  # not a Jacobian's probe
            runs.append(np.size(t))
        return rhs(t, x, v)

    rep = solve_fode2(FODE2(alpha=alpha, rhs=counted, x0=2.0, t_end=2.0), h)
    assert runs[0] == 256 and min(runs) <= 128
    big = plain_fode2(FODE2(alpha=alpha, rhs=rhs, x0=2.0, t_end=2.0), h)
    assert np.max(np.abs(rep.solution.values - 2.0 - big[0])) <= _CHORD_TOL * np.max(np.abs(big[0]))
    assert np.max(np.abs(rep.aux.values - big[1])) <= _CHORD_TOL * np.max(np.abs(big[1]))


def count_calls(monkeypatch, fode, h):
    """(F calls, FFT calls, sizes of F's calls) of one solve of ``fode``."""
    sizes, ffts = [], [0]
    for name in ("rfft", "irfft"):
        def counted(*args, _real=getattr(np.fft, name), **kwargs):
            ffts[0] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)

    def rhs(t, x, v):
        sizes.append(np.size(t))
        return fode.rhs(t, x, v)

    solve_fode2(FODE2(fode.alpha, rhs, fode.x0, fode.v0, fode.t_end), h)
    monkeypatch.undo()
    return len(sizes), ffts[0], sizes


# On 8193 nodes the unknown nodes are 16 blocks of 512. A linear F
# takes one Jacobian (four probes in one call) and two chord steps a block:
# the first step's solve is exact up to roundoff, and the second's, sized
# by its own product, shows it. Each step makes two transform pairs and
# each block's far sums one more: 131 FFT calls at every alpha, where
# chord steps of up to ten FFTs each took 275 to 425.
@pytest.mark.parametrize("alpha", [0.35, 0.65, 0.8, 0.95])
def test_linear_right_side_takes_two_calls_a_block(monkeypatch, alpha):
    fode = FODE2(alpha, lambda t, x, v: -2.0 * x, x0=1.0)
    calls, fft_calls, sizes = count_calls(monkeypatch, fode, 2.0**-13)
    assert calls <= 33 and fft_calls <= 137
    assert sizes[0] == 4 and set(sizes[1:]) == {_BLOCK}  # no single-node Newton steps


# F's Jacobian probes step by about eps**(1/3) max(1, |u|), so that F_v is
# good to about eps**(2/3) at v0 = 0 and the linear pair needs no third
# chord step.
@pytest.mark.parametrize("alpha", [0.5, 0.8])
def test_phillips_pair_takes_two_calls_a_block(monkeypatch, alpha):
    fode = make_model("phillips", "fractional", alpha=alpha, t_end=1.0)
    assert count_calls(monkeypatch, fode, 2.0**-13)[0] <= 33


def test_implicit_euler_reduction_at_order_one():
    # alpha = 1 turns the scheme into implicit Euler for x'' = -0.5 x':
    # v_j = q**j with q = 1 / (1 + 0.5 h), x_j = h (q + ... + q**j).
    h = 2.0 / 1024
    fode = FODE2(alpha=1.0, rhs=lambda t, x, v: -0.5 * v, x0=0.0, v0=1.0, t_end=2.0)
    rep = solve_fode2(fode, h)
    q = 1.0 / (1.0 + 0.5 * h)
    euler = h * q * (1.0 - q ** np.arange(1025)) / (1.0 - q)
    assert np.max(np.abs(rep.solution.values - euler)) <= _CHORD_TOL * np.max(euler)
    t = rep.solution.times()
    exact = (1.0 - np.exp(-0.5 * t)) / 0.5
    assert np.max(np.abs(rep.solution.values - exact)) <= 1e-3


@pytest.mark.parametrize("alpha, n", [(0.4, 1025), (0.4, 3 * _BLOCK + 1), (0.75, 1025), (1.0, 1025)])
def test_time_only_right_side_equals_the_single_term_solve(alpha, n):
    # With F = t**2 the pair is D^alpha D^alpha x = t**2, and the weights of
    # order alpha compose to those of order 2 alpha: the single-term solve.
    h = 1.0 / (n - 1)
    coupled = solve_fode2(FODE2(alpha=alpha, rhs=lambda t, x, v: t**2, t_end=1.0), h)
    direct = solve_multiterm(
        MultiTermFDE(terms=((1.0, 2.0 * alpha),), forcing=lambda t: t**2, t_end=1.0), h
    )
    x = direct.solution.values
    assert np.max(np.abs(coupled.solution.values - x)) <= 1e-12 * np.max(np.abs(x))


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
        lambda t: 1.0 - mittag_leffler_reference(alpha, -(t**alpha)),
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
        lambda t: mittag_leffler_reference(2.0 * alpha, -(t ** (2.0 * alpha))),
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


def laplace_inverse(transform, t):
    """The inverse of ``transform`` at t, at 30 digits by Talbot's contour, checked by de Hoog's."""
    with mpmath.workdps(30):
        talbot = mpmath.invertlaplace(transform, t, method="talbot")
        dehoog = mpmath.invertlaplace(transform, t, method="dehoog")
        assert abs(talbot - dehoog) <= 1e-25
        return float(talbot)


def laplace_solution(fde, forcing_transform):
    """x(t_end) of a multi-term equation with zero history.

    X(s) = F(s) / (sum_i c_i s**mu_i + c_0).
    """
    def transform(s):
        symbol = sum(c * s ** mpmath.mpf(mu) for c, mu in fde.terms)
        return forcing_transform(s) / (symbol + fde.zero_order_coeff)

    return laplace_inverse(transform, fde.t_end)


# Fractional entries of the derived catalog, with orders above and below one
# at their top level, and a three-term equation outside it. The plate's
# default forcing 6 t + 6 t**1.5 / Gamma(2.5) + t**3 transforms to 6 / s**2
# + 6 / s**2.5 + 6 / s**4.
PLATE_FORCING_TRANSFORM = lambda s: 6 / s**2 + 6 / s ** mpmath.mpf(2.5) + 6 / s**4  # noqa: E731


@pytest.mark.parametrize("problem, forcing_transform", [
    (lambda: make_model("business-cycle", "fractional", alpha=0.4), lambda s: -0.2 / s),
    (lambda: make_model("business-cycle", "fractional", alpha=0.3, a1=0.7, a2=0.2, b1=1.3, f=0.1),
     lambda s: -0.1 / s),
    (lambda: make_model("bagley-torvik", "fractional", alpha=0.3), PLATE_FORCING_TRANSFORM),
    (lambda: MultiTermFDE(((1.0, 1.8), (0.3, 1.2), (0.7, 0.6)), 1.0, lambda t: t),
     lambda s: 1 / s**2),
    (lambda: make_model("business-cycle", "fractional", alpha=0.2), lambda s: -0.2 / s),
    (lambda: make_model("bagley-torvik", "fractional", alpha=0.2), PLATE_FORCING_TRANSFORM),
    (lambda: make_model("bagley-torvik", "fractional", alpha=0.15), PLATE_FORCING_TRANSFORM),
], ids=["business-cycle-0.4", "business-cycle-0.3", "bagley-torvik-0.3", "three-term",
        "business-cycle-0.2", "bagley-torvik-0.2", "bagley-torvik-0.15"])
def test_derived_fractional_solves_converge_to_the_laplace_inverse(problem, forcing_transform):
    fde = problem()
    exact = laplace_solution(fde, forcing_transform)
    errors = [abs(solve_multiterm(fde, 2.0**-j).solution.values[-1] - exact) for j in range(9, 13)]
    ratios = [fine / coarse for coarse, fine in zip(errors, errors[1:])]
    assert all(0.45 <= r <= 0.55 for r in ratios), ratios


# The classical variants: orders 2 and 1 (phillips), 3, 2 and 1
# (business-cycle), 2 and 3/2 (the plate).
@pytest.mark.parametrize("problem, forcing_transform", [
    (lambda: make_model("phillips", "classical"), lambda s: -0.2 / s),
    (lambda: make_model("business-cycle", "classical"), lambda s: -0.2 / s),
    (lambda: make_model("bagley-torvik", "classical"), PLATE_FORCING_TRANSFORM),
], ids=["phillips", "business-cycle", "bagley-torvik"])
def test_classical_solves_converge_to_the_laplace_inverse(problem, forcing_transform):
    fde = problem()
    exact = laplace_solution(fde, forcing_transform)
    errors = [abs(solve_multiterm(fde, 2.0**-j).solution.values[-1] - exact) for j in range(9, 13)]
    ratios = [fine / coarse for coarse, fine in zip(errors, errors[1:])]
    assert all(0.45 <= r <= 0.55 for r in ratios), ratios


# The fractional phillips pair D^alpha x = v, D^alpha v = -a1 v - b1 x - f,
# started from x0 and v0, has L[x - x0] = (v0 s**(alpha - 1) - (b1 x0 + f) / s)
# / (s**(2 alpha) + a1 s**alpha + b1).
@pytest.mark.parametrize("alpha", [0.5, 0.8, 0.999])
def test_fode2_pair_with_start_values_and_forcing_converges_to_the_laplace_inverse(alpha):
    a1, b1, f, x0, v0, t_end = 0.5, 1.0, 0.2, 1.0, 0.5, 2.0
    fode = make_model("phillips", "fractional", alpha=alpha, a1=a1, b1=b1, f=f, x0=x0, v0=v0,
                      t_end=t_end)
    a = mpmath.mpf(alpha)
    exact = x0 + laplace_inverse(
        lambda s: (v0 * s ** (a - 1) - (b1 * x0 + f) / s) / (s ** (2 * a) + a1 * s**a + b1), t_end
    )
    errors = [abs(solve_fode2(fode, t_end * 2.0**-j).solution.values[-1] - exact)
              for j in range(9, 13)]
    ratios = [fine / coarse for coarse, fine in zip(errors, errors[1:])]
    assert all(0.45 <= r <= 0.55 for r in ratios), ratios


# Fractional friction is the pair with F = -gamma v / m, started from x0 =
# 0 and v0 = 1: L[x] = s**(alpha - 1) / (s**(2 alpha) + (gamma / m) s**alpha).
def friction_laplace_solution(fode, gamma_coef):
    a = mpmath.mpf(fode.alpha)
    return laplace_inverse(lambda s: s ** (a - 1) / (s ** (2 * a) + gamma_coef * s**a), fode.t_end)


@pytest.mark.parametrize("alpha", [0.5, 0.8, 0.999])
def test_fractional_friction_converges_to_the_laplace_inverse(alpha):
    fode = make_model("friction", "fractional", alpha=alpha)
    exact = friction_laplace_solution(fode, 0.5)
    errors = [abs(solve_fode2(fode, fode.t_end * 2.0**-j).solution.values[-1] - exact)
              for j in range(9, 13)]
    ratios = [fine / coarse for coarse, fine in zip(errors, errors[1:])]
    assert all(0.45 <= r <= 0.55 for r in ratios), ratios


@pytest.mark.parametrize("gamma_coef", [1100.0, 2000.0, 1e5])
def test_stiff_friction_solves_at_the_default_step(gamma_coef):
    # gamma h**alpha is 2.1 ... 200 at h = 2 / 1024: a step that lagged F
    # by one node would grow without bound.
    fode = make_model("friction", "fractional", gamma_coef=gamma_coef)
    x = solve_fode2(fode, fode.t_end / 1024).solution.values
    exact = friction_laplace_solution(fode, gamma_coef)
    assert abs(x[-1] - exact) <= 1e-9 * np.max(np.abs(x))


@pytest.mark.parametrize("problem", [
    lambda: FODE2(alpha=0.8, rhs=lambda t, x, v: -0.5 * v - x - x**3, x0=1.0, t_end=2.0),
    lambda: make_model("friction", "fractional", potential=lambda t, x: -0.25 * x**4, x0=1.0,
                       v0=0.0),
], ids=["duffing", "friction-quartic-potential"])
def test_nonlinear_right_sides_converge_at_first_order(problem):
    # Against the Richardson value of two fine grids, 2 x(h) - x(2 h).
    fode = problem()
    fine = [solve_fode2(fode, fode.t_end / m).solution.values[-1] for m in (16384, 8192)]
    reference = 2.0 * fine[0] - fine[1]
    errors = [abs(solve_fode2(fode, fode.t_end / 2**j).solution.values[-1] - reference)
              for j in range(7, 11)]
    ratios = [fine / coarse for coarse, fine in zip(errors, errors[1:])]
    assert all(0.45 <= r <= 0.55 for r in ratios), ratios
