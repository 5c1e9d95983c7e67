"""Sampled-path fractional derivatives and the operator identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import binom

from fracvar import fracops
from fracvar.fracops import (
    _BLOCK,
    FracOrder,
    SampledPath,
    Side,
    frac_deriv,
    frac_deriv_from_base,
    gl_weights,
    ibp_residual,
    _base_fit,
    _far_blocks,
    _history,
    _weights,
    leibniz_series,
)
from fracvar.specfun import gamma


def grid_path(fn, h, t0=0.0, t1=1.0):
    n = int(round((t1 - t0) / h)) + 1
    return SampledPath.from_function(fn, t0, t1, n)


def sampled_pair(fns, t0, t1, n):
    return tuple(SampledPath.from_function(f, t0, t1, n) for f in fns)


def interior(values, h, t_min=0.1):
    return values[int(round(t_min / h)):]


# === containers =============================================================


def test_sampled_path_validation_and_grid():
    with pytest.raises(ValueError):
        SampledPath(0.0, 0.1, np.array([1.0]))
    with pytest.raises(ValueError):
        SampledPath(0.0, -0.1, np.array([1.0, 2.0]))
    p = SampledPath(0.5, 0.25, np.array([1.0, 2.0, 4.0]))
    assert p.n_pts == 3
    assert p.t1 == pytest.approx(1.0)
    assert np.allclose(p.times(), [0.5, 0.75, 1.0])
    assert p.same_grid(p.with_values(p.values * 2))
    q = SampledPath(0.5, 0.2, np.array([0.0, 0.0, 0.0]))
    assert not p.same_grid(q)


@pytest.mark.parametrize(
    "t0, h", [(math.inf, 0.1), (-math.inf, 0.1), (math.nan, 0.1), (0.0, math.inf)]
)
def test_sampled_path_rejects_non_finite_start_or_step(t0, h):
    with pytest.raises(ValueError, match="finite"):
        SampledPath(t0, h, np.array([1.0, 2.0]))


# An infinite end, or ends whose difference overflows, would sample t at
# inf * 0 = NaN; the grid is rejected before the function sees it.
@pytest.mark.parametrize("t0, t1", [(0.0, math.inf), (-math.inf, 0.0), (-1e308, 1e308)])
def test_from_function_rejects_non_finite_grids_before_sampling(t0, t1):
    calls = []
    with pytest.raises(ValueError, match="finite"):
        SampledPath.from_function(calls.append, t0, t1, 9)
    assert calls == []


def test_path_values_are_read_only():
    p = SampledPath(0.0, 0.1, np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        p.values[0] = 5.0


@pytest.mark.parametrize(
    "mu, m", [(0.3, 1), (1.0, 1), (1.5, 2), (2.0, 2), (2.5, 3)]
)
def test_frac_order_ceiling(mu, m):
    order = FracOrder(mu)
    assert order.m == m
    assert order.is_integer == (mu == m)


def test_frac_order_requires_positive():
    with pytest.raises(ValueError):
        FracOrder(0.0)
    with pytest.raises(ValueError):
        FracOrder(-0.5)
    with pytest.raises(ValueError, match="^order mu must be finite"):
        FracOrder(math.inf)


# === weights ================================================================


@pytest.mark.parametrize("mu", [0.25, 0.5, 0.9, 1.5, 2.0])
def test_weights_match_alternating_binomial(mu):
    w = gl_weights(FracOrder(mu), 12)
    ref = np.array([(-1.0) ** k * binom(mu, k) for k in range(12)])
    assert w[0] == 1.0
    assert np.max(np.abs(w - ref)) <= 1e-13


def test_weight_sequences_compose():
    # prefix of w^(a) * w^(b) equals w^(a+b): the discrete semigroup kernel
    for a, b in [(0.3, 0.4), (0.5, 0.5), (0.25, 1.0)]:
        n = 64
        wa = gl_weights(FracOrder(a), n)
        wb = gl_weights(FracOrder(b), n)
        wab = gl_weights(FracOrder(a + b), n)
        assert np.max(np.abs(np.convolve(wa, wb)[:n] - wab)) <= 1e-12


def test_weights_of_order_one_are_first_difference():
    w = gl_weights(FracOrder(1.0), 6)
    assert np.allclose(w, [1.0, -1.0, 0.0, 0.0, 0.0, 0.0])


# === derivative basics ======================================================


@pytest.mark.parametrize("mu", [0.3, 0.5, 0.8, 1.5, 2.5])
@pytest.mark.parametrize("n", [33, 257, 4 * _BLOCK + 1])
def test_constants_annihilate_exactly(mu, n):
    p = SampledPath.from_function(lambda t: 4.25, 0.0, 1.0, n)
    for side in (Side.LEFT, Side.RIGHT):
        d = frac_deriv(p, FracOrder(mu), side)
        assert np.max(np.abs(d.values)) == 0.0


@pytest.mark.parametrize("mu", [5.5, 7.5])
@pytest.mark.parametrize("n", [1025, 4097])
def test_constants_above_order_five_annihilate_exactly(mu, n):
    # The one-sided stencils of degrees 5 and up do not sum to exactly zero;
    # the fit to the samples minus the base sample still gives zeros.
    p = SampledPath.from_function(lambda t: 2.0, 0.0, 1.0, n)
    for side in (Side.LEFT, Side.RIGHT):
        assert np.all(frac_deriv(p, FracOrder(mu), side).values == 0.0)


def test_linearity():
    rng = np.random.default_rng(88)
    h = 2**-8
    f = grid_path(lambda t: np.sin(3 * t) + t**2, h)
    g = grid_path(lambda t: np.exp(-t) * t, h)
    a, b = rng.uniform(-2, 2, 2)
    combo = f.with_values(a * f.values + b * g.values)
    order = FracOrder(0.6)
    lhs = frac_deriv(combo, order).values
    rhs = a * frac_deriv(f, order).values + b * frac_deriv(g, order).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([33, 257, 1025, 4 * _BLOCK + 1]),
    mu=st.floats(0.05, 2.5),
    # Subnormal factors round with less than full relative precision.
    a=st.floats(-3.0, 3.0, allow_subnormal=False),
    b=st.floats(-3.0, 3.0, allow_subnormal=False),
    side=st.sampled_from([Side.LEFT, Side.RIGHT]),
)
def test_linearity_property(seed, n, mu, a, b, side):
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, n)
    f = SampledPath(0.0, t[1], np.sin(rng.uniform(1, 6) * t) + rng.uniform(-1, 1) * t**3)
    g = SampledPath(0.0, t[1], np.exp(-rng.uniform(0, 3) * t))
    order = FracOrder(mu)
    df, dg = frac_deriv(f, order, side).values, frac_deriv(g, order, side).values
    combo = frac_deriv(f.with_values(a * f.values + b * g.values), order, side).values
    # Roundoff of the samples, summed with the weights and scaled by h**-mu.
    scale = f.h**-mu * np.sum(np.abs(gl_weights(order, n))) * (
        abs(a) * np.max(np.abs(f.values)) + abs(b) * np.max(np.abs(g.values))
    )
    assert np.max(np.abs(combo - (a * df + b * dg))) <= 1e-13 * scale


def test_minimum_sample_count():
    p = SampledPath(0.0, 0.1, np.array([0.0, 1.0, 2.0]))
    with pytest.raises(ValueError):
        frac_deriv(p, FracOrder(2.5))  # needs ceil(mu) + 2 = 5 samples


# === power rule =============================================================


POWER_CASES = [
    (alpha, g)
    for alpha in (0.25, 0.5, 0.75)
    for g in (1.0, 2.0, 3.0, 2 * alpha)
]


@pytest.mark.parametrize("alpha, g", POWER_CASES)
def test_power_rule_with_first_order_refinement(alpha, g):
    errs = []
    for h in (2**-10, 2**-11):
        p = grid_path(lambda t: t**g, h)
        d = frac_deriv(p, FracOrder(alpha))
        t = interior(p.times(), h)
        exact = gamma(1 + g) / gamma(1 + g - alpha) * t ** (g - alpha)
        errs.append(np.max(np.abs(interior(d.values, h) - exact) / np.abs(exact)))
    assert errs[0] <= 2e-2
    assert 0.4 <= errs[1] / errs[0] <= 0.7


def test_power_rule_own_order_is_superconvergent():
    # D^alpha t^alpha is the constant Gamma(1+alpha); the scheme nails it to
    # quadrature accuracy, far below the first-order band above, which is
    # why this pair sits outside the band-checked cases.
    alpha = 0.6
    p = grid_path(lambda t: t**alpha, 2**-10)
    d = frac_deriv(p, FracOrder(alpha))
    err = np.max(np.abs(interior(d.values, 2**-10) - gamma(1 + alpha)))
    assert err <= 1e-3


def test_higher_order_power_rule():
    # order above one exercises the one-sided Taylor fit of the base slope
    h = 2**-11
    p = grid_path(lambda t: t**3, h)
    d = frac_deriv(p, FracOrder(1.5))
    t = interior(p.times(), h)
    exact = gamma(4) / gamma(2.5) * t**1.5
    rel = np.max(np.abs(interior(d.values, h) - exact) / np.abs(exact))
    assert rel <= 2e-2


def test_classical_limit_on_sin():
    h = 2**-11
    p = grid_path(np.sin, h)
    lo, hi = int(round(0.1 / h)), int(round(0.9 / h))
    t = p.times()[lo : hi + 1]
    errs = []
    for alpha in (0.9, 0.99, 0.999):
        d = frac_deriv(p, FracOrder(alpha))
        errs.append(float(np.max(np.abs(d.values[lo : hi + 1] - np.cos(t)))))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 5e-3


def test_right_side_mirrors_left():
    # the right operator is (-1)**m times the mirrored left one: the sign
    # is what makes the summation-by-parts residual cancel, so for m = 1
    # the mirror shows up negated; 4097 nodes take the blocked kernel
    order = FracOrder(0.5)
    for h in (2**-9, 2**-12):
        p = grid_path(lambda t: (1.0 - t) ** 2, h)
        q = grid_path(lambda t: t**2, h)
        right = frac_deriv(p, order, Side.RIGHT).values
        left = frac_deriv(q, order, Side.LEFT).values
        assert np.max(np.abs(right + left[::-1])) <= 1e-12


def test_right_side_sign_at_integer_orders():
    # with the parts-friendly sign the order-one right derivative is the
    # plain ordinary derivative; 4097 nodes take the blocked kernel
    for h in (2**-10, 2**-12):
        p = grid_path(lambda t: t**2, h)
        d = frac_deriv(p, FracOrder(1.0), Side.RIGHT)
        t = p.times()
        err = np.max(np.abs(d.values[8:-8] - 2.0 * t[8:-8]))
        assert err <= 5e-3


# === semigroup ==============================================================


SEMIGROUP_CASES = [
    (0.3, 0.4, 1.0),
    (0.3, 0.4, 2.0),
    (0.3, 0.4, 3.0),
    # composing up to an integer total order tolerates only flat-enough
    # paths: t**1 has a startup profile the copied base node cannot carry
    (0.25, 0.75, 2.0),
    (0.25, 0.75, 3.0),
]


@pytest.mark.parametrize("mu_outer, mu_inner, g", SEMIGROUP_CASES)
def test_semigroup_on_monomials(mu_outer, mu_inner, g):
    h = 2**-11
    p = grid_path(lambda t: t**g, h)
    comp = frac_deriv(frac_deriv(p, FracOrder(mu_inner)), FracOrder(mu_outer))
    direct = frac_deriv(p, FracOrder(mu_outer + mu_inner))
    lo = int(round(0.05 / h))
    assert np.max(np.abs(comp.values[lo:] - direct.values[lo:])) <= 5e-2


# === caller-supplied base ===================================================


def test_from_base_matches_taylor_regularization_below_one():
    # for mu < 1 the fitted polynomial is just the base constant
    h = 2**-9
    c = 1.7
    p = grid_path(lambda t: c + t**1.5, h)
    a = frac_deriv(p, FracOrder(0.5)).values
    b = frac_deriv_from_base(p, FracOrder(0.5), c).values
    assert np.max(np.abs(a[1:] - b[1:])) <= 1e-10


def test_from_base_ignores_the_stored_base_sample():
    h = 2**-9
    p = grid_path(lambda t: t**0.5, h)
    vals = p.values.copy()
    vals[0] = 37.0  # garbage: the caller's base value must win
    poisoned = p.with_values(vals)
    a = frac_deriv_from_base(p, FracOrder(0.5), 0.0).values
    b = frac_deriv_from_base(poisoned, FracOrder(0.5), 0.0).values
    assert np.array_equal(a[1:], b[1:])


def test_from_base_composes_exactly_with_raw_history():
    # from_base(D^a x, a) after frac_deriv reproduces D^(2a) x to rounding:
    # the weight sequences compose and the base substitution removes the
    # copied node
    h = 2**-9
    p = grid_path(lambda t: t**2, h)
    alpha = 0.5
    inner = frac_deriv(p, FracOrder(alpha))
    comp = frac_deriv_from_base(inner, FracOrder(alpha), 0.0)
    direct = frac_deriv(p, FracOrder(2 * alpha))
    assert np.max(np.abs(comp.values[2:] - direct.values[2:])) <= 1e-9


# === product series =========================================================


@pytest.fixture
def linear_pair():
    return sampled_pair([lambda t: t, lambda t: t], 0.1, 1.0, 1025)


def test_leibniz_series_converges_to_product_derivative(linear_pair):
    f1, f2 = linear_pair
    idx = int(round(0.8 / f1.h))
    order = FracOrder(0.5)
    product = f1.with_values(f1.values * f2.values)
    # reference: raw history sum of the product itself (same unregularized
    # operator family the series expands)
    w = gl_weights(order, f1.n_pts)
    full = float(np.convolve(product.values, w)[idx] * f1.h**-0.5)
    err1 = abs(leibniz_series(f1, f2, order, idx, 1) - full) / abs(full)
    err2 = abs(leibniz_series(f1, f2, order, idx, 2) - full) / abs(full)
    assert err1 > 1e-1
    assert err2 <= 1e-3


def test_leibniz_series_validation(linear_pair):
    f1, f2 = linear_pair
    with pytest.raises(ValueError):
        leibniz_series(f1, f2, FracOrder(1.5), 100, 2)
    with pytest.raises(ValueError):
        leibniz_series(f1, f2, FracOrder(0.5), 0, 1)
    with pytest.raises(ValueError):
        leibniz_series(f1, f2, FracOrder(0.5), 3, 7)
    short = SampledPath(0.0, f1.h, f1.values[:50])
    with pytest.raises(ValueError):
        leibniz_series(f1, short, FracOrder(0.5), 10, 2)


# === summation by parts =====================================================


def smooth_bump(center, width):
    def fn(t):
        u = (t - center) / width
        out = np.zeros_like(t)
        mask = np.abs(u) < 1.0
        out[mask] = np.exp(-1.0 / (1.0 - u[mask] ** 2))
        return out

    return fn


@pytest.mark.parametrize("h", [2**-10, 2**-11, 2**-12])
def test_parts_identity_on_disjoint_bumps(h):
    n = int(round(1.0 / h)) + 1
    f1, f2 = sampled_pair(
        [smooth_bump(0.7, 0.12), smooth_bump(0.3, 0.12)], 0.0, 1.0, n
    )
    order = FracOrder(0.5)
    res = ibp_residual(f1, f2, order)
    assert abs(res) <= 1e-15
    # the cancellation is between two genuinely nonzero integrals
    d2 = frac_deriv(f2, order).values
    single = np.trapezoid(f1.values * d2, dx=h)
    assert abs(single) > 1e-3


def test_parts_identity_warns_on_boundary_support():
    f1, f2 = sampled_pair([np.sin, np.cos], 0.0, 1.0, 257)
    with pytest.warns(RuntimeWarning):
        ibp_residual(f1, f2, FracOrder(0.5))


def test_parts_identity_rejects_high_orders():
    f1, f2 = sampled_pair(
        [smooth_bump(0.7, 0.12), smooth_bump(0.3, 0.12)], 0.0, 1.0, 257
    )
    with pytest.raises(ValueError):
        ibp_residual(f1, f2, FracOrder(1.5))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mu, t1", [(150.0, 1.0), (103.0, 1.0), (400.0, 10000.0)],
                         ids=["fit-divides-by-zero", "overflow", "underflow"])
def test_orders_whose_step_scale_is_not_a_float_are_rejected(mu, t1):
    # h**-mu must be a finite nonzero float before the Taylor fit divides by
    # h**r (r < mu) or any sum is scaled; the error names mu and h.
    p = SampledPath.from_function(np.sin, 0.0, t1, 1025)
    message = f"mu={mu:g}, step h={p.h:g}"
    for side in Side:
        with pytest.raises(ValueError, match=message):
            frac_deriv(p, FracOrder(mu), side)
    with pytest.raises(ValueError, match=message):
        frac_deriv_from_base(p, FracOrder(mu), 0.0)


# Finite h**-mu whose product with a finite history sum overflows used to
# return inf after a numpy warning, and the CLI reported the row much later.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("fn, mu, deriv, node", [
    (lambda t: t, 60.0, frac_deriv, 822),
    (lambda t: t, 60.0, lambda p, o: frac_deriv(p, o, Side.RIGHT), 822),
    (np.sqrt, 100.0, lambda p, o: frac_deriv_from_base(p, o, 0.0), 7),
], ids=["left", "right", "from-base"])
def test_scaled_sums_that_overflow_are_floating_point_errors(fn, mu, deriv, node):
    p = SampledPath.from_function(fn, 0.0, 1.0, 1025)
    message = rf"mu={mu:g}, step h=0\.000976562, at node {node} from the base$"
    with pytest.raises(FloatingPointError, match=message):
        deriv(p, FracOrder(mu))


# === history kernel =========================================================

# Lengths on both sides of `_history`'s direct/blocked switch (4 * _BLOCK
# nodes) and of block boundaries; 4 * _BLOCK + 1 and 6 * _BLOCK + 1 end in
# a one-node block.
KERNEL_LENGTHS = st.sampled_from(
    [2 * _BLOCK, 2 * _BLOCK + 1, 3 * _BLOCK - 1, 3 * _BLOCK + 1, 4 * _BLOCK, 4 * _BLOCK + 1,
     5 * _BLOCK - 1, 5 * _BLOCK + 1, 6 * _BLOCK + 1]
)
KERNEL_ORDERS = st.floats(-1.5, 2.5)


def kernel_input(seed, n, scale):
    rng = np.random.default_rng(seed)
    return scale * rng.standard_normal(n)


def assert_near_direct(out, g, w):
    n = g.size
    direct = np.convolve(g, w)[:n]
    bound = 1e-13 * np.convolve(np.abs(g), np.abs(w))[:n]
    assert np.all(np.abs(out - direct) <= bound)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=KERNEL_LENGTHS, mu=KERNEL_ORDERS,
       scale=st.floats(1e-3, 1e3))
def test_history_matches_direct_convolution(seed, n, mu, scale):
    g, w = kernel_input(seed, n, scale), _weights(mu, n)
    assert_near_direct(_history(g, w), g, w)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=KERNEL_LENGTHS, mu=KERNEL_ORDERS,
       bump=st.floats(0.0, 1.0), size=st.floats(1e-6, 1e3))
def test_history_is_exactly_causal(seed, n, mu, bump, size):
    g, w = kernel_input(seed, n, 1.0), _weights(mu, n)
    p = int(bump * (n - 1))
    bumped = g.copy()
    bumped[p] += size
    before, after = _history(g, w), _history(bumped, w)
    assert np.array_equal(before[:p], after[:p])
    assert after[p] != before[p]


@pytest.mark.parametrize("n", [2 * _BLOCK, 3 * _BLOCK + 1, 4 * _BLOCK + 1, 6 * _BLOCK + 1])
@pytest.mark.parametrize("mu", [-0.7, 0.5, 1.5])
def test_history_of_zero_is_exactly_zero(n, mu):
    out = _history(np.zeros(n), _weights(mu, n))
    assert np.all(out == 0.0)


# The solvers' weight rows: each solver sums one sample row, `solve_fode2`
# v with the weights of orders -alpha and alpha, `solve_multiterm` x with a
# weight row per term.
FAR_SHAPES = {"fode2-0.6": (-0.6, 0.6), "fode2-1": (-1.0, 1.0), "multiterm": (1.8, 2.0, 0.6)}


@pytest.mark.parametrize("n", [2 * _BLOCK, 2 * _BLOCK + 1, 4 * _BLOCK + 2, 9 * _BLOCK + 7])
@pytest.mark.parametrize("mus", list(FAR_SHAPES.values()), ids=list(FAR_SHAPES))
def test_far_blocks_rows_equal_single_rows(n, mus):
    g = kernel_input(n, n, 1.0)
    w = np.array([_weights(mu, n) for mu in mus])
    singles = [_far_blocks(g, row, _BLOCK) for row in w]
    for lo, hi, far in _far_blocks(g, w, _BLOCK):
        assert far.shape == (len(mus), hi - lo)
        for row, single in zip(far, singles):
            s_lo, s_hi, s_far = next(single)
            assert (s_lo, s_hi) == (lo, hi)
            assert np.array_equal(row, s_far[0])
    assert all(next(single, None) is None for single in singles)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=KERNEL_LENGTHS, a=st.floats(-1.0, 1.5),
       b=st.floats(-1.0, 1.5))
def test_history_weights_compose(seed, n, a, b):
    # (1 - z)**a (1 - z)**b = (1 - z)**(a + b): two sums in a row are one.
    g = kernel_input(seed, n, 1.0)
    wa, wb = _weights(a, n), _weights(b, n)
    twice = _history(_history(g, wa), wb)
    once = _history(g, _weights(a + b, n))
    bound = 1e-13 * np.convolve(np.convolve(np.abs(g), np.abs(wa))[:n], np.abs(wb))[:n]
    assert np.all(np.abs(twice - once) <= bound)


@pytest.mark.parametrize("n", [4 * _BLOCK + 1, 5 * _BLOCK + 1, 8 * _BLOCK + 1])
def test_integer_rows_among_blocked_rows_sum_directly(n):
    # Weights that end within a block add no FFT roundoff to the later nodes
    # of a blocked call: the integer-order row stays at the direct sum's
    # rounding level.
    g = kernel_input(n, n, 1.0)
    w = _weights(2.0, n)
    out = _history(g, w)
    direct = np.convolve(g, w)[:n]
    assert np.all(np.abs(out - direct) <= 1e-15 * np.convolve(np.abs(g), np.abs(w))[:n])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("mus", [(0.7,), (2.0,), (0.7, 2.0)], ids=["fractional", "integer", "both"])
def test_history_is_exactly_causal_with_non_finite_samples(bad, mus):
    # A zero weight times a later NaN or inf is NaN: no in-block sum may
    # multiply the nodes after the one it sums for.
    n = 8 * _BLOCK + 1
    p = 5 * _BLOCK + _BLOCK // 2
    g = kernel_input(n, n, 1.0)
    spoiled = g.copy()
    spoiled[p] = bad
    for mu in mus:
        w = _weights(mu, n)
        before = _history(g, w)
        with np.errstate(invalid="ignore"):  # inf - inf in the later blocks' spectra
            after = _history(spoiled, w)
        assert np.array_equal(before[:p], after[:p])
        assert not np.isfinite(after[p])


# Lengths of 33 and 65 blocks: far sums over many block lags.
MANY_BLOCKS = [32 * _BLOCK + 1, 64 * _BLOCK + 1]


@pytest.mark.parametrize("n", MANY_BLOCKS)
@pytest.mark.parametrize("mu", [-1.5, -0.7, 0.05, 0.7, 1.5, 1.95, 2.5])
def test_history_over_many_blocks(n, mu):
    g, w = kernel_input(n, n, 1.0), _weights(mu, n)
    out = _history(g, w)
    # The direct sums at the first and last node of every block and at a
    # few nodes between (np.convolve of all nodes would take seconds).
    rng = np.random.default_rng(n)
    nodes = np.unique(np.concatenate((np.arange(0, n, _BLOCK), np.arange(_BLOCK - 1, n, _BLOCK),
                                      rng.integers(0, n, 64))))
    direct = np.array([w[: j + 1] @ g[j::-1] for j in nodes])
    size = np.array([np.abs(w[: j + 1]) @ np.abs(g[j::-1]) for j in nodes])
    assert np.all(np.abs(out[nodes] - direct) <= 1e-13 * size)
    for p in (3 * _BLOCK - 1, n // 2, n - _BLOCK + 5):
        bumped = g.copy()
        bumped[p] += 1.0
        after = _history(bumped, w)
        assert np.array_equal(out[:p], after[:p])
        assert after[p] != out[p]


# === derivatives on both kernel paths =======================================


def direct_deriv(values, h, order, base=None):
    """`frac_deriv`'s left derivative (`frac_deriv_from_base`'s with ``base``)
    as one np.convolve, with each node's sum of absolute terms times h**-mu."""
    if base is None:
        g = values - _base_fit(values, h, order.mu, order.m)[0]
    else:
        g = values - base
        g[0] = 0.0
    w = _weights(order.mu, values.size)
    out = np.convolve(g, w)[: values.size] * h ** (-order.mu)
    size = np.convolve(np.abs(g), np.abs(w))[: values.size] * h ** (-order.mu)
    out[0], size[0] = out[1], size[1]
    return out, size


@pytest.mark.parametrize("n", [1025, 4 * _BLOCK, 4 * _BLOCK + 1, 8 * _BLOCK + 1])
@pytest.mark.parametrize("mu", [0.3, 0.7, 1.0, 1.5, 1.95, 2.0])
def test_derivatives_match_the_direct_sum(n, mu):
    # Up to 4 * _BLOCK nodes the sums are direct: the same bits. Longer ones
    # are blocked: fractional orders within FFT roundoff of each node's
    # terms. Integer orders take their far terms directly: order 1 keeps the
    # direct sum's bits, and order 2 does on this smooth input, though on
    # random samples the first m nodes of a block may differ in the last bit.
    rng = np.random.default_rng(n)
    t = np.linspace(0.0, 1.0, n)
    values = np.sin(rng.uniform(1, 6) * t) + rng.uniform(0.5, 1.5) * t**2.5 - t**4
    p, order = SampledPath(0.0, t[1], values), FracOrder(mu)
    base = rng.uniform(-1, 1)
    pairs = [
        (frac_deriv(p, order).values, direct_deriv(p.values, p.h, order)),
        # The right derivative is (-1)**m times the mirrored left one.
        ((-1.0) ** order.m * frac_deriv(p, order, Side.RIGHT).values[::-1],
         direct_deriv(p.values[::-1], p.h, order)),
        (frac_deriv_from_base(p, order, base).values, direct_deriv(p.values, p.h, order, base)),
    ]
    for got, (ref, size) in pairs:
        if n <= 4 * _BLOCK or order.is_integer:
            assert np.array_equal(got, ref)
        else:
            assert np.all(np.abs(got - ref) <= 1e-13 * size)


@pytest.mark.parametrize("n", [4 * _BLOCK, 4 * _BLOCK + 1, 8 * _BLOCK + 1])
def test_long_derivatives_take_the_blocked_path(monkeypatch, n):
    # A derivative that silently went back to one O(n**2) block would still
    # pass every accuracy test; count the blocks whose lag spectra the kernel
    # takes, and the lengths of the direct sums it makes, instead.
    blocks, segments = [], [0]
    real, convolve = fracops._lag_spectra, np.convolve

    def counted(w2, blk, nb):
        blocks.extend(range(nb))
        return real(w2, blk, nb)

    def measured(a, v, *args, **kwargs):
        segments.append(min(len(a), len(v)))
        return convolve(a, v, *args, **kwargs)

    monkeypatch.setattr(fracops, "_lag_spectra", counted)
    monkeypatch.setattr(np, "convolve", measured)
    frac_deriv(SampledPath.from_function(np.sin, 0.0, 1.0, n), FracOrder(0.5))
    assert len(blocks) == (1 if n <= 4 * _BLOCK else -(-n // _BLOCK))
    assert max(segments) == (n if n <= 4 * _BLOCK else 0)


# === rounding of high orders ================================================


def caputo_trig(mu, s, parity):
    """Caputo derivative of order mu of sin (parity 1) or cos (parity 0), by series."""
    powers = [j for j in range(math.ceil(mu), 60) if j % 2 == parity]
    return sum((-1) ** (j // 2) * s ** (j - mu) / math.gamma(j + 1 - mu) for j in powers)


# Relative errors at distance >= 0.1 from the base: 2.2e-3 to 4.5e-3 at
# 1025 nodes; at 4097 nodes, order 3.5, rounding has grown them to 8.4e-3
# (left) and 1.1e-2 (right).
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("side", [Side.LEFT, Side.RIGHT])
@pytest.mark.parametrize("n, mu", [(1025, 3.5), (1025, 4.0), (4097, 3.5)])
def test_high_orders_within_rounding_keep_their_digits(n, mu, side):
    path = SampledPath.from_function(np.sin, 0.0, 1.0, n)
    out = frac_deriv(path, FracOrder(mu), side).values
    t = path.times()
    if side is Side.LEFT:
        s, ref = t, caputo_trig(mu, t, 1)
    else:
        # sin(1 - s) = sin 1 cos s - cos 1 sin s, mirrored with the sign (-1)**m.
        s = 1.0 - t
        ref = (-1.0) ** math.ceil(mu) * (
            math.sin(1.0) * caputo_trig(mu, s, 0) - math.cos(1.0) * caputo_trig(mu, s, 1)
        )
    mask = s >= 0.1
    assert np.max(np.abs(out - ref)[mask]) <= 2e-2 * np.max(np.abs(ref[mask]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("side", [Side.LEFT, Side.RIGHT])
@pytest.mark.parametrize("n, mu", [(1025, 5.5), (1025, 7.5), (1025, 30.0), (4097, 4.5),
                                   (4097, 5.0)])
def test_high_orders_swamped_by_rounding_are_floating_point_errors(n, mu, side):
    path = SampledPath.from_function(np.sin, 0.0, 1.0, n)
    with pytest.raises(FloatingPointError, match=rf"mu={mu:g}, step h={path.h:g}:"):
        frac_deriv(path, FracOrder(mu), side)


# At absurd orders the estimate itself overflows to inf: the error, not a
# numpy overflow warning, reaches the caller.
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_rounding_estimates_are_floating_point_errors():
    path = SampledPath.from_function(lambda t: np.exp(-2.0 * t), 0.0, 7.0, 2049)
    with pytest.raises(FloatingPointError, match=r"mu=60, step h=0\.00341797: estimated inf"):
        frac_deriv(path, FracOrder(60.0), Side.RIGHT)


# On short grids the fitted coefficients' rounding, carried through
# D^mu t**r, decides: without it neither case raises, yet at the grid's
# second half the results err by 3.2e4 and 131 times their size.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("fn, mu", [(np.cos, 9.25), (np.exp, 8.25)], ids=["cos", "exp"])
def test_rounding_of_the_fitted_coefficients_counts(fn, mu):
    path = SampledPath.from_function(fn, 0.0, 1.0, 65)
    with pytest.raises(FloatingPointError, match=rf"mu={mu:g}, step h=0\.015625:"):
        frac_deriv(path, FracOrder(mu))


# D^mu t**3 = 0 above order 3: the results are rounding only, 8.7e-6 and
# 3.7e-4 at the grid's second half, below the estimate but far below the
# input's size.
@pytest.mark.parametrize("mu", [3.5, 4.0])
def test_results_near_zero_are_held_to_the_input_size(mu):
    path = SampledPath.from_function(lambda t: t**3, 0.0, 1.0, 1025)
    out = frac_deriv(path, FracOrder(mu)).values
    assert np.max(np.abs(out[512:])) <= 1e-3


@pytest.mark.parametrize("n", [1025, 4097])
def test_exactly_fitted_polynomials_keep_their_zero_derivative(n):
    # g = 0 at every node, so the sums are exact zeros that no rounding can
    # swamp, although the estimate for these samples exceeds their size.
    path = SampledPath.from_function(lambda t: np.full_like(t, 2.0), 0.0, 1.0, n)
    out = frac_deriv(path, FracOrder(4.75))
    assert np.all(out.values == 0.0)


@pytest.mark.parametrize("call, message", [
    (lambda: SampledPath(0.0, 0.1, np.zeros((3, 3))), "values must be one dimensional"),
    (lambda: SampledPath.from_function(np.sin, 0.0, 1.0, 1), "n_pts must be at least 2"),
    (lambda: SampledPath.from_function(np.sin, 1.0, 0.0, 9), "t1 must exceed t0"),
    (lambda: gl_weights(FracOrder(0.5), 0), "count must be at least 1"),
    (lambda: frac_deriv_from_base(SampledPath(0.0, 0.1, np.ones(2)), FracOrder(0.5), 0.0),
     "need at least three samples"),
    (lambda: leibniz_series(*sampled_pair((np.sin, np.cos), 0.0, 1.0, 9), FracOrder(0.5), 4, 0),
     "terms must be positive"),
    (lambda: leibniz_series(*sampled_pair((np.sin, np.cos), 0.0, 1.0, 9), FracOrder(0.5), 7, 3),
     "cannot support the order-2 finite difference at node 7"),
], ids=["ndim", "one-sample", "reversed-grid", "no-weights", "base-two-samples",
        "no-terms", "difference-past-the-end"])
def test_path_weight_and_series_argument_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()
