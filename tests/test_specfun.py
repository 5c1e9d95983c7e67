"""Gamma poles, generalized binomial, and the one-parameter Mittag-Leffler series."""

import math

import numpy as np
import pytest
from scipy.special import binom, erfc

from fracvar.specfun import (
    ML_ARG_BUDGET,
    ConvergenceError,
    MLParams,
    gamma,
    gen_binomial,
    mittag_leffler,
)

from oracles import mittag_leffler_reference


# === gamma ==================================================================


@pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -7.0])
def test_gamma_rejects_poles(x):
    with pytest.raises(ValueError):
        gamma(x)


# === generalized binomial ===================================================


@pytest.mark.parametrize("alpha", [0.5, 0.7, 1.5, 2.0, -0.3])
def test_gen_binomial_matches_reference(alpha):
    for k in range(0, 13):
        assert gen_binomial(alpha, k) == pytest.approx(float(binom(alpha, k)), abs=1e-13)


def test_gen_binomial_edge_cases():
    assert gen_binomial(0.7, 0) == 1.0
    assert gen_binomial(3.0, 4) == 0.0
    # range(int(k)) took 2.5 as 2: C(0.5, 2.5) came out as C(0.5, 2) = -0.125.
    for k in (-1, 2.5, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^k must be a non-negative integer$"):
            gen_binomial(0.5, k)


def test_gen_binomial_pascal_identity():
    # C(a, k) = C(a-1, k) + C(a-1, k-1)
    a = 1.3
    for k in range(1, 9):
        lhs = gen_binomial(a, k)
        rhs = gen_binomial(a - 1.0, k) + gen_binomial(a - 1.0, k - 1)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


# === series parameters ======================================================


def test_mlparams_defaults_and_validation():
    p = MLParams(alpha=0.5)
    assert p.tol == 1e-14
    assert p.max_terms == 10_000
    with pytest.raises(ValueError):
        MLParams(alpha=0.0)
    with pytest.raises(ValueError):
        MLParams(alpha=0.5, tol=0.0)
    with pytest.raises(ValueError):
        MLParams(alpha=0.5, tol=1.0)
    with pytest.raises(ValueError):
        MLParams(alpha=0.5, max_terms=0)
    with pytest.raises(ValueError, match="^alpha must be finite"):
        MLParams(alpha=math.inf)


# === series values ==========================================================


def test_order_one_is_the_exponential():
    p = MLParams(alpha=1.0)
    for z in np.linspace(-5.0, 5.0, 41):
        assert mittag_leffler(p, float(z)) == pytest.approx(math.exp(float(z)), rel=1e-10)


def test_order_two_of_square_is_cosh():
    p = MLParams(alpha=2.0)
    for z in np.linspace(0.0, 3.0, 31):
        assert mittag_leffler(p, float(z) ** 2) == pytest.approx(math.cosh(float(z)), rel=1e-10)


def test_order_half_matches_erfc_formula():
    # E_{1/2}(z) = exp(z^2) erfc(-z)
    p = MLParams(alpha=0.5)
    for z in (-2.0, -0.7, 0.0, 0.4, 1.3, 2.5):
        expected = math.exp(z * z) * float(erfc(-z))
        assert mittag_leffler(p, z) == pytest.approx(expected, rel=1e-12)


def test_known_exponential_value():
    assert mittag_leffler(MLParams(alpha=1.0), 2.0) == pytest.approx(
        7.389056098930646, abs=1e-12
    )


def test_argument_budget_rejected():
    with pytest.raises(ValueError):
        mittag_leffler(MLParams(alpha=0.25), ML_ARG_BUDGET + 10.0)


def test_nan_argument_rejected():
    with pytest.raises(ValueError, match="nan"):
        mittag_leffler(MLParams(alpha=1.0), math.nan)
    with pytest.raises(ValueError, match="budget"):
        mittag_leffler(MLParams(alpha=1.0), math.inf)


def test_overflowing_series_raises():
    # within the argument budget but the partial sums overflow the float range
    with pytest.raises(ConvergenceError):
        mittag_leffler(MLParams(alpha=0.25), 49.0)


# Gamma(1 + alpha) overflows from alpha = 2.6e305 on: every term past the
# first has vanished, so the sum is 1.
@pytest.mark.parametrize("alpha", [3e305, 1e308])
@pytest.mark.parametrize("z", [0.0, -50.0, 50.0])
def test_orders_whose_gamma_overflows_sum_to_one(alpha, z):
    assert mittag_leffler(MLParams(alpha=alpha), z) == 1.0


def test_term_cap_raises():
    with pytest.raises(ConvergenceError):
        mittag_leffler(MLParams(alpha=0.1, max_terms=3), 30.0)


# (alpha, z) where the alternating series cancels: the sum it returned
# without error, then the true value (mpmath).
CANCELLING_POINTS = [
    (1.0, -15.0),  # 3.063e-7, 3.059e-7
    (1.0, -20.0),  # 2.7e-7, 2.1e-9
    (1.0, -50.0),  # -1.5e7, 1.9e-22
    (0.5, -10.0),  # -7.6e28, 0.0561
    (0.75, -40.0),  # 9.4e43, 7.1e-3
    # Cancellation alone would leave these digits; the rounding that each
    # term's log-gamma ratios compound does not.
    (1.5, -40.0),  # -9.930965378e-3, -9.930965479e-3
    (1.5, -49.0),  # -4.794912215e-3, -4.794912669e-3
    (1.5, -50.0),  # -4.578384593e-3, -4.578385106e-3
]


@pytest.mark.parametrize("alpha, z", CANCELLING_POINTS)
def test_cancelling_series_raises(alpha, z):
    with pytest.raises(ConvergenceError, match="cancellation"):
        mittag_leffler(MLParams(alpha=alpha), z)


@pytest.mark.parametrize("alpha", [0.75, 1.0, 1.5, 2.0])
def test_negative_axis_is_accurate_or_raises(alpha):
    for z in range(-5, -55, -5):
        try:
            value = mittag_leffler(MLParams(alpha=alpha), z)
        except ConvergenceError:
            continue
        ref = mittag_leffler_reference(alpha, z)
        assert abs(value - ref) <= 1e-8 * abs(ref), (alpha, z, value, ref)


def test_cancellation_check_ignores_the_tolerance_on_the_positive_axis():
    # All terms are positive for z >= 0: no cancellation, whatever the tolerance.
    for tol in (1e-15, 1e-8, 0.5):
        p = MLParams(alpha=0.6, tol=tol)
        assert math.isfinite(mittag_leffler(p, 50.0))
        assert mittag_leffler(p, 0.0) == 1.0


def test_series_is_deterministic():
    p = MLParams(alpha=0.7)
    a = mittag_leffler(p, 3.3)
    b = mittag_leffler(p, 3.3)
    assert a == b
