"""Special functions: gamma, generalized binomial coefficients, Mittag-Leffler.

Everything here is a pure scalar function. The rest of the package leans on
these for the Gamma factors that show up in fractional power rules, jet
scalings, and Lagrangian coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "ConvergenceError",
    "MLParams",
    "ML_ARG_BUDGET",
    "gamma",
    "gen_binomial",
    "mittag_leffler",
]


class ConvergenceError(RuntimeError):
    """A series failed to converge within its term budget or overflowed."""


def gamma(x: float) -> float:
    """Gamma function of real x: the stdlib's ``math.gamma``, with a ValueError at the poles."""
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        raise ValueError(f"gamma pole at non-positive integer x={x:g}")
    return math.gamma(x)


def gen_binomial(alpha: float, k: int) -> float:
    """Generalized binomial coefficient alpha(alpha-1)...(alpha-k+1) / k!.

    Computed by the product recurrence so integer alpha < k comes out as an
    exact zero instead of tripping over gamma poles.
    """
    if not (k >= 0 and k % 1 == 0):  # NaN and infinities fail too
        raise ValueError("k must be a non-negative integer")
    out = 1.0
    for i in range(int(k)):
        out *= (alpha - i) / (i + 1.0)
    return out


# Largest |z| the direct series is documented to handle. Beyond this the
# terms can overflow double precision long before the tolerance is met
# (small alpha is the worst case) and the evaluation raises instead.
ML_ARG_BUDGET = 50.0

# Largest rounding estimate (see `mittag_leffler`) the series may return
# with. On the negative axis the terms grow far beyond the sum and cancel,
# so the sum loses their digits; past this it raises instead.
_ML_ROUNDING_LIMIT = 1e-8


@dataclass(frozen=True)
class MLParams:
    """Order and truncation policy for the Mittag-Leffler series."""

    alpha: float
    tol: float = 1e-14
    max_terms: int = 10_000

    def __post_init__(self) -> None:
        if not self.alpha > 0.0:
            raise ValueError("alpha must be positive")
        if not math.isfinite(self.alpha):
            raise ValueError("alpha must be finite")
        if not 0.0 < self.tol < 1.0:
            raise ValueError("tol must lie in (0, 1)")
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")


def mittag_leffler(params: MLParams, z: float) -> float:
    """One-parameter Mittag-Leffler function E_alpha(z) by direct summation.

    Evaluates sum_{a >= 0} z**a / Gamma(1 + alpha a), truncating once the
    current term drops below ``params.tol`` times the running partial sum.
    The argument must satisfy |z| <= ML_ARG_BUDGET; a NaN raises ValueError
    too. To reproduce the series in powers of t**alpha, pass z = t**alpha.

    Raises ConvergenceError when the term budget runs out or the terms
    overflow before the tolerance is reached, and when the sum's rounding
    estimate exceeds _ML_ROUNDING_LIMIT = 1e-8: on the negative axis the
    alternating terms then cancel to a value with few or no correct digits
    (E_1(-20), E_0.5(-10), E_1.5(-49)). The estimate is 2**-52 * max_a
    |term_a| u_a / |sum|, where term a carries the u_a ulps of rounding its
    factors compound: 1 plus 2 + |lgamma| of both arguments per factor. For
    z >= 0 every term is positive and it stays below 1e-11 on alpha in
    [0.6, 2], z in [0, 50].
    """
    z = float(z)
    if abs(z) > ML_ARG_BUDGET:
        raise ValueError(
            f"|z|={abs(z):g} exceeds the series budget {ML_ARG_BUDGET:g}"
        )
    if math.isnan(z):
        raise ValueError("z must be a number, got nan")
    alpha = params.alpha
    term = 1.0
    total = 1.0
    drift, error = 1.0, 2.0**-52
    for a in range(1, params.max_terms):
        # term_a = z**a / Gamma(1 + alpha a), built up incrementally through
        # log-gamma ratios so no intermediate gamma value overflows on its own.
        try:
            lg0, lg1 = math.lgamma(1.0 + alpha * (a - 1)), math.lgamma(1.0 + alpha * a)
        except OverflowError:
            # Gamma(1 + alpha a) is past float range: this term and every later one vanish.
            return total
        term *= z * math.exp(lg0 - lg1)
        # Each factor's product and exp, and its exponent relative to |lg0| + |lg1|.
        drift += 2.0 + abs(lg0) + abs(lg1)
        new_total = total + term
        if math.isinf(new_total) or math.isnan(new_total):
            raise ConvergenceError(
                f"Mittag-Leffler series overflowed at term {a} for alpha={alpha:g}, z={z:g}"
            )
        total = new_total
        # Scaled before the product, so a term near overflow cannot make it inf.
        error = max(error, 2.0**-52 * drift * abs(term))
        if abs(term) <= params.tol * abs(total):
            if error > _ML_ROUNDING_LIMIT * abs(total):
                raise ConvergenceError(
                    f"Mittag-Leffler series lost its digits to cancellation for "
                    f"alpha={alpha:g}, z={z:g}: term error {error:.3g}, sum {total:.3g}"
                )
            return total
    raise ConvergenceError(
        f"Mittag-Leffler series did not converge within {params.max_terms} terms "
        f"for alpha={alpha:g}, z={z:g}"
    )
