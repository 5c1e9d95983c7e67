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
    if k < 0:
        raise ValueError("k must be a non-negative integer")
    out = 1.0
    for i in range(int(k)):
        out *= (alpha - i) / (i + 1.0)
    return out


# Largest |z| the direct series is documented to handle. Beyond this the
# terms can overflow double precision long before the tolerance is met
# (small alpha is the worst case) and the evaluation raises instead.
ML_ARG_BUDGET = 50.0


@dataclass(frozen=True)
class MLParams:
    """Order and truncation policy for the Mittag-Leffler series."""

    alpha: float
    tol: float = 1e-14
    max_terms: int = 10_000

    def __post_init__(self) -> None:
        if not self.alpha > 0.0:
            raise ValueError("alpha must be positive")
        if not 0.0 < self.tol < 1.0:
            raise ValueError("tol must lie in (0, 1)")
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")


def mittag_leffler(params: MLParams, z: float) -> float:
    """One-parameter Mittag-Leffler function E_alpha(z) by direct summation.

    Evaluates sum_{a >= 0} z**a / Gamma(1 + alpha a), truncating once the
    current term drops below ``params.tol`` times the running partial sum.
    The argument must satisfy |z| <= ML_ARG_BUDGET. To reproduce the series
    in powers of t**alpha, pass z = t**alpha.

    Raises ConvergenceError when the term budget runs out or the terms
    overflow before the tolerance is reached.
    """
    z = float(z)
    if abs(z) > ML_ARG_BUDGET:
        raise ValueError(
            f"|z|={abs(z):g} exceeds the series budget {ML_ARG_BUDGET:g}"
        )
    alpha = params.alpha
    term = 1.0
    total = 1.0
    for a in range(1, params.max_terms):
        # term_a = z**a / Gamma(1 + alpha a), built up incrementally through
        # log-gamma ratios so no intermediate gamma value overflows on its own.
        term *= z * math.exp(math.lgamma(1.0 + alpha * (a - 1)) - math.lgamma(1.0 + alpha * a))
        new_total = total + term
        if math.isinf(new_total) or math.isnan(new_total):
            raise ConvergenceError(
                f"Mittag-Leffler series overflowed at term {a} for alpha={alpha:g}, z={z:g}"
            )
        total = new_total
        if abs(term) <= params.tol * abs(total):
            return total
    raise ConvergenceError(
        f"Mittag-Leffler series did not converge within {params.max_terms} terms "
        f"for alpha={alpha:g}, z={z:g}"
    )
