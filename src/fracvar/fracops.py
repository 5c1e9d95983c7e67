"""Fractional derivatives of uniformly sampled functions.

The discretization is Grunwald-Letnikov: the order-mu derivative of a sample
sequence is a weighted history sum with binomial weights, applied to the
function after subtracting its Taylor polynomial of degree ceil(mu) - 1 at
the base node. The subtraction makes the operator annihilate constants
exactly (and low-degree polynomials for orders above one) and makes it the
regularized counterpart of the corresponding integral-kernel derivative.

Conventions that matter downstream:

* The value at the base node of a derivative is copied from its neighbor.
  The true limit there is often singular or zero in a way a discrete scheme
  cannot represent; quadratures and error norms exclude that node.
* The right-sided derivative is the mirror image of the left one with a
  sign of (-1)**ceil(mu). With this pairing the discrete summation by parts
  identity holds exactly, which is what `ibp_residual` verifies.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .specfun import gen_binomial

__all__ = [
    "SampledPath",
    "FracOrder",
    "Side",
    "gl_weights",
    "frac_deriv",
    "frac_deriv_from_base",
    "leibniz_series",
    "ibp_residual",
    "DEFAULT_T0",
    "DEFAULT_T1",
    "DEFAULT_NPTS",
]

# Default working grid for helpers and the command line front end.
DEFAULT_T0 = 0.0
DEFAULT_T1 = 1.0
DEFAULT_NPTS = 1025


@dataclass(frozen=True, eq=False)
class SampledPath:
    """A real function sampled on a uniform grid t_j = t0 + j h."""

    t0: float
    h: float
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1:
            raise ValueError("values must be one dimensional")
        if vals.size < 2:
            raise ValueError("a path needs at least two samples")
        if not self.h > 0.0:
            raise ValueError("step h must be positive")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n_pts(self) -> int:
        return int(self.values.size)

    @property
    def t1(self) -> float:
        return self.t0 + (self.n_pts - 1) * self.h

    def times(self) -> np.ndarray:
        return self.t0 + self.h * np.arange(self.n_pts)

    def with_values(self, values: np.ndarray) -> "SampledPath":
        """Same grid, new samples."""
        return SampledPath(self.t0, self.h, values)

    @classmethod
    def from_function(
        cls,
        fn: Callable[[np.ndarray], np.ndarray],
        t0: float = DEFAULT_T0,
        t1: float = DEFAULT_T1,
        n_pts: int = DEFAULT_NPTS,
    ) -> "SampledPath":
        if n_pts < 2:
            raise ValueError("n_pts must be at least 2")
        if not t1 > t0:
            raise ValueError("t1 must exceed t0")
        h = (t1 - t0) / (n_pts - 1)
        t = t0 + h * np.arange(n_pts)
        vals = np.asarray(fn(t), dtype=np.float64)
        if vals.shape != t.shape:
            vals = np.broadcast_to(vals, t.shape).copy()
        return cls(t0, h, vals)

    def same_grid(self, other: "SampledPath", tol: float = 1e-12) -> bool:
        return (
            self.n_pts == other.n_pts
            and abs(self.t0 - other.t0) <= tol
            and abs(self.h - other.h) <= tol * max(1.0, self.h)
        )


@dataclass(frozen=True)
class FracOrder:
    """A positive derivative order mu with its integer ceiling m."""

    mu: float
    m: int = field(init=False)

    def __post_init__(self) -> None:
        if not self.mu > 0.0:
            raise ValueError("order mu must be positive")
        object.__setattr__(self, "m", int(math.ceil(self.mu)))

    @property
    def is_integer(self) -> bool:
        return abs(self.mu - round(self.mu)) < 1e-12


class Side(str, Enum):
    LEFT = "left"
    RIGHT = "right"


def _weights(mu: float, count: int) -> np.ndarray:
    """Binomial weights (-1)**k C(mu, k) by the multiplicative recurrence.

    Valid for any real mu, including negative orders (fractional integrals).
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if count == 1:
        return np.ones(1)
    k = np.arange(1, count, dtype=np.float64)
    return np.cumprod(np.concatenate(([1.0], 1.0 - (mu + 1.0) / k)))


def gl_weights(order: FracOrder, count: int) -> np.ndarray:
    """History weights w_0 .. w_{count-1} for the order given.

    w_0 = 1 and w_k = w_{k-1} (1 - (mu+1)/k), which equals
    (-1)**k gen_binomial(mu, k).
    """
    return _weights(order.mu, count)


def _convolve_history(g: np.ndarray, mu: float, h: float) -> np.ndarray:
    w = _weights(mu, g.size)
    return np.convolve(g, w)[: g.size] * h ** (-mu)


def _onesided_estimate(values: np.ndarray, h: float, r: int) -> float:
    """r-th derivative at the first node from the leading r+2 samples.

    Solves the small Vandermonde system for a one-sided stencil that is
    exact on polynomials up to degree r+1.
    """
    p = r + 2
    a = np.vander(np.arange(p, dtype=np.float64), increasing=True).T[:p, :p]
    rhs = np.zeros(p)
    rhs[r] = math.factorial(r)
    coef = np.linalg.solve(a, rhs)
    return float(coef @ values[:p]) / h**r


def _taylor_base_poly(values: np.ndarray, h: float, degree: int) -> np.ndarray:
    """Samples of the degree-``degree`` Taylor polynomial at the base node."""
    n = values.size
    t = h * np.arange(n)
    poly = np.full(n, values[0])
    for r in range(1, degree + 1):
        poly += _onesided_estimate(values, h, r) / math.factorial(r) * t**r
    return poly


def _left_deriv_values(values: np.ndarray, h: float, order: FracOrder) -> np.ndarray:
    g = values - _taylor_base_poly(values, h, order.m - 1)
    out = _convolve_history(g, order.mu, h)
    out[0] = out[1]
    return out


def frac_deriv(path: SampledPath, order: FracOrder, side: Side = Side.LEFT) -> SampledPath:
    """Fractional derivative of a sampled path, on the same grid.

    The left derivative at node j is h**(-mu) sum_{k<=j} w_k g(t_{j-k})
    with g the path minus its degree-(m-1) base Taylor polynomial (constant
    for orders below one; higher coefficients come from one-sided finite
    difference estimates). The right derivative mirrors the grid and scales
    by (-1)**m. The base node (terminal node for the right side) carries the
    value copied from its neighbor, standing in for the interior limit.
    """
    if path.n_pts < order.m + 2:
        raise ValueError(
            f"need at least {order.m + 2} samples for order mu={order.mu:g}"
        )
    if side is Side.LEFT:
        out = _left_deriv_values(path.values.copy(), path.h, order)
    else:
        rev = _left_deriv_values(path.values[::-1].copy(), path.h, order)
        out = (-1.0) ** order.m * rev[::-1]
    return path.with_values(out)


def frac_deriv_from_base(path: SampledPath, order: FracOrder, base_value: float) -> SampledPath:
    """Left derivative regularized by a caller-supplied base value only.

    Subtracts the constant ``base_value`` instead of a fitted Taylor
    polynomial, for any order. This is the right operator when the sample
    sequence has a fractional power-law profile near the base: fitting
    integer-degree terms to such data is ill posed (the slope estimate
    diverges as the step shrinks), while the correct base constant keeps the
    discrete composition of two derivatives exact. Variational residuals use
    it to differentiate momenta along lifted trajectories because those are
    built from fractional derivatives and carry exactly that profile.

    The input's base-node sample is replaced by ``base_value`` before
    convolving: sample sequences built by `frac_deriv` carry a
    copied-neighbor value there, and letting that copy enter the history
    sums would smear an O(1) error through the first interior nodes. The
    base node of the output is copied from its neighbor, as in `frac_deriv`.
    """
    if path.n_pts < 3:
        raise ValueError("need at least three samples")
    g = path.values - float(base_value)
    g[0] = 0.0
    out = _convolve_history(g, order.mu, path.h)
    out[0] = out[1]
    return path.with_values(out)


def _check_shared_grid(f1: SampledPath, f2: SampledPath) -> None:
    if not f1.same_grid(f2):
        raise ValueError("paths must share the same grid")


def leibniz_series(
    f1: SampledPath,
    f2: SampledPath,
    order: FracOrder,
    at_index: int,
    terms: int,
) -> float:
    """Truncated product-rule series for the derivative of f1 * f2.

    Returns sum_{k=0}^{terms-1} C(alpha, k) (D**(alpha-k) f1)(t) f2^(k)(t)
    at node ``at_index``. The order alpha - k is negative for k >= 1; those
    factors are fractional integrals, computed with the same weight
    recurrence at negative order. No base subtraction is applied anywhere
    here: the series identity belongs to the raw integral-kernel operator,
    and regularizing the k = 0 term would break it whenever f1 does not
    vanish at the grid start. Ordinary derivatives of f2 come from iterated
    central differences.
    """
    _check_shared_grid(f1, f2)
    if not order.mu < 1.0:
        raise ValueError("the series is defined for orders below one")
    n = f1.n_pts
    if not 1 <= at_index <= n - 2:
        raise ValueError("at_index must be an interior node")
    if terms < 1:
        raise ValueError("terms must be positive")
    if terms > at_index:
        raise ValueError("terms may not exceed at_index")
    if at_index + (terms - 1) > n - 1:
        raise ValueError(
            f"the grid cannot support the order-{terms - 1} finite difference at node {at_index}"
        )
    alpha = order.mu
    h = f1.h
    total = 0.0
    d2 = f2.values.copy()
    for k in range(terms):
        frac_part = _convolve_history(f1.values, alpha - k, h)[at_index]
        total += gen_binomial(alpha, k) * frac_part * d2[at_index]
        d2 = np.gradient(d2, h)
    return float(total)


def ibp_residual(f1: SampledPath, f2: SampledPath, order: FracOrder) -> float:
    """Summation-by-parts defect for a left/right derivative pair.

    Returns the trapezoid value of f1 (left D**alpha f2) plus that of
    f2 (right D**alpha f1). For smooth paths vanishing at both endpoints
    this cancels to roundoff; a nonzero value signals either boundary
    support or a broken operator pair. Endpoint samples above 1e-8 in
    magnitude trigger a warning since the identity assumes compact support.
    """
    _check_shared_grid(f1, f2)
    if not order.mu < 1.0:
        raise ValueError("the identity is checked for orders below one")
    for p in (f1, f2):
        if max(abs(p.values[0]), abs(p.values[-1])) > 1e-8:
            warnings.warn(
                "paths should vanish at both endpoints for the parts identity",
                RuntimeWarning,
                stacklevel=2,
            )
    left_d2 = frac_deriv(f2, order, Side.LEFT).values
    right_d1 = frac_deriv(f1, order, Side.RIGHT).values
    h = f1.h
    i1 = np.trapezoid(f1.values * left_d2, dx=h)
    i2 = np.trapezoid(f2.values * right_d1, dx=h)
    return float(i1 + i2)

