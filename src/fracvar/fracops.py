"""Fractional derivatives of uniformly sampled functions.

The discretization is Grunwald-Letnikov: the order-mu derivative of a sample
sequence is a weighted history sum with binomial weights, applied to the
function after subtracting its Taylor polynomial of degree ceil(mu) - 1 at
the base node. The subtraction makes the operator annihilate constants
exactly at every order (and low-degree polynomials for orders above one) and
makes it the regularized counterpart of the corresponding integral-kernel
derivative.

Conventions that matter downstream:

* The value at the base node of a derivative is copied from its neighbor.
  The true limit there is often singular or zero in a way a discrete scheme
  cannot represent; quadratures and error norms exclude that node.
* The right-sided derivative is the mirror image of the left one with a
  sign of (-1)**ceil(mu). With this pairing the discrete summation by parts
  identity holds exactly, which is what `ibp_residual` verifies.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


def _require_finite(**values) -> None:
    """Raise ValueError naming the first of ``values`` that is not finite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")


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
        if not (math.isfinite(self.t0) and math.isfinite(self.h)):
            raise ValueError("start t0 and step h must be finite")
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
        if not (math.isfinite(t0) and math.isfinite(h)):
            raise ValueError("grid ends t0, t1 and their step must be finite")
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
    """A positive, finite derivative order mu with its integer ceiling m."""

    mu: float
    m: int = field(init=False)

    def __post_init__(self) -> None:
        if not self.mu > 0.0:
            raise ValueError("order mu must be positive")
        if not math.isfinite(self.mu):
            raise ValueError("order mu must be finite")
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
    Each factor is formed as (k - 1 - mu) / k, which rounds once relative
    to its value; 1 - (mu + 1) / k would cancel where k is near mu + 1
    (w_1 for orders near zero, the last nonzero weight of integer orders).
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    k = np.arange(1, count, dtype=np.float64)
    return np.cumprod(np.concatenate(([1.0], (k - 1.0 - mu) / k)))


def gl_weights(order: FracOrder, count: int) -> np.ndarray:
    """History weights w_0 .. w_{count-1} for the order given.

    w_0 = 1 and w_k = w_{k-1} (k - 1 - mu) / k, which equals
    (-1)**k gen_binomial(mu, k).
    """
    return _weights(order.mu, count)


# Block length of the blocked history sums (see `_history`). Against 256
# and 1024, 512 gave the fastest derivatives from 2049 to 65537 nodes.
_BLOCK = 512


def _support(w: np.ndarray) -> np.ndarray:
    """One past the last nonzero entry of each row of ``w`` (0 for none)."""
    w2 = np.atleast_2d(w)
    return np.where(np.any(w2, axis=1), w2.shape[-1] - np.argmax(w2[:, ::-1] != 0, axis=1), 0)


def _lag_spectra(w2: np.ndarray, blk: int, nb: int) -> np.ndarray:
    """Spectra of the weight rows ``w2`` at the block lags of ``nb`` blocks of ``blk`` nodes.

    [:, nb - 1 - d] pairs blocks d apart: w[(d-1)blk : (d+1)blk], real FFT,
    largest block lag first, so that the lags from block b back to block 0
    are the contiguous slice [:, nb - 1 - b :]. Lag 0 never reaches a later
    block (its products land in the discarded half of the FFT output).
    Leaving it out keeps its roundoff out of the far sums, which matters
    when w[0] dominates the weights (orders near zero).
    """
    # A spare zero block leaves one block (nb = 1) a window, of which it takes none.
    wpad = np.zeros((len(w2), (nb + 1) * blk))
    wpad[:, 1 : w2.shape[-1]] = w2[:, 1:]
    segments = sliding_window_view(wpad, 2 * blk, axis=-1)[:, : (nb - 1) * blk : blk]
    return np.fft.rfft(segments[:, ::-1], axis=-1)


def _far_blocks(g: np.ndarray, w: np.ndarray, blk: int):
    """The blocks of the history sums of ``g`` and ``w``, one at a time, with their far parts.

    ``g`` is one sample row, of shape (n,), and ``w`` one or more weight
    rows of n entries. The blocks hold ``blk`` nodes each, the last one
    what is left. Yields (lo, hi, far) for consecutive blocks [lo, hi),
    where far[r, i] is weight row r's sum, at node lo + i, over the lags
    that reach nodes before lo. The caller fills g[lo:hi] before it asks
    for the next block (the generator keeps a view of ``g``), whose
    spectrum it then takes. Earlier blocks enter through their spectra
    times the weights' at their block lags (`_lag_spectra`; Hairer, Lubich
    and Schlichte 1985). Short rows, whose lags 1 .. p end within a block
    (integer orders), reach only a few nodes back, so their far sums are
    direct, without a whole block's FFT roundoff, and cost O(n * blk).
    """
    w2, n = np.atleast_2d(w), g.size
    nb = -(-n // blk)
    support = _support(w2)
    fft = np.flatnonzero(support > blk)
    short = [(r, p - 1) for r, p in enumerate(support) if 1 < p <= blk]
    spec_w = _lag_spectra(w2[fft], blk, nb)
    spec_g = np.empty((nb - 1, blk + 1), dtype=complex)
    for b in range(nb):
        lo, hi = b * blk, min(n, (b + 1) * blk)
        far = np.zeros((len(w2), hi - lo))
        if b:
            spec = np.sum(spec_g[:b] * spec_w[:, nb - 1 - b :], axis=1)
            far[fft] = np.fft.irfft(spec, 2 * blk)[:, blk : blk + hi - lo]
            for r, p in short:
                m = min(p, hi - lo)
                far[r, :m] = np.convolve(g[lo - p : lo], w2[r, 1 : p + 1])[p - 1 : p - 1 + m]
        yield lo, hi, far
        if b < nb - 1 and fft.size:  # without FFT rows no spectrum is taken
            spec_g[b] = np.fft.rfft(g[lo:hi], 2 * blk)


def _history(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """History sums y[j] = sum_{k<=j} w[k] g[j-k] of one sample row, exactly causal.

    ``g`` and ``w`` have shape (n,). Sums of at most 4 * _BLOCK nodes are
    one np.convolve, O(n**2). Longer ones take blocks of _BLOCK nodes,
    O(n * _BLOCK + n**2 / _BLOCK). Weights that reach past one block sum
    all blocks at once: within blocks as one product of the (nb, _BLOCK)
    blocks with the upper-triangular Toeplitz slab of w[:_BLOCK], across
    them to `_far_blocks`' bits by one FFT of all blocks, the spectra summed
    by block lag and one inverse FFT. Shorter weights (integer orders) take
    each block's np.convolve plus the direct far part that `_far_blocks`
    yields. Blocked sums overtake direct ones between 3 and 4 * _BLOCK nodes
    and differ from them by FFT roundoff of whole blocks, not of each node's
    terms. Node j reads g only at nodes up to j: changing g at a node, to
    NaN or inf too, leaves earlier outputs bit-identical.
    """
    n = g.size
    blk = _BLOCK if n > 4 * _BLOCK else n
    if _support(w)[0] <= blk:
        out = np.empty(n)
        for lo, hi, far in _far_blocks(g, w, blk):
            out[lo:hi] = far[0] + np.convolve(g[lo:hi], w[: hi - lo])[: hi - lo]
        return out
    nb = -(-n // blk)
    spec_w = _lag_spectra(w[None], blk, nb)[0]
    wpad = np.concatenate((np.zeros(blk - 1), w[:blk]))
    slab = np.ascontiguousarray(sliding_window_view(wpad, blk)[::-1])
    # A slab zero times a later inf or NaN is NaN: the product takes g as
    # zero from its first non-finite node q, and q's block sums directly.
    q = np.append(np.flatnonzero(~np.isfinite(g)), n)[0]
    blocks = np.concatenate((g[:q], np.zeros(nb * blk - q)))
    out = (blocks.reshape(nb, blk) @ slab).ravel()[:n]
    if q < n:
        lo, hi = q - q % blk, min(n, q - q % blk + blk)
        out[q:hi] = np.convolve(g[lo:hi], w[: hi - lo])[q - lo : hi - lo]
    del slab  # frees the slab before the FFT temporaries
    spec_g = np.fft.rfft(g[: (nb - 1) * blk].reshape(nb - 1, blk), 2 * blk)
    acc = np.zeros((nb - 1, blk + 1), dtype=complex)  # block b at b - 1
    for d in range(nb - 1, 0, -1):
        acc[d - 1 :] += spec_g[: nb - d] * spec_w[nb - 1 - d]
    # near + far equals `_far_blocks`' far + near bit for bit.
    out[blk:] += np.fft.irfft(acc, 2 * blk)[:, blk:].ravel()[: n - blk]
    return out


def _step_scale(mu: float, h: float) -> float:
    """h**-mu, or ValueError naming mu and h if that is not a finite nonzero float."""
    try:
        scale = float(h) ** -float(mu)  # Python's power raises where numpy's warns
    except OverflowError:
        scale = math.inf
    if not 0.0 < scale < math.inf:
        raise ValueError(f"h**-mu is not a finite nonzero float for order mu={mu:g}, step h={h:g}")
    return scale


@functools.lru_cache(maxsize=None)  # one read-only row per degree r below the largest order
def _onesided_stencil(r: int) -> np.ndarray:
    """Weights c of the r-th derivative at the first node, c @ values[:r+2] / h**r.

    Solves the small Vandermonde system for a one-sided stencil that is
    exact on polynomials up to degree r+1.
    """
    p = r + 2
    a = np.vander(np.arange(p, dtype=np.float64), increasing=True).T[:p, :p]
    rhs = np.zeros(p)
    rhs[r] = math.factorial(r)
    coef = np.linalg.solve(a, rhs)
    coef.setflags(write=False)
    return coef


def _base_fit(values: np.ndarray, h: float, mu: float, m: int) -> tuple:
    """(P, top, carry): samples of the degree-(m - 1) Taylor polynomial at the base node.

    With v = values[:r+2] and c_r the one-sided stencil of degree r, P's
    coefficient r is c_r @ (v - v_0) / h**r / r!: a constant's coefficients
    are exact zeros whether or not a stencil sums to zero in floating point.
    The same pass sums the rounding gate's terms of each stencil:
    top = sum_r |c_r @ v| (n-1)**r / r!, P's fitted terms at the last node,
    and carry, the fit's rounding in units of eps h**-mu. Coefficient r is
    rounded by eps |c_r| @ |v| / h**r / r!, which D^mu t**r = r! /
    Gamma(r + 1 - mu) t**(r - mu) carries to node j as |c_r| @ |v|
    j**(r - mu) / |Gamma(r + 1 - mu)|, largest at j = n // 2.
    """
    n = values.size
    t = h * np.arange(n)
    poly, top, carry = np.full(n, values[0]), 0.0, 0.0
    for r in range(1, m):
        c, v = _onesided_stencil(r), values[: r + 2]
        poly += float(c @ (v - values[0])) / h**r / math.factorial(r) * t**r
        with np.errstate(over="ignore", invalid="ignore"):  # absurd orders: inf or NaN
            top += abs(c @ v) * np.exp(r * math.log(n - 1) - math.lgamma(r + 1))
            if (r - mu) % 1:  # 1 / Gamma(r + 1 - mu) vanishes at integer orders
                log_carry = (r - mu) * math.log(n // 2) - math.lgamma(r + 1 - mu)
                carry += np.abs(c) @ np.abs(v) * np.exp(log_carry)
    return poly, top, carry


def _scaled_history(g: np.ndarray, mu: float, h: float, scale: float) -> np.ndarray:
    """``scale`` times g's order-mu history sums, the base node copied from its neighbor.

    A finite sum that overflows when scaled raises FloatingPointError naming
    mu, h and its node; non-finite sums (from non-finite g) pass through.
    """
    sums = _history(g, _weights(mu, g.size))
    with np.errstate(over="ignore"):
        out = sums * scale
    if not np.all(np.isfinite(out)) and np.any(bad := np.isfinite(sums) & ~np.isfinite(out)):
        raise FloatingPointError(
            f"h**-mu times the history sum overflows for order mu={mu:g}, step h={h:g}, "
            f"at node {int(np.argmax(bad))} from the base"
        )
    out[0] = out[1]
    return out


def _left_deriv_values(values: np.ndarray, h: float, order: FracOrder) -> np.ndarray:
    """The left derivative's values, or FloatingPointError where rounding may swamp them.

    The sums take g = values - P, with P, top and carry from `_base_fit`.
    Each g_i is rounded by about eps v_size, v_size = max|g| + |v_0| + top
    bounding max|values|. Taken as independent, these roundings give the
    scaled sums a standard deviation of ||w||_2 v_size, with ||w||_2**2 =
    sum_k C(mu, k)**2 = C(2 mu, mu). Three of them plus carry, in units of
    eps h**-mu, estimate the rounding error over the grid's second half.
    Raises, naming mu and h, where that exceeds the output's size there,
    taken as at least v_size / T**mu for a grid of length T: the fit's
    truncation error near the base has decayed there, and the floor keeps
    results near zero (polynomials of lower degree) from being held to their
    own size. Non-finite samples pass through to the output unchecked, and
    so does g = 0 (a polynomial of lower degree fitted exactly).
    """
    mu, n = order.mu, values.size
    scale = _step_scale(mu, h)
    with np.errstate(invalid="ignore"):  # non-finite samples: inf - inf, inf * 0
        poly, top, carry = _base_fit(values, h, mu, order.m)
        g = np.subtract(values, poly, out=poly)  # P's buffer: a live P slows the sums
    out = _scaled_history(g, mu, h, scale)
    g_size = float(np.max(np.abs(g)))
    if 0.0 < g_size < math.inf:
        with np.errstate(over="ignore"):  # absurd orders: inf
            v_size = float(g_size + abs(values[0]) + top)
            norm_w = np.exp(0.5 * math.lgamma(2 * mu + 1) - math.lgamma(mu + 1))
            error = float(3.0 * norm_w * v_size + carry)
            error *= np.finfo(np.float64).eps * scale
        size = max(float(np.max(np.abs(out[n // 2 :]))), v_size * scale * (n - 1) ** -mu)
        if error > size:
            raise FloatingPointError(
                f"rounding error may reach the derivative's size for order mu={mu:g}, "
                f"step h={h:g}: estimated {error:.3g} against {size:.3g}"
            )
    return out


def frac_deriv(path: SampledPath, order: FracOrder, side: Side = Side.LEFT) -> SampledPath:
    """Fractional derivative of a sampled path, on the same grid.

    The left derivative at node j is h**(-mu) sum_{k<=j} w_k g(t_{j-k})
    with g the path minus its degree-(m-1) base Taylor polynomial (constant
    for orders below one; higher coefficients come from one-sided finite
    difference estimates). The right derivative mirrors the grid and scales
    by (-1)**m. The base node (terminal node for the right side) carries the
    value copied from its neighbor, standing in for the interior limit.
    Raises FloatingPointError where the estimated rounding error reaches
    the result's size (see `_left_deriv_values`).
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
    scale = _step_scale(order.mu, path.h)
    g = path.values - float(base_value)
    g[0] = 0.0
    return path.with_values(_scaled_history(g, order.mu, path.h, scale))


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
    past = f1.values[at_index::-1]
    for k in range(terms):
        frac_part = h ** -(alpha - k) * _weights(alpha - k, at_index + 1) @ past
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

