"""Time steppers for fractional ordinary differential equations.

Two problem shapes are covered. ``MultiTermFDE`` is a linear equation

    sum_i c_i D^(mu_i) x(t) + c_0 x(t) = f(t),   x and its startup history 0,

solved implicitly: every history sum includes the new node, so the
discrete equations form one lower-triangular Toeplitz system, solved a
block of nodes at a time. ``FODE2`` is the coupled first-order-in-alpha system

    D^alpha x = v,  D^alpha v = F(t, x, v),  x(0) = x0, v(0) = v0,

stepped explicitly with the right side lagged by one node. Initial values
enter through regularization: the solver advances the deviations x - x0 and
v - v0, which have zero history, so the fractional derivative of the
constant part drops out exactly.

Both solvers use the same convolution-weight discretization as the rest of
the package, so their output composes consistently with ``frac_deriv`` for
residual checks. Alpha equal to one is allowed in ``FODE2`` and reduces the
update to the explicit Euler step.

Every history sum uses the blocks of ``fracops._block_layout``: the solves
step them one at a time through ``fracops._far_blocks``, and the defect
checks sum them in ``fracops._history``; those two state the block
lengths, FFT lengths and costs. ``solve_multiterm`` evaluates the forcing
once on the time array and solves each block at once with the inverse
series r of its symbol and one correction step. ``solve_fode2``, whose
right side may be nonlinear, steps node by node in sub-blocks of _SUB
nodes, with no numpy call per node. Each node reads only the nodes before
it: the schemes stay exactly causal. A non-finite solution raises
``DivergenceError`` naming the first bad node.

The model catalog's multi-term entries (phillips classical, business-cycle,
bagley-torvik) are not written out here: each is the classical
Euler-Lagrange equation of a Lagrangian catalog entry, whose level map
{jet level a: q_a} gives the terms (q_a, 2 a alpha) (``varcalc._el_terms``).
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fracops import (
    _BLOCK,
    FracOrder,
    SampledPath,
    Side,
    _far_blocks,
    _history,
    _require_finite,
    _support,
    frac_deriv,
    gl_weights,
)
from .varcalc import _FD_ABS_FLOOR, _FD_REL_STEP, _as_fn, _el_terms
from .varcalc import _bt_default_forcing, _plate_levels, _potential_levels

__all__ = [
    "DivergenceError",
    "MultiTermFDE",
    "FODE2",
    "SolveReport",
    "solve_multiterm",
    "solve_fode2",
    "fde_residual",
    "ModelTemplate",
    "model_catalog",
    "find_model",
]

DIVERGENCE_GUARD = 1e12

# Sub-block length of `solve_fode2`'s stepping: lags within a sub-block are
# summed in Python floats, the earlier sub-blocks of the block through one
# matrix product per sub-block.
_SUB = 8

# `solve_multiterm` sums lags below _HEAD directly; `_inverse_series` works in runs of _RUN.
_HEAD, _RUN = 32, 64


class DivergenceError(RuntimeError):
    """Raised when a solve turns non-finite or leaves the trust region."""


@dataclass(frozen=True)
class MultiTermFDE:
    """Linear multi-term equation with zero startup history.

    ``terms`` holds (coefficient, order) pairs with positive orders; they
    are sorted by descending order at construction. Orders must be distinct
    and the leading coefficient nonzero. ``zero_order_coeff`` multiplies
    x itself; it, the orders and the coefficients must be finite.
    ``forcing`` is the right-hand side, a finite constant or a callable of t. A
    callable is called once, on the array of node times; one that raises
    TypeError or ValueError there (``math.sin``, a branch on ``t < 0.5``)
    or returns a shape that does not broadcast is called once per node
    instead.
    """

    terms: tuple
    zero_order_coeff: float = 0.0
    forcing: Callable[[float], float] = None
    t_end: float = 1.0

    def __post_init__(self) -> None:
        terms = tuple(sorted(((float(c), float(mu)) for c, mu in self.terms), key=lambda p: -p[1]))
        if not terms or terms[0][1] <= 0.0:
            raise ValueError("at least one term with positive order is required")
        if any(mu <= 0.0 for _, mu in terms):
            raise ValueError("term orders must be positive")
        if not all(math.isfinite(mu) for _, mu in terms):
            raise ValueError("term orders must be finite")
        if not all(math.isfinite(c) for c, _ in terms):
            raise ValueError("term coefficients must be finite")
        _require_finite(zero_order_coeff=self.zero_order_coeff)
        orders = [mu for _, mu in terms]
        if any(abs(orders[i] - orders[i + 1]) < 1e-12 for i in range(len(orders) - 1)):
            raise ValueError("term orders must be distinct")
        if terms[0][0] == 0.0:
            raise ValueError("the leading coefficient must be nonzero")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "forcing", _as_fn(self.forcing))
        if not 0.0 < self.t_end < math.inf:
            raise ValueError("t_end must be positive and finite")

    @property
    def max_order(self) -> float:
        return self.terms[0][1]


@dataclass(frozen=True)
class FODE2:
    """Coupled pair D^alpha x = v, D^alpha v = F(t, x, v)."""

    alpha: float
    rhs: Callable[[float, float, float], float]
    x0: float = 0.0
    v0: float = 0.0
    t_end: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if not callable(self.rhs):
            raise ValueError("rhs must be callable")
        _require_finite(x0=self.x0, v0=self.v0)
        if not 0.0 < self.t_end < math.inf:
            raise ValueError("t_end must be positive and finite")


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Solver output: the solution path, a defect measure, and step count.

    ``max_defect`` substitutes the computed nodes back into the discrete
    operators. For the implicit solver this checks the block systems were
    solved exactly (machine-level values); for the explicit solver it
    measures the one-node lag of the right side and shrinks with h.
    ``aux`` carries the velocity path for the coupled system, None
    otherwise.
    """

    solution: SampledPath
    max_defect: float
    steps: int
    aux: Optional[SampledPath] = None


def _grid_steps(t_end: float, h: float) -> int:
    if not 0.0 < h < math.inf:
        raise ValueError("step size h must be positive and finite")
    steps = int(round(t_end / h))
    if steps < 8:
        raise ValueError("at least 8 steps are required (reduce h)")
    if abs(steps * h - t_end) > 1e-8 * max(1.0, abs(t_end)):
        raise ValueError("step size must divide the interval length")
    return steps


def _inverse_series(a: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` coefficients of r = 1 / a(z).

    a(z) = sum_k a[k] z**k with a[0] nonzero. ``a`` may hold fewer than
    ``count`` lags (a polynomial symbol: integer orders only), and each
    coefficient reads only the lags it holds. The first _RUN coefficients
    come by forward substitution. Each later run of _RUN solves its
    diagonal block of a's Toeplitz matrix, whose inverse is the Toeplitz
    matrix of r[:_RUN]: one product with ``a`` sums the earlier
    coefficients, one convolution with r[:_RUN] solves, and one more with
    the block's residual refines (the explicit inverse alone erred 5e-7 of
    max |r| on the classical business-cycle symbol at 2048 coefficients).
    """
    head = min(count, _RUN)
    # r[:head] time-reversed: r[k-1], r[k-2], ... read as one contiguous slice.
    rev = np.zeros(head)
    rev[-1] = 1.0 / a[0]
    for k in range(1, head):
        m = min(k, a.size - 1)
        rev[head - 1 - k] = -a[1 : m + 1].dot(rev[head - k : head - k + m]) / a[0]
    r = np.concatenate([rev[::-1], np.zeros(count - head)])
    lags = np.zeros(count)  # lags[i] = a[i + 1]
    lags[: min(a.size, count) - 1] = a[1:count]
    for k in range(head, count, _RUN):
        run, m = min(_RUN, count - k), min(k, a.size - 1)
        # known[t] = sum over j = 1 .. m of a[j + t] r[k - j].
        known = sliding_window_view(lags[: m + run - 1], m)[:run] @ r[k - m : k][::-1]
        u = -np.convolve(r[:run], known)[:run]
        r[k : k + run] = u - np.convolve(r[:run], known + np.convolve(a[:run], u)[:run])[:run]
    return r


def _forcing_values(fde: MultiTermFDE, t: np.ndarray) -> np.ndarray:
    """``fde.forcing`` at the times ``t``: one call on the array, else one per node."""
    try:
        return np.broadcast_to(np.asarray(fde.forcing(t), dtype=np.float64), t.shape)
    except (TypeError, ValueError):
        return np.array([fde.forcing(s) for s in t.tolist()], dtype=np.float64)


def solve_multiterm(fde: MultiTermFDE, h: float) -> SolveReport:
    """Implicit solve of a linear multi-term equation, a block at a time.

    Node j satisfies c_0 x_j + sum_i s_i H_i(j) = f_j, where s_i =
    c_i h**(-mu_i) and H_i(j) is term i's history sum over the nodes up to
    j, node 0 is given (x_0 = 0) and the history before it is zero. On the
    blocks of ``fracops._far_blocks`` this is one lower-triangular Toeplitz
    system per block (Podlubny 2000): with far_i the part of H_i that
    reaches earlier blocks, the block's nodes x_b solve a * x_b = rhs, where
    rhs = f - sum_i s_i far_i and a = c_0 delta + sum_i s_i w_i is the
    combined symbol. With r the inverse series of a over one block,
    x_b = r * rhs, followed by one correction step
    x_b += r * (rhs - c_0 x_b - sum_i s_i (w_i * x_b)). The residual sums
    each term's lags below _HEAD directly, term by term, and all longer
    lags by one FFT product with the tail row sum_i s_i w_i[_HEAD:]. Where
    that row is nonzero the products with r are FFT products too; the
    spectra of r and of the tail row are taken once, at twice the block
    length. Integer orders alone keep direct products with r. The same
    residual of the final nodes gives ``max_defect``. A block whose FFTs
    turn non-finite is solved again by direct sums, which raise
    DivergenceError at its first non-finite node. Scaled coefficients that
    overflow raise ValueError.
    """
    steps = _grid_steps(fde.t_end, h)
    n = steps + 1
    c0 = fde.zero_order_coeff
    with np.errstate(over="ignore", invalid="ignore"):
        # Weights of huge orders overflow in their recurrence, and a numpy
        # power overflows to inf where Python's raises OverflowError.
        weights = np.array([gl_weights(FracOrder(mu), n) for _, mu in fde.terms])
        # Lags past a weight row's last nonzero entry (integer orders) add
        # nothing to the sums within a block.
        supports = _support(weights)
        scales = np.array([c * np.float64(h) ** -mu for c, mu in fde.terms])
        a = scales @ weights[:, : supports.max()]
    a[0] += c0
    if not np.all(np.isfinite(a)):
        raise ValueError("degenerate implicit update: scaled coefficients overflow at this h")
    if a[0] == 0.0:
        raise ValueError("degenerate implicit update: operator diagonal is zero at this h")
    f = _forcing_values(fde, h * np.arange(n))

    def product(spec, v):
        """The first v.size terms of the series product of v and a spectrum's row."""
        return np.fft.irfft(spec * np.fft.rfft(v, size), size)[: v.size]

    def residual(rhs, xb, spectral):
        """rhs - a * xb, its lags from _HEAD on by the tail's spectrum if ``spectral``."""
        res = rhs - c0 * xb
        for s, w, m in zip(scales, weights, supports):
            res -= s * np.convolve(w[: min(m, _HEAD if spectral else n, xb.size)], xb)[: xb.size]
        return res - product(spec_tail, xb) if spectral else res

    def times_r(v, spectral):
        return product(spec_r, v) if spectral else np.convolve(r[: v.size], v)[: v.size]

    def solve_block(rhs, spectral):
        """x_b and its residual; the products with r by FFT if ``spectral``."""
        xb = times_r(rhs, spectral)
        xb += times_r(residual(rhs, xb, spectral), spectral)
        return xb, residual(rhs, xb, spectral)

    x = np.zeros(n)
    defects = []
    # Integer orders alone keep one block: block boundaries cancel sums of
    # size h**-mu |x|, up to 10x the single block's roundoff against long double.
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite raises below
        for lo, hi, far in _far_blocks(x, weights, blocked=supports.max() > _BLOCK):
            if not lo:
                r = _inverse_series(a[:hi], hi)
                tail = np.concatenate([np.zeros(_HEAD), scales @ weights[:, _HEAD:hi]])[:hi]
                spectral, size = bool(np.any(tail)), 2 * hi
                if spectral:
                    spec_r, spec_tail = np.fft.rfft([r, tail], size)
            first = max(lo, 1)
            rhs = f[first:hi] - scales @ far[:, first - lo :]
            xb, res = solve_block(rhs, spectral)
            if spectral and not np.all(np.isfinite(xb)):
                xb, res = solve_block(rhs, False)
            if not np.all(np.isfinite(xb)):
                bad = first + int(np.argmin(np.isfinite(xb)))
                raise DivergenceError(f"solution is not finite at t = {h * bad:g}")
            x[first:hi] = xb
            defects.append(np.max(np.abs(res)))
    return SolveReport(SampledPath(0.0, h, x), float(np.max(defects)), steps)


def solve_fode2(fode: FODE2, h: float) -> SolveReport:
    """Explicit stepping of the coupled pair with lagged right side.

    Advances X = x - x0 and V = v - v0, both with zero history, with the
    weights of order alpha: X_j = -H_j(X) + h**alpha (v0 + V_{j-1}) and
    V_j = -H_j(V) + h**alpha F(t_{j-1}, x_{j-1}, v_{j-1}), where H_j sums
    the lags k >= 1. On each block of ``fracops._far_blocks``, H_j is the
    block's far part plus the lags within the block, and a finished block
    is in the (2, n) array of X and V before the kernel takes its spectrum.
    The block's nodes come in sub-blocks of _SUB. Per sub-block, the lags
    that reach the block's earlier sub-blocks enter through one product
    (2, p) @ (p, _SUB) with the Toeplitz slab ``cross``: O(_BLOCK) work per
    node in BLAS. Per node, the block's far part, that product's entry and
    the at most _SUB - 1 lags within the sub-block are added in Python
    floats, so that no numpy call is made per node. The result agrees with
    plain O(n**2) stepping to roundoff. F is called once per node, in node
    order, and the defect check reuses its values. Raises DivergenceError at
    the first node where X or V is non-finite or passes DIVERGENCE_GUARD.
    """
    steps = _grid_steps(fode.t_end, h)
    n = steps + 1
    w = gl_weights(FracOrder(fode.alpha), n)
    rhs, x0, v0, ha = fode.rhs, fode.x0, fode.v0, h**fode.alpha
    # near[r] lists w[r], ..., w[1]: the lags from a sub-block's first r
    # nodes to its node r.
    near = [w[r:0:-1].tolist() for r in range(_SUB)]
    big_xv = np.zeros((2, n))
    big_x = big_v = 0.0
    f_now = []
    for lo, hi, far in _far_blocks(big_xv, w):
        if not lo:
            # cross[len(cross) - p + k, c] = w[p + c - k], the weight from a
            # block's node k to node p + c of its sub-block at p (p > k).
            # On a single block the slab reaches lags past the grid, which
            # no product reads: they are zeros.
            pad = np.concatenate([w[1:], np.zeros(_SUB)])[: hi + _SUB - 1]
            cross = np.ascontiguousarray(sliding_window_view(pad, _SUB)[::-1])
        far_x, far_v = far.tolist()
        for p in range(0, hi - lo, _SUB):
            q = min(p + _SUB, hi - lo)
            early = big_xv[:, lo : lo + p] @ cross[len(cross) - p :, : q - p]
            early_x, early_v = early.tolist()
            # Node 0 is given, and zero: it takes its sub-block's first place.
            xs, vs = ([0.0], [0.0]) if lo + p == 0 else ([], [])
            for r in range(len(xs), q - p):
                j = lo + p + r
                f_prev = rhs(h * (j - 1), x0 + big_x, v0 + big_v)
                f_now.append(f_prev)
                hist_x, hist_v = far_x[p + r] + early_x[r], far_v[p + r] + early_v[r]
                for w_k, x_k, v_k in zip(near[r], xs, vs):
                    hist_x += w_k * x_k
                    hist_v += w_k * v_k
                x_j = ha * (v0 + big_v) - hist_x
                v_j = ha * f_prev - hist_v
                if not (abs(x_j) <= DIVERGENCE_GUARD and abs(v_j) <= DIVERGENCE_GUARD):
                    raise DivergenceError(
                        f"solution is not finite or exceeded {DIVERGENCE_GUARD:g} at t = {h * j:g}"
                    )
                xs.append(x_j)
                vs.append(v_j)
                big_x, big_v = x_j, v_j
            big_xv[:, lo + p : lo + q] = xs, vs
    x, v = x0 + big_xv[0], v0 + big_xv[1]
    f_now.append(rhs(h * steps, x[-1], v[-1]))
    dx, dv = h ** (-fode.alpha) * _history(big_xv, w)
    defect = float(max(np.max(np.abs(dx[1:] - v[1:])), np.max(np.abs(dv[1:] - f_now[1:]))))
    return SolveReport(SampledPath(0.0, h, x), defect, steps, SampledPath(0.0, h, v))


def fde_residual(fde: MultiTermFDE, path: SampledPath) -> SampledPath:
    """Substitute a sampled path into the continuous operator.

    Every fractional derivative is evaluated with ``frac_deriv`` (Taylor
    regularized, independent of the solver's raw update), so a small
    residual is a genuine two-route check. The first ceil(mu_max) + 1 nodes
    are dropped: they sit in the startup region of the history sums.
    """
    n = path.n_pts
    acc = fde.zero_order_coeff * path.values.copy()
    for c, mu in fde.terms:
        acc = acc + c * frac_deriv(path, FracOrder(mu), Side.LEFT).values
    f = _forcing_values(fde, path.times())
    res = acc - f
    drop = FracOrder(fde.max_order).m + 1
    if drop >= n - 1:
        raise ValueError("path is too short for a residual check at this order")
    return SampledPath(path.t0 + drop * path.h, path.h, res[drop:])


# ---------------------------------------------------------------------------
# Model catalog.
# ---------------------------------------------------------------------------

# Every model has these variants.
_VARIANTS = ("classical", "fractional")


@dataclass(frozen=True)
class ModelTemplate:
    """A named model with classical and fractional problem factories.

    ``kinds`` maps each variant name to "multiterm" or "fode2", the kind of
    problem its factory returns at the defaults, which tells callers which
    solver to use on the object returned by ``make``. A "multiterm" problem
    is derived from a Lagrangian's level map (see the module docstring); a
    "fode2" one is stated here, with x0 and v0.
    ``defaults`` lists the factory's keyword parameters and their defaults.
    """

    name: str
    description: str
    factory: Callable = field(repr=False)

    @property
    def kinds(self) -> dict:
        multiterm = {v: isinstance(self.factory(v), MultiTermFDE) for v in _VARIANTS}
        return {v: "multiterm" if m else "fode2" for v, m in multiterm.items()}

    @property
    def defaults(self) -> dict:
        params = inspect.signature(self.factory).parameters.values()
        return {p.name: p.default for p in params if p.default is not p.empty}

    def make(self, variant: str, **params):
        if variant not in _VARIANTS:
            known = ", ".join(_VARIANTS)
            raise ValueError(f"model {self.name!r} has no variant {variant!r} (use {known})")
        return self.factory(variant, **params)


def _friction_factory(variant, m=1.0, gamma_coef=0.5, potential=None, x0=0.0, v0=1.0,
                      alpha=0.999, t_end=2.0):
    """Damped motion in a potential: m x'' + gamma x' - dU/dx = 0."""
    _require_finite(m=m, gamma_coef=gamma_coef)
    if m == 0.0:
        raise ValueError("m must be nonzero")
    u = potential

    def u_x(t, x):
        if u is None:
            return 0.0
        s = max(_FD_REL_STEP * abs(x), _FD_ABS_FLOOR)
        return (u(t, x + s) - u(t, x - s)) / (2.0 * s)

    def rhs(t, x, v):
        return (u_x(t, x) - gamma_coef * v) / m

    a = 1.0 if variant == "classical" else alpha
    return FODE2(alpha=a, rhs=rhs, x0=x0, v0=v0, t_end=t_end)


def _phillips_factory(variant, a1=0.5, b1=1.0, f=0.2, x0=1.0, v0=0.0, alpha=0.999, t_end=5.0):
    """Stabilization dynamics: x'' + a1 x' + b1 x + f = 0."""
    if variant == "classical":
        return MultiTermFDE(_el_terms(0.5, _potential_levels(2, a1, 0.0)), b1, -f, t_end)
    _require_finite(a1=a1, b1=b1, f=f)
    return FODE2(
        alpha=alpha,
        rhs=lambda t, x, v: -a1 * v - b1 * x - f,
        x0=x0,
        v0=v0,
        t_end=t_end,
    )


def _business_cycle_factory(variant, a1=0.5, a2=0.5, b1=1.0, f=0.2, alpha=0.5, t_end=1.0):
    """Third-order cycle dynamics: x''' + a2 x'' + a1 x' + b1 x + f = 0."""
    terms = _el_terms(0.5 if variant == "classical" else alpha, _potential_levels(3, a1, a2))
    return MultiTermFDE(terms, b1, -f, t_end)


def _bagley_torvik_factory(variant, a=1.0, b=1.0, c=1.0, forcing=None, alpha=0.25, t_end=1.0):
    """Damped plate model: a x'' + b D^(3/2) x + c x = f(t)."""
    terms = _el_terms(0.25 if variant == "classical" else alpha, _plate_levels(a, b))
    return MultiTermFDE(terms, c, _bt_default_forcing if forcing is None else forcing, t_end)


def model_catalog() -> tuple:
    """Built-in models, each with classical and fractional variants."""
    return (
        ModelTemplate(
            name="friction",
            description="damped motion in a potential: m x'' + g x' - dU/dx = 0",
            factory=_friction_factory,
        ),
        ModelTemplate(
            name="phillips",
            description="stabilization dynamics: x'' + a1 x' + b1 x + f = 0",
            factory=_phillips_factory,
        ),
        ModelTemplate(
            name="business-cycle",
            description="third-order cycle dynamics: x''' + a2 x'' + a1 x' + b1 x + f = 0",
            factory=_business_cycle_factory,
        ),
        ModelTemplate(
            name="bagley-torvik",
            description="damped plate model: a x'' + b D^(3/2) x + c x = f(t)",
            factory=_bagley_torvik_factory,
        ),
    )


def find_model(name: str) -> ModelTemplate:
    for model in model_catalog():
        if model.name == name:
            return model
    known = ", ".join(m.name for m in model_catalog())
    raise KeyError(f"unknown model {name!r}; available: {known}")
