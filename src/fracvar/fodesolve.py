"""Time steppers for fractional ordinary differential equations.

Two problem shapes are covered. ``MultiTermFDE`` is a linear equation

    sum_i c_i D^(mu_i) x(t) + c_0 x(t) = f(t),   x and its startup history 0,

and ``FODE2`` the coupled first-order-in-alpha system

    D^alpha x = v,  D^alpha v = F(t, x, v),  x(0) = x0, v(0) = v0.

Both are solved implicitly: every history sum includes the new node, so
the discrete equations of a block of nodes form a lower-triangular
Toeplitz system. Initial values enter through regularization: the pair's
solver advances the deviations x - x0 and v - v0, which have zero history,
so the fractional derivative of the constant part drops out exactly.

Both solvers use the same convolution-weight discretization as the rest of
the package, so their output composes consistently with ``frac_deriv`` for
residual checks. Alpha equal to one is allowed in ``FODE2`` and makes the
scheme implicit Euler.

Every history sum uses the blocks of ``fracops._block_layout``, which the
solves take one at a time through ``fracops._far_blocks``; it states the
block lengths, FFT lengths and costs. Both solve a block with one helper,
`_block_solver`: the inverse series r of a multi-term symbol, FFT products
and one correction step. ``solve_multiterm`` evaluates the forcing once
on the time array and solves each block at once. ``solve_fode2``, whose
right side may be nonlinear, eliminates v and solves each block by chord
steps, each a solve of the two-term symbol of orders (2 alpha, alpha) and
one call of F on the block's nodes. No node reads a later one: the schemes
stay exactly causal. A non-finite solution raises ``DivergenceError``
naming the first bad node.

The model catalog, whose problems these solvers take, is in ``varcalc``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fracops import (
    _BLOCK,
    _FD_ABS_FLOOR,
    _FD_REL_STEP,
    FracOrder,
    SampledPath,
    Side,
    _far_blocks,
    _require_finite,
    _support,
    frac_deriv,
    gl_weights,
)

__all__ = [
    "DivergenceError",
    "MultiTermFDE",
    "FODE2",
    "SolveReport",
    "solve_multiterm",
    "solve_fode2",
    "fde_residual",
]

DIVERGENCE_GUARD = 1e12

# `solve_fode2`'s chord steps: runs of nodes whose steps shrink by less
# than 10x take F's Jacobian afresh (once); they are halved after
# _MAX_CHORD steps, and done once within _CHORD_TOL of the solution.
_MAX_CHORD, _CHORD_TOL = 10, 1e-10

# `solve_multiterm` sums lags below _HEAD directly; `_inverse_series` works in runs of _RUN.
_HEAD, _RUN = 32, 64


class DivergenceError(RuntimeError):
    """Raised when a solve turns non-finite or leaves the trust region."""


def _as_fn(value) -> Callable[[float], float]:
    """A forcing given as None (zero), a finite constant or a callable of t, as a callable."""
    if callable(value):
        return value
    v = 0.0 if value is None else float(value)
    _require_finite(forcing=v)
    return lambda t: v


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
    operators. For ``solve_multiterm`` this checks that the block systems
    were solved exactly (machine-level values). For ``solve_fode2`` it is
    the residual of the second equation, h**-alpha (w * V) - F, at the
    returned nodes, where the chord steps stopped; the first equation holds
    by construction. ``aux`` carries the velocity path for the coupled
    system, None otherwise.
    """

    solution: SampledPath
    max_defect: float
    steps: int
    aux: Optional[SampledPath] = None


def _grid_steps(t_end: float, h: float) -> int:
    if not 0.0 < h < math.inf:
        raise ValueError("step size h must be positive and finite")
    if not math.isfinite(t_end / h):
        raise ValueError(f"step size h = {h:g} is too small: t_end / h overflows")
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


def _node_values(fn, *args: np.ndarray) -> np.ndarray:
    """``fn`` at the nodes: one call on the arrays ``args``, else one call per node."""
    try:
        return np.broadcast_to(np.asarray(fn(*args), dtype=np.float64), args[0].shape)
    except (TypeError, ValueError):
        return np.array([fn(*node) for node in zip(*(a.tolist() for a in args))], dtype=np.float64)


def _block_solver(weights: np.ndarray, scales: np.ndarray, c0: float, size: int):
    """(solve, r), solve(rhs, fft=True) -> (x_b, residual()) of a * x_b = rhs.

    a = c0 delta + sum_i scales[i] weights[i] is the block's lower-triangular
    Toeplitz symbol and r its inverse series over ``size`` lags, so on
    rhs.size <= ``size`` nodes x_b = r * rhs, followed by one correction
    step x_b += r * (rhs - a * x_b). The residual sums each row's lags below
    _HEAD directly, row by row, and all longer lags by one FFT product with
    the tail row sum_i s_i w_i[_HEAD:]. Where that row is nonzero the
    products with r are FFT products too; the spectra of r and of the tail
    row are taken once, at twice ``size``. Integer orders alone, and ``fft``
    false, keep direct products with r. A solve whose FFTs turn non-finite
    is done again by direct sums, so that a non-finite x_b starts at its
    first non-finite node. A symbol that overflows or whose diagonal is zero
    raises ValueError. Callers ignore overflow and invalid values in numpy:
    they raise at non-finite results.
    """
    # Lags past a weight row's last nonzero entry (integer orders) add
    # nothing to the sums within a block.
    supports = _support(weights)
    a = scales @ weights[:, : supports.max()]
    a[0] += c0
    if not np.all(np.isfinite(a)):
        raise ValueError("degenerate implicit update: scaled coefficients overflow at this h")
    if a[0] == 0.0:
        raise ValueError("degenerate implicit update: operator diagonal is zero at this h")
    r = _inverse_series(a[:size], size)
    tail = np.concatenate([np.zeros(_HEAD), scales @ weights[:, _HEAD:size]])[:size]
    spectral = bool(np.any(tail))
    if spectral:
        spec_r, spec_tail = np.fft.rfft([r, tail], 2 * size)

    def product(spec, v):
        """The first v.size terms of the series product of v and a spectrum's row."""
        return np.fft.irfft(spec * np.fft.rfft(v, 2 * size), 2 * size)[: v.size]

    def residual(rhs, xb, spectral):
        """rhs - a * xb, its lags from _HEAD on by the tail's spectrum if ``spectral``."""
        res = rhs - c0 * xb
        for s, w, m in zip(scales, weights, supports):
            m = min(m, _HEAD) if spectral else m
            res -= s * np.convolve(w[: min(m, xb.size)], xb)[: xb.size]
        return res - product(spec_tail, xb) if spectral else res

    def times_r(v, spectral):
        return product(spec_r, v) if spectral else np.convolve(r[: v.size], v)[: v.size]

    def solve_block(rhs, spectral):
        xb = times_r(rhs, spectral)
        return xb + times_r(residual(rhs, xb, spectral), spectral)

    def solve(rhs, fft=True):
        if fft and spectral and np.all(np.isfinite(xb := solve_block(rhs, True))):
            return xb, lambda: residual(rhs, xb, True)
        xb = solve_block(rhs, False)
        return xb, lambda: residual(rhs, xb, False)

    return solve, r


def solve_multiterm(fde: MultiTermFDE, h: float) -> SolveReport:
    """Implicit solve of a linear multi-term equation, a block at a time.

    Node j satisfies c_0 x_j + sum_i s_i H_i(j) = f_j, where s_i =
    c_i h**(-mu_i) and H_i(j) is term i's history sum over the nodes up to
    j, node 0 is given (x_0 = 0) and the history before it is zero. On the
    blocks of ``fracops._far_blocks`` this is one lower-triangular Toeplitz
    system per block (Podlubny 2000): with far_i the part of H_i that
    reaches earlier blocks, the block's nodes x_b solve a * x_b = rhs, where
    rhs = f - sum_i s_i far_i and a = c_0 delta + sum_i s_i w_i is the
    combined symbol, by `_block_solver`. Its residual of the final nodes
    gives ``max_defect``. A non-finite block raises DivergenceError at its
    first non-finite node. Scaled coefficients that overflow raise
    ValueError.
    """
    steps = _grid_steps(fde.t_end, h)
    n = steps + 1
    with np.errstate(over="ignore", invalid="ignore"):
        # Weights of huge orders overflow in their recurrence, and a numpy
        # power overflows to inf where Python's raises OverflowError.
        weights = np.array([gl_weights(FracOrder(mu), n) for _, mu in fde.terms])
        scales = np.array([c * np.float64(h) ** -mu for c, mu in fde.terms])
    f = _node_values(fde.forcing, h * np.arange(n))
    x = np.zeros(n)
    defects = []
    # Integer orders alone keep one block: block boundaries cancel sums of
    # size h**-mu |x|, up to 10x the single block's roundoff against long double.
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite raises below
        for lo, hi, far in _far_blocks(x, weights, blocked=_support(weights).max() > _BLOCK):
            if not lo:
                solve, _ = _block_solver(weights, scales, fde.zero_order_coeff, hi)
            first = max(lo, 1)
            xb, residual = solve(f[first:hi] - scales @ far[:, first - lo :])
            if not np.all(np.isfinite(xb)):
                bad = first + int(np.argmin(np.isfinite(xb)))
                raise DivergenceError(f"solution is not finite at t = {h * bad:g}")
            x[first:hi] = xb
            defects.append(np.max(np.abs(residual())))
    return SolveReport(SampledPath(0.0, h, x), float(np.max(defects)), steps)


def solve_fode2(fode: FODE2, h: float) -> SolveReport:
    """Implicit solve of the coupled pair, a block at a time, by chord steps.

    Node j >= 1 of X = x - x0 and V = v - v0 (zero history, weights w of
    order alpha) solves h**-alpha (w * X)_j = v0 + V_j and h**-alpha (w *
    V)_j = F(t_j, x0 + X_j, v0 + V_j): implicit Euler at alpha = 1. On each
    block of ``fracops._far_blocks``, V = D X + h**-alpha far_X - v0 with D
    = h**-alpha T(w), and X solves the second equation by chord steps from
    the line through the last two nodes. A step calls F once on the
    block's node arrays (node by node where F refuses arrays, as
    ``MultiTermFDE.forcing``), takes the residual R = h**-alpha (far_V +
    T(w) V) - F and solves (D**2 - F_v D - F_x) dX = -R, a symbol of orders
    (2 alpha, alpha), by `_block_solver`. F_x and F_v are central
    differences at (0, x0, v0), taken once afresh at a run's middle node
    where its steps shrink by less than 10x; they serve later runs.

    Nodes are done when X and V are estimated within _CHORD_TOL of max |X|
    and max |V| of the implicit equations' solution: the last step was that
    small, or the next must be, as |r * R| <= sum |r| max |R| for the
    symbol's inverse series r. They keep the last iterate, whose largest
    |R| is ``max_defect``. Runs whose steps stop shrinking, or pass
    _MAX_CHORD, are halved and solved in order, by direct sums (free of the
    FFT roundoff that fast-growing nodes spread), down to single nodes,
    which take Newton steps.
    Raises DivergenceError at the first node whose X or V is non-finite or
    passes DIVERGENCE_GUARD, or whose steps do not converge alone; F is
    never called on a later block. It also raises, naming t and h, where F's
    Jacobian, wherever it is taken, has a real mode at rate h**-alpha or
    above: the implicit step would damp that growth or flip its sign.
    """
    steps = _grid_steps(fode.t_end, h)
    n = steps + 1
    alpha, x0, v0 = fode.alpha, fode.x0, fode.v0
    w = gl_weights(FracOrder(alpha), n)
    scale = h**-alpha
    big = np.zeros((2, n))
    t = h * np.arange(n)
    size_x = size_v = 0.0

    def chord(j0, j1, far_x, far_v, fft):
        """Nodes j0 .. j1 - 1 into ``big``, given the far parts of D X and D V there.

        Returns their largest |R|, or None where the steps do not converge.
        """
        nonlocal block_solver, size_x, size_v
        solve, gain = block_solver
        slope = big[0, j0 - 1] - big[0, j0 - 2] if j0 >= 2 else 0.0
        tb, xb = t[j0:j1], big[0, j0 - 1] + slope * np.arange(1, j1 - j0 + 1)
        last, done, fresh = math.inf, False, False
        for step in range(1, _MAX_CHORD + 2):
            vb = far_x + times_d(xb, fft)
            res = far_v + times_d(vb, fft) - _node_values(fode.rhs, tb, x0 + xb, v0 + vb)
            # Past the guard, FFT roundoff of the large nodes can reach the
            # small ones: those nodes are halved down to the first past it.
            within = np.max(np.abs([xb, vb])) <= DIVERGENCE_GUARD  # False for NaN
            reach_x = max(size_x, float(np.max(np.abs(xb))))
            reach_v = max(size_v, float(np.max(np.abs(vb))))
            # The steps shrink by about change / last each, so the iterate's
            # distance to their limit is about change / (1 - change / last).
            bound_x, bound_v = gain[:, j1 - j0 - 1] * float(np.max(np.abs(res)))
            shrink = 1.0 - bound_x / last
            if within and (done or bound_x <= shrink * _CHORD_TOL * reach_x
                           and bound_v <= shrink * _CHORD_TOL * reach_v):
                big[:, j0:j1] = xb, vb
                size_x, size_v = reach_x, reach_v
                return float(np.max(np.abs(res)))
            if done or step > _MAX_CHORD:
                break
            dx = solve(-res, fft)[0]
            change = float(np.max(np.abs(dx)))
            if not (change < last or j1 - j0 == 1 and change < math.inf):  # growing or NaN
                break
            done = change <= (1.0 - change / last) * _CHORD_TOL * reach_x
            # A single node takes Newton steps, a solver of its own each.
            if not done and (j1 - j0 == 1 or not fresh and change > 0.1 * last):
                fresh, mid = True, (j1 - j0) // 2
                solve, gain = symbol_solver(tb[mid], x0 + xb[mid], v0 + vb[mid], j1 - j0)
                block_solver = (solve, gain) if j1 - j0 > 1 else block_solver
            xb, last = xb + dx, change
        if j1 - j0 == 1:
            what = "chord steps did not converge" if within and math.isfinite(change) else (
                f"solution is not finite or exceeded {DIVERGENCE_GUARD:g}")
            raise DivergenceError(f"{what} at t = {t[j0]:g}")
        return None

    def times_d(v, fft):
        """D v: h**-alpha times the first v.size terms of w * v, by FFT if ``fft``."""
        if fft:
            return scale * np.fft.irfft(spec_w * np.fft.rfft(v, 2 * size), 2 * size)[: v.size]
        return scale * np.convolve(w[: v.size], v)[: v.size]

    def symbol_solver(tj, xj, vj, m):
        """The solve of m > 1 (a block) or 1 nodes with F's Jacobian at (tj, xj, vj).

        gain[:, k - 1] sums |r| and |D r| over k lags.
        """
        m = size if m > 1 else 1
        sx, sv = (max(_FD_REL_STEP * abs(u), _FD_ABS_FLOOR) for u in (xj, vj))
        f = _node_values(fode.rhs, np.full(4, tj), xj + np.array([sx, -sx, 0.0, 0.0]),
                         vj + np.array([0.0, 0.0, sv, -sv]))
        fx, fv = (f[0] - f[1]) / (2.0 * sx), (f[2] - f[3]) / (2.0 * sv)
        if not (math.isfinite(fx) and math.isfinite(fv)):
            fx = fv = 0.0  # the chord steps then find the node that is not finite
        # The linearized pair's modes z1, z2 are the roots of z**2 - F_v z -
        # F_x, and the diagonal s (s - F_v) - F_x is (s - z1) (s - z2) for s =
        # h**-alpha. The implicit step damps or flips a real mode at or above
        # s: one is where the diagonal is not positive, and both are where
        # they are real and their mean F_v / 2 lies above s.
        if scale * (scale - fv) - fx <= 0.0 or fv * fv + 4.0 * fx >= 0.0 and fv > 2.0 * scale:
            raise DivergenceError(f"F's Jacobian at t = {tj:g} has a growing mode at rate "
                                  f"h**-alpha = {scale:g} or faster: reduce h = {h:g}")
        solve, r = _block_solver(weights, np.array([scale * scale, -fv * scale]), -fx, m)
        return solve, np.cumsum(np.abs([r, times_d(r, m > 1)]), axis=1)

    defect = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite iterates halve or raise
        for lo, hi, far in _far_blocks(big, w):
            if not lo:
                size = hi
                weights = np.array([gl_weights(FracOrder(2.0 * alpha), size), w[:size]])
                spec_w = np.fft.rfft(w[:size], 2 * size)
                block_solver = symbol_solver(0.0, x0, v0, size)
            first = max(lo, 1)
            # Runs of nodes to solve, the next one last: (j0, j1, the far
            # parts of D X and D V from before node k0, k0, by FFT or not).
            runs = [(first, hi, scale * far[0, first - lo :] - v0, scale * far[1, first - lo :],
                     first, True)]
            while runs:
                j0, j1, far_x, far_v, k0, fft = runs.pop()
                if k0 < j0:  # add the lags from the nodes k0 .. j0 - 1
                    near = [np.convolve(w[: j1 - k0], g)[j0 - k0 : j1 - k0] for g in big[:, k0:j0]]
                    far_x, far_v = far_x + scale * near[0], far_v + scale * near[1]
                largest = chord(j0, j1, far_x, far_v, fft)
                if largest is None:
                    mid = (j0 + j1 + 1) // 2
                    runs += [(mid, j1, far_x[mid - j0 :], far_v[mid - j0 :], j0, False),
                             (j0, mid, far_x[: mid - j0], far_v[: mid - j0], j0, False)]
                else:
                    defect = max(defect, largest)
    x, v = x0 + big[0], v0 + big[1]
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
    f = _node_values(fde.forcing, path.times())
    res = acc - f
    drop = FracOrder(fde.max_order).m + 1
    if drop >= n - 1:
        raise ValueError("path is too short for a residual check at this order")
    return SampledPath(path.t0 + drop * path.h, path.h, res[drop:])

