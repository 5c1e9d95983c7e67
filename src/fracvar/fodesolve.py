"""Time steppers for fractional ordinary differential equations.

Two problem shapes are covered. ``MultiTermFDE`` is a linear equation

    sum_i c_i D^(mu_i) x(t) + c_0 x(t) = f(t),   x and its startup history 0,

and ``FODE2`` the coupled first-order-in-alpha system

    D^alpha x = v,  D^alpha v = F(t, x, v),  x(0) = x0, v(0) = v0.

Both are solved implicitly: every history sum includes the new node, so
the discrete equations of a block of nodes form a lower-triangular
Toeplitz system. Initial values enter through regularization: the pair's
solver advances the deviations x - x0 and v - v0, which have zero history,
so the fractional derivative of the constant part drops out exactly; x - x0
is the order-alpha integral of v, so v is the only history it keeps.

Both solvers use the same convolution-weight discretization as the rest of
the package, so their output composes consistently with ``frac_deriv`` for
residual checks. Alpha equal to one is allowed in ``FODE2`` and makes the
scheme implicit Euler.

Every history sum uses the blocks of ``fracops._far_blocks``, taken one
at a time, of ``fracops._BLOCK`` nodes. They tile the unknown nodes
1 .. n - 1: node 0 is given and adds nothing to any sum, so a grid of
2**k + 1 nodes has no one-node last block. Both solvers invert a block's
multi-term symbol as a series r (`_symbol_inverse`) and take the in-block
products at `_fft_points`, each forward FFT and each inverse FFT serving
several products at once. ``solve_multiterm`` evaluates the forcing once
on the time array and solves each block at once by `_block_solver`: r
times the right side and one correction step. ``solve_fode2``, whose
right side may be nonlinear, eliminates x and solves each block for v by
chord steps, each one call of F on the block's nodes and one product with
r, the inverse of the two-term symbol of orders (2 alpha, alpha). No node
reads a later one: the schemes stay exactly causal. A non-finite solution
raises ``DivergenceError`` naming the first bad node.

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
    FracOrder,
    SampledPath,
    Side,
    _far_blocks,
    _on_grid,
    _require_finite,
    _support,
    _weights,
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
# _MAX_CHORD steps, and done once within _DONE, a quarter of _CHORD_TOL, of
# the solution (a block's error carries into the later blocks' sums).
# _FD_STEP max(1, |u|) is the library's central-difference step (F's Jacobian
# here, `varcalc`'s partials): eps**(1/3) balances s**2 truncation, eps / s rounding.
_MAX_CHORD, _CHORD_TOL = 10, 1e-10
_DONE, _FD_STEP = 0.25 * _CHORD_TOL, np.finfo(np.float64).eps ** (1.0 / 3.0)

# `_block_solver` sums lags below _HEAD directly; `_inverse_series` substitutes
# _START coefficients (_RUN for a polynomial symbol) and doubles them in runs
# up to _RUN.
_HEAD, _START, _RUN = 32, 8, 64


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
    to the rounding of the weights' composition. ``aux`` carries the
    velocity path for the coupled system, None otherwise.
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
    if not _on_grid(t_end, 0.0, h, steps):
        raise ValueError("step size must divide the interval length")
    return steps


def _inverse_series(a: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` coefficients of r = 1 / a(z).

    a(z) = sum_k a[k] z**k with a[0] nonzero. ``a`` may hold fewer than
    ``count`` lags (a polynomial symbol: integer orders only), and each
    coefficient reads only the lags it holds. The first _START coefficients
    come by forward substitution, the first _RUN for a polynomial symbol:
    with the shorter head the cubic business-cycle symbol's solves erred up
    to 11x more against long double. Each later run of min(k, _RUN) from
    coefficient k on, doubling the known head up to _RUN, solves its
    diagonal block of a's Toeplitz matrix, whose inverse is the Toeplitz
    matrix of r[:run]: one product with ``a`` sums the earlier
    coefficients, one convolution with r[:run] solves, and one more with
    the block's residual refines (the explicit inverse alone erred 5e-7 of
    max |r| on the classical business-cycle symbol at 2048 coefficients).
    """
    head = min(count, _RUN if a.size < count else _START)
    r = np.zeros(count)
    r[0] = 1.0 / a[0]
    for k in range(1, head):
        m = min(k, a.size - 1)
        r[k] = -a[1 : m + 1].dot(r[k - m : k][::-1]) / a[0]
    lags = np.zeros(count)  # lags[i] = a[i + 1]
    lags[: min(a.size, count) - 1] = a[1:count]
    k = head
    while k < count:
        run, m = min(k, _RUN, count - k), min(k, a.size - 1)
        # known[t] = sum over j = 1 .. m of a[j + t] r[k - j].
        known = sliding_window_view(lags[: m + run - 1], m)[:run] @ r[k - m : k][::-1]
        u = -np.convolve(r[:run], known)[:run]
        r[k : k + run] = u - np.convolve(r[:run], known + np.convolve(a[:run], u)[:run])[:run]
        k += run
    return r


def _node_values(fn, *args: np.ndarray) -> np.ndarray:
    """``fn`` at the nodes: one call on the arrays ``args``, else one call per node."""
    try:
        return np.broadcast_to(np.asarray(fn(*args), dtype=np.float64), args[0].shape)
    except (TypeError, ValueError):
        return np.array([fn(*node) for node in zip(*(a.tolist() for a in args))], dtype=np.float64)


def _fft_points(size: int) -> int:
    """The FFT length of products of two series of ``size`` terms: a power of two >= 2 size.

    One block holds every unknown node of a grid of up to _BLOCK + 1 nodes,
    and their count can have a large prime factor: on 510 nodes, 2 * 509
    points made the three-term solve take 1.5x and the linear FODE2 solve
    1.7x the time they took at 1024 points.
    """
    return 1 << (2 * size - 1).bit_length()


def _symbol_inverse(weights: np.ndarray, scales: np.ndarray, c0: float, size: int):
    """r over ``size`` lags, the inverse series of a = c0 delta + sum_i scales[i] weights[i].

    a is a block's lower-triangular Toeplitz symbol. A symbol that overflows
    or whose diagonal is zero raises ValueError.
    """
    # Lags past a weight row's last nonzero entry (integer orders) add
    # nothing to the sums within a block.
    a = scales @ weights[:, : _support(weights).max()]
    a[0] += c0
    if not np.all(np.isfinite(a)):
        raise ValueError("degenerate implicit update: scaled coefficients overflow at this h")
    if a[0] == 0.0:
        raise ValueError("degenerate implicit update: operator diagonal is zero at this h")
    return _inverse_series(a[:size], size)


def _block_solver(weights: np.ndarray, scales: np.ndarray, c0: float, size: int):
    """solve(rhs) -> (x_b, defect), the block solve of a * x_b = rhs.

    a = c0 delta + sum_i scales[i] weights[i] and r, its inverse series
    from `_symbol_inverse`, is taken over ``size`` lags. On rhs.size <=
    ``size`` nodes x_b = r * rhs, then one correction step x_b += r * (rhs
    - a * x_b); ``defect`` is max |rhs - a * x_b| of the result. The
    residuals sum each row's lags below _HEAD directly, row by row, and all
    longer lags through the tail row tail = sum_i s_i w_i[_HEAD:]. Where
    that row is nonzero the products are FFT products at `_fft_points`:
    one forward FFT of v and one two-row inverse give r * v and
    tail * (r * v) from the spectra of r and of the series tail * r, taken
    once. So a solve makes two forward and two inverse FFTs, and its defect
    reuses tail * x_b + tail * delta. Integer orders alone keep direct
    products. A solve whose FFTs turn non-finite is done again by direct
    sums, so that a non-finite x_b starts at its first non-finite node.
    Callers ignore overflow and invalid values in numpy: they raise at
    non-finite results.
    """
    r = _symbol_inverse(weights, scales, c0, size)
    supports = _support(weights)
    tail = np.concatenate([np.zeros(_HEAD), scales @ weights[:, _HEAD:size]])[:size]
    spectral, points = bool(np.any(tail)), _fft_points(size)
    if spectral:
        spec_r, spec_tail = np.fft.rfft([r, tail], points)
        tail_r = np.fft.irfft(spec_r * spec_tail, points)[:size]
        spec = np.array([spec_r, np.fft.rfft(tail_r, points)])

    def residual(rhs, xb, tail_xb=None):
        """rhs - a * xb, the lags from _HEAD on given as tail_xb if not None."""
        res = rhs - c0 * xb
        for s, w, m in zip(scales, weights, supports):
            m = m if tail_xb is None else min(m, _HEAD)
            res -= s * np.convolve(w[: min(m, xb.size)], xb)[: xb.size]
        return res if tail_xb is None else res - tail_xb

    def products(v):
        """r * v and tail * r * v, their first v.size terms."""
        return np.fft.irfft(spec * np.fft.rfft(v, points), points)[:, : v.size]

    def solve(rhs):
        if spectral:
            xb, tail_xb = products(rhs)
            step, tail_step = products(residual(rhs, xb, tail_xb))
            xb += step
            if np.all(np.isfinite(xb)):
                return xb, np.max(np.abs(residual(rhs, xb, tail_xb + tail_step)))
        xb = np.convolve(r[: rhs.size], rhs)[: rhs.size]
        xb += np.convolve(r[: rhs.size], residual(rhs, xb))[: rhs.size]
        return xb, np.max(np.abs(residual(rhs, xb)))

    return solve


def solve_multiterm(fde: MultiTermFDE, h: float) -> SolveReport:
    """Implicit solve of a linear multi-term equation, a block at a time.

    Node j satisfies c_0 x_j + sum_i s_i H_i(j) = f_j, where s_i =
    c_i h**(-mu_i) and H_i(j) is term i's history sum over the nodes up to
    j, node 0 is given (x_0 = 0) and the history before it is zero. The
    blocks of ``fracops._far_blocks`` tile the unknown nodes 1 .. n - 1, and
    each is one lower-triangular Toeplitz system (Podlubny 2000): with
    far_i the part of H_i that reaches earlier blocks, the block's nodes
    x_b solve a * x_b = rhs, where rhs = f - sum_i s_i far_i and a = c_0
    delta + sum_i s_i w_i is the combined symbol, by `_block_solver`. Its
    residual of the final nodes gives ``max_defect``. A non-finite block
    raises DivergenceError at its first non-finite node. Scaled
    coefficients that overflow raise ValueError.
    """
    steps = _grid_steps(fde.t_end, h)
    n = steps + 1
    with np.errstate(over="ignore", invalid="ignore"):
        # Weights of huge orders overflow in their recurrence, and a numpy
        # power overflows to inf where Python's raises OverflowError.
        weights = np.array([gl_weights(FracOrder(mu), n - 1) for _, mu in fde.terms])
        scales = np.array([c * np.float64(h) ** -mu for c, mu in fde.terms])
    f = _node_values(fde.forcing, h * np.arange(n))
    x = np.zeros(n)
    defect = 0.0
    blk = min(n - 1, _BLOCK)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite raises below
        solve = _block_solver(weights, scales, fde.zero_order_coeff, blk)
        for lo, hi, far in _far_blocks(x[1:], weights, blk):
            xb, largest = solve(f[lo + 1 : hi + 1] - scales @ far)
            if not np.all(np.isfinite(xb)):
                bad = lo + 1 + int(np.argmin(np.isfinite(xb)))
                raise DivergenceError(f"solution is not finite at t = {h * bad:g}")
            x[lo + 1 : hi + 1] = xb
            defect = max(defect, largest)
    return SolveReport(SampledPath(0.0, h, x), float(defect), steps)


def solve_fode2(fode: FODE2, h: float) -> SolveReport:
    """Implicit solve of the coupled pair, a block at a time, by chord steps.

    Node j >= 1 of X = x - x0 and V = v - v0 (zero history, weights w of
    order alpha) solves h**-alpha (w * X)_j = v_j and h**-alpha (w * V)_j =
    F(t_j, x0 + X_j, v_j): implicit Euler at alpha = 1. The blocks of
    ``fracops._far_blocks``, of _BLOCK nodes, tile the nodes 1 .. n - 1,
    and each is one run of nodes. With D = h**-alpha T(w), the first
    equation gives X = D**-1 v over the nodes from 1 on, where
    D**-1 = h**alpha T(w_int) takes the weights of order -alpha, which
    invert w's (Lubich 1985). So v is the only history, and v0 enters once,
    as D V = D v - h**-alpha v0 cumsum(w). (Summing D**-1 V and h**alpha v0
    cumsum(w_int) instead cancels where x stays far below v0 t**alpha: on
    stiff friction x lost 2.8e-10 of max |x|.) On each run, given the parts
    of X and D V that reach earlier nodes, V solves the second equation by
    chord steps from the line through the last two nodes. A step takes
    D**-1 v and D v from one forward FFT and one two-row inverse FFT, calls
    F once on the run's node arrays (node by node where F refuses arrays, as
    ``MultiTermFDE.forcing``), forms the residual R = D V - F, a fresh
    history sum of the iterate, and takes dX = -r * R and dV = D dX =
    -(D r) * R from one more transform pair. r is the inverse series of the
    symbol D**2 - F_v D - F_x of orders (2 alpha, alpha)
    (`_symbol_inverse`), taken without a correction step: the next step's R
    makes up for it. F_x and F_v are central differences at (0, x0, v0),
    taken once afresh at a run's middle node where its steps shrink by less
    than 10x; they serve later runs.

    Nodes are done when X and V are estimated within _DONE, a quarter of
    _CHORD_TOL, of max |X| and max(|v0|, max |V|) from the implicit
    equations' solution: the step dX, dV is that small, or the bounds sum
    |r| max |R| and sum |D r| max |R| on it already say so, each over the
    steps' shrink factor. They keep the iterate whose R was measured; its
    largest |R| is ``max_defect``. Runs whose steps stop shrinking, or pass
    _MAX_CHORD, are halved and solved in order, by direct sums (free of the
    FFT roundoff that fast-growing nodes spread), down to single nodes,
    which take Newton steps, as a one-node block does.
    Raises DivergenceError at the first node whose X or V is non-finite or
    passes DIVERGENCE_GUARD, or whose steps do not converge alone; F is
    never called on a later block. It also raises, naming t and h, where F's
    Jacobian, wherever it is taken, has a real mode at rate h**-alpha or
    above: the implicit step would damp that growth or flip its sign.
    """
    steps = _grid_steps(fode.t_end, h)
    n = steps + 1
    alpha, x0, v0 = fode.alpha, fode.x0, fode.v0
    w = gl_weights(FracOrder(alpha), n - 1)
    scale = h**-alpha
    ops = np.array([h**alpha * _weights(-alpha, n - 1), scale * w])  # the weights of D**-1 and D
    big = np.array([np.zeros(n), np.full(n, v0)])  # X and v
    t = h * np.arange(n)
    size_x, size_v = 0.0, abs(v0)  # V is measured against max(|v0|, max |V|)

    def chord(j0, j1, past, fft):
        """Nodes j0 .. j1 - 1 into ``big``, given the parts ``past`` of X and D V from before j0.

        past[0] holds D**-1 of the earlier v, so that X = past[0] + D**-1 v on the run.
        Returns their largest |R|, or None where the steps do not converge.
        """
        nonlocal chord_solver, size_x, size_v
        series, spec, gain = chord_solver
        m = j1 - j0
        newton = m == 1  # a single node takes Newton steps, by direct sums
        fft = fft and not newton
        slope = big[1, j0 - 1] - big[1, j0 - 2] if j0 >= 2 else 0.0
        tb, vb = t[j0:j1], big[1, j0 - 1] - v0 + slope * np.arange(1, m + 1)
        last, fresh = math.inf, False
        for _ in range(_MAX_CHORD):
            # X and D V: their past parts plus D**-1 v and D v on the run.
            if fft:
                xb, dvb = past + np.fft.irfft(np.fft.rfft(v0 + vb, points) * spec_d, points)[:, :m]
            else:
                xb, dvb = past + [np.convolve(u[:m], v0 + vb)[:m] for u in ops]
            res = dvb - _node_values(fode.rhs, tb, x0 + xb, v0 + vb)
            # Past the guard, FFT roundoff of the large nodes can reach the
            # small ones: those nodes are halved down to the first past it.
            within = np.max(np.abs([xb, vb])) <= DIVERGENCE_GUARD  # False for NaN
            reach_x = max(size_x, float(np.max(np.abs(xb))))
            reach_v = max(size_v, float(np.max(np.abs(vb))))
            largest = float(np.max(np.abs(res)))
            # The steps shrink by about change / last each, so the iterate's
            # distance to their limit is about change / (1 - change / last).
            # The next step is at most sum |r| max |R| in X, sum |D r| max |R| in V.
            bound_x, bound_v = gain[:, m - 1] * largest
            shrink = 1.0 - bound_x / last
            if within and bound_x <= shrink * _DONE * reach_x and (
                    bound_v <= shrink * _DONE * reach_v):
                break
            # The step dX = -r * R and its V part dV = D dX = -(D r) * R.
            if fft:
                step = np.fft.irfft(spec * np.fft.rfft(-res, points), points)[:, :m]
            else:
                step = np.array([np.convolve(row[:m], -res)[:m] for row in series])
            change, change_v = (float(c) for c in np.max(np.abs(step), axis=1))
            if not (change < last or newton and change < math.inf):  # growing or NaN
                return stalled(j0, newton, within and math.isfinite(change))
            shrink = 1.0 - change / last if change < last else 0.0
            if change <= shrink * _DONE * reach_x and change_v <= shrink * _DONE * reach_v:
                if not within:
                    return stalled(j0, newton, False)
                break
            # A Newton step takes a solver of its own each time.
            if newton or not fresh and change > 0.1 * last:
                fresh, mid = True, m // 2
                series, spec, gain = symbol_solver(tb[mid], x0 + xb[mid], v0 + vb[mid], newton)
                chord_solver = chord_solver if newton else (series, spec, gain)
            vb, last = vb + step[1], change
        else:
            return stalled(j0, newton, within)
        big[:, j0:j1] = xb, v0 + vb
        size_x, size_v = reach_x, reach_v
        return largest

    def stalled(j0, newton, finite):
        """None, for a run to halve, or DivergenceError for a single node."""
        if not newton:
            return None
        what = "chord steps did not converge" if finite else (
            f"solution is not finite or exceeded {DIVERGENCE_GUARD:g}")
        raise DivergenceError(f"{what} at t = {t[j0]:g}")

    def symbol_solver(tj, xj, vj, newton):
        """(series, spec, gain) of a block, or a ``newton`` node, with F's Jacobian at (tj, xj, vj).

        series holds r and D r, spec their spectra (None for a node), and
        gain[:, k - 1] sums |r| and |D r| over k lags.
        """
        sx, sv = (_FD_STEP * max(1.0, abs(u)) for u in (xj, vj))
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
        r = _symbol_inverse(weights, np.array([scale * scale, -fv * scale]), -fx,
                            1 if newton else size)
        if newton:
            series, spec = np.array([r, scale * r]), None
        else:
            series = np.array([r, np.fft.irfft(np.fft.rfft(r, points) * spec_d[1], points)[:size]])
            spec = np.fft.rfft(series, points)
        return series, spec, np.cumsum(np.abs(series), axis=1)

    # Blocks of at most _BLOCK nodes: on one block of 1024, the chord steps
    # of Duffing's F stalled and were halved down to direct sums, at twice the time.
    size = min(n - 1, _BLOCK)
    points = _fft_points(size)
    weights = np.array([gl_weights(FracOrder(2.0 * alpha), size), w[:size]])
    spec_d = np.fft.rfft(ops[:, :size], points)
    from_v0 = v0 * np.cumsum(ops[1])  # D v - D V, the part of D v from v0
    defect = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite iterates halve or raise
        chord_solver = symbol_solver(0.0, x0, v0, False)
        for lo, hi, far in _far_blocks(big[1, 1:], ops, size):
            far[1] -= from_v0[lo:hi]
            k0 = lo + 1  # the block's first node
            runs = [(k0, hi + 1)]  # runs of nodes j0 .. j1 - 1 to solve, the next one last
            while runs:
                j0, j1 = runs.pop()
                # X's and D V's parts before j0: the block's far part plus its nodes k0 .. j0 - 1.
                past = far[:, j0 - k0 : j1 - k0]
                if j0 > k0:
                    g = big[1, k0:j0]
                    past = past + [np.convolve(u[: j1 - k0], g)[j0 - k0 : j1 - k0] for u in ops]
                largest = chord(j0, j1, past, j1 - j0 == hi - lo)  # FFT products on a whole block
                if largest is None:
                    mid = (j0 + j1 + 1) // 2
                    runs += [(mid, j1), (j0, mid)]
                else:
                    defect = max(defect, largest)
    x, v = x0 + big[0], big[1]
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

