"""Lagrangians on fractional jet coordinates.

Supports fractional partial derivatives of a Lagrangian with respect to any
single coordinate, action integrals along lifted trajectories, residuals of
the stationarity equations in both their fractional and classical variants,
Hessians in the first-level jet velocities, and the explicit right-hand side
of the induced second-order field for regular first-order Lagrangians.

The residual of a trajectory is

    residual_i = P_i + sum_{a=1..k} (-1)**a  D^(a alpha)[ p_{i,a} ]

where p_{i,a} is the partial of L in the level-a jet coordinate evaluated
along the trajectory and then differentiated in time as a sampled function.
The classical variant takes ordinary partials, the fractional variant takes
fractional partials of order alpha in each coordinate.

Momentum differentiation uses constant-base regularization with the base
sample taken at a corrected base point: jet levels of non-integer order are
zeroed there (their interior limit on smooth paths), while integer-order
levels keep the copied-neighbor value (their limit is an ordinary derivative
and generally nonzero). Without this the copied base sample of a lifted
coordinate, which is O(h**frac) rather than 0, smears a spurious power-law
tail through the outer derivative and the residual stops converging.

Lagrangians are evaluated on whole arrays. A callback (``eval_fn`` or an
analytic partial) gets one argument with the layout of a `JetPoint`,
``p.t``, ``p.x[i]`` and ``p.y[a-1][i]``, whose fields are numpy arrays of
one broadcast shape: the nodes of a trajectory, the samples of a partial's
internal grid, or both when partials nest. It must act elementwise (numpy
operations; ``np.where`` or ``np.any`` rather than ``if`` on a value),
must not write to its argument, and returns that shape or a scalar, which
is broadcast. There is no per-point fallback: a callable that accepts only
floats raises its own error.

A classical partial without an analytic one is a central difference of the
solver's step, _FD_STEP max(1, |v|). A fractional partial in one coordinate
samples the callback at FRAC_PARTIAL_NODES points from the coordinate's
lower terminal to its value, the last sample being the value itself, and
takes the last node of the Grunwald-Letnikov sum on that grid. It is zero
at the terminal.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field
from enum import Enum
from types import SimpleNamespace
from typing import Callable, Mapping, Optional

import numpy as np

from .fodesolve import FODE2, MultiTermFDE, _FD_STEP, _as_fn
# perfbench/tracing.py patches frac_deriv and frac_deriv_from_base here by name.
from .fracops import FracOrder, SampledPath, frac_deriv, frac_deriv_from_base, gl_weights
from .fracops import _require_finite
from .jet import JetPoint, JetTrajectory
from .specfun import gamma

__all__ = [
    "Variant",
    "Lagrangian",
    "ELResidualReport",
    "HessianG",
    "frac_partial",
    "action",
    "el_residual",
    "hessian_g",
    "el_explicit_rhs",
    "bagley_torvik_lagrangian",
    "order_potential_lagrangian",
    "power_law_mixed_lagrangian",
    "lagrangian_catalog",
    "make_lagrangian",
    "model_catalog",
    "make_model",
]

# Samples of the internal grid of a fractional partial, terminal to value.
FRAC_PARTIAL_NODES = 513

# Leading rows of columns a fractional partial samples at once, at least
# this many and fewer than twice: each of its grids of _PARTIAL_ROWS x
# FRAC_PARTIAL_NODES values takes about 1 MiB.
_PARTIAL_ROWS = 256

_VALIDATION_POINTS = 100


class Variant(str, Enum):
    CLASSICAL = "classical"
    FRACTIONAL = "fractional"


Coord = tuple
# A callback gets JetPoint's layout with array fields (see the module
# docstring). A ColumnsFn maps coordinate columns (t, x^0 .. x^(n-1), then
# each jet level's n entries), arrays of one shape, to that shape.
PointFn = Callable[[SimpleNamespace], np.ndarray]
Columns = tuple
ColumnsFn = Callable[[Columns], np.ndarray]


def _normalize_coord(coord, n: int, k: int) -> Coord:
    """Canonical coordinate selector: ("t",), ("x", i) or ("y", a, i)."""
    if coord == "t" or coord == ("t",):
        return ("t",)
    if coord == "x":
        coord = ("x", 0)
    if isinstance(coord, tuple) and coord and coord[0] == "x":
        i = int(coord[1])
        if not 0 <= i < n:
            raise ValueError(f"coordinate index {i} out of range for dimension {n}")
        return ("x", i)
    if isinstance(coord, tuple) and coord and coord[0] == "y":
        a = int(coord[1])
        i = int(coord[2]) if len(coord) > 2 else 0
        if not 1 <= a <= k:
            raise ValueError(f"jet level {a} out of range for order {k}")
        if not 0 <= i < n:
            raise ValueError(f"coordinate index {i} out of range for dimension {n}")
        return ("y", a, i)
    raise ValueError(f"unrecognized coordinate selector: {coord!r}")


def _columns(t, x, y) -> Columns:
    """Columns from a time, n coordinates and k rows of n jet values."""
    return tuple(np.asarray(v, dtype=np.float64) for v in (t, *x, *(v for row in y for v in row)))


def _call(fn: PointFn, n: int) -> ColumnsFn:
    """A callback as a function of columns; scalar returns are broadcast."""

    def call(cols: Columns) -> np.ndarray:
        y = tuple(cols[i : i + n] for i in range(n + 1, len(cols), n))
        p = SimpleNamespace(t=cols[0], x=cols[1 : n + 1], y=y)
        return np.broadcast_to(np.asarray(fn(p), dtype=np.float64), cols[0].shape)

    return call


@dataclass(frozen=True)
class Lagrangian:
    """A scalar function of (t, x, y^(alpha), ..., y^(k alpha)).

    ``eval_fn`` and the optional analytic partials ``partial_x[i]`` and
    ``partial_y[a-1][i]`` are effect-free callbacks on whole arrays: their
    argument has JetPoint's layout with array fields of one shape, and they
    return that shape or a scalar (see the module docstring). Analytic
    partials are cross-checked against central differences at construction,
    in one batched call per coordinate over a fixed set of random points
    (positive coordinate ranges, so power-law integrands stay real).
    ``frac_partial_base`` maps coordinate selectors to lower terminals for
    fractional partials; missing entries default to zero.
    """

    k: int
    n: int
    alpha: float
    eval_fn: PointFn
    partial_x: Optional[tuple[PointFn, ...]] = None
    partial_y: Optional[tuple[tuple[PointFn, ...], ...]] = None
    frac_partial_base: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.k < 1 or self.n < 1:
            raise ValueError("order k and dimension n must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.partial_x is not None and len(self.partial_x) != self.n:
            raise ValueError("partial_x must have one entry per coordinate")
        if self.partial_y is not None:
            if len(self.partial_y) != self.k or any(len(r) != self.n for r in self.partial_y):
                raise ValueError("partial_y must be a k by n table")
        terminals = {
            _normalize_coord(c, self.n, self.k): float(v)
            for c, v in dict(self.frac_partial_base).items()
        }
        object.__setattr__(self, "frac_partial_base", terminals)
        self._validate_partials()

    def _validate_partials(self) -> None:
        n, k = self.n, self.k
        coords = [("x", i) for i in range(n)] if self.partial_x is not None else []
        if self.partial_y is not None:
            coords += [("y", a, i) for a in range(1, k + 1) for i in range(n)]
        if not coords:
            return
        width = n * (k + 1)
        lo, hi = [0.05] + [0.3] * width, [1.0] + [1.2] * width
        pts = np.random.default_rng(170451).uniform(lo, hi, (_VALIDATION_POINTS, 1 + width))
        cols = tuple(np.ascontiguousarray(pts.T))
        evaluate = _call(self.eval_fn, n)
        for coord in coords:
            ana, fd = (_partial(self, coord, 1.0, fn)(cols) for fn in (None, evaluate))
            # Written so that a NaN on either side fails the check.
            scale = np.maximum(1.0, np.maximum(np.abs(ana), np.abs(fd)))
            bad = ~(np.abs(ana - fd) <= 1e-6 * scale)
            if np.any(bad):
                j = int(np.argmax(bad))
                raise ValueError(
                    f"analytic partial at {coord} disagrees with finite differences "
                    f"({ana[j]:.6g} vs {fd[j]:.6g})"
                )


def _partial(
    L: Lagrangian, coord: Coord, alpha: float, fn: Optional[ColumnsFn] = None
) -> ColumnsFn:
    """Partial of ``fn`` (default: L) in one coordinate, over whole arrays.

    The result maps columns of one shape to that shape. It calls ``fn`` once,
    on the columns with one trailing axis appended: the varied coordinate at
    full size, the others as broadcast views. So a partial of a partial
    makes one call on a 2-D grid. alpha = 1: the ordinary partial, L's
    analytic one if ``fn`` is L and it is given, else a central difference
    on v +- _FD_STEP max(1, |v|). 0 < alpha < 1: the order-alpha partial
    from the coordinate's lower terminal (see the module docstring). Its
    grid has FRAC_PARTIAL_NODES samples per value, so columns of
    2 * _PARTIAL_ROWS or more leading rows are taken in chunks of
    _PARTIAL_ROWS rows (the last chunk takes the remainder), with one call
    each; every row's result is the same as from one call.
    """
    head, *idx = coord
    if fn is None and alpha == 1.0 and head == "x" and L.partial_x is not None:
        return _call(L.partial_x[idx[0]], L.n)
    if fn is None and alpha == 1.0 and head == "y" and L.partial_y is not None:
        return _call(L.partial_y[idx[0] - 1][idx[1]], L.n)
    fn = fn or _call(L.eval_fn, L.n)
    j = 0 if head == "t" else 1 + idx[0] if head == "x" else 1 + L.n * idx[0] + idx[1]
    terminal = L.frac_partial_base.get(coord, 0.0)
    # Only the last node of each sample row's history sum is needed.
    w = gl_weights(FracOrder(alpha), FRAC_PARTIAL_NODES)[::-1].copy()

    def partial(cols: Columns) -> np.ndarray:
        v = cols[j]
        if alpha == 1.0:
            s = _FD_STEP * np.maximum(1.0, np.abs(v))
            grid = np.stack((v + s, v - s), axis=-1)
        elif np.any(v < terminal - 1e-12):
            raise ValueError(
                f"coordinate value {float(np.min(v)):g} lies below its lower terminal {terminal:g}"
            )
        elif v.ndim and len(v) >= 2 * _PARTIAL_ROWS:
            # The last chunk takes the remainder: BLAS would round a chunk of a
            # few rows differently from the same rows of one call.
            cuts = range(_PARTIAL_ROWS, len(v) - _PARTIAL_ROWS + 1, _PARTIAL_ROWS)
            parts = zip(*(np.split(c, cuts) for c in cols))
            return np.concatenate([partial(part) for part in parts])
        else:
            grid = np.linspace(terminal, np.maximum(v, terminal), FRAC_PARTIAL_NODES, axis=-1)
        grid.setflags(write=False)
        grow = lambda c: np.broadcast_to(c[..., None], grid.shape)  # noqa: E731
        f = fn(tuple(grid if m == j else grow(c) for m, c in enumerate(cols)))
        if alpha == 1.0:
            return (f[..., 0] - f[..., 1]) / (2.0 * s)
        hg = (grid[..., -1] - terminal) / (FRAC_PARTIAL_NODES - 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = ((f - f[..., :1]) @ w) * hg**-alpha
        # At the terminal itself the regularized derivative vanishes.
        return np.where(hg == 0.0, 0.0, out)

    return partial


def frac_partial(L: Lagrangian, coord, point: JetPoint, alpha: Optional[float] = None) -> float:
    """Left fractional derivative of L along one coordinate direction.

    Samples s -> L(..., s, ...) from the coordinate's lower terminal
    (default 0) to its value, as the module docstring describes, and
    differentiates to order ``alpha`` (L's own alpha when omitted). For
    alpha equal to one this is the classical partial.
    """
    alpha = L.alpha if alpha is None else alpha
    c = _normalize_coord(coord, L.n, L.k)
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1] for a fractional partial")
    return float(_partial(L, c, alpha)(_columns(point.t, point.x, point.y)))


def _trajectory_columns(L: Lagrangian, traj: JetTrajectory) -> Columns:
    """The trajectory's columns, once it agrees with L in alpha, k and n."""
    if traj.k != L.k or abs(traj.alpha - L.alpha) > 1e-12:
        raise ValueError("trajectory and Lagrangian disagree in alpha or order k")
    if traj.n != L.n:
        raise ValueError("trajectory and Lagrangian disagree in dimension")
    return _columns(traj.times(), traj.jets[0], traj.jets[1:])


def action(L: Lagrangian, traj: JetTrajectory) -> float:
    """Trapezoid quadrature of L along a lifted trajectory.

    The base node is excluded by substituting the first interior value,
    since jet values at the base carry the copied-neighbor convention.
    """
    vals = np.array(_call(L.eval_fn, L.n)(_trajectory_columns(L, traj)))
    vals[0] = vals[1]
    return float(np.trapezoid(vals, dx=traj.h))


@dataclass(frozen=True, eq=False)
class ELResidualReport:
    """Residual paths of the stationarity equations plus an interior norm.

    ``norm_inf`` is the max absolute residual over interior nodes, with the
    first and last ``excluded`` nodes dropped (startup region of the
    history sums). It is NaN when any interior residual is.
    """

    residual: tuple[SampledPath, ...]
    norm_inf: float
    variant: Variant
    excluded: int


def _momentum_base(L: Lagrangian, cols: Columns) -> Columns:
    """The first node's columns with non-integer-order jet levels zeroed.

    The copied-neighbor base sample of a level with non-integer order a
    alpha is O(h**frac) while the true limit on a smooth path is zero, so
    momenta are anchored at zero there. Integer-order levels keep the copy:
    their limit is a classical derivative and need not vanish.
    """
    return tuple(
        np.zeros(1) if m > L.n and not FracOrder(L.alpha * ((m - 1) // L.n)).is_integer else c[:1]
        for m, c in enumerate(cols)
    )


def el_residual(
    L: Lagrangian,
    traj: JetTrajectory,
    variant: Variant = Variant.CLASSICAL,
) -> ELResidualReport:
    """Residual of the stationarity equations along a lifted trajectory.

    For each coordinate i the residual is P_i plus the alternating sum of
    order-(a alpha) time derivatives of the momenta p_{i,a}. The classical
    variant uses ordinary partials of L, the fractional variant uses
    fractional partials of order alpha. Momenta are differentiated with
    constant-base regularization anchored at the corrected base point (see
    the module docstring).
    """
    variant = Variant(variant)
    cols = _trajectory_columns(L, traj)
    n_pts = traj.n_pts
    excluded = FracOrder(L.alpha * L.k).m + 1
    if 2 * excluded >= n_pts:
        raise ValueError("grid is too short for the interior norm")
    order = L.alpha if variant is Variant.FRACTIONAL else 1.0
    base = _momentum_base(L, cols)

    residuals = []
    for i in range(L.n):
        res = _partial(L, ("x", i), order)(cols)
        for a in range(1, L.k + 1):
            pa = _partial(L, ("y", a, i), order)
            momenta = SampledPath(traj.t0, traj.h, pa(cols))
            deriv = frac_deriv_from_base(momenta, FracOrder(L.alpha * a), float(pa(base)[0]))
            res = res + (-1.0) ** a * deriv.values
        residuals.append(SampledPath(traj.t0, traj.h, res))

    interior = np.stack([r.values for r in residuals])[:, excluded : n_pts - excluded]
    return ELResidualReport(tuple(residuals), float(np.max(np.abs(interior))), variant, excluded)


@dataclass(frozen=True, eq=False)
class HessianG:
    """Second-derivative matrix of L in the first-level jet velocities."""

    g: np.ndarray
    det: float
    regular: bool


def hessian_g(L: Lagrangian, point: JetPoint, variant: Variant = Variant.CLASSICAL) -> HessianG:
    """Hessian g_ij of L with respect to y^(i(alpha)), y^(j(alpha)).

    The classical variant takes central differences of `_partial`'s step:
    of L's analytic first partials when present (rounding about eps**(2/3)
    of their size), else nested ones of L (about eps**(1/3) of L's size).
    The fractional variant nests two fractional partials of order alpha,
    one callback call on a grid of FRAC_PARTIAL_NODES squared samples per
    entry. Singularity is reported through the ``regular`` flag rather than
    an error.
    """
    order = L.alpha if Variant(variant) is Variant.FRACTIONAL else 1.0
    cols = _columns(point.t, point.x, point.y)
    n = L.n
    g = np.empty((n, n))
    for j in range(n):
        first = _partial(L, ("y", 1, j), order)
        for i in range(n):
            g[i, j] = _partial(L, ("y", 1, i), order, first)(cols)
    det = float(np.linalg.det(g))
    return HessianG(g, det, abs(det) > 1e-10)


def el_explicit_rhs(L: Lagrangian, point: JetPoint) -> tuple[float, ...]:
    """Explicit field of a regular first-order Lagrangian at a point.

    Returns M^i = g^(ik) ( D^alpha_{x^k} L - d_t^alpha phi_k ) where
    phi_k is the fractional partial of L in y^(k(alpha)) and
    d_t^alpha = D_t^alpha + y^(j(alpha)) D^alpha_{x^j}. The Hessian g is the
    classical one so the field stays defined at zero velocity. The induced
    equation reads D^alpha y^(i(alpha)) = M^i, which is
    D^(2 alpha) x^i = Gamma(1 + alpha) M^i in the unscaled derivative.
    """
    if L.k != 1:
        raise ValueError("the explicit field is defined for first-order Lagrangians")
    hess = hessian_g(L, point, Variant.CLASSICAL)
    if not hess.regular:
        raise ValueError("Lagrangian is singular at this point (det g is zero)")
    cols = _columns(point.t, point.x, point.y)
    alpha, n = L.alpha, L.n
    force = np.empty(n)
    for kk in range(n):
        phi = _partial(L, ("y", 1, kk), alpha)
        dt_phi = _partial(L, ("t",), alpha, phi)(cols)
        for j in range(n):
            dt_phi = dt_phi + point.y[0][j] * _partial(L, ("x", j), alpha, phi)(cols)
        force[kk] = _partial(L, ("x", kk), alpha)(cols) - dt_phi
    return tuple(float(v) for v in np.linalg.solve(hess.g, force))


# ---------------------------------------------------------------------------
# Built-in catalogs: Lagrangians, and the models derived from them.
#
# Every Lagrangian ships two coefficient sets. "normalized" recomputes each
# gamma factor so the classical-variant residual reproduces the target
# equation exactly under the scaled-jet convention: differentiating a
# level-a jet to order a alpha gives D^(2 a alpha) x / Gamma(1 + a alpha),
# so a quadratic term reproducing coef * D^(2 a alpha) x needs the prefactor
# Gamma(1 + a alpha), not the Gamma(1 + 2 a alpha) that appears when that
# scaling is dropped. "literature" keeps the latter, conventional, factors.
# A quadratic entry's kinetic part is one level map {jet level a: q_a}, and
# its normalized classical Euler-Lagrange equation U_x + sum_a q_a
# D^(2 a alpha) x = 0 gives the terms (q_a, 2 a alpha) (`_el_terms`) of
# the model catalog's multi-term equations (phillips classical,
# business-cycle, bagley-torvik), which are not written out.
#
# ``lagrangian_catalog()`` is a dict of name to factory and
# ``model_catalog()`` one of name to (description, factory), whose factory
# takes the variant first and returns a MultiTermFDE or a FODE2. Both are
# built by `_build`: ``make_lagrangian(name, **params)`` and
# ``make_model(name, variant, **params)`` raise ValueError for an unknown
# name (or variant), a parameter the entry does not take, or a non-finite
# float.
# ---------------------------------------------------------------------------

def _plate_levels(a: float, b: float) -> dict:
    """The plate's level map: a D^(8 alpha) x + b D^(6 alpha) x."""
    return {3: b, 4: a}


def _bt_default_forcing(t: float) -> float:
    """The plate's default forcing, manufactured so that t**3 solves the default parameters."""
    return 6.0 * t + 6.0 / gamma(2.5) * t**1.5 + t**3


def _potential_levels(k: int, a1: float, a2: float) -> dict:
    """The order-k potential's level map {1: a1, 2: a2, 3: 1} cut to levels 1..k, the top one 1."""
    return {a: q for a, q in ((1, a1), (2, a2)) if a < k} | {k: 1.0}


def _alpha_gammas(coefficients: str, alpha: float, multiples) -> list:
    """Gamma(1 + m alpha) per multiple m; ValueError naming alpha and the set if one overflows."""
    try:
        return [gamma(1 + m * alpha) for m in multiples]
    except OverflowError:
        raise ValueError(
            f"alpha = {alpha:g} overflows the Gamma factors of the {coefficients!r} coefficients"
        ) from None


def _level_coefs(coefficients: str, alpha: float, levels: dict) -> dict:
    """(-1)**a q_a Gamma(1 + s a alpha) per level: s = 1 "normalized", 2 "literature"."""
    scale = {"normalized": 1, "literature": 2}.get(coefficients)
    if scale is None:
        raise ValueError(f"unknown coefficient set: {coefficients!r}")
    factors = _alpha_gammas(coefficients, alpha, (scale * a for a in levels))
    return {a: (-1.0) ** a * q * g for (a, q), g in zip(levels.items(), factors)}


def _el_terms(alpha: float, levels: dict) -> tuple:
    """The Euler-Lagrange terms (q_a, 2 a alpha) of a level map, zero q_a kept."""
    return tuple((q, 2 * a * alpha) for a, q in levels.items())


def _quadratic(alpha: float, u, u_x, coefs: dict, cross: float = 0.0) -> Lagrangian:
    """L = U(t, x) + sum_a (coefs[a]/2) (y^(a alpha))**2 + cross y^(alpha) y^(2 alpha).

    One coordinate, of order k = the top level of ``coefs``, a {level:
    coefficient} dict; missing levels are zero. ``u`` is U(t, x) and ``u_x``
    its x-derivative, or None for finite differences. The level-a momentum
    is coefs[a] y^(a alpha), plus cross times the other level's jet at
    levels one and two; a level with a zero coefficient adds nothing to L.
    """
    # Jet rows are 0-based: row r holds level r + 1.
    coefs = [coefs.get(r + 1, 0.0) for r in range(max(coefs))]
    halves = [(r, c / 2) for r, c in enumerate(coefs) if c]

    def evaluate(p: JetPoint) -> float:
        out = u(p.t, p.x[0])
        for r, half in halves:
            out = out + half * p.y[r][0] ** 2
        if cross:
            out = out + cross * p.y[0][0] * p.y[1][0]
        return out

    def momentum(r: int) -> PointFn:
        # (coefficient, row) of row r's own jet, then of the cross term's other row.
        terms = [(c, j) for c, j in ((coefs[r], r), (cross if r < 2 else 0.0, 1 - r)) if c]
        return lambda p: sum((c * p.y[j][0] for c, j in terms), 0.0)

    return Lagrangian(
        k=len(coefs),
        n=1,
        alpha=alpha,
        eval_fn=evaluate,
        partial_x=None if u_x is None else (lambda p: u_x(p.t, p.x[0]),),
        partial_y=tuple((momentum(r),) for r in range(len(coefs))),
    )


def bagley_torvik_lagrangian(
    a: float = 1.0,
    b: float = 1.0,
    c: float = 1.0,
    forcing=None,
    alpha: float = 0.25,
    coefficients: str = "normalized",
) -> Lagrangian:
    """Order-4 Lagrangian whose classical residual is the damped plate model.

    L = c x**2 / 2 - f(t) x - (b/2) C3 (y^(3 alpha))**2 + (a/2) C4 (y^(4 alpha))**2.

    ``forcing`` None is the model catalog's manufactured f (see
    ``_bt_default_forcing``); 0.0 gives the unforced plate.

    With normalized coefficients C3 = Gamma(1+3 alpha), C4 = Gamma(1+4 alpha)
    the classical residual along a lifted path equals
    a D^(8 alpha) x + b D^(6 alpha) x + c x - f, which at alpha = 1/4 is the
    plate equation with orders (2, 3/2). The literature set uses
    C3 = Gamma(1+6 alpha), C4 = Gamma(1+8 alpha).
    """
    f = _as_fn(_bt_default_forcing if forcing is None else forcing)
    return _quadratic(
        alpha,
        lambda t, x: 0.5 * c * x**2 - f(t) * x,
        lambda t, x: c * x - f(t),
        _level_coefs(coefficients, alpha, _plate_levels(a, b)),
    )


def order_potential_lagrangian(
    k: int,
    alpha: float = 0.5,
    a1: float = 0.0,
    a2: float = 0.0,
    potential=None,
    potential_x=None,
    coefficients: str = "normalized",
    potential_quadratic: float = 0.0,
) -> Lagrangian:
    """Quadratic-kinetic Lagrangian families of order one, two or three.

    L = U(t, x) + sum_{a=1..k} s_a (q_a / 2) C_a (y^(a alpha))**2 with
    alternating signs s_a = (-1)**a and damping factors (q_1, q_2, q_3) =
    (a1, a2, 1) truncated to the top order (the leading coefficient is one).
    The classical residual along a lifted path is then

        k = 1:  V + D^(2 alpha) x
        k = 2:  V + a1 D^(2 alpha) x + D^(4 alpha) x
        k = 3:  V + a1 D^(2 alpha) x + a2 D^(4 alpha) x + D^(6 alpha) x

    with V = dU/dx, exactly for normalized coefficients
    C_a = Gamma(1 + a alpha). The literature set uses Gamma(1 + 2 a alpha).
    ``potential`` is U(t, x); pass ``potential_x`` for its x-derivative to
    get analytic partials, otherwise finite differences are used. A nonzero
    ``potential_quadratic`` q stands for U = q x**2 / 2 with U_x = q x, and
    excludes both.
    """
    if k not in (1, 2, 3):
        raise ValueError("the family is defined for k in {1, 2, 3}")
    if q := potential_quadratic:
        if potential is not None or potential_x is not None:
            raise ValueError("potential_quadratic excludes potential and potential_x")
        potential, potential_x = lambda t, x: 0.5 * q * x * x, lambda t, x: q * x
    coefs = _level_coefs(coefficients, alpha, _potential_levels(k, a1, a2))
    u = potential if potential is not None else (lambda t, x: 0.0)
    return _quadratic(alpha, u, potential_x, coefs)


def power_law_mixed_lagrangian(
    c: float = 1.0,
    gamma_exp: float = 1.0,
    a1: float = 1.0,
    a2: float = 1.0,
    alpha: float = 0.5,
    forcing=None,
    coefficients: str = "normalized",
) -> Lagrangian:
    """Order-2 Lagrangian targeting a power-law force with mixed jet orders.

    The target residual is

        c' f(t) x**(gamma - alpha) + a1 D^(2 alpha) x + a2 D^(3 alpha) x

    with c' = c Gamma(1+gamma) / Gamma(1+gamma-alpha). The odd order
    3 alpha cannot come from squared terms alone, so the normalized set uses
    a cross term:

        L = c'' f(t) x**(gamma+1-alpha) - (a1/2) Gamma(1+alpha) (y^(alpha))**2
            + beta y^(alpha) y^(2 alpha)

    where c'' = c' / (1+gamma-alpha) and
    beta = a2 / (1/Gamma(1+alpha) - 1/Gamma(1+2 alpha)). That denominator
    vanishes near alpha ~ 0.302 and the construction is rejected there.

    The residual identity holds along paths whose classical first derivative
    vanishes at the grid start; otherwise the mixed-order composition picks
    up a genuine singular tail proportional to that derivative and residual
    agreement degrades (this is a property of the operators, not the
    discretization).

    Coefficient set "literature" keeps the squared-term form with
    Gamma(1+2 alpha), Gamma(1+3 alpha) factors; "literature-fractional"
    raises the jets to the power alpha (for use with the fractional
    variant; requires non-negative jet values).
    """
    f = _as_fn(forcing if forcing is not None else 1.0)
    g1, g2, g3 = _alpha_gammas(coefficients, alpha, (1, 2, 3))
    try:
        cp = c * gamma(1 + gamma_exp) / gamma(1 + gamma_exp - alpha)
    except (OverflowError, ZeroDivisionError):
        raise ValueError(
            f"gamma_exp = {gamma_exp:g} puts Gamma(1 + gamma_exp) or Gamma(1 + gamma_exp - alpha) "
            "out of floating-point range"
        ) from None
    # Where this divisor is zero, gamma(1 + gamma_exp - alpha) has raised at its pole.
    cpp = cp / (1.0 + gamma_exp - alpha)
    u = lambda t, x: cpp * f(t) * x ** (1.0 + gamma_exp - alpha)
    u_x = lambda t, x: cpp * (1.0 + gamma_exp - alpha) * f(t) * x ** (gamma_exp - alpha)
    if coefficients == "normalized":
        denom = 1.0 / g1 - 1.0 / g2
        if abs(denom) < 1e-8:
            raise ValueError(
                "the cross-term construction degenerates at this alpha "
                "(equal gamma factors at levels one and two)"
            )
        return _quadratic(alpha, u, u_x, {1: -a1 * g1, 2: 0.0}, cross=a2 / denom)
    if coefficients == "literature":
        return _quadratic(alpha, u, u_x, {1: -a1 * g2, 2: a2 * g3})
    if coefficients == "literature-fractional":

        def evaluate(p: JetPoint) -> float:
            y1, y2 = p.y[0][0], p.y[1][0]
            if np.any(y1 < 0.0) or np.any(y2 < 0.0):
                raise ValueError("fractional jet powers need non-negative jet values")
            return (
                c / (1.0 + gamma_exp - alpha) * p.x[0] ** gamma_exp
                - a1 * g2 * y1**alpha
                + a2 * g3 * y2**alpha
            )

        return Lagrangian(k=2, n=1, alpha=alpha, eval_fn=evaluate)
    raise ValueError(f"unknown coefficient set: {coefficients!r}")


def lagrangian_catalog() -> dict:
    """Name to factory mapping for the built-in Lagrangians."""
    return {
        "bagley-torvik": bagley_torvik_lagrangian,
        "order1-potential": functools.partial(order_potential_lagrangian, 1),
        "order2-potential": functools.partial(order_potential_lagrangian, 2),
        "order3-potential": functools.partial(order_potential_lagrangian, 3),
        "power-law-mixed": power_law_mixed_lagrangian,
    }


def _friction_factory(variant, m=1.0, gamma_coef=0.5, potential=None, x0=0.0, v0=1.0,
                      alpha=0.999, t_end=2.0):
    """Damped motion in a potential: m x'' + gamma x' - dU/dx = 0."""
    if m == 0.0:
        raise ValueError("m must be nonzero")
    u = potential

    def u_x(t, x):
        if u is None:
            return 0.0
        s = _FD_STEP * np.maximum(1.0, np.abs(x))
        return (u(t, x + s) - u(t, x - s)) / (2.0 * s)

    def rhs(t, x, v):
        return (u_x(t, x) - gamma_coef * v) / m

    a = 1.0 if variant == "classical" else alpha
    return FODE2(alpha=a, rhs=rhs, x0=x0, v0=v0, t_end=t_end)


def _phillips_factory(variant, a1=0.5, b1=1.0, f=0.2, x0=1.0, v0=0.0, alpha=0.999, t_end=5.0):
    """Stabilization dynamics: x'' + a1 x' + b1 x + f = 0."""
    if variant == "classical":
        return MultiTermFDE(_el_terms(0.5, _potential_levels(2, a1, 0.0)), b1, -f, t_end)
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


def model_catalog() -> dict:
    """Name to (description, factory) of the built-in models; a factory takes the variant."""
    return {
        "friction": ("damped motion in a potential: m x'' + g x' - dU/dx = 0", _friction_factory),
        "phillips": ("stabilization dynamics: x'' + a1 x' + b1 x + f = 0", _phillips_factory),
        "business-cycle": ("third-order cycle dynamics: x''' + a2 x'' + a1 x' + b1 x + f = 0",
                           _business_cycle_factory),
        "bagley-torvik": ("damped plate model: a x'' + b D^(3/2) x + c x = f(t)",
                          _bagley_torvik_factory),
    }


def _build(kind: str, catalog: dict, name: str, *args, **params):
    """``catalog[name](*args, **params)``, the constructor of both catalogs.

    ValueError, named, for an unknown name, a keyword the factory does not
    take, or a non-finite float (forcings and potentials may be callables).
    """
    if name not in catalog:
        raise ValueError(f"unknown {kind} {name!r}; available: {', '.join(catalog)}")
    for key, value in params.items():
        if key not in inspect.signature(catalog[name]).parameters:
            raise ValueError(f"{kind} {name!r} takes no parameter {key!r}")
        if isinstance(value, (float, np.floating)):
            _require_finite(**{key: value})
    return catalog[name](*args, **params)


def make_lagrangian(name: str, **params) -> Lagrangian:
    return _build("Lagrangian", lagrangian_catalog(), name, **params)


def make_model(name: str, variant: str, **params):
    """The model's problem in ``variant``, a MultiTermFDE or a FODE2; ValueError as in ``_build``."""
    variants = [v.value for v in Variant]
    if variant not in variants:
        raise ValueError(f"model {name!r} has no variant {variant!r} (use {', '.join(variants)})")
    factories = {n: factory for n, (_, factory) in model_catalog().items()}
    return _build("model", factories, name, variant, **params)
