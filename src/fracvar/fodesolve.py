"""Time steppers for fractional ordinary differential equations.

Two problem shapes are covered. ``MultiTermFDE`` is a linear equation

    sum_i c_i D^(mu_i) x(t) + c_0 x(t) = f(t),   x and its startup history 0,

solved with an implicit update: every history sum is evaluated with the new
node included, and the resulting scalar linear equation is solved for the
node. ``FODE2`` is the coupled first-order-in-alpha system

    D^alpha x = v,  D^alpha v = F(t, x, v),  x(0) = x0, v(0) = v0,

stepped explicitly with the right side lagged by one node. Initial values
enter through regularization: the solver advances the deviations x - x0 and
v - v0, which have zero history, so the fractional derivative of the
constant part drops out exactly.

Both solvers use the same convolution-weight discretization as the rest of
the package, so their output composes consistently with ``frac_deriv`` for
residual checks. Alpha equal to one is allowed in ``FODE2`` and reduces the
update to the explicit Euler step.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from .fracops import FracOrder, SampledPath, Side, frac_deriv, gl_weights
from .varcalc import _as_fn

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


class DivergenceError(RuntimeError):
    """Raised when an explicit solve leaves the trust region."""


@dataclass(frozen=True)
class MultiTermFDE:
    """Linear multi-term equation with zero startup history.

    ``terms`` holds (coefficient, order) pairs with positive orders; they
    are sorted by descending order at construction. Orders must be distinct
    and the leading coefficient nonzero. ``zero_order_coeff`` multiplies
    x itself and ``forcing`` is the right-hand side (callable or constant).
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
        orders = [mu for _, mu in terms]
        if any(abs(orders[i] - orders[i + 1]) < 1e-12 for i in range(len(orders) - 1)):
            raise ValueError("term orders must be distinct")
        if terms[0][0] == 0.0:
            raise ValueError("the leading coefficient must be nonzero")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "forcing", _as_fn(self.forcing))
        if self.t_end <= 0.0:
            raise ValueError("t_end must be positive")

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
        if self.t_end <= 0.0:
            raise ValueError("t_end must be positive")


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Solver output: the solution path, a defect measure, and step count.

    ``max_defect`` substitutes the computed nodes back into the discrete
    operators. For the implicit solver this checks the linear updates were
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
    if h <= 0.0:
        raise ValueError("step size must be positive")
    steps = int(round(t_end / h))
    if steps < 8:
        raise ValueError("at least 8 steps are required (reduce h)")
    if abs(steps * h - t_end) > 1e-8 * max(1.0, abs(t_end)):
        raise ValueError("step size must divide the interval length")
    return steps


def solve_multiterm(fde: MultiTermFDE, h: float) -> SolveReport:
    """Implicit stepping of a linear multi-term equation.

    Each step solves A x_j = f_j - (history sums), where A collects the
    zeroth-lag weight of every operator plus the zero-order coefficient.
    """
    steps = _grid_steps(fde.t_end, h)
    n = steps + 1
    scaled = [(c * h ** (-mu), gl_weights(FracOrder(mu), n)) for c, mu in fde.terms]
    diag = fde.zero_order_coeff + sum(s for s, _ in scaled)
    if diag == 0.0:
        raise ValueError("degenerate implicit update: operator diagonal is zero at this h")
    t = h * np.arange(n)
    f = np.array([fde.forcing(ti) for ti in t])
    x = np.zeros(n)
    for j in range(1, n):
        hist = 0.0
        for s, w in scaled:
            hist += s * float(np.dot(w[1 : j + 1], x[j - 1 :: -1][:j]))
        x[j] = (f[j] - hist) / diag
    lhs = fde.zero_order_coeff * x
    for (c, mu), (s, w) in zip(fde.terms, scaled):
        lhs = lhs + s * np.convolve(x, w)[:n]
    defect = float(np.max(np.abs(lhs[1:] - f[1:])))
    return SolveReport(SampledPath(0.0, h, x), defect, steps)


def solve_fode2(fode: FODE2, h: float) -> SolveReport:
    """Explicit stepping of the coupled pair with lagged right side.

    Advances X = x - x0 and V = v - v0, both with zero history, using the
    convolution weights of order alpha. Raises DivergenceError when a node
    passes the trust bound.
    """
    steps = _grid_steps(fode.t_end, h)
    n = steps + 1
    w = gl_weights(FracOrder(fode.alpha), n)
    ha = h**fode.alpha
    big_x = np.zeros(n)
    big_v = np.zeros(n)
    for j in range(1, n):
        hist_v = float(np.dot(w[1 : j + 1], big_v[j - 1 :: -1][:j]))
        hist_x = float(np.dot(w[1 : j + 1], big_x[j - 1 :: -1][:j]))
        t_prev = h * (j - 1)
        f_prev = fode.rhs(t_prev, fode.x0 + big_x[j - 1], fode.v0 + big_v[j - 1])
        big_v[j] = -hist_v + ha * f_prev
        big_x[j] = -hist_x + ha * (fode.v0 + big_v[j - 1])
        if abs(big_x[j]) > DIVERGENCE_GUARD or abs(big_v[j]) > DIVERGENCE_GUARD:
            raise DivergenceError(f"solution exceeded {DIVERGENCE_GUARD:g} at t = {h * j:g}")
    x = fode.x0 + big_x
    v = fode.v0 + big_v
    t = h * np.arange(n)
    f_now = np.array([fode.rhs(t[j], x[j], v[j]) for j in range(n)])
    dx = h ** (-fode.alpha) * np.convolve(big_x, w)[:n]
    dv = h ** (-fode.alpha) * np.convolve(big_v, w)[:n]
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
    f = np.array([fde.forcing(t) for t in path.times()])
    res = acc - f
    drop = FracOrder(fde.max_order).m + 1
    if drop >= n - 1:
        raise ValueError("path is too short for a residual check at this order")
    return SampledPath(path.t0 + drop * path.h, path.h, res[drop:])


# ---------------------------------------------------------------------------
# Model catalog.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelTemplate:
    """A named model with classical and fractional problem factories.

    ``kinds`` maps the variant name to "multiterm" or "fode2", which tells
    callers which solver to use on the object returned by ``make``.
    ``defaults`` lists the factory's keyword parameters and their defaults.
    """

    name: str
    description: str
    kinds: Mapping
    factory: Callable = field(repr=False)

    @property
    def defaults(self) -> dict:
        params = inspect.signature(self.factory).parameters.values()
        return {p.name: p.default for p in params if p.default is not p.empty}

    def make(self, variant: str, **params):
        if variant not in self.kinds:
            known = ", ".join(sorted(self.kinds))
            raise ValueError(f"model {self.name!r} has no variant {variant!r} (use {known})")
        return self.factory(variant, **params)


def _friction_factory(variant, m=1.0, gamma_coef=0.5, potential=None, x0=0.0, v0=1.0,
                      alpha=0.999, t_end=2.0):
    """Damped motion in a potential: m x'' + gamma x' - dU/dx = 0."""
    u = potential

    def u_x(t, x):
        if u is None:
            return 0.0
        s = max(1e-6 * abs(x), 1e-8)
        return (u(t, x + s) - u(t, x - s)) / (2.0 * s)

    def rhs(t, x, v):
        return (u_x(t, x) - gamma_coef * v) / m

    a = 1.0 if variant == "classical" else alpha
    return FODE2(alpha=a, rhs=rhs, x0=x0, v0=v0, t_end=t_end)


def _phillips_factory(variant, a1=0.5, b1=1.0, f=0.2, x0=1.0, v0=0.0, alpha=0.999, t_end=5.0):
    """Stabilization dynamics: x'' + a1 x' + b1 x + f = 0."""
    if variant == "classical":
        return MultiTermFDE(
            terms=((1.0, 2.0), (a1, 1.0)), zero_order_coeff=b1, forcing=-f, t_end=t_end
        )
    return FODE2(
        alpha=alpha,
        rhs=lambda t, x, v: -a1 * v - b1 * x - f,
        x0=x0,
        v0=v0,
        t_end=t_end,
    )


def _business_cycle_factory(variant, a1=0.5, a2=0.5, b1=1.0, f=0.2, alpha=0.5, t_end=1.0):
    """Third-order cycle dynamics: x''' + a2 x'' + a1 x' + b1 x + f = 0."""
    if variant == "classical":
        orders = (3.0, 2.0, 1.0)
    else:
        orders = (6.0 * alpha, 4.0 * alpha, 2.0 * alpha)
    return MultiTermFDE(
        terms=((1.0, orders[0]), (a2, orders[1]), (a1, orders[2])),
        zero_order_coeff=b1,
        forcing=-f,
        t_end=t_end,
    )


def _bt_default_forcing(t: float) -> float:
    # Manufactured so that x(t) = t**3 solves the default parameter set.
    return 6.0 * t + 6.0 / math.gamma(2.5) * t**1.5 + t**3


def _bagley_torvik_factory(variant, a=1.0, b=1.0, c=1.0, forcing=None, alpha=0.25, t_end=1.0):
    """Damped plate model: a x'' + b D^(3/2) x + c x = f(t)."""
    if forcing is None:
        forcing = _bt_default_forcing
    if variant == "classical":
        orders = (2.0, 1.5)
    else:
        orders = (8.0 * alpha, 6.0 * alpha)
    return MultiTermFDE(
        terms=((a, orders[0]), (b, orders[1])),
        zero_order_coeff=c,
        forcing=forcing,
        t_end=t_end,
    )


def model_catalog() -> tuple:
    """Built-in models, each with classical and fractional variants."""
    return (
        ModelTemplate(
            name="friction",
            description="damped motion in a potential: m x'' + g x' - dU/dx = 0",
            kinds={"classical": "fode2", "fractional": "fode2"},
            factory=_friction_factory,
        ),
        ModelTemplate(
            name="phillips",
            description="stabilization dynamics: x'' + a1 x' + b1 x + f = 0",
            kinds={"classical": "multiterm", "fractional": "fode2"},
            factory=_phillips_factory,
        ),
        ModelTemplate(
            name="business-cycle",
            description="third-order cycle dynamics: x''' + a2 x'' + a1 x' + b1 x + f = 0",
            kinds={"classical": "multiterm", "fractional": "multiterm"},
            factory=_business_cycle_factory,
        ),
        ModelTemplate(
            name="bagley-torvik",
            description="damped plate model: a x'' + b D^(3/2) x + c x = f(t)",
            kinds={"classical": "multiterm", "fractional": "multiterm"},
            factory=_bagley_torvik_factory,
        ),
    )


def find_model(name: str) -> ModelTemplate:
    for model in model_catalog():
        if model.name == name:
            return model
    known = ", ".join(m.name for m in model_catalog())
    raise KeyError(f"unknown model {name!r}; available: {known}")
