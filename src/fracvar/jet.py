"""Jet coordinates of fractional order: lifts and truncated reconstruction.

A trajectory x(t) lifts to the coordinates (t, x, y^(alpha), ..., y^(k alpha))
where y^(a alpha) = D^(a alpha) x / Gamma(1 + a alpha). The scaling by the
gamma factor makes the truncated fractional power series read off the jet
values directly: x(t) ~ x(0) + sum_a t^(a alpha) y^(a alpha)(0).

A lifted trajectory keeps its jet data in one array of shape (k + 1, n, N):
level a, coordinate i, node j, with level 0 the paths themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .fracops import FracOrder, SampledPath, Side, _step_scale, frac_deriv
from .specfun import gamma

__all__ = ["JetPoint", "JetTrajectory", "lift", "taylor_reconstruct"]


@dataclass(frozen=True)
class JetPoint:
    """A single point (t, x^i, y^(i(a alpha))) with finite entries.

    ``y[a-1][i]`` holds the level-a jet of coordinate i.
    """

    t: float
    x: tuple[float, ...]
    y: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        object.__setattr__(self, "y", tuple(tuple(float(v) for v in row) for row in self.y))
        entries = [self.t, *self.x]
        for row in self.y:
            if len(row) != len(self.x):
                raise ValueError("every jet level must match the dimension of x")
            entries.extend(row)
        if not all(math.isfinite(v) for v in entries):
            raise ValueError("jet point entries must be finite")

    @property
    def n(self) -> int:
        return len(self.x)

    @property
    def k(self) -> int:
        return len(self.y)

    def y_at(self, a: int, i: int = 0) -> float:
        """Jet value of level a (1-based) for coordinate i."""
        if not 1 <= a <= self.k:
            raise ValueError(f"jet level {a} out of range for order {self.k}")
        if not 0 <= i < self.n:
            raise ValueError(f"coordinate index {i} out of range for dimension {self.n}")
        return self.y[a - 1][i]

    @classmethod
    def scalar(cls, t: float, x: float, ys: Sequence[float]) -> "JetPoint":
        """Convenience constructor for dimension one."""
        return cls(t, (float(x),), tuple((float(v),) for v in ys))


@dataclass(frozen=True, eq=False)
class JetTrajectory:
    """Paths and their scaled fractional derivatives on the grid t_j = t0 + j h.

    ``jets``, a read-only float copy of shape (k + 1, n >= 1, N >= 2), holds
    at [a, i, j] the level-a jet of coordinate i at node j; level 0 is x.
    """

    alpha: float
    k: int
    t0: float
    h: float
    jets: np.ndarray

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.k < 1:
            raise ValueError("jet order k must be at least 1")
        if not (math.isfinite(self.t0) and 0.0 < self.h < math.inf):
            raise ValueError("start t0 must be finite and step h finite and positive")
        jets = np.array(self.jets, dtype=np.float64)
        if jets.ndim != 3 or jets.shape[0] != self.k + 1 or jets.shape[1] < 1 or jets.shape[2] < 2:
            raise ValueError("jets must have shape (k + 1, n, N) with n >= 1 and N >= 2")
        jets.setflags(write=False)
        object.__setattr__(self, "jets", jets)

    @property
    def n(self) -> int:
        return self.jets.shape[1]

    @property
    def n_pts(self) -> int:
        return self.jets.shape[2]

    @property
    def y(self) -> tuple[tuple[SampledPath, ...], ...]:
        """Levels 1 .. k as paths, built on access: ``y[a - 1][i]`` is jets[a, i]."""
        return tuple(tuple(SampledPath(self.t0, self.h, v) for v in level) for level in self.jets[1:])

    def times(self) -> np.ndarray:
        return self.t0 + self.h * np.arange(self.n_pts)


def lift(
    paths: Union[SampledPath, Sequence[SampledPath]],
    alpha: float,
    k: int,
) -> JetTrajectory:
    """Lift one or more sampled paths on one grid to their order-k jet trajectory.

    Level a holds frac_deriv(x, a alpha, left) / Gamma(1 + a alpha). The base
    node of each level carries the copied-neighbor convention of frac_deriv.
    """
    if isinstance(paths, SampledPath):
        paths = (paths,)
    base = tuple(paths)
    if not base:
        raise ValueError("need at least one path")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if k < 1:
        raise ValueError("jet order k must be at least 1")
    ref = base[0]
    if not all(ref.same_grid(p) for p in base):
        raise ValueError("all component paths must share one grid")
    # h**-mu is monotone in mu: the largest order fails before any level is computed.
    _step_scale(alpha * k, ref.h)
    jets = np.empty((k + 1, len(base), ref.n_pts))
    jets[0] = [p.values for p in base]
    # Top level first: the highest order is the first to fail a check.
    for a in range(k, 0, -1):
        order = FracOrder(alpha * a)
        scale = 1.0 / gamma(1.0 + alpha * a)
        jets[a] = [frac_deriv(p, order, Side.LEFT).values * scale for p in base]
    return JetTrajectory(alpha, k, ref.t0, ref.h, jets)


def taylor_reconstruct(point: JetPoint, alpha: float, t_eval: float) -> tuple[float, ...]:
    """Truncated fractional power series from a jet point at t = 0 exactly.

    Returns x^i(0) + sum_{a=1..k} t_eval**(a alpha) y^(i(a alpha)) for each
    coordinate. The jet values are already scaled, so they are the series
    coefficients themselves.
    """
    if point.t != 0.0:
        raise ValueError("reconstruction expects a jet point at t = 0")
    if t_eval < 0.0:
        raise ValueError("t_eval must be non-negative")
    out = []
    for i in range(point.n):
        acc = point.x[i]
        for a in range(1, point.k + 1):
            acc += t_eval ** (alpha * a) * point.y[a - 1][i]
        out.append(acc)
    return tuple(out)
