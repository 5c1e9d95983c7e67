"""Jet coordinates of fractional order: lifts and truncated reconstruction.

A trajectory x(t) lifts to the coordinates (t, x, y^(alpha), ..., y^(k alpha))
where y^(a alpha) = D^(a alpha) x / Gamma(1 + a alpha). The scaling by the
gamma factor makes the truncated fractional power series read off the jet
values directly: x(t) ~ x(0) + sum_a t^(a alpha) y^(a alpha)(0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .fracops import FracOrder, SampledPath, Side, frac_deriv
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
        return self.y[a - 1][i]

    @classmethod
    def scalar(cls, t: float, x: float, ys: Sequence[float]) -> "JetPoint":
        """Convenience constructor for dimension one."""
        return cls(t, (float(x),), tuple((float(v),) for v in ys))


@dataclass(frozen=True)
class JetTrajectory:
    """A path (or several) together with its scaled fractional derivatives."""

    alpha: float
    k: int
    base: tuple[SampledPath, ...]
    y: tuple[tuple[SampledPath, ...], ...]

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.k < 1 or len(self.y) != self.k:
            raise ValueError("jet levels must match the declared order k")
        ref = self.base[0]
        for row in self.y:
            if len(row) != len(self.base):
                raise ValueError("every jet level must match the dimension")
        for p in (*self.base, *(p for row in self.y for p in row)):
            if not ref.same_grid(p):
                raise ValueError("all component paths must share one grid")

    @property
    def n(self) -> int:
        return len(self.base)

    @property
    def n_pts(self) -> int:
        return self.base[0].n_pts

    @property
    def h(self) -> float:
        return self.base[0].h

    def times(self) -> np.ndarray:
        return self.base[0].times()


def lift(
    paths: Union[SampledPath, Sequence[SampledPath]],
    alpha: float,
    k: int,
) -> JetTrajectory:
    """Lift one or more sampled paths to their order-k jet trajectory.

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
        raise ValueError("k must be a positive integer")
    levels = []
    for a in range(1, k + 1):
        order = FracOrder(alpha * a)
        scale = 1.0 / gamma(1.0 + alpha * a)
        levels.append(
            tuple(
                p.with_values(frac_deriv(p, order, Side.LEFT).values * scale)
                for p in base
            )
        )
    return JetTrajectory(alpha, k, base, tuple(levels))


def taylor_reconstruct(point: JetPoint, alpha: float, t_eval: float) -> tuple[float, ...]:
    """Truncated fractional power series from a jet point at the origin.

    Returns x^i(0) + sum_{a=1..k} t_eval**(a alpha) y^(i(a alpha)) for each
    coordinate. The jet values are already scaled, so they are the series
    coefficients themselves.
    """
    if abs(point.t) > 1e-12:
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
