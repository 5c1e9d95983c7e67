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
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Mapping, Optional

import numpy as np

from .fracops import FracOrder, SampledPath, Side, frac_deriv, frac_deriv_from_base
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
]

# Internal grid for one-dimensional fractional partials.
FRAC_PARTIAL_NODES = 513
FRAC_PARTIAL_MIN_SPAN = 1e-3

# Step policy for classical finite-difference partials.
_FD_REL_STEP = 1e-6
_FD_ABS_FLOOR = 1e-8

_VALIDATION_POINTS = 100


class Variant(str, Enum):
    FRACTIONAL = "fractional"
    CLASSICAL = "classical"


Coord = tuple
PointFn = Callable[[JetPoint], float]


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


def _coord_value(point: JetPoint, coord: Coord) -> float:
    if coord[0] == "t":
        return point.t
    if coord[0] == "x":
        return point.x[coord[1]]
    return point.y[coord[1] - 1][coord[2]]


def _point_with(point: JetPoint, coord: Coord, value: float) -> JetPoint:
    if coord[0] == "t":
        return JetPoint(value, point.x, point.y)
    if coord[0] == "x":
        x = list(point.x)
        x[coord[1]] = value
        return JetPoint(point.t, tuple(x), point.y)
    a, i = coord[1], coord[2]
    y = [list(row) for row in point.y]
    y[a - 1][i] = value
    return JetPoint(point.t, point.x, tuple(tuple(row) for row in y))


def _central_diff(fn: PointFn, point: JetPoint, coord: Coord) -> float:
    v = _coord_value(point, coord)
    s = max(_FD_REL_STEP * abs(v), _FD_ABS_FLOOR)
    hi = fn(_point_with(point, coord, v + s))
    lo = fn(_point_with(point, coord, v - s))
    return (hi - lo) / (2.0 * s)


@dataclass(frozen=True)
class Lagrangian:
    """A scalar function of (t, x, y^(alpha), ..., y^(k alpha)).

    ``eval_fn`` must be effect free. Analytic partials are optional; when
    provided they are cross-checked against central differences on a fixed
    set of random points at construction time (positive coordinate ranges,
    so power-law integrands stay real). ``frac_partial_base`` maps
    coordinate selectors to lower terminals for fractional partials; missing
    entries default to zero.
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
        if self.partial_x is None and self.partial_y is None:
            return
        rng = np.random.default_rng(170451)
        for _ in range(_VALIDATION_POINTS):
            t = float(rng.uniform(0.05, 1.0))
            x = tuple(rng.uniform(0.3, 1.2, self.n))
            y = tuple(tuple(rng.uniform(0.3, 1.2, self.n)) for _ in range(self.k))
            point = JetPoint(t, x, y)
            pairs = []
            if self.partial_x is not None:
                pairs += [(("x", i), self.partial_x[i]) for i in range(self.n)]
            if self.partial_y is not None:
                pairs += [
                    (("y", a, i), self.partial_y[a - 1][i])
                    for a in range(1, self.k + 1)
                    for i in range(self.n)
                ]
            for coord, pfn in pairs:
                ana = pfn(point)
                fd = _central_diff(self.eval_fn, point, _normalize_coord(coord, self.n, self.k))
                if abs(ana - fd) > 1e-6 * max(1.0, abs(ana), abs(fd)):
                    raise ValueError(
                        f"analytic partial at {coord} disagrees with finite differences "
                        f"({ana:.6g} vs {fd:.6g})"
                    )

    def eval(self, point: JetPoint) -> float:
        return float(self.eval_fn(point))

    def classical_partial(self, coord, point: JetPoint) -> float:
        """Ordinary partial in one coordinate: analytic if available."""
        c = _normalize_coord(coord, self.n, self.k)
        if c[0] == "x" and self.partial_x is not None:
            return float(self.partial_x[c[1]](point))
        if c[0] == "y" and self.partial_y is not None:
            return float(self.partial_y[c[1] - 1][c[2]](point))
        return _central_diff(self.eval_fn, point, c)


def _frac_partial_fn(
    fn: PointFn,
    coord: Coord,
    point: JetPoint,
    alpha: float,
    terminal: float,
) -> float:
    value = _coord_value(point, coord)
    if value < terminal - 1e-12:
        raise ValueError(
            f"coordinate value {value:g} lies below its lower terminal {terminal:g}"
        )
    span = value - terminal
    grid_span = max(span, FRAC_PARTIAL_MIN_SPAN)
    hg = grid_span / (FRAC_PARTIAL_NODES - 1)
    idx = int(round(span / hg))
    if idx == 0:
        # At the terminal itself the regularized derivative vanishes.
        return 0.0
    s = terminal + hg * np.arange(FRAC_PARTIAL_NODES)
    samples = np.array([fn(_point_with(point, coord, float(si))) for si in s])
    deriv = frac_deriv(SampledPath(terminal, hg, samples), FracOrder(alpha), Side.LEFT)
    return float(deriv.values[idx])


def frac_partial(L: Lagrangian, coord, point: JetPoint, alpha: Optional[float] = None) -> float:
    """Left fractional derivative of L along one coordinate direction.

    Samples s -> L(..., s, ...) on an internal grid from the coordinate's
    lower terminal (default 0) to its current value, with a floor of
    FRAC_PARTIAL_MIN_SPAN on the grid length, and differentiates to order
    ``alpha`` (the Lagrangian's own alpha when omitted). Exactly at the
    terminal the result is zero. For alpha equal to one this reduces to the
    classical partial.
    """
    if alpha is None:
        alpha = L.alpha
    c = _normalize_coord(coord, L.n, L.k)
    if alpha == 1.0:
        return L.classical_partial(c, point)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1] for a fractional partial")
    terminal = L.frac_partial_base.get(c, 0.0)
    return _frac_partial_fn(L.eval_fn, c, point, alpha, terminal)


def action(L: Lagrangian, traj: JetTrajectory) -> float:
    """Trapezoid quadrature of L along a lifted trajectory.

    The base node is excluded by substituting the first interior value,
    since jet values at the base carry the copied-neighbor convention.
    """
    if abs(traj.alpha - L.alpha) > 1e-12 or traj.k != L.k:
        raise ValueError("trajectory and Lagrangian disagree in alpha or order k")
    if traj.n != L.n:
        raise ValueError("trajectory and Lagrangian disagree in dimension")
    vals = np.array([L.eval(traj.point_at(j)) for j in range(traj.n_pts)])
    vals[0] = vals[1]
    return float(np.trapezoid(vals, dx=traj.h))


@dataclass(frozen=True, eq=False)
class ELResidualReport:
    """Residual paths of the stationarity equations plus an interior norm.

    ``norm_inf`` is the max absolute residual over interior nodes, with the
    first and last ``excluded`` nodes dropped (startup region of the
    history sums).
    """

    residual: tuple[SampledPath, ...]
    norm_inf: float
    variant: Variant
    excluded: int


def _momentum_base_point(traj: JetTrajectory) -> JetPoint:
    """Base point with non-integer-order jet levels zeroed.

    The copied-neighbor base sample of a level with non-integer order a
    alpha is O(h**frac) while the true limit on a smooth path is zero, so
    momenta are anchored at zero there. Integer-order levels keep the copy:
    their limit is a classical derivative and need not vanish.
    """
    p0 = traj.point_at(0)
    y = []
    for a in range(1, traj.k + 1):
        if FracOrder(traj.alpha * a).is_integer:
            y.append(p0.y[a - 1])
        else:
            y.append(tuple(0.0 for _ in range(traj.n)))
    return JetPoint(p0.t, p0.x, tuple(y))


def _partial_fn(
    L: Lagrangian, coord: Coord, variant: Variant, fn: Optional[PointFn] = None
) -> PointFn:
    """Partial of ``fn`` (default: L) in one coordinate, as momenta take it.

    Classical: the ordinary partial, L's analytic one when present.
    Fractional: the order-alpha partial from the coordinate's lower terminal.
    """
    if variant is Variant.CLASSICAL:
        if fn is None:
            return lambda pt: L.classical_partial(coord, pt)
        return lambda pt: _central_diff(fn, pt, coord)
    terminal = L.frac_partial_base.get(coord, 0.0)
    target = L.eval_fn if fn is None else fn
    return lambda pt: _frac_partial_fn(target, coord, pt, L.alpha, terminal)


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
    if traj.k != L.k or abs(traj.alpha - L.alpha) > 1e-12:
        raise ValueError("trajectory and Lagrangian disagree in alpha or order k")
    if traj.n != L.n:
        raise ValueError("trajectory and Lagrangian disagree in dimension")
    n_pts = traj.n_pts
    points = [traj.point_at(j) for j in range(n_pts)]
    base_point = _momentum_base_point(traj)

    residuals = []
    for i in range(L.n):
        px = _partial_fn(L, ("x", i), variant)
        res = np.array([px(pt) for pt in points])
        for a in range(1, L.k + 1):
            pa = _partial_fn(L, ("y", a, i), variant)
            momenta = SampledPath(traj.base[0].t0, traj.h, np.array([pa(pt) for pt in points]))
            base_val = pa(base_point)
            deriv = frac_deriv_from_base(momenta, FracOrder(L.alpha * a), base_val)
            res = res + (-1.0) ** a * deriv.values
        residuals.append(SampledPath(traj.base[0].t0, traj.h, res))

    excluded = FracOrder(L.alpha * L.k).m + 1
    if 2 * excluded >= n_pts:
        raise ValueError("grid is too short for the interior norm")
    norm = max(
        float(np.max(np.abs(r.values[excluded : n_pts - excluded]))) for r in residuals
    )
    return ELResidualReport(tuple(residuals), norm, variant, excluded)


@dataclass(frozen=True, eq=False)
class HessianG:
    """Second-derivative matrix of L in the first-level jet velocities."""

    g: np.ndarray
    det: float
    regular: bool


def hessian_g(L: Lagrangian, point: JetPoint, variant: Variant = Variant.CLASSICAL) -> HessianG:
    """Hessian g_ij of L with respect to y^(i(alpha)), y^(j(alpha)).

    The classical variant nests finite differences (or differentiates the
    analytic first partials when present). The fractional variant nests two
    fractional partials of order alpha. Singularity is reported through the
    ``regular`` flag rather than an error.
    """
    variant = Variant(variant)
    n = L.n
    g = np.empty((n, n))
    for j in range(n):
        first = _partial_fn(L, ("y", 1, j), variant)
        for i in range(n):
            g[i, j] = _partial_fn(L, ("y", 1, i), variant, first)(point)
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
    frac = Variant.FRACTIONAL
    n = L.n
    force = np.empty(n)
    for kk in range(n):
        phi = _partial_fn(L, ("y", 1, kk), frac)
        dt_phi = _partial_fn(L, ("t",), frac, phi)(point)
        for j in range(n):
            dt_phi += point.y[0][j] * _partial_fn(L, ("x", j), frac, phi)(point)
        dx_l = _partial_fn(L, ("x", kk), frac)(point)
        force[kk] = dx_l - dt_phi
    m = np.linalg.solve(hess.g, force)
    return tuple(float(v) for v in m)


# ---------------------------------------------------------------------------
# Built-in Lagrangian catalog.
#
# Every entry ships two coefficient sets. "normalized" recomputes each gamma
# factor so the classical-variant residual reproduces the target equation
# exactly under the scaled-jet convention: differentiating a level-a jet to
# order a alpha gives D^(2 a alpha) x / Gamma(1 + a alpha), so a quadratic
# term reproducing coef * D^(2 a alpha) x needs the prefactor
# Gamma(1 + a alpha), not the Gamma(1 + 2 a alpha) that appears when that
# scaling is dropped. "literature" keeps the latter, conventional, factors.
# ---------------------------------------------------------------------------

def _as_fn(value) -> Callable[[float], float]:
    """A forcing given as None (zero), a constant or a callable of t, as a callable."""
    if callable(value):
        return value
    v = 0.0 if value is None else float(value)
    return lambda t: v


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

    With normalized coefficients C3 = Gamma(1+3 alpha), C4 = Gamma(1+4 alpha)
    the classical residual along a lifted path equals
    a D^(8 alpha) x + b D^(6 alpha) x + c x - f, which at alpha = 1/4 is the
    plate equation with orders (2, 3/2). The literature set uses
    C3 = Gamma(1+6 alpha), C4 = Gamma(1+8 alpha).
    """
    f = _as_fn(forcing)
    if coefficients == "normalized":
        c3, c4 = gamma(1 + 3 * alpha), gamma(1 + 4 * alpha)
    elif coefficients == "literature":
        c3, c4 = gamma(1 + 6 * alpha), gamma(1 + 8 * alpha)
    else:
        raise ValueError(f"unknown coefficient set: {coefficients!r}")
    return Lagrangian(
        k=4,
        n=1,
        alpha=alpha,
        eval_fn=lambda p: 0.5 * c * p.x[0] ** 2
        - f(p.t) * p.x[0]
        - 0.5 * b * c3 * p.y[2][0] ** 2
        + 0.5 * a * c4 * p.y[3][0] ** 2,
        partial_x=(lambda p: c * p.x[0] - f(p.t),),
        partial_y=(
            (lambda p: 0.0,),
            (lambda p: 0.0,),
            (lambda p: -b * c3 * p.y[2][0],),
            (lambda p: a * c4 * p.y[3][0],),
        ),
    )


def order_potential_lagrangian(
    k: int,
    alpha: float = 0.5,
    a1: float = 0.0,
    a2: float = 0.0,
    potential=None,
    potential_x=None,
    coefficients: str = "normalized",
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
    get analytic partials, otherwise finite differences are used.
    """
    if k not in (1, 2, 3):
        raise ValueError("the family is defined for k in {1, 2, 3}")
    if coefficients == "normalized":
        cs = [gamma(1 + a * alpha) for a in range(1, k + 1)]
    elif coefficients == "literature":
        cs = [gamma(1 + 2 * a * alpha) for a in range(1, k + 1)]
    else:
        raise ValueError(f"unknown coefficient set: {coefficients!r}")
    damp = {1: (1.0,), 2: (a1, 1.0), 3: (a1, a2, 1.0)}[k]
    u = potential if potential is not None else (lambda t, x: 0.0)

    def evaluate(p: JetPoint) -> float:
        out = u(p.t, p.x[0])
        for a in range(1, k + 1):
            out += (-1.0) ** a * 0.5 * damp[a - 1] * cs[a - 1] * p.y[a - 1][0] ** 2
        return out

    partial_x = None
    if potential_x is not None:
        partial_x = (lambda p: potential_x(p.t, p.x[0]),)
    partial_y = tuple(
        (lambda p, _a=a: (-1.0) ** _a * damp[_a - 1] * cs[_a - 1] * p.y[_a - 1][0],)
        for a in range(1, k + 1)
    )
    return Lagrangian(
        k=k, n=1, alpha=alpha, eval_fn=evaluate, partial_x=partial_x, partial_y=partial_y
    )


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
    cp = c * gamma(1 + gamma_exp) / gamma(1 + gamma_exp - alpha)
    # Where this divisor is zero, gamma(1 + gamma_exp - alpha) has raised at its pole.
    cpp = cp / (1.0 + gamma_exp - alpha)
    x_term = lambda p: cpp * f(p.t) * p.x[0] ** (1.0 + gamma_exp - alpha)
    partial_x = (
        lambda p: cpp * (1.0 + gamma_exp - alpha) * f(p.t) * p.x[0] ** (gamma_exp - alpha),
    )
    if coefficients == "normalized":
        denom = 1.0 / gamma(1 + alpha) - 1.0 / gamma(1 + 2 * alpha)
        if abs(denom) < 1e-8:
            raise ValueError(
                "the cross-term construction degenerates at this alpha "
                "(equal gamma factors at levels one and two)"
            )
        beta = a2 / denom
        c1 = gamma(1 + alpha)
        return Lagrangian(
            k=2,
            n=1,
            alpha=alpha,
            eval_fn=lambda p: x_term(p)
            - 0.5 * a1 * c1 * p.y[0][0] ** 2
            + beta * p.y[0][0] * p.y[1][0],
            partial_x=partial_x,
            partial_y=(
                (lambda p: -a1 * c1 * p.y[0][0] + beta * p.y[1][0],),
                (lambda p: beta * p.y[0][0],),
            ),
        )
    if coefficients == "literature":
        c1, c2 = gamma(1 + 2 * alpha), gamma(1 + 3 * alpha)
        return Lagrangian(
            k=2,
            n=1,
            alpha=alpha,
            eval_fn=lambda p: x_term(p)
            - 0.5 * a1 * c1 * p.y[0][0] ** 2
            + 0.5 * a2 * c2 * p.y[1][0] ** 2,
            partial_x=partial_x,
            partial_y=(
                (lambda p: -a1 * c1 * p.y[0][0],),
                (lambda p: a2 * c2 * p.y[1][0],),
            ),
        )
    if coefficients == "literature-fractional":
        c1, c2 = gamma(1 + 2 * alpha), gamma(1 + 3 * alpha)

        def evaluate(p: JetPoint) -> float:
            y1, y2 = p.y[0][0], p.y[1][0]
            if y1 < 0.0 or y2 < 0.0:
                raise ValueError("fractional jet powers need non-negative jet values")
            return (
                c / (1.0 + gamma_exp - alpha) * p.x[0] ** gamma_exp
                - a1 * c1 * y1**alpha
                + a2 * c2 * y2**alpha
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


def make_lagrangian(name: str, **params) -> Lagrangian:
    catalog = lagrangian_catalog()
    if name not in catalog:
        known = ", ".join(sorted(catalog))
        raise KeyError(f"unknown Lagrangian {name!r}; available: {known}")
    return catalog[name](**params)
