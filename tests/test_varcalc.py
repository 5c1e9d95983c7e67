"""Lagrangians, fractional partials, stationarity residuals, explicit fields."""

from types import SimpleNamespace

import numpy as np
import pytest

import fracvar.varcalc as varcalc
from fracvar.fodesolve import _bt_default_forcing, make_model
from fracvar.fracops import FracOrder, SampledPath, frac_deriv
from fracvar.jet import JetPoint, lift
from fracvar.specfun import gamma
from fracvar.varcalc import (
    Lagrangian,
    Variant,
    action,
    bagley_torvik_lagrangian,
    el_explicit_rhs,
    el_residual,
    frac_partial,
    hessian_g,
    lagrangian_catalog,
    make_lagrangian,
    order_potential_lagrangian,
    power_law_mixed_lagrangian,
)

CUBIC = (0.8, 0.5, -0.4, 0.3)


def cubic_path(h):
    n = int(round(1.0 / h)) + 1
    return SampledPath.from_function(
        lambda t: CUBIC[0] + CUBIC[1] * t + CUBIC[2] * t**2 + CUBIC[3] * t**3,
        0.0,
        1.0,
        n,
    )


def cubic_int_deriv(a, t):
    if a == 1:
        return CUBIC[1] + 2 * CUBIC[2] * t + 3 * CUBIC[3] * t**2
    if a == 2:
        return 2 * CUBIC[2] + 6 * CUBIC[3] * t
    return 6 * CUBIC[3] * np.ones_like(t)


@pytest.fixture
def quad_lagrangian():
    return Lagrangian(
        k=1,
        n=1,
        alpha=0.5,
        eval_fn=lambda p: p.x[0] ** 2,
        partial_x=(lambda p: 2.0 * p.x[0],),
        partial_y=((lambda p: 0.0,),),
    )


# === construction and validation ============================================


def test_wrong_analytic_partial_is_rejected():
    with pytest.raises(ValueError):
        Lagrangian(
            k=1,
            n=1,
            alpha=0.5,
            eval_fn=lambda p: p.x[0] ** 2,
            partial_x=(lambda p: 3.0 * p.x[0],),  # should be 2x
            partial_y=((lambda p: 0.0,),),
        )


def test_non_finite_analytic_partial_is_rejected():
    with pytest.raises(ValueError):
        Lagrangian(
            k=1,
            n=1,
            alpha=0.5,
            eval_fn=lambda p: p.x[0] ** 2,
            partial_x=(lambda p: np.nan * p.x[0],),
            partial_y=((lambda p: 0.0,),),
        )


def test_shape_and_range_validation():
    ok = lambda p: 0.0
    with pytest.raises(ValueError):
        Lagrangian(k=0, n=1, alpha=0.5, eval_fn=ok)
    with pytest.raises(ValueError):
        Lagrangian(k=1, n=0, alpha=0.5, eval_fn=ok)
    with pytest.raises(ValueError):
        Lagrangian(k=1, n=1, alpha=1.0, eval_fn=ok)
    with pytest.raises(ValueError):
        Lagrangian(k=1, n=2, alpha=0.5, eval_fn=ok, partial_x=(ok,))  # wrong width
    with pytest.raises(ValueError):
        Lagrangian(k=2, n=1, alpha=0.5, eval_fn=ok, partial_y=((ok,),))  # wrong depth


def test_coordinate_selectors(quad_lagrangian):
    pt = JetPoint.scalar(0.5, 0.8, (0.3,))
    assert frac_partial(quad_lagrangian, "t", pt, 1.0) == pytest.approx(0.0, abs=1e-8)
    with pytest.raises(ValueError):
        frac_partial(quad_lagrangian, ("x", 5), pt, 1.0)
    with pytest.raises(ValueError):
        frac_partial(quad_lagrangian, ("y", 0, 0), pt, 1.0)
    with pytest.raises(ValueError):
        frac_partial(quad_lagrangian, "bogus", pt, 1.0)


def test_x_selects_the_first_coordinate(quad_lagrangian):
    pt = JetPoint.scalar(0.5, 0.8, (0.3,))
    assert frac_partial(quad_lagrangian, "x", pt, 1.0) == 1.6  # the analytic 2 x


@pytest.mark.parametrize("call, message", [
    (lambda L: frac_partial(L, ("y", 1, 3), JetPoint.scalar(0.5, 0.8, (0.3,)), 1.0),
     "coordinate index 3 out of range for dimension 1"),
    (lambda L: action(L, lift((cubic_path(2**-6),) * 2, 0.5, 1)),
     "trajectory and Lagrangian disagree in dimension"),
], ids=["jet-coordinate-index", "trajectory-dimension"])
def test_coordinate_and_dimension_errors(quad_lagrangian, call, message):
    with pytest.raises(ValueError, match=message):
        call(quad_lagrangian)


# === fractional partials ====================================================


def test_frac_partial_power_rule(quad_lagrangian):
    pt = JetPoint.scalar(0.5, 0.8, (0.3,))
    got = frac_partial(quad_lagrangian, ("x", 0), pt, alpha=0.5)
    exact = gamma(3) / gamma(2.5) * 0.8**1.5
    assert abs(got - exact) <= 5e-3
    assert got == pytest.approx(1.0757482242553877, abs=1e-9)


def test_frac_partial_classical_limit(quad_lagrangian):
    pt = JetPoint.scalar(0.5, 0.8, (0.3,))
    assert frac_partial(quad_lagrangian, ("x", 0), pt, alpha=1.0) == pytest.approx(
        1.6, abs=1e-12
    )


def test_frac_partial_defaults_to_lagrangian_alpha(quad_lagrangian):
    pt = JetPoint.scalar(0.5, 0.8, (0.3,))
    assert frac_partial(quad_lagrangian, ("x", 0), pt) == frac_partial(
        quad_lagrangian, ("x", 0), pt, alpha=0.5
    )


def test_frac_partial_at_terminal_is_zero(quad_lagrangian):
    pt = JetPoint.scalar(0.5, 0.0, (0.3,))
    assert frac_partial(quad_lagrangian, ("x", 0), pt, alpha=0.5) == 0.0


@pytest.mark.parametrize(
    "coord, terminal, alpha",
    [(("x", 0), 0.0, 0.5), (("x", 0), 0.3, 0.7), (("y", 1, 0), -0.2, 0.4), ("t", 0.1, 0.9)],
)
def test_frac_partial_is_the_last_node_of_a_sampled_derivative(coord, terminal, alpha):
    # reference: frac_deriv of L sampled on the grid from the terminal to the value
    fn = lambda p: np.exp(0.3 * p.t) * p.x[0] ** 3 + p.y[0][0] ** 2 * p.x[0]
    L = Lagrangian(k=1, n=1, alpha=0.5, eval_fn=fn, frac_partial_base={coord: terminal})
    t, x, y = 0.6, 0.8, 0.45
    value = {"x": x, "y": y, "t": t}[coord[0]]
    s = np.linspace(terminal, value, 513)
    at = lambda name, v: s if coord[0] == name else np.full_like(s, v)
    samples = fn(SimpleNamespace(t=at("t", t), x=(at("x", x),), y=((at("y", y),),)))
    path = SampledPath(terminal, (value - terminal) / 512, samples)
    ref = frac_deriv(path, FracOrder(alpha)).values[-1]
    got = frac_partial(L, coord, JetPoint.scalar(t, x, (y,)), alpha=alpha)
    assert got == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("x", [1e-4, 3e-6, 9e-7])
def test_frac_partial_near_the_terminal(quad_lagrangian, x):
    # the internal grid ends at the value itself however close it lies to
    # the terminal, so the relative error is that of a unit-span grid
    got = frac_partial(quad_lagrangian, ("x", 0), JetPoint.scalar(0.5, x, (0.3,)), alpha=0.5)
    exact = 2.0 * x**1.5 / gamma(2.5)
    assert abs(got - exact) <= 1e-3 * exact


def test_frac_partial_rejects_bad_arguments(quad_lagrangian):
    below = JetPoint.scalar(0.5, -0.1, (0.3,))
    with pytest.raises(ValueError):
        frac_partial(quad_lagrangian, ("x", 0), below, alpha=0.5)
    pt = JetPoint.scalar(0.5, 0.8, (0.3,))
    with pytest.raises(ValueError):
        frac_partial(quad_lagrangian, ("x", 0), pt, alpha=1.5)


# === action =================================================================


def test_action_oracle():
    L = order_potential_lagrangian(1, alpha=0.5)
    traj = lift(SampledPath.from_function(lambda t: t**2, 0.0, 1.0, 513), 0.5, 1)
    got = action(L, traj)
    exact = -0.5 * (gamma(3) / gamma(2.5)) ** 2 / gamma(1.5) * 0.25
    assert abs(got - exact) <= 2e-3
    assert got == pytest.approx(-0.31864417782006327, abs=1e-12)


def test_action_mismatch_errors():
    L = order_potential_lagrangian(1, alpha=0.5)
    p = SampledPath.from_function(lambda t: t**2, 0.0, 1.0, 129)
    with pytest.raises(ValueError):
        action(L, lift(p, 0.4, 1))  # alpha disagrees
    with pytest.raises(ValueError):
        action(L, lift(p, 0.5, 2))  # order disagrees


# === stationarity residuals =================================================


def test_el_residual_is_linear_in_the_lagrangian():
    base = order_potential_lagrangian(
        2, alpha=0.4, a1=0.3, potential=lambda t, x: 0.2 * x**2, potential_x=lambda t, x: 0.4 * x
    )
    doubled = Lagrangian(
        k=2,
        n=1,
        alpha=0.4,
        eval_fn=lambda p: 2.0 * base.eval_fn(p),
        partial_x=(lambda p: 2.0 * base.partial_x[0](p),),
        partial_y=tuple(
            (lambda p, _a=a: 2.0 * base.partial_y[_a][0](p),) for a in range(2)
        ),
    )
    traj = lift(cubic_path(2**-8), 0.4, 2)
    r1 = el_residual(base, traj)
    r2 = el_residual(doubled, traj)
    assert np.max(np.abs(r2.residual[0].values - 2.0 * r1.residual[0].values)) <= 1e-12


@pytest.mark.parametrize(
    "k, direct_tol, analytic_tol",
    [(1, 1e-12, 1e-3), (2, 1e-9, 5e-3), (3, 1e-6, 5e-3)],
)
def test_order_family_residuals_match_both_routes(k, direct_tol, analytic_tol):
    # the report should agree with the operator built directly from
    # fractional derivatives of the path (near machine level, same scheme)
    # and with the closed-form integer derivatives of the cubic (discretely)
    alpha, q, a1, a2 = 0.5, 0.7, 0.8, 0.6
    h = 2**-10
    path = cubic_path(h)
    t = path.times()
    L = order_potential_lagrangian(
        k,
        alpha=alpha,
        a1=a1,
        a2=a2,
        potential=lambda tt, x: 0.5 * q * x**2,
        potential_x=lambda tt, x: q * x,
    )
    rep = el_residual(L, lift(path, alpha, k))
    damp = {1: (1.0,), 2: (a1, 1.0), 3: (a1, a2, 1.0)}[k]
    direct = q * path.values.copy()
    analytic = q * path.values.copy()
    for a in range(1, k + 1):
        direct = direct + damp[a - 1] * frac_deriv(path, FracOrder(2 * a * alpha)).values
        analytic = analytic + damp[a - 1] * cubic_int_deriv(a, t)
    lo, hi = rep.excluded, path.n_pts - rep.excluded
    got = rep.residual[0].values
    assert np.max(np.abs(got[lo:hi] - direct[lo:hi])) <= direct_tol
    assert np.max(np.abs(got[lo:hi] - analytic[lo:hi])) <= analytic_tol


def test_harmonic_residual_vanishes_in_classical_limit():
    # x = cos t solves the alpha -> 1 equation; the residual norm along it
    # should fall roughly linearly in (1 - alpha)
    path = SampledPath.from_function(np.cos, 0.0, 1.0, 1025)
    norms = []
    for alpha in (0.9, 0.99, 0.999):
        L = order_potential_lagrangian(
            1, alpha=alpha, potential=lambda t, x: 0.5 * x**2, potential_x=lambda t, x: x
        )
        norms.append(el_residual(L, lift(path, alpha, 1)).norm_inf)
    assert norms[0] > norms[1] > norms[2]
    assert norms[2] <= 2e-2
    assert norms == pytest.approx([0.724998, 0.120743, 0.0127797], rel=1e-4)


def test_mixed_order_residual_on_slope_free_path():
    # the cross-term construction matches its target along paths with zero
    # start slope; the mismatch is sup-normalized over the trimmed interior
    c, ge, a1, a2, alpha = 0.9, 1.3, 0.8, 0.6, 0.5
    L = power_law_mixed_lagrangian(c=c, gamma_exp=ge, a1=a1, a2=a2, alpha=alpha)
    path = SampledPath.from_function(lambda t: 0.6 + 0.5 * t**2 + 0.3 * t**3, 0.0, 1.0, 1025)
    rep = el_residual(L, lift(path, alpha, 2))
    cp = c * gamma(1 + ge) / gamma(1 + ge - alpha)
    target = (
        cp * path.values ** (ge - alpha)
        + a1 * frac_deriv(path, FracOrder(2 * alpha)).values
        + a2 * frac_deriv(path, FracOrder(3 * alpha)).values
    )
    lo, hi = rep.excluded, path.n_pts - rep.excluded
    err = np.max(np.abs(rep.residual[0].values[lo:hi] - target[lo:hi]))
    assert err / np.max(np.abs(target)) <= 2e-2


def test_el_residual_fractional_variant_smoke():
    path = cubic_path(2**-7)
    L = order_potential_lagrangian(1, alpha=0.5)
    rep = el_residual(L, lift(path, 0.5, 1), variant="fractional")
    assert rep.variant is Variant.FRACTIONAL
    assert np.all(np.isfinite(rep.residual[0].values))
    assert rep.norm_inf >= 0.0


def test_el_residual_norm_sees_a_non_finite_coordinate():
    # the analytic partial of coordinate 1 is NaN only outside the range
    # that construction checks, so the residual of that coordinate is NaN
    L = Lagrangian(
        k=1,
        n=2,
        alpha=0.5,
        eval_fn=lambda p: 0.5 * (p.x[0] ** 2 + p.x[1] ** 2),
        partial_x=(lambda p: p.x[0], lambda p: np.where(p.x[1] > 2.0, np.nan, p.x[1])),
        partial_y=((lambda p: 0.0, lambda p: 0.0),),
    )
    paths = [
        SampledPath.from_function(fn, 0.0, 1.0, 65) for fn in (lambda t: t, lambda t: 3.0 + t)
    ]
    rep = el_residual(L, lift(paths, 0.5, 1))
    assert np.all(np.isfinite(rep.residual[0].values))
    assert np.all(np.isnan(rep.residual[1].values))
    assert np.isnan(rep.norm_inf)


def test_el_residual_mismatch_and_short_grid():
    L = order_potential_lagrangian(1, alpha=0.5)
    with pytest.raises(ValueError):
        el_residual(L, lift(cubic_path(2**-7), 0.4, 1))
    tiny = SampledPath.from_function(lambda t: t, 0.0, 1.0, 4)
    with pytest.raises(ValueError):
        el_residual(L, lift(tiny, 0.5, 1))


# === coefficient sets =======================================================


def test_literature_coefficients_rescale_momenta():
    bt = bagley_torvik_lagrangian(alpha=0.25, coefficients="literature")
    pt = JetPoint.scalar(0.1, 0.5, (0.0, 0.0, 0.7, 0.2))
    assert bt.partial_y[2][0](pt) == pytest.approx(-gamma(2.5) * 0.7, rel=1e-12)
    assert bt.partial_y[3][0](pt) == pytest.approx(gamma(3.0) * 0.2, rel=1e-12)

    lit = order_potential_lagrangian(1, alpha=0.3, coefficients="literature")
    pt1 = JetPoint.scalar(0.1, 0.5, (0.7,))
    assert lit.partial_y[0][0](pt1) == pytest.approx(-gamma(1.6) * 0.7, rel=1e-12)


def test_unknown_coefficient_set_rejected():
    with pytest.raises(ValueError):
        order_potential_lagrangian(1, coefficients="exotic")
    with pytest.raises(ValueError):
        bagley_torvik_lagrangian(coefficients="exotic")


@pytest.mark.parametrize("call, message", [
    (lambda: power_law_mixed_lagrangian(coefficients="exotic"),
     "unknown coefficient set: 'exotic'"),
    (lambda: order_potential_lagrangian(4), r"the family is defined for k in \{1, 2, 3\}"),
], ids=["power-law-mixed-set", "order-4"])
def test_unknown_sets_and_orders_are_rejected_by_name(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_literature_power_law_mixed_squares_both_levels():
    # The literature set replaces the cross term by -(a1/2) Gamma(1+2 alpha) y1**2
    # + (a2/2) Gamma(1+3 alpha) y2**2.
    L = power_law_mixed_lagrangian(a1=0.7, a2=0.4, alpha=0.5, coefficients="literature")
    bare = power_law_mixed_lagrangian(a1=0.0, a2=0.0, alpha=0.5, coefficients="literature")
    pt = JetPoint.scalar(0.2, 0.5, (0.3, 0.6))
    kinetic = -0.35 * gamma(2.0) * 0.3**2 + 0.2 * gamma(2.5) * 0.6**2
    assert L.eval_fn(pt) - bare.eval_fn(pt) == pytest.approx(kinetic, rel=1e-14)
    assert L.partial_y[0][0](pt) == pytest.approx(-0.7 * gamma(2.0) * 0.3, rel=1e-14)
    assert L.partial_y[1][0](pt) == pytest.approx(0.4 * gamma(2.5) * 0.6, rel=1e-14)


def test_mixed_construction_degenerates_at_equal_gammas():
    # Gamma(1+a) = Gamma(1+2a) has a root near 0.31; the cross-term weight
    # blows up there and the factory refuses
    import math
    from scipy.optimize import brentq

    root = brentq(lambda a: math.lgamma(1 + a) - math.lgamma(1 + 2 * a), 0.2, 0.4)
    with pytest.raises(ValueError):
        power_law_mixed_lagrangian(alpha=root)


def test_fractional_jet_powers_need_nonnegative_jets():
    L = power_law_mixed_lagrangian(alpha=0.5, coefficients="literature-fractional")
    good = JetPoint.scalar(0.2, 0.5, (0.3, 0.4))
    assert np.isfinite(L.eval_fn(good))
    bad = JetPoint.scalar(0.2, 0.5, (-0.3, 0.4))
    with pytest.raises(ValueError):
        L.eval_fn(bad)
    ones = np.ones(3)
    jets = lambda y1: SimpleNamespace(t=0.2 * ones, x=(0.5 * ones,), y=((y1,), (0.4 * ones,)))
    assert np.all(np.isfinite(L.eval_fn(jets(np.array([0.3, 0.1, 0.2])))))
    with pytest.raises(ValueError, match="non-negative"):
        L.eval_fn(jets(np.array([0.3, -0.1, 0.2])))


# === hessians and explicit fields ===========================================


def test_classical_hessian_matches_coefficient():
    L = order_potential_lagrangian(1, alpha=0.6)
    H = hessian_g(L, JetPoint.scalar(0.3, 0.8, (0.4,)), variant=Variant.CLASSICAL)
    assert H.g[0][0] == pytest.approx(-gamma(1.6), rel=1e-8)
    assert H.regular
    assert H.det == pytest.approx(-gamma(1.6), rel=1e-8)


def test_fractional_hessian_power_law():
    L = order_potential_lagrangian(1, alpha=0.3)
    H = hessian_g(L, JetPoint.scalar(0.5, 0.8, (0.4,)), variant=Variant.FRACTIONAL)
    closed = -0.5 * gamma(1.6) * gamma(3) / gamma(2.4) * 0.4**1.4
    assert H.g[0][0] == pytest.approx(closed, rel=1e-2)
    assert H.g[0][0] == pytest.approx(-0.20013774806937176, abs=1e-9)


def test_singular_hessian_is_flagged():
    shared = lambda p: 2.0 * (p.y[0][0] + p.y[0][1])
    L = Lagrangian(
        k=1,
        n=2,
        alpha=0.5,
        eval_fn=lambda p: (p.y[0][0] + p.y[0][1]) ** 2,
        partial_x=(lambda p: 0.0, lambda p: 0.0),
        partial_y=((shared, shared),),
    )
    H = hessian_g(L, JetPoint(0.2, (0.1, 0.2), ((0.3, 0.4),)), variant=Variant.CLASSICAL)
    assert not H.regular
    assert H.det == pytest.approx(0.0, abs=1e-10)


def test_explicit_field_free_particle():
    L = order_potential_lagrangian(1, alpha=0.6)
    assert el_explicit_rhs(L, JetPoint.scalar(0.3, 0.8, (0.4,))) == (0.0,)


def test_explicit_field_harmonic():
    L = order_potential_lagrangian(
        1, alpha=0.6, potential=lambda t, x: 0.5 * x**2, potential_x=lambda t, x: x
    )
    rhs = el_explicit_rhs(L, JetPoint.scalar(0.3, 0.8, (0.4,)))
    closed = -0.5 * gamma(3) / gamma(2.4) * 0.8**1.4 / gamma(1.6)
    assert rhs[0] == pytest.approx(closed, rel=1e-2)
    assert rhs[0] == pytest.approx(-0.6586987189773968, abs=1e-9)


def test_explicit_field_rejects_degenerate_or_higher_order():
    flat = Lagrangian(
        k=1,
        n=1,
        alpha=0.5,
        eval_fn=lambda p: p.y[0][0],
        partial_x=(lambda p: 0.0,),
        partial_y=((lambda p: 1.0,),),
    )
    with pytest.raises(ValueError):
        el_explicit_rhs(flat, JetPoint.scalar(0.3, 0.8, (0.4,)))
    with pytest.raises(ValueError):
        el_explicit_rhs(
            order_potential_lagrangian(2), JetPoint.scalar(0.3, 0.8, (0.4, 0.2))
        )


# === several coordinates and whole arrays ===================================


def _coordinate(p, i):
    """The one-coordinate view of coordinate i of a callback argument."""
    return SimpleNamespace(t=p.t, x=(p.x[i],), y=tuple((row[i],) for row in p.y))


def _separable_pair(first, second):
    """The n = 2 Lagrangian first(x^0, y^0) + second(x^1, y^1)."""
    parts = (first, second)
    return Lagrangian(
        k=1,
        n=2,
        alpha=first.alpha,
        eval_fn=lambda p: first.eval_fn(_coordinate(p, 0)) + second.eval_fn(_coordinate(p, 1)),
        partial_x=tuple(
            (lambda p, i=i: parts[i].partial_x[0](_coordinate(p, i))) for i in range(2)
        ),
        partial_y=(
            tuple((lambda p, i=i: parts[i].partial_y[0][0](_coordinate(p, i))) for i in range(2)),
        ),
    )


def test_separable_pair_matches_each_coordinate_alone():
    alpha = 0.6
    first = order_potential_lagrangian(
        1, alpha=alpha, potential=lambda t, x: 0.5 * x**2, potential_x=lambda t, x: x
    )
    second = order_potential_lagrangian(
        1, alpha=alpha, potential=lambda t, x: 0.3 * x**3, potential_x=lambda t, x: 0.9 * x**2
    )
    pair = _separable_pair(first, second)
    t, xs, ys = 0.3, (0.8, 0.5), (0.4, 0.7)
    point = JetPoint(t, xs, (ys,))
    alone = [JetPoint.scalar(t, xs[i], (ys[i],)) for i in range(2)]

    rhs = el_explicit_rhs(pair, point)
    for i, L in enumerate((first, second)):
        assert rhs[i] == pytest.approx(el_explicit_rhs(L, alone[i])[0], rel=1e-12)

    g = hessian_g(pair, point, Variant.FRACTIONAL).g
    for i, L in enumerate((first, second)):
        alone_g = hessian_g(L, alone[i], Variant.FRACTIONAL).g[0, 0]
        assert g[i, i] == pytest.approx(alone_g, rel=1e-12)
    assert abs(g[0, 1]) <= 1e-12 * abs(g[0, 0]) and abs(g[1, 0]) <= 1e-12 * abs(g[0, 0])

    # Both paths have a slope at t = 0, so no jet approaches its terminal
    # (zero) fast. Near the terminal a fractional partial of the sum loses
    # the digits of the other coordinate's term: its roundoff, eps |L|, is
    # amplified by hg**-alpha of the partial's internal grid.
    paths = [
        SampledPath.from_function(lambda tt: 0.8 + 0.3 * tt + 0.5 * tt**2, 0.0, 1.0, 65),
        SampledPath.from_function(lambda tt: 0.5 + 0.4 * tt + 0.3 * tt**3, 0.0, 1.0, 65),
    ]
    rep = el_residual(pair, lift(paths, alpha, 1), Variant.FRACTIONAL)
    for i, L in enumerate((first, second)):
        ref = el_residual(L, lift(paths[i], alpha, 1), Variant.FRACTIONAL).residual[0].values
        err = np.max(np.abs(rep.residual[i].values - ref))
        assert err <= 1e-12 * np.max(np.abs(ref))


def test_callbacks_take_whole_arrays():
    # a return to per-node evaluation would make hundreds of thousands of
    # callback calls here
    calls = []

    def counted(fn):
        def wrapper(p):
            calls.append(np.shape(p.t))
            return fn(p)

        return wrapper

    base = order_potential_lagrangian(
        1, alpha=0.6, potential=lambda t, x: 0.5 * x**2, potential_x=lambda t, x: x
    )
    L = Lagrangian(
        k=1,
        n=1,
        alpha=0.6,
        eval_fn=counted(base.eval_fn),
        partial_x=(counted(base.partial_x[0]),),
        partial_y=((counted(base.partial_y[0][0]),),),
    )
    calls.clear()
    el_explicit_rhs(L, JetPoint.scalar(0.3, 0.8, (0.4,)))
    assert 0 < len(calls) <= 24
    calls.clear()
    el_residual(L, lift(cubic_path(2**-7), 0.6, 1), Variant.FRACTIONAL)
    assert 0 < len(calls) <= 24
    assert max(int(np.prod(s)) for s in calls) >= 129 * 513


def test_fractional_partial_samples_rows_in_chunks(monkeypatch):
    # Chunks bound the partial's (rows, FRAC_PARTIAL_NODES) grids and change no bit.
    rows = []
    base = bagley_torvik_lagrangian(forcing=lambda t: 1.0 + t)

    def counted(p):
        rows.append(np.shape(p.t))
        return base.eval_fn(p)

    L = Lagrangian(k=base.k, n=1, alpha=base.alpha, eval_fn=counted)
    chunk = varcalc._PARTIAL_ROWS
    traj = lift(cubic_path(1.0 / (2 * chunk + 4)), L.alpha, L.k)
    chunked = el_residual(L, traj, Variant.FRACTIONAL)
    # 2 * chunk + 5 nodes: chunks of chunk and chunk + 5 rows, plus the
    # momentum base point's one row.
    assert {s[0] for s in rows if len(s) == 2} == {1, chunk, chunk + 5}
    monkeypatch.setattr(varcalc, "_PARTIAL_ROWS", 10**6)
    whole = el_residual(L, traj, Variant.FRACTIONAL)
    assert np.array_equal(chunked.residual[0].values, whole.residual[0].values)
    assert chunked.norm_inf == whole.norm_inf


# === catalog ================================================================


def test_catalog_contents():
    names = sorted(lagrangian_catalog())
    assert names == [
        "bagley-torvik",
        "order1-potential",
        "order2-potential",
        "order3-potential",
        "power-law-mixed",
    ]
    L = make_lagrangian("order2-potential", alpha=0.4, a1=0.2)
    assert L.k == 2 and L.alpha == 0.4


def test_plate_lagrangian_and_model_share_one_default_forcing():
    # U_x = c x - f(t) is -f(t) at x = 0; the unforced plate asks for forcing=0.0.
    ts = np.linspace(0.0, 1.0, 17)
    base = SimpleNamespace(t=ts, x=(0.0 * ts,), y=((0.0 * ts,),) * 4)
    assert make_model("bagley-torvik", "fractional").forcing is _bt_default_forcing
    assert np.array_equal(make_lagrangian("bagley-torvik").partial_x[0](base),
                          -_bt_default_forcing(ts))
    assert np.all(make_lagrangian("bagley-torvik", forcing=0.0).partial_x[0](base) == 0.0)
    # x = t**3 solves the default plate, so its classical residual nearly vanishes.
    traj = lift(SampledPath.from_function(lambda t: t**3, 0.0, 1.0, 1025), 0.25, 4)
    assert el_residual(make_lagrangian("bagley-torvik"), traj).norm_inf < 0.05
    assert el_residual(make_lagrangian("bagley-torvik", forcing=0.0), traj).norm_inf > 10.0


# Non-finite coefficients used to reach the analytic-partial check, which
# blamed the partials after a numpy RuntimeWarning.
@pytest.mark.parametrize(
    "name, params, message",
    [
        ("order2-potential", {"a1": np.inf}, "a1 must be finite"),
        ("order2-potential", {"a2": np.nan}, "a2 must be finite"),
        ("bagley-torvik", {"a": np.nan}, "a must be finite"),
        ("bagley-torvik", {"forcing": np.inf}, "forcing must be finite"),
        ("power-law-mixed", {"gamma_exp": np.inf}, "gamma_exp must be finite"),
        ("power-law-mixed", {"forcing": -np.inf}, "forcing must be finite"),
    ],
    ids=["order2-a1", "order2-a2", "bagley-torvik-a", "bagley-torvik-forcing",
         "power-law-gamma-exp", "power-law-forcing"],
)
def test_catalog_rejects_non_finite_coefficients_by_name(name, params, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make_lagrangian(name, **params)


def test_unknown_catalog_name():
    with pytest.raises(ValueError):
        make_lagrangian("order4-potential")


def test_catalog_lagrangians_refuse_keywords_their_factory_does_not_take():
    with pytest.raises(ValueError, match="^Lagrangian 'order1-potential' takes no parameter 'k'$"):
        make_lagrangian("order1-potential", k=2)
    message = "^Lagrangian 'bagley-torvik' takes no parameter 'potential'$"
    with pytest.raises(ValueError, match=message):
        make_lagrangian("bagley-torvik", potential=lambda t, x: x * x)


# Gamma factors that overflow used to raise OverflowError("math range error"),
# and a ratio of two that underflow ZeroDivisionError.
@pytest.mark.parametrize("name, params, message", [
    ("order3-potential", {"alpha": 60.0}, "alpha = 60 overflows .* 'normalized' coefficients"),
    ("bagley-torvik", {"alpha": 30.0, "coefficients": "literature"},
     "alpha = 30 overflows .* 'literature' coefficients"),
    ("power-law-mixed", {"alpha": 60.0, "coefficients": "literature-fractional"},
     "alpha = 60 overflows .* 'literature-fractional' coefficients"),
    ("power-law-mixed", {"gamma_exp": 171.0}, "gamma_exp = 171 puts Gamma"),
    ("power-law-mixed", {"gamma_exp": -200.3}, "gamma_exp = -200.3 puts Gamma"),
], ids=["order3", "bagley-torvik-literature", "power-law-literature-fractional",
        "power-law-gamma-exp", "power-law-gamma-exp-negative"])
def test_catalog_gamma_factors_that_overflow_are_named(name, params, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        make_lagrangian(name, **params)
