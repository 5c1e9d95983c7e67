"""Jet points, lifted trajectories, and fractional Taylor reconstruction."""

import numpy as np
import pytest

from fracvar.fracops import FracOrder, SampledPath, frac_deriv
from fracvar import jet
from fracvar.jet import JetPoint, JetTrajectory, lift, taylor_reconstruct
from fracvar.specfun import gamma


# === points =================================================================


def test_jet_point_shapes_and_access():
    pt = JetPoint(0.5, (1.0, 2.0), ((0.1, 0.2), (0.3, 0.4), (0.5, 0.6)))
    assert pt.n == 2
    assert pt.k == 3
    assert pt.y_at(2, 1) == 0.4
    assert pt.y_at(1) == 0.1
    scalar = JetPoint.scalar(0.0, 1.0, (2.0, 3.0))
    for a in (0, -1, 3):
        with pytest.raises(ValueError, match=f"jet level {a} out of range for order 2"):
            scalar.y_at(a)
    for i in (-1, 1):
        with pytest.raises(ValueError, match=f"coordinate index {i} out of range for dimension 1"):
            scalar.y_at(1, i)
    with pytest.raises(ValueError, match="coordinate index 2 out of range for dimension 2"):
        pt.y_at(1, 2)


def test_jet_point_scalar_constructor():
    pt = JetPoint.scalar(0.3, 1.5, (0.7, -0.2))
    assert pt.x == (1.5,)
    assert pt.y == ((0.7,), (-0.2,))


def test_jet_point_rejects_bad_data():
    with pytest.raises(ValueError):
        JetPoint(0.0, (1.0,), ((0.1, 0.2),))  # ragged row
    with pytest.raises(ValueError):
        JetPoint(0.0, (float("nan"),), ((0.1,),))


def test_trajectory_validation():
    jets = np.zeros((2, 1, 33))
    JetTrajectory(0.5, 1, 0.0, 0.25, jets)
    bad = [
        (1.2, 1, 0.0, 0.25, jets),
        (0.0, 1, 0.0, 0.25, jets),
        (0.5, 0, 0.0, 0.25, jets[:1]),
        (0.5, 2, 0.0, 0.25, jets),  # k + 1 levels expected
        (0.5, 1, 0.0, 0.25, jets[0]),  # not three dimensional
        (0.5, 1, 0.0, 0.25, jets[:, :0]),  # no coordinate
        (0.5, 1, 0.0, 0.25, jets[..., :1]),  # one node
        (0.5, 1, 0.0, 0.25, ((),)),
        (0.5, 1, np.nan, 0.25, jets),
        (0.5, 1, 0.0, np.inf, jets),
        (0.5, 1, 0.0, np.nan, jets),
        (0.5, 1, 0.0, 0.0, jets),
    ]
    for args in bad:
        with pytest.raises(ValueError):
            JetTrajectory(*args)


def test_trajectory_jets_are_a_read_only_copy():
    jets = np.arange(2 * 3 * 5, dtype=float).reshape(2, 3, 5)
    traj = JetTrajectory(0.5, 1, 0.0, 0.25, jets)
    jets[1, 0, 0] = -1.0
    assert traj.jets[1, 0, 0] == 15.0
    assert not traj.jets.flags.writeable
    with pytest.raises(ValueError):
        traj.jets[0, 0, 0] = 1.0
    assert (traj.n, traj.n_pts) == (3, 5)
    assert np.array_equal(traj.times(), [0.0, 0.25, 0.5, 0.75, 1.0])


def test_trajectory_paths_are_the_jet_rows():
    paths = [SampledPath.from_function(f, 0.0, 1.0, 257) for f in (np.sin, np.exp)]
    traj = lift(paths, 0.4, 3)
    assert traj.jets.shape == (4, 2, 257)
    for i, p in enumerate(paths):
        assert np.array_equal(traj.jets[0, i], p.values)
        for a in range(3):
            path = traj.y[a][i]
            assert path.values.tobytes() == traj.jets[a + 1, i].tobytes()
            assert (path.t0, path.h) == (traj.t0, traj.h)


# === lift ===================================================================


def test_lift_levels_are_scaled_derivatives():
    alpha, k = 0.4, 3
    h = 2**-11
    n = int(round(1.0 / h)) + 1
    p = SampledPath.from_function(lambda t: t**2, 0.0, 1.0, n)
    traj = lift(p, alpha, k)
    assert traj.k == k and traj.n == 1 and traj.n_pts == n
    t = p.times()
    lo = int(round(0.1 / h))
    for a in range(1, k + 1):
        exact = gamma(3) / gamma(3 - a * alpha) * t ** (2 - a * alpha) / gamma(1 + a * alpha)
        got = traj.y[a - 1][0].values
        rel = np.max(np.abs(got[lo:] - exact[lo:]) / np.abs(exact[lo:]))
        assert rel <= 1e-2, (a, rel)


def test_lift_monomial_top_level_is_constant():
    alpha = 0.4
    p = SampledPath.from_function(lambda t: t ** (2 * alpha), 0.0, 1.0, 2049)
    traj = lift(p, alpha, 2)
    y2 = traj.y[1][0].values
    lo = 205
    assert np.max(np.abs(y2[lo:] - 1.0)) <= 1e-4


def test_lift_is_linear():
    alpha, k = 0.3, 2
    f = SampledPath.from_function(lambda t: t**2, 0.0, 1.0, 257)
    g = SampledPath.from_function(np.sin, 0.0, 1.0, 257)
    combo = f.with_values(2.0 * f.values - 0.5 * g.values)
    ta = lift(f, alpha, k)
    tb = lift(g, alpha, k)
    tc = lift(combo, alpha, k)
    for a in range(k):
        lhs = tc.y[a][0].values
        rhs = 2.0 * ta.y[a][0].values - 0.5 * tb.y[a][0].values
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_lift_base_node_copies_neighbor():
    p = SampledPath.from_function(lambda t: t**1.5, 0.0, 1.0, 129)
    traj = lift(p, 0.5, 2)
    for a in range(2):
        vals = traj.y[a][0].values
        assert vals[0] == vals[1]


def test_lift_validation():
    p = SampledPath.from_function(lambda t: t, 0.0, 1.0, 33)
    with pytest.raises(ValueError):
        lift(p, 1.0, 2)
    with pytest.raises(ValueError):
        lift(p, 0.5, 0)
    with pytest.raises(ValueError):
        lift((), 0.5, 1)
    q = SampledPath.from_function(lambda t: t, 0.0, 2.0, 33)
    with pytest.raises(ValueError, match="share one grid"):
        lift((p, q), 0.5, 1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_lift_with_an_overflowing_top_level_fails_before_any_level(monkeypatch):
    # At h = 2**-10, h**-mu overflows from mu = 102.4 on: level 114 of 120.
    calls = []
    monkeypatch.setattr(jet, "frac_deriv", lambda *args: calls.append(args))
    p = SampledPath.from_function(np.sin, 0.0, 1.0, 1025)
    with pytest.raises(ValueError, match=r"mu=108, step h=0\.000976562"):
        lift(p, 0.9, 120)
    assert calls == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_lift_with_an_overflowing_scaled_level_is_a_floating_point_error():
    # Level 66 (mu = 59.4) has a finite h**-mu, but its scaled sums overflow.
    p = SampledPath.from_function(lambda t: t, 0.0, 1.0, 1025)
    with pytest.raises(FloatingPointError, match=r"mu=59\.4, step h=0\.000976562, at node 887 "):
        lift(p, 0.9, 66)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_lift_with_a_level_swamped_by_rounding_is_a_floating_point_error():
    # Level 6 (mu = 5.4) keeps no digit of sin at 1025 nodes; levels 1-5 pass.
    p = SampledPath.from_function(np.sin, 0.0, 1.0, 1025)
    assert np.all(np.isfinite(lift(p, 0.9, 5).jets))
    with pytest.raises(FloatingPointError, match=r"mu=5\.4, step h=0\.000976562:"):
        lift(p, 0.9, 6)


def test_contact_chain_between_levels():
    # differentiating level a once more (order alpha) reproduces level a+1
    # up to the gamma rescaling, on a smooth path with zero start slope
    alpha = 0.4
    h = 2**-11
    n = int(round(1.0 / h)) + 1
    p = SampledPath.from_function(lambda t: t**2, 0.0, 1.0, n)
    traj = lift(p, alpha, 3)
    lo = int(round(0.2 / h))
    for a in (1, 2):
        lower = traj.y[a - 1][0].with_values(
            traj.y[a - 1][0].values * gamma(1 + a * alpha)
        )
        stepped = frac_deriv(lower, FracOrder(alpha)).values
        target = traj.y[a][0].values * gamma(1 + (a + 1) * alpha)
        rel = np.max(np.abs(stepped[lo:] - target[lo:])) / np.max(np.abs(target[lo:]))
        assert rel <= 1e-2, (a, rel)


# === reconstruction =========================================================


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_reconstruction_matches_power_series(k):
    rng = np.random.default_rng(1234 + k)
    alpha = float(rng.uniform(0.2, 0.8))
    coeffs = rng.uniform(-1.0, 1.0, k + 1)
    pt = JetPoint.scalar(0.0, float(coeffs[0]), tuple(float(c) for c in coeffs[1:]))
    for t_eval in np.linspace(0.0, 1.0, 19):
        expected = sum(c * t_eval ** (alpha * a) for a, c in enumerate(coeffs))
        got = taylor_reconstruct(pt, alpha, float(t_eval))[0]
        assert abs(got - expected) <= 1e-10


def test_reconstruction_multidimensional():
    pt = JetPoint(0.0, (1.0, -2.0), ((0.5, 0.25),))
    vals = taylor_reconstruct(pt, 0.5, 0.49)
    assert vals[0] == pytest.approx(1.0 + 0.5 * 0.7)
    assert vals[1] == pytest.approx(-2.0 + 0.25 * 0.7)


def test_reconstruction_requires_base_point():
    pt = JetPoint.scalar(0.2, 1.0, (0.5,))
    with pytest.raises(ValueError):
        taylor_reconstruct(pt, 0.5, 0.3)
    pt0 = JetPoint.scalar(0.0, 1.0, (0.5,))
    with pytest.raises(ValueError):
        taylor_reconstruct(pt0, 0.5, -0.1)


def test_round_trip_lift_then_reconstruct():
    # lift a pure fractional monomial, read its (constant) top jet away from
    # the base, and rebuild the function from an analytic base point
    alpha = 0.5
    p = SampledPath.from_function(lambda t: t**alpha, 0.0, 1.0, 1025)
    traj = lift(p, alpha, 1)
    c1 = float(np.median(traj.y[0][0].values[100:]))
    pt = JetPoint.scalar(0.0, 0.0, (c1,))
    mid = taylor_reconstruct(pt, alpha, 0.64)[0]
    assert mid == pytest.approx(0.8, abs=2e-3)
