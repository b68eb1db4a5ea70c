"""Tests for the snap-limited trajectory planner.

Oracle strategy: the emitted snap sequence is integrated independently
with a cumulative trapezoid chain on a fine grid aligned with the sample
grid (snap is piecewise constant and jerk piecewise linear on it, so the
chain is exact up to roundoff for the first two integrals and O(h^2) for
the rest).
"""

import numpy as np
import pytest

from lpvslc.errors import ConfigError
from lpvslc.trajectory import (
    MotionBounds,
    TrajectoryProfile,
    plan,
    sample,
    write_profile_csv,
)

RATE = 10000.0
GENEROUS = MotionBounds(v_max=1e9, a_max=1e9, j_max=1e9, s_max=2000.0)
BENCH = MotionBounds(v_max=0.5, a_max=10.0, j_max=1000.0, s_max=40000.0)


def dense_integration(profile, refine=200):
    """Endpoint state by brute-force integration of the emitted segments.

    Each segment gets its own fine grid, so the snap discontinuities sit
    exactly on integration nodes; the lower derivatives are integrated
    with cumulative trapezoids, never touching the planner's knot
    algebra.  Returns the final (pos, vel, acc, jerk).
    """

    def cumtrapz(y, h):
        out = np.zeros_like(y)
        out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1])) * h
        return out

    pos = vel = acc = jerk = 0.0
    for dur, s in zip(profile.durations, profile.snaps):
        h = dur / refine
        j_seg = jerk + np.concatenate([[0.0], np.cumsum(np.full(refine, s)) * h])
        a_seg = acc + cumtrapz(j_seg, h)
        v_seg = vel + cumtrapz(a_seg, h)
        p_seg = pos + cumtrapz(v_seg, h)
        jerk, acc, vel, pos = j_seg[-1], a_seg[-1], v_seg[-1], p_seg[-1]
    return pos, vel, acc, jerk


def test_zero_displacement_gives_empty_profile():
    prof = plan(0.0, BENCH, RATE)
    assert prof.n_segments == 0
    assert prof.duration == 0.0
    assert sample(prof, 0.3) == (0.0, 0.0, 0.0, 0.0, 0.0)


def test_snap_limited_duration_formula():
    # Chosen so the snap phase lands exactly on the sample grid.
    d = 8.0 * 2000.0 * 0.02 ** 4
    prof = plan(d, GENEROUS, RATE)
    assert prof.duration == pytest.approx(8.0 * (d / (8.0 * 2000.0)) ** 0.25,
                                          abs=1e-12)
    assert prof.displacement == pytest.approx(d, rel=1e-12)
    pos_end = dense_integration(prof)[0]
    assert abs(pos_end - d) <= 1e-9


def test_endpoint_by_dense_integration_across_regimes():
    cases = [
        (0.1, BENCH),                                    # cruise-limited
        (0.004, BENCH),                                  # accel-limited
        (2.56e-3, GENEROUS),                             # snap-limited
        (0.05, MotionBounds(1e9, 10.0, 1000.0, 40000.0)),  # no velocity cap
        (0.02, MotionBounds(0.08, 1e9, 1e9, 40000.0)),   # velocity cap only
        (1.7e-5, BENCH),                                 # tiny move
    ]
    for d, bounds in cases:
        prof = plan(d, bounds, RATE)
        pos, vel, acc, jerk = dense_integration(prof)
        assert abs(pos - d) <= 1e-9, (d, bounds)
        assert abs(vel) <= 1e-9
        assert abs(acc) <= 1e-7
        assert abs(jerk) <= 1e-6


def test_all_bounds_respected():
    rng = np.random.default_rng(8)
    tol = 1.0 + 1e-12
    for _ in range(20):
        bounds = MotionBounds(
            v_max=10.0 ** rng.uniform(-2, 0),
            a_max=10.0 ** rng.uniform(-1, 2),
            j_max=10.0 ** rng.uniform(1, 4),
            s_max=10.0 ** rng.uniform(3, 6),
        )
        d = 10.0 ** rng.uniform(-4, -0.5)
        prof = plan(d, bounds, RATE)
        t = np.arange(int(prof.duration * RATE * 4) + 1) / (RATE * 4)
        pos, vel, acc, jerk, snap = sample(prof, t)
        assert np.max(np.abs(vel)) <= bounds.v_max * tol
        assert np.max(np.abs(acc)) <= bounds.a_max * tol
        assert np.max(np.abs(jerk)) <= bounds.j_max * tol
        assert np.max(np.abs(snap)) <= bounds.s_max * tol
        assert prof.displacement == pytest.approx(d, rel=1e-9)


def test_durations_align_with_sample_grid():
    for d in (0.1, 0.037, 2.56e-3):
        prof = plan(d, BENCH, RATE)
        steps = prof.durations * RATE
        np.testing.assert_allclose(steps, np.round(steps), atol=1e-6)


def test_odd_symmetry_is_sample_exact():
    d = 0.08
    fwd = plan(d, BENCH, RATE)
    rev = plan(-d, BENCH, RATE)
    np.testing.assert_array_equal(fwd.durations, rev.durations)
    np.testing.assert_array_equal(fwd.snaps, -rev.snaps)
    t = np.linspace(0.0, fwd.duration, 777)
    for a, b in zip(sample(fwd, t), sample(rev, t)):
        np.testing.assert_array_equal(a, -b)


def test_velocity_symmetric_position_antisymmetric():
    d = 0.1
    prof = plan(d, BENCH, RATE)
    half = prof.duration / 2.0
    tau = np.linspace(0.0, half, 500)
    pos_a, vel_a = sample(prof, half - tau)[:2]
    pos_b, vel_b = sample(prof, half + tau)[:2]
    np.testing.assert_allclose(vel_a, vel_b, rtol=0, atol=1e-9)
    np.testing.assert_allclose(pos_a + pos_b, np.full_like(tau, d),
                               rtol=0, atol=1e-9)


def test_sample_endpoints_and_clamping():
    prof = plan(0.05, BENCH, RATE)
    assert sample(prof, 0.0)[:4] == (0.0, 0.0, 0.0, 0.0)
    pos, vel, acc, jerk, snap = sample(prof, prof.duration)
    assert pos == pytest.approx(0.05, abs=1e-12)
    assert abs(vel) < 1e-10
    assert abs(acc) < 1e-8
    assert abs(jerk) < 1e-7
    assert snap == 0.0
    # Clamped queries return the endpoint states.
    assert sample(prof, -1.0)[:4] == (0.0, 0.0, 0.0, 0.0)
    assert sample(prof, prof.duration + 5.0)[0] == pos
    assert sample(prof, prof.duration + 5.0)[4] == 0.0


def test_finite_difference_derivative_consistency():
    rng = np.random.default_rng(21)
    prof = plan(0.1, BENCH, RATE)
    h = 1e-7
    for t in rng.uniform(0.0, prof.duration, size=100):
        pos_m, vel, acc = sample(prof, t)[:3]
        pos_p = sample(prof, t + h)[0]
        fd = (pos_p - pos_m) / h
        assert fd == pytest.approx(vel + 0.5 * h * acc, abs=1e-6)


def test_integral_consistency_of_sampled_derivatives():
    # Trapezoids across the snap discontinuities leave an O(dt * s_max)
    # mismatch against jerk; one level down the chain jerk is continuous
    # piecewise linear on the grid, so its trapezoid reproduces the
    # sampled acceleration to roundoff.
    prof = plan(0.1, BENCH, RATE)

    def trapz_chain(rate):
        t = np.arange(int(round(prof.duration * rate)) + 1) / rate
        _, _, acc, jerk, snap = sample(prof, t)
        dt = 1.0 / rate
        jt = np.concatenate([[0.0],
                             np.cumsum(0.5 * (snap[1:] + snap[:-1]) * dt)])
        at = np.concatenate([[0.0],
                             np.cumsum(0.5 * (jerk[1:] + jerk[:-1]) * dt)])
        return (np.max(np.abs(jt - jerk)), np.max(np.abs(at - acc)),
                np.max(np.abs(jerk)))

    err_j, err_a, jerk_scale = trapz_chain(RATE)
    assert err_j <= 1.5 * np.max(np.abs(prof.snaps)) / RATE
    assert err_a <= 1e-9 * jerk_scale
    err_j_half = trapz_chain(2.0 * RATE)[0]
    assert err_j_half <= 0.6 * err_j


def test_bad_bounds_and_inputs():
    with pytest.raises(ConfigError):
        MotionBounds(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ConfigError):
        MotionBounds(1.0, -1.0, 1.0, 1.0)
    with pytest.raises(ConfigError):
        plan(np.inf, BENCH, RATE)
    with pytest.raises(ConfigError):
        plan(0.1, BENCH, 0.0)
    with pytest.raises(ConfigError):
        TrajectoryProfile(np.array([-0.1]), np.array([1.0]), RATE)


def test_profile_csv_export(tmp_path):
    prof = plan(0.01, BENCH, RATE)
    path = tmp_path / "profile.csv"
    write_profile_csv(path, prof)
    header = path.read_text().splitlines()[0]
    assert header == "t,pos,vel,acc,jerk,snap"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape[1] == 6
    np.testing.assert_allclose(data[-1, 1], 0.01, atol=1e-11)
