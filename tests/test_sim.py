"""Closed-loop simulator tests: integration order, metrics, scheduling.

Analytic anchors: a zero run stays exactly zero, mass feedforward inverts
the rigid plant in open loop, RK4 shows fourth-order step convergence,
MA/MSD reproduce closed-form values for constant and sinusoidal errors
and match brute-force window recomputation.  Scheduled-controller runs
are checked against frozen realizations, the assembled closed-loop step
against the per-stage reference stepper in sim_reference.py, and the
size guard against what a run allocates.
"""

import logging
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lpvslc import sim
from lpvslc.design import (
    DesignSpec,
    certify,
    design_lpv_slc,
    design_lti_slc,
    freeze_controller_set,
    grid_points,
)
from lpvslc.errors import ConfigError, DomainError, NumericalError
from lpvslc.filters import Cascade, Gain
from lpvslc.plant import ModalPlantModel, Mode
from lpvslc.sim import (
    Interval,
    SimConfig,
    SimResult,
    StageMotion,
    compare_runs,
    interval_metrics,
    ma_msd,
    motion_intervals,
    result_summary,
    sim_config_from_dict,
    simulate,
    write_result_csv,
)
from lpvslc.io import dump_csv, dump_json, load_csv, load_json
from lpvslc.trajectory import MotionBounds, plan, sample

from sim_reference import max_relative_gap, reference_run, reference_traces

ACTUATORS = np.array([[-0.06, -0.06], [0.06, -0.06], [0.06, 0.06], [-0.06, 0.06]])
SENSORS = np.array([[0.0, 0.05], [-0.05, -0.04], [0.05, -0.03]])
BOX = ((0.0, 0.2), (0.0, 0.2))


def rigid_plant():
    return ModalPlantModel(
        modes=(Mode("rigid", axis="z"), Mode("rigid", axis="rx"),
               Mode("rigid", axis="ry")),
        masses=np.array([10.0, 0.1, 0.1]),
        frequencies_hz=np.zeros(3),
        damping=np.zeros(3),
        actuator_xy=ACTUATORS,
        sensor_xy=SENSORS,
        workspace=BOX,
    )


def mini_plant():
    """One position-dependent bending mode on top of the rigid body."""
    return ModalPlantModel(
        modes=(Mode("rigid", axis="z"), Mode("rigid", axis="rx"),
               Mode("rigid", axis="ry"), Mode("flex", kx=0.9, ky=0.9)),
        masses=np.array([10.0, 0.1, 0.1, 1.0]),
        frequencies_hz=np.array([0.0, 0.0, 0.0, 300.0]),
        damping=np.array([0.0, 0.0, 0.0, 0.02]),
        actuator_xy=ACTUATORS,
        sensor_xy=SENSORS,
        workspace=BOX,
        flex_actuation_gain=0.4,
        flex_sensing_gain=0.3,
        scan_crosstalk_gain=0.05,
    )


def z_move(displacement=0.002, rate=10_000.0):
    bounds = MotionBounds(v_max=0.05, a_max=5.0, j_max=2000.0, s_max=8e5)
    return plan(displacement, bounds, rate)


@pytest.fixture(scope="module")
def rigid_design():
    model = rigid_plant()
    return model, design_lti_slc(model, DesignSpec(target_bandwidth_hz=150.0))


@pytest.fixture(scope="module")
def mini_design():
    model = mini_plant()
    return model, design_lpv_slc(model, DesignSpec())


def test_zero_motion_zero_state_stays_identically_zero(rigid_design):
    model, lti = rigid_design
    res = simulate(model, lti, StageMotion(start_xy=(0.1, 0.1)),
                   SimConfig(duration_s=0.05))
    assert np.all(res.e == 0.0)
    assert np.all(res.u == 0.0)
    assert np.all(res.states == 0.0)


def test_mass_feedforward_inverts_rigid_plant_open_loop(rigid_design):
    model, lti = rigid_design
    prof = z_move(0.02, rate=10_000.0)
    motion = StageMotion(start_xy=(0.1, 0.1), loop_refs=(prof, None, None))
    cfg = SimConfig(duration_s=0.6, feedback=False)
    res = simulate(model, lti, motion, cfg)
    # With the loop open the actuation is the feedforward alone: the z
    # mass times the commanded acceleration, allocated through T_u.
    ff = np.zeros_like(res.u)
    ff[:, 0] = model.masses[0] * sample(prof, res.t)[2]
    assert_allclose(res.u, ff @ lti.t_u.T, rtol=1e-13, atol=1e-15)
    assert np.abs(res.e[:, 0]).max() < 1e-9
    # Force allocation decouples the other axes up to roundoff.
    assert np.abs(res.e[:, 1:]).max() < 1e-12
    assert res.r[-1, 0] == pytest.approx(0.02, abs=1e-12)


def test_closed_loop_tracking_settles_to_reference(rigid_design):
    model, lti = rigid_design
    motion = StageMotion(start_xy=(0.1, 0.1),
                         loop_refs=(z_move(0.02, rate=10_000.0), None, None))
    res = simulate(model, lti, motion, SimConfig(duration_s=0.6))
    assert np.abs(res.e[:, 0]).max() < 1e-6
    assert np.abs(res.e[-1, 0]) < 1e-12
    assert res.y[-1, 0] == pytest.approx(0.02, rel=1e-9)


def test_step_halving_shows_fourth_order_convergence(mini_design):
    model, lpv = mini_design
    motion = StageMotion(start_xy=(0.07, 0.13),
                         loop_refs=(z_move(rate=20_000.0), None, None))
    errs = {}
    for rate in (40_000.0, 80_000.0, 160_000.0):
        cfg = SimConfig(duration_s=0.08, sample_rate_hz=rate)
        errs[rate] = simulate(model, lpv, motion, cfg).e
    scale = np.abs(errs[40_000.0]).max()
    d_coarse = np.abs(errs[80_000.0][::2] - errs[40_000.0]).max() / scale
    d_fine = np.abs(errs[160_000.0][::2] - errs[80_000.0]).max() / scale
    assert d_fine <= 1e-8
    # One halving should shave the residual by about 2^4.
    assert 8.0 < d_coarse / d_fine < 30.0


def test_frozen_p_lpv_matches_lti_realization(mini_design):
    model, lpv = mini_design
    p_star = (0.07, 0.13)
    motion = StageMotion(start_xy=p_star, loop_refs=(z_move(), None, None))
    cfg = SimConfig(duration_s=0.2)
    res_lpv = simulate(model, lpv, motion, cfg)
    res_fro = simulate(model, freeze_controller_set(lpv, p_star), motion, cfg)
    assert res_fro.kind == "lti"
    assert np.abs(res_lpv.e - res_fro.e).max() <= 1e-8
    assert np.abs(res_lpv.u - res_fro.u).max() <= 1e-8


@pytest.mark.parametrize("case", ["feedback-off", "measured-delayed"])
def test_assembled_loop_matches_reference_stepper(mini_design, case):
    """States, y and u agree with the per-stage loop fed the same tables.

    The motion is a scan with zero loop setpoints, as in the README.  A
    nonzero setpoint would make e = r - y a difference of two nearly
    equal numbers, whose rounding the controller states carry in either
    stepper, so the two would only agree to that rounding.
    """
    model, lpv = mini_design
    motion = StageMotion(start_xy=(0.05, 0.10), scan_x=z_move(0.05, 10_000.0))
    x0 = None
    if case == "feedback-off":
        cfg = SimConfig(duration_s=0.1, feedback=False)
    else:
        cfg = SimConfig(duration_s=0.1, scheduling_source="measured-delayed")
        x0 = 1e-6 * np.random.default_rng(5).standard_normal(2 * model.n_modes)
    res = simulate(model, lpv, motion, cfg, x0_plant=x0)
    gaps = max_relative_gap(res, reference_traces(model, lpv, motion, cfg, x0))
    assert max(gaps.values()) <= 1e-12, gaps


def test_short_run_is_bitwise_prefix_of_long_run(mini_design):
    model, lpv = mini_design
    scan = StageMotion(start_xy=(0.05, 0.10), scan_x=z_move(0.05, 10_000.0))
    short = simulate(model, lpv, scan, SimConfig(duration_s=0.05))
    long = simulate(model, lpv, scan, SimConfig(duration_s=0.1))
    n = short.t.size
    # Both runs span several assembly blocks, the short one ending mid-block.
    assert (n - 1) // sim.ASSEMBLY_BLOCK >= 3
    assert (n - 1) % sim.ASSEMBLY_BLOCK != 0
    for name in ("states", "y", "e", "u", "p"):
        assert np.array_equal(getattr(short, name),
                              getattr(long, name)[:n]), name


def test_oversized_run_is_refused_before_allocating(mini_design):
    model, lpv = mini_design
    # 1e16 steps: far beyond any memory, so a missing guard fails loudly.
    cfg = SimConfig(duration_s=1e12)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="GiB of traces and tables"):
            simulate(model, lpv, StageMotion(start_xy=(0.1, 0.1)), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("design", ["rigid_design", "mini_design"])
def test_size_guard_counts_what_a_run_allocates(design, request):
    """(n + 1) x _bytes_per_step against the arrays a scan run keeps.

    The two may differ by less than one step's bytes: the half-grid
    inputs hold 2n + 1 rows, not 2n + 2, and a fixed loop's single
    realization is not counted per step.
    """
    model, controllers = request.getfixturevalue(design)
    scan = StageMotion(start_xy=(0.05, 0.10), scan_x=z_move(0.05, 10_000.0))
    cfg = SimConfig(duration_s=0.05)
    res = simulate(model, controllers, scan, cfg)
    tab = sim._run_tables(model, controllers, scan, cfg, None)
    stacked = [k.a.ndim == 3 for k in tab.loops]
    assert all(stacked) if controllers.kind == "lpv" else not any(stacked)
    arrays = [res.states, tab.b_t, tab.c_t, tab.bs_t,
              tab.r_h, tab.uff_h, tab.fsc_h,
              res.t, res.p, res.r, res.y, res.e, res.u, res.ma, res.msd]
    arrays += [m for k in tab.loops for m in (k.a, k.b, k.c, k.d)]
    allocated = sum(m.nbytes for m in arrays)
    per_step = sim._bytes_per_step(model, controllers)
    assert abs((cfg.n_steps + 1) * per_step - allocated) <= per_step


def test_divergent_loop_aborts_with_diagnosis(rigid_design):
    model, lti = rigid_design
    unstable = replace(lti, t_y=-lti.t_y)
    motion = StageMotion(start_xy=(0.1, 0.1),
                         loop_refs=(z_move(0.02, rate=10_000.0), None, None))
    with pytest.raises(NumericalError, match="state norm exceeded"):
        simulate(model, unstable, motion, SimConfig(duration_s=0.5))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("gain_scale, block", [(1e8, 0), (1e4, 1)])
def test_divergence_is_reported_at_the_reference_step(rigid_design,
                                                      gain_scale, block):
    """A loop made unstable by scaling its gains, from a state of 1e-300:
    the simulator, which checks the state norm once per assembly block,
    names the step at which the per-step reference stepper stops.  The
    200-step run has one full block and a partial one; with 1e8 the norm
    leaves the trusted range in the middle of the full block and overflows
    before the block ends, with 1e4 it leaves in the partial block.  No
    floating-point warning escapes from the steps after the divergence."""
    model, lti = rigid_design
    unstable = replace(lti, loops=tuple(
        Cascade((Gain(c.elements[0].k * gain_scale),) + c.elements[1:])
        for c in lti.loops))
    motion = StageMotion(start_xy=(0.1, 0.1))
    cfg = SimConfig(duration_s=0.02)
    x0 = np.full(2 * model.n_modes, 1e-300)
    status = reference_run(model, unstable, motion, cfg, x0)[0]
    assert status // sim.ASSEMBLY_BLOCK == block
    assert 0 < status % sim.ASSEMBLY_BLOCK < sim.ASSEMBLY_BLOCK - 1
    with pytest.raises(NumericalError,
                       match=rf"\(step {status} of {cfg.n_steps}\)"):
        simulate(model, unstable, motion, cfg, x0_plant=x0)


def test_scheduling_trace_sources(mini_design):
    model, lpv = mini_design
    scan = StageMotion(start_xy=(0.05, 0.10), scan_x=z_move(0.05, 10_000.0))
    ref = simulate(model, lpv, scan, SimConfig(duration_s=0.3))
    del_ = simulate(model, lpv, scan,
                    SimConfig(duration_s=0.3,
                              scheduling_source="measured-delayed"))
    # Reference scheduling follows the commanded scan from the start point.
    pos = sample(scan.scan_x, ref.t)[0]
    assert_allclose(ref.p[:, 0], 0.05 + pos, rtol=0, atol=1e-12)
    assert np.all(np.diff(ref.p[:, 0]) >= 0.0)
    # The delayed trace lags the reference trace by exactly one step.
    assert np.array_equal(del_.p[1:], ref.p[:-1])
    assert np.array_equal(del_.p[0], ref.p[0])
    assert np.all(ref.p[:, 1] == 0.10)


def test_scheduling_source_barely_moves_the_metrics(mini_design):
    model, lpv = mini_design
    bounds = MotionBounds(v_max=0.1, a_max=5.0, j_max=1000.0, s_max=2e5)
    scan = StageMotion(start_xy=(0.05, 0.10), scan_x=plan(0.1, bounds, 10_000.0))
    res = {}
    for source in ("reference", "measured-delayed"):
        cfg = SimConfig(duration_s=1.4, scheduling_source=source)
        run = simulate(model, lpv, scan, cfg)
        res[source] = [m for m in interval_metrics(run)
                       if m.name == "constant velocity"][0]
    ma_ref = res["reference"].ma_overall
    msd_ref = res["reference"].msd_overall
    assert abs(res["measured-delayed"].ma_overall / ma_ref - 1.0) < 0.05
    assert abs(res["measured-delayed"].msd_overall / msd_ref - 1.0) < 0.05


def test_energy_decays_with_zero_reference(mini_design):
    model, lpv = mini_design
    rng = np.random.default_rng(11)
    x0 = 1e-6 * rng.standard_normal(2 * model.n_modes)
    res = simulate(model, lpv, StageMotion(start_xy=(0.1, 0.1)),
                   SimConfig(duration_s=0.4), x0_plant=x0)
    every = int(round(0.01 * res.config.sample_rate_hz))
    # The controller's internal states settle to a nonzero resting point, so
    # watch the plant substate: it must ring down to zero, monotonically at
    # this coarse sampling once the first controller kick has passed.
    plant_part = res.states[::every, :2 * model.n_modes]
    norms = np.linalg.norm(plant_part, axis=1)
    tail = norms[1:]
    assert tail.size >= 30
    assert np.all(np.diff(tail) < 0.0)
    assert tail[-1] < 1e-4 * tail[0]


def test_sim_config_validation():
    with pytest.raises(ConfigError, match="duration"):
        SimConfig(duration_s=0.0)
    with pytest.raises(ConfigError, match="scheduling source"):
        SimConfig(duration_s=1.0, scheduling_source="forecast")
    with pytest.raises(ConfigError, match="multiple of the sample step"):
        SimConfig(duration_s=1.0, window_s=0.00512341)
    with pytest.raises(ConfigError, match="does not fit"):
        SimConfig(duration_s=0.004, window_s=0.005)
    with pytest.raises(ConfigError, match="settling"):
        SimConfig(duration_s=1.0, settling_s=-0.1)
    with pytest.raises(ConfigError, match="settling_s must be a finite number"):
        SimConfig(duration_s=1.0, settling_s=np.nan)
    with pytest.raises(ConfigError, match="window_s must be a finite number"):
        SimConfig(duration_s=1.0, window_s=np.nan)
    with pytest.raises(ConfigError, match="duration_s must be a finite number"):
        sim_config_from_dict({"duration_s": "1"})
    # A truthy string must not silently close the loop.
    with pytest.raises(ConfigError, match="feedback must be true or false"):
        sim_config_from_dict({"duration_s": 1, "feedback": "no"})
    with pytest.raises(ConfigError, match=r"unknown simulation config fields: \['backend'\]"):
        sim_config_from_dict({"duration_s": 1, "backend": "numpy"})
    with pytest.raises(ConfigError, match="feedforward must be true or false"):
        SimConfig(duration_s=1.0, feedforward=1)


def test_simulate_input_validation(mini_design):
    model, lpv = mini_design
    still = StageMotion(start_xy=(0.1, 0.1))
    with pytest.raises(ConfigError, match="twice the highest plant mode"):
        simulate(model, lpv, still, SimConfig(duration_s=0.1,
                                              sample_rate_hz=500.0,
                                              window_s=0.002))
    off_grid = StageMotion(start_xy=(0.1, 0.1),
                           loop_refs=(z_move(rate=9000.0), None, None))
    with pytest.raises(ConfigError, match="integer multiple"):
        simulate(model, lpv, off_grid, SimConfig(duration_s=0.1))
    runaway = StageMotion(start_xy=(0.19, 0.1), scan_x=z_move(0.05, 10_000.0))
    with pytest.raises(DomainError):
        simulate(model, lpv, runaway, SimConfig(duration_s=0.3))
    with pytest.raises(ConfigError, match="reference profiles"):
        simulate(model, lpv,
                 StageMotion(start_xy=(0.1, 0.1),
                             loop_refs=(None,) * 4),
                 SimConfig(duration_s=0.1))


def test_uncertified_warning(mini_design, caplog):
    model, lpv = mini_design
    still = StageMotion(start_xy=(0.1, 0.1))
    with caplog.at_level(logging.WARNING, logger="lpvslc.sim"):
        simulate(model, lpv, still, SimConfig(duration_s=0.05))
    assert any("certification" in rec.message for rec in caplog.records)
    report = certify(model, lpv, grid_points(model.workspace, 2, 2))
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="lpvslc.sim"):
        simulate(model, lpv, still, SimConfig(duration_s=0.05),
                 certification=report)
    assert not any("certification" in rec.message for rec in caplog.records)


def test_ma_msd_constant_error_gives_mean_and_zero_spread():
    rate = 10_000.0
    ma, msd = ma_msd(np.full(2001, -2.5), 0.005, rate)
    ok = np.isfinite(ma)
    assert ok.sum() == 2001 - 50
    assert np.abs(ma[ok] + 2.5).max() < 1e-12
    assert np.abs(msd[ok]).max() < 1e-12
    assert np.all(np.isnan(ma[:25])) and np.all(np.isnan(ma[-25:]))


def test_ma_msd_whole_period_sinusoid():
    rate = 10_000.0
    t = np.arange(20001) / rate
    amp, freq = 2.0, 1000.0
    e = amp * np.sin(2.0 * np.pi * freq * t)
    ma, msd = ma_msd(e, 0.005, rate)
    ok = np.isfinite(ma)
    assert np.abs(ma[ok]).max() <= 1e-6 * amp
    assert np.abs(msd[ok] / (amp / np.sqrt(2.0)) - 1.0).max() <= 1e-3


def test_ma_msd_definition_bounds():
    rng = np.random.default_rng(3)
    rate = 5000.0
    e = rng.standard_normal((3000, 2))
    ma, msd = ma_msd(e, 0.01, rate)
    ok = np.isfinite(ma[:, 0])
    assert np.all(msd[ok] >= 0.0)
    # Pointwise the spread cannot exceed the largest deviation in the window.
    hw = int(round(0.01 * rate)) // 2
    for i in np.flatnonzero(ok)[::97]:
        for a in range(2):
            dev = np.abs(e[i - hw:i + hw + 1, a] - ma[i, a]).max()
            assert msd[i, a] <= dev + 1e-12


@pytest.mark.parametrize("m", [50, 51])
def test_ma_msd_matches_brute_force_windows(m):
    rng = np.random.default_rng(29)
    rate = 8000.0
    h = 1.0 / rate
    x = rng.standard_normal(4001)
    T = m * h
    ma, msd = ma_msd(x, T, rate)
    lo = m // 2 + (1 if m % 2 else 0)
    centers = rng.integers(lo, 4001 - lo, size=50)
    for i in centers:
        if m % 2 == 0:
            w = x[i - m // 2:i + m // 2 + 1]
            bi = np.trapezoid(w, dx=h) / T
            bv = np.trapezoid((w - bi) ** 2, dx=h) / T
        else:
            hw = (m - 1) // 2
            w = x[i - hw:i + hw + 1]
            e_l = 0.5 * (x[i - hw - 1] + x[i - hw])
            e_r = 0.5 * (x[i + hw] + x[i + hw + 1])
            bi = (np.trapezoid(w, dx=h)
                  + 0.25 * h * (e_l + x[i - hw])
                  + 0.25 * h * (e_r + x[i + hw])) / T
            bv = (np.trapezoid((w - bi) ** 2, dx=h)
                  + 0.25 * h * ((e_l - bi) ** 2 + (x[i - hw] - bi) ** 2)
                  + 0.25 * h * ((e_r - bi) ** 2 + (x[i + hw] - bi) ** 2)) / T
        assert abs(ma[i] - bi) <= 1e-12
        assert abs(msd[i] - np.sqrt(bv)) <= 1e-12


def test_ma_msd_window_errors():
    rate = 1000.0
    x = np.zeros(100)
    with pytest.raises(ConfigError, match="longer than the series"):
        ma_msd(x, 0.2, rate)
    with pytest.raises(ConfigError, match="multiple of the sample step"):
        ma_msd(x, 0.0105_5, rate)
    with pytest.raises(ConfigError, match="positive"):
        ma_msd(x, -0.01, rate)


def test_interval_markers_cover_move_phases():
    rate = 10_000.0
    prof = z_move(0.05, rate)
    motion = StageMotion(start_xy=(0.05, 0.1), scan_x=prof)
    cfg = SimConfig(duration_s=prof.duration + 0.3, sample_rate_hz=rate)
    marks = motion_intervals(motion, cfg)
    names = [iv.name for iv in marks]
    assert names == ["acceleration", "settling", "constant velocity",
                     "acceleration", "settling"]
    accel, settle, cruise = marks[0], marks[1], marks[2]
    assert settle.t_start == accel.t_end
    assert settle.t_end - settle.t_start == pytest.approx(cfg.settling_s)
    assert cruise.t_start >= settle.t_end
    assert cruise.t_end <= marks[3].t_start
    # A run with no commanded motion carries no markers.
    assert motion_intervals(StageMotion(start_xy=(0.1, 0.1)), cfg) == ()


def _synthetic_result(e, rate=10_000.0, window=0.005):
    n = e.shape[0]
    t = np.arange(n) / rate
    ma, msd = ma_msd(e, window, rate)
    cfg = SimConfig(duration_s=(n - 1) / rate, sample_rate_hz=rate,
                    window_s=window)
    zeros = np.zeros_like(e)
    return SimResult(t=t, r=zeros, y=zeros, e=e, u=zeros,
                     p=np.zeros((n, 2)), ma=ma, msd=msd,
                     intervals=(Interval("constant velocity", 0.02, 0.08),),
                     config=cfg, kind="lti",
                     axis_names=tuple(f"a{i}" for i in range(e.shape[1])),
                     states=np.zeros((n, 1)))


def test_interval_metrics_constant_error():
    res = _synthetic_result(np.full((1001, 2), -3.0))
    m = interval_metrics(res)[0]
    assert_allclose(m.ma_mean, 3.0, rtol=0, atol=1e-12)
    assert_allclose(m.msd_mean, 0.0, rtol=0, atol=1e-12)
    assert m.ma_overall == pytest.approx(3.0)


def test_interval_metrics_empty_interval_raises():
    res = _synthetic_result(np.ones((1001, 1)))
    empty = Interval("constant velocity", 0.0, 0.0005)
    with pytest.raises(ConfigError, match="no samples"):
        interval_metrics(res, [empty])


def fmt_float(x: float) -> str:
    """Round-trip exact decimal form with 17 significant digits."""
    return format(float(x), ".17g")


def test_csv_rows_format_as_fmt_float(tmp_path):
    """dump_csv formats a whole row at once; every field must read exactly
    as fmt_float writes it, special values included."""
    special = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072e-308,
               0.1, 1e300, -1.0 / 3.0, 1.0, 2.0 ** 53 + 2.0]
    cols = [np.array(special), np.array(special[::-1]),
            np.arange(len(special))]
    path = tmp_path / "special.csv"
    dump_csv(path, ["a", "b", "k"], cols)
    lines = path.read_text().split("\n")
    assert lines[0] == "a,b,k" and lines[-1] == ""
    want = [",".join(fmt_float(c[i]) for c in cols)
            for i in range(len(special))]
    assert lines[1:-1] == want
    assert "-0" in want[0] and "nan" in want[2] and "-inf" in want[4]


def test_result_export_and_comparison(tmp_path, rigid_design):
    model, lti = rigid_design
    motion = StageMotion(start_xy=(0.1, 0.1),
                         loop_refs=(z_move(0.02, rate=10_000.0), None, None))
    res = simulate(model, lti, motion, SimConfig(duration_s=0.6))
    path = tmp_path / "run.csv"
    write_result_csv(path, res)
    header, data = load_csv(path)
    assert header[:3] == ["t", "p_x", "p_y"]
    assert len(header) == 3 + 6 * len(res.axis_names)
    assert data.shape[0] == res.t.size
    assert_allclose(data[:, 0], res.t, atol=1e-12)

    summary = result_summary(res)
    assert {"kind", "interval", "ma_m", "msd_m", "per_axis",
            "config"} <= set(summary)
    cmp = compare_runs(res, res)
    labels = [c["label"] for c in cmp["controllers"]]
    assert labels[0] != labels[1]
    for entry in cmp["controllers"]:
        assert {"ma_m", "msd_m", "reduction_pct"} <= set(entry)
        assert entry["reduction_pct"]["ma"] == pytest.approx(0.0)
        assert entry["reduction_pct"]["msd"] == pytest.approx(0.0)
    out = tmp_path / "cmp.json"
    dump_json(cmp, out)
    assert load_json(out)["interval"] == "constant velocity"


def test_scan_excites_resonance_and_cruise_recovers(mini_design):
    model, lpv = mini_design
    bounds = MotionBounds(v_max=0.1, a_max=5.0, j_max=1000.0, s_max=2e5)
    scan = StageMotion(start_xy=(0.05, 0.10), scan_x=plan(0.1, bounds, 10_000.0))
    res = simulate(model, lpv, scan, SimConfig(duration_s=1.4))
    metrics = {m.name: m for m in interval_metrics(res)}
    assert np.abs(res.e).max() > 1e-9
    assert metrics["acceleration"].ma_overall > metrics["constant velocity"].ma_overall
    assert metrics["constant velocity"].msd_overall < metrics["settling"].msd_overall
