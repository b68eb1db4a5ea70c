"""Sequential loop-closing design and certification tests.

The expensive benchmark designs (both procedures, default spec) run once
in a module fixture; cheap contract tests build small plants of their own.
"""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lpvslc.design import (
    CertificationReport,
    ControllerSet,
    DesignSpec,
    certify,
    closed_loop_matrix,
    controllers_from_dict,
    controllers_to_dict,
    decoupled_plant_frf,
    design_lpv_slc,
    design_lti_slc,
    design_spec_from_dict,
    design_spec_to_dict,
    grid_points,
    rigid_body_decouple,
    tune_gain,
    _find_resonance_peaks,
)
from lpvslc.errors import ConfigError, DesignInfeasibleError
from lpvslc.filters import Cascade, Gain, Integrator, Lead, cascade_frf
from lpvslc.freqresp import default_grid, frf, margins_and_bandwidth
from lpvslc.plant import ModalPlantModel, Mode, benchmark_plant, frozen_realization
from lpvslc.scheduling import eval_surface

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


def uniform_mode_plant():
    """Flexible but position-independent: zero wavenumbers everywhere."""
    return ModalPlantModel(
        modes=(Mode("rigid", axis="z"), Mode("rigid", axis="rx"),
               Mode("rigid", axis="ry"), Mode("flex", kx=0.0, ky=0.0)),
        masses=np.array([10.0, 0.1, 0.1, 1.0]),
        frequencies_hz=np.array([0.0, 0.0, 0.0, 300.0]),
        damping=np.array([0.0, 0.0, 0.0, 0.02]),
        actuator_xy=ACTUATORS,
        sensor_xy=SENSORS,
        workspace=BOX,
        flex_actuation_gain=0.5,
        flex_sensing_gain=0.5,
    )


@pytest.fixture(scope="module")
def benchmark_designs():
    model = benchmark_plant()
    spec = DesignSpec()
    lti = design_lti_slc(model, spec)
    lpv = design_lpv_slc(model, spec)
    verify = grid_points(model.workspace, 5, 5)
    return {
        "model": model,
        "spec": spec,
        "lti": lti,
        "lpv": lpv,
        "verify": verify,
        "report_lti": certify(model, lti, verify),
        "report_lpv": certify(model, lpv, verify),
    }


def test_grid_points_x_major_ordering():
    grid = grid_points(((0.0, 1.0), (0.0, 2.0)), 3, 3)
    assert grid.shape == (9, 2)
    assert_allclose(grid[0], [0.0, 0.0])
    assert_allclose(grid[1], [0.0, 1.0])
    assert_allclose(grid[3], [0.5, 0.0])
    assert_allclose(grid[-1], [1.0, 2.0])


def test_design_spec_default_grids_resolve():
    model = benchmark_plant()
    design, verify, order, freq_grid = DesignSpec().resolve(model)
    assert design.shape == (9, 2)
    assert verify.shape == (25, 2)
    assert order == (0, 1, 2)
    assert freq_grid.freqs_hz[0] > 0.0


def test_design_spec_validation():
    with pytest.raises(ConfigError):
        DesignSpec(target_bandwidth_hz=0.0)
    with pytest.raises(ConfigError):
        DesignSpec(min_bandwidth_hz=500.0, target_bandwidth_hz=100.0)
    with pytest.raises(ConfigError):
        DesignSpec(alpha=-1.0)
    with pytest.raises(ConfigError, match="target_bandwidth_hz must be finite"):
        DesignSpec(target_bandwidth_hz=np.nan)
    with pytest.raises(ConfigError, match="target_bandwidth_hz must be finite"):
        design_spec_from_dict({"target_bandwidth_hz": "nan"})
    with pytest.raises(ConfigError, match="sensitivity bound"):
        DesignSpec(sensitivity_bound_db=-3.0)
    with pytest.raises(ConfigError, match="bisection iterations"):
        DesignSpec(bisection_iterations=-5)
    with pytest.raises(ConfigError):
        DesignSpec(loop_order=(0, 0, 1)).resolve(benchmark_plant())


def test_design_spec_dict_roundtrip():
    spec = DesignSpec(target_bandwidth_hz=120.0, loop_order=(2, 0, 1),
                      design_grid=[[0.0, 0.0], [0.1, 0.2]])
    back = design_spec_from_dict(design_spec_to_dict(spec))
    assert back.target_bandwidth_hz == spec.target_bandwidth_hz
    assert back.loop_order == spec.loop_order
    assert_allclose(back.design_grid, spec.design_grid)


def test_rigid_decoupling_gives_exact_double_integrators():
    model = rigid_plant()
    freqs = np.array([0.7, 3.0, 40.0, 500.0])
    for p in ((0.0, 0.0), (0.13, 0.07)):
        t_u, t_y = rigid_body_decouple(model, p)
        h = decoupled_plant_frf(model, p, freqs, t_u, t_y)
        w = 2.0 * np.pi * freqs
        for i, m in enumerate(model.masses):
            assert_allclose(h[:, i, i], -1.0 / (m * w ** 2), rtol=1e-12)
        off = h.copy()
        for i in range(3):
            off[:, i, i] = 0.0
        assert np.max(np.abs(off)) < 1e-15 / np.min(model.masses)


def test_decoupled_benchmark_diagonally_dominant_at_low_frequency():
    # Flexible coupling pollutes the off-diagonals, but far below the
    # first resonance the rigid 1/s^2 diagonal towers over it.
    model = benchmark_plant()
    t_u, t_y = rigid_body_decouple(model, (0.1, 0.1))
    freqs = np.array([1.0, 2.0, 5.0])
    for p in ((0.0, 0.0), (0.17, 0.03), (0.1, 0.1)):
        h = decoupled_plant_frf(model, p, freqs, t_u, t_y)
        mags = np.abs(h)
        for k in range(len(freqs)):
            diag_min = np.min(np.diag(mags[k]))
            off = mags[k] - np.diag(np.diag(mags[k]))
            assert np.max(off) < 1e-2 * diag_min


def test_tune_gain_flat_plant():
    freqs = default_grid().freqs_hz
    g = np.full(len(freqs), 2.0 + 0.0j)
    k = tune_gain(g, freqs, Cascade((Gain(1.0),)), 50.0)
    assert_allclose(k.k, 0.5, rtol=1e-12)


def test_tune_gain_places_crossover_on_rigid_loop():
    freqs = default_grid().freqs_hz
    mass, f_bw = 2.5, 80.0
    g = 1.0 / (mass * (2.0j * np.pi * freqs) ** 2)
    cascade = Cascade(tuple([Integrator()] + [Lead(f_bw=f_bw, alpha=3.0)] * 3))
    gain = tune_gain(g, freqs, cascade, f_bw)
    g_at_bw = 1.0 / (mass * (2.0j * np.pi * f_bw) ** 2)
    c_at_bw = cascade_frf(cascade, np.array([f_bw]))[0]
    assert abs(abs(gain.k * c_at_bw * g_at_bw) - 1.0) < 1e-12
    loop = gain.k * cascade_frf(cascade, freqs) * g
    margins = margins_and_bandwidth(freqs, loop)
    assert abs(margins.f_crossover_hz / f_bw - 1.0) < 0.01


def test_tune_gain_vanishing_loop_raises():
    freqs = default_grid().freqs_hz
    with pytest.raises(DesignInfeasibleError):
        tune_gain(np.zeros(len(freqs), dtype=complex), freqs,
                  Cascade((Gain(1.0),)), 50.0)


def test_rigid_plant_design_achieves_the_cap():
    model = rigid_plant()
    cs = design_lti_slc(model, DesignSpec(target_bandwidth_hz=150.0))
    assert cs.achieved_bandwidth_hz == 150.0
    report = certify(model, cs, grid_points(model.workspace, 5, 5))
    assert report.passed
    assert report.worst_sensitivity_db() < 6.0
    # No resonances anywhere, so no notch sections either.
    for cascade in cs.loops:
        assert all(not isinstance(e, Lead) or e.alpha == 3.0
                   for e in cascade.elements)
        assert len(cascade.scheduled_part) == 0


def test_design_infeasible_raises_with_position():
    model = benchmark_plant()
    spec = DesignSpec(target_bandwidth_hz=400.0, min_bandwidth_hz=400.0)
    with pytest.raises(DesignInfeasibleError):
        design_lti_slc(model, spec)


def test_benchmark_designs_certify(benchmark_designs):
    for kind in ("lti", "lpv"):
        report = benchmark_designs[f"report_{kind}"]
        assert report.passed, f"{kind} certification failed"
        assert report.worst_sensitivity_db() <= 6.0 + 1e-9
        assert benchmark_designs[kind].achieved_bandwidth_hz >= 10.0


def test_scheduled_design_beats_fixed_bandwidth(benchmark_designs):
    lti = benchmark_designs["lti"].achieved_bandwidth_hz
    lpv = benchmark_designs["lpv"].achieved_bandwidth_hz
    assert lpv >= 1.3 * lti


def test_lpv_zero_damping_surfaces_vary_with_position(benchmark_designs):
    lpv = benchmark_designs["lpv"]
    grid = benchmark_designs["verify"]
    spans = []
    for cascade in lpv.loops:
        for notch in cascade.scheduled_part:
            beta1 = eval_surface(notch.beta1, grid)
            spans.append(np.max(beta1) - np.min(beta1))
            f1 = eval_surface(notch.f1, grid)
            assert np.max(f1) - np.min(f1) < 0.02 * np.median(f1)
    assert max(spans) > 0.05


def test_lpv_notch_frequency_tracks_local_resonance(benchmark_designs):
    model = benchmark_designs["model"]
    lpv = benchmark_designs["lpv"]
    freqs = default_grid().freqs_hz
    masses = model.masses[: model.n_rigid]
    for p in grid_points(model.workspace, 3, 3):
        h = decoupled_plant_frf(model, p, freqs, lpv.t_u, lpv.t_y)
        for i, cascade in enumerate(lpv.loops):
            peaks = _find_resonance_peaks(freqs, h[:, i, i], masses[i])
            for notch in cascade.scheduled_part:
                f1 = eval_surface(notch.f1, p)
                near = [pk.f_hz for pk in peaks
                        if abs(pk.f_hz / f1 - 1.0) < 0.1]
                if near:
                    assert min(abs(f / f1 - 1.0) for f in near) < 0.02


def test_nyquist_agrees_with_eigenvalues_when_stable(benchmark_designs):
    for kind in ("lti", "lpv"):
        for pt in benchmark_designs[f"report_{kind}"].points:
            assert pt.eig_stable
            assert pt.eig_max_real < 0.0
            assert all(lc.nyquist_stable for lc in pt.loops)


def test_nyquist_agrees_with_eigenvalues_when_destabilized(benchmark_designs):
    lti = benchmark_designs["lti"]
    hot_loops = []
    for cascade in lti.loops:
        gain = cascade.elements[0]
        hot_loops.append(Cascade((Gain(gain.k * 100.0),)
                                 + cascade.elements[1:]))
    broken = ControllerSet(
        loops=tuple(hot_loops), t_u=lti.t_u, t_y=lti.t_y,
        loop_order=lti.loop_order,
        achieved_bandwidth_hz=lti.achieved_bandwidth_hz, kind="lti")
    report = certify(benchmark_designs["model"], broken,
                     benchmark_designs["verify"])
    assert not report.passed
    for pt in report.points:
        assert not pt.eig_stable
        assert not all(lc.nyquist_stable for lc in pt.loops)


def test_certification_verdict_invariant_to_loop_order(benchmark_designs):
    lti = benchmark_designs["lti"]
    reordered = ControllerSet(
        loops=lti.loops, t_u=lti.t_u, t_y=lti.t_y, loop_order=(2, 1, 0),
        achieved_bandwidth_hz=lti.achieved_bandwidth_hz, kind="lti")
    report = certify(benchmark_designs["model"], reordered,
                     benchmark_designs["verify"])
    assert report.passed == benchmark_designs["report_lti"].passed
    for pt, ref in zip(report.points, benchmark_designs["report_lti"].points):
        assert pt.det_residual < 1e-6 and ref.det_residual < 1e-6
        assert pt.eig_stable == ref.eig_stable


def test_design_is_deterministic():
    model = benchmark_plant()
    spec = DesignSpec(target_bandwidth_hz=40.0)
    first = controllers_to_dict(design_lti_slc(model, spec))
    second = controllers_to_dict(design_lti_slc(model, spec))
    assert json.dumps(first, sort_keys=True) == json.dumps(second,
                                                           sort_keys=True)


def test_lpv_design_degenerates_to_lti_without_position_dependence():
    """A plant whose couplings do not move with p must make both
    procedures produce the same controller within fit roundoff."""
    model = uniform_mode_plant()
    spec = DesignSpec(target_bandwidth_hz=60.0)
    lti = design_lti_slc(model, spec)
    lpv = design_lpv_slc(model, spec)
    assert lpv.achieved_bandwidth_hz == lti.achieved_bandwidth_hz
    freqs = default_grid().freqs_hz
    for p in ((0.0, 0.0), (0.06, 0.17), (0.2, 0.2)):
        for c_lti, c_lpv in zip(lti.loops, lpv.loops):
            h_lti = cascade_frf(c_lti, freqs, p)
            h_lpv = cascade_frf(c_lpv, freqs, p)
            assert np.max(np.abs(h_lpv - h_lti) / np.abs(h_lti)) < 1e-6


def test_closed_loop_matrix_eigenvalues(benchmark_designs):
    model = benchmark_designs["model"]
    lpv = benchmark_designs["lpv"]
    p = (0.05, 0.15)
    a_cl = closed_loop_matrix(model, lpv, p)
    n_plant = frozen_realization(model, p).n_states
    n_ctrl = sum(len(realize_states(c, p)) for c in lpv.loops)
    assert a_cl.shape == (n_plant + n_ctrl, n_plant + n_ctrl)
    assert np.max(np.linalg.eigvals(a_cl).real) < 0.0


def realize_states(cascade, p):
    from lpvslc.filters import realize
    ss = realize(cascade, p)
    return list(range(ss.n_states))


def test_controllers_dict_roundtrip(benchmark_designs):
    lpv = benchmark_designs["lpv"]
    back = controllers_from_dict(controllers_to_dict(lpv))
    assert back.kind == "lpv"
    assert back.loop_order == lpv.loop_order
    assert back.achieved_bandwidth_hz == lpv.achieved_bandwidth_hz
    freqs = np.geomspace(5.0, 2000.0, 40)
    for p in ((0.0, 0.0), (0.12, 0.08)):
        for c0, c1 in zip(lpv.loops, back.loops):
            assert_allclose(cascade_frf(c1, freqs, p),
                            cascade_frf(c0, freqs, p), rtol=1e-12)


def test_certification_report_outputs(benchmark_designs):
    report = benchmark_designs["report_lpv"]
    data = report.to_dict()
    assert data["passed"] is True
    assert len(data["points"]) == 25
    assert {"p", "det_residual", "eig_stable", "loops"} <= set(
        data["points"][0])
    text = report.table()
    assert "PASS" in text
    assert text.count("\n") >= 25
