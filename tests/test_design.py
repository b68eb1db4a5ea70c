"""Sequential loop-closing design and certification tests.

The expensive benchmark designs (both procedures, default spec) run once
in a module fixture; cheap contract tests build small plants of their own.
"""

import dataclasses
import functools
import json
import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lpvslc import design, freqresp, sim
from lpvslc.design import (
    CERT_CHUNK,
    CERT_TAIL_N,
    PEAK_BAND_HZ,
    PEAK_MIN_RATIO,
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
    freeze_controller_set,
    grid_points,
    rigid_body_decouple,
    tune_gain,
    _certification_freqs,
    _design_common,
    _find_resonance_peaks,
    _fixed_section,
    _interp_loglog_mag,
    _skew_for,
)
from lpvslc.errors import (
    ConfigError,
    DesignInfeasibleError,
    DomainError,
    ModelError,
    NumericalError,
)
from lpvslc.filters import (
    Cascade,
    Gain,
    Integrator,
    Lead,
    Notch,
    cascade_frf,
    cascade_to_dict,
    n_states,
    realize,
)
from lpvslc.freqresp import (
    _det_stacked,
    default_grid,
    det_identity_residual,
    equivalent_plant,
    frf,
    margins_and_bandwidth,
    nyquist_stable,
)
from lpvslc.plant import (
    ModalPlantModel,
    Mode,
    benchmark_plant,
    frozen_realization,
    mode_shape_eval,
)
from lpvslc.scheduling import FrozenDesignSet, eval_surface, fit_surface
from lpvslc.sim import NOTCH_NYQUIST_FRACTION, SimConfig, benchmark_motion

import bisection_reference
from audit_reference import (
    reference_audit,
    reference_build_lpv_loops,
    reference_local_designs,
    required_beta1,
)
import certify_reference
from certify_reference import design_chain, reference_certify
from freeze_reference import per_notch_cascade_frf, per_notch_realize
from peaks_reference import loop_find_resonance_peaks
from freqresp_reference import (
    block_solve_equivalent_plant,
    entry_planes,
    fancy_index_det_stacked,
    full_update_equivalent_plant,
    stack_det_identity_residual,
)
from series_reference import assert_realizations_equal, chained_realize

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
    # _design_common is what design_lti_slc / design_lpv_slc run; it also
    # returns the report certify made from the design's cached plant FRFs.
    lti, design_report_lti = _design_common(model, spec, "lti")
    lpv, design_report_lpv = _design_common(model, spec, "lpv")
    verify = grid_points(model.workspace, 5, 5)
    return {
        "model": model,
        "spec": spec,
        "lti": lti,
        "lpv": lpv,
        "verify": verify,
        "report_lti": certify(model, lti, verify),
        "report_lpv": certify(model, lpv, verify),
        "design_report_lti": design_report_lti,
        "design_report_lpv": design_report_lpv,
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
    design, verify, order = DesignSpec().resolve(model)
    assert design.shape == (9, 2)
    assert verify.shape == (25, 2)
    assert order == (0, 1, 2)


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
    with pytest.raises(ConfigError, match="sensitivity_bound_db must be > 0"):
        DesignSpec(sensitivity_bound_db=-3.0)
    with pytest.raises(ConfigError, match="bisection iterations"):
        DesignSpec(bisection_iterations=-5)
    with pytest.raises(ConfigError):
        DesignSpec(loop_order=(0, 0, 1)).resolve(benchmark_plant())
    # Counts are not truncated or read from booleans.
    with pytest.raises(ConfigError, match="n_leads must be an integer"):
        design_spec_from_dict({"n_leads": 2.7})
    with pytest.raises(ConfigError, match="surface_order must be an integer"):
        design_spec_from_dict({"surface_order": True})
    with pytest.raises(ConfigError, match="bisection_iterations must be an integer"):
        design_spec_from_dict({"bisection_iterations": "5"})
    with pytest.raises(ConfigError, match=r"loop_order\[1\] must be an integer"):
        design_spec_from_dict({"loop_order": [0, 1.5, 2]})
    # Booleans and strings are not read as numbers.
    for key in ("alpha", "target_bandwidth_hz", "min_bandwidth_hz",
                "sensitivity_bound_db"):
        for value in (True, "6.0"):
            with pytest.raises(ConfigError, match=f"{key} must be finite"):
                design_spec_from_dict({key: value})
    # Grids are (n, 2) arrays of real numbers.
    for key in ("design_grid", "verification_grid"):
        for value in ([[0.1, 0.1, 0.1]], [0.1], [[[0.1, 0.1]]], [[True, False]],
                      [[0.1, "0.1"]]):
            with pytest.raises(ConfigError, match=key):
                design_spec_from_dict({key: value})
        with pytest.raises(ConfigError, match=key):
            DesignSpec(**{key: np.full((2, 3), 0.1)})
    assert design_spec_from_dict({"n_leads": 2.0}).n_leads == 2


def test_design_spec_refuses_a_grid_with_no_points():
    """An empty design or verification grid is a ConfigError when the
    spec is made, not an IndexError or a failed reshape in the design."""
    for key in ("design_grid", "verification_grid"):
        with pytest.raises(ConfigError, match=key):
            DesignSpec(**{key: np.empty((0, 2))})


def test_design_spec_dict_roundtrip():
    back = design_spec_from_dict(json.loads(json.dumps(
        {"target_bandwidth_hz": 120, "loop_order": [2, 0, 1],
         "design_grid": [[0.0, 0.0], [0.1, 0.2]]})))
    assert back.target_bandwidth_hz == 120.0
    assert back.loop_order == (2, 0, 1)
    assert_allclose(back.design_grid, [[0.0, 0.0], [0.1, 0.2]])


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


def _tune(g_frf, freqs_hz, cascade, f_bw):
    """tune_gain on a plant response sampled on freqs_hz and a cascade."""
    with np.errstate(divide="ignore"):   # as the design's callers hold it
        mag_g = _interp_loglog_mag(np.log10(freqs_hz), g_frf, f_bw)
    return tune_gain(mag_g, cascade_frf(cascade, np.array([f_bw]))[0], f_bw)


def test_tune_gain_flat_plant():
    freqs = default_grid().freqs_hz
    g = np.full(len(freqs), 2.0 + 0.0j)
    k = _tune(g, freqs, Cascade((Gain(1.0),)), 50.0)
    assert_allclose(k.k, 0.5, rtol=1e-12)


def test_tune_gain_places_crossover_on_rigid_loop():
    freqs = default_grid().freqs_hz
    mass, f_bw = 2.5, 80.0
    g = 1.0 / (mass * (2.0j * np.pi * freqs) ** 2)
    cascade = Cascade(tuple([Integrator()] + [Lead(f_bw=f_bw, alpha=3.0)] * 3))
    gain = _tune(g, freqs, cascade, f_bw)
    g_at_bw = 1.0 / (mass * (2.0j * np.pi * f_bw) ** 2)
    c_at_bw = cascade_frf(cascade, np.array([f_bw]))[0]
    assert abs(abs(gain.k * c_at_bw * g_at_bw) - 1.0) < 1e-12
    loop = gain.k * cascade_frf(cascade, freqs) * g
    margins = margins_and_bandwidth(freqs, loop)
    assert abs(margins.f_crossover_hz / f_bw - 1.0) < 0.01


def test_tune_gain_vanishing_loop_raises():
    freqs = default_grid().freqs_hz
    with pytest.raises(DesignInfeasibleError):
        _tune(np.zeros(len(freqs), dtype=complex), freqs,
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


def test_nyquist_evaluator_is_the_exact_loop_response(benchmark_designs,
                                                       monkeypatch):
    """certify checks a position's loops in one nyquist_stable call on the
    stack of their responses, in loop order, and hands each row the loop's
    exact response L_i(f): at the certification frequencies it reproduces
    the sampled L bit for bit, for every loop at every 5x5 position of
    both sets."""
    checks = []

    def recording(freqs, l_frf, evaluator, n_origin_poles):
        checks.append((freqs, l_frf, evaluator))
        return nyquist_stable(freqs, l_frf, evaluator, n_origin_poles)

    monkeypatch.setattr(design, "nyquist_stable", recording)
    for kind in ("lti", "lpv"):
        certify(benchmark_designs["model"], benchmark_designs[kind],
                benchmark_designs["verify"])
    assert len(checks) == 2 * 25
    for freqs, l_frfs, evaluators in checks:
        assert l_frfs.shape == (3, len(freqs)) and len(evaluators) == 3
        for l_frf, evaluator in zip(l_frfs, evaluators):
            assert np.array_equal(evaluator(freqs), l_frf)


@pytest.mark.parametrize("kind", ["lti", "lpv"])
def test_nyquist_evaluator_forms_only_its_own_chain_entry(benchmark_designs,
                                                          kind, monkeypatch):
    """The exact response that the Nyquist check of loop i evaluates at the
    frequencies it adds forms chain_i from the arguments _loop_closures
    gives it, in one equivalent_plant call and no other: at (0.10, 0.1125)
    and at frequencies off certify's samples, for every loop of both
    README sets, chain_i and L_i have the bytes of _loop_closures' chain
    entry and of its product with the loop's response."""
    model, cs = benchmark_designs["model"], benchmark_designs[kind]
    p = np.array([0.10, 0.1125])
    evaluators = []

    def recording(freqs, l_frf, evaluator, n_origin_poles):
        evaluators.extend(evaluator)
        return nyquist_stable(freqs, l_frf, evaluator, n_origin_poles)

    monkeypatch.setattr(design, "nyquist_stable", recording)
    certify(model, cs, p)
    f = np.geomspace(0.013, 21000.0, 29)
    k_f = cs.loop_frfs(f, p)
    chain = design._loop_closures(
        decoupled_plant_frf(model, p, f, cs.t_u, cs.t_y), k_f,
        cs.loop_order)[0]
    formed = []

    def forming(*args):
        formed.append(equivalent_plant(*args))
        return formed[-1]

    monkeypatch.setattr(design, "equivalent_plant", forming)
    assert len(evaluators) == len(cs.loop_order)
    for i, evaluator in zip(cs.loop_order, evaluators):
        formed.clear()
        l_f = evaluator(f)
        assert len(formed) == 1 and formed[0].tobytes() == chain[i].tobytes()
        assert l_f.tobytes() == (chain[i] * k_f[i]).tobytes()


@pytest.mark.parametrize("oracle", ["determinant residual",
                                    "closed-loop eigenvalues"])
def test_design_raises_when_an_oracle_disagrees_with_the_verdict(oracle,
                                                                 monkeypatch):
    """A returned set whose full report fails an oracle that the SLC
    verdict does not compute, here by a determinant residual of 1.0 or a
    positive closed-loop eigenvalue at one position of a 3x3 verification
    grid, raises NumericalError naming the position and the oracle.  The
    design reads each oracle once per position, all in its one certify
    call."""
    model = benchmark_plant()
    grid = grid_points(model.workspace, 3, 3)
    k = 5
    calls = []
    if oracle == "determinant residual":
        real = design.det_identity_residual

        def residual(*args):
            calls.append(args)
            return 1.0 if len(calls) == k + 1 else real(*args)

        monkeypatch.setattr(design, "det_identity_residual", residual)
    else:
        real = np.linalg.eigvals

        def eigvals(a):
            calls.append(a)
            out = real(a)
            out[k, 0] = 1.0
            return out

        monkeypatch.setattr(design.np.linalg, "eigvals", eigvals)
    at = str((float(grid[k][0]), float(grid[k][1])))
    with pytest.raises(NumericalError,
                       match=re.escape(f"{oracle} fails at {at}")):
        design_lti_slc(model, DesignSpec(verification_grid=grid))
    assert len(calls) == (len(grid) if oracle == "determinant residual"
                          else 1)


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
    ss = realize(cascade, p)
    return list(range(ss.n_states))


def test_controllers_dict_roundtrip(benchmark_designs):
    lpv = benchmark_designs["lpv"]
    back = controllers_from_dict(controllers_to_dict(lpv))
    assert back.kind == "lpv"
    assert back.loop_order == lpv.loop_order
    assert back.achieved_bandwidth_hz == lpv.achieved_bandwidth_hz
    data = controllers_to_dict(lpv)
    for key, value in (("loop_order", [0, 1.7, 2]), ("loop_order", [0, True, 2]),
                       ("achieved_bandwidth_hz", True),
                       ("sensitivity_bound_db", "6"),
                       ("t_u", [[True] + row[1:] for row in data["t_u"]]),
                       ("t_y", [row[:-1] + ["1.0"] for row in data["t_y"]])):
        with pytest.raises(ConfigError):
            controllers_from_dict({**data, key: value})
    for key in ("t_u", "t_y"):
        with pytest.raises(ModelError, match="decoupling dimensions"):
            controllers_from_dict({**data, key: [1.0, 2.0, 3.0]})
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


def test_design_report_equals_fresh_certification(benchmark_designs):
    """The report certified on the design's cached plant FRFs is the one a
    fresh certify on the verification grid makes, to the last bit."""
    for kind in ("lti", "lpv"):
        assert (benchmark_designs[f"design_report_{kind}"].to_dict()
                == benchmark_designs[f"report_{kind}"].to_dict()), kind


def test_certify_report_does_not_depend_on_the_chunking(benchmark_designs,
                                                        monkeypatch):
    """Certified four positions at a time, on plant FRFs given by the
    caller, the 5x5 report is the one certify makes in a single chunk."""
    monkeypatch.setattr("lpvslc.design.CERT_CHUNK", 4)
    model = benchmark_designs["model"]
    grid = benchmark_designs["verify"]
    freqs = _certification_freqs()
    for kind in ("lti", "lpv"):
        cs = benchmark_designs[kind]
        frfs = [decoupled_plant_frf(model, p, freqs, cs.t_u, cs.t_y)
                for p in grid]
        got = certify(model, cs, grid, plant_frfs=frfs).to_dict()
        assert got == benchmark_designs[f"report_{kind}"].to_dict(), kind


def test_plant_frf_rows_do_not_depend_on_the_frequency_vector():
    """The design reads its base-grid plant FRFs as the [CERT_TAIL_N:]
    slice of the certification FRFs; that slice must equal a base-only
    evaluation bitwise."""
    model = benchmark_plant()
    t_u, t_y = rigid_body_decouple(model, (0.1, 0.1))
    base = default_grid().freqs_hz
    cert = _certification_freqs()
    assert np.array_equal(cert[CERT_TAIL_N:], base)
    for p in grid_points(model.workspace, 9, 9):
        sliced = decoupled_plant_frf(model, p, cert, t_u, t_y)[CERT_TAIL_N:]
        assert np.array_equal(sliced, decoupled_plant_frf(model, p, base,
                                                          t_u, t_y)), p


@pytest.mark.parametrize("n", [5, 9])
@pytest.mark.parametrize("kind", ["lti", "lpv"])
def test_stacked_certify_equals_per_position_reference(benchmark_designs,
                                                       kind, n):
    """certify freezes every loop once for the whole grid; its report must
    be the one a position-by-position certification makes, to the last
    bit.  The 9x9 grid includes the workspace corners, where zero damping
    surfaces of the LPV set are clamped."""
    model = benchmark_designs["model"]
    cs = benchmark_designs[kind]
    grid = grid_points(model.workspace, n, n)
    got = certify(model, cs, grid).to_dict()
    assert got == reference_certify(model, cs, grid).to_dict()
    if kind == "lpv" and n == 9:
        corners = grid_points(model.workspace, 2, 2)
        assert any(np.any(eval_surface(spec.beta1, corners) < 0)
                   for c in cs.loops for spec in c.scheduled_part)


def test_det_stacked_equals_fancy_index_reference_on_the_benchmark_sets(
        benchmark_designs):
    """At every position of a 9x9 grid, for both benchmark sets, the
    determinant of I + P K that the identity residual reads equals the
    fancy-indexed elimination's (tests/freqresp_reference.py) bit for bit.
    The certify reference calls the same residual as certify, so only
    this test holds the determinant itself to an oracle."""
    model = benchmark_designs["model"]
    freqs = _certification_freqs()
    for kind in ("lti", "lpv"):
        cs = benchmark_designs[kind]
        for p in grid_points(model.workspace, 9, 9):
            p_frf = decoupled_plant_frf(model, p, freqs, cs.t_u, cs.t_y)
            k = np.stack(cs.loop_frfs(freqs, p), axis=1)
            mats = np.eye(cs.n_loops)[None, :, :] + p_frf * k[:, None, :]
            assert (_det_stacked(entry_planes(mats)).tobytes()
                    == fancy_index_det_stacked(mats).tobytes()), (kind, p)


def test_det_identity_residual_equals_stack_reference_on_the_benchmark_sets(
        benchmark_designs):
    """At every position of a 9x9 grid, for both benchmark sets, the
    residual formed from the planes of I + P K equals the one formed from
    the (F, n, n) stack and the fancy-indexed elimination
    (tests/freqresp_reference.py), to the last bit."""
    model = benchmark_designs["model"]
    freqs = _certification_freqs()
    for kind in ("lti", "lpv"):
        cs = benchmark_designs[kind]
        order = cs.loop_order
        for p in grid_points(model.workspace, 9, 9):
            p_frf = decoupled_plant_frf(model, p, freqs, cs.t_u, cs.t_y)
            k_frfs = cs.loop_frfs(freqs, p)
            chain = design_chain(p_frf, k_frfs, order)
            got = det_identity_residual(p_frf, k_frfs, chain, order)
            ref = stack_det_identity_residual(p_frf, k_frfs, chain, order)
            assert repr(got) == repr(ref), (kind, p)


def test_equivalent_plant_equals_full_update_reference_on_the_benchmark_sets(
        benchmark_designs):
    """For both benchmark sets, every equivalent plant that certification
    and the scheduled-notch audit form, with all other loops closed and
    with the chain's earlier loops closed, at each position of a 9x9 grid
    and on the grid's stack, is the full-update closure's bit for bit."""
    model = benchmark_designs["model"]
    freqs = _certification_freqs()
    grid = grid_points(model.workspace, 9, 9)
    for kind in ("lti", "lpv"):
        cs = benchmark_designs[kind]
        p_frfs = np.stack([decoupled_plant_frf(model, p, freqs[::40], cs.t_u,
                                               cs.t_y) for p in grid])
        cases = [(p_frfs, cs.loop_frfs(freqs[::40], grid))]
        for p in grid:
            cases.append((decoupled_plant_frf(model, p, freqs, cs.t_u, cs.t_y),
                          cs.loop_frfs(freqs, p)))
        for p_frf, k_frfs in cases:
            closed = [0.0] * cs.n_loops
            for i in cs.loop_order:
                for ks in (k_frfs, closed):
                    assert (equivalent_plant(p_frf, ks, i).tobytes()
                            == full_update_equivalent_plant(p_frf, ks,
                                                            i).tobytes())
                closed = list(closed)
                closed[i] = k_frfs[i]


def test_certify_memory_does_not_grow_with_the_grid(benchmark_designs,
                                                    monkeypatch):
    """certify holds the loop responses and closed-loop matrices of one
    chunk of positions at a time, so its peak memory on a grid of eight
    chunks is that of a grid of two.  Holding the whole grid at once
    would add about 50 kB per extra position here, over 1 MB in all."""
    monkeypatch.setattr("lpvslc.design.CERT_CHUNK", 4)
    model = benchmark_designs["model"]
    peaks = []
    for n in (2, 8):
        grid = grid_points(model.workspace, 4, n)
        tracemalloc.start()
        try:
            report = certify(model, benchmark_designs["lpv"], grid)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(report.points) == len(grid)
    assert peaks[1] - peaks[0] < 300_000, peaks


def _plant_side(model, cs, pts, rows):
    """design._closed_loop_plant of set cs at the positions pts, its
    frame rows long."""
    return design._closed_loop_plant(
        model, cs.t_u, cs.t_y, [n_states(c) for c in cs.loops],
        mode_shape_eval(model, pts), rows)


def test_closed_loop_matrix_stack_matches_each_position(benchmark_designs):
    """On the 5x5 grid each row is its one-position matrix.  Given the
    plant side a design forms once (on the grid, its frame CERT_CHUNK
    rows, and at the centre alone), the matrix has the bytes of the call
    that evaluates the plant, for the whole grid, for the rows a chunk
    takes, for the block of rows the simulator takes as a slice, and in a
    frame that the other set filled last."""
    model = benchmark_designs["model"]
    grid = benchmark_designs["verify"]
    centre = np.array([[0.1, 0.1]])
    on_grid = {kind: _plant_side(
        model, benchmark_designs[kind], grid, min(len(grid), CERT_CHUNK))
        for kind in ("lti", "lpv")}
    for kind, other in (("lti", "lpv"), ("lpv", "lti")):
        cs = benchmark_designs[kind]
        stack = closed_loop_matrix(model, cs, grid)
        assert stack.shape[0] == len(grid)
        for k, p in enumerate(grid):
            np.testing.assert_array_equal(
                stack[k], closed_loop_matrix(model, cs, p))
        plant = on_grid[kind]
        closed_loop_matrix(model, benchmark_designs[other], grid, plant)
        assert closed_loop_matrix(model, cs, grid, plant).tobytes() \
            == stack.tobytes()
        rows = [12, 3, 24]
        assert closed_loop_matrix(model, cs, grid[rows],
                                  plant.take(rows)).tobytes() \
            == closed_loop_matrix(model, cs, grid[rows]).tobytes()
        block = slice(5, 8)
        assert closed_loop_matrix(model, cs, grid[block],
                                  plant.take(block)).tobytes() \
            == closed_loop_matrix(model, cs, grid[block]).tobytes()
        alone = _plant_side(model, cs, centre, 1)
        assert closed_loop_matrix(model, cs, centre, alone).tobytes() \
            == closed_loop_matrix(model, cs, centre).tobytes()


def test_closed_loop_matrix_refuses_a_plant_side_that_does_not_fit(
        benchmark_designs):
    """A plant side for other positions, or for loops of other state
    counts, raises DomainError rather than filling the wrong frame."""
    model = benchmark_designs["model"]
    grid = benchmark_designs["verify"]
    lti = benchmark_designs["lti"]
    plant = _plant_side(model, lti, grid, len(grid))
    with pytest.raises(DomainError):
        closed_loop_matrix(model, lti, grid[:3], plant)
    fewer = dataclasses.replace(lti, loops=tuple(
        Cascade(c.elements[:-1]) for c in lti.loops))
    with pytest.raises(DomainError):
        closed_loop_matrix(model, fewer, grid, plant)
    with pytest.raises(DomainError):
        certify(model, lti, grid[:3], closed_plant=plant)


def test_closed_loop_matrix_refuses_an_empty_grid(benchmark_designs):
    """A grid with no position raises DomainError naming its shape, as
    certify does, not numpy's reshape error."""
    with pytest.raises(DomainError, match=re.escape("shape (0, 2)")):
        closed_loop_matrix(benchmark_designs["model"],
                           benchmark_designs["lti"], np.empty((0, 2)))


def test_closed_loop_matrix_refuses_a_set_that_does_not_fit(benchmark_designs):
    """The first two loops of the LTI set leave the plant's third axis open."""
    lti = benchmark_designs["lti"]
    two = dataclasses.replace(lti, loops=lti.loops[:2], t_u=lti.t_u[:, :2],
                              t_y=lti.t_y[:2], loop_order=(0, 1))
    with pytest.raises(ModelError, match="2 loops for a plant with 3 axes"):
        closed_loop_matrix(benchmark_designs["model"], two, (0.1, 0.1))


@pytest.mark.parametrize("kind", ["lti", "lpv"])
def test_state_space_sensitivity_matches_slc_chain(benchmark_designs, kind):
    """S_i from the closed loop's state space against 1 / (1 + g_i k_i).

    (A, B_r) come from _closed_loop_plant and close_loops, B_r being the
    reference columns of the input map, and C_e = -[T_y Phi_s, 0, 0] reads
    each loop's error, so S_ii = 1 + C_e,i (jw I - A)^-1 B_r,i.  g_i is
    the plant loop i sees with every other loop closed (equivalent_plant).
    Where |S| < 0.01 the state-space form cancels digits and is not
    compared.  The sampled peaks agree to 1e-12 dB.
    """
    model = benchmark_designs["model"]
    cs = benchmark_designs[kind]
    grid = benchmark_designs["verify"]
    freqs = _certification_freqs()
    n_q, n_l = model.n_modes, cs.n_loops
    plant = _plant_side(model, cs, grid, len(grid))
    design.close_loops(plant, [realize(c, grid) for c in cs.loops], 1.0)
    a, g = plant.a, plant.g
    assert a.tobytes() == closed_loop_matrix(model, cs, grid).tobytes()
    c_e = np.zeros((len(grid), n_l, a.shape[1]))
    c_e[:, :, :n_q] = -plant.c
    s_eye = 2j * np.pi * freqs[:, None, None] * np.eye(a.shape[1])
    for r, p in enumerate(grid):
        x = np.linalg.solve(s_eye - a[r], g[r, :, :n_l])
        s_ss = 1.0 + np.einsum("in,fni->fi", c_e[r], x)
        p_frf = decoupled_plant_frf(model, p, freqs, cs.t_u, cs.t_y)
        k_frfs = cs.loop_frfs(freqs, p)
        for i in range(n_l):
            s_chain = 1.0 / (1.0 + equivalent_plant(p_frf, k_frfs, i) * k_frfs[i])
            big = np.abs(s_chain) >= 0.01
            rel = np.abs(s_ss[:, i] - s_chain) / np.abs(s_chain)
            assert np.max(rel[big]) <= 1e-11, (p, i)
            peaks = [np.max(20.0 * np.log10(np.abs(s))) for s in (s_ss[:, i], s_chain)]
            assert abs(peaks[0] - peaks[1]) <= 1e-12, (p, i, peaks)


@pytest.mark.parametrize("kind", ["lti", "lpv"])
def test_rank_one_closure_matches_block_solve(benchmark_designs, kind):
    """equivalent_plant against the block-solve formula on benchmark FRFs,
    with every other loop closed and along the design chain."""
    model = benchmark_designs["model"]
    cs = benchmark_designs[kind]
    freqs = _certification_freqs()
    worst = 0.0
    for p in benchmark_designs["verify"]:
        p_frf = decoupled_plant_frf(model, p, freqs, cs.t_u, cs.t_y)
        k_frfs = cs.loop_frfs(freqs, p)
        chain = [np.zeros(len(freqs), dtype=complex)] * cs.n_loops
        for i in cs.loop_order:
            for closed in (k_frfs, chain):
                got = equivalent_plant(p_frf, closed, i)
                ref = block_solve_equivalent_plant(p_frf, closed, i)
                worst = max(worst, float(np.max(np.abs(got - ref)
                                                / np.abs(ref))))
            chain = list(chain)
            chain[i] = k_frfs[i]
    assert worst <= 1e-12


def test_certify_refuses_an_empty_grid(benchmark_designs):
    """A grid with no position certifies nothing: DomainError, not a
    report with no points that passes."""
    model = benchmark_designs["model"]
    with pytest.raises(DomainError, match="no position"):
        certify(model, benchmark_designs["lti"], np.empty((0, 2)))


def test_freeze_controller_set_refuses_what_is_not_one_point(
        benchmark_designs):
    """p must be one (x, y) point; the error names the shape given."""
    lpv = benchmark_designs["lpv"]
    for p, shape in (((0.1,), r"\(1,\)"), (np.full((2, 2), 0.1), r"\(2, 2\)")):
        with pytest.raises(DomainError, match=shape):
            freeze_controller_set(lpv, p)


def test_certify_rejects_mismatched_plant_frfs(benchmark_designs):
    model = benchmark_designs["model"]
    cs = benchmark_designs["lti"]
    grid = grid_points(model.workspace, 2, 1)
    freqs = _certification_freqs()
    frfs = [decoupled_plant_frf(model, p, freqs, cs.t_u, cs.t_y)
            for p in grid]
    with pytest.raises(DomainError, match="2 grid positions"):
        certify(model, cs, grid, plant_frfs=frfs[:1])
    base = default_grid().freqs_hz
    with pytest.raises(DomainError, match="shape"):
        certify(model, cs, grid, plant_frfs=[
            frfs[0], decoupled_plant_frf(model, grid[1], base, cs.t_u,
                                         cs.t_y)])
    with pytest.raises(DomainError, match="shape"):
        certify(model, cs, grid, plant_frfs=[f[:, :2, :] for f in frfs])


def test_realize_equals_chained_series_on_the_benchmark_sets(
        benchmark_designs):
    """Every loop of both benchmark sets realizes as the chain of series
    connections does (tests/series_reference.py), bit for bit, at one
    position and on a 7x7 stack, with the simulator's notch cap."""
    points = grid_points(benchmark_designs["model"].workspace, 7, 7)
    f_max = NOTCH_NYQUIST_FRACTION * 0.5 * 10_000.0
    for kind in ("lti", "lpv"):
        for cascade in benchmark_designs[kind].loops:
            for p in (points[17], points):
                assert_realizations_equal(realize(cascade, p, f_max),
                                          chained_realize(cascade, p, f_max))


def _with_records(caplog, evaluate):
    """evaluate()'s result and the log records it left, in order."""
    caplog.clear()
    with caplog.at_level("DEBUG", logger="lpvslc"):
        out = evaluate()
    return out, [(r.name, r.levelno, r.getMessage()) for r in caplog.records]


def test_cascade_freeze_equals_per_notch_reference_on_the_benchmark_set(
        benchmark_designs, caplog):
    """Every loop of the benchmark LPV set, frozen once per cascade, along
    the scheduling trace of the README scan's first 0.08 s (801 samples)
    and on a 9x9 grid: realize, with and without the simulator's notch
    cap, and cascade_frf on certify's frequencies give the bytes and the
    log records, in order, of freezing notch by notch
    (tests/freeze_reference.py).  The grid's corners clamp."""
    model, lpv = benchmark_designs["model"], benchmark_designs["lpv"]
    scan = sim._run_tables(model, lpv, benchmark_motion(),
                           SimConfig(duration_s=0.08), None).p_sched
    assert scan.shape == (801, 2)
    f_max = NOTCH_NYQUIST_FRACTION * 0.5 * 10_000.0
    freqs = _certification_freqs()
    clamped = 0
    for points in (scan, grid_points(model.workspace, 9, 9)):
        for cascade in lpv.loops:
            assert cascade.scheduled_part
            for cap in (None, f_max):
                got, logged = _with_records(
                    caplog, lambda: realize(cascade, points, cap))
                want, want_logged = _with_records(
                    caplog, lambda: per_notch_realize(cascade, points, cap))
                assert_realizations_equal(got, want)
                assert logged == want_logged
                clamped += len(logged)
            got, logged = _with_records(
                caplog, lambda: cascade_frf(cascade, freqs, points))
            want, want_logged = _with_records(
                caplog, lambda: per_notch_cascade_frf(cascade, freqs, points))
            assert got.tobytes() == want.tobytes()
            assert logged == want_logged
    assert clamped > 0


@pytest.mark.parametrize("n_freqs", [1, 2])
def test_scheduled_response_equals_the_frozen_set_at_few_frequencies(
        benchmark_designs, n_freqs):
    """At every position of the 5x5 grid and at random frequencies, one or
    two at a time, each scheduled loop of the benchmark LPV set responds
    as freeze_controller_set's fixed loop there, to the last bit."""
    lpv = benchmark_designs["lpv"]
    rng = np.random.default_rng(41)
    for p in benchmark_designs["verify"]:
        frozen = freeze_controller_set(lpv, p)
        for _ in range(20):
            freqs = rng.uniform(1.0, 5000.0, n_freqs)
            for scheduled, fixed in zip(lpv.loops, frozen.loops):
                assert not fixed.scheduled_part
                assert cascade_frf(scheduled, freqs, p).tobytes() \
                    == cascade_frf(fixed, freqs).tobytes(), (p, freqs)


@pytest.fixture(scope="module", params=["lti", "lpv"])
def bisection_trace(request):
    """One benchmark design with its center gains, loop builds, surface fits,
    SLC verdicts, certify calls and per-position certifications recorded,
    each call with the counts of _loop_closures and _nyquist_checks calls
    made by its return; the bisection that full certification reports
    drive on the same builds; and, per step, the references on the whole
    frequency grid: reference_local_designs' (gains, table) and, for LPV,
    the fit-then-audit pipeline's loops before and after the audit on the
    9x9 grid."""
    kind = request.param
    model = benchmark_plant()
    spec = DesignSpec()
    names = ("_center_gains", "_build_loops", "fit_surface", "_slc_verdict",
             "certify", "_certify_position")
    counted = ("_loop_closures", "_nyquist_checks")
    real = {name: getattr(design, name) for name in names + counted}
    calls = {name: [] for name in names}
    counts = dict.fromkeys(counted, 0)

    def recorder(name):
        def call(*args, **kwargs):
            out = real[name](*args, **kwargs)
            if name in counted:
                counts[name] += 1
            else:
                calls[name].append((args, kwargs, out, dict(counts)))
            return out
        return call

    with pytest.MonkeyPatch.context() as mp:
        for name in names + counted:
            mp.setattr(design, name, recorder(name))
        result = _design_common(model, spec, kind)

    full_steps = []

    def full_verdict(m, cs, grid, plant_frfs=None, check_first=()):
        report = real["certify"](m, cs, grid, plant_frfs=plant_frfs)
        full_steps.append((cs.achieved_bandwidth_hz, report.passed))
        failing = [pt.p for pt in report.points
                   if not (pt.passed and pt.sensitivity_ok(report.bound_db))]
        return design._SlcFailure(failing[0], 0, "", 0.0, 0.0) \
            if failing else None

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(design, "_slc_verdict", full_verdict)
        full_result = _design_common(model, spec, kind)

    freqs = default_grid().freqs_hz
    design_grid = spec.resolve(model)[0]
    p_frfs = _full_frequency_plant(model, spec, design_grid)
    audit_grid = grid_points(model.workspace, 9, 9)
    audit_frfs = _full_frequency_plant(model, spec, audit_grid)
    reference = []
    for (_, _, masses, order, f_bw, spec_, clusters), *_ in \
            calls["_center_gains"]:
        gains, table = reference_local_designs(p_frfs, freqs, masses, order,
                                               f_bw, spec_, clusters)
        built = audited = None
        if kind == "lpv":
            built = reference_build_lpv_loops(gains, clusters, table,
                                              design_grid, f_bw, spec_,
                                              model.workspace)
            audited = reference_audit(built, order, clusters, gains, f_bw,
                                      spec_, freqs, audit_grid, audit_frfs,
                                      model.workspace)
        reference.append((gains, table, built, audited))
    return {"kind": kind, "model": model, "spec": spec, "calls": calls,
            "result": result,
            "full_steps": full_steps, "full_result": full_result,
            "p_frfs": p_frfs, "audit_frfs": audit_frfs,
            "reference": reference}


def _full_frequency_plant(model, spec, points):
    """Decoupled plant FRFs on the whole base grid, as the design sees them
    before it keeps only the samples it reads."""
    design_grid, _, _ = spec.resolve(model)
    t_u, t_y = rigid_body_decouple(model, design_grid[len(design_grid) // 2])
    cert = _certification_freqs()
    return [decoupled_plant_frf(model, p, cert, t_u, t_y)[CERT_TAIL_N:]
            for p in points]


def _dumps(loops) -> list:
    return [json.dumps(cascade_to_dict(c)) for c in loops]


def test_subset_local_designs_equal_full_frequency_reference(bisection_trace):
    """At every bandwidth the bisection tries, the gains tuned from the
    samples bracketing f_bw and the cluster frequencies are those the whole
    frequency grid gives, to the last bit."""
    calls = bisection_trace["calls"]["_center_gains"]
    assert len(calls) == len(bisection_trace["full_steps"])
    for (args, _, (gains, _), _), (ref_gains, *_) \
            in zip(calls, bisection_trace["reference"]):
        f_sub, f_bw = args[1], args[4]
        assert len(f_sub) < len(default_grid().freqs_hz) // 10
        assert repr(gains) == repr(ref_gains), f_bw


def _deepest_notches(p_frfs, freqs, order, gains, loops, clusters_per_loop,
                     f_bw, spec):
    """The fixed loops the deepest-requirement rule gives: per loop in
    order and per position of p_frfs, the equivalent plant on every
    frequency with the earlier loops closed by the given loops' cascades,
    and each resonance's zero damping from the one-resonance reference
    law; each notch takes the smallest over the positions."""
    gamma_frf = cascade_frf(Cascade(tuple(_fixed_section(f_bw, spec))), freqs)
    k_frfs = [0.0] * len(loops)
    want = [None] * len(loops)
    for i in order:
        deepest = [min(required_beta1(freqs, equivalent_plant(p_frf, k_frfs, i),
                                      gains[i].k, gamma_frf, cl,
                                      _skew_for(cl.f_hz, f_bw))
                       for p_frf in p_frfs)
                   for cl in clusters_per_loop[i]]
        want[i] = Cascade(tuple(
            [gains[i]] + _fixed_section(f_bw, spec)
            + [Notch(f1=cl.f_hz, f2=_skew_for(cl.f_hz, f_bw) * cl.f_hz,
                     beta1=b1, beta2=cl.beta2)
               for cl, b1 in zip(clusters_per_loop[i], deepest)]))
        k_frfs[i] = cascade_frf(loops[i], freqs)
    return want


def test_fixed_notches_take_the_deepest_requirement_through_the_returned_loops(
        bisection_trace):
    """At every bandwidth the bisection tries, each fixed notch's zero
    damping is the smallest that any design-grid position requires, with
    the loops before it in the order closed by the cascades the step
    returns, evaluated on the whole frequency grid.  The build reads the
    plant stacked over the design grid at the samples bracketing the
    cluster frequencies."""
    if bisection_trace["kind"] == "lpv":
        return
    model, spec = bisection_trace["model"], bisection_trace["spec"]
    design_grid = spec.resolve(model)[0]
    freqs = default_grid().freqs_hz
    p_frfs = bisection_trace["p_frfs"]
    calls = bisection_trace["calls"]["_build_loops"]
    assert len(calls) == len(bisection_trace["full_steps"])
    for args, _, loops, _ in calls:
        stack, f_sub, points, order, gains, clusters, _, f_bw = args[:8]
        assert np.array_equal(points, design_grid)
        at = np.searchsorted(freqs, f_sub)
        assert stack.tobytes() == np.stack([frf[at] for frf in p_frfs]).tobytes()
        want = _deepest_notches(p_frfs, freqs, order, gains, loops, clusters,
                                f_bw, spec)
        assert _dumps(loops) == _dumps(want), f_bw


def test_build_lpv_loops_equals_per_step_fit_reference(bisection_trace):
    """At every bandwidth the bisection tries, the scheduled loops, each
    zero damping fitted once on the audit grid over the bracketing samples,
    are those that the fit-then-audit pipeline gives when it fits all four
    coefficients through the design grid and then audits position by
    position on every frequency, to the last bit."""
    if bisection_trace["kind"] == "lti":
        return
    calls = bisection_trace["calls"]["_build_loops"]
    assert len(calls) == len(bisection_trace["full_steps"])
    for (args, _, loops, _), (*_, ref) in zip(calls,
                                              bisection_trace["reference"]):
        assert _dumps(loops) == _dumps(ref), args[7]


def test_stacked_audit_equals_per_position_reference(bisection_trace):
    """The scheduled build reads the plant stacked over the 9x9 audit grid
    at the samples bracketing the cluster frequencies, rows equal to the
    per-position plant on every frequency.  In the fit-then-audit
    reference every design-grid zero-damping surface overshoots the law
    on that grid and is refit there, so those fits decide nothing."""
    if bisection_trace["kind"] == "lti":
        return
    calls = bisection_trace["calls"]["_build_loops"]
    audit_grid = grid_points(bisection_trace["model"].workspace, 9, 9)
    refit = 0
    for (args, _, _, _), (*_, built, ref) in zip(calls,
                                                 bisection_trace["reference"]):
        stack, f_sub, points = args[:3]
        assert np.array_equal(points, audit_grid)
        at = np.searchsorted(default_grid().freqs_hz, f_sub)
        assert stack.tobytes() == np.stack(
            [frf[at] for frf in bisection_trace["audit_frfs"]]).tobytes()
        for before, after in zip(built, ref):
            for n_before, n_after in zip(before.scheduled_part,
                                         after.scheduled_part):
                assert not np.array_equal(n_before.beta1.theta,
                                          n_after.beta1.theta)
                refit += 1
    assert refit == 7 * len(calls)


def test_scheduled_build_fits_each_zero_damping_once_on_the_audit_grid(
        bisection_trace):
    """A scheduled design fits each notch's zero damping once per step, on
    the 81 audit points, and each distinct constant coefficient once, on
    the 9 design points: 121 fits for the benchmark design's 11 steps and
    7 notches.  A fixed design fits nothing."""
    fits = [args[0] for args, *_ in bisection_trace["calls"]["fit_surface"]]
    if bisection_trace["kind"] == "lti":
        assert not fits
        return
    n_steps = len(bisection_trace["calls"]["_slc_verdict"])
    on_audit = [d for d in fits if len(d.points) == 81]
    constants = [(d.values[0], d.units) for d in fits if len(d.points) == 9]
    assert len(on_audit) == 7 * n_steps
    assert len(on_audit) + len(constants) == len(fits)
    assert all(np.all(d.values == d.values[0])
               for d in fits if len(d.points) == 9)
    assert len(set(constants)) == len(constants)
    assert (n_steps, len(fits)) == (11, 121)


def test_first_order_surfaces_design_near_the_lti_bandwidth(
        benchmark_designs):
    """With first-order (constant) zero-damping surfaces, each fitted on the
    audit grid and shifted under the law there, the scheduled design
    succeeds within 1 Hz of the fixed design, and its set passes the 5x5
    certification."""
    model = benchmark_designs["model"]
    lpv = design_lpv_slc(model, DesignSpec(surface_order=1))
    assert abs(lpv.achieved_bandwidth_hz
               - benchmark_designs["lti"].achieved_bandwidth_hz) <= 1.0
    assert certify(model, lpv, benchmark_designs["verify"]).passed


@pytest.mark.parametrize("n", [4, 5])
def test_denser_design_grids_design_and_certify(benchmark_designs, n):
    """An n-by-n design grid gives a scheduled set that passes the 5x5
    certification.  The bandwidths are not pinned: the resonance clusters
    and the tuning point still move with the design grid."""
    model = benchmark_designs["model"]
    lpv = design_lpv_slc(model, DesignSpec(
        design_grid=grid_points(model.workspace, n, n)))
    assert certify(model, lpv, benchmark_designs["verify"]).passed


@pytest.mark.parametrize("name", ["lti", "lpv", "centre"])
def test_early_exit_verdict_equals_full_certification(name):
    """The oracles decide no step.  Every bisection step's SLC verdict in
    the README LTI and LPV designs and in the centre design is
    certify(...).passed of the full report on the same set.  A failing
    verdict's first failure is a failing position of that report: the
    loop it names fails there on its criterion with its value, and every
    position screened before it is within the sensitivity bound.  A step
    screens the previous step's failing position first, and some step
    fails there again having walked that position alone.  The design
    certifies the set it returns once, in full: the last passing
    candidate's report, which passes."""
    kind, spec = VERDICT_DESIGNS[name]
    model, steps, report = _design_verdict_calls(kind, spec)
    outcomes = set()
    failed_at = None
    for cs, grid, plant_frfs, first, failure, walks in steps:
        full = certify(model, cs, grid, plant_frfs=plant_frfs)
        assert (failure is None) == full.passed
        assert first == ([] if failed_at is None else [failed_at])
        if failure is None:
            outcomes.add("pass")
            continue
        screened = sorted(full.points, key=lambda pt: pt.p not in first)
        at = [pt.p for pt in screened].index(failure.p)
        (lc,) = [lc for lc in screened[at].loops if lc.loop == failure.loop]
        if failure.criterion == "sensitivity":
            assert all(pt.sensitivity_ok(full.bound_db)
                       for pt in screened[:at])
            assert lc.sensitivity_peak_db == failure.value
            assert failure.bound == full.bound_db
            assert not design._within_bound(failure.value, failure.bound)
        else:
            assert failure.criterion == "nyquist"
            assert not lc.nyquist_stable
            assert (lc.encirclements, 0) == (failure.value, failure.bound)
        if failure.p == failed_at and walks == 1:
            outcomes.add("failed again first")
        failed_at = failure.p
    assert outcomes == {"pass", "failed again first"}
    last, grid, plant_frfs = [step[:3] for step in steps
                              if step[4] is None][-1]
    assert report.passed
    assert report.to_dict() == certify(model, last, grid,
                                       plant_frfs=plant_frfs).to_dict()


def test_failing_step_certifies_only_its_failing_point(bisection_trace):
    """The sensitivity screen runs before any other check, so every failing
    step of the benchmark designs, all of which fail on the sensitivity
    bound, stops at its failing point: it runs no Nyquist check and
    certifies no position.  The design's one certify call, after the last
    step, certifies each verification position once."""
    calls = bisection_trace["calls"]
    n_grid = len(bisection_trace["spec"].resolve(bisection_trace["model"])[1])
    nyquist_checks = 0
    failing = 0
    for _, _, failure, counts in calls["_slc_verdict"]:
        if failure is not None:
            assert failure.criterion == "sensitivity"
            assert counts["_nyquist_checks"] == nyquist_checks
            failing += 1
        nyquist_checks = counts["_nyquist_checks"]
    assert failing >= 5
    (_, _, report, _), = calls["certify"]
    assert len(calls["_certify_position"]) == len(report.points) == n_grid
    assert all(point is out for point, (_, _, out, _)
               in zip(report.points, calls["_certify_position"]))


def test_bisection_visits_the_reference_bandwidths(bisection_trace):
    """The bisection on SLC verdicts tries the bandwidths that full
    certification reports drive it through and ends with the same set and
    report."""
    got = [(args[1].achieved_bandwidth_hz, failure is None)
           for args, _, failure, _ in bisection_trace["calls"]["_slc_verdict"]]
    assert got == bisection_trace["full_steps"]
    (cs, report), (ref_cs, ref_report) = (bisection_trace["result"],
                                          bisection_trace["full_result"])
    assert controllers_to_dict(cs) == controllers_to_dict(ref_cs)
    assert report.to_dict() == ref_report.to_dict()


# The bisection step's build functions that bisection_reference holds as
# they ran before each step formed only what it reads, with the module
# whose name the design calls them by.  The one loop build is held to the
# reference build of the design's kind (see _reference_build).  freqresp's
# own equivalent_plant calls are checked when they happen; the
# certification screen forms its chain from design.
ORACLE_SITES = [(design, "_center_gains"), (design, "_build_loops"),
                (design, "_interp_loglog_mag"), (design, "cascade_frf"),
                (design, "equivalent_plant"), (freqresp, "equivalent_plant")]


def _reference_build(kind, model, spec):
    """bisection_reference's _build_<kind>_loops on design._build_loops'
    arguments.  The reference's scheduled build takes the design's
    constant surfaces, fitted here on the same design grid."""
    if kind == "lti":
        def build(frfs, freqs_hz, points, order, gains, clusters, laws, f_bw,
                  spec_, notch):
            return bisection_reference._build_lti_loops(
                frfs, freqs_hz, order, gains, clusters, laws, f_bw, spec_)
        return build
    design_grid = spec.resolve(model)[0]

    @functools.cache
    def constant_surface(value, units):
        return fit_surface(
            FrozenDesignSet(design_grid, np.full(len(design_grid), value),
                            units),
            spec.surface_order, spec.surface_order,
            bounds=model.workspace)[0]

    def build(frfs, freqs_hz, points, order, gains, clusters, laws, f_bw,
              spec_, notch):
        return bisection_reference._build_lpv_loops(
            frfs, freqs_hz, FrozenDesignSet(points, np.zeros(len(points))),
            order, gains, clusters, laws, constant_surface, f_bw, spec_,
            model.workspace)
    return build


def _same_bits(a, b) -> bool:
    """a and b are of one type and equal to the last bit, arrays and
    floats by their bytes, containers and dataclasses field by field."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return (a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same_bits, a, b))
    if dataclasses.is_dataclass(a):
        return all(_same_bits(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    if isinstance(a, (float, complex, np.generic)):
        return np.asarray(a).tobytes() == np.asarray(b).tobytes()
    return a == b


def _oracle_run(kind, spec):
    """design_<kind>_slc on the benchmark plant with every call to
    ORACLE_SITES checked against bisection_reference on the same arguments
    as it returns: the calls per site, the arguments of the calls whose
    result differs, and every _center_gains call's resonance clusters.
    The design's _interp_loglog_mag calls take np.log10 of the samples of
    the _center_gains or _build_loops call they are made in; the reference
    takes those samples."""
    model = benchmark_plant()
    calls = {(module.__name__, name): 0 for module, name in ORACLE_SITES}
    differ, clusters, samples = [], [], []

    def checked(module, name):
        new = getattr(module, name)
        ref = (_reference_build(kind, model, spec) if name == "_build_loops"
               else getattr(bisection_reference, name))

        def call(*args, **kwargs):
            if name in ("_center_gains", "_build_loops"):
                samples.append(args[1])
            out = new(*args, **kwargs)
            calls[module.__name__, name] += 1
            if name == "cascade_frf" and not isinstance(args[0], Cascade):
                # A set's loops in one call: the reference, loop by loop.
                want = [ref(c, *args[1:], **kwargs) for c in args[0]]
            elif name == "_interp_loglog_mag":
                freqs = [f for f in samples
                         if np.log10(f).tobytes() == args[0].tobytes()]
                want = ref(freqs[-1], *args[1:], **kwargs) if freqs else None
            else:
                want = ref(*args, **kwargs)
            if not _same_bits(out, want):
                differ.append((module.__name__, name, args))
            if name == "_center_gains":
                clusters.append(args[-1])
            return out
        return call

    with pytest.MonkeyPatch.context() as mp:
        for module, name in ORACLE_SITES:
            mp.setattr(module, name, checked(module, name))
        getattr(design, f"design_{kind}_slc")(model, spec)
    return {"calls": calls, "differ": differ, "clusters": clusters}


@pytest.fixture(scope="module")
def oracle_runs():
    """_oracle_run of the LTI design at the workspace centre alone (the
    design perfbench's design workload times) and of the README LPV
    design."""
    return {"lti": _oracle_run("lti", DesignSpec(
                design_grid=[(0.1, 0.1)], verification_grid=[(0.1, 0.1)])),
            "lpv": _oracle_run("lpv", DesignSpec())}


def test_bisection_build_equals_reference_on_every_call(oracle_runs):
    """Every call the centre and README LPV designs make to the loop
    build, the notch-law interpolation, the cascade responses and the
    equivalent plants returns, bit for bit, what the reference that formed
    every closure, notch law and j omega returns on the same arguments:
    at the centre, where its one position's local notches are the
    returned ones, the fixed build; for the README LPV design, the
    scheduled build.  A call for a whole set's loops is held to the
    reference loop by loop.  Every equivalent plant is formed from
    design, none through freqresp's own calls.  At the centre, every
    step has a loop with no resonance cluster."""
    via_chain = ("lpvslc.freqresp", "equivalent_plant")
    for kind in ("lti", "lpv"):
        run = oracle_runs[kind]
        assert not run["differ"], kind
        calls = run["calls"]
        assert all(n > 0 for site, n in calls.items()
                   if site != via_chain), kind
        assert calls[via_chain] == 0, kind
        assert calls["lpvslc.design", "_build_loops"] \
            == calls["lpvslc.design", "_center_gains"]
    assert all(any(not infos for infos in c)
               for c in oracle_runs["lti"]["clusters"])


def test_centre_step_forms_no_last_loop_closure(oracle_runs):
    """At the workspace centre, where the last loop has no resonance
    cluster, a bisection step makes four cascade_frf calls from design
    (the skeleton, the two earlier loops' closures, one for the three
    screened loops) and builds from five equivalent plants (three gains,
    two zero-damping requirements).  Its SLC verdict's screen forms two
    more at a step that fails on loop 0's peak (loop 0's chain entry and
    its closed plant), as five of the eleven steps do, and five at a
    passing step (three chain entries, two sensitivity closures).  The
    design's one certify call adds one cascade_frf call and five
    equivalent plants."""
    calls = oracle_runs["lti"]["calls"]
    steps = calls["lpvslc.design", "_center_gains"]
    assert steps == 11
    assert calls["lpvslc.design", "cascade_frf"] == 4 * steps + 1
    assert calls["lpvslc.design", "equivalent_plant"] \
        == 5 * steps + 2 * 5 + 5 * 6 + 5


def _design_verdict_calls(kind, spec):
    """(model, steps, report) of _design_common(model, spec, kind): per
    _slc_verdict call, (controllers, grid, plant_frfs, check_first,
    failure, walks), check_first as at the call and walks the
    _loop_closures calls it made; and the design's report."""
    model = benchmark_plant()
    real_verdict, real_walk = design._slc_verdict, design._loop_closures
    steps, walks = [], [0]

    def walk(*args):
        walks[0] += 1
        return real_walk(*args)

    def recording(m, cs, grid, plant_frfs=None, check_first=()):
        first, walks[0] = list(check_first), 0
        failure = real_verdict(m, cs, grid, plant_frfs, first)
        steps.append((cs, grid, plant_frfs, first, failure, walks[0]))
        return failure

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(design, "_slc_verdict", recording)
        mp.setattr(design, "_loop_closures", walk)
        _, report = _design_common(model, spec, kind)
    return model, steps, report


def _screened_verdict(model, step, loop_closures):
    """_slc_verdict on a step _design_verdict_calls recorded, with
    design._loop_closures replaced by loop_closures: its first failure, and
    the equivalent plants each screen walk formed."""
    cs, grid, plant_frfs, first = step[:4]
    plants, walks = [0], []

    def counted(fn):
        def call(*args, **kw):
            plants[0] += 1
            return fn(*args, **kw)
        return call

    def walk(p_frf, k_frfs, order, bound_db=None):
        before = plants[0]
        out = loop_closures(p_frf, k_frfs, order, bound_db)
        walks.append(plants[0] - before)
        return out

    with pytest.MonkeyPatch.context() as mp:
        for module in (design, freqresp, certify_reference):
            mp.setattr(module, "equivalent_plant",
                       counted(module.equivalent_plant))
        mp.setattr(design, "_loop_closures", walk)
        return design._slc_verdict(model, cs, grid, plant_frfs, first), walks


def _reference_screen(p_frf, k_frfs, order, bound_db=None):
    return certify_reference._loop_closures(p_frf, k_frfs, order)


CENTRE_SPEC = dict(design_grid=[(0.1, 0.1)], verification_grid=[(0.1, 0.1)])
VERDICT_DESIGNS = {"lti": ("lti", DesignSpec()), "lpv": ("lpv", DesignSpec()),
                   "centre": ("lti", DesignSpec(**CENTRE_SPEC))}


@pytest.mark.parametrize("kind, spec", [
    ("lti", DesignSpec(**CENTRE_SPEC)),
    ("lti", DesignSpec(**CENTRE_SPEC, loop_order=(1, 2, 0))),
    ("lti", DesignSpec()), ("lpv", DesignSpec())],
    ids=["centre", "centre-order-120", "readme-lti", "readme-lpv"])
def test_loop_ordered_screen_gives_the_reference_screen_reports(kind, spec):
    """Every bisection step's SLC verdict, from a screen that walks the
    loop order and stops at the first loop over the bound, is the verdict
    of the screen that formed the whole chain and every peak, whose walks
    each form five equivalent plants.  A walk that passes forms five too.
    Every failing step of these designs fails on a sensitivity peak, and
    its last walk stops at the loop its verdict names: the j-th of the
    order forms j chain entries and, unless it is the last, j closed
    plants.  With loop order (1, 2, 0) the centre's first steps fail on
    loop 1, before loop 0 is reached."""
    model, steps, _ = _design_verdict_calls(kind, spec)
    for step in steps:
        got, walks = _screened_verdict(model, step, design._loop_closures)
        want, ref_walks = _screened_verdict(model, step, _reference_screen)
        assert got == step[4] == want
        assert len(walks) == len(ref_walks) and set(ref_walks) == {5}
        assert walks[:-1] == [5] * (len(walks) - 1)
        order = step[0].loop_order
        assert got is None or got.criterion == "sensitivity"
        j = 1 + (order.index(got.loop) if got is not None
                 else len(order) - 1)
        assert walks[-1] == 2 * j - (j == len(order))
    if spec.loop_order == (1, 2, 0):
        assert steps[0][4].loop == 1


def test_failing_centre_step_screens_two_equivalent_plants():
    """At the workspace centre five of the eleven bisection steps fail,
    each on loop 0's sensitivity peak.  Each such step's screen forms two
    equivalent plants, loop 0's chain entry and its closed plant, where
    the whole-chain screen formed five."""
    model, steps, _ = _design_verdict_calls("lti", DesignSpec(**CENTRE_SPEC))
    assert len(steps) == 11
    failing = 0
    for step in steps:
        walks = _screened_verdict(model, step, design._loop_closures)[1]
        ref_walks = _screened_verdict(model, step, _reference_screen)[1]
        failure = step[4]
        if failure is not None:
            assert (failure.loop, failure.criterion) == (0, "sensitivity")
            assert (walks, ref_walks) == ([2], [5])
            failing += 1
    assert failing == 5


def _loop_frfs_one_by_one(loops, freqs, p):
    return [cascade_frf(c, freqs, p) for c in loops]


def test_cascade_frf_of_a_set_equals_one_call_per_cascade(benchmark_designs):
    """One cascade_frf call for a set's loops gives each loop's response
    bit for bit (shape, dtype and bytes) as its own call does: both README
    sets at certify's frequencies, at one point and on the 5x5 grid; the
    sets read back from JSON, whose loops share no block object; and a
    candidate whose loops share one fixed section."""
    model = benchmark_designs["model"]
    freqs = _certification_freqs()
    grid = benchmark_designs["verify"]
    sets = [benchmark_designs[kind] for kind in ("lti", "lpv")]
    sets += [controllers_from_dict(json.loads(json.dumps(
        controllers_to_dict(cs)))) for cs in sets]
    for cs in sets[2:]:
        blocks = [id(e) for c in cs.loops for e in c.fixed_part]
        assert len(set(blocks)) == len(blocks)
    spec = DesignSpec()
    fixed = _fixed_section(80.0, spec)
    shared = tuple(Cascade(tuple([Gain(k)] + fixed + notches))
                   for k, notches in ((2.0, [Notch(300.0, 330.0, 0.05, 0.3)]),
                                      (3.0, []),
                                      (0.5, [Notch(500.0, 500.0, 0.0, 0.4)])))
    cases = [(cs.loops, p) for cs in sets for p in (grid[12], grid)]
    cases += [(shared, None), (shared, grid[0]), (shared, grid)]
    for loops, p in cases:
        got = cascade_frf(loops, freqs, p)
        want = _loop_frfs_one_by_one(loops, freqs, p)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert (g.shape, g.dtype, g.tobytes()) \
                == (w.shape, w.dtype, w.tobytes())


@pytest.mark.parametrize("n", [3, 4, 5])
def test_find_resonance_peaks_equals_loop_reference_on_design_grids(n):
    """Every design-grid diagonal FRF of the benchmark stage, as the design
    reads it, gives the loop reference's peaks (tests/peaks_reference.py)."""
    model = benchmark_plant()
    grid = grid_points(model.workspace, n, n)
    t_u, t_y = rigid_body_decouple(model, grid[len(grid) // 2])
    freqs = default_grid().freqs_hz
    masses = model.masses[: model.n_rigid]
    found = 0
    for p in grid:
        h = decoupled_plant_frf(model, p, _certification_freqs(), t_u,
                                t_y)[CERT_TAIL_N:]
        for i, mass in enumerate(masses):
            peaks = _find_resonance_peaks(freqs, h[:, i, i], mass)
            assert repr(peaks) == repr(
                loop_find_resonance_peaks(freqs, h[:, i, i], mass))
            found += len(peaks)
    assert found > 0


def _accelerance(f, g):
    """The mass-normalized accelerance (mass 1) as _find_resonance_peaks
    computes it."""
    return np.abs(g) * (2.0 * np.pi * f) ** 2 * 1.0


def _real_response(f, targets, exact):
    """A real loop response whose accelerance is targets, exactly so at the
    indices in exact, or None when one of those is out of reach (a product
    of two floats does not land on every float)."""
    g = (targets / (2.0 * np.pi * f) ** 2).astype(complex)
    for _ in range(64):
        n = _accelerance(f, g)
        off = [i for i in exact if n[i] != targets[i]]
        if not off:
            return g
        g[off] = np.nextafter(g[off].real, np.where(
            n[off] < targets[off], np.inf, -np.inf))
    return None


def test_find_resonance_peaks_equals_loop_reference_on_edge_cases():
    """A plateau, peaks at exactly the band edges (and just outside), a
    peak at exactly PEAK_MIN_RATIO (and one just under), maxima at the
    first and last samples and two near-coincident peaks."""
    lo, hi = PEAK_BAND_HZ
    f = np.geomspace(10.0, 6000.0, 400)
    i_lo, i_hi = np.searchsorted(f, lo), np.searchsorted(f, hi)
    f[i_lo], f[i_hi] = lo, hi
    n = np.full(len(f), 0.5)
    bumps = {0: 6.0, len(f) - 1: 6.0,                  # first and last
             i_lo: 2.0, i_lo - 2: 2.0,                  # at and below 30 Hz
             i_hi: 3.0, i_hi + 2: 3.0,                  # at and above 3 kHz
             100: PEAK_MIN_RATIO,                       # exactly the ratio
             120: float(np.nextafter(PEAK_MIN_RATIO, 0.0)),
             150: 4.0, 151: 4.0,                        # plateau
             200: 3.0, 202: 3.5}                        # near-coincident
    for i, value in bumps.items():
        n[i] = value
        for j in (i - 1, i + 1):
            if 0 <= j < len(f) and j not in bumps:
                n[j] = 0.5 + 0.4 * (value - 0.5)
    # Move the plateau up until both of its samples can hit it exactly.
    while (g := _real_response(f, n, [100, 120, 150, 151])) is None:
        n[150] = n[151] = np.nextafter(n[150], np.inf)
    got = _find_resonance_peaks(f, g, 1.0)
    assert repr(got) == repr(loop_find_resonance_peaks(f, g, 1.0))
    # The edge cases are in play: both band edges, the exact ratio and the
    # plateau are detected, the samples outside and under are not.
    n_got = _accelerance(f, g)
    assert n_got[100] == PEAK_MIN_RATIO and n_got[120] < PEAK_MIN_RATIO
    assert n_got[150] == n_got[151]
    near = lambda f_hz: any(abs(pk.f_hz / f_hz - 1.0) < 0.01 for pk in got)
    assert near(lo) and near(hi) and near(f[100]) and near(f[151])
    assert not near(f[i_lo - 2]) and not near(f[i_hi + 2])
    assert not near(f[120])
