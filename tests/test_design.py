"""Sequential loop-closing design and certification tests.

The expensive benchmark designs (both procedures, default spec) run once
in a module fixture; cheap contract tests build small plants of their own.
"""

import json
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lpvslc import design, sim
from lpvslc.design import (
    CERT_TAIL_N,
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
    _interp_loglog_mag,
)
from lpvslc.errors import ConfigError, DesignInfeasibleError, DomainError, ModelError
from lpvslc.filters import (
    Cascade,
    Gain,
    Integrator,
    Lead,
    cascade_frf,
    cascade_to_dict,
    realize,
)
from lpvslc.freqresp import (
    _det_stacked,
    default_grid,
    design_chain,
    det_identity_residual,
    equivalent_plant,
    frf,
    margins_and_bandwidth,
    nyquist_stable,
)
from lpvslc.plant import ModalPlantModel, Mode, benchmark_plant, frozen_realization
from lpvslc.scheduling import eval_surface
from lpvslc.sim import NOTCH_NYQUIST_FRACTION, SimConfig, benchmark_motion

from audit_reference import (
    reference_audit,
    reference_build_lpv_loops,
    reference_local_designs,
)
from certify_reference import reference_certify
from freeze_reference import per_notch_cascade_frf, per_notch_realize
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
    with pytest.raises(ConfigError, match="sensitivity bound"):
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
    with pytest.raises(ConfigError, match="loop_order entry must be an integer"):
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
    return tune_gain(_interp_loglog_mag(freqs_hz, g_frf, f_bw),
                     cascade_frf(cascade, np.array([f_bw]))[0], f_bw)


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
    """certify hands every Nyquist check the loop's exact response L_i(f):
    at the certification frequencies it reproduces the sampled L bit for
    bit, for every loop at every 5x5 position of both sets."""
    checks = []

    def recording(freqs, l_frf, evaluator, n_origin_poles):
        checks.append((freqs, l_frf, evaluator))
        return nyquist_stable(freqs, l_frf, evaluator, n_origin_poles)

    monkeypatch.setattr(design, "nyquist_stable", recording)
    for kind in ("lti", "lpv"):
        certify(benchmark_designs["model"], benchmark_designs[kind],
                benchmark_designs["verify"])
    assert len(checks) == 2 * 25 * 3
    for freqs, l_frf, evaluator in checks:
        assert np.array_equal(evaluator(freqs), l_frf)


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


def test_closed_loop_matrix_stack_matches_each_position(benchmark_designs):
    model = benchmark_designs["model"]
    grid = benchmark_designs["verify"]
    for kind in ("lti", "lpv"):
        stack = closed_loop_matrix(model, benchmark_designs[kind], grid)
        assert stack.shape[0] == len(grid)
        for k, p in enumerate(grid):
            np.testing.assert_array_equal(
                stack[k], closed_loop_matrix(model, benchmark_designs[kind], p))


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
    """One benchmark design with its local designs, scheduled-notch audits,
    certify calls and per-position certifications recorded, and the
    bisection a full-report certify drives on the same builds."""
    kind = request.param
    model = benchmark_plant()
    spec = DesignSpec()
    names = ("_local_designs", "_build_lpv_loops", "_audit_scheduled_loops",
             "certify", "_certify_position")
    real = {name: getattr(design, name) for name in names}
    calls = {name: [] for name in names}

    def recorder(name):
        def call(*args, **kwargs):
            out = real[name](*args, **kwargs)
            calls[name].append((args, kwargs, out,
                                len(calls["_certify_position"])))
            return out
        return call

    with pytest.MonkeyPatch.context() as mp:
        for name in names:
            mp.setattr(design, name, recorder(name))
        result = _design_common(model, spec, kind)

    full_steps = []

    def full_certify(m, cs, grid, *, plant_frfs=None, _check_first=None):
        report = real["certify"](m, cs, grid, plant_frfs=plant_frfs)
        full_steps.append((cs.achieved_bandwidth_hz, report.passed))
        return report

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(design, "certify", full_certify)
        full_result = _design_common(model, spec, kind)
    return {"kind": kind, "model": model, "spec": spec, "calls": calls,
            "real_certify": real["certify"], "result": result,
            "full_steps": full_steps, "full_result": full_result}


def _full_frequency_plant(model, spec, points):
    """Decoupled plant FRFs on the whole base grid, as the design sees them
    before it keeps only the samples it reads."""
    design_grid, _, _ = spec.resolve(model)
    t_u, t_y = rigid_body_decouple(model, design_grid[len(design_grid) // 2])
    cert = _certification_freqs()
    return [decoupled_plant_frf(model, p, cert, t_u, t_y)[CERT_TAIL_N:]
            for p in points]


def test_subset_local_designs_equal_full_frequency_reference(bisection_trace):
    """At every bandwidth the bisection tries, the local designs made from
    the samples bracketing f_bw and the cluster frequencies are those the
    whole frequency grid gives, to the last bit."""
    model, spec = bisection_trace["model"], bisection_trace["spec"]
    calls = bisection_trace["calls"]["_local_designs"]
    assert len(calls) == len(bisection_trace["full_steps"])
    p_frfs = _full_frequency_plant(model, spec, spec.resolve(model)[0])
    freqs = default_grid().freqs_hz
    for args, _, (gains, table), _ in calls:
        p_sub, f_sub, masses, order, f_bw, spec_, clusters = args
        assert len(f_sub) < len(freqs) // 10
        ref_gains, ref_table = reference_local_designs(
            p_frfs, freqs, masses, order, f_bw, spec_, clusters)
        assert repr(gains) == repr(ref_gains), f_bw
        assert repr(table) == repr(ref_table), f_bw


def test_build_lpv_loops_equals_per_step_fit_reference(bisection_trace):
    """At every bandwidth the bisection tries, the scheduled loops built
    from f1 and beta2 surfaces fitted once per design, on a design set
    whose points are checked once, are those that fitting all four
    coefficients at every step gives, to the last bit."""
    calls = bisection_trace["calls"]["_build_lpv_loops"]
    if bisection_trace["kind"] == "lti":
        assert not calls
        return
    assert len(calls) == len(bisection_trace["full_steps"])
    clusters = bisection_trace["calls"]["_local_designs"][0][0][6]
    for args, _, loops, _ in calls:
        gains, table, design_set, _, f_bw, spec, workspace = args
        ref = reference_build_lpv_loops(gains, clusters, table,
                                        design_set.points, f_bw, spec,
                                        workspace)
        got = [json.dumps(cascade_to_dict(c)) for c in loops]
        assert got == [json.dumps(cascade_to_dict(c)) for c in ref], f_bw


def test_stacked_audit_equals_per_position_reference(bisection_trace):
    """At every bandwidth the bisection tries, the audit closed once over
    the stacked grid on the bracketing samples returns the loops that the
    per-position audit on every frequency returns, to the last bit."""
    calls = bisection_trace["calls"]["_audit_scheduled_loops"]
    if bisection_trace["kind"] == "lti":
        assert not calls
        return
    assert len(calls) == len(bisection_trace["full_steps"])
    model, spec = bisection_trace["model"], bisection_trace["spec"]
    audit_grid = calls[0][0][7]
    audit_frfs = _full_frequency_plant(model, spec, audit_grid)
    freqs = default_grid().freqs_hz
    refit = 0
    for args, _, loops, _ in calls:
        (loops_in, order, clusters, gains, f_bw, spec_, f_sub, grid, stack,
         workspace) = args
        assert stack.shape == (len(audit_grid), len(f_sub), 3, 3)
        assert np.array_equal(grid, audit_grid)
        ref = reference_audit(loops_in, order, clusters, gains, f_bw, spec_,
                              freqs, grid, audit_frfs, workspace)
        got = [json.dumps(cascade_to_dict(c)) for c in loops]
        assert got == [json.dumps(cascade_to_dict(c)) for c in ref], f_bw
        refit += got != [json.dumps(cascade_to_dict(c)) for c in loops_in]
    assert refit > 0


def test_early_exit_verdict_equals_full_certification(bisection_trace):
    """Every bisection step's verdict is certify(...).passed.  A passing
    step returns the full report and certifies each position once; a
    failing one stops at its first failing position."""
    calls = bisection_trace["calls"]
    real_certify = bisection_trace["real_certify"]
    n_grid = len(bisection_trace["spec"].resolve(bisection_trace["model"])[1])
    outcomes = []
    at = 0
    failed_at = None
    for args, kwargs, report, done in calls["certify"]:
        full = real_certify(*args, plant_frfs=kwargs["plant_frfs"])
        assert report.passed == full.passed
        evaluated = done - at
        at = done
        if report.passed:
            assert report.to_dict() == full.to_dict()
            assert evaluated == n_grid
            outcomes.append("pass")
        else:
            assert len(report.points) == 1 and evaluated <= n_grid
            assert report.points[0].p in {pt.p for pt in full.failures()}
            # The previous step's failing position is checked first.
            if report.points[0].p == failed_at:
                assert evaluated == 1
                outcomes.append("failed again first")
            failed_at = report.points[0].p
    assert {"pass", "failed again first"} <= set(outcomes)


def test_failing_step_certifies_only_its_failing_point(bisection_trace):
    """The sensitivity screen runs before any other check, so every failing
    step of the benchmark designs, all of which fail on the sensitivity
    bound, certifies exactly one position: the one its report holds."""
    positions = bisection_trace["calls"]["_certify_position"]
    at = 0
    failing = 0
    for _, _, report, done in bisection_trace["calls"]["certify"]:
        if not report.passed:
            assert done - at == 1, report.points[0].p
            assert positions[done - 1][2] is report.points[0]
            failing += 1
        at = done
    assert failing >= 5


def test_bisection_visits_the_reference_bandwidths(bisection_trace):
    """The early-exit bisection tries the bandwidths a full-report
    certification drives it through and ends with the same set and report."""
    got = [(args[1].achieved_bandwidth_hz, report.passed)
           for args, _, report, _ in bisection_trace["calls"]["certify"]]
    assert got == bisection_trace["full_steps"]
    (cs, report), (ref_cs, ref_report) = (bisection_trace["result"],
                                          bisection_trace["full_result"])
    assert controllers_to_dict(cs) == controllers_to_dict(ref_cs)
    assert report.to_dict() == ref_report.to_dict()
