"""Acceptance checklist: the ten headline requirements, one test each.

Every test prints a single PASS/FAIL line with the measured figures, so
`pytest tests/test_acceptance.py -v -s` reads as a checklist.  The same
conditions are asserted, so the suite fails loudly if any figure drifts.
Budgeted runtimes are asserted too; the full module runs well under a
minute on a laptop once the compiled kernel cache is warm.
"""

import time

import numpy as np
import pytest

from lpvslc import sim
from lpvslc.design import (
    DesignSpec,
    certify,
    closed_loop_matrix,
    design_lpv_slc,
    design_lti_slc,
    freeze_controller_set,
    grid_points,
)
from lpvslc.filters import Lead, notch_transfer, realize
from lpvslc.freqresp import (
    design_chain,
    det_identity_residual,
    nyquist_stable,
)
from lpvslc.plant import benchmark_plant
from lpvslc.scheduling import (
    FrozenDesignSet,
    eval_surface,
    fit_surface,
)
from lpvslc.sim import (
    NOTCH_NYQUIST_FRACTION,
    SimConfig,
    StageMotion,
    benchmark_motion,
    compare_runs,
    ma_msd,
    simulate,
)
from lpvslc.trajectory import MotionBounds, plan, sample

from assemble_reference import assemble
from freqresp_reference import dense_frf
from sim_reference import max_relative_gap, reference_traces
from surface_reference import raw_coefficients
from test_filters import random_notch
from test_freqresp import random_stable_ss
from test_trajectory import dense_integration


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})",
          flush=True)


@pytest.fixture(scope="module")
def pipeline():
    """Benchmark plant, both designs and both certifications, timed once."""
    t0 = time.perf_counter()
    model = benchmark_plant()
    spec = DesignSpec()
    lti = design_lti_slc(model, spec)
    lpv = design_lpv_slc(model, spec)
    verify = grid_points(model.workspace, 5, 5)
    report_lti = certify(model, lti, verify)
    report_lpv = certify(model, lpv, verify)
    return {
        "model": model,
        "lti": lti,
        "lpv": lpv,
        "verify": verify,
        "report_lti": report_lti,
        "report_lpv": report_lpv,
        "elapsed_s": time.perf_counter() - t0,
    }


def test_criterion_01_determinant_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    freqs = np.geomspace(0.01, 100.0, 200)
    worst = 0.0
    checked = 0
    while checked < 50:
        n = 2 if checked % 2 == 0 else 3
        sys = random_stable_ss(rng, int(rng.integers(4, 9)), n, n)
        gains = rng.uniform(-0.5, 0.5, size=n)
        a_cl = sys.a - sys.b @ (np.diag(gains) @ sys.c)
        if np.max(np.linalg.eigvals(a_cl).real) >= 0.0:
            continue
        h = dense_frf(sys, freqs)
        ks = [np.full(len(freqs), g, dtype=complex) for g in gains]
        worst = max(worst, det_identity_residual(h, ks, design_chain(h, ks)))
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 30.0
    _report(1, ok, f"50 systems, max residual {worst:.2e}, {elapsed:.1f} s")
    assert worst <= 1e-8
    assert elapsed < 30.0


def test_criterion_02_notch_realization_vs_closed_form():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    freqs = np.geomspace(1.0, 5000.0, 200)
    w = 2.0 * np.pi * freqs
    worst = 0.0
    for _ in range(1000):
        spec = random_notch(rng)
        h_ss = dense_frf(realize(spec), freqs)[:, 0, 0]
        h_cf = notch_transfer(spec.f1, spec.f2, spec.beta1, spec.beta2, w)
        worst = max(worst, float(np.max(np.abs(h_ss - h_cf) / np.abs(h_cf))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(2, ok, f"1000 notches, max rel FRF error {worst:.2e}, "
                   f"{elapsed:.1f} s")
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_03_lead_filter_anchor_values():
    f_bw = 120.0
    ss = realize(Lead(f_bw=f_bw, alpha=3.0))
    dc = float((ss.d - ss.c @ np.linalg.solve(ss.a, ss.b))[0, 0])
    hf = float(ss.d[0, 0])
    phase_at_bw = np.degrees(np.angle(dense_frf(ss, np.array([f_bw]))[0, 0, 0]))
    sweep = np.degrees(np.angle(
        dense_frf(ss, np.geomspace(f_bw / 30.0, f_bw * 30.0, 601))[:, 0, 0]))
    peak = float(np.max(sweep))
    ok = (abs(phase_at_bw - 53.130) <= 0.05
          and abs(dc - 1.0) <= 1e-10
          and abs(hf - 9.0) <= 1e-6
          and peak <= phase_at_bw + 1e-9)
    _report(3, ok, f"phase {phase_at_bw:.4f} deg at f_bw, DC {dc:.12f}, "
                   f"HF {hf:.8f}")
    assert abs(phase_at_bw - 53.130) <= 0.05
    assert abs(dc - 1.0) <= 1e-10
    assert abs(hf - 9.0) <= 1e-6
    # The boost must peak at f_bw, not merely pass through it.
    assert peak <= phase_at_bw + 1e-9


def test_criterion_04_surface_fit_recovery():
    rng = np.random.default_rng(404)
    box = ((0.0, 0.2), (0.0, 0.2))
    g = np.linspace(0.0, 0.2, 3)
    pts3 = np.array([[x, y] for x in g for y in g])
    basis = np.array([[x ** v * y ** w for v in range(3) for w in range(3)]
                      for x, y in pts3])
    worst_coeff = 0.0
    for _ in range(20):
        theta_true = rng.standard_normal(9)
        vals = basis @ theta_true
        surface, report = fit_surface(FrozenDesignSet(pts3, vals), 3, 3,
                                      bounds=box)
        assert report.rank == 9
        err = np.max(np.abs(raw_coefficients(surface) - theta_true))
        worst_coeff = max(worst_coeff, float(err))

    corners = np.array([[0.0, 0.0], [0.0, 0.2], [0.2, 0.0], [0.2, 0.2]])
    worst_resid = 0.0
    for _ in range(20):
        values = rng.standard_normal(4)
        surface, report = fit_surface(FrozenDesignSet(corners, values), 2, 2,
                                      bounds=box)
        resid = np.max(np.abs(eval_surface(surface, corners) - values))
        worst_resid = max(worst_resid, float(resid),
                          float(np.max(np.abs(report.residuals))))
    ok = worst_coeff <= 1e-9 and worst_resid <= 1e-12
    _report(4, ok, f"biquadratic coeff error {worst_coeff:.2e}, "
                   f"bilinear corner residual {worst_resid:.2e}")
    assert worst_coeff <= 1e-9
    assert worst_resid <= 1e-12


def test_criterion_05_nyquist_matches_eigenvalue_oracle(pipeline):
    rng = np.random.default_rng(505)
    checked = 0
    agree = 0
    while checked < 100:
        n = int(rng.integers(3, 9))
        sys = random_stable_ss(rng, n, 1, 1)
        k = float(rng.choice([-1, 1]) * 10.0 ** rng.uniform(-1.0, 1.0))
        a_cl = sys.a - sys.b @ (k * sys.c)
        margin = np.max(np.linalg.eigvals(a_cl).real)
        scale = np.max(np.abs(np.linalg.eigvals(sys.a).real))
        if abs(margin) < 1e-3 * scale:
            continue
        freqs = np.geomspace(1e-3, 1e3, 400) * scale / (2 * np.pi)

        def ev(f, sys=sys, k=k):
            return k * dense_frf(sys, f)[:, 0, 0]

        verdict = nyquist_stable(freqs, ev(freqs), ev, 0)
        agree += verdict.stable == (margin < 0.0)
        checked += 1

    bench_agree = True
    for kind in ("lti", "lpv"):
        for pt in pipeline[f"report_{kind}"].points:
            nyq = all(lc.nyquist_stable for lc in pt.loops)
            bench_agree &= (nyq == pt.eig_stable)
    ok = agree == 100 and bench_agree
    _report(5, ok, f"{agree}/100 random loops agree, benchmark grids "
                   f"{'agree' if bench_agree else 'disagree'}")
    assert agree == 100
    assert bench_agree


def test_criterion_06_bandwidth_trend_and_certification(pipeline):
    ratio = (pipeline["lpv"].achieved_bandwidth_hz
             / pipeline["lti"].achieved_bandwidth_hz)
    worst_lti = pipeline["report_lti"].worst_sensitivity_db()
    worst_lpv = pipeline["report_lpv"].worst_sensitivity_db()
    certified = pipeline["report_lti"].passed and pipeline["report_lpv"].passed
    elapsed = pipeline["elapsed_s"]
    ok = (ratio >= 1.3 and certified and worst_lti <= 6.0 + 1e-9
          and worst_lpv <= 6.0 + 1e-9 and elapsed < 300.0)
    _report(6, ok, f"bandwidth ratio {ratio:.2f}, worst sensitivity "
                   f"{max(worst_lti, worst_lpv):.2f} dB at 25 points, "
                   f"pipeline {elapsed:.1f} s")
    assert ratio >= 1.3
    assert certified
    assert worst_lti <= 6.0 + 1e-9
    assert worst_lpv <= 6.0 + 1e-9
    assert elapsed < 300.0


@pytest.fixture(scope="module")
def scan_runs(pipeline):
    """The README scan simulated on both designs over 2 s, timed once."""
    motion = benchmark_motion()
    config = SimConfig(duration_s=2.0)
    t0 = time.perf_counter()
    run_lti = simulate(pipeline["model"], pipeline["lti"], motion, config,
                       certification=pipeline["report_lti"])
    run_lpv = simulate(pipeline["model"], pipeline["lpv"], motion, config,
                       certification=pipeline["report_lpv"])
    return {
        "table": compare_runs(run_lti, run_lpv),
        "elapsed_s": time.perf_counter() - t0,
        "p_sched_lpv": run_lpv.p,
    }


def test_criterion_07_tracking_error_reduction(scan_runs):
    red = scan_runs["table"]["controllers"][1]["reduction_pct"]
    elapsed = scan_runs["elapsed_s"]
    ok = red["ma"] >= 50.0 and red["msd"] >= 0.0 and elapsed < 120.0
    _report(7, ok, f"MA reduction {red['ma']:.1f}%, MSD reduction "
                   f"{red['msd']:.1f}%, 2x2 s at 10 kHz in {elapsed:.1f} s")
    assert red["ma"] >= 50.0
    assert red["msd"] >= 0.0
    assert elapsed < 120.0


def test_headline_results_are_pinned(pipeline, scan_runs):
    """The README's bandwidths and MA/MSD table, not just their trends."""
    assert pipeline["lti"].achieved_bandwidth_hz == pytest.approx(69.57,
                                                                  abs=0.01)
    assert pipeline["lpv"].achieved_bandwidth_hz == pytest.approx(110.76,
                                                                  abs=0.01)
    assert pipeline["report_lti"].passed
    assert pipeline["report_lpv"].passed
    lti, lpv = scan_runs["table"]["controllers"]
    got = [lti["ma_m"], lti["msd_m"], lpv["ma_m"], lpv["msd_m"]]
    readme = [5.545949e-09, 1.577637e-09, 3.410854e-10, 7.166838e-10]
    assert got == pytest.approx(readme, rel=1e-6)


def test_simulator_matches_reference_stepper(pipeline):
    """The assembled closed loop against the per-stage reference stepper.

    Both designed sets over the README scan's first 0.08 s; the reference
    loop is fed the simulator's own per-sample tables.
    """
    model = pipeline["model"]
    motion = benchmark_motion()
    config = SimConfig(duration_s=0.08)
    for key in ("lti", "lpv"):
        run = simulate(model, pipeline[key], motion, config,
                       certification=pipeline[f"report_{key}"])
        gaps = max_relative_gap(
            run, reference_traces(model, pipeline[key], motion, config))
        assert max(gaps.values()) <= 1e-12, (key, gaps)


@pytest.mark.parametrize("feedback", [True, False])
def test_simulator_and_certify_build_one_closed_loop(pipeline, feedback):
    """A frozen start without a scan, on both designed sets.

    Every row of the simulator's first assembly block is, with the loops
    closed, closed_loop_matrix at that position byte for byte, negative
    zeros included.  With them open no controller state reaches the
    plant, and everything else is unchanged.
    """
    model = pipeline["model"]
    p = np.array(benchmark_motion().start_xy)
    motion = StageMotion(start_xy=tuple(p))
    config = SimConfig(duration_s=0.02, feedback=feedback)
    n_x = 2 * model.n_modes
    for key in ("lti", "lpv"):
        tab = sim._run_tables(model, pipeline[key], motion, config, None)
        a, _ = sim._assemble(tab, 0, sim.ASSEMBLY_BLOCK)
        closed = closed_loop_matrix(model, pipeline[key], p)
        assert a.shape == (sim.ASSEMBLY_BLOCK,) + closed.shape, key
        assert tab.x0.shape == closed.shape[:1], key
        want = np.broadcast_to(closed, a.shape)
        if feedback:
            assert a.tobytes() == want.tobytes(), key
        else:
            assert not a[:, :n_x, n_x:].any(), key
            for part in (np.s_[:, :n_x, :n_x], np.s_[:, n_x:]):
                assert a[part].tobytes() == want[part].tobytes(), key


@pytest.mark.parametrize("feedback", [True, False])
def test_assembled_block_matches_reference_bytes(pipeline, feedback):
    """sim._assemble against the per-loop input-map oracle, byte for byte.

    The first two blocks of the README scan on both designed sets: the
    state matrices, the whole input map and the folded inputs.  The
    second block refills the run's blocks that the first one wrote.  The
    state matrices hold negative zeros, which a value comparison would
    not tell from positive ones.
    """
    model = pipeline["model"]
    config = SimConfig(duration_s=0.03, feedback=feedback)
    for key in ("lti", "lpv"):
        tab = sim._run_tables(model, pipeline[key], benchmark_motion(),
                              config, None)
        for k0 in (0, sim.ASSEMBLY_BLOCK):
            k1 = k0 + sim.ASSEMBLY_BLOCK
            a, g = sim._assemble(tab, k0, k1)
            a_ref, g_map_ref, g_ref = assemble(tab, k0, k1)
            assert np.signbit(a[a == 0.0]).any(), key
            assert a.tobytes() == a_ref.tobytes(), (key, k0)
            assert tab.g_map.tobytes() == g_map_ref.tobytes(), (key, k0)
            assert g.tobytes() == g_ref.tobytes(), (key, k0)


def test_stacked_lpv_realization_matches_each_position(pipeline):
    """realize on an (n, 2) array of positions against one position at a time.

    The 9x9 grid includes the workspace corners, where zero damping
    surfaces of the benchmark set dip below zero and are clamped.  Surface
    values do not depend on the row count, so every row of the stack, and
    a one-row stack, reproduce the one-position realization bit for bit.
    """
    points = grid_points(pipeline["model"].workspace, 9, 9)
    corners = grid_points(pipeline["model"].workspace, 2, 2)
    f_max = NOTCH_NYQUIST_FRACTION * 0.5 * 10_000.0
    clamped = 0
    for cascade in pipeline["lpv"].loops:
        for spec in cascade.scheduled_part:
            clamped += np.count_nonzero(eval_surface(spec.beta1, corners) < 0)
        stacked = realize(cascade, points, f_max)
        assert stacked.a.shape[0] == len(points)
        for k, p in enumerate(points):
            single = realize(cascade, p, f_max)
            one_row = realize(cascade, points[k:k + 1], f_max)
            for name in "abcd":
                want = getattr(single, name)
                np.testing.assert_array_equal(getattr(one_row, name)[0], want)
                np.testing.assert_array_equal(getattr(stacked, name)[k], want)
    assert clamped > 0


def test_surface_evaluation_along_the_scan_is_row_independent(pipeline,
                                                              scan_runs):
    """The 28 surfaces of the benchmark LPV set along the README scan's
    scheduling trace: one stacked evaluation over the whole trace, as the
    simulator makes, equals one-point evaluations bit for bit."""
    points = scan_runs["p_sched_lpv"]
    surfaces = [getattr(spec, name)
                for cascade in pipeline["lpv"].loops
                for spec in cascade.scheduled_part
                for name in ("f1", "f2", "beta1", "beta2")]
    assert len(surfaces) == 28 and len(points) == 20_001
    stacked = eval_surface(surfaces, points)
    for k, p in enumerate(points):
        assert np.array_equal(eval_surface(surfaces, p), stacked[:, k]), k
    for r, surface in enumerate(surfaces):
        assert np.array_equal(eval_surface(surface, points), stacked[r]), r
        for k in range(0, len(points), 97):
            assert eval_surface(surface, points[k]) == stacked[r, k], (r, k)


def test_criterion_08_simulator_order_and_frozen_equivalence(pipeline):
    model = pipeline["model"]
    lpv = pipeline["lpv"]
    p_star = (0.07, 0.13)
    prof = plan(0.002, MotionBounds(v_max=0.05, a_max=5.0, j_max=2000.0,
                                    s_max=8e5), 20_000.0)
    motion = StageMotion(start_xy=p_star, loop_refs=(prof, None, None))

    errs = {}
    for rate in (160_000.0, 320_000.0):
        cfg = SimConfig(duration_s=0.1, sample_rate_hz=rate)
        errs[rate] = simulate(model, lpv, motion, cfg,
                              certification=pipeline["report_lpv"]).e
    scale = float(np.abs(errs[160_000.0]).max())
    halving = float(np.abs(errs[320_000.0][::2] - errs[160_000.0]).max())
    halving_rel = halving / scale

    cfg = SimConfig(duration_s=0.2, sample_rate_hz=20_000.0)
    run_lpv = simulate(model, lpv, motion, cfg,
                       certification=pipeline["report_lpv"])
    frozen = freeze_controller_set(lpv, p_star)
    run_fro = simulate(model, frozen, motion, cfg,
                       certification=pipeline["report_lpv"])
    frozen_diff = float(np.abs(run_lpv.e - run_fro.e).max())
    ok = halving_rel <= 1e-8 and frozen_diff <= 1e-8
    _report(8, ok, f"step-halving residual {halving_rel:.2e} relative, "
                   f"frozen-p vs LTI realization {frozen_diff:.2e}")
    assert halving_rel <= 1e-8
    assert frozen_diff <= 1e-8


def test_criterion_09_ma_msd_analytics_and_brute_force():
    rate = 10_000.0
    window = 0.005

    ma, msd = ma_msd(np.full(4001, 0.75), window, rate)
    ok_mask = np.isfinite(ma)
    const_ma_err = float(np.abs(ma[ok_mask] - 0.75).max())
    const_msd = float(np.abs(msd[ok_mask]).max())

    amp = 2.0
    t = np.arange(20001) / rate
    e = amp * np.sin(2.0 * np.pi * 1000.0 * t)
    ma_s, msd_s = ma_msd(e, window, rate)
    fin = np.isfinite(ma_s)
    sin_ma = float(np.abs(ma_s[fin]).max())
    sin_msd_rel = float(np.abs(msd_s[fin] / (amp / np.sqrt(2.0)) - 1.0).max())

    rng = np.random.default_rng(909)
    x = rng.standard_normal(6001)
    h = 1.0 / rate
    worst_bf = 0.0
    for m in (50, 51):
        T = m * h
        ma_w, msd_w = ma_msd(x, T, rate)
        lo = m // 2 + (1 if m % 2 else 0)
        for i in rng.integers(lo, 6001 - lo, size=25):
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
            worst_bf = max(worst_bf, abs(float(ma_w[i]) - bi),
                           abs(float(msd_w[i]) - np.sqrt(bv)))

    ok = (const_ma_err <= 1e-12 and const_msd <= 1e-12
          and sin_ma <= 1e-6 * amp and sin_msd_rel <= 1e-3
          and worst_bf <= 1e-12)
    _report(9, ok, f"constant {const_ma_err:.1e}, sinusoid MSD off by "
                   f"{sin_msd_rel:.1e} relative, brute force {worst_bf:.1e}")
    assert const_ma_err <= 1e-12
    assert const_msd <= 1e-12
    assert sin_ma <= 1e-6 * amp
    assert sin_msd_rel <= 1e-3
    assert worst_bf <= 1e-12


def test_criterion_10_trajectory_bounds_endpoint_symmetry():
    rng = np.random.default_rng(1010)
    rate = 10_000.0
    cases = [(0.1, MotionBounds(v_max=0.1, a_max=5.0, j_max=1000.0,
                                s_max=2.0e5))]
    for _ in range(4):
        cases.append((10.0 ** rng.uniform(-4, -0.7),
                      MotionBounds(v_max=10.0 ** rng.uniform(-2, 0),
                                   a_max=10.0 ** rng.uniform(-1, 2),
                                   j_max=10.0 ** rng.uniform(1, 4),
                                   s_max=10.0 ** rng.uniform(3, 6))))
    worst_bound = 0.0
    worst_end = 0.0
    tol = 1.0 + 1e-12
    for d, bounds in cases:
        prof = plan(d, bounds, rate)
        t = np.arange(int(prof.duration * rate * 4) + 1) / (rate * 4)
        _, vel, acc, jerk, snap = sample(prof, t)
        worst_bound = max(
            worst_bound,
            np.max(np.abs(vel)) / (bounds.v_max * tol),
            np.max(np.abs(acc)) / (bounds.a_max * tol),
            np.max(np.abs(jerk)) / (bounds.j_max * tol),
            np.max(np.abs(snap)) / (bounds.s_max * tol))
        pos_end = dense_integration(prof)[0]
        worst_end = max(worst_end, abs(pos_end - d))

    fwd = plan(0.1, cases[0][1], rate)
    rev = plan(-0.1, cases[0][1], rate)
    t = np.linspace(0.0, fwd.duration, 1001)
    symmetric = all(np.array_equal(a, -b)
                    for a, b in zip(sample(fwd, t), sample(rev, t)))
    ok = worst_bound <= 1.0 and worst_end <= 1e-9 and symmetric
    _report(10, ok, f"bound usage {worst_bound:.6f}, endpoint error "
                    f"{worst_end:.1e} m, odd symmetry "
                    f"{'exact' if symmetric else 'broken'}")
    assert worst_bound <= 1.0
    assert worst_end <= 1e-9
    assert symmetric
