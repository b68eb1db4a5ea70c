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

from lpvslc.design import (
    DesignSpec,
    certify,
    design_lpv_slc,
    design_lti_slc,
    freeze_controller_set,
    grid_points,
)
from lpvslc.filters import Lead, notch_transfer, realize
from lpvslc.freqresp import det_identity_residual, frf, nyquist_stable
from lpvslc.plant import benchmark_plant
from lpvslc.scheduling import (
    FrozenDesignSet,
    eval_surface,
    fit_surface,
    raw_coefficients,
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
        h = frf(sys, freqs)
        ks = [np.full(len(freqs), g, dtype=complex) for g in gains]
        worst = max(worst, det_identity_residual(h, ks))
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
        h_ss = frf(realize(spec), freqs)[:, 0, 0]
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
    phase_at_bw = np.degrees(np.angle(frf(ss, np.array([f_bw]))[0, 0, 0]))
    sweep = np.degrees(np.angle(
        frf(ss, np.geomspace(f_bw / 30.0, f_bw * 30.0, 601))[:, 0, 0]))
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
            return k * frf(sys, f)[:, 0, 0]

        verdict = nyquist_stable(freqs, ev(freqs), evaluator=ev)
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
    readme = [5.545950e-09, 1.577637e-09, 3.410854e-10, 7.166838e-10]
    assert got == pytest.approx(readme, rel=1e-6)


def test_stacked_lpv_realization_matches_each_position(pipeline):
    """realize on an (n, 2) array of positions against one position at a time.

    The 9x9 grid includes the workspace corners, where zero damping
    surfaces of the benchmark set dip below zero and are clamped.  A
    one-row stack reproduces the one-position realization bit for bit.  In
    a longer stack the surface values come from one matrix-vector product
    whose BLAS rounding depends on the row count, so entries may move by a
    few ulp; evaluating row by row instead would change the stored designs
    and the simulated traces in their last digits.
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
                np.testing.assert_allclose(getattr(stacked, name)[k], want,
                                           rtol=1e-14, atol=0.0)
    assert clamped > 0


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
