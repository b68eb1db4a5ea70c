"""Tests for the loop-shaping filter blocks.

The heavy oracles here: closed-form transfer functions obtained by hand
elimination of each realization, exact zero-order-hold discretization via
the matrix exponential for time stepping, brute-force products for
cascades, and one-position realizations for stacked ones.
"""

import numpy as np
import pytest
import scipy.linalg

from lpvslc.errors import ConfigError, ModelError
from lpvslc.filters import (
    Cascade,
    Gain,
    Integrator,
    Lead,
    LpvNotch,
    Notch,
    cascade_from_dict,
    cascade_frf,
    cascade_to_dict,
    element_transfer,
    filter_from_dict,
    filter_to_dict,
    freeze_notches,
    n_states,
    notch_transfer,
    realize,
    series,
)
from lpvslc.freqresp import frf
from lpvslc.scheduling import CoefficientSurface

GRID = np.logspace(0.0, np.log10(5000.0), 400)


def constant_surface(value, units=""):
    theta = np.zeros(4)
    theta[0] = value
    return CoefficientSurface(2, 2, theta, x_map=(0.1, 0.1), y_map=(0.1, 0.1),
                              units=units)


def freeze_at(spec, p, f_max=None):
    """The fixed notch a scheduled one freezes to at a single point."""
    coeffs = freeze_notches(spec, np.array([p], dtype=float), f_max)
    return Notch(*(float(c[0]) for c in coeffs))


def random_notch(rng):
    f1 = 10.0 ** rng.uniform(np.log10(5.0), np.log10(2000.0))
    ratio = 10.0 ** rng.uniform(-np.log10(3.0), np.log10(3.0))
    return Notch(f1=f1, f2=f1 * ratio,
                 beta1=rng.uniform(0.02, 1.0), beta2=rng.uniform(0.05, 1.0))


def test_notch_realization_matches_closed_form():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(60):
        spec = random_notch(rng)
        h_ss = frf(realize(spec), GRID)[:, 0, 0]
        h_cf = notch_transfer(spec.f1, spec.f2, spec.beta1, spec.beta2,
                              2.0 * np.pi * GRID)
        worst = max(worst, np.max(np.abs(h_ss - h_cf) / np.abs(h_cf)))
    assert worst <= 1e-10


def test_notch_dc_hf_and_perfect_null():
    spec = Notch(f1=150.0, f2=450.0, beta1=0.0, beta2=0.3)
    w1 = 2.0 * np.pi * spec.f1
    assert notch_transfer(spec.f1, spec.f2, spec.beta1, spec.beta2, 0.0) \
        == pytest.approx(1.0, rel=1e-14)
    hf = notch_transfer(spec.f1, spec.f2, spec.beta1, spec.beta2, 2.0 * np.pi * 1e8)
    assert abs(hf) == pytest.approx((spec.f2 / spec.f1) ** 2, rel=1e-6)
    assert notch_transfer(spec.f1, spec.f2, spec.beta1, spec.beta2, w1) == 0.0


def test_identity_notch_is_one():
    # Identical numerator and denominator; complex division leaves at most
    # a one-ulp residue.
    h = notch_transfer(123.0, 123.0, 0.2, 0.2, 2.0 * np.pi * GRID)
    assert np.max(np.abs(h - 1.0)) <= 1e-15


def test_lead_dc_hf_and_peak_phase():
    spec = Lead(f_bw=100.0, alpha=3.0)
    ss = realize(spec)
    dc = frf(ss, np.array([1e-8]))[0, 0, 0]
    assert abs(dc) == pytest.approx(1.0, abs=1e-10)
    hf = frf(ss, np.array([1e9]))[0, 0, 0]
    assert abs(hf) == pytest.approx(9.0, abs=1e-6)
    # The phase boost peaks at f_bw with arcsin((alpha^2-1)/(alpha^2+1)).
    dense = np.logspace(0.0, 4.0, 20001)
    phase = np.degrees(np.angle(frf(ss, dense)[:, 0, 0]))
    peak = np.max(phase)
    assert peak == pytest.approx(np.degrees(np.arcsin(0.8)), abs=0.05)
    assert dense[np.argmax(phase)] == pytest.approx(100.0, rel=0.01)


def test_lead_realization_matches_closed_form_at_random_points():
    rng = np.random.default_rng(7)
    spec = Lead(f_bw=240.0, alpha=2.2)
    freqs = 10.0 ** rng.uniform(-1, 5, size=20)
    h_ss = frf(realize(spec), freqs)[:, 0, 0]
    w = 2.0 * np.pi * spec.f_bw
    s = 2j * np.pi * freqs
    h_cf = spec.alpha ** 2 * (s + w / spec.alpha) / (s + spec.alpha * w)
    np.testing.assert_allclose(h_ss, h_cf, rtol=1e-12)


def test_integrator_and_gain_transfer():
    freqs = GRID[:50]
    casc = Cascade((Gain(3.5), Integrator()))
    h = cascade_frf(casc, freqs)
    np.testing.assert_allclose(h, 3.5 / (2j * np.pi * freqs), rtol=1e-14)


def test_empty_cascade_is_identity():
    casc = Cascade(())
    np.testing.assert_array_equal(cascade_frf(casc, GRID[:10]),
                                  np.ones(10, dtype=complex))
    ss = realize(casc)
    assert ss.n_states == 0
    assert ss.d[0, 0] == 1.0


def test_cascade_frf_matches_series_realization():
    casc = Cascade((Gain(4.0), Integrator(), Lead(120.0), Lead(120.0),
                    Notch(300.0, 330.0, 0.05, 0.5)))
    assert n_states(casc) == 5
    h_cf = cascade_frf(casc, GRID)
    h_ss = frf(realize(casc), GRID)[:, 0, 0]
    np.testing.assert_allclose(h_ss, h_cf, rtol=1e-9)


def test_cascade_frf_is_order_independent():
    rng = np.random.default_rng(13)
    elements = [Gain(2.0), Integrator(), Lead(80.0), Notch(200.0, 260.0, 0.1, 0.4)]
    base = cascade_frf(Cascade(tuple(elements)), GRID)
    for _ in range(3):
        rng.shuffle(elements)
        h = cascade_frf(Cascade(tuple(elements)), GRID)
        np.testing.assert_allclose(h, base, rtol=1e-12)


def test_cascade_partition_validation():
    lpv = LpvNotch(constant_surface(0.1), constant_surface(0.4),
                   constant_surface(200.0, "Hz"), constant_surface(210.0, "Hz"))
    casc = Cascade((Gain(1.0), Integrator(), lpv))
    assert casc.n_fixed == 2
    assert casc.scheduled_part == (lpv,)
    with pytest.raises(ModelError):
        Cascade((lpv, Gain(1.0)))
    with pytest.raises(ModelError):
        Cascade((Gain(1.0), lpv), n_fixed=2)
    with pytest.raises(ModelError):
        Cascade((Gain(1.0),), n_fixed=5)


def test_parameter_validation():
    with pytest.raises(ModelError):
        Notch(f1=-1.0, f2=10.0, beta1=0.1, beta2=0.1)
    with pytest.raises(ModelError):
        Notch(f1=10.0, f2=10.0, beta1=0.1, beta2=0.0)
    with pytest.raises(ModelError):
        Notch(f1=10.0, f2=10.0, beta1=-0.1, beta2=0.1)
    with pytest.raises(ModelError):
        Lead(f_bw=0.0)
    with pytest.raises(ModelError):
        Lead(f_bw=10.0, alpha=-2.0)
    with pytest.raises(ModelError):
        Gain(np.nan)


def test_lpv_notch_with_constant_surfaces_equals_lti():
    lti = Notch(f1=226.5, f2=240.0, beta1=0.08, beta2=0.45)
    lpv = LpvNotch(constant_surface(lti.beta1), constant_surface(lti.beta2),
                   constant_surface(lti.f1, "Hz"), constant_surface(lti.f2, "Hz"))
    for p in [(0.0, 0.0), (0.05, 0.17), (0.2, 0.2)]:
        assert freeze_at(lpv, p) == lti
        ss_lpv = realize(lpv, p)
        ss_lti = realize(lti)
        assert np.array_equal(ss_lpv.a, ss_lti.a)
        assert np.array_equal(ss_lpv.b, ss_lti.b)
        assert np.array_equal(ss_lpv.c, ss_lti.c)
        assert np.array_equal(ss_lpv.d, ss_lti.d)


def test_lpv_notch_requires_position():
    lpv = LpvNotch(constant_surface(0.1), constant_surface(0.4),
                   constant_surface(200.0), constant_surface(210.0))
    with pytest.raises(ModelError):
        realize(lpv)


def test_skewed_notch_adds_phase_below_f1():
    f1 = 300.0
    h = notch_transfer(f1, 1.4 * f1, 0.3, 0.3,
                       2.0 * np.pi * np.linspace(0.2 * f1, 0.95 * f1, 200))
    assert np.all(np.angle(h) > 0.0)


def test_bilinear_surfaces_average_at_midpoint():
    rng = np.random.default_rng(3)
    corners = np.array([[0.0, 0.0], [0.0, 0.2], [0.2, 0.0], [0.2, 0.2]])

    def bilinear(values):
        from lpvslc.scheduling import FrozenDesignSet, fit_surface
        s, _ = fit_surface(FrozenDesignSet(corners, values), 2, 2,
                           bounds=((0.0, 0.2), (0.0, 0.2)))
        return s

    lpv = LpvNotch(bilinear(rng.uniform(0.05, 0.2, 4)),
                   bilinear(rng.uniform(0.3, 0.6, 4)),
                   bilinear(rng.uniform(180.0, 220.0, 4)),
                   bilinear(rng.uniform(200.0, 260.0, 4)))
    at_corners = [freeze_at(lpv, c) for c in corners]
    mid = freeze_at(lpv, (0.1, 0.1))
    assert mid.f1 == pytest.approx(np.mean([n.f1 for n in at_corners]), rel=1e-12)
    assert mid.beta2 == pytest.approx(np.mean([n.beta2 for n in at_corners]),
                                      rel=1e-12)


def test_lpv_notch_clamps_frequencies_and_logs(caplog):
    lpv = LpvNotch(constant_surface(0.1), constant_surface(0.4),
                   constant_surface(0.2, "Hz"), constant_surface(9000.0, "Hz"))
    points = np.array([[0.1, 0.1], [0.0, 0.2], [0.2, 0.0]])
    with caplog.at_level("WARNING", logger="lpvslc.filters"):
        f1, f2, beta1, beta2 = freeze_notches(lpv, points, f_max=4500.0)
    np.testing.assert_array_equal(f1, [1.0, 1.0, 1.0])
    np.testing.assert_array_equal(f2, [4500.0, 4500.0, 4500.0])
    np.testing.assert_array_equal(beta1, [0.1, 0.1, 0.1])
    np.testing.assert_array_equal(beta2, [0.4, 0.4, 0.4])
    # One record per clamped coefficient, however many points it hit.
    clamped = [rec.message for rec in caplog.records if "clamped" in rec.message]
    assert len(clamped) == 2
    assert all("at 3 of 3 points" in msg for msg in clamped)


def test_lpv_notch_zero_damping_clamps_to_full_depth(caplog):
    lpv = LpvNotch(constant_surface(-0.01), constant_surface(0.4),
                   constant_surface(200.0), constant_surface(210.0))
    with caplog.at_level("WARNING", logger="lpvslc.filters"):
        assert freeze_at(lpv, (0.1, 0.1)).beta1 == 0.0
    assert sum("beta1 clamped" in rec.message for rec in caplog.records) == 1


def test_lpv_notch_invalid_damping_raises():
    bad = LpvNotch(constant_surface(0.1), constant_surface(-0.4),
                   constant_surface(200.0), constant_surface(210.0))
    with pytest.raises(ModelError, match=r"at p = \(0\.1, 0\.1\)"):
        freeze_notches(bad, np.array([[0.1, 0.1]]))


def test_stacked_realization_matches_each_position():
    rng = np.random.default_rng(17)
    corners = np.array([[0.0, 0.0], [0.0, 0.2], [0.2, 0.0], [0.2, 0.2]])

    def bilinear(lo, hi):
        from lpvslc.scheduling import FrozenDesignSet, fit_surface
        s, _ = fit_surface(FrozenDesignSet(corners, rng.uniform(lo, hi, 4)),
                           2, 2, bounds=((0.0, 0.2), (0.0, 0.2)))
        return s

    lpv = LpvNotch(bilinear(0.05, 0.2), bilinear(0.3, 0.6),
                   bilinear(180.0, 220.0), bilinear(200.0, 260.0))
    casc = Cascade((Gain(2.0), Integrator(), Lead(80.0), lpv, lpv))
    points = rng.uniform(0.0, 0.2, size=(7, 2))
    stacked = realize(casc, points)
    assert stacked.a.shape == (7, 6, 6)
    assert stacked.d.shape == (7, 1, 1)
    for k, p in enumerate(points):
        single = realize(casc, p)
        one_row = realize(casc, points[k:k + 1])
        for name in "abcd":
            want = getattr(single, name)
            np.testing.assert_array_equal(getattr(one_row, name)[0], want)
            # Longer stacks share one BLAS product per surface, whose
            # rounding depends on the row count.
            np.testing.assert_allclose(getattr(stacked, name)[k], want,
                                       rtol=1e-14, atol=0.0)
    # A fixed cascade ignores the positions and stays unstacked.
    assert realize(Cascade((Gain(2.0), Lead(80.0))), points).a.shape == (1, 1)


def exact_zoh_oracle(spec, u_of_t, dt, n_steps):
    """Exact sampled response of a notch with zero-order-hold input."""
    ss = realize(spec)
    n = ss.n_states
    m = np.zeros((n + 1, n + 1))
    m[:n, :n] = ss.a
    m[:n, n:] = ss.b
    phi = scipy.linalg.expm(m * dt)
    ad, bd = phi[:n, :n], phi[:n, n]
    x = np.zeros(n)
    ys = np.empty(n_steps)
    for k in range(n_steps):
        u = u_of_t(k * dt)
        x = ad @ x + bd * u
        ys[k] = ss.c[0] @ x + ss.d[0, 0] * u
    return ys


def test_perfect_notch_kills_tone_at_f1():
    spec = Notch(f1=100.0, f2=100.0, beta1=0.0, beta2=0.4)
    dt = 1e-5
    ys = exact_zoh_oracle(spec, lambda t: np.sin(2.0 * np.pi * 100.0 * t), dt,
                          30000)
    early = np.max(np.abs(ys[:2000]))
    late = np.max(np.abs(ys[-2000:]))
    assert late < 0.01
    assert late < 0.05 * early


def test_series_dimension_mismatch():
    from lpvslc.plant import benchmark_plant, frozen_realization
    mimo = frozen_realization(benchmark_plant(), (0.1, 0.1))
    with pytest.raises(ModelError):
        series(realize(Integrator()), mimo)


def test_filter_serialization_round_trip():
    lpv = LpvNotch(constant_surface(0.1), constant_surface(0.4),
                   constant_surface(200.0, "Hz"), constant_surface(210.0, "Hz"))
    specs = [Gain(2.5), Integrator(), Lead(140.0, 2.5),
             Notch(200.0, 220.0, 0.05, 0.4), lpv]
    for spec in specs:
        back = filter_from_dict(filter_to_dict(spec))
        assert type(back) is type(spec)
        if isinstance(spec, LpvNotch):
            assert freeze_at(back, (0.07, 0.13)) \
                == freeze_at(spec, (0.07, 0.13))
        else:
            assert back == spec
    casc = Cascade(tuple(specs))
    back = cascade_from_dict(cascade_to_dict(casc))
    assert back.n_fixed == casc.n_fixed
    assert len(back.elements) == len(casc.elements)
    with pytest.raises(ConfigError):
        filter_from_dict({"type": "biquad"})
    with pytest.raises(ConfigError):
        filter_from_dict({"type": "lead"})
