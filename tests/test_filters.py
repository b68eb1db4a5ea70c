"""Tests for the loop-shaping filter blocks.

The heavy oracles here: closed-form transfer functions obtained by hand
elimination of each realization, exact zero-order-hold discretization via
the matrix exponential for time stepping, brute-force products for
cascades, and one-position realizations for stacked ones.
"""

import json

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
)
from lpvslc.scheduling import CoefficientSurface

from freqresp_reference import dense_frf
from series_reference import assert_realizations_equal, chained_realize

GRID = np.logspace(0.0, np.log10(5000.0), 400)


def constant_surface(value, units=""):
    theta = np.zeros(4)
    theta[0] = value
    return CoefficientSurface(2, 2, theta, x_map=(0.1, 0.1), y_map=(0.1, 0.1),
                              units=units)


def freeze_at(spec, p, f_max=None):
    """The fixed notch a scheduled one freezes to at a single point."""
    coeffs = freeze_notches([spec], np.array([p], dtype=float), f_max)[0]
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
        h_ss = dense_frf(realize(spec), GRID)[:, 0, 0]
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
    dc = dense_frf(ss, np.array([1e-8]))[0, 0, 0]
    assert abs(dc) == pytest.approx(1.0, abs=1e-10)
    hf = dense_frf(ss, np.array([1e9]))[0, 0, 0]
    assert abs(hf) == pytest.approx(9.0, abs=1e-6)
    # The phase boost peaks at f_bw with arcsin((alpha^2-1)/(alpha^2+1)).
    dense = np.logspace(0.0, 4.0, 20001)
    phase = np.degrees(np.angle(dense_frf(ss, dense)[:, 0, 0]))
    peak = np.max(phase)
    assert peak == pytest.approx(np.degrees(np.arcsin(0.8)), abs=0.05)
    assert dense[np.argmax(phase)] == pytest.approx(100.0, rel=0.01)


def test_lead_realization_matches_closed_form_at_random_points():
    rng = np.random.default_rng(7)
    spec = Lead(f_bw=240.0, alpha=2.2)
    freqs = 10.0 ** rng.uniform(-1, 5, size=20)
    h_ss = dense_frf(realize(spec), freqs)[:, 0, 0]
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
    h_ss = dense_frf(realize(casc), GRID)[:, 0, 0]
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
        Cascade((Gain(1.0), lpv, Integrator()))
    assert Cascade((Gain(1.0), Integrator())).n_fixed == 2
    assert Cascade((lpv, lpv)).fixed_part == ()


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
    # Values whose squares overflow are refused when the block is built.
    with pytest.raises(ModelError, match="alpha = 1e\\+160: its square"):
        Lead(100.0, 1e160)
    with pytest.raises(ModelError, match="f1 = 1e\\+160 Hz"):
        Notch(1e160, 1e160, 0.1, 0.3)
    with pytest.raises(ModelError, match="f2 = 1e\\+160 Hz"):
        Notch(100.0, 1e160, 0.1, 0.3)
    # A pole 2 pi alpha f_bw or a zero 2 pi f_bw / alpha that overflows.
    for f_bw, alpha in ((1e308, 3.0), (5e307, 0.5), (100.0, 1e-307)):
        with pytest.raises(ModelError, match="pole or zero is not finite"):
            Lead(f_bw, alpha)
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
        f1, f2, beta1, beta2 = freeze_notches([lpv], points,
                                              f_max=4500.0)[0]
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
        freeze_notches([bad], np.array([[0.1, 0.1]]))


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
            np.testing.assert_array_equal(getattr(stacked, name)[k], want)
    # A fixed cascade ignores the positions and stays unstacked.
    assert realize(Cascade((Gain(2.0), Lead(80.0))), points).a.shape == (1, 1)

    # The same holds for the cascade response on a stack of positions.
    h = cascade_frf(casc, GRID, points)
    assert h.shape == (7, len(GRID))
    # Each row, and the response at that position alone, is the product
    # of the element responses there, in cascade order.
    omega = 2.0 * np.pi * GRID
    for k, p in enumerate(points):
        want = np.ones(len(GRID), dtype=complex)
        for element in casc.elements:
            if isinstance(element, LpvNotch):
                coeffs = freeze_notches([element], p[None])[0]
                want = want * notch_transfer(*(float(c[0]) for c in coeffs),
                                             omega)
            else:
                want = want * element_transfer(element, omega)
        np.testing.assert_array_equal(h[k], want)
        np.testing.assert_array_equal(cascade_frf(casc, GRID, p), want)
    fixed = Cascade((Gain(2.0), Lead(80.0)))
    h = cascade_frf(fixed, GRID, points)
    assert h.shape == (7, len(GRID))
    np.testing.assert_array_equal(h, np.broadcast_to(cascade_frf(fixed, GRID),
                                                     h.shape))


def test_cascade_frf_stack_keeps_the_scalar_notch_arithmetic():
    """A stack big enough for numpy's temporary elision (1 MB), at positions
    where a float's x ** 2 and numpy's square of the same value disagree,
    still gives each row the bytes of its own scalar notch_transfer
    product, in cascade order."""
    rng = np.random.default_rng(29)
    corners = np.array([[0.0, 0.0], [0.0, 0.2], [0.2, 0.0], [0.2, 0.2]])

    def bilinear(lo, hi):
        from lpvslc.scheduling import FrozenDesignSet, fit_surface
        s, _ = fit_surface(FrozenDesignSet(corners, rng.uniform(lo, hi, 4)),
                           2, 2, bounds=((0.0, 0.2), (0.0, 0.2)))
        return s

    notches = [LpvNotch(bilinear(0.05, 0.2), bilinear(0.3, 0.6),
                        bilinear(f, 1.2 * f), bilinear(1.1 * f, 1.4 * f))
               for f in (180.0, 900.0)]
    casc = Cascade((Gain(2.0), Integrator(), Lead(80.0), *notches))
    points = rng.uniform(0.0, 0.2, size=(4000, 2))
    freqs = GRID[::25]
    omega = 2.0 * np.pi * freqs
    frozen = [freeze_notches([n], points)[0] for n in notches]
    w = 2.0 * np.pi * np.concatenate([c[k] for c in frozen for k in (0, 1)])
    assert np.any(np.square(w) != np.array([v ** 2 for v in w.tolist()]))
    fixed = np.ones(len(freqs), dtype=complex)
    for element in casc.fixed_part:
        fixed = fixed * element_transfer(element, omega)
    want = np.empty((len(points), len(freqs)), dtype=complex)
    for k in range(len(points)):
        row = fixed
        for coeffs in frozen:
            row = row * notch_transfer(*(float(c[k]) for c in coeffs), omega)
        want[k] = row
    h = cascade_frf(casc, freqs, points)
    assert h.nbytes >= 256 * 1024
    assert h.tobytes() == want.tobytes()


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


def test_realize_equals_chained_series():
    """The one-pass cascade realization against a chain of general series
    connections (tests/series_reference.py), bit for bit: a fixed cascade,
    and a scheduled one at one position and on a stack of positions, with
    and without the notch frequency cap."""
    rng = np.random.default_rng(29)
    corners = np.array([[0.0, 0.0], [0.0, 0.2], [0.2, 0.0], [0.2, 0.2]])

    def bilinear(lo, hi):
        from lpvslc.scheduling import FrozenDesignSet, fit_surface
        s, _ = fit_surface(FrozenDesignSet(corners, rng.uniform(lo, hi, 4)),
                           2, 2, bounds=((0.0, 0.2), (0.0, 0.2)))
        return s

    fixed = (Gain(3.7), Integrator(), Lead(83.0, 2.6), Lead(95.0, 3.1),
             random_notch(rng), random_notch(rng))
    # A negative gain and a zero-damped notch put signed zeros in the maps.
    signed = (Gain(-3.7), Integrator(), Lead(95.0, 3.1),
              Notch(250.0, 280.0, 0.0, 0.4))
    lpvs = tuple(LpvNotch(bilinear(0.05, 0.2), bilinear(0.3, 0.6),
                          bilinear(150.0, 300.0), bilinear(180.0, 360.0))
                 for _ in range(2))
    points = rng.uniform(0.0, 0.2, size=(7, 2))
    for casc in (Cascade(fixed), Cascade(fixed + lpvs), Cascade(signed),
                 Cascade(signed + lpvs)):
        for p in (None, points[0], points):
            if p is None and casc.scheduled_part:
                continue
            for f_max in (None, 200.0):
                assert_realizations_equal(realize(casc, p, f_max),
                                          chained_realize(casc, p, f_max))


def test_cascade_frf_equals_in_order_product_of_element_responses():
    """Repeated blocks are evaluated once and still multiplied on in
    element order, byte for byte: three leads (the same object, then three
    equal ones), two equal notches, a negative gain; with no position, at
    one position and stacked, with and without a scheduled tail.  Gains of
    -0.0 and +0.0, equal but not the same bits, are kept apart."""
    rng = np.random.default_rng(31)
    lead = Lead(95.0, 3.1)
    notch = Notch(250.0, 280.0, 0.0, 0.4)
    lpv = LpvNotch(constant_surface(0.1), constant_surface(0.4),
                   constant_surface(610.0, "Hz"), constant_surface(650.0, "Hz"))
    points = rng.uniform(0.0, 0.2, size=(5, 2))
    freqs = GRID[::7]
    omega = 2.0 * np.pi * freqs
    for fixed in ((Gain(-2.5), Integrator(), lead, lead, lead, notch,
                   Notch(250.0, 280.0, 0.0, 0.4)),
                  (Gain(-2.5), Integrator(), Lead(95.0, 3.1), Lead(95.0, 3.1),
                   Lead(95.0, 3.1), notch, notch),
                  (Integrator(), Gain(0.0), Gain(-0.0), lead, lead)):
        want = np.ones(len(freqs), dtype=complex)
        for element in fixed:
            want = want * element_transfer(element, omega)
        casc = Cascade(fixed)
        for p in (None, points[0]):
            assert cascade_frf(casc, freqs, p).tobytes() == want.tobytes()
        stacked = cascade_frf(casc, freqs, points)
        assert stacked.tobytes() == np.tile(want, (len(points), 1)).tobytes()
        scheduled = Cascade(fixed + (lpv,))
        rows = [want * notch_transfer(*(float(c[0]) for c in
                                        freeze_notches([lpv], [p])[0]), omega)
                for p in points]
        assert cascade_frf(scheduled, freqs, points[0]).tobytes() \
            == rows[0].tobytes()
        assert cascade_frf(scheduled, freqs, points).tobytes() \
            == np.array(rows).tobytes()


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
    for n_fixed in (3, 2.7, True):
        with pytest.raises(ConfigError, match="n_fixed"):
            cascade_from_dict({**cascade_to_dict(casc), "n_fixed": n_fixed})
    for bad in ({"type": "gain", "k": True}, {"type": "gain", "k": "2"},
                {"type": "lead", "f_bw": 140.0, "alpha": float("nan")}):
        with pytest.raises(ConfigError, match="must be finite and real"):
            filter_from_dict(bad)
    with pytest.raises(ConfigError):
        filter_from_dict({"type": "biquad"})
    with pytest.raises(ConfigError):
        filter_from_dict({"type": "lead"})


def _every_block_type():
    """A cascade holding every block type; numbers of several Python and
    numpy types, surfaces of unequal orders."""
    return Cascade((
        Gain(np.float64(-2.5e-3)), Integrator(), Lead(83, 2.6),
        Notch(400, 420.5, 0.0, np.float64(0.35)),
        LpvNotch(CoefficientSurface(1, 3, [0.1, -0.02, 0.003],
                                    x_map=(0.1, 0.1), y_map=(0.1, 0.1)),
                 CoefficientSurface(2, 1, [0.4, 0.05]),
                 CoefficientSurface(3, 2, [610.0, 1.5, -2.25, 0.1, 7, 1e-3],
                                    units="Hz"),
                 CoefficientSurface(1, 1, [650], units="Hz"))))


def test_cascade_to_dict_text_is_pinned():
    """Key order and float text of every block record, as stored sets
    have always been written."""
    assert json.dumps(cascade_to_dict(_every_block_type())) == (
        '{"elements": [{"type": "gain", "k": -0.0025}, '
        '{"type": "integrator"}, '
        '{"type": "lead", "f_bw": 83.0, "alpha": 2.6}, '
        '{"type": "notch", "f1": 400.0, "f2": 420.5, "beta1": 0.0, '
        '"beta2": 0.35}, '
        '{"type": "lpv_notch", '
        '"beta1": {"order_x": 1, "order_y": 3, "theta": [0.1, -0.02, 0.003], '
        '"x_map": [0.1, 0.1], "y_map": [0.1, 0.1], "units": ""}, '
        '"beta2": {"order_x": 2, "order_y": 1, "theta": [0.4, 0.05], '
        '"x_map": [0.0, 1.0], "y_map": [0.0, 1.0], "units": ""}, '
        '"f1": {"order_x": 3, "order_y": 2, '
        '"theta": [610.0, 1.5, -2.25, 0.1, 7.0, 0.001], '
        '"x_map": [0.0, 1.0], "y_map": [0.0, 1.0], "units": "Hz"}, '
        '"f2": {"order_x": 1, "order_y": 1, "theta": [650.0], '
        '"x_map": [0.0, 1.0], "y_map": [0.0, 1.0], "units": "Hz"}}], '
        '"n_fixed": 4}')


def test_block_realizes_as_one_block_cascade():
    """realize(block) is realize(Cascade((block,))) byte for byte, a
    scheduled notch at one position and on a stack of positions."""
    points = np.array([[0.02, 0.15], [0.1, 0.1], [0.18, 0.03]])
    cases = [(block, None) for block in _every_block_type().fixed_part]
    lpv = _every_block_type().scheduled_part[0]
    cases += [(lpv, points[1]), (lpv, points)]
    for block, p in cases:
        alone, wrapped = realize(block, p), realize(Cascade((block,)), p)
        for name in "abcd":
            assert getattr(alone, name).tobytes() \
                == getattr(wrapped, name).tobytes(), (block, name)
            assert getattr(alone, name).shape \
                == getattr(wrapped, name).shape
    assert realize(lpv, points).a.shape == (3, 2, 2)


def test_block_table_covers_state_counts_and_unknown_blocks():
    assert [n_states(e) for e in _every_block_type().elements] \
        == [0, 1, 1, 2, 2]
    assert n_states(_every_block_type()) == 6
    for call in (n_states, filter_to_dict, realize):
        with pytest.raises(ModelError, match="object"):
            call(object())
