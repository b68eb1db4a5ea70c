"""Frequency responses, equivalent plants, determinant identity, Nyquist, margins."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lpvslc import design
from lpvslc.design import (
    AUDIT_GRID_N,
    CERT_TAIL_N,
    DesignSpec,
    _bracketing_samples,
    _certification_freqs,
    _discover_clusters,
    certify,
    decoupled_plant_frf,
    design_lti_slc,
    grid_points,
    rigid_body_decouple,
)
from lpvslc.errors import DomainError, NumericalError
from lpvslc.filters import Cascade, Gain, Integrator, Lead, Notch, realize
from lpvslc.freqresp import (
    FrequencyGrid,
    default_grid,
    det_identity_residual,
    equivalent_plant,
    frf,
    margins_and_bandwidth,
    nyquist_stable,
)
from lpvslc.freqresp import _det_stacked, _unwrap
from lpvslc.plant import (
    FrozenStateSpace,
    ModalPlantModel,
    benchmark_plant,
    frozen_realization,
    mode_shape_eval,
)

from certify_reference import design_chain, reference_certify
from freqresp_reference import (
    dense_frf,
    entry_planes,
    fancy_index_det_stacked,
    full_update_equivalent_plant,
)


def random_stable_ss(rng, n_states, n_out, n_in):
    a = rng.normal(size=(n_states, n_states))
    shift = np.max(np.linalg.eigvals(a).real) + rng.uniform(0.5, 3.0)
    a -= shift * np.eye(n_states)
    b = rng.normal(size=(n_states, n_in))
    c = rng.normal(size=(n_out, n_states))
    d = np.zeros((n_out, n_in))
    return FrozenStateSpace(a, b, c, d)


def test_grid_validation():
    with pytest.raises(DomainError):
        FrequencyGrid(np.array([0.0, 1.0]))
    with pytest.raises(DomainError):
        FrequencyGrid(np.array([1.0, 1.0]))
    for bad in ((float("nan"), 100.0, 10), (1.0, float("inf"), 10),
                (1.0, float("nan"), 10)):
        with pytest.raises(DomainError, match="finite"):
            default_grid(*bad)
    with pytest.raises(DomainError, match="finite"):
        FrequencyGrid(np.array([1.0, 2.0, np.inf]))
    g = default_grid()
    assert g.freqs_hz.shape == (1000,)
    assert g.freqs_hz[0] == 1.0 and g.freqs_hz[-1] == 5000.0


def test_integrator_frf():
    ss = FrozenStateSpace([[0.0]], [[1.0]], [[1.0]], [[0.0]])
    f = np.array([0.5, 1.0, 10.0])
    h = dense_frf(ss, f)
    assert_allclose(h[:, 0, 0], 1.0 / (1j * 2 * np.pi * f), rtol=1e-12)


def test_double_integrator_frf():
    m = 3.0
    ss = FrozenStateSpace([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0 / m]], [[1.0, 0.0]], [[0.0]])
    f = np.geomspace(0.1, 100.0, 7)
    h = frf(ss, f)[:, 0, 0]
    w = 2 * np.pi * f
    assert_allclose(h, -1.0 / (m * w ** 2), rtol=1e-12)


def test_benchmark_frf_matches_modal_sum():
    model = benchmark_plant()
    p = (0.13, 0.06)
    ss = frozen_realization(model, p)
    phi_a, phi_s = mode_shape_eval(model, p)
    rng = np.random.default_rng(3)
    f = rng.uniform(1.0, 2000.0, size=20)
    h = frf(ss, f)
    w = 2 * np.pi * f
    omega_k = 2 * np.pi * model.frequencies_hz
    oracle = np.zeros((len(f), model.n_y, model.n_u), dtype=complex)
    for k in range(model.n_modes):
        den = model.masses[k] * (omega_k[k] ** 2 - w ** 2 + 2j * model.damping[k] * omega_k[k] * w)
        oracle += np.einsum("i,j,f->fij", phi_s[:, k], phi_a[k, :], 1.0 / den)
    assert_allclose(h, oracle, rtol=1e-9, atol=1e-16)


def _normwise_gap(h, oracle):
    """Largest Frobenius-norm error per frequency, relative to the oracle."""
    return np.max(np.linalg.norm(h - oracle, axis=(1, 2))
                  / np.linalg.norm(oracle, axis=(1, 2)))


def test_closed_form_frf_matches_dense_solve():
    # The closed form against the resolvent solved at every frequency, on
    # the design's frequency grid: the raw plant and the decoupled plant at
    # every point of a 9x9 grid, and a plant with rigid modes only.
    model = benchmark_plant()
    freqs = _certification_freqs()
    t_u, t_y = rigid_body_decouple(model, (0.1, 0.1))
    raw = decoupled = 0.0
    for p in grid_points(model.workspace, 9, 9):
        ss = frozen_realization(model, p)
        oracle = dense_frf(ss, freqs)
        raw = max(raw, _normwise_gap(frf(ss, freqs), oracle))
        decoupled = max(decoupled, _normwise_gap(
            decoupled_plant_frf(model, p, freqs, t_u, t_y), t_y @ oracle @ t_u))
    assert raw <= 1e-12
    assert decoupled <= 1e-12

    rigid = ModalPlantModel(
        modes=model.modes[:3], masses=model.masses[:3],
        frequencies_hz=np.zeros(3), damping=np.zeros(3),
        actuator_xy=model.actuator_xy, sensor_xy=model.sensor_xy,
        workspace=model.workspace)
    for p in ((0.0, 0.0), (0.13, 0.06)):
        ss = frozen_realization(rigid, p)
        assert _normwise_gap(frf(ss, freqs), dense_frf(ss, freqs)) <= 1e-12


def test_grid_plant_responses_equal_one_point_calls_bit_for_bit():
    # frozen_realization, frf and decoupled_plant_frf at the 9x9 audit grid:
    # every row of each stack is the one-point call's, sign bits included,
    # on the certification frequencies and on the samples bracketing the
    # README design's resonance clusters.
    model = benchmark_plant()
    design_grid = DesignSpec().resolve(model)[0]
    t_u, t_y = rigid_body_decouple(model, design_grid[len(design_grid) // 2])
    cert, base = _certification_freqs(), default_grid().freqs_hz
    p_frfs = np.stack([decoupled_plant_frf(model, p, cert, t_u, t_y)[CERT_TAIL_N:]
                       for p in design_grid])
    clusters = _discover_clusters(p_frfs, base, model.masses[: model.n_rigid])
    sub = _bracketing_samples(base, [cl.f_hz for infos in clusters for cl in infos])
    assert 0 < len(sub) < len(base) // 10
    grid = grid_points(model.workspace, AUDIT_GRID_N, AUDIT_GRID_N)
    ss = frozen_realization(model, grid)
    for r, p in enumerate(grid):
        one = frozen_realization(model, p)
        assert ss.a.tobytes() == one.a.tobytes()
        for name in "bcd":
            assert getattr(ss, name)[r].tobytes() == getattr(one, name).tobytes()
    for freqs in (cert, base[sub]):
        raw = frf(ss, freqs)
        decoupled = decoupled_plant_frf(model, grid, freqs, t_u, t_y)
        shape = (len(grid), len(freqs), model.n_y, model.n_u)
        assert raw.shape == decoupled.shape == shape
        for p, h_raw, h_dec in zip(grid, raw, decoupled):
            assert h_raw.tobytes() == frf(frozen_realization(model, p),
                                          freqs).tobytes(), p
            assert h_dec.tobytes() == decoupled_plant_frf(
                model, p, freqs, t_u, t_y).tobytes(), p


def test_frf_refuses_non_modal_realizations():
    freqs = np.geomspace(1.0, 100.0, 5)
    for spec in (Lead(f_bw=100.0), Notch(300.0, 330.0, 0.05, 0.5), Integrator()):
        with pytest.raises(DomainError, match="modal form"):
            frf(realize(spec), freqs)
    ss = frozen_realization(benchmark_plant(), (0.1, 0.1))
    n_q = ss.n_states // 2
    for entry in ((n_q + 3, n_q + 4), (n_q + 3, 4), (0, 1), (1, n_q + 1)):
        a = ss.a.copy()
        a[entry] += 1.0
        with pytest.raises(DomainError, match="modal form"):
            frf(FrozenStateSpace(a, ss.b, ss.c, ss.d), freqs)
    b, c = ss.b.copy(), ss.c.copy()
    b[0, 0], c[0, -1] = 1.0, 1.0
    for bad in (FrozenStateSpace(ss.a, b, ss.c, ss.d),
                FrozenStateSpace(ss.a, ss.b, c, ss.d)):
        with pytest.raises(DomainError, match="modal form"):
            frf(bad, freqs)


def test_equivalent_plant_diagonal_and_zero_k():
    rng = np.random.default_rng(1)
    F = 40
    diag = rng.normal(size=(F, 3)) + 1j * rng.normal(size=(F, 3))
    p_frf = np.zeros((F, 3, 3), dtype=complex)
    idx = np.arange(3)
    p_frf[:, idx, idx] = diag
    ks = [np.full(F, 0.7 + 0.1j), np.full(F, -0.3), np.full(F, 2.0)]
    for i in range(3):
        assert_allclose(equivalent_plant(p_frf, ks, i), diag[:, i], rtol=1e-13)
    full = rng.normal(size=(F, 3, 3)) + 1j * rng.normal(size=(F, 3, 3))
    zeros = [np.zeros(F)] * 3
    for i in range(3):
        assert_allclose(equivalent_plant(full, zeros, i), full[:, i, i], rtol=1e-14)


def test_equivalent_plant_two_by_two_hand_formula():
    rng = np.random.default_rng(2)
    F = 25
    p = rng.normal(size=(F, 2, 2)) + 1j * rng.normal(size=(F, 2, 2))
    k2 = 0.4 - 0.2j
    g1 = equivalent_plant(p, [np.zeros(F), np.full(F, k2)], 0)
    oracle = p[:, 0, 0] - p[:, 0, 1] * k2 * p[:, 1, 0] / (1.0 + p[:, 1, 1] * k2)
    assert_allclose(g1, oracle, rtol=1e-12)


def test_equivalent_plant_closure_order_invariance():
    rng = np.random.default_rng(5)
    F = 30
    p = rng.normal(size=(F, 3, 3)) + 1j * rng.normal(size=(F, 3, 3))
    k = rng.normal(size=3) * 0.3

    def close_one(mat, j, kj):
        keep = [a for a in range(mat.shape[1]) if a != j]
        pjj = mat[:, j, j]
        out = np.zeros((F, len(keep), len(keep)), dtype=complex)
        for ai, a in enumerate(keep):
            for bi, b in enumerate(keep):
                out[:, ai, bi] = mat[:, a, b] - mat[:, a, j] * kj * mat[:, j, b] / (1.0 + pjj * kj)
        return out

    # Close loops 1 then 2, versus 2 then 1, versus jointly.
    seq_a = close_one(close_one(p, 2, k[2]), 1, k[1])[:, 0, 0]
    seq_b = close_one(close_one(p, 1, k[1]), 1, k[2])[:, 0, 0]  # index shifts after removal
    joint = equivalent_plant(p, [np.zeros(F), np.full(F, k[1]), np.full(F, k[2])], 0)
    assert_allclose(seq_a, joint, rtol=1e-11)
    assert_allclose(seq_b, joint, rtol=1e-11)


def test_equivalent_plant_singular_closure_raises():
    rng = np.random.default_rng(7)
    F = 12
    p = rng.normal(size=(F, 3, 3)) + 1j * rng.normal(size=(F, 3, 3))
    p[4, 2, 2] = -0.5
    k = [np.zeros(F), np.zeros(F), np.full(F, 2.0)]  # 1 + 2 * -0.5 == 0
    with pytest.raises(NumericalError, match="loop 0.*loop 2"):
        equivalent_plant(p, k, 0)
    # Loop 2 itself is not closed when its own equivalent plant is formed.
    assert np.all(np.isfinite(equivalent_plant(p, k, 2)))


def test_det_identity_diagonal_zero_and_random():
    rng = np.random.default_rng(11)
    F = 60
    diag = rng.normal(size=(F, 2)) + 1j * rng.normal(size=(F, 2))
    p_frf = np.zeros((F, 2, 2), dtype=complex)
    p_frf[:, [0, 1], [0, 1]] = diag
    ks = [np.full(F, 0.5), np.full(F, 1.5 - 0.5j)]
    assert det_identity_residual(p_frf, ks, design_chain(p_frf, ks)) == 0.0

    for trial in range(10):
        n = 2 + trial % 2
        sys = random_stable_ss(rng, 6, n, n)
        freqs = np.geomspace(0.05, 50.0, 200)
        h = dense_frf(sys, freqs)
        w = 2j * np.pi * freqs
        ks = [rng.normal() * 0.8 / (1.0 + w / rng.uniform(1.0, 30.0)) for _ in range(n)]
        assert det_identity_residual(h, ks, design_chain(h, ks)) < 1e-8
        # The identity holds along any loop order.
        order = [n - 1 - i for i in range(n)]
        assert det_identity_residual(h, ks, design_chain(h, ks, order),
                                     order) < 1e-8


def test_equivalent_plant_equals_full_update_reference():
    """Forming only the entries later closures read gives, bit for bit,
    the plant that updating the whole plant at every closure gives: for
    one position and a stack of them, with loop responses given as arrays,
    as nonzero scalars and as the scalar 0 of an open loop."""
    rng = np.random.default_rng(31)
    F = 50
    for n in (1, 2, 3, 4):
        for lead in ((), (6,)):
            shape = lead + (F, n, n)
            p = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            arrays = [rng.normal(size=lead + (F,))
                      + 1j * rng.normal(size=lead + (F,)) for _ in range(n)]
            for ks in (arrays, [0.7 - 0.2j] * n,
                       [0.0 if j % 2 else k for j, k in enumerate(arrays)]):
                for i in range(n):
                    got = equivalent_plant(p, ks, i)
                    want = full_update_equivalent_plant(p, ks, i)
                    assert got.shape == lead + (F,)
                    assert got.tobytes() == want.tobytes(), (n, lead, i)


def test_det_stacked_equals_fancy_index_reference():
    """The plane-by-plane elimination computes, bit for bit, the
    determinants the fancy-indexed elimination of the whole stack does:
    on small-integer stacks, full of exact pivot ties and zero pivots; on
    random stacks with tied rows and zero columns; and on diagonal stacks,
    whose determinant is the ordered product of the diagonal."""
    rng = np.random.default_rng(23)
    F = 400
    for n in (1, 2, 3, 4):
        ints = (rng.integers(-2, 3, size=(F, n, n))
                + 1j * rng.integers(-2, 3, size=(F, n, n)))
        assert np.any(np.abs(ints[:, 0, 0]) == np.abs(ints[:, -1, 0]))
        rand = rng.normal(size=(F, n, n)) + 1j * rng.normal(size=(F, n, n))
        rand[::3, -1, :] = 1j * rand[::3, 0, :]     # |row| ties, singular
        rand[1::5, :, n // 2] = 0.0                 # a zero pivot column
        diag = np.zeros((F, n, n), dtype=complex)
        entries = rng.normal(size=(F, n)) + 1j * rng.normal(size=(F, n))
        entries[::4, n - 1] = 0.0
        diag[:, np.arange(n), np.arange(n)] = entries
        for stack in (ints, rand, diag):
            got = _det_stacked(entry_planes(stack))
            assert got.tobytes() == fancy_index_det_stacked(stack).tobytes()
        product = np.ones(F, dtype=complex)
        for i in range(n):
            product = product * entries[:, i]
        assert _det_stacked(entry_planes(diag)).tobytes() == product.tobytes()


def test_nyquist_stable_integrator_loop():
    wc = 2 * np.pi * 50.0
    freqs = np.geomspace(0.5, 5000.0, 400)
    l_vals = wc / (2j * np.pi * freqs)
    verdict = nyquist_stable(freqs, l_vals, lambda f: wc / (2j * np.pi * f), 1)
    assert verdict.stable
    assert verdict.encirclements == 0


def test_nyquist_unstable_first_order_matches_eigenvalues():
    # L = -2 / (s / w0 + 1): one clockwise encirclement of -1, closed-loop
    # pole at +w0 confirmed by the state-space check A - b k c.
    w0 = 2 * np.pi * 10.0
    freqs = np.geomspace(0.01, 5000.0, 500)

    def ev(f):
        return -2.0 / (1.0 + 2j * np.pi * f / w0)

    verdict = nyquist_stable(freqs, ev(freqs), ev, 0)
    assert not verdict.stable
    assert verdict.encirclements == 1
    a_cl = np.array([[-w0]]) - np.array([[1.0]]) @ np.array([[1.0]]) @ np.array([[-2.0 * w0]])
    assert np.max(np.linalg.eigvals(a_cl).real) > 0


def test_nyquist_small_gain_always_stable():
    rng = np.random.default_rng(17)
    sys = random_stable_ss(rng, 6, 1, 1)
    freqs = np.geomspace(0.01, 100.0, 300)
    h = dense_frf(sys, freqs)[:, 0, 0]
    k = 0.01 / np.max(np.abs(h))
    verdict = nyquist_stable(freqs, k * h, lambda f: k * dense_frf(sys, f)[:, 0, 0], 0)
    assert verdict.stable and verdict.encirclements == 0


def test_nyquist_agrees_with_eigenvalue_oracle_random_loops():
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(60):
        n = int(rng.integers(3, 9))
        sys = random_stable_ss(rng, n, 1, 1)
        k = float(rng.choice([-1, 1]) * 10.0 ** rng.uniform(-1.0, 1.0))
        a_cl = sys.a - sys.b @ (k * sys.c)
        margin = np.max(np.linalg.eigvals(a_cl).real)
        scale = np.max(np.abs(np.linalg.eigvals(sys.a).real))
        if abs(margin) < 1e-3 * scale:
            continue  # skip near-marginal draws, verdicts are ill-posed there
        freqs = np.geomspace(1e-3, 1e3, 400) * scale / (2 * np.pi)

        def ev(f, sys=sys, k=k):
            return k * dense_frf(sys, f)[:, 0, 0]

        verdict = nyquist_stable(freqs, ev(freqs), ev, 0)
        assert verdict.stable == (margin < 0.0)
        checked += 1
    assert checked >= 40


def test_margins_pure_integrator():
    wc = 2 * np.pi * 20.0
    freqs = np.geomspace(0.1, 5000.0, 800)
    l_vals = wc / (2j * np.pi * freqs)
    m = margins_and_bandwidth(freqs, l_vals)
    assert_allclose(m.f_crossover_hz, 20.0, rtol=1e-6)
    assert_allclose(m.phase_margin_deg, 90.0, atol=1e-9)
    assert m.gain_margin_db == np.inf


def test_margins_forty_five_degree_case():
    # Double integrator with one lead of maximum boost 45 degrees at the
    # crossover: sensitivity there is 1 / (2 sin(22.5 deg)) = 2.32 dB.
    fc = 30.0
    wc = 2 * np.pi * fc
    alpha = np.sqrt((1 + np.sin(np.radians(45.0))) / (1 - np.sin(np.radians(45.0))))

    def l_of(f):
        s = 2j * np.pi * f
        lead = alpha ** 2 * (s + wc / alpha) / (s + alpha * wc)
        return (wc ** 2 / (alpha * s ** 2)) * lead

    freqs = np.geomspace(0.1, 5000.0, 3000)
    m = margins_and_bandwidth(freqs, l_of(freqs))
    assert_allclose(m.f_crossover_hz, fc, rtol=1e-4)
    assert_allclose(m.phase_margin_deg, 45.0, atol=0.01)
    s_at_fc = 1.0 / abs(1.0 + l_of(np.array([m.f_crossover_hz]))[0])
    assert_allclose(20 * np.log10(s_at_fc), 2.324, atol=0.005)


def test_margins_gain_doubling_consistent_with_brute_force():
    model = benchmark_plant()
    ss = frozen_realization(model, (0.1, 0.1))
    freqs = default_grid().freqs_hz
    g = frf(ss, freqs)[:, 0, 0]
    wc = 2 * np.pi * 40.0
    for scale in (1.0, 2.0):
        l_vals = scale * wc ** 2 * g * 10.0  # arbitrary stable-ish shaping not needed for crossover
        m = margins_and_bandwidth(freqs, l_vals)
        fine = np.geomspace(1.0, 5000.0, 200000)
        l_fine = scale * wc ** 2 * frf(ss, fine)[:, 0, 0] * 10.0
        first = np.flatnonzero(np.diff(np.sign(np.abs(l_fine) - 1.0)))[0]
        assert abs(m.f_crossover_hz - fine[first]) / fine[first] < 1e-3


def test_refinement_raises_without_resolution():
    # A phase that jumps by nearly 180 degrees between neighboring samples
    # and an evaluator that keeps returning the same two points cannot be
    # resolved; the counter must refuse rather than guess.
    freqs = np.array([1.0, 10.0, 100.0])
    l_vals = np.array([10.0 + 0j, -10.0 + 0.1j, 0.01 + 0j])
    with pytest.raises(NumericalError):
        nyquist_stable(freqs, l_vals, lambda f: np.full(len(f), -10.0 + 0.1j), 0)


def _stack_cases():
    """Loops on one frequency grid, (name, evaluator, origin poles), that
    take every path of nyquist_stable: extension at the low end, at the
    high end, phase refinement, and none of them, stable and not."""
    w = 2.0 * np.pi

    def integrator(fc):
        return lambda f: w * fc / (1j * w * f)

    def double_integrator_with_lead(fc):
        return lambda f: (w * fc / (1j * w * f)) ** 2 * (1.0 + 1j * f)

    def delayed_integrator(f):
        return integrator(50.0)(f) * np.exp(-1j * w * f * 0.05)

    def unstable(f):
        return -2.0 / (1.0 + 1j * f / 10.0)

    return [("none", integrator(50.0), 1),
            ("low end", double_integrator_with_lead(2.0), 2),
            ("high end", integrator(2000.0), 1),
            ("refinement", delayed_integrator, 1),
            ("unstable", unstable, 0),
            ("none again", integrator(15.0), 1)]


def test_stacked_checks_equal_one_call_per_loop():
    """nyquist_stable and margins_and_bandwidth on an (n, F) stack return,
    row by row, the 1-D call's verdict, encirclements and margins bit for
    bit, whichever rows need their evaluator; a row calls its evaluator as
    often as its 1-D call does, and a row that needs none calls it not
    at all."""
    freqs = np.geomspace(1.0, 5000.0, 60)
    cases = _stack_cases()
    calls = {}

    def counted(name, ev):
        def call(f):
            calls[name] = calls.get(name, 0) + 1
            return ev(f)
        return call

    one = [nyquist_stable(freqs, ev(freqs), counted(name, ev), q)
           for name, ev, q in cases]
    per_row, calls = calls, {}
    stack = np.stack([ev(freqs) for _, ev, _ in cases])
    verdicts = nyquist_stable(freqs, stack,
                              [counted(name, ev) for name, ev, _ in cases],
                              [q for *_, q in cases])
    assert verdicts == one
    assert calls == per_row
    assert set(per_row) == {"low end", "high end", "refinement"}
    assert [v.stable for v in verdicts] == [True] * 3 + [False] * 2 + [True]
    assert verdicts[4].encirclements == 1
    margins = margins_and_bandwidth(freqs, stack)
    assert len(margins) == len(cases)
    for row, m in zip(stack, margins):
        want = margins_and_bandwidth(freqs, row)
        assert repr(m) == repr(want)
        assert np.array([m.f_crossover_hz, m.phase_margin_deg,
                         m.gain_margin_db]).tobytes() == np.array(
            [want.f_crossover_hz, want.phase_margin_deg,
             want.gain_margin_db]).tobytes()


def test_verdict_report_stops_at_a_failing_second_loop(monkeypatch):
    """Positions whose second loop in the order fails, the centre design
    with loop order (1, 0, 2): over a 4 dB bound (loop 0's peak is 5.96
    dB, the others' under 3.5 dB), and Nyquist unstable with loop 0's gain
    negated, every peak under the 6 dB bound.  The full report, the
    one-position reference's, holds all three loops.  The design's SLC
    verdict names loop 0 and the criterion it fails, with the report's
    value for it, and computes neither the determinant residual, the
    margins nor the closed-loop matrix."""
    model = benchmark_plant()
    point = [(0.1, 0.1)]
    cs = design_lti_slc(model, DesignSpec(design_grid=point,
                                          verification_grid=point))
    gain, *rest = cs.loops[0].elements
    negated = (Cascade((Gain(-gain.k), *rest)),) + cs.loops[1:]
    for loops, bound, unstable in ((cs.loops, 4.0, False),
                                   (negated, 6.0, True)):
        bad = dataclasses.replace(cs, loops=loops, loop_order=(1, 0, 2),
                                  sensitivity_bound_db=bound)
        full = certify(model, bad, point)
        reference = reference_certify(model, bad, point)
        assert full.to_dict() == reference.to_dict()
        assert len(full.points[0].loops) == 3 and not full.passed
        loop_0 = full.points[0].loops[1]
        assert loop_0.loop == 0
        with monkeypatch.context() as mp:
            for name in ("det_identity_residual", "margins_and_bandwidth",
                         "closed_loop_matrix"):
                mp.setattr(design, name, None)
            failure = design._slc_verdict(model, bad, np.array(point))
        want = ((0.1, 0.1), 0, "nyquist", loop_0.encirclements, 0) \
            if unstable else ((0.1, 0.1), 0, "sensitivity",
                              loop_0.sensitivity_peak_db, bound)
        assert failure == want
        assert loop_0.nyquist_stable is not unstable
        assert full.points[0].sensitivity_ok(bound) is unstable


def assert_unwrap_equals_numpy(phase):
    """Same bytes as np.unwrap, signed zeros and NaN included."""
    phase = np.asarray(phase, dtype=float)
    with np.errstate(invalid="ignore"):
        got, want = _unwrap(phase), np.unwrap(phase)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes(), (phase, got, want)


@pytest.mark.parametrize("phase", [
    [0.0, np.pi, 0.0, -np.pi, 0.0, np.pi + 1.0],        # steps of +-pi
    [0.0, -np.pi, -2.0 * np.pi, -np.pi, 2.0 * np.pi],
    [-0.0, -0.0, 1.0, -0.0, 5.0, -0.0],                 # signed zeros
    [-0.0],
    [0.0, np.nan, 1.0, 5.0],                            # NaN propagates
    [0.0, 4.0, np.nan, -0.0],
    [np.nan, 0.0, 4.0],
    [1.5],                                              # lengths 1 and 2
    [1.5, -2.0],
    [1.5, 1.0],
    np.linspace(-3.0, 3.0, 50),                         # no jump
    3.5 * np.arange(40.0) * (-1.0) ** np.arange(40),   # every step jumps
    np.pi * np.arange(-20.0, 20.0),
], ids=["plus_pi", "minus_pi", "signed_zeros", "minus_zero", "nan", "nan_late",
        "nan_first", "one", "two", "two_no_jump", "no_jump", "all_jump",
        "multiples_of_pi"])
def test_unwrap_equals_numpy_on_edge_cases(phase):
    assert_unwrap_equals_numpy(phase)


def test_unwrap_equals_numpy_on_random_phases():
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st
    from hypothesis.extra.numpy import arrays

    special = st.sampled_from([np.pi, -np.pi, 2.0 * np.pi, 0.0, -0.0,
                               np.nan, np.inf, -np.inf])
    values = st.one_of(st.floats(-50.0, 50.0), special)

    @hypothesis.settings(max_examples=300, derandomize=True, database=None,
                         deadline=None)
    @hypothesis.given(arrays(np.float64, st.integers(1, 64), elements=values))
    def check(phase):
        assert_unwrap_equals_numpy(phase)

    @hypothesis.settings(max_examples=200, derandomize=True, database=None,
                         deadline=None)
    @hypothesis.given(arrays(np.float64, st.tuples(st.integers(1, 4),
                                                   st.integers(1, 32)),
                             elements=values))
    def check_stack(phases):
        # Along the last axis, and each row as its own 1-D call, but for
        # the sign of a NaN that numpy makes, which differs between its
        # vector and scalar loops.
        assert_unwrap_equals_numpy(phases)
        with np.errstate(invalid="ignore"):
            for got, row in zip(_unwrap(phases), phases):
                want = _unwrap(row)
                nan = np.isnan(want)
                assert np.array_equal(np.isnan(got), nan)
                assert got[~nan].tobytes() == want[~nan].tobytes()

    check()
    check_stack()


def test_unwrap_equals_numpy_on_loop_phases():
    """The phases the Nyquist test and the margins unwrap, on the
    certification frequencies of a design at the workspace centre."""
    from lpvslc.design import DesignSpec, design_lti_slc

    model = benchmark_plant()
    center = [(0.1, 0.1)]
    controllers = design_lti_slc(model, DesignSpec(design_grid=center,
                                                   verification_grid=center))
    freqs = _certification_freqs()
    p_frf = decoupled_plant_frf(model, center[0], freqs, controllers.t_u,
                                controllers.t_y)
    k_frfs = controllers.loop_frfs(freqs, center[0])
    chain = design_chain(p_frf, k_frfs, controllers.loop_order)
    for g, k in zip(chain, k_frfs):
        assert_unwrap_equals_numpy(np.angle(g * k))
        assert_unwrap_equals_numpy(np.angle(1.0 + g * k))
