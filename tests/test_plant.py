"""Modal plant model: shape sampling, frozen realizations, validation."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lpvslc.design import DesignSpec
from lpvslc.errors import ConfigError, DomainError, ModelError
from lpvslc.plant import (
    FrozenStateSpace,
    ModalPlantModel,
    Mode,
    benchmark_plant,
    frozen_realization,
    load_plant,
    mode_shape_eval,
    plant_from_dict,
    plant_to_dict,
    save_plant,
    scan_coupling,
)


def single_axis_plant(mass=2.0):
    """One rigid z mode, one actuator, one sensor: the scalar sanity model."""
    return ModalPlantModel(
        modes=(Mode("rigid", axis="z"),),
        masses=np.array([mass]),
        frequencies_hz=np.array([0.0]),
        damping=np.array([0.0]),
        actuator_xy=np.array([[0.0, 0.0]]),
        sensor_xy=np.array([[0.0, 0.0]]),
        workspace=((0.0, 0.2), (0.0, 0.2)),
    )


def test_rigid_z_row_is_unit_allocation_everywhere():
    model = single_axis_plant()
    for p in [(0.0, 0.0), (0.1, 0.05), (0.2, 0.2)]:
        phi_a, phi_s = mode_shape_eval(model, p)
        assert_allclose(phi_a, [[1.0]])
        assert_allclose(phi_s, [[1.0]])


def test_benchmark_rigid_block_is_identity_and_p_invariant():
    model = benchmark_plant()
    phi_a0, phi_s0 = mode_shape_eval(model, (0.0, 0.0))
    phi_a1, phi_s1 = mode_shape_eval(model, (0.17, 0.02))
    n_rb = model.n_rigid
    assert_allclose(phi_a0[:n_rb, :], np.eye(n_rb), atol=1e-14)
    assert_allclose(phi_a1[:n_rb, :], np.eye(n_rb), atol=1e-14)
    assert_allclose(phi_s0[:, :n_rb], phi_s1[:, :n_rb])


def test_sensor_at_shape_node_reads_zero():
    # Mode (1, 1) vanishes on the workspace edge x = x0; with the sensor
    # offset at the origin and p on that edge the sensed entry is exactly 0.
    model = ModalPlantModel(
        modes=(Mode("rigid", axis="z"), Mode("flex", kx=1, ky=1)),
        masses=np.array([1.0, 1.0]),
        frequencies_hz=np.array([0.0, 100.0]),
        damping=np.array([0.0, 0.01]),
        actuator_xy=np.array([[0.05, 0.05]]),
        sensor_xy=np.array([[0.0, 0.0]]),
        workspace=((0.0, 0.2), (0.0, 0.2)),
    )
    _, phi_s = mode_shape_eval(model, (0.0, 0.1))
    assert phi_s[0, 1] == 0.0


def test_flexible_entries_track_sine_oracle():
    model = benchmark_plant()
    rng = np.random.default_rng(7)
    (x0, x1), (y0, y1) = model.workspace
    lx, ly = x1 - x0, y1 - y0
    for _ in range(5):
        p = rng.uniform([x0, y0], [x1, y1])
        _, phi_s = mode_shape_eval(model, p)
        for k, mode in enumerate(model.modes):
            if mode.kind != "flex":
                continue
            for j, (sx, sy) in enumerate(model.sensor_xy):
                expected = model.flex_sensing_gain
                if mode.kx > 0:
                    expected *= np.sin(mode.kx * np.pi * (sx + p[0] - x0) / lx)
                if mode.ky > 0:
                    expected *= np.sin(mode.ky * np.pi * (sy + p[1] - y0) / ly)
                assert_allclose(phi_s[j, k], expected, rtol=1e-13)


def test_flexible_rows_vary_with_position():
    model = benchmark_plant()
    phi_a0, phi_s0 = mode_shape_eval(model, (0.02, 0.03))
    phi_a1, phi_s1 = mode_shape_eval(model, (0.15, 0.18))
    n_rb = model.n_rigid
    assert np.max(np.abs(phi_a0[n_rb:, :] - phi_a1[n_rb:, :])) > 1e-3
    assert np.max(np.abs(phi_s0[:, n_rb:] - phi_s1[:, n_rb:])) > 1e-3


def test_frozen_realization_rigid_mass():
    model = single_axis_plant(mass=2.0)
    ss = frozen_realization(model, (0.1, 0.1))
    assert ss.n_states == 2
    assert_allclose(ss.a, [[0.0, 1.0], [0.0, 0.0]])
    assert_allclose(ss.b, [[0.0], [0.5]])
    assert_allclose(ss.c, [[1.0, 0.0]])
    assert_allclose(ss.d, [[0.0]])
    assert_allclose(np.linalg.eigvals(ss.a), [0.0, 0.0])


def test_benchmark_first_flexible_eigenpair():
    model = benchmark_plant()
    ss = frozen_realization(model, (0.1, 0.1))
    eig = np.linalg.eigvals(ss.a)
    imag = np.sort(np.abs(eig.imag))
    target = 2.0 * np.pi * 226.5
    # Damped frequency of the lightly damped first plate mode.
    assert np.min(np.abs(imag - target * np.sqrt(1 - 0.02 ** 2))) < 1e-6 * target


def test_frozen_structure_on_grid():
    model = benchmark_plant()
    n_q = model.n_modes
    for px in np.linspace(0.0, 0.2, 5):
        for py in np.linspace(0.0, 0.2, 5):
            ss = frozen_realization(model, (px, py))
            assert_allclose(ss.a[:n_q, :n_q], np.zeros((n_q, n_q)))
            assert_allclose(ss.a[:n_q, n_q:], np.eye(n_q))
            assert_allclose(ss.d, np.zeros((model.n_y, model.n_u)))
            phi_a, phi_s = mode_shape_eval(model, (px, py))
            assert np.linalg.matrix_rank(phi_a) == model.n_u
            assert np.linalg.matrix_rank(phi_s) == model.n_y


def test_point_outside_workspace_rejected():
    model = benchmark_plant()
    with pytest.raises(DomainError):
        mode_shape_eval(model, (0.3, 0.1))
    with pytest.raises(DomainError):
        frozen_realization(model, (0.1, -0.01))
    # Every point of a stack is checked, not just its bounding box corners.
    with pytest.raises(DomainError, match=r"\[0\.1, 0\.25\]"):
        mode_shape_eval(model, np.array([[0.1, 0.1], [0.1, 0.25]]))
    with pytest.raises(DomainError):
        scan_coupling(model, np.array([[0.1, np.nan]]))
    # check_point takes one point or a stack, and names the first outside.
    with pytest.raises(DomainError, match=r"\[0\.3, 0\.1\]"):
        model.check_point([[0.1, 0.1], [0.3, 0.1], [0.1, -0.5]])
    with pytest.raises(DomainError, match=r"\(n, 2\)"):
        model.check_point(np.full((4, 3), 0.1))
    # A verification grid that leaves the workspace fails in resolve.
    spec = DesignSpec(verification_grid=[[0.1, 0.1], [0.1, 0.21]])
    with pytest.raises(DomainError, match=r"\[0\.1, 0\.21\]"):
        spec.resolve(model)


def test_stacked_points_equal_single_points_bitwise():
    """A stack row is the one-point result, whatever the stack's length."""
    model = benchmark_plant()
    rng = np.random.default_rng(17)
    points = np.vstack([rng.uniform(0.0, 0.2, (400, 2)),
                        [[0.0, 0.0], [0.2, 0.2], [0.0, 0.2], [0.2, 0.0]]])
    phi_a, phi_s = mode_shape_eval(model, points)
    coupling = scan_coupling(model, points)
    assert phi_a.shape == (len(points), model.n_modes, model.n_u)
    assert phi_s.shape == (len(points), model.n_y, model.n_modes)
    assert coupling.shape == (len(points), model.n_modes, 2)
    for k, p in enumerate(points):
        one_a, one_s = mode_shape_eval(model, p)
        assert np.array_equal(phi_a[k], one_a)
        assert np.array_equal(phi_s[k], one_s)
        assert np.array_equal(coupling[k], scan_coupling(model, p))
    head_a, head_s = mode_shape_eval(model, points[:37])
    assert np.array_equal(head_a, phi_a[:37])
    assert np.array_equal(head_s, phi_s[:37])
    assert np.array_equal(scan_coupling(model, points[:37]), coupling[:37])


def test_scan_coupling_rigid_rows_zero_flex_nonzero():
    model = benchmark_plant()
    w = scan_coupling(model, (0.07, 0.12))
    assert_allclose(w[: model.n_rigid, :], 0.0)
    assert np.max(np.abs(w[model.n_rigid :, :])) > 0.0


def test_model_validation_errors():
    with pytest.raises(ModelError):
        ModalPlantModel(
            modes=(Mode("rigid", axis="z"),),
            masses=np.array([-1.0]),
            frequencies_hz=np.array([0.0]),
            damping=np.array([0.0]),
            actuator_xy=np.array([[0.0, 0.0]]),
            sensor_xy=np.array([[0.0, 0.0]]),
            workspace=((0.0, 0.2), (0.0, 0.2)),
        )
    with pytest.raises(ModelError):
        # Collinear sensors cannot observe both rotations.
        ModalPlantModel(
            modes=(Mode("rigid", axis="z"), Mode("rigid", axis="rx"), Mode("rigid", axis="ry")),
            masses=np.array([1.0, 1.0, 1.0]),
            frequencies_hz=np.zeros(3),
            damping=np.zeros(3),
            actuator_xy=np.array([[-0.05, -0.05], [0.05, -0.05], [0.05, 0.05], [-0.05, 0.05]]),
            sensor_xy=np.array([[0.0, 0.0], [0.01, 0.0], [0.02, 0.0]]),
            workspace=((0.0, 0.2), (0.0, 0.2)),
        )


def test_json_round_trip(tmp_path):
    model = benchmark_plant()
    path = tmp_path / "plant.json"
    save_plant(model, path)
    loaded = load_plant(path)
    assert loaded.modes == model.modes
    assert_allclose(loaded.masses, model.masses)
    assert_allclose(loaded.actuator_xy, model.actuator_xy)
    assert loaded.workspace == model.workspace
    # Same bytes when re-serialized.
    assert plant_to_dict(loaded) == plant_to_dict(model)


def test_bad_config_raises_config_error(tmp_path):
    with pytest.raises(ConfigError):
        plant_from_dict({"modes": []})
    good = plant_to_dict(benchmark_plant())
    for key in ("masses", "damping", "frequencies_hz"):
        data = json.loads(json.dumps(good))
        data[key][-1] = float("nan")
        with pytest.raises(ConfigError, match=rf"{key}\[5\] must be finite"):
            plant_from_dict(data)
    for value in (float("inf"), True, "0.3"):
        data = json.loads(json.dumps(good))
        data["flex_sensing_gain"] = value
        with pytest.raises(ConfigError, match="flex_sensing_gain must be finite"):
            plant_from_dict(data)
    # Booleans in array fields are not read as numbers.
    for key, value in (("masses", [True] + good["masses"][1:]),
                       ("sensor_xy", [[0.0, True]] + good["sensor_xy"][1:]),
                       ("workspace", {"x": [False, 0.2], "y": [0.0, 0.2]})):
        with pytest.raises(ConfigError, match=key):
            plant_from_dict({**good, key: value})
    modes = [dict(m) for m in good["modes"]]
    modes[-1]["kx"] = True
    with pytest.raises(ConfigError, match="kx"):
        plant_from_dict({**good, "modes": modes})
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_plant(path)


def test_state_space_dimension_checks():
    with pytest.raises(ModelError):
        FrozenStateSpace(np.zeros((2, 2)), np.zeros((3, 1)), np.zeros((1, 2)), np.zeros((1, 1)))
