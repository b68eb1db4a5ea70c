"""Tests for polynomial coefficient surfaces and their least-squares fits."""

import numpy as np
import pytest

from lpvslc.errors import ModelError
from lpvslc.scheduling import (
    CoefficientSurface,
    FrozenDesignSet,
    chi_matrix,
    eval_surface,
    fit_surface,
    raw_coefficients,
    surface_from_dict,
    surface_to_dict,
)

UNIT_BOUNDS = ((-1.0, 1.0), (-1.0, 1.0))


def chi(p, order_x, order_y):
    """Feature row of one point, through the batched chi_matrix."""
    return chi_matrix(np.array([p], dtype=float), order_x, order_y)[0]


def test_chi_first_order_is_constant():
    np.testing.assert_array_equal(chi((0.7, -4.0), 1, 1), [1.0])


def test_chi_bilinear_expansion():
    np.testing.assert_allclose(chi((2.0, 3.0), 2, 2), [1.0, 3.0, 2.0, 6.0])


def test_chi_mixed_order_expansion():
    np.testing.assert_allclose(chi((2.0, 3.0), 3, 2),
                               [1.0, 3.0, 2.0, 6.0, 4.0, 12.0])


def test_chi_index_contract():
    rng = np.random.default_rng(11)
    qx, qy = rng.uniform(-2, 2, size=2)
    order_x, order_y = 4, 3
    vec = chi((qx, qy), order_x, order_y)
    for v in range(order_x):
        for w in range(order_y):
            assert vec[v * order_y + w] == pytest.approx(qx ** v * qy ** w,
                                                         rel=1e-14)


def test_chi_matrix_rows_match_chi():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, size=(6, 2))
    mat = chi_matrix(pts, 3, 3)
    for row, (qx, qy) in zip(mat, pts):
        expected = [qx ** v * qy ** w for v in range(3) for w in range(3)]
        np.testing.assert_allclose(row, expected, rtol=1e-15)


def test_eval_matches_double_sum_oracle():
    rng = np.random.default_rng(5)
    order_x, order_y = 3, 4
    theta = rng.standard_normal(order_x * order_y)
    surface = CoefficientSurface(order_x, order_y, theta,
                                 x_map=(0.1, 0.1), y_map=(0.1, 0.1))
    for p in rng.uniform(0.0, 0.2, size=(10, 2)):
        xn = (p[0] - 0.1) / 0.1
        yn = (p[1] - 0.1) / 0.1
        expected = 0.0
        for v in range(order_x):
            for w in range(order_y):
                expected += theta[v * order_y + w] * xn ** v * yn ** w
        assert eval_surface(surface, p) == pytest.approx(expected, rel=1e-13)


def test_four_corner_bilinear_interpolation_is_exact():
    corners = np.array([[0.0, 0.0], [0.0, 0.2], [0.2, 0.0], [0.2, 0.2]])
    values = np.array([1.0, -2.0, 4.0, 0.5])
    designs = FrozenDesignSet(corners, values)
    surface, report = fit_surface(designs, 2, 2,
                                  bounds=((0.0, 0.2), (0.0, 0.2)))
    assert report.rank == 4
    assert np.max(np.abs(report.residuals)) <= 1e-12
    fitted = eval_surface(surface, corners)
    np.testing.assert_allclose(fitted, values, rtol=0, atol=1e-12)
    # Bilinearity: the center value is the mean of the corners.
    center = eval_surface(surface, (0.1, 0.1))
    assert center == pytest.approx(values.mean(), abs=1e-12)


def test_planted_biquadratic_recovery_on_3x3_grid():
    rng = np.random.default_rng(17)
    theta_true = rng.standard_normal(9)

    def generator(qx, qy):
        total = 0.0
        for v in range(3):
            for w in range(3):
                total += theta_true[v * 3 + w] * qx ** v * qy ** w
        return total

    g = np.linspace(0.0, 0.2, 3)
    pts = np.array([[x, y] for x in g for y in g])
    vals = np.array([generator(x, y) for x, y in pts])
    surface, report = fit_surface(FrozenDesignSet(pts, vals), 3, 3,
                                  bounds=((0.0, 0.2), (0.0, 0.2)))
    assert report.rank == 9
    recovered = raw_coefficients(surface)
    np.testing.assert_allclose(recovered, theta_true, rtol=0, atol=1e-9)
    # And the surface interpolates the grid data.
    np.testing.assert_allclose(eval_surface(surface, pts), vals,
                               rtol=0, atol=1e-9)


def test_constant_coefficient_gives_leading_theta_only():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-1, 1, size=(12, 2))
    designs = FrozenDesignSet(pts, np.full(12, 3.25))
    surface, _ = fit_surface(designs, 3, 3, bounds=UNIT_BOUNDS)
    expected = np.zeros(9)
    expected[0] = 3.25
    np.testing.assert_allclose(surface.theta, expected, rtol=0, atol=1e-10)


def test_fit_is_affine_equivariant_in_values():
    rng = np.random.default_rng(23)
    pts = rng.uniform(0.0, 0.2, size=(15, 2))
    vals = rng.standard_normal(15)
    c, d = -2.5, 0.75
    base, _ = fit_surface(FrozenDesignSet(pts, vals), 3, 3,
                          bounds=((0.0, 0.2), (0.0, 0.2)))
    scaled, _ = fit_surface(FrozenDesignSet(pts, c * vals + d), 3, 3,
                            bounds=((0.0, 0.2), (0.0, 0.2)))
    expected = c * base.theta
    expected[0] += d
    np.testing.assert_allclose(scaled.theta, expected, rtol=1e-9, atol=1e-11)


def test_report_residuals_match_independent_recompute():
    rng = np.random.default_rng(29)
    pts = rng.uniform(0.0, 0.2, size=(20, 2))
    vals = rng.standard_normal(20)
    surface, report = fit_surface(FrozenDesignSet(pts, vals), 2, 3,
                                  bounds=((0.0, 0.2), (0.0, 0.2)))
    recomputed = eval_surface(surface, pts) - vals
    assert np.max(np.abs(report.residuals - recomputed)) <= 1e-12
    assert report.rms_residual == pytest.approx(
        np.sqrt(np.mean(recomputed ** 2)), rel=1e-12)


def test_rank_deficient_fit_warns_and_uses_minimum_norm():
    # Three collinear points cannot pin down a bilinear surface.
    pts = np.array([[0.0, 0.0], [0.1, 0.1], [0.2, 0.2]])
    vals = np.array([1.0, 2.0, 3.0])
    with pytest.warns(UserWarning, match="rank deficient"):
        surface, report = fit_surface(FrozenDesignSet(pts, vals), 2, 2,
                                      bounds=((0.0, 0.2), (0.0, 0.2)))
    assert report.rank_deficient
    # The data is still reproduced (it is consistent).
    np.testing.assert_allclose(eval_surface(surface, pts), vals,
                               rtol=0, atol=1e-10)


def test_design_set_validation():
    with pytest.raises(ModelError):
        FrozenDesignSet(np.zeros((2, 2)), np.zeros(2))  # duplicate points
    with pytest.raises(ModelError):
        FrozenDesignSet(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ModelError):
        FrozenDesignSet(np.zeros((2, 3)), np.zeros(2))


def test_surface_dict_round_trip():
    rng = np.random.default_rng(31)
    surface = CoefficientSurface(2, 3, rng.standard_normal(6),
                                 x_map=(0.1, 0.1), y_map=(0.05, 0.15),
                                 units="Hz")
    back = surface_from_dict(surface_to_dict(surface))
    np.testing.assert_array_equal(back.theta, surface.theta)
    assert back.x_map == surface.x_map
    assert back.y_map == surface.y_map
    assert back.units == "Hz"
    p = (0.17, 0.02)
    assert eval_surface(back, p) == eval_surface(surface, p)
