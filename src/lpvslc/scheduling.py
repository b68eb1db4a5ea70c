"""Polynomial coefficient surfaces over the planar workspace.

Controller coefficients that vary with stage position (notch frequencies,
damping ratios) are represented as low-order polynomial surfaces in the
planar coordinates (qx, qy).  A surface is a truncated monomial expansion

    value(qx, qy) = sum_v sum_w theta[v, w] * qx**v * qy**w

with exponents v < order_x and w < order_y, stored as a flat coefficient
vector in Kronecker order (x powers outer, y powers inner).  Surfaces are
fitted by linear least squares to a set of frozen local designs, one value
per design position.

Conditioning note: raw meter-valued monomials are nearly collinear over a
0.2 m stroke (qx**2 and qx differ by a near-constant factor), which makes
the regression matrix ill-conditioned from cubic order on.  Coordinates
are therefore affinely mapped to [-1, 1] per axis before expansion and the
map is stored with the surface, so evaluation is self-contained.
"""

from __future__ import annotations

import copy
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ModelError, integral

__all__ = [
    "CoefficientSurface",
    "FrozenDesignSet",
    "FitReport",
    "chi_matrix",
    "fit_surface",
    "eval_surface",
    "surface_to_dict",
    "surface_from_dict",
]


def chi_matrix(points: np.ndarray, order_x: int, order_y: int) -> np.ndarray:
    """Monomial feature rows of an (n, 2) array of points.

    Entry ``v * order_y + w`` of a row equals ``qx**v * qy**w``, i.e. the
    Kronecker product of the x-power vector (outer) with the y-power vector
    (inner).  Points are expanded as given; any normalization is the
    caller's responsibility.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ModelError(f"expected (n, 2) points, got shape {pts.shape}")
    px = pts[:, 0][:, None] ** np.arange(order_x)
    py = pts[:, 1][:, None] ** np.arange(order_y)
    n = pts.shape[0]
    return np.einsum("nv,nw->nvw", px, py).reshape(n, order_x * order_y)


@dataclass
class CoefficientSurface:
    """Polynomial surface for one position-dependent coefficient.

    theta holds the coefficients in the normalized coordinates defined by
    x_map and y_map, each an (offset, half_span) pair mapping a raw
    coordinate q to (q - offset) / half_span.
    """

    order_x: int
    order_y: int
    theta: np.ndarray
    x_map: tuple = (0.0, 1.0)
    y_map: tuple = (0.0, 1.0)
    units: str = ""

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        if self.order_x < 1 or self.order_y < 1:
            raise ModelError("surface orders must be >= 1")
        if self.theta.shape != (self.order_x * self.order_y,):
            raise ModelError(
                f"theta length {self.theta.size} does not match "
                f"order_x*order_y = {self.order_x * self.order_y}"
            )
        if len(self.x_map) != 2 or len(self.y_map) != 2:
            raise ModelError("coordinate maps must be (offset, half_span) pairs")
        if not np.all(np.isfinite([*self.theta, *self.x_map, *self.y_map])) \
                or self.x_map[1] == 0.0 or self.y_map[1] == 0.0:
            raise ModelError("coefficients and coordinate maps must be "
                             "finite, with nonzero half spans")

    def normalize(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        out = np.empty_like(pts)
        out[..., 0] = (pts[..., 0] - self.x_map[0]) / self.x_map[1]
        out[..., 1] = (pts[..., 1] - self.y_map[0]) / self.y_map[1]
        return out


@dataclass
class FrozenDesignSet:
    """Coefficient values extracted from frozen local designs.

    One (position, value) pair per design point, plus the unit string of
    the coefficient so that sets for different coefficients cannot be
    merged by accident.  with_values gives another coefficient's set on
    the same points without checking them again.
    """

    points: np.ndarray
    values: np.ndarray
    units: str = ""

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if self.points.ndim != 2 or self.points.shape[1] != 2:
            raise ModelError(f"design points must be (n, 2), got {self.points.shape}")
        self._set_values(self.values)
        if not np.all(np.isfinite(self.points)):
            raise ModelError("design points and values must be finite")
        uniq = np.unique(self.points, axis=0)
        if uniq.shape[0] != self.points.shape[0]:
            raise ModelError("design points must be distinct")

    def with_values(self, values, units: str = "") -> "FrozenDesignSet":
        """The same points, not checked again, with other values."""
        out = copy.copy(self)
        out.units = units
        out._set_values(values)
        return out

    def _set_values(self, values) -> None:
        values = np.asarray(values, dtype=float).ravel()
        if self.points.shape[0] != values.size:
            raise ModelError("number of design points and values differ")
        if values.size < 1:
            raise ModelError("need at least one design point")
        if not np.all(np.isfinite(values)):
            raise ModelError("design points and values must be finite")
        self.values = values


@dataclass
class FitReport:
    """Diagnostics from a least-squares surface fit."""

    residuals: np.ndarray = field(repr=False)
    rms_residual: float = 0.0
    rank: int = 0
    n_coefficients: int = 0
    condition: float = 0.0

    @property
    def rank_deficient(self) -> bool:
        return self.rank < self.n_coefficients


def _axis_map(lo: float, hi: float) -> tuple:
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    if half == 0.0:
        # Degenerate axis (all designs on a line): shift only.
        half = 1.0
    return (center, half)


def fit_surface(designs: FrozenDesignSet, order_x: int, order_y: int,
                bounds=None):
    """Fit a coefficient surface to frozen design data.

    bounds, when given, is ((x_lo, x_hi), (y_lo, y_hi)) and fixes the
    normalization window (normally the machine workspace); otherwise the
    window is taken from the design points themselves.  Returns the fitted
    surface and a FitReport with per-point residuals, the numerical rank
    of the regression matrix and its condition number.  A rank-deficient
    fit falls back to the minimum-norm solution and emits a warning.
    """
    if bounds is None:
        (x_lo, y_lo) = designs.points.min(axis=0)
        (x_hi, y_hi) = designs.points.max(axis=0)
    else:
        (x_lo, x_hi), (y_lo, y_hi) = bounds
    x_map = _axis_map(float(x_lo), float(x_hi))
    y_map = _axis_map(float(y_lo), float(y_hi))

    surface = CoefficientSurface(
        order_x, order_y, np.zeros(order_x * order_y), x_map, y_map,
        units=designs.units,
    )
    a = chi_matrix(surface.normalize(designs.points), order_x, order_y)

    # One SVD (gelsd) gives the minimum-norm solution, the numerical rank
    # and the singular values for the condition number.
    theta, _, rank, sv = np.linalg.lstsq(a, designs.values, rcond=None)
    surface.theta = theta

    residuals = a @ theta - designs.values
    n_coeff = order_x * order_y
    if rank < n_coeff:
        warnings.warn(
            f"surface fit is rank deficient (rank {rank} < {n_coeff} "
            "coefficients); using the minimum-norm solution",
            stacklevel=2,
        )
    report = FitReport(
        residuals=residuals,
        rms_residual=float(np.sqrt(np.mean(residuals ** 2))),
        rank=int(rank),
        n_coefficients=n_coeff,
        condition=float(sv[0] / sv[-1]) if sv[-1] > 0.0 else np.inf,
    )
    return surface, report


def eval_surface(surface, p):
    """Evaluate a surface at one point (qx, qy) or an (n, 2) array.

    surface may also be a sequence of k surfaces; the result then has one
    row per surface, (k,) at one point and (k, n) on an array.  Surfaces
    that share orders and coordinate maps share one chi_matrix.  Each value
    is a fixed-order sum over the monomials, elementwise across points, so
    it does not depend on how many points or surfaces are evaluated with
    it: a stacked call equals one-point calls bit for bit.
    """
    pts = np.asarray(p, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    one = isinstance(surface, CoefficientSurface)
    surfaces = [surface] if one else list(surface)
    groups: dict = {}
    for r, s in enumerate(surfaces):
        key = (s.order_x, s.order_y, tuple(s.x_map), tuple(s.y_map))
        groups.setdefault(key, []).append(r)
    vals = np.zeros((len(surfaces), pts.shape[0]))
    for rows in groups.values():
        s = surfaces[rows[0]]
        chi = chi_matrix(s.normalize(pts), s.order_x, s.order_y)
        theta = np.stack([surfaces[r].theta for r in rows])
        acc = np.zeros((len(rows), pts.shape[0]))
        for m in range(chi.shape[1]):
            acc += theta[:, m, None] * chi[:, m]
        vals[rows] = acc
    if one:
        return float(vals[0, 0]) if single else vals[0]
    return vals[:, 0] if single else vals


def surface_to_dict(surface: CoefficientSurface) -> dict:
    return {
        "order_x": surface.order_x,
        "order_y": surface.order_y,
        "theta": [float(v) for v in surface.theta],
        "x_map": [float(surface.x_map[0]), float(surface.x_map[1])],
        "y_map": [float(surface.y_map[0]), float(surface.y_map[1])],
        "units": surface.units,
    }


def surface_from_dict(data: dict) -> CoefficientSurface:
    try:
        return CoefficientSurface(
            order_x=integral("order_x", data["order_x"]),
            order_y=integral("order_y", data["order_y"]),
            theta=np.asarray(data["theta"], dtype=float),
            x_map=(float(data["x_map"][0]), float(data["x_map"][1])),
            y_map=(float(data["y_map"][0]), float(data["y_map"][1])),
            units=str(data.get("units", "")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad coefficient surface entry: {exc}") from exc
