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

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ConfigError, ModelError

__all__ = [
    "CoefficientSurface",
    "FrozenDesignSet",
    "FitReport",
    "chi_matrix",
    "fit_surface",
    "eval_surface",
    "raw_coefficients",
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
        if self.x_map[1] == 0.0 or self.y_map[1] == 0.0:
            raise ModelError("coordinate map half spans must be nonzero")

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
    merged by accident.
    """

    points: np.ndarray
    values: np.ndarray
    units: str = ""

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.values = np.asarray(self.values, dtype=float).ravel()
        if self.points.ndim != 2 or self.points.shape[1] != 2:
            raise ModelError(f"design points must be (n, 2), got {self.points.shape}")
        if self.points.shape[0] != self.values.size:
            raise ModelError("number of design points and values differ")
        if self.values.size < 1:
            raise ModelError("need at least one design point")
        uniq = np.unique(self.points, axis=0)
        if uniq.shape[0] != self.points.shape[0]:
            raise ModelError("design points must be distinct")

    @property
    def n_designs(self) -> int:
        return self.values.size


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

    # gelsy: QR with column pivoting, deterministic, honest rank estimate.
    theta, _, rank, _ = scipy.linalg.lstsq(a, designs.values,
                                           lapack_driver="gelsy")
    surface.theta = np.asarray(theta, dtype=float)

    residuals = a @ surface.theta - designs.values
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
        condition=float(np.linalg.cond(a)) if min(a.shape) > 0 else np.inf,
    )
    return surface, report


def eval_surface(surface: CoefficientSurface, p):
    """Evaluate a surface at one point (qx, qy) or an (n, 2) array."""
    pts = np.asarray(p, dtype=float)
    single = pts.ndim == 1
    a = chi_matrix(surface.normalize(np.atleast_2d(pts)),
                   surface.order_x, surface.order_y)
    vals = a @ surface.theta
    return float(vals[0]) if single else vals


def raw_coefficients(surface: CoefficientSurface) -> np.ndarray:
    """Coefficients of the surface expressed in raw-coordinate monomials.

    Undoes the [-1, 1] normalization by binomial expansion, so the result
    can be compared directly against a generator polynomial in meters.
    Entry v * order_y + w multiplies qx**v * qy**w.
    """

    def axis_matrix(order, offset, half):
        # Column v holds the raw-monomial coefficients of the normalized
        # power ((q - offset)/half)**v.
        t = np.zeros((order, order))
        for v in range(order):
            for a in range(v + 1):
                t[a, v] = math.comb(v, a) * (-offset) ** (v - a) / half ** v
        return t

    tx = axis_matrix(surface.order_x, *surface.x_map)
    ty = axis_matrix(surface.order_y, *surface.y_map)
    return np.kron(tx, ty) @ surface.theta


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
            order_x=int(data["order_x"]),
            order_y=int(data["order_y"]),
            theta=np.asarray(data["theta"], dtype=float),
            x_map=(float(data["x_map"][0]), float(data["x_map"][1])),
            y_map=(float(data["y_map"][0]), float(data["y_map"][1])),
            units=str(data.get("units", "")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad coefficient surface entry: {exc}") from exc
