"""Modal plant models of planar motion stages with position-dependent actuation
and sensing.

The moving body is described by a diagonal modal model

    M qdd + D qd + K q = Phi_a(p) u,      y = Phi_s(p) q

where q stacks rigid-body coordinates (vertical translation z and the two
out-of-plane rotations rx, ry) followed by flexible plate modes. The in-plane
stage position p = (px, py) enters only through the input and output matrices:
force actuators and position sensors sample the flexible mode shapes at
locations that shift with p, so the apparent resonance dynamics change over
the workspace while the modal frequencies themselves stay fixed.

Flexible mode shapes are separable sine patterns over the workspace box,

    psi_k(x, y) = sin(kx pi (x - x0) / Lx) * sin(ky pi (y - y0) / Ly)

with a wavenumber of zero meaning a uniform (position-independent) factor.
Rigid-body rows use constant lever arms in the mover frame, so the rigid part
of the model does not depend on p.

Frozen realizations at constant p give standard LTI state space matrices

    A = [[0, I], [-inv(M) K, -inv(M) D]],  B = [[0], [inv(M) Phi_a(p)]],
    C = [Phi_s(p), 0],                     D = 0

with state [q; qd], used for frequency responses and closed-loop eigenvalue
checks elsewhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ModelError, listof, real, reals, record, tagged, text
from .io import dump_json, load_from

__all__ = [
    "Mode",
    "ModalPlantModel",
    "FrozenStateSpace",
    "mode_shape_eval",
    "frozen_realization",
    "scan_coupling",
    "benchmark_plant",
    "plant_from_dict",
    "plant_to_dict",
    "load_plant",
    "save_plant",
]

RIGID_AXES = ("z", "rx", "ry")


@dataclass(frozen=True)
class Mode:
    """One modal coordinate: a rigid-body axis or a flexible plate mode.

    Rigid modes carry an axis label from RIGID_AXES. Flexible modes carry
    sine wavenumbers (kx, ky); wavenumber 0 means a uniform shape factor.
    Wavenumbers need not be integers: a plate clamped outside the scan
    area has shape nodes that generally do not coincide with the workspace
    box edges, which a fractional wavenumber captures.
    """

    kind: str  # "rigid" | "flex"
    axis: str = ""
    kx: float = 0.0
    ky: float = 0.0

    def __post_init__(self):
        if self.kind == "rigid":
            if self.axis not in RIGID_AXES:
                raise ModelError(f"unknown rigid axis {self.axis!r}")
        elif self.kind == "flex":
            if self.kx < 0 or self.ky < 0:
                raise ModelError("flex mode wavenumbers must be >= 0")
        else:
            raise ModelError(f"unknown mode kind {self.kind!r}")


@dataclass
class ModalPlantModel:
    """Parametric modal model over a rectangular workspace.

    masses are modal masses (kg or kg m^2 for rotations; flexible modes are
    mass-normalized to 1). frequencies_hz holds 0 for rigid modes. Actuator
    and sensor coordinates are mover-frame offsets in meters; the flexible
    shape factors are evaluated at (offset + p).
    """

    modes: tuple[Mode, ...]
    masses: np.ndarray
    frequencies_hz: np.ndarray
    damping: np.ndarray
    actuator_xy: np.ndarray  # (n_act, 2)
    sensor_xy: np.ndarray  # (n_y, 2)
    workspace: tuple[tuple[float, float], tuple[float, float]]
    flex_actuation_gain: float = 1.0
    flex_sensing_gain: float = 1.0
    scan_crosstalk_gain: float = 0.0
    _alloc: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.modes = tuple(self.modes)
        self.masses = np.asarray(self.masses, dtype=float)
        self.frequencies_hz = np.asarray(self.frequencies_hz, dtype=float)
        self.damping = np.asarray(self.damping, dtype=float)
        self.actuator_xy = np.asarray(self.actuator_xy, dtype=float)
        self.sensor_xy = np.asarray(self.sensor_xy, dtype=float)

        for name in ("masses", "frequencies_hz", "damping", "actuator_xy",
                     "sensor_xy", "workspace", "flex_actuation_gain",
                     "flex_sensing_gain", "scan_crosstalk_gain"):
            if not np.all(np.isfinite(np.asarray(getattr(self, name), float))):
                raise ModelError(f"{name} must be finite")
        n_q = len(self.modes)
        if not (len(self.masses) == len(self.frequencies_hz) == len(self.damping) == n_q):
            raise ModelError("masses, frequencies_hz, damping must match the mode count")
        if np.any(self.masses <= 0.0):
            raise ModelError("modal masses must be positive")
        for mode, f in zip(self.modes, self.frequencies_hz):
            if mode.kind == "rigid" and f != 0.0:
                raise ModelError("rigid modes must have zero natural frequency")
            if mode.kind == "flex" and f <= 0.0:
                raise ModelError("flexible modes must have positive natural frequency")
        if np.any(self.damping < 0.0):
            raise ModelError("damping ratios must be >= 0")
        if self.actuator_xy.ndim != 2 or self.actuator_xy.shape[1] != 2:
            raise ModelError("actuator_xy must be (n_act, 2)")
        if self.sensor_xy.ndim != 2 or self.sensor_xy.shape[1] != 2:
            raise ModelError("sensor_xy must be (n_y, 2)")

        (x0, x1), (y0, y1) = self.workspace
        if not (x1 > x0 and y1 > y0):
            raise ModelError("workspace box must have positive extent")
        self.workspace = ((float(x0), float(x1)), (float(y0), float(y1)))

        rigid = [m for m in self.modes if m.kind == "rigid"]
        if [m.axis for m in rigid] != list(RIGID_AXES[: len(rigid)]):
            raise ModelError(f"rigid modes must come first, ordered {RIGID_AXES[:len(rigid)]}")
        if len(rigid) == 0:
            raise ModelError("at least one rigid mode is required")
        if self.sensor_xy.shape[0] != len(rigid):
            raise ModelError("sensor count must equal the number of rigid modes")
        if self.actuator_xy.shape[0] < len(rigid):
            raise ModelError("need at least as many actuators as rigid modes")

        # Force allocation: right inverse of the rigid lever map, so the
        # model input is n_rb generalized axis forces and the rigid block of
        # Phi_a is exactly the identity at every p.
        lever = self._rigid_lever_rows(self.actuator_xy)
        if np.linalg.matrix_rank(lever) < lever.shape[0]:
            raise ModelError("actuator layout cannot span the rigid axes")
        self._alloc = np.linalg.pinv(lever)

        rigid_sense = self._rigid_lever_rows(self.sensor_xy).T
        if abs(np.linalg.det(rigid_sense)) < 1e-12:
            raise ModelError("sensor layout cannot observe the rigid axes (collinear sensors)")

    def _rigid_lever_rows(self, xy: np.ndarray) -> np.ndarray:
        """Rows (z, rx, ry) of vertical-force lever arms at mover-frame points xy."""
        n_rb = self.n_rigid
        rows = np.zeros((n_rb, xy.shape[0]))
        for k, mode in enumerate(m for m in self.modes if m.kind == "rigid"):
            if mode.axis == "z":
                rows[k] = 1.0
            elif mode.axis == "rx":
                rows[k] = xy[:, 1]
            elif mode.axis == "ry":
                rows[k] = -xy[:, 0]
        return rows

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    @property
    def n_rigid(self) -> int:
        return sum(1 for m in self.modes if m.kind == "rigid")

    @property
    def n_u(self) -> int:
        return self.n_rigid

    @property
    def n_y(self) -> int:
        return self.sensor_xy.shape[0]

    def check_point(self, p) -> np.ndarray:
        """p as a float array, one point (2,) or an (n, 2) stack; DomainError
        naming the first point outside the workspace."""
        p = np.asarray(p, dtype=float)
        if p.ndim not in (1, 2) or p.shape[-1] != 2:
            raise DomainError(f"scheduling points must be (2,) or (n, 2), got {p.shape}")
        pts = p.reshape(-1, 2)
        (x0, x1), (y0, y1) = self.workspace
        inside = (x0 <= pts[:, 0]) & (pts[:, 0] <= x1) & (y0 <= pts[:, 1]) & (pts[:, 1] <= y1)
        if not inside.all():
            bad = pts[np.argmin(inside)]
            raise DomainError(f"scheduling point {bad.tolist()} outside workspace {self.workspace}")
        return p


@dataclass
class FrozenStateSpace:
    """LTI realization (A, B, C, D) of a plant or filter at one operating point.

    The matrices may carry leading batch axes: a stack of realizations of
    equal size, one per operating point.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        self.a = np.atleast_2d(np.asarray(self.a, dtype=float))
        self.b = np.atleast_2d(np.asarray(self.b, dtype=float))
        self.c = np.atleast_2d(np.asarray(self.c, dtype=float))
        self.d = np.atleast_2d(np.asarray(self.d, dtype=float))
        n = self.a.shape[-1]
        if self.a.shape[-2:] != (n, n) or self.b.shape[-2] != n \
                or self.c.shape[-1] != n:
            raise ModelError("inconsistent state-space dimensions")
        if self.d.shape[-2:] != (self.c.shape[-2], self.b.shape[-1]):
            raise ModelError("inconsistent feedthrough dimensions")

    @property
    def n_states(self) -> int:
        return self.a.shape[-1]


def _sine_factors(model: ModalPlantModel, mode: Mode, xy: np.ndarray,
                  slope: bool = False) -> list:
    """The factors of psi along x and along y at absolute coordinates xy
    (n, 2), each as a pair (factor, derivative), the derivative None
    without slope.  A wavenumber of zero gives a factor of one and a
    derivative of zero."""
    out = []
    for k, u, (lo, hi) in zip((mode.kx, mode.ky), xy.T, model.workspace):
        if k == 0:
            out.append((np.ones(u.size), np.zeros(u.size) if slope else None))
            continue
        arg = k * np.pi * (u - lo) / (hi - lo)
        out.append((np.sin(arg),
                    (k * np.pi / (hi - lo)) * np.cos(arg) if slope else None))
    return out


def mode_shape_eval(model: ModalPlantModel, p) -> tuple[np.ndarray, np.ndarray]:
    """Input and output matrices (Phi_a, Phi_s) at scheduling point p.

    Phi_a is (n_q, n_u) with an identity rigid block (axis forces are already
    allocated over the physical actuators); Phi_s is (n_y, n_q). Flexible
    entries sample the sine shapes at actuator and sensor offsets shifted
    by p, scaled by the configured coupling gains.

    An (n, 2) stack of points gives (n, n_q, n_u) and (n, n_y, n_q) stacks.
    Each entry of a stack is computed alone, with the arithmetic of a
    single point, so it does not depend on the other rows.
    """
    p = model.check_point(p)
    pts = p.reshape(-1, 2)
    n = pts.shape[0]
    n_q, n_u, n_y = model.n_modes, model.n_u, model.n_y
    phi_a = np.zeros((n, n_q, n_u))
    phi_s = np.zeros((n, n_y, n_q))

    act_xy = (model.actuator_xy + pts[:, None, :]).reshape(-1, 2)
    sen_xy = (model.sensor_xy + pts[:, None, :]).reshape(-1, 2)
    rigid_rows = model._rigid_lever_rows(model.sensor_xy)
    k_rigid = 0
    for k, mode in enumerate(model.modes):
        if mode.kind == "rigid":
            phi_a[:, k, k_rigid] = 1.0
            phi_s[:, :, k] = rigid_rows[k_rigid]
            k_rigid += 1
        else:
            (sx, _), (sy, _) = _sine_factors(model, mode, act_xy)
            # One vector-matrix product per point, as for a single point.
            psi_act = (sx * sy).reshape(n, 1, -1)
            phi_a[:, k, :] = model.flex_actuation_gain * (psi_act @ model._alloc)[:, 0]
            (sx, _), (sy, _) = _sine_factors(model, mode, sen_xy)
            phi_s[:, :, k] = model.flex_sensing_gain * (sx * sy).reshape(n, n_y)
    return (phi_a, phi_s) if p.ndim == 2 else (phi_a[0], phi_s[0])


def scan_coupling(model: ModalPlantModel, p) -> np.ndarray:
    """Map (n_q, 2) from in-plane propulsion force (Fx, Fy) to modal forces.

    Propulsion forces for the scan motion are carried by the same actuators
    and leak into the out-of-plane flexible modes in proportion to the local
    shape slope. Rigid rows are zero: a net rigid crosstalk would be a static
    load the feedback trivially rejects, while the flexible leakage is what
    excites the resonances during acceleration.

    An (n, 2) stack of points gives an (n, n_q, 2) stack, row by row as for
    a single point.
    """
    p = model.check_point(p)
    pts = p.reshape(-1, 2)
    n = pts.shape[0]
    out = np.zeros((n, model.n_modes, 2))
    if model.scan_crosstalk_gain != 0.0:
        # Equal force split over the physical actuators.
        n_act = model.actuator_xy.shape[0]
        share = 1.0 / n_act
        act_xy = (model.actuator_xy + pts[:, None, :]).reshape(-1, 2)
        for k, mode in enumerate(model.modes):
            if mode.kind != "flex":
                continue
            (sx, dsx), (sy, dsy) = _sine_factors(model, mode, act_xy, slope=True)
            slopes = np.stack([dsx * sy, sx * dsy], axis=1).reshape(n, n_act, 2)
            out[:, k, :] = model.scan_crosstalk_gain * share * slopes.sum(axis=1)
    return out if p.ndim == 2 else out[0]


def frozen_realization(model: ModalPlantModel, p) -> FrozenStateSpace:
    """LTI state space of the plant frozen at a point or an (n, 2) grid: a
    grid shares A and stacks B, C and D, each row the one-point realization."""
    phi_a, phi_s = mode_shape_eval(model, p)
    n_q = model.n_modes
    omega = 2.0 * np.pi * model.frequencies_hz
    k_diag = model.masses * omega ** 2
    d_diag = 2.0 * model.masses * model.damping * omega

    a = np.zeros((2 * n_q, 2 * n_q))
    a[:n_q, n_q:] = np.eye(n_q)
    a[n_q:, :n_q] = np.diag(-k_diag / model.masses)
    a[n_q:, n_q:] = np.diag(-d_diag / model.masses)
    b = np.concatenate([np.zeros_like(phi_a), phi_a / model.masses[:, None]], axis=-2)
    c = np.concatenate([phi_s, np.zeros_like(phi_s)], axis=-1)
    d = np.zeros(phi_s.shape[:-1] + (model.n_u,))
    return FrozenStateSpace(a, b, c, d)


def benchmark_plant() -> ModalPlantModel:
    """Surrogate stage used across the test and benchmark suite.

    A 10 kg mover (0.1 kg m^2 inertia about both in-plane axes) over a
    0.2 m x 0.2 m workspace, with four corner actuators, three non-collinear
    vertical sensors, and three flexible modes whose visibility shifts
    strongly with stage position: a drum-like plate mode plus two beam-like
    bending modes, one along each axis. The fractional wavenumbers put the
    shape nodes off the workspace box edges (the physical plate is clamped
    outside the scan area), so each mode's severity bump sits in a
    different workspace region, and the coupling gains are calibrated so
    resonance peaks top out around 25 to 30 dB above the rigid line at
    their worst positions while nearly vanishing at the mildest ones.
    """
    modes = (
        Mode("rigid", axis="z"),
        Mode("rigid", axis="rx"),
        Mode("rigid", axis="ry"),
        Mode("flex", kx=0.9, ky=0.9),
        Mode("flex", kx=1.05, ky=0.0),
        Mode("flex", kx=0.0, ky=0.9),
    )
    return ModalPlantModel(
        modes=modes,
        masses=np.array([10.0, 0.1, 0.1, 1.0, 1.0, 1.0]),
        frequencies_hz=np.array([0.0, 0.0, 0.0, 226.5, 480.0, 710.0]),
        damping=np.array([0.0, 0.0, 0.0, 0.02, 0.02, 0.02]),
        actuator_xy=np.array([[-0.06, -0.06], [0.06, -0.06], [0.06, 0.06], [-0.06, 0.06]]),
        sensor_xy=np.array([[0.0, 0.05], [-0.05, -0.04], [0.05, -0.03]]),
        workspace=((0.0, 0.2), (0.0, 0.2)),
        flex_actuation_gain=0.3,
        flex_sensing_gain=0.2,
        scan_crosstalk_gain=0.05,
    )


def plant_to_dict(model: ModalPlantModel) -> dict:
    modes = []
    for m in model.modes:
        if m.kind == "rigid":
            modes.append({"kind": "rigid", "axis": m.axis})
        else:
            modes.append({"kind": "flex", "kx": m.kx, "ky": m.ky})
    return {
        "modes": modes,
        "masses": model.masses.tolist(),
        "frequencies_hz": model.frequencies_hz.tolist(),
        "damping": model.damping.tolist(),
        "actuator_xy": model.actuator_xy.tolist(),
        "sensor_xy": model.sensor_xy.tolist(),
        "workspace": {"x": list(model.workspace[0]), "y": list(model.workspace[1])},
        "flex_actuation_gain": model.flex_actuation_gain,
        "flex_sensing_gain": model.flex_sensing_gain,
        "scan_crosstalk_gain": model.scan_crosstalk_gain,
    }


def _read_mode(key: str, data) -> Mode:
    return Mode(**tagged(key, data, "kind", {"rigid": {"axis": text},
                                             "flex": {"kx": real, "ky": real}}))


def _read_workspace(key: str, data) -> tuple:
    return tuple(record(key, data, dict.fromkeys("xy", listof(real, 2))).values())


_PLANT_FIELDS = {
    "modes": listof(_read_mode),
    **dict.fromkeys(("masses", "frequencies_hz", "damping"), listof(real)),
    **dict.fromkeys(("actuator_xy", "sensor_xy"), reals),
    "workspace": _read_workspace,
    **dict.fromkeys(("flex_actuation_gain", "flex_sensing_gain"), (real, 1.0)),
    "scan_crosstalk_gain": (real, 0.0),
}


def plant_from_dict(data: dict) -> ModalPlantModel:
    return ModalPlantModel(**record("plant", data, _PLANT_FIELDS))


def load_plant(path) -> ModalPlantModel:
    return load_from(path, plant_from_dict)


def save_plant(model: ModalPlantModel, path) -> None:
    dump_json(plant_to_dict(model), path)
