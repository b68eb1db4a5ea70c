"""Closed-loop time simulation with scheduled controllers and error metrics.

The simulator integrates the modal plant together with every loop's
controller cascade by classical fixed-step RK4.  Within one step the
scheduling position is frozen: the plant coupling matrices and the
scheduled notch sections are evaluated at the step's start sample and
held, which keeps the dynamics exactly linear inside the step while the
slowly moving stage re-tunes the loop between steps.

Signal flow per step, mirroring the real-time implementation:

    e = r - T_y . y_phys
    u = T_u . (K(e) + u_ff)

with one SISO cascade K per axis loop, frozen at the scheduling position,
and a mass feedforward u_ff on commanded axis motion.  While the stage
scans in-plane, the propulsion force (translational mass times commanded
scan acceleration) leaks into the out-of-plane flexible modes through the
position-dependent shape slopes; that leakage is the disturbance the loops
regulate against, so a scan run excites exactly the resonances the notch
scheduling is meant to handle.  The scheduling signal defaults to the
commanded scan position; a measurement-like variant delays it by one step.

Tracking quality is summarized by the centered moving average (MA) and
moving standard deviation (MSD) of the error over a configurable exposure
window, discretized by the trapezoid rule, plus their arithmetic means
over the motion intervals (acceleration, settling, constant velocity)
derived from the commanded profiles.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _kernels
from .design import ControllerSet
from .errors import ConfigError, ModelError, NumericalError
from .filters import n_states, realize
from .io import dump_csv
from .plant import ModalPlantModel, mode_shape_eval, scan_coupling
# Not called here: perfbench/tracing.py patches lpvslc.sim.eval_surface, so
# the name stays importable from this module.
from .scheduling import eval_surface  # noqa: F401
from .trajectory import MotionBounds, TrajectoryProfile, plan, sample

__all__ = [
    "SimConfig",
    "StageMotion",
    "Interval",
    "SimResult",
    "IntervalMetrics",
    "benchmark_motion",
    "simulate",
    "ma_msd",
    "motion_intervals",
    "interval_metrics",
    "result_summary",
    "compare_runs",
    "compare_summaries",
    "write_result_csv",
    "sim_config_to_dict",
    "sim_config_from_dict",
]

log = logging.getLogger(__name__)

SCHEDULING_SOURCES = ("reference", "measured-delayed")

# Scheduled notch frequencies are clamped just below the Nyquist rate; a
# surface that wanders past it would alias into a nonsense filter.
NOTCH_NYQUIST_FRACTION = 0.97


@dataclass(frozen=True)
class SimConfig:
    """Run parameters for one closed-loop simulation."""

    duration_s: float
    sample_rate_hz: float = 10_000.0
    scheduling_source: str = "reference"
    window_s: float = 0.005
    settling_s: float = 0.02
    feedforward: bool = True
    feedback: bool = True
    backend: str | None = None

    def __post_init__(self):
        for name in ("feedforward", "feedback"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"{name} must be true or false, got "
                                  f"{getattr(self, name)!r}")
        for name in ("duration_s", "sample_rate_hz", "window_s", "settling_s"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)) \
                    or not np.isfinite(value):
                raise ConfigError(f"{name} must be a finite number, got "
                                  f"{value!r}")
        if self.duration_s <= 0.0:
            raise ConfigError("simulation duration must be positive")
        if self.sample_rate_hz <= 0.0:
            raise ConfigError("sample rate must be positive")
        if self.scheduling_source not in SCHEDULING_SOURCES:
            raise ConfigError(
                f"scheduling source must be one of {SCHEDULING_SOURCES}, "
                f"got {self.scheduling_source!r}")
        m = self.window_s * self.sample_rate_hz
        if self.window_s <= 0.0 or abs(m - round(m)) > 1e-6 * max(1.0, m) \
                or round(m) < 1:
            raise ConfigError(
                "exposure window must be a positive multiple of the sample step")
        if self.window_s > self.duration_s:
            raise ConfigError("exposure window does not fit in the run")
        if self.settling_s < 0.0:
            raise ConfigError("settling duration must be nonnegative")

    @property
    def step_s(self) -> float:
        return 1.0 / self.sample_rate_hz

    @property
    def n_steps(self) -> int:
        return int(round(self.duration_s * self.sample_rate_hz))


@dataclass(frozen=True)
class StageMotion:
    """Commanded motion for one run: in-plane scan plus per-loop setpoints.

    start_xy anchors the scheduling position in the workspace; scan_x and
    scan_y displace it along the two in-plane axes.  loop_refs holds one
    profile (or None) per controlled axis loop, in the plant's rigid-axis
    order; missing entries mean a zero setpoint, which is the normal case
    for the out-of-plane loops during a scan.
    """

    start_xy: tuple
    scan_x: TrajectoryProfile | None = None
    scan_y: TrajectoryProfile | None = None
    loop_refs: tuple = ()

    def profiles(self):
        out = [self.scan_x, self.scan_y]
        out.extend(self.loop_refs)
        return [p for p in out if p is not None]


@dataclass(frozen=True)
class Interval:
    name: str
    t_start: float
    t_end: float


@dataclass
class SimResult:
    """Simulation traces on a shared time base, one column per axis loop.

    states holds the integrator state per sample: modal displacements and
    velocities first, then one fixed-width controller block per loop
    (padding slots of short blocks stay exactly zero).  p is the scheduling
    trace actually fed to the controller, so with measured-delayed
    scheduling it lags the commanded position by one step.
    """

    t: np.ndarray
    r: np.ndarray
    y: np.ndarray
    e: np.ndarray
    u: np.ndarray
    p: np.ndarray
    ma: np.ndarray
    msd: np.ndarray
    intervals: tuple
    config: SimConfig
    kind: str
    axis_names: tuple
    states: np.ndarray


def benchmark_motion(sample_rate_hz: float = 10_000.0) -> StageMotion:
    """Standard benchmark scan: a 0.1 m constant-velocity pass along x.

    The pass starts left of the strongest bending-mode coupling zone and
    cruises across it, so the run sweeps the loops through the positions
    where the scheduled notches differ most from their fixed counterparts
    while the out-of-plane loops regulate a zero setpoint.
    """
    bounds = MotionBounds(v_max=0.1, a_max=5.0, j_max=1000.0, s_max=2.0e5)
    return StageMotion(start_xy=(0.05, 0.10),
                       scan_x=plan(0.1, bounds, sample_rate_hz))


def _mask_runs(mask: np.ndarray):
    """Inclusive (first, last) index pairs of each run of True samples."""
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(idx) > 1)
    starts = np.concatenate([[idx[0]], idx[breaks + 1]])
    ends = np.concatenate([idx[breaks], [idx[-1]]])
    return list(zip(starts.tolist(), ends.tolist()))


def motion_intervals(motion: StageMotion, config: SimConfig) -> tuple:
    """Acceleration / settling / constant-velocity markers from the profiles.

    A sample belongs to an acceleration interval when any commanded profile
    accelerates there; each acceleration interval is followed by a settling
    interval of configured length, and what remains of a moving stretch is
    marked constant velocity.  Standstill periods carry no marker.
    """
    n = config.n_steps
    t = np.arange(n + 1) * config.step_s
    profiles = motion.profiles()
    if not profiles:
        return ()

    accel = np.zeros(n + 1, dtype=bool)
    moving = np.zeros(n + 1, dtype=bool)
    for prof in profiles:
        _, vel, acc, _, _ = sample(prof, t)
        a_scale = float(np.max(np.abs(acc)))
        v_scale = float(np.max(np.abs(vel)))
        if a_scale > 0.0:
            accel |= np.abs(acc) > 1e-9 * a_scale
        if v_scale > 0.0:
            moving |= np.abs(vel) > 1e-9 * v_scale

    intervals = []
    settle = np.zeros(n + 1, dtype=bool)
    runs = _mask_runs(accel)
    n_settle = int(round(config.settling_s * config.sample_rate_hz))
    for which, (i0, i1) in enumerate(runs):
        intervals.append(Interval("acceleration", float(t[i0]), float(t[i1])))
        j_end = i1 + n_settle
        if which + 1 < len(runs):
            j_end = min(j_end, runs[which + 1][0])
        j_end = min(j_end, n)
        if j_end > i1:
            intervals.append(Interval("settling", float(t[i1]), float(t[j_end])))
            settle[i1:j_end + 1] = True

    for i0, i1 in _mask_runs(moving & ~accel & ~settle):
        if i1 > i0:
            intervals.append(
                Interval("constant velocity", float(t[i0]), float(t[i1])))
    intervals.sort(key=lambda iv: iv.t_start)
    return tuple(intervals)


def ma_msd(e, window_s: float, sample_rate_hz: float):
    """Centered moving average and moving standard deviation of an error.

    The window [t - T/2, t + T/2] is integrated with the trapezoid rule on
    the sample grid; T must be a positive multiple of the sample step.  For
    an odd multiple the window edges fall halfway between samples and the
    edge contributions use linearly interpolated error values.  Samples
    whose window does not fit inside the series come back as NaN.  Accepts
    a 1-d series or one column per axis.
    """
    arr = np.asarray(e, dtype=float)
    single = arr.ndim == 1
    if single:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ConfigError("error series must be 1-d or (samples, axes)")
    n = arr.shape[0]
    h = 1.0 / sample_rate_hz
    mf = window_s * sample_rate_hz
    m = int(round(mf))
    if window_s <= 0.0 or m < 1 or abs(mf - m) > 1e-6 * max(1.0, mf):
        raise ConfigError(
            "exposure window must be a positive multiple of the sample step")
    if m > n - 1:
        raise ConfigError("exposure window is longer than the series")
    T = m * h

    ma = np.full(arr.shape, np.nan)
    msd = np.full(arr.shape, np.nan)
    # The sliding window itself is a view; the deviation products are
    # evaluated in bounded row blocks so long runs with wide windows do
    # not materialize a samples-by-window matrix all at once.
    step = max(1, int(8_000_000 // (m + 1)))
    for a in range(arr.shape[1]):
        x = arr[:, a]
        if m % 2 == 0:
            hw = m // 2
            win = sliding_window_view(x, m + 1)
            mav = np.empty(win.shape[0])
            var = np.empty(win.shape[0])
            for j in range(0, win.shape[0], step):
                w = win[j:j + step]
                mv = np.trapezoid(w, dx=h, axis=1) / T
                dev = w - mv[:, None]
                mav[j:j + step] = mv
                var[j:j + step] = np.trapezoid(dev * dev, dx=h, axis=1) / T
            ma[hw:n - hw, a] = mav
            msd[hw:n - hw, a] = np.sqrt(np.maximum(var, 0.0))
        else:
            hw = (m - 1) // 2
            count = n - m - 1
            if count < 1:
                raise ConfigError("exposure window is longer than the series")
            inner = sliding_window_view(x, 2 * hw + 1)[1:1 + count]
            mav = np.empty(count)
            var = np.empty(count)
            for j in range(0, count, step):
                sl = slice(j, min(j + step, count))
                w = inner[sl]
                lo, li = x[sl.start:sl.stop], x[sl.start + 1:sl.stop + 1]
                ri = x[m + sl.start:m + sl.stop]
                ro = x[m + 1 + sl.start:m + 1 + sl.stop]
                edge_l = 0.5 * (lo + li)
                edge_r = 0.5 * (ri + ro)
                mv = (np.trapezoid(w, dx=h, axis=1)
                      + 0.25 * h * (edge_l + li)
                      + 0.25 * h * (edge_r + ri)) / T
                dev = w - mv[:, None]
                mav[sl] = mv
                var[sl] = (np.trapezoid(dev * dev, dx=h, axis=1)
                           + 0.25 * h * ((edge_l - mv) ** 2 + (li - mv) ** 2)
                           + 0.25 * h * ((edge_r - mv) ** 2 + (ri - mv) ** 2)) / T
            ma[hw + 1:hw + 1 + count, a] = mav
            msd[hw + 1:hw + 1 + count, a] = np.sqrt(np.maximum(var, 0.0))
    if single:
        return ma[:, 0], msd[:, 0]
    return ma, msd


@dataclass(frozen=True)
class IntervalMetrics:
    """Arithmetic means of |MA| and MSD over one marked interval."""

    name: str
    t_start: float
    t_end: float
    ma_mean: np.ndarray
    msd_mean: np.ndarray

    @property
    def ma_overall(self) -> float:
        return float(np.mean(self.ma_mean))

    @property
    def msd_overall(self) -> float:
        return float(np.mean(self.msd_mean))


def interval_metrics(result: SimResult, intervals=None) -> list:
    """Per-axis mean |MA| and mean MSD over each marked interval.

    Only samples whose exposure window fits inside the run contribute; an
    interval without a single such sample is an error.
    """
    if intervals is None:
        intervals = result.intervals
    out = []
    for iv in intervals:
        mask = ((result.t >= iv.t_start - 1e-12)
                & (result.t <= iv.t_end + 1e-12)
                & np.isfinite(result.ma[:, 0]))
        if not mask.any():
            raise ConfigError(
                f"interval {iv.name!r} [{iv.t_start:.6g}, {iv.t_end:.6g}] s "
                "contains no samples with a full exposure window")
        out.append(IntervalMetrics(
            name=iv.name, t_start=iv.t_start, t_end=iv.t_end,
            ma_mean=np.mean(np.abs(result.ma[mask]), axis=0),
            msd_mean=np.mean(result.msd[mask], axis=0)))
    return out


def _plant_tables(model, p_true, varying, t_u, t_y):
    """Per-sample plant coupling tables for the kernel, /mass included."""
    nt = p_true.shape[0] if varying else 1
    n_q, n_l = model.n_modes, model.n_u
    b_t = np.zeros((nt, n_q, n_l))
    c_t = np.zeros((nt, n_l, n_q))
    bs_t = np.zeros((nt, n_q, 2))
    inv_m = 1.0 / model.masses[:, None]
    for k in range(nt):
        phi_a, phi_s = mode_shape_eval(model, p_true[k])
        b_t[k] = (phi_a @ t_u) * inv_m
        c_t[k] = t_y @ phi_s
        bs_t[k] = scan_coupling(model, p_true[k]) * inv_m
    return b_t, c_t, bs_t, (1 if varying else 0)


def _controller_tables(controllers: ControllerSet, p_sched, varying, f_max):
    """Per-sample state-space tables of every loop cascade.

    Each cascade is realized once on the scheduling trace, with its
    scheduled notches frozen per sample (see filters.freeze_notches, which
    clamps and logs), and zero-padded to the common block width nc.
    """
    loops = controllers.loops
    nc = max(max(n_states(c) for c in loops), 1)
    scheduled = any(len(c.scheduled_part) > 0 for c in loops)
    sc = 1 if (scheduled and varying) else 0
    nt = p_sched.shape[0] if sc else 1

    n_l = len(loops)
    ac_t = np.zeros((nt, n_l, nc, nc))
    bc_t = np.zeros((nt, n_l, nc))
    cc_t = np.zeros((nt, n_l, nc))
    dc_t = np.zeros((nt, n_l))
    for i, cascade in enumerate(loops):
        ss = realize(cascade, p_sched[:nt], f_max)
        ns = ss.n_states
        ac_t[:, i, :ns, :ns] = ss.a
        bc_t[:, i, :ns] = ss.b[..., 0]
        cc_t[:, i, :ns] = ss.c[..., 0, :]
        dc_t[:, i] = ss.d[..., 0, 0]
    return ac_t, bc_t, cc_t, dc_t, sc, nc


def _half_grid_inputs(model, motion, config, rigid_masses, n_l):
    """References, axis feedforward, and propulsion force on the half grid."""
    n = config.n_steps
    t_h = np.arange(2 * n + 1) * (0.5 * config.step_s)
    r_h = np.zeros((t_h.size, n_l))
    uff_h = np.zeros((t_h.size, n_l))
    fsc_h = np.zeros((t_h.size, 2))
    for i, prof in enumerate(motion.loop_refs):
        if prof is None:
            continue
        pos, _, acc, _, _ = sample(prof, t_h)
        r_h[:, i] = pos
        if config.feedforward:
            uff_h[:, i] = rigid_masses[i] * acc
    # The propulsion force moving the stage in-plane is always part of the
    # physics of a scan; the feedforward switch only governs the axis-level
    # inertia compensation above.  The first rigid mode is the translation
    # whose inertia the propulsion must overcome.
    for col, prof in enumerate((motion.scan_x, motion.scan_y)):
        if prof is not None:
            fsc_h[:, col] = rigid_masses[0] * sample(prof, t_h)[2]
    return r_h, uff_h, fsc_h


def simulate(model: ModalPlantModel, controllers: ControllerSet,
             motion: StageMotion, config: SimConfig,
             certification=None, x0_plant=None) -> SimResult:
    """Run one closed-loop simulation and evaluate its error metrics.

    certification is the report from the frozen-position verification; a
    missing or failed report logs a warning but does not block the run.
    x0_plant optionally sets the modal displacement/velocity initial state
    (a flat array of 2 x n_modes); controller states always start at zero.
    A state norm beyond the divergence limit aborts with a diagnosis.
    """
    n_l = controllers.n_loops
    if n_l != model.n_u:
        raise ModelError(
            f"controller set has {n_l} loops for a plant with {model.n_u} axes")
    f_top = float(np.max(model.frequencies_hz))
    if config.sample_rate_hz <= 2.0 * f_top:
        raise ConfigError(
            f"sample rate {config.sample_rate_hz:g} Hz must exceed twice the "
            f"highest plant mode frequency ({f_top:g} Hz)")
    for prof in motion.profiles():
        ratio = config.sample_rate_hz / prof.sample_rate_hz
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ConfigError(
                "simulation rate must be an integer multiple of each "
                "profile's planning grid so segment boundaries stay on "
                "integration steps")
    if len(motion.loop_refs) > n_l:
        raise ConfigError(
            f"got {len(motion.loop_refs)} loop reference profiles for "
            f"{n_l} loops")
    if certification is None:
        log.warning("simulating %s controller set without a certification "
                    "report", controllers.kind)
    elif not certification.passed:
        log.warning("certification report for the %s controller set did not "
                    "pass; simulating anyway", controllers.kind)

    n = config.n_steps
    if n < 1:
        raise ConfigError("run is shorter than one sample step")
    h = config.step_s
    t = np.arange(n + 1) * h

    p_true = np.tile(np.asarray(motion.start_xy, dtype=float), (n + 1, 1))
    if p_true.shape != (n + 1, 2):
        raise ConfigError("start_xy must be a single (x, y) point")
    for col, prof in enumerate((motion.scan_x, motion.scan_y)):
        if prof is not None:
            p_true[:, col] += sample(prof, t)[0]
    model.check_point(p_true.min(axis=0))
    model.check_point(p_true.max(axis=0))
    varying = bool(np.any(p_true != p_true[0]))
    if config.scheduling_source == "measured-delayed":
        p_sched = np.vstack([p_true[:1], p_true[:-1]])
    else:
        p_sched = p_true

    t_u = np.ascontiguousarray(controllers.t_u, dtype=float)
    t_y = np.ascontiguousarray(controllers.t_y, dtype=float)
    b_t, c_t, bs_t, sp = _plant_tables(model, p_true, varying, t_u, t_y)
    ac_t, bc_t, cc_t, dc_t, sc, nc = _controller_tables(
        controllers, p_sched, varying,
        f_max=NOTCH_NYQUIST_FRACTION * 0.5 * config.sample_rate_hz)

    rigid_idx = [k for k, mode in enumerate(model.modes) if mode.kind == "rigid"]
    rigid_masses = model.masses[rigid_idx]
    axis_names = tuple(model.modes[k].axis or f"loop{j}"
                       for j, k in enumerate(rigid_idx))
    r_h, uff_h, fsc_h = _half_grid_inputs(model, motion, config,
                                          rigid_masses, n_l)

    n_q = model.n_modes
    omega = 2.0 * np.pi * model.frequencies_hz
    km = omega ** 2
    dm = 2.0 * model.damping * omega
    nx = 2 * n_q + n_l * nc
    x0 = np.zeros(nx)
    if x0_plant is not None:
        x0_plant = np.asarray(x0_plant, dtype=float).ravel()
        if x0_plant.size != 2 * n_q:
            raise ConfigError(
                f"initial plant state must have {2 * n_q} entries")
        x0[:2 * n_q] = x0_plant

    y_t = np.zeros((n + 1, n_l))
    u_t = np.zeros((n + 1, n_l))
    x_t = np.zeros((n + 1, nx))
    kernel = _kernels.get_backend(config.backend)
    status = kernel(n, h, n_q, n_l, km, dm, b_t, c_t, bs_t, sp,
                    ac_t, bc_t, cc_t, dc_t, sc,
                    r_h, uff_h, fsc_h,
                    1.0 if config.feedback else 0.0, t_u,
                    x0, y_t, u_t, x_t)
    if status >= 0:
        raise NumericalError(
            f"state norm exceeded {_kernels.DIVERGENCE_LIMIT:g} at "
            f"t = {status * h:.6g} s (step {status} of {n}): the closed loop "
            "is unstable at this operating point or the inputs are "
            "inconsistent")

    r = np.ascontiguousarray(r_h[::2])
    e = r - y_t
    ma, msd = ma_msd(e, config.window_s, config.sample_rate_hz)
    return SimResult(
        t=t, r=r, y=y_t, e=e, u=u_t, p=p_sched.copy(), ma=ma, msd=msd,
        intervals=motion_intervals(motion, config), config=config,
        kind=controllers.kind, axis_names=axis_names, states=x_t)


def _pick_interval(result: SimResult, name: str) -> IntervalMetrics:
    """Metrics of the longest marked interval with the given name."""
    chosen = [iv for iv in result.intervals if iv.name == name]
    if not chosen:
        raise ConfigError(
            f"run has no {name!r} interval; markers: "
            f"{sorted({iv.name for iv in result.intervals})}")
    chosen.sort(key=lambda iv: iv.t_end - iv.t_start)
    return interval_metrics(result, [chosen[-1]])[0]


def sim_config_to_dict(config: SimConfig) -> dict:
    return {
        "duration_s": config.duration_s,
        "sample_rate_hz": config.sample_rate_hz,
        "scheduling_source": config.scheduling_source,
        "window_s": config.window_s,
        "settling_s": config.settling_s,
        "feedforward": config.feedforward,
        "feedback": config.feedback,
    }


def sim_config_from_dict(data: dict) -> SimConfig:
    known = {"duration_s", "sample_rate_hz", "scheduling_source", "window_s",
             "settling_s", "feedforward", "feedback", "backend"}
    extra = set(data) - known
    if extra:
        raise ConfigError(f"unknown simulation config fields: {sorted(extra)}")
    if "duration_s" not in data:
        raise ConfigError("simulation config needs duration_s")
    return SimConfig(**data)


def result_summary(result: SimResult,
                   interval_name: str = "constant velocity") -> dict:
    """JSON-ready digest of one run: interval metrics plus the config echo."""
    metrics = _pick_interval(result, interval_name)
    per_axis = {name: {"ma_m": float(metrics.ma_mean[i]),
                       "msd_m": float(metrics.msd_mean[i])}
                for i, name in enumerate(result.axis_names)}
    return {
        "kind": result.kind,
        "interval": {"name": metrics.name,
                     "t_start_s": metrics.t_start,
                     "t_end_s": metrics.t_end},
        "ma_m": metrics.ma_overall,
        "msd_m": metrics.msd_overall,
        "per_axis": per_axis,
        "config": sim_config_to_dict(result.config),
    }


def _reduction_pct(base: float, new: float) -> float:
    if base == 0.0:
        return 0.0
    return 100.0 * (1.0 - new / base)


def compare_summaries(base: dict, cand: dict, labels=None) -> dict:
    """Combine two run digests (see result_summary) into a comparison table.

    The reduction is quoted against the baseline, whose own reduction row
    is zero; a zero baseline metric reports 0% rather than dividing.
    """
    base = dict(base)
    cand = dict(cand)
    if labels is None:
        labels = [base.get("kind", "baseline"), cand.get("kind", "candidate")]
        if labels[0] == labels[1]:
            labels[1] = labels[1] + "_2"
    base["label"] = labels[0]
    cand["label"] = labels[1]
    base["reduction_pct"] = {"ma": 0.0, "msd": 0.0}
    cand["reduction_pct"] = {
        "ma": _reduction_pct(base["ma_m"], cand["ma_m"]),
        "msd": _reduction_pct(base["msd_m"], cand["msd_m"]),
    }
    return {
        "interval": base["interval"]["name"],
        "window_s": base["config"]["window_s"],
        "controllers": [base, cand],
    }


def compare_runs(baseline: SimResult, candidate: SimResult,
                 interval_name: str = "constant velocity",
                 labels=None) -> dict:
    """Side-by-side interval metrics with the candidate's relative reduction.

    Both runs must mark an interval with the given name.
    """
    return compare_summaries(result_summary(baseline, interval_name),
                             result_summary(candidate, interval_name),
                             labels=labels)


def write_result_csv(path, result: SimResult) -> None:
    """One row per sample: time, scheduling trace, then per-axis signals."""
    header = ["t", "p_x", "p_y"]
    cols = [result.t, result.p[:, 0], result.p[:, 1]]
    for i, name in enumerate(result.axis_names):
        for tag, series in (("r", result.r), ("y", result.y),
                            ("e", result.e), ("u", result.u),
                            ("ma", result.ma), ("msd", result.msd)):
            header.append(f"{tag}_{name}")
            cols.append(series[:, i])
    dump_csv(path, header, cols)
