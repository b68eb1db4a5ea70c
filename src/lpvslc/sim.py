"""Closed-loop time simulation with scheduled controllers and error metrics.

The simulator integrates the modal plant together with every loop's
controller cascade by classical fixed-step RK4.  Within one step the
scheduling position is frozen: the plant coupling matrices and the
scheduled notch sections are evaluated at the step's start sample and
held, which keeps the dynamics exactly linear inside the step while the
slowly moving stage re-tunes the loop between steps.

The run is computed in three batched stages.  First the tables: the
closed loop's plant side along the position trace, built by
design._closed_loop_plant as certification builds it, and the scan
coupling (one stacked call each to mode_shape_eval and scan_coupling),
every loop cascade realized once along the scheduling trace, its
scheduled notches frozen in one call, and one table of the inputs
w = [r, u_ff, f_scan] on the half-step grid that the RK4 stages need.
Then, in blocks of ASSEMBLY_BLOCK steps, the assembled closed loop
x' = A_k x + G_k w of plant, axis transforms and controllers:
design.close_loops writes the state matrix A_k and the r and u_ff columns
of the input map G_k, as it does for certification, and the simulator
adds only the f_scan columns and folds G_k w at the step's start,
midpoint and end into g_k.  A_k and G_k live in the plant side's frame,
one block each for the whole run.  The kernel (_kernels) then runs RK4
on x' = A_k x + g, four matrix-vector products per step, and checks the
state norm once per block, naming the first step that left the trusted
range.  Outputs, errors and actuation are evaluated afterwards
from the state trace.  Every row of every table is computed on its own,
so a short run is a bitwise prefix of a longer one.

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
window, discretized by the trapezoid rule; result_summary takes their means
per axis and overall over one of the motion intervals (acceleration,
settling, constant velocity) derived from the commanded profiles.
"""

from __future__ import annotations

import logging
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _kernels
from .design import (ControllerSet, _ClosedLoopPlant, _closed_loop_plant,
                     close_loops)
from .errors import (ConfigError, NumericalError, boolean, positive, real,
                     reals, record)
from .filters import n_states, realize
from .io import dump_csv
from .plant import (
    FrozenStateSpace,
    ModalPlantModel,
    mode_shape_eval,
    scan_coupling,
)
# Not called here: perfbench/tracing.py patches lpvslc.sim.eval_surface, so
# the name stays importable from this module.
from .scheduling import eval_surface  # noqa: F401
from .trajectory import MotionBounds, TrajectoryProfile, plan, sample

__all__ = [
    "SimConfig",
    "StageMotion",
    "Interval",
    "SimResult",
    "benchmark_motion",
    "simulate",
    "ma_msd",
    "result_summary",
    "compare_runs",
    "compare_summaries",
    "write_result_csv",
    "sim_config_from_dict",
]

log = logging.getLogger(__name__)

SCHEDULING_SOURCES = ("reference", "measured-delayed")

# Scheduled notch frequencies are clamped just below the Nyquist rate; a
# surface that wanders past it would alias into a nonsense filter.
NOTCH_NYQUIST_FRACTION = 0.97

# Integration steps assembled into closed-loop matrices at a time; bounds
# the (block, nx, nx) working set.
ASSEMBLY_BLOCK = 128

# Largest run, in bytes of traces and tables, that simulate will allocate.
MAX_TRACE_BYTES = 2 * 2**30


def _window_samples(window_s: float, sample_rate_hz: float) -> int:
    """Samples m in an exposure window; ConfigError unless window_s is a
    positive multiple of the sample step."""
    mf = real("window_s * sample_rate_hz", window_s * sample_rate_hz)
    m = int(round(mf))
    if window_s <= 0.0 or m < 1 or abs(mf - m) > 1e-6 * max(1.0, mf):
        raise ConfigError(
            "exposure window must be a positive multiple of the sample step")
    return m


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

    def __post_init__(self):
        for name in ("feedforward", "feedback"):
            boolean(name, getattr(self, name))
        for name in ("duration_s", "sample_rate_hz"):
            positive(name, getattr(self, name))
        for name in ("window_s", "settling_s"):
            real(name, getattr(self, name))
        if self.scheduling_source not in SCHEDULING_SOURCES:
            raise ConfigError(
                f"scheduling source must be one of {SCHEDULING_SOURCES}, "
                f"got {self.scheduling_source!r}")
        _window_samples(self.window_s, self.sample_rate_hz)
        for name in ("duration_s", "settling_s"):
            real(f"{name} * sample_rate_hz",
                 getattr(self, name) * self.sample_rate_hz)
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

    def profiles(self) -> dict:
        """The commanded profiles by name: scan_x, scan_y and loop<i>, in
        that order, without the ones that are None."""
        named = {"scan_x": self.scan_x, "scan_y": self.scan_y,
                 **{f"loop{i}": p for i, p in enumerate(self.loop_refs)}}
        return {name: p for name, p in named.items() if p is not None}


@dataclass(frozen=True)
class Interval:
    name: str
    t_start: float
    t_end: float


@dataclass
class SimResult:
    """Simulation traces on a shared time base, one column per axis loop.

    states holds the integrator state per sample: modal displacements and
    velocities first, then each loop's controller states in loop order,
    as many as its cascade realizes.  p is the scheduling
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


def _intervals(samples, t, config: SimConfig) -> tuple:
    """Acceleration / settling / constant-velocity markers on the grid t,
    from samples: each commanded profile's sample(prof, t).

    A sample belongs to an acceleration interval when any commanded profile
    accelerates there; each acceleration interval is followed by a settling
    interval of configured length, and what remains of a moving stretch is
    marked constant velocity.  Standstill periods carry no marker.
    """
    n = t.size - 1
    if not samples:
        return ()

    accel = np.zeros(n + 1, dtype=bool)
    moving = np.zeros(n + 1, dtype=bool)
    for _, vel, acc, _, _ in samples:
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
    window_s = real("window_s", window_s)
    sample_rate_hz = positive("sample_rate_hz", sample_rate_hz)
    n = arr.shape[0]
    h = 1.0 / sample_rate_hz
    m = _window_samples(window_s, sample_rate_hz)
    # An odd window's edges fall halfway between samples; its inner window
    # is the m samples between them.
    hw, odd = m // 2, m % 2
    count = n - m - odd
    if count < 1:
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
        inner = sliding_window_view(x, 2 * hw + 1)[odd:odd + count]
        # np.trapezoid's terms of the whole series, formed once: a window's
        # trapezoid is the sum of its 2 hw terms, the same operands.
        terms = sliding_window_view(h * (x[1:] + x[:-1]) / 2.0,
                                    2 * hw)[odd:odd + count]
        mav = np.empty(count)
        var = np.empty(count)
        for j in range(0, count, step):
            sl = slice(j, min(j + step, count))
            w = inner[sl]
            s1 = terms[sl].sum(axis=1)
            if odd:
                # Half-step trapezoids out to the interpolated window edges.
                li, ri = x[j + 1:sl.stop + 1], x[m + j:m + sl.stop]
                edge_l = 0.5 * (x[j:sl.stop] + li)
                edge_r = 0.5 * (ri + x[m + 1 + j:m + 1 + sl.stop])
                s1 = s1 + 0.25 * h * (edge_l + li) + 0.25 * h * (edge_r + ri)
            mv = s1 / T
            dev = w - mv[:, None]
            s2 = np.trapezoid(dev * dev, dx=h, axis=1)
            if odd:
                s2 = (s2 + 0.25 * h * ((edge_l - mv) ** 2 + (li - mv) ** 2)
                      + 0.25 * h * ((edge_r - mv) ** 2 + (ri - mv) ** 2))
            mav[sl] = mv
            var[sl] = s2 / T
        ma[hw + odd:hw + odd + count, a] = mav
        msd[hw + odd:hw + odd + count, a] = np.sqrt(np.maximum(var, 0.0))
    if single:
        return ma[:, 0], msd[:, 0]
    return ma, msd


def _half_grid_inputs(config, half, rigid_masses, n_l):
    """The inputs w = [r | u_ff | f_scan] on the half grid, shape
    (2n + 1, 2 n_l + 2): loop references, axis feedforward and in-plane
    propulsion force, from half: scan_x, scan_y and each loop reference
    sampled there, None where there is no profile."""
    w_h = np.zeros((2 * config.n_steps + 1, 2 * n_l + 2))
    for i, smp in enumerate(half[2:]):
        if smp is None:
            continue
        w_h[:, i] = smp[0]
        if config.feedforward:
            w_h[:, n_l + i] = rigid_masses[i] * smp[2]
    # The propulsion force moving the stage in-plane is always part of the
    # physics of a scan; the feedforward switch only governs the axis-level
    # inertia compensation above.  The first rigid mode is the translation
    # whose inertia the propulsion must overcome.
    for col, smp in enumerate(half[:2]):
        if smp is not None:
            w_h[:, 2 * n_l + col] = rigid_masses[0] * smp[2]
    return w_h


@dataclass
class _RunTables:
    """What the integrator reads for one run, on its sample grid.

    plant is the closed loop's plant side (design._ClosedLoopPlant): the
    modal diagonal km and the couplings b and c with one row per sample,
    and the frame a and g, with ASSEMBLY_BLOCK rows or fewer when the run
    is shorter, that every block of steps is assembled in.  bs_t, the
    scan-force coupling, holds one row per sample too.  loops holds each
    loop's realization: stacked with one row per sample when the cascade
    is scheduled, a single system when it is fixed.  w_h is the one input
    table: loop references, axis feedforward and propulsion force,
    w = [r | u_ff | f_scan], on the half-step grid that the RK4 stages
    need.  fb is 1.0 with the loop closed and 0.0 with it open, and
    intervals are the run's motion markers (see _intervals).
    """

    t: np.ndarray
    p_sched: np.ndarray
    plant: _ClosedLoopPlant
    bs_t: np.ndarray
    loops: list
    w_h: np.ndarray
    x0: np.ndarray
    t_u: np.ndarray
    fb: float
    axis_names: tuple
    intervals: tuple


def _bytes_per_step(model, controllers: ControllerSet) -> int:
    """Bytes a run keeps per integration step.

    Counts the state trace, the per-sample plant tables, the stacked
    realization (A, B, C, D) of every scheduled loop, the half-grid inputs
    and the per-loop result traces; short-lived temporaries are not
    counted.
    """
    n_q, n_l = model.n_modes, controllers.n_loops
    widths = [n_states(c) for c in controllers.loops]
    floats = (2 * n_q + sum(widths)                 # state trace
              + n_q * (2 * n_l + 2)                 # plant tables
              + sum((w + 1) ** 2                    # w^2 + 2w + 1 per row
                    for w, c in zip(widths, controllers.loops)
                    if c.scheduled_part)            # scheduled realizations
              + 2 * (2 * n_l + 2)                   # half-grid inputs
              + 6 * n_l + 3)                        # t, p, r, y, e, u, MA, MSD
    return 8 * floats


def _run_tables(model, controllers, motion, config, x0_plant) -> _RunTables:
    """Scheduling traces and every per-sample table of one run."""
    n = config.n_steps
    n_l = controllers.n_loops
    t = np.arange(n + 1) * config.step_s
    # Each profile is sampled once, on the half-step grid that the RK4
    # stages need; the sample grid t is every other half-step time.
    t_h = np.arange(2 * n + 1) * (0.5 * config.step_s)
    half = [None if prof is None else sample(prof, t_h)
            for prof in (motion.scan_x, motion.scan_y, *motion.loop_refs)]

    p_true = np.tile(np.asarray(motion.start_xy, dtype=float), (n + 1, 1))
    if p_true.shape != (n + 1, 2):
        raise ConfigError("start_xy must be a single (x, y) point")
    for col, smp in enumerate(half[:2]):
        if smp is not None:
            p_true[:, col] += smp[0][::2]
    if config.scheduling_source == "measured-delayed":
        p_sched = np.vstack([p_true[:1], p_true[:-1]])
    else:
        p_sched = p_true

    t_u = np.ascontiguousarray(controllers.t_u, dtype=float)
    t_y = np.ascontiguousarray(controllers.t_y, dtype=float)
    plant = _closed_loop_plant(
        model, t_u, t_y, [n_states(c) for c in controllers.loops],
        mode_shape_eval(model, p_true), min(ASSEMBLY_BLOCK, n))
    bs_t = scan_coupling(model, p_true) * (1.0 / model.masses[:, None])
    # Each cascade is realized once for the run, its scheduled notches
    # frozen per sample (see filters.freeze_notches, which clamps and logs).
    f_max = NOTCH_NYQUIST_FRACTION * 0.5 * config.sample_rate_hz
    loops = [realize(c, p_sched, f_max) for c in controllers.loops]

    rigid_idx = [k for k, mode in enumerate(model.modes) if mode.kind == "rigid"]
    rigid_masses = model.masses[rigid_idx]
    axis_names = tuple(model.modes[k].axis or f"loop{j}"
                       for j, k in enumerate(rigid_idx))
    w_h = _half_grid_inputs(config, half, rigid_masses, n_l)

    n_q = model.n_modes
    x0 = np.zeros(2 * n_q + sum(k.n_states for k in loops))
    if x0_plant is not None:
        x0_plant = reals("x0_plant", x0_plant).ravel()
        if x0_plant.size != 2 * n_q:
            raise ConfigError(
                f"initial plant state must have {2 * n_q} entries")
        x0[:2 * n_q] = x0_plant
    return _RunTables(
        t=t, p_sched=p_sched, plant=plant, bs_t=bs_t,
        loops=loops, w_h=w_h, x0=x0,
        t_u=t_u, fb=1.0 if config.feedback else 0.0, axis_names=axis_names,
        intervals=_intervals([tuple(x[::2] for x in smp) for smp in half
                              if smp is not None], t, config))


def _assemble(tab: _RunTables, k0, k1):
    """Closed-loop matrices A_k of steps k0..k1-1 and their folded inputs.

    Within step k the dynamics are x' = A_k x + G_k w(t) with
    x = [q; qd; xc_1 .. xc_nl] and w = [r, u_ff, f_scan], the columns of
    tab.w_h.  design.close_loops writes A_k and the r and u_ff columns of
    G_k from the steps' rows of the plant side, tab.plant.take(k0:k1), and
    frozen loops, as it does for certification; only the f_scan columns,
    tab.bs_t, are written here.  g holds G_k w at the step's start,
    midpoint and end, shape (k1 - k0, 3, nx).  Every entry is computed per
    step, independently of the block's length.  A and G_k are written into
    the plant side's frame, and A comes back as a view that the next call
    overwrites.
    """
    n_q, n_l = tab.plant.km.size, len(tab.loops)
    rows = slice(k0, k1)
    loops = [k if k.a.ndim == 2 else
             FrozenStateSpace(k.a[rows], k.b[rows], k.c[rows], k.d[rows])
             for k in tab.loops]
    plant = tab.plant.take(rows)
    close_loops(plant, loops, tab.fb)
    plant.g[:, n_q:2 * n_q, 2 * n_l:] = tab.bs_t[rows]
    w = np.stack([tab.w_h[2 * k0 + s:2 * k1 + s:2] for s in range(3)], axis=2)
    g = np.ascontiguousarray(np.matmul(plant.g, w).transpose(0, 2, 1))
    return plant.a, g


def _integrate(tab: _RunTables, n, h):
    """State trace (n + 1, nx) of the assembled closed loop under RK4.

    Steps are assembled and integrated in blocks of ASSEMBLY_BLOCK, so the
    working set stays bounded and a block's rows do not depend on the run
    length.  A state norm beyond the divergence limit, which the kernel
    checks once per block, raises at the first step past it.
    """
    kernel = _kernels.get_backend()
    x_t = np.empty((n + 1, tab.x0.size))
    x_t[0] = tab.x0
    for k0 in range(0, n, ASSEMBLY_BLOCK):
        k1 = min(k0 + ASSEMBLY_BLOCK, n)
        a, g = _assemble(tab, k0, k1)
        status = kernel(k1 - k0, h, a, g, x_t[k0:k1 + 1])
        if status >= 0:
            step = k0 + status
            raise NumericalError(
                f"state norm exceeded {_kernels.DIVERGENCE_LIMIT:g} at "
                f"t = {step * h:.6g} s (step {step} of {n}): the closed loop "
                "is unstable at this operating point or the inputs are "
                "inconsistent")
    return x_t


def _outputs(tab: _RunTables, x_t):
    """References, outputs, errors and actuation per sample, from the states."""
    n_q, n_l = tab.plant.km.size, len(tab.loops)
    r = np.ascontiguousarray(tab.w_h[::2, :n_l])
    y = np.matmul(tab.plant.c, x_t[:, :n_q, None])[:, :, 0]
    e = r - y
    v = np.empty_like(e)
    at = 2 * n_q
    for i, k in enumerate(tab.loops):
        xc = x_t[:, at:at + k.n_states]
        v[:, i] = np.sum(k.c[..., 0, :] * xc, axis=1) + k.d[..., 0, 0] * e[:, i]
        at += k.n_states
    u_axis = tab.fb * v + tab.w_h[::2, n_l:2 * n_l]
    u = np.matmul(tab.t_u, u_axis[:, :, None])[:, :, 0]
    return r, y, e, u


def simulate(model: ModalPlantModel, controllers: ControllerSet,
             motion: StageMotion, config: SimConfig,
             certification=None, x0_plant=None) -> SimResult:
    """Run one closed-loop simulation and evaluate its error metrics.

    certification is the report from the frozen-position verification; a
    missing or failed report logs a warning but does not block the run.
    x0_plant optionally sets the modal displacement/velocity initial state
    (a flat array of 2 x n_modes); controller states always start at zero.
    A state norm beyond the divergence limit aborts with a diagnosis, and
    a run whose traces and tables would exceed MAX_TRACE_BYTES is refused
    before anything is allocated.
    """
    controllers.check_plant(model)
    n_l = controllers.n_loops
    f_top = float(np.max(model.frequencies_hz))
    if config.sample_rate_hz <= 2.0 * f_top:
        raise ConfigError(
            f"sample rate {config.sample_rate_hz:g} Hz must exceed twice the "
            f"highest plant mode frequency ({f_top:g} Hz)")
    for prof in motion.profiles().values():
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

    n = config.n_steps
    if n < 1:
        raise ConfigError("run is shorter than one sample step")
    need = (n + 1) * _bytes_per_step(model, controllers)
    if need > MAX_TRACE_BYTES:
        raise ConfigError(
            f"a {n}-step run needs about {need / 2**30:.3g} GiB of traces "
            f"and tables, over the {MAX_TRACE_BYTES / 2**30:g} GiB limit; "
            "shorten duration_s or lower sample_rate_hz")
    if certification is None:
        log.warning("simulating %s controller set without a certification "
                    "report", controllers.kind)
    elif not certification.passed:
        log.warning("certification report for the %s controller set did not "
                    "pass; simulating anyway", controllers.kind)

    tab = _run_tables(model, controllers, motion, config, x0_plant)
    x_t = _integrate(tab, n, config.step_s)
    r, y, e, u = _outputs(tab, x_t)
    ma, msd = ma_msd(e, config.window_s, config.sample_rate_hz)
    return SimResult(
        t=tab.t, r=r, y=y, e=e, u=u, p=tab.p_sched.copy(), ma=ma, msd=msd,
        intervals=tab.intervals, config=config,
        kind=controllers.kind, axis_names=tab.axis_names, states=x_t)


def _as_given(key: str, value):
    return value


def sim_config_from_dict(data: dict) -> SimConfig:
    """SimConfig of a JSON object; SimConfig checks the values."""
    return SimConfig(**record("simulation config", data, {
        f.name: _as_given if f.default is MISSING else (_as_given, f.default)
        for f in fields(SimConfig)}))


def result_summary(result: SimResult,
                   interval_name: str = "constant velocity") -> dict:
    """JSON-ready digest of one run: per-axis and overall means of |MA|
    and MSD over the longest marked interval with the given name, plus
    the config echo.  Only samples whose exposure window fits inside the
    run contribute; an interval without a single such sample is an error.
    """
    chosen = [iv for iv in result.intervals if iv.name == interval_name]
    if not chosen:
        raise ConfigError(
            f"run has no {interval_name!r} interval; markers: "
            f"{sorted({iv.name for iv in result.intervals})}")
    iv = sorted(chosen, key=lambda iv: iv.t_end - iv.t_start)[-1]
    mask = ((result.t >= iv.t_start - 1e-12) & (result.t <= iv.t_end + 1e-12)
            & np.isfinite(result.ma[:, 0]))
    if not mask.any():
        raise ConfigError(
            f"interval {iv.name!r} [{iv.t_start:.6g}, {iv.t_end:.6g}] s "
            "contains no samples with a full exposure window")
    ma_mean = np.mean(np.abs(result.ma[mask]), axis=0)
    msd_mean = np.mean(result.msd[mask], axis=0)
    return {
        "kind": result.kind,
        "interval": {"name": iv.name, "t_start_s": iv.t_start,
                     "t_end_s": iv.t_end},
        "ma_m": float(np.mean(ma_mean)),
        "msd_m": float(np.mean(msd_mean)),
        "per_axis": {name: {"ma_m": float(ma_mean[i]),
                            "msd_m": float(msd_mean[i])}
                     for i, name in enumerate(result.axis_names)},
        "config": asdict(result.config),
    }


def _reduction_pct(base: float, new: float) -> float:
    if base == 0.0:
        return 0.0
    return 100.0 * (1.0 - new / base)


def compare_summaries(base: dict, cand: dict, labels=None) -> dict:
    """Combine two run digests (see result_summary) into a comparison table.

    The reduction is quoted against the baseline, whose own reduction row
    is zero; a zero baseline metric reports 0% rather than dividing.  Two
    digests over different intervals or exposure windows are refused.
    """
    for what, a, b in (("intervals", base["interval"], cand["interval"]),
                       ("exposure windows", base["config"]["window_s"],
                        cand["config"]["window_s"])):
        if a != b:
            raise ConfigError(f"cannot compare runs over different {what}: "
                              f"{a!r} and {b!r}")
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
