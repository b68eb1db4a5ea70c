"""Sequential per-loop controller design and frozen-grid certification.

The MIMO design problem is reduced to a chain of SISO problems.  After a
static rigid-body decoupling, each axis loop is shaped one at a time
against its equivalent plant: the scalar dynamics that loop sees with the
previously designed loops already closed.  Per loop the cascade is a
proportional gain placing the crossover, an integrator, a stack of lead
filters buying phase margin, and one notch per flexible resonance that
threatens the loop.

Two design procedures share this machinery and one loop build, which
shapes each loop against the plant it sees with the earlier loops closed
by their returned cascades.  The fixed-coefficient procedure gives each
notch the deepest zero damping the design grid requires, paying the full
phase price of every resonance everywhere.  The scheduled procedure
instead fits each notch's zero damping with a polynomial surface in the
position, so a resonance that is weakly observable at some position costs
nothing there.  Both procedures maximize the common crossover frequency by
bisection subject to the same certification: at every verification-grid
position the frozen loop chain must be Nyquist stable, the per-loop
closed-loop sensitivity must stay under the configured peak bound, and
the determinant identity linking the scalar chain to the full MIMO
return difference must hold tightly.  A closed-loop eigenvalue check on
the frozen realizations runs alongside as an independent oracle.

Notch auto-placement: resonances are picked as local maxima of the
mass-normalized accelerance of the equivalent plant, tracked across
positions by frequency clustering.  The notch zero pair sits at the
tracked modal frequency (the modal stiffness does not move with
position, only the coupling does); the pole pair is skewed upward when
the resonance crowds the crossover, which trades attenuation depth for
phase lead right where the margin is thinnest.  Zero damping comes from
a smooth attenuation law driven by the loop gain the resonance actually
reaches locally, so at positions where a mode is invisible the notch
relaxes toward a neutral shelf and costs no phase.  A scheduled zero
damping is fitted once, by least squares to that law on a 9x9 audit grid,
and shifted down by its largest overshoot there, so it is nowhere on the
audit grid shallower than the local requirement.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import asdict, dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    DecouplingError,
    DesignInfeasibleError,
    DomainError,
    ModelError,
    integral,
    listof,
    positive,
    real,
    reals,
    record,
    text,
)
from .filters import (
    Cascade,
    Gain,
    Integrator,
    Lead,
    LpvNotch,
    Notch,
    _read_cascade,
    cascade_frf,
    cascade_to_dict,
    freeze_notches,
    n_states,
    realize,
    _multiply_notches,
)
from .freqresp import (
    default_grid,
    design_chain,
    det_identity_residual,
    equivalent_plant,
    frf,
    margins_and_bandwidth,
    nyquist_stable,
)
from .plant import ModalPlantModel, frozen_realization, mode_shape_eval
from .scheduling import (
    CoefficientSurface,
    FrozenDesignSet,
    eval_surface,
    fit_surface,
)

__all__ = [
    "DesignSpec",
    "ControllerSet",
    "CertificationReport",
    "PointCertification",
    "LoopCertification",
    "grid_points",
    "rigid_body_decouple",
    "decoupled_plant_frf",
    "tune_gain",
    "design_lti_slc",
    "design_lpv_slc",
    "freeze_controller_set",
    "certify",
    "closed_loop_matrix",
    "controllers_to_dict",
    "controllers_from_dict",
    "design_spec_from_dict",
]

log = logging.getLogger(__name__)

# Notch auto-placement tuning.  Resonance peaks are detected on the
# mass-normalized accelerance n(f) = |g| * (2 pi f)^2 * m, which is 1.0
# for a pure rigid-body axis.
PEAK_MIN_RATIO = 1.25      # accelerance ratio below which a bump is ignored
PEAK_BAND_HZ = (30.0, 3000.0)
RESONANT_LOOP_GAIN_MAX = 0.35   # loop-gain scale of the attenuation law
NOTCH_WIDTH_FROM_ZETA = 12.0    # pole damping per unit of estimated peak damping
NOTCH_WIDTH_RANGE = (0.25, 0.5)
NOTCH_DEPTH_FLOOR = 0.02   # deepest allowed beta1 as a fraction of neutral
SKEW_MAX = 1.3             # pole/zero frequency ratio when crossover is close
SKEW_NEAR = 1.5            # resonance/crossover ratio at which skew saturates
SKEW_FAR = 3.0             # ... and beyond which no skew is applied
CLUSTER_TOL = 0.10         # relative frequency window for mode tracking
AUDIT_GRID_N = 9           # n-by-n grid of the scheduled beta1 fits
DET_RESIDUAL_TOL = 1e-6
CERT_TAIL_N = 25           # low-frequency tail points ahead of the base grid
CERT_CHUNK = 25            # positions certify freezes and realizes together


def grid_points(workspace, nx: int, ny: int) -> np.ndarray:
    """Uniform inclusive nx-by-ny grid over ((x_lo, x_hi), (y_lo, y_hi))."""
    (x_lo, x_hi), (y_lo, y_hi) = workspace
    xs = np.linspace(x_lo, x_hi, nx)
    ys = np.linspace(y_lo, y_hi, ny)
    return np.array([[x, y] for x in xs for y in ys])


@dataclass
class DesignSpec:
    """Knobs of the bandwidth-maximizing design procedures.

    target_bandwidth_hz caps the bisection; the achieved value is whatever
    the certification admits.  Grids default to 3x3 (design) and 5x5
    (verification) over the plant workspace.
    """

    target_bandwidth_hz: float = 300.0
    sensitivity_bound_db: float = 6.0
    design_grid: np.ndarray | None = None
    verification_grid: np.ndarray | None = None
    loop_order: tuple | None = None
    alpha: float = 3.0
    n_leads: int = 3
    surface_order: int = 3
    min_bandwidth_hz: float = 10.0
    bisection_iterations: int = 20

    def __post_init__(self):
        for name in ("target_bandwidth_hz", "sensitivity_bound_db", "alpha",
                     "min_bandwidth_hz"):
            positive(name, getattr(self, name))
        if self.bisection_iterations < 0:
            raise ConfigError("bisection iterations must be >= 0")
        if self.min_bandwidth_hz > self.target_bandwidth_hz:
            raise ConfigError("minimum bandwidth must lie in (0, target]")
        if self.n_leads < 1:
            raise ConfigError("need at least one lead filter")
        if not 1 <= self.surface_order <= AUDIT_GRID_N:
            # An order-n fit needs n distinct coordinates on each axis.
            raise ConfigError(f"surface_order must lie in 1..{AUDIT_GRID_N}, "
                              f"got {self.surface_order}")
        for name in ("design_grid", "verification_grid"):
            grid = getattr(self, name)
            if grid is not None:
                grid = np.atleast_2d(np.asarray(grid, float))
                if grid.ndim != 2 or grid.shape[1] != 2:
                    raise ConfigError(
                        f"{name} must be (n, 2) points, got shape {grid.shape}")
                setattr(self, name, grid)

    def resolve(self, model: ModalPlantModel):
        """Fill grid/order defaults against a concrete plant."""
        design = self.design_grid if self.design_grid is not None \
            else grid_points(model.workspace, 3, 3)
        verify = self.verification_grid if self.verification_grid is not None \
            else grid_points(model.workspace, 5, 5)
        model.check_point(np.vstack([design, verify]))
        order = tuple(range(model.n_u)) if self.loop_order is None \
            else tuple(int(i) for i in self.loop_order)
        if sorted(order) != list(range(model.n_u)):
            raise ConfigError(f"loop order {order} is not a permutation of "
                              f"0..{model.n_u - 1}")
        return design, verify, order


@dataclass
class ControllerSet:
    """Diagonal controller: one cascade per decoupled axis loop.

    The decoupling matrices are static (the benchmark's rigid-body maps do
    not move with position); kind records which procedure built the set.
    """

    loops: tuple
    t_u: np.ndarray
    t_y: np.ndarray
    loop_order: tuple
    achieved_bandwidth_hz: float
    sensitivity_bound_db: float = 6.0
    kind: str = "lti"

    def __post_init__(self):
        self.loops = tuple(self.loops)
        self.t_u = np.asarray(self.t_u, dtype=float)
        self.t_y = np.asarray(self.t_y, dtype=float)
        if self.t_u.ndim != 2 or self.t_y.ndim != 2 \
                or len(self.loops) != self.t_u.shape[1] or len(self.loops) != self.t_y.shape[0]:
            raise ModelError("loop count does not match decoupling dimensions")
        if sorted(self.loop_order) != list(range(len(self.loops))):
            raise ModelError("loop order must be a permutation of the loops")
        if self.kind not in ("lti", "lpv"):
            raise ModelError(f"unknown controller kind {self.kind!r}")
        if not self.sensitivity_bound_db > 0.0:
            raise ModelError("sensitivity bound must be positive, got "
                             f"{self.sensitivity_bound_db}")
        if not self.achieved_bandwidth_hz > 0.0:
            raise ModelError("achieved bandwidth must be positive, got "
                             f"{self.achieved_bandwidth_hz}")

    @property
    def n_loops(self) -> int:
        return len(self.loops)

    def check_plant(self, model: ModalPlantModel) -> None:
        """ModelError unless the set closes one loop per plant axis through
        decoupling maps t_u (n_u, n_loops) and t_y (n_loops, n_y)."""
        n_l = self.n_loops
        if n_l != model.n_u:
            raise ModelError(f"controller set has {n_l} loops for a plant "
                             f"with {model.n_u} axes")
        for name, got, want in (("t_u", self.t_u.shape, (model.n_u, n_l)),
                                ("t_y", self.t_y.shape, (n_l, model.n_y))):
            if got != want:
                raise ModelError(f"controller set's {name} has shape {got}; "
                                 f"the plant needs {want}")

    def loop_frfs(self, freqs_hz, p) -> list:
        """Per-loop cascade responses at one position, (F,) each, or on an
        (n, 2) grid, (n, F) each, from one filters.cascade_frf call."""
        return cascade_frf(self.loops, freqs_hz, p)


def _within_bound(peak_db: float, bound_db: float) -> bool:
    return peak_db <= bound_db + 1e-9


@dataclass
class LoopCertification:
    loop: int
    nyquist_stable: bool
    encirclements: int
    f_crossover_hz: float
    phase_margin_deg: float
    gain_margin_db: float
    sensitivity_peak_db: float


@dataclass
class PointCertification:
    p: tuple
    det_residual: float
    eig_stable: bool
    eig_max_real: float
    loops: list

    @property
    def passed(self) -> bool:
        return bool(
            self.eig_stable
            and self.det_residual <= DET_RESIDUAL_TOL
            and all(lc.nyquist_stable for lc in self.loops)
        )

    def sensitivity_ok(self, bound_db: float) -> bool:
        return all(_within_bound(lc.sensitivity_peak_db, bound_db)
                   for lc in self.loops)


@dataclass
class CertificationReport:
    bound_db: float
    points: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(pt.passed and pt.sensitivity_ok(self.bound_db)
                   for pt in self.points)

    def worst_sensitivity_db(self) -> float:
        return max(lc.sensitivity_peak_db
                   for pt in self.points for lc in pt.loops)

    def to_dict(self) -> dict:
        return {
            "sensitivity_bound_db": self.bound_db,
            "passed": self.passed,
            "points": [asdict(pt) for pt in self.points],
        }

    def table(self) -> str:
        lines = [
            f"{'position':>18}  {'loop':>4}  {'stable':>6}  {'f_c [Hz]':>9}  "
            f"{'PM [deg]':>8}  {'S_peak [dB]':>11}  {'det res':>9}"
        ]
        for pt in self.points:
            for lc in pt.loops:
                lines.append(
                    f"({pt.p[0]:7.4f},{pt.p[1]:7.4f})  {lc.loop:>4d}  "
                    f"{str(lc.nyquist_stable and pt.eig_stable):>6}  "
                    f"{lc.f_crossover_hz:9.2f}  {lc.phase_margin_deg:8.2f}  "
                    f"{lc.sensitivity_peak_db:11.3f}  {pt.det_residual:9.2e}"
                )
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"overall: {verdict} (bound {self.bound_db:.2f} dB, "
                     f"{len(self.points)} positions)")
        return "\n".join(lines)


def rigid_body_decouple(model: ModalPlantModel, p):
    """Static input/output transforms diagonalizing the rigid-body plant.

    With u = T_u * v and w = T_y * y, axis v_i drives only rigid mode i and
    w_i reads only its displacement, so the low-frequency decoupled plant
    is exactly diag(1 / (m_i s^2)).
    """
    phi_a, phi_s = mode_shape_eval(model, p)
    n_rb = model.n_rigid
    if model.n_u != n_rb or model.n_y != n_rb:
        raise DecouplingError(
            f"need square rigid maps, got n_u={model.n_u}, n_y={model.n_y} "
            f"for {n_rb} rigid modes")
    a_rb = phi_a[:n_rb, :]
    s_rb = phi_s[:, :n_rb]
    for name, mat in (("actuation", a_rb), ("sensing", s_rb)):
        if np.linalg.matrix_rank(mat) < n_rb:
            raise DecouplingError(
                f"rigid-body {name} map is rank deficient at p = {tuple(p)}")
    t_u = np.linalg.inv(a_rb)
    t_y = np.linalg.inv(s_rb)
    return t_u, t_y


def decoupled_plant_frf(model: ModalPlantModel, p, freqs_hz, t_u, t_y) -> np.ndarray:
    """Frozen plant FRF through the decoupling transforms, (A, B T_u, T_y C,
    T_y D T_u), at a point or an (n, 2) grid, stacked as freqresp.frf does."""
    ss = frozen_realization(model, p)
    return frf(replace(ss, b=ss.b @ t_u, c=t_y @ ss.c, d=t_y @ ss.d @ t_u), freqs_hz)


def _interp_loglog_mag(logf, values, f):
    """|values| interpolated at f, linear in log magnitude vs log frequency.

    logf is np.log10 of the frequencies values is sampled on, formed once
    by a caller that interpolates on the same samples again.  values is a
    (..., F) array and f a frequency or an array of them; the result is
    values.shape[:-1] + np.shape(f), a float for one row at one
    frequency.  Each row takes its own np.interp call and each power of
    ten is taken on a Python float, as for one row at one frequency:
    numpy's array power differs from the scalar one in the last bit for
    some inputs.  np.interp treats every target on its own, so a call at
    several targets equals one call per target.  A vanishing magnitude
    maps to -inf and comes back as 0.0, which callers treat as an
    infeasible loop rather than an error; a caller that may meet one holds
    np.errstate(divide="ignore") around its calls.
    """
    logm = np.log10(np.abs(values))
    x = np.log10(f)
    out = [10.0 ** v for row in logm.reshape(-1, logm.shape[-1])
           for v in np.interp(x, logf, row).ravel().tolist()]
    shape = logm.shape[:-1] + np.shape(f)
    return out[0] if not shape else np.array(out).reshape(shape)


def _bracketing_samples(freqs_hz, targets_hz) -> np.ndarray:
    """Indices of the samples j - 1, j, j + 1 around each target's
    searchsorted index j: all that _interp_loglog_mag reads of a response
    sampled on freqs_hz when it interpolates at the targets."""
    j = np.searchsorted(freqs_hz, targets_hz)
    return np.unique(np.clip(np.concatenate([j - 1, j, j + 1]), 0,
                             len(freqs_hz) - 1))


def tune_gain(mag_g: float, cascade_bw: complex, f_bw: float) -> Gain:
    """Proportional gain putting |k * cascade * g| = 1 at f_bw.

    mag_g is |g(f_bw)| of the equivalent plant g, cascade_bw the cascade's
    response at exactly f_bw.
    """
    product = mag_g * float(np.abs(cascade_bw))
    if not np.isfinite(product) or product == 0.0:
        raise DesignInfeasibleError(
            f"loop magnitude vanishes at the target bandwidth {f_bw} Hz")
    return Gain(1.0 / product)


@dataclass
class _ResonancePeak:
    f_hz: float
    accelerance: float   # normalized peak height (1.0 = rigid baseline)
    zeta: float          # damping estimated from the half-power width


def _find_resonance_peaks(freqs_hz, g_frf, mass) -> list:
    """Local maxima of the mass-normalized accelerance of one loop.

    The candidate samples (in the band, a local maximum, at least
    PEAK_MIN_RATIO high) are found in one pass over the curve; only those
    few are refined and measured one by one.
    """
    f = np.asarray(freqs_hz, dtype=float)
    n = np.abs(np.asarray(g_frf)) * (2.0 * np.pi * f) ** 2 * mass
    lo, hi = PEAK_BAND_HZ
    mid = n[1:-1]
    candidates = ((lo <= f[1:-1]) & (f[1:-1] <= hi) & (mid >= n[:-2])
                  & (mid > n[2:]) & (mid >= PEAK_MIN_RATIO))
    peaks = []
    for i in (candidates.nonzero()[0] + 1).tolist():
        # Parabolic refinement in log-log coordinates.
        x = np.log10(f[i - 1: i + 2])
        y = np.log10(n[i - 1: i + 2])
        denom = (y[0] - 2.0 * y[1] + y[2])
        if denom < 0.0:
            shift = 0.5 * (y[0] - y[2]) / denom
            shift = float(np.clip(shift, -0.5, 0.5))
        else:
            shift = 0.0
        f_peak = 10.0 ** (x[1] + shift * (x[2] - x[1]))
        n_peak = float(n[i] if denom >= 0.0
                       else 10.0 ** (y[1] - 0.25 * (y[0] - y[2]) * shift))
        # Half-power width around the peak for a damping estimate.
        level = n_peak / np.sqrt(2.0)
        j_lo = i
        while j_lo > 0 and n[j_lo] > level:
            j_lo -= 1
        j_hi = i
        while j_hi < len(f) - 1 and n[j_hi] > level:
            j_hi += 1
        width = max(f[j_hi] - f[j_lo], f[i + 1] - f[i - 1])
        zeta = float(np.clip(width / (2.0 * f_peak), 1e-3, 0.2))
        peaks.append(_ResonancePeak(f_hz=float(f_peak), accelerance=n_peak,
                                    zeta=zeta))
    # Merge near-coincident grid maxima, keeping the taller one.
    merged: list = []
    for pk in sorted(peaks, key=lambda q: q.f_hz):
        if merged and abs(pk.f_hz / merged[-1].f_hz - 1.0) < 0.05:
            if pk.accelerance > merged[-1].accelerance:
                merged[-1] = pk
        else:
            merged.append(pk)
    return merged


def _cluster_frequencies(all_freqs) -> list:
    """Group detected peak frequencies into per-mode clusters (medians)."""
    freqs = sorted(float(f) for f in all_freqs)
    clusters: list = []
    for f in freqs:
        if clusters and abs(f / np.median(clusters[-1]) - 1.0) <= CLUSTER_TOL:
            clusters[-1].append(f)
        else:
            clusters.append([f])
    return [float(np.median(c)) for c in clusters]


def _skew_for(f_cluster: float, f_bw: float) -> float:
    """Pole/zero ratio: no skew far above crossover, max skew when close."""
    ratio = f_cluster / f_bw
    t = np.clip((SKEW_FAR - ratio) / (SKEW_FAR - SKEW_NEAR), 0.0, 1.0)
    return float(1.0 + (SKEW_MAX - 1.0) * t)


def _neutral_beta1(beta2: float, gamma: float) -> float:
    """Zero damping at which the notch is unity-gain at its zero frequency."""
    return float(np.sqrt((gamma ** 2 - 1.0) ** 2
                         + 4.0 * beta2 ** 2 * gamma ** 2) / (2.0 * gamma ** 2))


@dataclass
class _ClusterInfo:
    """One tracked resonance of one loop: frequency and notch width.

    Both are position-independent by construction (the modal model has a
    constant stiffness matrix, so only severity moves with position); the
    width comes from the sharpest credible damping estimate across the
    grid so one pole pair covers the mode everywhere.
    """

    f_hz: float
    beta2: float


def _discover_clusters(p_frfs, freqs_hz, masses) -> list:
    """Track resonances of each loop across all design positions.

    Uses the raw diagonal entries of the decoupled plant; coupling through
    the off-diagonal terms only perturbs peak heights, not the frequency
    clustering this stage needs.
    """
    clusters_per_loop = []
    for i in range(len(masses)):
        detections = []
        for p_frf in p_frfs:
            detections.extend(
                _find_resonance_peaks(freqs_hz, p_frf[:, i, i], masses[i]))
        centers = _cluster_frequencies([pk.f_hz for pk in detections])
        infos = []
        for f_cl in centers:
            zetas = [pk.zeta for pk in detections
                     if abs(pk.f_hz / f_cl - 1.0) <= CLUSTER_TOL]
            beta2 = float(np.clip(NOTCH_WIDTH_FROM_ZETA * max(zetas),
                                  *NOTCH_WIDTH_RANGE))
            infos.append(_ClusterInfo(f_hz=f_cl, beta2=beta2))
        clusters_per_loop.append(infos)
    return clusters_per_loop


class _NotchLaw(NamedTuple):
    """The part of one loop's attenuation law that depends on the
    bandwidth but not on the position (see _notch_laws)."""

    f_hz: np.ndarray       # cluster frequencies
    gamma_mag: np.ndarray  # |fixed section| at the cluster frequencies
    neutral: np.ndarray    # neutral zero damping of each notch
    f2: list               # pole frequency of each notch


def _notch_laws(logf, gamma_frf, clusters_per_loop, f_bw: float) -> list:
    """Every loop's _NotchLaw at f_bw; gamma_frf is the fixed section's
    response on the frequencies whose log10 is logf, read at all loops'
    cluster frequencies in one _interp_loglog_mag call."""
    f_hz = [np.array([cl.f_hz for cl in clusters])
            for clusters in clusters_per_loop]
    gamma_mag = _interp_loglog_mag(logf, gamma_frf, np.concatenate(f_hz))
    laws, start = [], 0
    for clusters, f in zip(clusters_per_loop, f_hz):
        skews = [_skew_for(cl.f_hz, f_bw) for cl in clusters]
        laws.append(_NotchLaw(
            f, gamma_mag[start:start + len(f)],
            np.array([_neutral_beta1(cl.beta2, skew)
                      for cl, skew in zip(clusters, skews)]),
            [skew * cl.f_hz for cl, skew in zip(clusters, skews)]))
        start += len(f)
    return laws


def _required_beta1(logf, g_frf, gain_k, law) -> np.ndarray:
    """Zero damping each position needs for each tracked resonance.

    g_frf is the equivalent plant on the frequencies whose log10 is logf,
    (F,) at one position or (n, F) on a grid; the result is
    (n_clusters,) or (n, n_clusters).  law is the
    loop's _NotchLaw.  The attenuation law 1 / (1 + G / G_max) is a
    smooth function of the loop gain G the resonance would reach without
    the notch: deep where the mode is hot, asymptotically neutral where it
    has faded, and free of kinks so low-order coefficient surfaces can
    follow it.
    """
    loop_at_peak = (gain_k * law.gamma_mag
                    * _interp_loglog_mag(logf, g_frf, law.f_hz))
    target = np.maximum(1.0 / (1.0 + loop_at_peak / RESONANT_LOOP_GAIN_MAX),
                        NOTCH_DEPTH_FLOOR)
    return target * law.neutral


def _notch_rows(clusters, law, columns) -> list:
    """_multiply_notches' rows (f1, f2, beta1, beta2) of one loop's notches,
    per cluster, for every row of its column of beta1 values."""
    return [[(cl.f_hz, f2, b1, cl.beta2) for b1 in column]
            for cl, f2, column in zip(clusters, law.f2, columns)]


def _fixed_section(f_bw: float, spec: DesignSpec) -> list:
    return [Integrator()] + [Lead(f_bw=f_bw, alpha=spec.alpha)] * spec.n_leads


def _center_gains(center_frf, freqs_hz, masses, order, f_bw,
                  spec: DesignSpec, clusters_per_loop):
    """Loop gains and notch laws of one candidate bandwidth.

    Returns (gains, laws): per loop its gain and its _NotchLaw.  The gains
    are tuned once, at the design grid's center position center_frf, so
    the fixed cascade section stays truly fixed.  The loops are read only
    at f_bw and at the cluster frequencies, so freqs_hz need only hold the
    samples bracketing those (see _bracketing_samples).  Their log10 is
    formed once, and one np.errstate covers every interpolation.
    """
    skeleton = Cascade(tuple(_fixed_section(f_bw, spec)))
    # One cascade evaluation on freqs_hz and then f_bw: the last column is
    # the response at exactly f_bw; interpolation reads only the increasing
    # freqs_hz part.
    f_all = np.append(freqs_hz, f_bw)
    gamma = cascade_frf(skeleton, f_all)
    logf = np.log10(freqs_hz)
    gains = [None] * len(masses)
    k_frfs = [0.0] * len(masses)
    with np.errstate(divide="ignore"):   # see _interp_loglog_mag
        laws = _notch_laws(logf, gamma[:-1], clusters_per_loop, f_bw)
        # Gains with provisional local notches: the notches barely move
        # the cascade magnitude down at the crossover, so one retune after
        # placing them settles the loop gain.  A loop with no cluster gets
        # no notch: its cascade is the skeleton and its first tuning
        # stands.
        for i in order:
            g = equivalent_plant(center_frf, k_frfs, i)
            mag_g = _interp_loglog_mag(logf, g, f_bw)
            gains[i] = tune_gain(mag_g, gamma[-1], f_bw)
            k_center = gamma
            if clusters_per_loop[i]:
                beta1 = _required_beta1(logf, g, gains[i].k, laws[i])
                k_center = gamma[None].copy()
                s = 1j * (2.0 * np.pi * f_all)
                _multiply_notches(k_center, s, s * s,
                                  _notch_rows(clusters_per_loop[i], laws[i],
                                              [[b] for b in beta1.tolist()]))
                k_center = k_center[0]
                gains[i] = tune_gain(mag_g, k_center[-1], f_bw)
            k_frfs[i] = gains[i].k * k_center[:-1]
    return gains, laws


def _build_loops(frfs, freqs_hz, points, order, gains, clusters_per_loop,
                 laws, f_bw, spec: DesignSpec, notch):
    """Candidate loops, each shaped against the plant it sees with the
    earlier loops of the order closed by their returned cascades.

    Loop i's requirements come from one _required_beta1 call over the
    (n, F, n, n) stack frfs at the n grid points, and notch(cluster, f2,
    column) makes each cluster's notch from its column of n zero dampings.
    freqs_hz need only hold the samples bracketing the cluster
    frequencies; every row equals a one-position evaluation bit for bit.
    The last loop of the order, which no later loop reads, is not closed,
    and a loop with no cluster forms no equivalent plant.  Every loop
    holds the same fixed-section block objects, so cascade_frf evaluates
    them once for a whole set.  The samples' log10 is formed once, and
    one np.errstate covers every interpolation.
    """
    fixed = _fixed_section(f_bw, spec)
    logf = np.log10(freqs_hz)
    loops = [None] * len(gains)
    closed = [0.0] * len(gains)
    with np.errstate(divide="ignore"):   # see _interp_loglog_mag
        for i in order:
            clusters, law = clusters_per_loop[i], laws[i]
            columns = _required_beta1(
                logf, equivalent_plant(frfs, closed, i), gains[i].k,
                law).T.tolist() if clusters else []
            loops[i] = Cascade(tuple(
                [gains[i]] + fixed
                + [notch(cl, f2, column)
                   for cl, f2, column in zip(clusters, law.f2, columns)]))
            if i != order[-1]:
                closed[i] = cascade_frf(loops[i], freqs_hz, points)
    return loops


def closed_loop_frame(rows, km, dm, n_states):
    """The open modal plant in a closed-loop stack, and its input map.

    a (rows, N, N) is zero but for the identity from velocities to
    displacements and -km and -dm on the diagonals; N is 2 km.size plus
    the loops' state counts n_states.  g (rows, N, 2 n_l + 2), zero, maps
    w = [r | u_ff | f_scan].  close_loops writes every loop's entries of
    both, any number of times; g's f_scan columns are the caller's.
    """
    n_q = km.size
    n_x = 2 * n_q + sum(n_states)
    a = np.zeros((rows, n_x, n_x))
    iq = np.arange(n_q)
    a[:, iq, n_q + iq] = 1.0
    a[:, n_q + iq, iq] = -km
    a[:, n_q + iq, n_q + iq] = -dm
    return a, np.zeros((rows, n_x, 2 * len(n_states) + 2))


def close_loops(a, g, b, c, km, loops, fb) -> None:
    """Close every loop around the modal plant in closed_loop_frame's stack.

    a, g    closed_loop_frame's stacks for these loops, or their first rows
    b       modal force per axis command, (Phi_a T_u) / m, (rows, n_q, n_l)
    c       axis outputs T_y Phi_s, (rows, n_l, n_q)
    km      stiffness/mass modal diagonal, (n_q,)
    loops   each loop's realization: one system, which every row shares,
            or a stack with one system per row
    fb      1.0 with the loops closed, 0.0 with them open

    With x = [q; qd; xc_1 .. xc_nl], loop i closes e_i = r_i - (c q)_i
    through xc_i' = A_i xc_i + B_i e_i, and fb (C_i xc_i + D_i e_i) drives
    the modes through column i of b.  Column i of g, where r_i enters, is
    fb D_i b_i in the velocity rows and B_i in the loop's rows; the loop's
    entries in a's plant columns are minus that column times c_i.  Column
    n_l + i, u_ff, is b_i.  Every entry that depends on b, c or a loop is
    written; every row is computed on its own.
    """
    n_q, n_l = km.size, len(loops)
    qd = slice(n_q, 2 * n_q)
    stiffness = np.diag(-km)
    at = 2 * n_q
    for i, k in enumerate(loops):
        xc = slice(at, at + k.n_states)
        b_i, c_i, g_r = b[:, :, i, None], c[:, i, None, :], g[:, :, i, None]
        g_r[:, qd] = (fb * k.d) * b_i
        g_r[:, xc] = k.b
        g[:, qd, n_l + i] = b[:, :, i]
        stiffness = np.subtract(stiffness, g_r[:, qd] * c_i,
                                out=a[:, qd, :n_q])
        a[:, qd, xc] = fb * b_i * k.c
        a[:, xc, :n_q] = -g_r[:, xc] * c_i
        a[:, xc, xc] = k.a
        at = xc.stop


class _ClosedLoopPlant(NamedTuple):
    """The plant side of closed_loop_matrix at an (n, 2) array of
    positions: all that does not depend on the loops' coefficients."""

    km: np.ndarray   # stiffness/mass modal diagonal, (n_q,)
    b: np.ndarray    # (Phi_a T_u) / m of each position, (n, n_q, n_l)
    c: np.ndarray    # T_y Phi_s of each position, (n, n_l, n_q)
    a: np.ndarray    # closed_loop_frame's stacks for the loops' state
    g: np.ndarray    # counts, close_loops' to fill, with their own rows

    def take(self, index) -> "_ClosedLoopPlant":
        """The plant side at the positions index picks, over the frame's
        first len(index) rows."""
        return self._replace(b=self.b[index], c=self.c[index],
                             a=self.a[:len(index)], g=self.g[:len(index)])


def _closed_loop_plant(model: ModalPlantModel, controllers: ControllerSet,
                       pts, rows: int) -> _ClosedLoopPlant:
    """The _ClosedLoopPlant of a set at an (n, 2) array of positions pts,
    its frame rows long.  The mode shapes are evaluated once for all
    positions, and the frame depends on the set only through its loops'
    state counts."""
    phi_a, phi_s = mode_shape_eval(model, pts)
    omega = 2.0 * np.pi * model.frequencies_hz
    km, dm = omega ** 2, 2.0 * model.damping * omega
    a, g = closed_loop_frame(rows, km, dm,
                             [n_states(c) for c in controllers.loops])
    return _ClosedLoopPlant(
        km, (phi_a @ controllers.t_u) * (1.0 / model.masses[:, None]),
        controllers.t_y @ phi_s, a, g)


def closed_loop_matrix(model: ModalPlantModel, controllers: ControllerSet,
                       p, closed_plant=None) -> np.ndarray:
    """State matrix of the frozen closed loop (plant + all controllers).

    One position gives an (N, N) matrix, an (n, 2) array of positions an
    (n, N, N) stack.  Each loop is realized once (a fixed cascade is
    position-independent, a scheduled one realizes stacked); close_loops
    closes the loops, as the simulator does at every step, and the input
    map is dropped.  A set that does not fit the plant raises ModelError
    (see ControllerSet.check_plant).

    closed_plant, when given, is the plant side at these positions, a
    _ClosedLoopPlant of a set with the same decoupling and state counts
    (certify's, from the design, shared by every candidate set), and it is
    not evaluated again.  The stack returned is then its frame, which the
    next call with it overwrites.
    """
    controllers.check_plant(model)
    pts = np.asarray(p, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    plant = (_closed_loop_plant(model, controllers, pts, len(pts))
             if closed_plant is None else closed_plant)
    loops = [realize(c, pts) for c in controllers.loops]
    if plant.a.shape[:2] != (len(pts), 2 * plant.km.size
                             + sum(k.n_states for k in loops)) \
            or len(plant.b) != len(pts):
        raise DomainError(f"closed-loop plant side of shape {plant.a.shape} "
                          f"does not fit {len(pts)} positions of this set")
    close_loops(plant.a, plant.g, plant.b, plant.c, plant.km, loops, 1.0)
    return plant.a[0] if single else plant.a


@functools.cache
def _certification_freqs() -> np.ndarray:
    """Frequencies certify samples: a low tail, then the default grid.

    The winding count anchors the start phase at the origin-pole
    asymptote, so the sampled contour must begin well below the lead
    corners; a coarse three-decade tail of CERT_TAIL_N points goes first.
    Built once; every call returns the same read-only array.
    """
    base = default_grid().freqs_hz
    tail = np.geomspace(base[0] * 1e-3, base[0] * 0.97, CERT_TAIL_N)
    freqs = np.concatenate([tail, base])
    freqs.flags.writeable = False
    return freqs


def _loop_closures(p_frf, k_frfs, order, bound_db=None):
    """The design chain of one position and its loops' sensitivity peaks.

    Returns (chain, peaks), indexed by loop.  chain[i] is the plant loop i
    sees with the loops before it in order closed (freqresp.design_chain's
    entry), and peaks[i] the largest sampled |S_i| in dB, S_i = 1 / (1 +
    g_i k_i) with g_i the plant loop i sees with every other loop closed.
    The order is walked once: chain entry, g_i and peak of each loop in
    turn.  The last loop of the order sees exactly g_i, closed by the same
    closings in the same index order, so its chain entry serves as g_i.
    With bound_db given the walk stops after the first loop whose peak is
    over it; the later loops' entries are left None.
    """
    chain, peaks = [None] * len(k_frfs), [None] * len(k_frfs)
    closed = [0.0] * len(k_frfs)
    for i in order:
        chain[i] = equivalent_plant(p_frf, closed, i)
        closed[i] = k_frfs[i]
        g_all = (chain[i] if i == order[-1]
                 else equivalent_plant(p_frf, k_frfs, i))
        peaks[i] = float(np.max(-20.0 * np.log10(
            np.abs(1.0 + g_all * k_frfs[i]))))
        if bound_db is not None and not _within_bound(peaks[i], bound_db):
            break
    return chain, peaks


def _certify_position(model: ModalPlantModel, controllers: ControllerSet,
                      freqs, p, p_frf, k_frfs, chain, peaks,
                      bound_db=None) -> PointCertification:
    """Frequency-domain certification of one position from its plant FRF,
    its frozen loop responses and their _loop_closures.  The eigenvalue
    fields are left for certify to fill in: eig_stable True, eig_max_real
    NaN.  The loops' Nyquist checks are one nyquist_stable call on the
    stack of their responses L_i = chain_i k_i, in loop order, and their
    margins one margins_and_bandwidth call; the check of loop i gets its
    exact response L_i(f), evaluated from the model, for the frequencies
    it adds to the samples.

    With bound_db given only a verdict is wanted: the Nyquist checks cover
    the loops up to the first one over bound_db, the margins and the point
    only those up to the first that is Nyquist unstable or over bound_db,
    and then det_residual is NaN.  Nothing of chain and peaks past the
    first loop over bound_db is read, so a _loop_closures walk that
    stopped there is enough.
    """
    order = controllers.loop_order
    point = PointCertification(p=(float(p[0]), float(p[1])),
                               det_residual=float("nan"), eig_stable=True,
                               eig_max_real=float("nan"), loops=[])
    checked = []
    for i in order:
        checked.append(i)
        if bound_db is not None and not _within_bound(peaks[i], bound_db):
            break

    def loop_frf(f, i):
        k_f = controllers.loop_frfs(f, p)
        p_f = decoupled_plant_frf(model, p, f, controllers.t_u, controllers.t_y)
        return design_chain(p_f, k_f, order)[i] * k_f[i]

    l_frfs = np.stack([chain[i] * k_frfs[i] for i in checked])
    verdicts = nyquist_stable(
        freqs, l_frfs, [lambda f, i=i: loop_frf(f, i) for i in checked],
        [2 + sum(isinstance(e, Integrator)
                 for e in controllers.loops[i].elements) for i in checked])
    if bound_db is not None:
        unstable = [n for n, v in enumerate(verdicts) if not v.stable]
        if unstable:
            checked = checked[:unstable[0] + 1]
    margins = margins_and_bandwidth(freqs, l_frfs[:len(checked)])
    for i, verdict, m in zip(checked, verdicts, margins):
        point.loops.append(LoopCertification(
            loop=int(i),
            nyquist_stable=verdict.stable,
            encirclements=verdict.encirclements,
            f_crossover_hz=m.f_crossover_hz,
            phase_margin_deg=m.phase_margin_deg,
            gain_margin_db=m.gain_margin_db,
            sensitivity_peak_db=peaks[i],
        ))
    if bound_db is not None and (unstable
                                 or not point.sensitivity_ok(bound_db)):
        return point
    point.det_residual = det_identity_residual(p_frf, k_frfs, chain, order)
    return point


def certify(model: ModalPlantModel, controllers: ControllerSet, grid, *,
            plant_frfs=None, closed_plant=None,
            _check_first=None) -> CertificationReport:
    """Frozen-position stability and sensitivity audit of a controller set
    at a point or an (n, 2) grid.

    Per position: scalar Nyquist checks along the design loop order (each
    loop sees the previously certified loops closed), the determinant
    identity residual linking that chain to det(I + P K), per-loop
    sensitivity peaks with all other loops closed, and the closed-loop
    eigenvalues of the frozen realization as an independent oracle.  The
    sensitivity bound is the controller set's own; a set that does not fit
    the plant (see ControllerSet.check_plant) raises ModelError.

    The grid is taken CERT_CHUNK positions at a time.  Every loop is
    frozen once per chunk: its responses come from one stacked cascade_frf
    call and, once the chunk's frequency-domain checks are done, the
    closed-loop matrices from one stacked closed_loop_matrix, whose
    eigenvalues are computed in one call; so are its plant FRFs unless
    plant_frfs is given.  Stacked rows equal one-position evaluations bit
    for bit, so the report does not depend on which other positions share
    a chunk, and memory does not grow with the grid.

    plant_frfs, when given, holds one decoupled plant FRF per grid row,
    sampled on certify's own frequencies (the default grid behind a
    CERT_TAIL_N-point low tail); they are used instead of evaluating the
    plant again.  closed_plant, when given, is the closed loops' plant
    side at every grid row, a _ClosedLoopPlant whose frame has at least
    min(len(grid), CERT_CHUNK) rows (the design's, formed once for every
    candidate set); each chunk's closed_loop_matrix call takes its rows
    instead of evaluating the plant again.

    _check_first is the design bisection's, which needs only a verdict.
    Given (possibly empty), the grid rows at those positions come first,
    CERT_CHUNK at a time, and the rest follow in grid order.  Every position's
    sensitivity peaks are screened, in that order and each position's in
    loop order, before any other check; a position's _loop_closures walk
    stops at its first loop over the bound, so a failing position forms
    neither the later loops' chain entries nor their closed plants.  The
    first position over the bound is certified as _certify_position
    describes with a bound and its point alone is the report.  Otherwise
    the other checks run in the same order and stop at the first failure
    the same way; until then the screened loop responses and chains are
    kept, about six times the frequency count of complex values per
    position.  A set that passes gets the same report as without
    _check_first.
    """
    controllers.check_plant(model)
    freqs = _certification_freqs()
    bound_db = controllers.sensitivity_bound_db
    order = controllers.loop_order
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if plant_frfs is not None:
        if len(plant_frfs) != len(grid):
            raise DomainError(f"{len(plant_frfs)} plant FRFs for "
                              f"{len(grid)} grid positions")
        shape = (len(freqs), controllers.t_y.shape[0],
                 controllers.t_u.shape[1])
        for r, p_frf in enumerate(plant_frfs):
            if np.shape(p_frf) != shape:
                raise DomainError(f"plant FRF {r} has shape "
                                  f"{np.shape(p_frf)}, expected {shape}")
    if closed_plant is not None and len(closed_plant.b) != len(grid):
        raise DomainError(f"closed-loop plant side of {len(closed_plant.b)} "
                          f"positions for {len(grid)} grid positions")
    verdict_only = _check_first is not None
    first = {tuple(q) for q in _check_first} if verdict_only else set()
    ahead = [r for r, p in enumerate(grid) if tuple(p) in first]
    rest = [r for r, p in enumerate(grid) if tuple(p) not in first]
    chunks = [rows[s:s + CERT_CHUNK] for rows in (ahead, rest)
              for s in range(0, len(rows), CERT_CHUNK)]

    def frozen(chunk):
        """(row, p, p_frf, k_frfs, chain, peaks) of each row of a chunk."""
        pts = grid[chunk]
        p_chunk = (decoupled_plant_frf(model, pts, freqs, controllers.t_u, controllers.t_y)
                   if plant_frfs is None else [plant_frfs[row] for row in chunk])
        for row, p, p_frf, *k_frfs in zip(
                chunk, pts, p_chunk, *controllers.loop_frfs(freqs, pts)):
            yield (row, p, p_frf, k_frfs,
                   *_loop_closures(p_frf, k_frfs, order,
                                   bound_db if verdict_only else None))

    if verdict_only:
        screened = []
        for chunk in chunks:
            positions = []
            for entry in frozen(chunk):
                if not all(_within_bound(entry[-1][i], bound_db)
                           for i in order):
                    return CertificationReport(bound_db, [_certify_position(
                        model, controllers, freqs, *entry[1:], bound_db)])
                positions.append(entry)
            screened.append(positions)
    else:
        screened = map(frozen, chunks)
    points = [None] * len(grid)
    for chunk, positions in zip(chunks, screened):
        for row, *position in positions:
            points[row] = _certify_position(
                model, controllers, freqs, *position,
                bound_db if verdict_only else None)
            alone = CertificationReport(bound_db, [points[row]])
            if verdict_only and not alone.passed:
                return alone
        # The chunk's last row holds views of its stacked responses: let
        # them go before the next chunk's are formed.
        del position
        max_real = np.max(np.linalg.eigvals(closed_loop_matrix(
            model, controllers, grid[chunk],
            None if closed_plant is None else closed_plant.take(chunk))).real,
            axis=-1)
        for row, m in zip(chunk, max_real.tolist()):
            points[row].eig_max_real, points[row].eig_stable = m, m < 0.0
            if verdict_only and not points[row].passed:
                return CertificationReport(bound_db, [points[row]])
    return CertificationReport(bound_db, points)


def _design_common(model: ModalPlantModel, spec: DesignSpec, kind: str):
    """Shared bandwidth-maximizing bisection for both procedures.

    Each bisection step builds a candidate set and asks certify for a
    verdict only.  The build reads the plant FRFs only at the samples
    bracketing f_bw and the cluster frequencies: the gains at the design
    grid's center, the notches from _build_loops over one (n, F_sub, n, n)
    stack.  Once per design, the kind picks that stack's grid (design or
    audit grid) and how a column of requirements becomes a notch (a fixed
    Notch at its deepest, or an LpvNotch fitted to it); the plant FRFs,
    resonance clusters and grid distinctness checks are made once too.
    A scheduled notch's f1, beta2 and f2 are the same everywhere;
    constant_surface fits each such value on the design grid once per
    design, whichever step and notch first asks for it.  So is the closed
    loops' plant side on the verification grid, which certify hands to
    closed_loop_matrix at every step.  Returns the best set and its full
    certification report.
    """
    design_grid, verify_grid, order = spec.resolve(model)
    freqs = default_grid().freqs_hz
    mid = len(design_grid) // 2
    t_u, t_y = rigid_body_decouple(model, design_grid[mid])
    masses = np.asarray(model.masses, dtype=float)[: model.n_rigid]

    # The plant FRFs of the distinct design and verification positions, in
    # one call on the certification frequencies; the design reads their
    # base-grid part (a plant FRF row depends only on its own frequency).
    rows: dict = {}
    for p in np.vstack([design_grid, verify_grid]):
        rows.setdefault(tuple(p), len(rows))
    stack = decoupled_plant_frf(model, np.array(list(rows)),
                                _certification_freqs(), t_u, t_y)
    p_frfs = [stack[rows[tuple(p)], CERT_TAIL_N:] for p in design_grid]
    verify_frfs = [stack[rows[tuple(p)]] for p in verify_grid]
    clusters = _discover_clusters(p_frfs, freqs, masses)
    cluster_hz = [cl.f_hz for infos in clusters for cl in infos]

    # The loop build reads the plant only at the samples bracketing the
    # cluster frequencies, stacked over its grid: the design grid for fixed
    # notches, the audit grid for scheduled ones.
    build_sub = _bracketing_samples(freqs, cluster_hz)
    if kind == "lti":
        build_grid = design_grid
        build_frfs = np.stack([h[build_sub] for h in p_frfs])

        def notch(cl: _ClusterInfo, f2: float, column: list) -> Notch:
            return Notch(f1=cl.f_hz, f2=f2, beta1=min(column), beta2=cl.beta2)
    else:
        # Both grids' points are checked once, here: every fit takes its
        # values with with_values, so the zeros are never fitted.
        design_set = FrozenDesignSet(design_grid, np.zeros(len(design_grid)))
        build_grid = grid_points(model.workspace, AUDIT_GRID_N, AUDIT_GRID_N)
        audit_set = FrozenDesignSet(build_grid, np.zeros(len(build_grid)))
        build_frfs = decoupled_plant_frf(model, build_grid, freqs[build_sub],
                                         t_u, t_y)

        @functools.cache
        def constant_surface(value: float, units: str) -> CoefficientSurface:
            return fit_surface(
                design_set.with_values(np.full(len(design_grid), value), units),
                spec.surface_order, spec.surface_order,
                bounds=model.workspace)[0]

        def notch(cl: _ClusterInfo, f2: float, column: list) -> LpvNotch:
            # The column's least-squares fit, shifted down by its largest
            # overshoot: nowhere on the audit grid shallower than the law.
            required = np.array(column)
            beta1, _ = fit_surface(audit_set.with_values(required, ""),
                                   spec.surface_order, spec.surface_order,
                                   bounds=model.workspace)
            viol = float(np.max(eval_surface(beta1, build_grid) - required))
            if viol > 0.0:
                beta1.theta[0] -= viol
            return LpvNotch(beta1=beta1, beta2=constant_surface(cl.beta2, ""),
                            f1=constant_surface(cl.f_hz, "Hz"),
                            f2=constant_surface(f2, "Hz"))

    def build(f_bw: float) -> ControllerSet:
        sub = _bracketing_samples(freqs, [f_bw] + cluster_hz)
        gains, laws = _center_gains(p_frfs[mid][sub], freqs[sub],
                                    masses, order, f_bw, spec, clusters)
        loops = _build_loops(build_frfs, freqs[build_sub], build_grid, order,
                             gains, clusters, laws, f_bw, spec, notch)
        return ControllerSet(loops=loops, t_u=t_u, t_y=t_y, loop_order=order,
                             achieved_bandwidth_hz=f_bw,
                             sensitivity_bound_db=spec.sensitivity_bound_db,
                             kind=kind)

    # Positions that failed the latest failing step; the next step checks
    # them first and, like every step, stops at its first failure.
    failed_at: list = []

    def feasible(controllers: ControllerSet):
        report = certify(model, controllers, verify_grid,
                         plant_frfs=verify_frfs, closed_plant=closed_plant,
                         _check_first=failed_at)
        if not report.passed:
            failed_at[:] = [pt.p for pt in report.points]
        return report.passed, controllers, report

    # Bisection over the common crossover frequency.  The cap is tried
    # first: a clean plant should just deliver the request.
    f_hi = float(spec.target_bandwidth_hz)
    f_lo = float(spec.min_bandwidth_hz)
    first = build(f_hi)
    # Every candidate has one loop per axis, each with the same blocks and
    # one notch per cluster, so the state counts of the first: the closed
    # loops' plant side on the verification grid is formed once, from it.
    closed_plant = _closed_loop_plant(model, first, verify_grid,
                                      min(len(verify_grid), CERT_CHUNK))
    ok, controllers, report = feasible(first)
    if ok:
        log.info("%s design feasible at the %.1f Hz cap", kind, f_hi)
        return controllers, report
    ok, best, best_report = feasible(build(f_lo))
    if not ok:
        raise DesignInfeasibleError(
            f"{kind} design infeasible even at {f_lo:.1f} Hz "
            f"(failing position: {best_report.points[0].p})")
    for _ in range(spec.bisection_iterations):
        f_mid = np.sqrt(f_lo * f_hi)
        ok, cand, cand_report = feasible(build(f_mid))
        if ok:
            f_lo, best, best_report = f_mid, cand, cand_report
        else:
            f_hi = f_mid
        if f_hi - f_lo < 1.0:
            break
    log.info("%s design achieved %.1f Hz", kind, best.achieved_bandwidth_hz)
    return best, best_report


def design_lti_slc(model: ModalPlantModel, spec: DesignSpec) -> ControllerSet:
    """Fixed-coefficient sequential design with worst-case notches."""
    controllers, _ = _design_common(model, spec, "lti")
    return controllers


def design_lpv_slc(model: ModalPlantModel, spec: DesignSpec) -> ControllerSet:
    """Position-scheduled sequential design with fitted notch surfaces."""
    controllers, _ = _design_common(model, spec, "lpv")
    return controllers


def freeze_controller_set(controllers: ControllerSet, p) -> ControllerSet:
    """Position-frozen copy of a controller set.

    Every scheduled notch is evaluated at p and appended to the fixed front
    of its cascade, yielding an ordinary fixed controller set that realizes
    the scheduled one exactly at that operating point (the reference for
    frozen-position checks of the scheduled implementation).
    """
    p = np.asarray(p, dtype=float)
    loops = []
    for cascade in controllers.loops:
        # freeze_notches gives (f1, f2, beta1, beta2), Notch's field order.
        frozen = [Notch(*(float(c[0]) for c in coeffs))
                  for coeffs in freeze_notches(cascade.scheduled_part,
                                               p[None])]
        loops.append(Cascade(cascade.fixed_part + tuple(frozen)))
    return ControllerSet(
        loops=tuple(loops), t_u=controllers.t_u.copy(),
        t_y=controllers.t_y.copy(), loop_order=controllers.loop_order,
        achieved_bandwidth_hz=controllers.achieved_bandwidth_hz,
        sensitivity_bound_db=controllers.sensitivity_bound_db, kind="lti")


def controllers_to_dict(controllers: ControllerSet) -> dict:
    return {
        "kind": controllers.kind,
        "achieved_bandwidth_hz": float(controllers.achieved_bandwidth_hz),
        "sensitivity_bound_db": float(controllers.sensitivity_bound_db),
        "loop_order": [int(i) for i in controllers.loop_order],
        "t_u": [[float(v) for v in row] for row in controllers.t_u],
        "t_y": [[float(v) for v in row] for row in controllers.t_y],
        "loops": [cascade_to_dict(c) for c in controllers.loops],
    }


_CONTROLLER_FIELDS = {
    "kind": (text, "lti"),
    "achieved_bandwidth_hz": real,
    "sensitivity_bound_db": (real, 6.0),
    "loop_order": listof(integral),
    **dict.fromkeys(("t_u", "t_y"), reals),
    "loops": listof(_read_cascade),
}


def controllers_from_dict(data: dict) -> ControllerSet:
    return ControllerSet(**record("controller set", data, _CONTROLLER_FIELDS))


_SPEC_READERS = {
    **dict.fromkeys(("target_bandwidth_hz", "sensitivity_bound_db", "alpha",
                     "min_bandwidth_hz"), real),
    **dict.fromkeys(("n_leads", "surface_order", "bisection_iterations"),
                    integral),
    **dict.fromkeys(("design_grid", "verification_grid"), reals),
    "loop_order": listof(integral),
}


def design_spec_from_dict(data: dict) -> DesignSpec:
    """DesignSpec of a JSON object; an absent field takes its default."""
    return DesignSpec(**record("design spec", data, {
        f.name: (_SPEC_READERS[f.name], f.default) for f in fields(DesignSpec)}))
