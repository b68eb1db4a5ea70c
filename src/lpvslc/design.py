"""Sequential per-loop controller design and frozen-grid certification.

The MIMO design problem is reduced to a chain of SISO problems.  After a
static rigid-body decoupling, each axis loop is shaped one at a time
against its equivalent plant: the scalar dynamics that loop sees with the
previously designed loops already closed.  Per loop the cascade is a
proportional gain placing the crossover, an integrator, a stack of lead
filters buying phase margin, and one notch per flexible resonance that
threatens the loop.

Two design procedures share this machinery.  The fixed-coefficient
procedure collects local notch requirements at every design-grid position
and aggregates the worst case into one set of notch filters, paying the
full phase price of every resonance everywhere.  The scheduled procedure
instead fits polynomial surfaces through the local notch coefficients, so
a resonance that is weakly observable at some position costs nothing
there.  Both procedures maximize the common crossover frequency by
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
relaxes toward a neutral shelf and costs no phase.  Fitted surfaces are
audited on a denser grid against the same law and shifted down wherever
interpolation between design points would come out shallower than the
local requirement.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    DecouplingError,
    DesignInfeasibleError,
    DomainError,
    ModelError,
    integral,
    real,
    reals,
)
from .filters import (
    Cascade,
    Gain,
    Integrator,
    Lead,
    LpvNotch,
    Notch,
    cascade_frf,
    cascade_from_dict,
    cascade_to_dict,
    element_transfer,
    freeze_notches,
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
AUDIT_GRID_N = 9           # scheduled designs are audited on this n-by-n grid
DET_RESIDUAL_TOL = 1e-6
CERT_TAIL_N = 25           # low-frequency tail points ahead of the base grid
CERT_CHUNK = 25            # positions certify freezes and realizes together
SURFACE_FIT_TOL = 1e-6     # relative fit residual that aborts a scheduled design


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
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if self.target_bandwidth_hz <= 0.0:
            raise ConfigError("target bandwidth must be positive")
        if self.sensitivity_bound_db <= 0.0:
            raise ConfigError("sensitivity bound must be positive")
        if self.bisection_iterations < 0:
            raise ConfigError("bisection iterations must be >= 0")
        if self.min_bandwidth_hz <= 0.0 \
                or self.min_bandwidth_hz > self.target_bandwidth_hz:
            raise ConfigError("minimum bandwidth must lie in (0, target]")
        if self.alpha <= 0.0:
            raise ConfigError("lead ratio alpha must be positive")
        if self.n_leads < 1:
            raise ConfigError("need at least one lead filter")
        if self.surface_order < 1:
            raise ConfigError("surface order must be >= 1")
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
        for grid in (design, verify):
            for p in grid:
                model.check_point(p)
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

    def loop_frfs(self, freqs_hz, p) -> list:
        """Per-loop cascade responses at one position, (F,) each, or on an
        (n, 2) grid, (n, F) each (see filters.cascade_frf)."""
        return [cascade_frf(c, freqs_hz, p) for c in self.loops]


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

    def failures(self) -> list:
        out = []
        for pt in self.points:
            if not pt.passed or not pt.sensitivity_ok(self.bound_db):
                out.append(pt)
        return out

    def worst_sensitivity_db(self) -> float:
        return max(lc.sensitivity_peak_db
                   for pt in self.points for lc in pt.loops)

    def to_dict(self) -> dict:
        return {
            "sensitivity_bound_db": self.bound_db,
            "passed": self.passed,
            "points": [
                {
                    "p": list(pt.p),
                    "det_residual": pt.det_residual,
                    "eig_stable": pt.eig_stable,
                    "eig_max_real": pt.eig_max_real,
                    "loops": [
                        {
                            "loop": lc.loop,
                            "nyquist_stable": lc.nyquist_stable,
                            "encirclements": lc.encirclements,
                            "f_crossover_hz": lc.f_crossover_hz,
                            "phase_margin_deg": lc.phase_margin_deg,
                            "gain_margin_db": lc.gain_margin_db,
                            "sensitivity_peak_db": lc.sensitivity_peak_db,
                        }
                        for lc in pt.loops
                    ],
                }
                for pt in self.points
            ],
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
    """Frozen plant FRF through the decoupling transforms: (A, B T_u, T_y C, T_y D T_u)."""
    ss = frozen_realization(model, p)
    return frf(replace(ss, b=ss.b @ t_u, c=t_y @ ss.c, d=t_y @ ss.d @ t_u), freqs_hz)


def _interp_loglog_mag(freqs_hz, values, f):
    """|values| interpolated at f, linear in log magnitude vs log frequency.

    values is (..., F) and f a frequency or an array of them; the result is
    values.shape[:-1] + np.shape(f), a float for one row at one frequency.
    Each row takes its own np.interp call and each power of ten is taken
    on a Python float, as for one row at one frequency: numpy's array
    power differs from the scalar one in the last bit for some inputs.
    """
    mags = np.abs(np.asarray(values))
    logf = np.log10(np.asarray(freqs_hz, dtype=float))
    x = np.log10(f)
    with np.errstate(divide="ignore"):
        # A vanishing magnitude maps to -inf and comes back as 0.0, which
        # callers treat as an infeasible loop rather than an error here.
        logm = np.log10(mags).reshape(-1, mags.shape[-1])
    out = [10.0 ** v
           for v in np.ravel([np.interp(x, logf, row) for row in logm]).tolist()]
    shape = mags.shape[:-1] + np.shape(f)
    return out[0] if not shape else np.reshape(out, shape)


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
    """Local maxima of the mass-normalized accelerance of one loop."""
    f = np.asarray(freqs_hz, dtype=float)
    n = np.abs(np.asarray(g_frf)) * (2.0 * np.pi * f) ** 2 * mass
    lo, hi = PEAK_BAND_HZ
    peaks = []
    for i in range(1, len(f) - 1):
        if not (lo <= f[i] <= hi):
            continue
        if not (n[i] >= n[i - 1] and n[i] > n[i + 1] and n[i] >= PEAK_MIN_RATIO):
            continue
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
    bandwidth but not on the position (see _notch_law)."""

    f_hz: np.ndarray       # cluster frequencies
    gamma_mag: np.ndarray  # |fixed section| at the cluster frequencies
    neutral: np.ndarray    # neutral zero damping of each notch
    f2: list               # pole frequency of each notch


def _notch_law(freqs_hz, gamma_frf, clusters, f_bw: float) -> _NotchLaw:
    """One loop's _NotchLaw at f_bw; gamma_frf is the fixed section's
    response on freqs_hz."""
    skews = [_skew_for(cl.f_hz, f_bw) for cl in clusters]
    f_hz = np.array([cl.f_hz for cl in clusters])
    return _NotchLaw(
        f_hz, _interp_loglog_mag(freqs_hz, gamma_frf, f_hz),
        np.array([_neutral_beta1(cl.beta2, skew)
                  for cl, skew in zip(clusters, skews)]),
        [skew * cl.f_hz for cl, skew in zip(clusters, skews)])


def _required_beta1(freqs_hz, g_frf, gain_k, law) -> np.ndarray:
    """Zero damping each position needs for each tracked resonance.

    g_frf is the equivalent plant, (F,) at one position or (n, F) on a
    grid; the result is (n_clusters,) or (n, n_clusters).  law is the
    loop's _notch_law.  The attenuation law 1 / (1 + G / G_max) is a
    smooth function of the loop gain G the resonance would reach without
    the notch: deep where the mode is hot, asymptotically neutral where it
    has faded, and free of kinks so low-order coefficient surfaces can
    follow it.
    """
    loop_at_peak = (gain_k * law.gamma_mag
                    * _interp_loglog_mag(freqs_hz, g_frf, law.f_hz))
    target = np.maximum(1.0 / (1.0 + loop_at_peak / RESONANT_LOOP_GAIN_MAX),
                        NOTCH_DEPTH_FLOOR)
    return target * law.neutral


def _local_notches(clusters, law, beta1) -> list:
    """Per cluster, the notch of every row of beta1, (n, n_clusters)."""
    return [[Notch(f1=cl.f_hz, f2=f2, beta1=b1, beta2=cl.beta2)
             for b1 in column]
            for cl, f2, column in zip(clusters, law.f2, beta1.T.tolist())]


def _coefficients(notches) -> list:
    """_multiply_notches' coefficient rows of _local_notches' notches."""
    return [[(n.f1, n.f2, n.beta1, n.beta2) for n in column]
            for column in notches]


def _fixed_section(f_bw: float, spec: DesignSpec) -> list:
    return [Integrator()] + [Lead(f_bw=f_bw, alpha=spec.alpha)] * spec.n_leads


def _local_designs(p_frfs, freqs_hz, masses, order, f_bw, spec: DesignSpec,
                   clusters_per_loop):
    """Frozen per-position loop designs at one candidate bandwidth.

    Returns (gains, notch_table) where notch_table maps (loop, cluster
    index, position index) -> Notch, position by position.  Gains are
    tuned once at the grid's center position so the fixed cascade section
    stays truly fixed; the sequential closure at every position uses the
    local notch parameters.  The loops are read only at f_bw and at the
    cluster frequencies, so freqs_hz need only hold the samples bracketing
    those (see _bracketing_samples); p_frfs is the (n_design, F, n, n)
    stack of plant samples on them.

    Each loop is closed once for the whole stack and gets its local zero
    dampings from one _required_beta1 call; its local notches are then
    multiplied, row-stacked, onto its gain, integrator and leads,
    multiplied out once.  What does not depend on the position is computed
    once per call: the fixed section on freqs_hz and at f_bw, and each
    loop's _notch_law.  Every row equals a one-position design bit for bit.
    """
    skeleton = Cascade(tuple(_fixed_section(f_bw, spec)))
    omega = 2.0 * np.pi * np.asarray(freqs_hz, dtype=float)
    gamma_frf = cascade_frf(skeleton, freqs_hz)
    omega_bw = 2.0 * np.pi * np.array([f_bw])
    gamma_bw = cascade_frf(skeleton, np.array([f_bw]))
    laws = [_notch_law(freqs_hz, gamma_frf, clusters, f_bw)
            for clusters in clusters_per_loop]

    # Gains at the center position with provisional local notches: the
    # notches barely move the cascade magnitude down at the crossover, so
    # one retune after placing them settles the loop gain.
    center = p_frfs[len(p_frfs) // 2]
    gains = [None] * len(masses)
    k_frfs = [0.0] * len(masses)
    for i in order:
        g = equivalent_plant(center, k_frfs, i)
        mag_g = _interp_loglog_mag(freqs_hz, g, f_bw)
        k0 = tune_gain(mag_g, gamma_bw[0], f_bw)
        notches = _local_notches(
            clusters_per_loop[i], laws[i],
            _required_beta1(freqs_hz, g, k0.k, laws[i])[None])
        # At f_bw, one sample, the notches are multiplied on as cascade_frf
        # multiplies a fixed block, which costs less than a one-element
        # _multiply_notches stack and gives the same bits.
        at_bw = gamma_bw
        for column in notches:
            at_bw = at_bw * element_transfer(column[0], omega_bw)
        gains[i] = tune_gain(mag_g, at_bw[0], f_bw)
        k_center = gamma_frf[None].copy()
        _multiply_notches(k_center, omega, _coefficients(notches))
        k_frfs[i] = gains[i].k * k_center[0]

    # Local notches at every design position with the gains fixed.
    local = [None] * len(masses)
    closed = [0.0] * len(masses)
    for i in order:
        local[i] = _local_notches(
            clusters_per_loop[i], laws[i],
            _required_beta1(freqs_hz, equivalent_plant(p_frfs, closed, i),
                            gains[i].k, laws[i]))
        prefix = cascade_frf(Cascade((gains[i],) + skeleton.elements),
                             freqs_hz)
        closed[i] = np.array(np.broadcast_to(prefix,
                                             (len(p_frfs),) + prefix.shape))
        _multiply_notches(closed[i], omega, _coefficients(local[i]))
    notch_table = {(i, c, l): local[i][c][l] for l in range(len(p_frfs))
                   for i in order for c in range(len(local[i]))}
    return gains, notch_table


def _build_lti_loops(gains, clusters_per_loop, notch_table, n_points, f_bw,
                     spec: DesignSpec):
    """Fixed loops: per cluster, the deepest local requirement wins."""
    loops = []
    for i in range(len(gains)):
        notches = []
        for c in range(len(clusters_per_loop[i])):
            local = [notch_table[(i, c, l)] for l in range(n_points)]
            notches.append(replace(local[0],
                                   beta1=min(n.beta1 for n in local)))
        loops.append(Cascade(tuple([gains[i]] + _fixed_section(f_bw, spec)
                                   + notches)))
    return loops


def _fit_design_surface(designs: FrozenDesignSet, i, c, name,
                        spec: DesignSpec, workspace) -> CoefficientSurface:
    """Surface of notch c's coefficient name in loop i through the design
    values; a fit that misses one of them by more than SURFACE_FIT_TOL of
    the largest aborts the design."""
    surface, report = fit_surface(designs, spec.surface_order,
                                  spec.surface_order, bounds=workspace)
    scale = max(float(np.max(np.abs(designs.values))), 1e-12)
    if np.max(np.abs(report.residuals)) > SURFACE_FIT_TOL * scale:
        raise DesignInfeasibleError(
            f"coefficient surface fit for loop {i} notch {c} ({name}) leaves "
            f"relative residual "
            f"{np.max(np.abs(report.residuals)) / scale:.2e}")
    return surface


def _fixed_surfaces(clusters_per_loop, design_set: FrozenDesignSet,
                    spec: DesignSpec, workspace) -> list:
    """Per loop and cluster, the beta2 and f1 surfaces of its notch.

    Every local notch has the cluster's own pole damping and zero
    frequency, at every design position and every bandwidth, so these
    surfaces are fitted once per design.
    """
    n = len(design_set.points)
    return [[{name: _fit_design_surface(
                 design_set.with_values(np.full(n, value), units),
                 i, c, name, spec, workspace)
              for name, value, units in (("beta2", cl.beta2, ""),
                                         ("f1", cl.f_hz, "Hz"))}
             for c, cl in enumerate(clusters)]
            for i, clusters in enumerate(clusters_per_loop)]


def _build_lpv_loops(gains, notch_table, design_set: FrozenDesignSet,
                     fixed_surfaces, f_bw, spec: DesignSpec, workspace):
    """Scheduled loops: per cluster, surfaces through the local notches.

    fixed_surfaces is _fixed_surfaces' result for the design; the beta1
    and f2 surfaces, which depend on the bandwidth, are fitted here, on
    design_set's points (checked once per design) with with_values.  An
    unskewed notch, f2 equal to f1 at every design point, takes the f1
    surface: it was fitted to the same values.
    """
    loops = []
    for i in range(len(gains)):
        scheduled = []
        for c, fixed in enumerate(fixed_surfaces[i]):
            local = [notch_table[(i, c, l)]
                     for l in range(len(design_set.points))]
            surfaces = dict(fixed)
            for name, units in (("beta1", ""), ("f2", "Hz")):
                if name == "f2" and all(n.f2 == n.f1 for n in local):
                    surfaces[name] = fixed["f1"]
                    continue
                values = np.array([getattr(n, name) for n in local])
                surfaces[name] = _fit_design_surface(
                    design_set.with_values(values, units), i, c, name, spec,
                    workspace)
            scheduled.append(LpvNotch(**surfaces))
        loops.append(Cascade(tuple([gains[i]] + _fixed_section(f_bw, spec)
                                   + scheduled)))
    return loops


def _audit_scheduled_loops(loops, order, clusters_per_loop, gains, f_bw,
                           spec: DesignSpec, freqs_hz, audit_grid, audit_frfs,
                           workspace):
    """Enforce the attenuation law between the design points.

    Surface fitting reproduces the local zero-damping requirements at the
    design grid but can overshoot them in between.  The audit re-evaluates
    the law on a denser grid that contains the design positions, with
    earlier loops closed using their final scheduled cascades.  Where a
    surface comes out shallower than the law anywhere on that grid it is
    refit by least squares against the audited requirements (spreading the
    interpolation error both ways instead of piling it up between knots)
    and then shifted down by whatever overshoot remains.  A shifted
    surface is still a valid polynomial and only ever gets more
    conservative; the frozen-notch evaluation clamps it at full depth
    should it dip below zero somewhere.

    The law reads the loops only at the cluster frequencies, so freqs_hz
    need only hold the samples bracketing them (see _bracketing_samples).
    audit_frfs is the (n_audit, F, n, n) stack of plant samples on those
    frequencies over the audit grid: each loop is closed once for the
    whole grid, and every row equals a one-position evaluation bit for bit.
    """
    loops = list(loops)
    gamma_frf = cascade_frf(Cascade(tuple(_fixed_section(f_bw, spec))),
                            freqs_hz)
    # Per loop, its responses on the whole audit grid, (n_audit, F); a
    # loop not yet closed is the scalar 0 (open).
    closed = [0.0] * len(loops)
    for i in order:
        clusters = clusters_per_loop[i]
        if clusters:
            fixed = list(loops[i].fixed_part)
            scheduled = list(loops[i].scheduled_part)
            required = _required_beta1(
                freqs_hz, equivalent_plant(audit_frfs, closed, i),
                gains[i].k, _notch_law(freqs_hz, gamma_frf, clusters, f_bw))
            for c in range(len(clusters)):
                surface = scheduled[c].beta1
                got = eval_surface(surface, audit_grid)
                if np.max(got - required[:, c]) <= 1e-12:
                    continue
                refit, _ = fit_surface(
                    FrozenDesignSet(audit_grid, required[:, c], units=""),
                    spec.surface_order, spec.surface_order, bounds=workspace)
                viol = float(np.max(eval_surface(refit, audit_grid)
                                    - required[:, c]))
                theta = refit.theta.copy()
                if viol > 0.0:
                    theta[0] -= viol  # constant monomial: uniform shift down
                surface = CoefficientSurface(refit.order_x, refit.order_y,
                                             theta, refit.x_map, refit.y_map,
                                             refit.units)
                scheduled[c] = LpvNotch(beta1=surface, beta2=scheduled[c].beta2,
                                        f1=scheduled[c].f1, f2=scheduled[c].f2)
                log.debug("loop %d notch %d: zero damping surface refit "
                          "against the audit grid (residual shift %.3g)",
                          i, c, max(viol, 0.0))
            loops[i] = Cascade(tuple(fixed + scheduled))
        closed[i] = cascade_frf(loops[i], freqs_hz, audit_grid)
    return loops


def closed_loop_frame(rows, km, dm, loops) -> np.ndarray:
    """The row-independent part of closed_loop_stack, (rows, N, N).

    Zeros, but for the open modal plant (the identity from velocities to
    displacements, -km and -dm on the diagonals) and the state matrix of
    each loop realized as one system.  close_loops writes the rest; a
    frame can be refilled by it any number of times.
    """
    n_q = km.size
    n2 = 2 * n_q
    n_x = n2 + sum(k.n_states for k in loops)
    a = np.zeros((rows, n_x, n_x))
    iq = np.arange(n_q)
    a[:, iq, n_q + iq] = 1.0
    a[:, n_q + iq, iq] = -km
    a[:, n_q + iq, n_q + iq] = -dm
    at = n2
    for k in loops:
        xc = slice(at, at + k.n_states)
        if k.a.ndim == 2:
            a[:, xc, xc] = k.a
        at = xc.stop
    return a


def close_loops(a, b, c, km, loops, fb) -> None:
    """Write the row-dependent entries of closed_loop_stack into a frame.

    a is closed_loop_frame's stack for the same loops, or its first rows;
    every entry that depends on b, c or a stacked loop is written, in the
    order closed_loop_stack's arithmetic fixes, and the rest is left as the
    frame has it.
    """
    n_q = km.size
    qd = slice(n_q, 2 * n_q)
    stiffness = np.diag(-km)
    at = 2 * n_q
    for i, k in enumerate(loops):
        xc = slice(at, at + k.n_states)
        b_i, c_i = b[:, :, i, None], c[:, i, None, :]
        stiffness = np.subtract(stiffness, (fb * k.d) * b_i * c_i,
                                out=a[:, qd, :n_q])
        a[:, qd, xc] = fb * b_i * k.c
        a[:, xc, :n_q] = -k.b * c_i
        if k.a.ndim == 3:
            a[:, xc, xc] = k.a
        at = xc.stop


def closed_loop_stack(b, c, km, dm, loops, fb) -> np.ndarray:
    """Stacked state matrix of the modal plant with every loop closed.

    b       modal force per axis command, (Phi_a T_u) / m, (rows, n_q, n_l)
    c       axis outputs T_y Phi_s, (rows, n_l, n_q)
    km, dm  stiffness/mass and damping/mass modal diagonals, (n_q,)
    loops   each loop's realize output, one system or a stack of rows
    fb      1.0 with the loops closed, 0.0 with them open

    With x = [q; qd; xc_1 .. xc_nl], loop i closes e_i = r_i - (c q)_i
    through xc_i' = A_i xc_i + B_i e_i, and fb (C_i xc_i + D_i e_i) drives
    the modes through column i of b.  Returns (rows, N, N), N being 2 n_q
    plus the loops' state counts; every row is computed on its own.  It is
    closed_loop_frame filled in by close_loops, which the simulator calls
    on its own, run-long frame.
    """
    a = closed_loop_frame(b.shape[0], km, dm, loops)
    close_loops(a, b, c, km, loops, fb)
    return a


def closed_loop_matrix(model: ModalPlantModel, controllers: ControllerSet,
                       p) -> np.ndarray:
    """State matrix of the frozen closed loop (plant + all controllers).

    One position gives an (N, N) matrix, an (n, 2) array of positions an
    (n, N, N) stack.  The mode shapes are evaluated once for all positions
    and each loop is realized once (a fixed cascade is position-independent,
    a scheduled one realizes stacked); closed_loop_stack closes the loops,
    as the simulator does at every step.
    """
    pts = np.asarray(p, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    phi_a, phi_s = mode_shape_eval(model, pts)
    omega = 2.0 * np.pi * model.frequencies_hz
    a_cl = closed_loop_stack(
        (phi_a @ controllers.t_u) * (1.0 / model.masses[:, None]),
        controllers.t_y @ phi_s, omega ** 2, 2.0 * model.damping * omega,
        [realize(c, pts) for c in controllers.loops], 1.0)
    return a_cl[0] if single else a_cl


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


def _loop_closures(p_frf, k_frfs, order):
    """The design chain of one position and its loops' sensitivity peaks.

    Returns (chain, peaks): chain is design_chain(p_frf, k_frfs, order),
    and peaks[i] the largest sampled |S_i| in dB, S_i = 1 / (1 + g_i k_i)
    with g_i the plant loop i sees with every other loop closed.  The last
    loop of the chain sees exactly that plant, closed by the same closings
    in the same index order, so its chain entry serves as its g_i.
    """
    chain = design_chain(p_frf, k_frfs, order)
    peaks = [0.0] * len(k_frfs)
    for i in order:
        g_all = (chain[i] if i == order[-1]
                 else equivalent_plant(p_frf, k_frfs, i))
        peaks[i] = float(np.max(-20.0 * np.log10(
            np.abs(1.0 + g_all * k_frfs[i]))))
    return chain, peaks


def _certify_position(model: ModalPlantModel, controllers: ControllerSet,
                      freqs, p, p_frf, k_frfs, chain, peaks,
                      bound_db=None) -> PointCertification:
    """Frequency-domain certification of one position from its plant FRF,
    its frozen loop responses and their _loop_closures.  The eigenvalue
    fields are left for certify to fill in: eig_stable True, eig_max_real
    NaN.  The Nyquist check of loop i gets its exact response L_i(f),
    evaluated from the model, for the frequencies it adds to the samples.

    With bound_db given only a verdict is wanted: the first loop that is
    Nyquist unstable or over bound_db ends the evaluation, and the point
    holds the loops up to that one and det_residual NaN.
    """
    order = controllers.loop_order
    point = PointCertification(p=(float(p[0]), float(p[1])),
                               det_residual=float("nan"), eig_stable=True,
                               eig_max_real=float("nan"), loops=[])

    def loop_frf(f, i):
        k_f = controllers.loop_frfs(f, p)
        p_f = decoupled_plant_frf(model, p, f, controllers.t_u, controllers.t_y)
        return design_chain(p_f, k_f, order)[i] * k_f[i]

    for i in order:
        l_frf = chain[i] * k_frfs[i]
        n_origin = 2 + sum(isinstance(e, Integrator)
                           for e in controllers.loops[i].elements)
        verdict = nyquist_stable(freqs, l_frf,
                                 lambda f, i=i: loop_frf(f, i), n_origin)
        margins = margins_and_bandwidth(freqs, l_frf)
        point.loops.append(LoopCertification(
            loop=int(i),
            nyquist_stable=verdict.stable,
            encirclements=verdict.encirclements,
            f_crossover_hz=margins.f_crossover_hz,
            phase_margin_deg=margins.phase_margin_deg,
            gain_margin_db=margins.gain_margin_db,
            sensitivity_peak_db=peaks[i],
        ))
        if bound_db is not None and not (verdict.stable
                                         and _within_bound(peaks[i], bound_db)):
            return point
    point.det_residual = det_identity_residual(p_frf, k_frfs, chain, order)
    return point


def certify(model: ModalPlantModel, controllers: ControllerSet, grid, *,
            plant_frfs=None, _check_first=None) -> CertificationReport:
    """Frozen-position stability and sensitivity audit of a controller set.

    Per position: scalar Nyquist checks along the design loop order (each
    loop sees the previously certified loops closed), the determinant
    identity residual linking that chain to det(I + P K), per-loop
    sensitivity peaks with all other loops closed, and the closed-loop
    eigenvalues of the frozen realization as an independent oracle.  The
    sensitivity bound is the controller set's own.

    The grid is taken CERT_CHUNK positions at a time.  Every loop is
    frozen once per chunk: its responses come from one stacked cascade_frf
    call and, once the chunk's frequency-domain checks are done, the
    closed-loop matrices from one stacked closed_loop_matrix, whose
    eigenvalues are computed in one call.  Stacked rows equal one-position
    evaluations bit for bit, so the report does not depend on which other
    positions share a chunk, and memory does not grow with the grid.
    Plant FRFs and equivalent plants stay per position.

    plant_frfs, when given, holds one decoupled plant FRF per grid row,
    sampled on certify's own frequencies (the default grid behind a
    CERT_TAIL_N-point low tail); they are used instead of evaluating the
    plant again.

    _check_first is the design bisection's, which needs only a verdict.
    Given (possibly empty), the grid rows at those positions form the
    first chunk and the rest follow in grid order.  Every position's
    sensitivity peaks are screened, in that order, before any other
    check: the first position over the bound is certified as
    _certify_position describes with a bound and its point alone is the
    report.  Otherwise the other checks run in the same order and stop at
    the first failure the same way; until then the screened loop
    responses and chains are kept, about six times the frequency count
    of complex values per position.  A set that passes gets the same
    report as without _check_first.
    """
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
    verdict_only = _check_first is not None
    first = {tuple(q) for q in _check_first} if verdict_only else set()
    ahead = [r for r, p in enumerate(grid) if tuple(p) in first]
    rest = [r for r, p in enumerate(grid) if tuple(p) not in first]
    chunks = [c for c in [ahead] + [rest[s:s + CERT_CHUNK]
                                    for s in range(0, len(rest), CERT_CHUNK)]
              if c]

    def frozen(chunk):
        """(row, p, p_frf, k_frfs, chain, peaks) of each row of a chunk."""
        pts = grid[chunk]
        k_chunk = controllers.loop_frfs(freqs, pts)
        for r, (row, p) in enumerate(zip(chunk, pts)):
            if plant_frfs is not None:
                p_frf = plant_frfs[row]
            else:
                p_frf = decoupled_plant_frf(model, p, freqs, controllers.t_u,
                                            controllers.t_y)
            k_frfs = [k[r] for k in k_chunk]
            yield (row, p, p_frf, k_frfs,
                   *_loop_closures(p_frf, k_frfs, order))

    if verdict_only:
        screened = []
        for chunk in chunks:
            positions = []
            for entry in frozen(chunk):
                if not all(_within_bound(s, bound_db) for s in entry[-1]):
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
        max_real = np.max(np.linalg.eigvals(
            closed_loop_matrix(model, controllers, grid[chunk])).real, axis=-1)
        for row, m in zip(chunk, max_real.tolist()):
            points[row].eig_max_real, points[row].eig_stable = m, m < 0.0
            if verdict_only and not points[row].passed:
                return CertificationReport(bound_db, [points[row]])
    return CertificationReport(bound_db, points)


def _design_common(model: ModalPlantModel, spec: DesignSpec, kind: str):
    """Shared bandwidth-maximizing bisection for both procedures.

    Each bisection step builds a candidate set and asks certify for a
    verdict only.  The build reads the plant FRFs only at the samples
    bracketing f_bw and the cluster frequencies: one (n_design, F_sub, n, n)
    stack over the design grid, and for the scheduled audit one
    (n_audit, F_sub, n, n) stack over its grid.  What no step changes is
    done once, before the bisection: the plant FRFs, the resonance
    clusters, the design grid's distinctness check and the scheduled
    notches' f1 and beta2 surfaces.  Returns the best set and its full
    certification report.
    """
    design_grid, verify_grid, order = spec.resolve(model)
    freqs = default_grid().freqs_hz
    center = design_grid[len(design_grid) // 2]
    t_u, t_y = rigid_body_decouple(model, center)
    masses = np.asarray(model.masses, dtype=float)[: model.n_rigid]

    # One plant FRF per distinct design and verification position, on the
    # certification frequencies; the design reads the base-grid part of the
    # same arrays (a plant FRF row depends only on its own frequency).
    cert_freqs = _certification_freqs()
    frfs = {}
    for p in (*design_grid, *verify_grid):
        key = (float(p[0]), float(p[1]))
        if key not in frfs:
            frfs[key] = decoupled_plant_frf(model, p, cert_freqs, t_u, t_y)

    def plant_frf(p) -> np.ndarray:
        key = (float(p[0]), float(p[1]))
        if key in frfs:
            return frfs[key]
        return decoupled_plant_frf(model, p, cert_freqs, t_u, t_y)

    p_frfs = np.stack([plant_frf(p)[CERT_TAIL_N:] for p in design_grid])
    verify_frfs = [plant_frf(p) for p in verify_grid]
    clusters = _discover_clusters(p_frfs, freqs, masses)
    cluster_hz = [cl.f_hz for infos in clusters for cl in infos]

    if kind == "lpv":
        # The design grid's points are checked once, here: every fit takes
        # its values with with_values, so the zeros are never fitted.  The
        # f1 and beta2 surfaces do not depend on the bandwidth and are
        # fitted here too.
        design_set = FrozenDesignSet(design_grid, np.zeros(len(design_grid)))
        fixed_surfaces = _fixed_surfaces(clusters, design_set, spec,
                                         model.workspace)
        # The audit reads the plant only at the samples bracketing the
        # cluster frequencies; it gets them stacked over its grid.
        audit_grid = grid_points(model.workspace, AUDIT_GRID_N, AUDIT_GRID_N)
        audit_sub = _bracketing_samples(freqs, cluster_hz)
        audit_frfs = np.stack([plant_frf(p)[CERT_TAIL_N + audit_sub]
                               for p in audit_grid])

    def build(f_bw: float) -> ControllerSet:
        sub = _bracketing_samples(freqs, [f_bw] + cluster_hz)
        gains, table = _local_designs(p_frfs[:, sub], freqs[sub], masses,
                                      order, f_bw, spec, clusters)
        if kind == "lti":
            loops = _build_lti_loops(gains, clusters, table,
                                     len(design_grid), f_bw, spec)
        else:
            loops = _build_lpv_loops(gains, table, design_set,
                                     fixed_surfaces, f_bw, spec,
                                     model.workspace)
            loops = _audit_scheduled_loops(loops, order, clusters, gains,
                                           f_bw, spec, freqs[audit_sub],
                                           audit_grid, audit_frfs,
                                           model.workspace)
        return ControllerSet(loops=loops, t_u=t_u, t_y=t_y, loop_order=order,
                             achieved_bandwidth_hz=f_bw,
                             sensitivity_bound_db=spec.sensitivity_bound_db,
                             kind=kind)

    # Positions that failed the latest failing step; the next step checks
    # them first and, like every step, stops at its first failure.
    failed_at: list = []

    def feasible(f_bw: float):
        controllers = build(f_bw)
        report = certify(model, controllers, verify_grid,
                         plant_frfs=verify_frfs, _check_first=failed_at)
        if not report.passed:
            failed_at[:] = [pt.p for pt in report.points]
        return report.passed, controllers, report

    # Bisection over the common crossover frequency.  The cap is tried
    # first: a clean plant should just deliver the request.
    f_hi = float(spec.target_bandwidth_hz)
    f_lo = float(spec.min_bandwidth_hz)
    ok, controllers, report = feasible(f_hi)
    if ok:
        log.info("%s design feasible at the %.1f Hz cap", kind, f_hi)
        return controllers, report
    ok, best, best_report = feasible(f_lo)
    if not ok:
        raise DesignInfeasibleError(
            f"{kind} design infeasible even at {f_lo:.1f} Hz "
            f"(failing position: {best_report.points[0].p})")
    for _ in range(spec.bisection_iterations):
        f_mid = np.sqrt(f_lo * f_hi)
        ok, cand, cand_report = feasible(f_mid)
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


def controllers_from_dict(data: dict) -> ControllerSet:
    try:
        return ControllerSet(
            loops=tuple(cascade_from_dict(c) for c in data["loops"]),
            t_u=reals("t_u", data["t_u"]),
            t_y=reals("t_y", data["t_y"]),
            loop_order=tuple(integral("loop_order entry", i)
                             for i in data["loop_order"]),
            achieved_bandwidth_hz=real("achieved_bandwidth_hz",
                                       data["achieved_bandwidth_hz"]),
            sensitivity_bound_db=real("sensitivity_bound_db",
                                      data.get("sensitivity_bound_db", 6.0)),
            kind=str(data.get("kind", "lti")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad controller set entry: {exc}") from exc


def design_spec_from_dict(data: dict) -> DesignSpec:
    try:
        kwargs = {}
        for key in ("target_bandwidth_hz", "sensitivity_bound_db", "alpha",
                    "min_bandwidth_hz"):
            if key in data:
                kwargs[key] = real(key, data[key])
        for key in ("n_leads", "surface_order", "bisection_iterations"):
            if key in data:
                kwargs[key] = integral(key, data[key])
        for key in ("design_grid", "verification_grid"):
            if key in data:
                kwargs[key] = reals(key, data[key])
        if "loop_order" in data:
            kwargs["loop_order"] = tuple(integral("loop_order entry", i)
                                         for i in data["loop_order"])
        return DesignSpec(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad design spec entry: {exc}") from exc
