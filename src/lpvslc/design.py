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

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DecouplingError,
    DesignInfeasibleError,
    ModelError,
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
    freeze_notches,
    realize,
)
from .freqresp import (
    FrequencyGrid,
    default_grid,
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
    "design_spec_to_dict",
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
    freq_grid: FrequencyGrid | None = None

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
        if self.design_grid is not None:
            self.design_grid = np.atleast_2d(np.asarray(self.design_grid, float))
        if self.verification_grid is not None:
            self.verification_grid = np.atleast_2d(
                np.asarray(self.verification_grid, float))

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
        freqs = self.freq_grid if self.freq_grid is not None else default_grid()
        return design, verify, order, freqs


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
        if len(self.loops) != self.t_u.shape[1] or len(self.loops) != self.t_y.shape[0]:
            raise ModelError("loop count does not match decoupling dimensions")
        if sorted(self.loop_order) != list(range(len(self.loops))):
            raise ModelError("loop order must be a permutation of the loops")
        if self.kind not in ("lti", "lpv"):
            raise ModelError(f"unknown controller kind {self.kind!r}")

    @property
    def n_loops(self) -> int:
        return len(self.loops)

    def loop_frfs(self, freqs_hz, p) -> list:
        return [cascade_frf(c, freqs_hz, p) for c in self.loops]


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
        return all(lc.sensitivity_peak_db <= bound_db + 1e-9 for lc in self.loops)


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
    """Frozen plant FRF seen through the decoupling transforms."""
    h = frf(frozen_realization(model, p), freqs_hz)
    return t_y @ h @ t_u


def _interp_loglog_mag(freqs_hz, values, f: float) -> float:
    """|values| interpolated at f, linear in log magnitude vs log frequency."""
    mags = np.abs(np.asarray(values))
    logf = np.log10(np.asarray(freqs_hz, dtype=float))
    with np.errstate(divide="ignore"):
        # A vanishing magnitude maps to -inf and comes back as 0.0, which
        # callers treat as an infeasible loop rather than an error here.
        return float(10.0 ** np.interp(np.log10(f), logf, np.log10(mags)))


def tune_gain(g_frf, freqs_hz, cascade: Cascade, f_bw: float, p=None) -> Gain:
    """Proportional gain putting |k * cascade * g| = 1 at f_bw.

    g_frf is the equivalent-plant response sampled on freqs_hz; the
    cascade magnitude is evaluated in closed form at exactly f_bw.
    """
    mag_g = _interp_loglog_mag(freqs_hz, g_frf, f_bw)
    mag_c = float(np.abs(cascade_frf(cascade, np.array([f_bw]), p)[0]))
    product = mag_g * mag_c
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


def _required_beta1(freqs_hz, g_frf, gain_k, gamma_frf, cluster: _ClusterInfo,
                    gamma: float) -> float:
    """Zero damping one position needs for one tracked resonance.

    gamma_frf is the response of the loop's fixed section (integrator and
    leads).  The attenuation law 1 / (1 + G / G_max) is a smooth function
    of the loop gain G the resonance would reach without the notch: deep
    where the mode is hot, asymptotically neutral where it has faded, and
    free of kinks so low-order coefficient surfaces can follow it.
    """
    loop_at_peak = (gain_k
                    * _interp_loglog_mag(freqs_hz, gamma_frf, cluster.f_hz)
                    * _interp_loglog_mag(freqs_hz, g_frf, cluster.f_hz))
    target = 1.0 / (1.0 + loop_at_peak / RESONANT_LOOP_GAIN_MAX)
    target = max(target, NOTCH_DEPTH_FLOOR)
    return target * _neutral_beta1(cluster.beta2, gamma)


def _local_notches(freqs_hz, g_frf, gain_k, gamma_frf, clusters, f_bw) -> list:
    return [
        Notch(f1=cl.f_hz, f2=_skew_for(cl.f_hz, f_bw) * cl.f_hz,
              beta1=_required_beta1(freqs_hz, g_frf, gain_k, gamma_frf, cl,
                                    _skew_for(cl.f_hz, f_bw)),
              beta2=cl.beta2)
        for cl in clusters
    ]


def _fixed_section(f_bw: float, spec: DesignSpec) -> list:
    return [Integrator()] + [Lead(f_bw=f_bw, alpha=spec.alpha)] * spec.n_leads


def _local_designs(p_frfs, freqs_hz, masses, order, f_bw, spec: DesignSpec,
                   clusters_per_loop):
    """Frozen per-position loop designs at one candidate bandwidth.

    Returns (gains, notch_table) where notch_table maps (loop, cluster
    index, position index) -> Notch.  Gains are tuned once at the grid's
    center position so the fixed cascade section stays truly fixed; the
    sequential closure at every position uses the local notch parameters.
    """
    center = len(p_frfs) // 2
    skeleton = _fixed_section(f_bw, spec)
    gamma_frf = cascade_frf(Cascade(tuple(skeleton)), freqs_hz)

    # Gains at the center position with provisional local notches: the
    # notches barely move the cascade magnitude down at the crossover, so
    # one retune after placing them settles the loop gain.
    gains = [None] * len(masses)
    k_frfs = [np.zeros(len(freqs_hz), dtype=complex) for _ in masses]
    for i in order:
        g = equivalent_plant(p_frfs[center], k_frfs, i)
        k0 = tune_gain(g, freqs_hz, Cascade(tuple(skeleton)), f_bw)
        notches = _local_notches(freqs_hz, g, k0.k, gamma_frf,
                                 clusters_per_loop[i], f_bw)
        cascade = Cascade(tuple(skeleton + notches))
        gains[i] = tune_gain(g, freqs_hz, cascade, f_bw)
        k_frfs[i] = gains[i].k * cascade_frf(cascade, freqs_hz)

    # Local notches at every design position with the gains fixed.
    notch_table = {}
    for l, p_frf in enumerate(p_frfs):
        k_frfs = [np.zeros(len(freqs_hz), dtype=complex) for _ in masses]
        for i in order:
            g = equivalent_plant(p_frf, k_frfs, i)
            notches = _local_notches(freqs_hz, g, gains[i].k, gamma_frf,
                                     clusters_per_loop[i], f_bw)
            for c, notch in enumerate(notches):
                notch_table[(i, c, l)] = notch
            cascade = Cascade(tuple([gains[i]] + skeleton + notches))
            k_frfs[i] = cascade_frf(cascade, freqs_hz)
    return gains, notch_table


def _build_lti_loops(gains, clusters_per_loop, notch_table, n_points, f_bw,
                     spec: DesignSpec):
    """Fixed loops: per cluster, the deepest local requirement wins."""
    loops = []
    for i in range(len(gains)):
        notches = []
        for c, cl in enumerate(clusters_per_loop[i]):
            beta1 = min(notch_table[(i, c, l)].beta1 for l in range(n_points))
            notches.append(Notch(f1=cl.f_hz,
                                 f2=_skew_for(cl.f_hz, f_bw) * cl.f_hz,
                                 beta1=beta1, beta2=cl.beta2))
        loops.append(Cascade(tuple([gains[i]] + _fixed_section(f_bw, spec)
                                   + notches)))
    return loops


def _build_lpv_loops(gains, clusters_per_loop, notch_table, design_grid,
                     f_bw, spec: DesignSpec, workspace):
    order_xy = spec.surface_order
    loops = []
    for i in range(len(gains)):
        scheduled = []
        for c in range(len(clusters_per_loop[i])):
            local = [notch_table[(i, c, l)] for l in range(len(design_grid))]
            surfaces = {}
            for name, units in (("beta1", ""), ("beta2", ""),
                                ("f1", "Hz"), ("f2", "Hz")):
                values = np.array([getattr(n, name) for n in local])
                designs = FrozenDesignSet(design_grid, values, units=units)
                surface, report = fit_surface(designs, order_xy, order_xy,
                                              bounds=workspace)
                scale = max(float(np.max(np.abs(values))), 1e-12)
                if np.max(np.abs(report.residuals)) > SURFACE_FIT_TOL * scale:
                    raise DesignInfeasibleError(
                        f"coefficient surface fit for loop {i} notch {c} "
                        f"({name}) leaves relative residual "
                        f"{np.max(np.abs(report.residuals)) / scale:.2e}")
                surfaces[name] = surface
            scheduled.append(LpvNotch(**surfaces))
        fixed = [gains[i]] + _fixed_section(f_bw, spec)
        loops.append(Cascade(tuple(fixed + scheduled), n_fixed=len(fixed)))
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
    """
    loops = list(loops)
    skeleton = _fixed_section(f_bw, spec)
    gamma_frf = cascade_frf(Cascade(tuple(skeleton)), freqs_hz)
    closed = [[np.zeros(len(freqs_hz), dtype=complex) for _ in loops]
              for _ in audit_grid]
    for i in order:
        clusters = clusters_per_loop[i]
        if clusters:
            fixed = list(loops[i].fixed_part)
            scheduled = list(loops[i].scheduled_part)
            required = np.zeros((len(audit_grid), len(clusters)))
            for a, p in enumerate(audit_grid):
                g = equivalent_plant(audit_frfs[a], closed[a], i)
                for c, cl in enumerate(clusters):
                    required[a, c] = _required_beta1(
                        freqs_hz, g, gains[i].k, gamma_frf, cl,
                        _skew_for(cl.f_hz, f_bw))
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
            loops[i] = Cascade(tuple(fixed + scheduled), n_fixed=len(fixed))
        for a, p in enumerate(audit_grid):
            closed[a][i] = cascade_frf(loops[i], freqs_hz, p)
    return loops


def closed_loop_matrix(model: ModalPlantModel, controllers: ControllerSet,
                       p) -> np.ndarray:
    """State matrix of the frozen closed loop (plant + all controllers)."""
    plant = frozen_realization(model, p)
    t_u, t_y = controllers.t_u, controllers.t_y
    loops = [realize(c, p) for c in controllers.loops]
    n_x = plant.n_states
    n_k = sum(k.n_states for k in loops)
    d_k = np.diag([k.d[0, 0] for k in loops])
    a_k = np.zeros((n_k, n_k))
    b_k = np.zeros((n_k, controllers.n_loops))
    c_k = np.zeros((controllers.n_loops, n_k))
    at = 0
    for i, k in enumerate(loops):
        n = k.n_states
        a_k[at:at + n, at:at + n] = k.a
        b_k[at:at + n, i] = k.b[:, 0]
        c_k[i, at:at + n] = k.c[0]
        at += n
    ty_c = t_y @ plant.c
    b_tu = plant.b @ t_u
    a_cl = np.zeros((n_x + n_k, n_x + n_k))
    a_cl[:n_x, :n_x] = plant.a - b_tu @ d_k @ ty_c
    a_cl[:n_x, n_x:] = b_tu @ c_k
    a_cl[n_x:, :n_x] = -b_k @ ty_c
    a_cl[n_x:, n_x:] = a_k
    return a_cl


def _count_integrators(cascade: Cascade) -> int:
    return sum(1 for e in cascade.elements if isinstance(e, Integrator))


def certify(model: ModalPlantModel, controllers: ControllerSet, grid,
            freq_grid: FrequencyGrid | None = None,
            bound_db: float | None = None) -> CertificationReport:
    """Frozen-position stability and sensitivity audit of a controller set.

    Per position: scalar Nyquist checks along the design loop order (each
    loop sees the previously certified loops closed), the determinant
    identity residual linking that chain to det(I + P K), per-loop
    sensitivity peaks with all other loops closed, and the closed-loop
    eigenvalues of the frozen realization as an independent oracle.
    """
    base = (freq_grid if freq_grid is not None else default_grid()).freqs_hz
    # The winding count anchors the start phase at the origin-pole
    # asymptote, so the sampled contour must begin well below the lead
    # corners; prepend a coarse three-decade tail.
    tail = np.geomspace(base[0] * 1e-3, base[0] * 0.97, 25)
    freqs = np.concatenate([tail, base])
    bound = controllers.sensitivity_bound_db if bound_db is None else bound_db
    report = CertificationReport(bound_db=bound)
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    for p in grid:
        p_frf = decoupled_plant_frf(model, p, freqs, controllers.t_u,
                                    controllers.t_y)
        k_frfs = controllers.loop_frfs(freqs, p)
        det_res = det_identity_residual(p_frf, k_frfs, controllers.loop_order)

        loop_certs = []
        closed = [np.zeros(len(freqs), dtype=complex)] * controllers.n_loops
        for i in controllers.loop_order:
            g_design = equivalent_plant(p_frf, closed, i)
            l_frf = g_design * k_frfs[i]
            n_origin = 2 + _count_integrators(controllers.loops[i])
            verdict = nyquist_stable(freqs, l_frf, n_open_rhp=0,
                                     n_origin_poles=n_origin)
            margins = margins_and_bandwidth(freqs, l_frf)
            g_all = equivalent_plant(p_frf, k_frfs, i)
            s_peak = float(np.max(-20.0 * np.log10(
                np.abs(1.0 + g_all * k_frfs[i]))))
            loop_certs.append(LoopCertification(
                loop=int(i),
                nyquist_stable=verdict.stable,
                encirclements=verdict.encirclements,
                f_crossover_hz=margins.f_crossover_hz,
                phase_margin_deg=margins.phase_margin_deg,
                gain_margin_db=margins.gain_margin_db,
                sensitivity_peak_db=s_peak,
            ))
            closed[i] = k_frfs[i]

        eig = np.linalg.eigvals(closed_loop_matrix(model, controllers, p))
        max_real = float(np.max(eig.real))
        report.points.append(PointCertification(
            p=(float(p[0]), float(p[1])),
            det_residual=det_res,
            eig_stable=max_real < 0.0,
            eig_max_real=max_real,
            loops=loop_certs,
        ))
    return report


def _design_common(model: ModalPlantModel, spec: DesignSpec, kind: str):
    """Shared bandwidth-maximizing bisection for both procedures."""
    design_grid, verify_grid, order, freq_grid = spec.resolve(model)
    freqs = freq_grid.freqs_hz
    center = design_grid[len(design_grid) // 2]
    t_u, t_y = rigid_body_decouple(model, center)
    masses = np.asarray(model.masses, dtype=float)[: model.n_rigid]

    p_frfs = [decoupled_plant_frf(model, p, freqs, t_u, t_y)
              for p in design_grid]
    clusters = _discover_clusters(p_frfs, freqs, masses)

    if kind == "lpv":
        audit_grid = grid_points(model.workspace, AUDIT_GRID_N, AUDIT_GRID_N)
        audit_frfs = [decoupled_plant_frf(model, p, freqs, t_u, t_y)
                      for p in audit_grid]

    def build(f_bw: float) -> ControllerSet:
        gains, table = _local_designs(p_frfs, freqs, masses, order, f_bw,
                                      spec, clusters)
        if kind == "lti":
            loops = _build_lti_loops(gains, clusters, table,
                                     len(design_grid), f_bw, spec)
        else:
            loops = _build_lpv_loops(gains, clusters, table, design_grid,
                                     f_bw, spec, model.workspace)
            loops = _audit_scheduled_loops(loops, order, clusters, gains,
                                           f_bw, spec, freqs, audit_grid,
                                           audit_frfs, model.workspace)
        return ControllerSet(loops=loops, t_u=t_u, t_y=t_y, loop_order=order,
                             achieved_bandwidth_hz=f_bw,
                             sensitivity_bound_db=spec.sensitivity_bound_db,
                             kind=kind)

    def feasible(f_bw: float):
        controllers = build(f_bw)
        report = certify(model, controllers, verify_grid, freq_grid)
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
        failures = best_report.failures()
        where = failures[0].p if failures else None
        raise DesignInfeasibleError(
            f"{kind} design infeasible even at {f_lo:.1f} Hz "
            f"(first failing position: {where})")
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
        elements = list(cascade.fixed_part)
        # freeze_notches returns (f1, f2, beta1, beta2), Notch's field order.
        for spec in cascade.scheduled_part:
            elements.append(
                Notch(*(float(c[0]) for c in freeze_notches(spec, p[None]))))
        loops.append(Cascade(tuple(elements), n_fixed=len(elements)))
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
            t_u=np.asarray(data["t_u"], dtype=float),
            t_y=np.asarray(data["t_y"], dtype=float),
            loop_order=tuple(int(i) for i in data["loop_order"]),
            achieved_bandwidth_hz=float(data["achieved_bandwidth_hz"]),
            sensitivity_bound_db=float(data.get("sensitivity_bound_db", 6.0)),
            kind=str(data.get("kind", "lti")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad controller set entry: {exc}") from exc


def design_spec_to_dict(spec: DesignSpec) -> dict:
    out = {
        "target_bandwidth_hz": float(spec.target_bandwidth_hz),
        "sensitivity_bound_db": float(spec.sensitivity_bound_db),
        "alpha": float(spec.alpha),
        "n_leads": int(spec.n_leads),
        "surface_order": int(spec.surface_order),
        "min_bandwidth_hz": float(spec.min_bandwidth_hz),
        "bisection_iterations": int(spec.bisection_iterations),
    }
    if spec.design_grid is not None:
        out["design_grid"] = [[float(v) for v in p] for p in spec.design_grid]
    if spec.verification_grid is not None:
        out["verification_grid"] = [[float(v) for v in p]
                                    for p in spec.verification_grid]
    if spec.loop_order is not None:
        out["loop_order"] = [int(i) for i in spec.loop_order]
    return out


def design_spec_from_dict(data: dict) -> DesignSpec:
    try:
        kwargs = {}
        for key in ("target_bandwidth_hz", "sensitivity_bound_db", "alpha",
                    "min_bandwidth_hz"):
            if key in data:
                kwargs[key] = float(data[key])
        for key in ("n_leads", "surface_order", "bisection_iterations"):
            if key in data:
                kwargs[key] = int(data[key])
        if "design_grid" in data:
            kwargs["design_grid"] = np.asarray(data["design_grid"], float)
        if "verification_grid" in data:
            kwargs["verification_grid"] = np.asarray(
                data["verification_grid"], float)
        if "loop_order" in data:
            kwargs["loop_order"] = tuple(int(i) for i in data["loop_order"])
        return DesignSpec(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad design spec entry: {exc}") from exc
