"""Frequency response evaluation and frequency-domain stability analysis.

Multivariable designs are reduced to single loops through equivalent plants:
closing every loop j != i of a square plant P with -k_j feedback leaves the
scalar transfer seen by controller i,

    g_i = P_ii - P_iJ (I + K_J P_JJ)^-1 K_J P_Ji,   J = {j != i}.

The determinant identity det(I + P K) = prod_i (1 + g_i k_i) ties the
individual loops back to the full MIMO return difference and is used as a
certification residual.

Closed-loop stability of each scalar loop is decided by the Nyquist
criterion evaluated on sampled frequency response data. Poles at the origin
(integrator action on a rigid-body plant) are handled by the standard right
indentation: the detour contributes a clockwise arc of q half-turns at large
radius, where q is the origin-pole count estimated from the low-frequency
magnitude slope. The sampled part of the contour is refined until the phase
of 1 + L steps by less than 90 degrees between neighboring points, so the
winding number is unambiguous.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .io import dump_csv
from .plant import FrozenStateSpace

__all__ = [
    "FrequencyGrid",
    "default_grid",
    "frf",
    "equivalent_plant",
    "det_identity_residual",
    "StabilityVerdict",
    "nyquist_stable",
    "LoopMargins",
    "margins_and_bandwidth",
    "write_frf_csv",
]

log = logging.getLogger(__name__)

DEFAULT_FMIN_HZ = 1.0
DEFAULT_FMAX_HZ = 5000.0
DEFAULT_NPOINTS = 1000


@dataclass(frozen=True)
class FrequencyGrid:
    """Strictly increasing positive frequency samples in Hz."""

    freqs_hz: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.freqs_hz, dtype=float)
        if f.ndim != 1 or len(f) < 2:
            raise DomainError("frequency grid needs at least two points")
        if f[0] <= 0.0 or np.any(np.diff(f) <= 0.0):
            raise DomainError("frequencies must be positive and strictly increasing")
        object.__setattr__(self, "freqs_hz", f)

    def __len__(self) -> int:
        return len(self.freqs_hz)

    @property
    def omega(self) -> np.ndarray:
        return 2.0 * np.pi * self.freqs_hz


def default_grid(
    fmin_hz: float = DEFAULT_FMIN_HZ,
    fmax_hz: float = DEFAULT_FMAX_HZ,
    n: int = DEFAULT_NPOINTS,
) -> FrequencyGrid:
    return FrequencyGrid(np.geomspace(fmin_hz, fmax_hz, n))


def frf(ss: FrozenStateSpace, freqs_hz) -> np.ndarray:
    """H(j omega) = C (j omega I - A)^-1 B + D, shape (F, n_y, n_u)."""
    freqs_hz = np.asarray(freqs_hz, dtype=float)
    w = 2.0 * np.pi * freqs_hz
    n = ss.n_states
    lhs = np.zeros((len(w), n, n), dtype=complex)
    lhs[:] = -ss.a
    idx = np.arange(n)
    lhs[:, idx, idx] += 1j * w[:, None]
    rhs = np.broadcast_to(ss.b.astype(complex), (len(w), n, ss.b.shape[1])).copy()
    x = np.linalg.solve(lhs, rhs)
    return ss.c @ x + ss.d


def equivalent_plant(p_frf: np.ndarray, k_frfs, i: int) -> np.ndarray:
    """Scalar plant seen by loop i after closing every other loop with -k_j.

    p_frf: (F, n, n) plant samples; k_frfs: sequence of n per-loop controller
    samples (entry i is ignored, scalars broadcast). Returns shape (F,).
    """
    p_frf = np.asarray(p_frf)
    F, n, _ = p_frf.shape
    if n == 1:
        return p_frf[:, 0, 0].copy()
    others = [j for j in range(n) if j != i]
    k_other = np.stack(
        [np.broadcast_to(np.asarray(k_frfs[j], dtype=complex), (F,)) for j in others], axis=1
    )
    p_jj = p_frf[np.ix_(np.arange(F), others, others)]
    p_ij = p_frf[:, i, others]
    p_ji = p_frf[:, others, i]
    m = np.eye(n - 1)[None, :, :] + k_other[:, :, None] * p_jj
    try:
        x = np.linalg.solve(m, (k_other * p_ji)[:, :, None])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular loop closure for loop {i}: {exc}") from exc
    return p_frf[:, i, i] - np.einsum("fj,fj->f", p_ij, x[:, :, 0])


def _det_stacked(mats: np.ndarray) -> np.ndarray:
    """Determinants of a stack (F, n, n) by partial-pivoted elimination.

    Reduces to the plain ordered product of diagonal entries for diagonal
    matrices, so the identity residual is exactly zero in that case.
    """
    m = np.array(mats, dtype=complex)
    F, n, _ = m.shape
    det = np.ones(F, dtype=complex)
    rows = np.arange(F)
    for i in range(n):
        pivot_idx = np.argmax(np.abs(m[:, i:, i]), axis=1) + i
        tmp = m[rows, pivot_idx, :].copy()
        m[rows, pivot_idx, :] = m[:, i, :]
        m[:, i, :] = tmp
        det = np.where(pivot_idx != i, -det, det)
        piv = m[:, i, i]
        det = det * piv
        if i + 1 < n:
            piv_safe = np.where(piv == 0.0, 1.0, piv)
            factors = m[:, i + 1 :, i] / piv_safe[:, None]
            m[:, i + 1 :, i:] = m[:, i + 1 :, i:] - factors[:, :, None] * m[:, i, i:][:, None, :]
    return det


def det_identity_residual(p_frf: np.ndarray, k_frfs, loop_order=None) -> float:
    """Mismatch between det(I + P K) and the product of equivalent loops.

    The product telescopes exactly when each factor uses the design-step
    equivalent plant, i.e. loop i sees the loops designed before it closed
    and the later ones still open:

        det(I + P K) = prod_i (1 + g_i k_i),
        g_i = equivalent_plant(P, [k_j for j before i, else 0], i).

    Returns the max over the grid of the pointwise relative error
    |lhs - rhs| / |lhs|.
    """
    p_frf = np.asarray(p_frf)
    F, n, _ = p_frf.shape
    order = list(range(n)) if loop_order is None else list(loop_order)
    k = np.stack(
        [np.broadcast_to(np.asarray(k_frfs[j], dtype=complex), (F,)) for j in range(n)], axis=1
    )
    lhs = _det_stacked(np.eye(n)[None, :, :] + p_frf * k[:, None, :])
    rhs = np.ones(F, dtype=complex)
    closed: list = [np.zeros(F, dtype=complex)] * n
    for i in order:
        g_i = equivalent_plant(p_frf, closed, i)
        rhs = rhs * (1.0 + g_i * k[:, i])
        closed[i] = k[:, i]
    return float(np.max(np.abs(lhs - rhs) / np.abs(lhs)))


@dataclass
class StabilityVerdict:
    stable: bool
    encirclements: int  # clockwise encirclements of -1
    n_origin_poles: int
    n_open_rhp: int
    winding_float: float  # pre-rounding value, for diagnostics
    n_freqs_used: int


@dataclass
class LoopMargins:
    f_crossover_hz: float
    phase_margin_deg: float
    gain_margin_db: float
    sensitivity_peak_db: float


def _estimate_origin_poles(freqs_hz: np.ndarray, l_frf: np.ndarray) -> int:
    """Origin-pole count from the low-frequency magnitude slope of L."""
    npts = min(8, len(freqs_hz) // 4 + 2)
    logf = np.log10(freqs_hz[:npts])
    logm = np.log10(np.abs(l_frf[:npts]))
    slope = np.polyfit(logf, logm, 1)[0]
    q = max(0, int(round(-slope)))
    if abs(-slope - round(-slope)) > 0.3:
        log.warning("low-frequency slope %.2f is far from an integer; using q=%d", slope, q)
    return q


def _interp_refiner(freqs_hz: np.ndarray, l_frf: np.ndarray):
    """Fallback evaluator: log-frequency interpolation of magnitude and phase."""
    logf = np.log10(freqs_hz)
    logm = np.log(np.abs(l_frf))
    ph = np.unwrap(np.angle(l_frf))

    def evaluate(f_new: np.ndarray) -> np.ndarray:
        lf = np.log10(f_new)
        return np.exp(np.interp(lf, logf, logm) + 1j * np.interp(lf, logf, ph))

    return evaluate


def _refine_phase_steps(freqs_hz, l_frf, evaluator, max_rounds=15, step_limit=np.pi / 2):
    """Insert midpoints until arg(1 + L) steps stay below the limit."""
    f = np.asarray(freqs_hz, dtype=float)
    l_vals = np.asarray(l_frf, dtype=complex)
    for _ in range(max_rounds):
        phase = np.unwrap(np.angle(1.0 + l_vals))
        bad = np.abs(np.diff(phase)) > step_limit
        if not np.any(bad):
            return f, l_vals
        idx = np.flatnonzero(bad)
        mid = np.sqrt(f[idx] * f[idx + 1])
        l_mid = evaluator(mid)
        f = np.insert(f, idx + 1, mid)
        l_vals = np.insert(l_vals, idx + 1, l_mid)
    raise NumericalError("phase steps of 1+L not resolvable by grid refinement")


def nyquist_stable(
    freqs_hz,
    l_frf,
    n_open_rhp: int = 0,
    evaluator=None,
    n_origin_poles: int | None = None,
) -> StabilityVerdict:
    """Nyquist criterion on sampled L(j omega) with conjugate-symmetric extension.

    evaluator, when given, maps an array of frequencies in Hz to L samples and
    is used both for phase-step refinement and for extending the grid until
    |L| is large at the bottom (origin-pole closure) and small at the top.
    """
    f = np.asarray(freqs_hz, dtype=float)
    l_vals = np.asarray(l_frf, dtype=complex)
    if f.shape != l_vals.shape:
        raise DomainError("freqs and L must have matching shapes")

    q = _estimate_origin_poles(f, l_vals) if n_origin_poles is None else int(n_origin_poles)

    # The sampled contour must start where |L| dwarfs 1 (if there are origin
    # poles) and end where L has died out, otherwise extend.
    if evaluator is not None:
        rounds = 0
        while q > 0 and np.abs(l_vals[0]) < 10.0 and rounds < 12:
            f_new = f[0] / np.array([4.0, 2.0])
            l_vals = np.concatenate([evaluator(f_new), l_vals])
            f = np.concatenate([f_new, f])
            rounds += 1
        rounds = 0
        while np.abs(l_vals[-1]) > 0.2 and rounds < 12:
            f_new = f[-1] * np.array([2.0, 4.0])
            l_vals = np.concatenate([l_vals, evaluator(f_new)])
            f = np.concatenate([f, f_new])
            rounds += 1
    if q > 0 and np.abs(l_vals[0]) < 2.0:
        log.warning("|L| = %.3g at the low end; origin-pole closure may be unreliable", np.abs(l_vals[0]))
    if np.abs(l_vals[-1]) > 0.5:
        log.warning("|L| = %.3g at the high end; high-frequency closure may be unreliable", np.abs(l_vals[-1]))

    if evaluator is None:
        evaluator = _interp_refiner(f, l_vals)
    f, l_vals = _refine_phase_steps(f, l_vals, evaluator)

    phase = np.unwrap(np.angle(1.0 + l_vals))
    delta = phase[-1] - phase[0]
    # Positive-frequency sweep counted twice (conjugate symmetry), plus the
    # clockwise arc of q half-turns from the origin indentation.
    winding = (2.0 * delta - q * np.pi) / (2.0 * np.pi)
    w_round = int(round(winding))
    if abs(winding - w_round) > 0.2:
        log.warning("winding number %.3f is far from an integer", winding)
    encirclements = -w_round  # clockwise
    z = encirclements + int(n_open_rhp)
    return StabilityVerdict(
        stable=(z == 0),
        encirclements=encirclements,
        n_origin_poles=q,
        n_open_rhp=int(n_open_rhp),
        winding_float=float(winding),
        n_freqs_used=len(f),
    )


def margins_and_bandwidth(freqs_hz, l_frf) -> LoopMargins:
    """Crossover, phase margin, gain margin, and peak sensitivity of one loop.

    The crossover is the lowest |L| = 1 crossing, interpolated linearly in
    log magnitude over log frequency. The sensitivity peak is evaluated on
    the supplied grid.
    """
    f = np.asarray(freqs_hz, dtype=float)
    l_vals = np.asarray(l_frf, dtype=complex)
    logm = np.log10(np.abs(l_vals))
    phase = np.unwrap(np.angle(l_vals))

    if logm[0] == 0.0:
        f_c, ph_c = f[0], phase[0]
    else:
        cross = np.flatnonzero(logm[:-1] * logm[1:] <= 0.0)
        if len(cross) == 0:
            raise NumericalError("|L| never crosses unity on the grid")
        i = cross[0]
        t = logm[i] / (logm[i] - logm[i + 1])
        f_c = 10.0 ** (np.log10(f[i]) + t * (np.log10(f[i + 1]) - np.log10(f[i])))
        ph_c = phase[i] + t * (phase[i + 1] - phase[i])

    pm = np.degrees(ph_c) + 180.0
    pm = (pm + 180.0) % 360.0 - 180.0

    # Classical gain margin: negative-real-axis crossings (Im L sign change,
    # Re L < 0) in the sub-unity region above crossover.
    gm_db = np.inf
    im, re = l_vals.imag, l_vals.real
    for i in np.flatnonzero(im[:-1] * im[1:] < 0.0):
        if f[i + 1] < f_c or re[i] >= 0.0:
            continue
        t = im[i] / (im[i] - im[i + 1])
        mag_180 = 10.0 ** (logm[i] + t * (logm[i + 1] - logm[i]))
        if mag_180 < 1.0:
            gm_db = min(gm_db, -20.0 * np.log10(mag_180))
    sens_peak_db = float(np.max(-20.0 * np.log10(np.abs(1.0 + l_vals))))
    return LoopMargins(
        f_crossover_hz=float(f_c),
        phase_margin_deg=float(pm),
        gain_margin_db=float(gm_db),
        sensitivity_peak_db=sens_peak_db,
    )


def write_frf_csv(path, freqs_hz, h: np.ndarray) -> None:
    """Columns: freq_hz, then re_ij, im_ij per output/input pair (1-based)."""
    h = np.asarray(h)
    if h.ndim == 1:
        h = h[:, None, None]
    F, ny, nu = h.shape
    header = ["freq_hz"]
    cols = [np.asarray(freqs_hz, dtype=float)]
    for i in range(ny):
        for j in range(nu):
            header += [f"re_{i + 1}{j + 1}", f"im_{i + 1}{j + 1}"]
            cols += [h[:, i, j].real, h[:, i, j].imag]
    dump_csv(path, header, cols)
