"""Frequency response evaluation and frequency-domain stability analysis.

Multivariable designs are reduced to single loops through equivalent plants:
closing every loop j != i of a square plant P with -k_j feedback leaves the
scalar transfer seen by controller i,

    g_i = P_ii - P_iJ (I + K_J P_JJ)^-1 K_J P_Ji,   J = {j != i}.

It is evaluated the way sequential loop closing builds it: one loop at a
time, each closure a rank-one (Sherman-Morrison) update of the plant,
P <- P - P[:, j] k_j / (1 + k_j P_jj) P[j, :], formed only where later
closures read it and vectorized over frequency, with no per-frequency
linear solve.

The determinant identity det(I + P K) = prod_i (1 + g_i k_i) ties the
individual loops back to the full MIMO return difference and is used as a
certification residual.

Closed-loop stability of each scalar loop is decided by the Nyquist
criterion evaluated on sampled frequency response data. Poles at the origin
(integrator action on a rigid-body plant) are handled by the standard right
indentation: the detour contributes a clockwise arc of q half-turns at large
radius, where q is the origin-pole count the caller gives. The caller also
gives an evaluator of the exact loop response: with it the sampled contour
is extended at both ends until |L| dwarfs 1 at the bottom and has died out
at the top, and refined until the phase of 1 + L steps by less than 90
degrees between neighboring points, so the winding number is unambiguous.
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
    "design_chain",
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
    """Strictly increasing, positive, finite frequency samples in Hz."""

    freqs_hz: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.freqs_hz, dtype=float)
        if f.ndim != 1 or len(f) < 2:
            raise DomainError("frequency grid needs at least two points")
        if not np.all(np.isfinite(f)):
            raise DomainError("frequencies must be finite")
        if f[0] <= 0.0 or np.any(np.diff(f) <= 0.0):
            raise DomainError("frequencies must be positive and strictly increasing")
        object.__setattr__(self, "freqs_hz", f)

    def __len__(self) -> int:
        return len(self.freqs_hz)


def default_grid(
    fmin_hz: float = DEFAULT_FMIN_HZ,
    fmax_hz: float = DEFAULT_FMAX_HZ,
    n: int = DEFAULT_NPOINTS,
) -> FrequencyGrid:
    with np.errstate(invalid="ignore"):   # FrequencyGrid rejects inf and NaN
        return FrequencyGrid(np.geomspace(fmin_hz, fmax_hz, n))


def frf(ss: FrozenStateSpace, freqs_hz) -> np.ndarray:
    """H(j omega), shape (F, n_y, n_u), of one realization in the modal form
    plant.frozen_realization builds, A = [[0, I], [-diag(k), -diag(d)]],
    B = [0; B_q], C = [C_q, 0]; k and d are read from A and there is no solve:
    H = sum_k C_q[:, k] B_q[k, :] / (k_k - omega^2 + j omega d_k) + D."""
    n_q = ss.n_states // 2
    k, d = -np.diagonal(ss.a, -n_q), -np.diagonal(ss.a)[n_q:]
    if ss.a.shape != (2 * n_q, 2 * n_q) or ss.b[:n_q].any() or ss.c[:, n_q:].any() \
            or not np.array_equal(ss.a, np.block([[np.zeros((n_q, n_q)), np.eye(n_q)],
                                                  [np.diag(-k), np.diag(-d)]])):
        raise DomainError("frf needs a realization in second-order modal form")
    w = 2.0 * np.pi * np.asarray(freqs_hz, dtype=float)[:, None]
    residues = ss.c[:, :n_q].T[:, :, None] * ss.b[n_q:, None, :]
    h = (1.0 / ((k - w ** 2) + 1j * (w * d))) @ residues.reshape(n_q, -1)
    return h.reshape(len(w), *ss.d.shape) + ss.d


def equivalent_plant(p_frf: np.ndarray, k_frfs, i: int) -> np.ndarray:
    """Scalar plant seen by loop i after closing every other loop with -k_j.

    p_frf: (..., F, n, n) plant samples, one position or a stack of them;
    k_frfs: sequence of n per-loop controller samples, (..., F) each (entry
    i is ignored, scalars broadcast). Returns shape (..., F).

    Loops are closed one at a time, each a rank-one (Sherman-Morrison)
    update of the plant at every frequency,

        P <- P - P[:, j] k_j / (1 + k_j P_jj) P[j, :],

    which is exactly the sequential loop-closing step.  An update forms
    only the entries that a later closure or the result reads, those
    between loop i and the loops still to close, so the last closure forms
    only the entry (i, i) it returns.  Loops whose k_j is the scalar 0 are
    open and skipped. Raises NumericalError when a closure is singular,
    1 + k_j P_jj = 0 at some frequency.
    """
    p = np.asarray(p_frf)
    closing = [j for j, k_j in enumerate(k_frfs)
               if j != i and not (np.isscalar(k_j) and k_j == 0.0)]
    # Entries (r, c) of the plant closed so far, (..., F) each.
    q = {(r, c): p[..., r, c] for r in [i] + closing for c in [i] + closing}
    for t, j in enumerate(closing):
        k_j = k_frfs[j]
        den = 1.0 + k_j * q[j, j]
        if not np.all(den):
            raise NumericalError(
                f"singular loop closure for loop {i}: 1 + k_{j} P_{j}{j} "
                f"vanishes when closing loop {j}")
        gain = k_j / den
        if t == len(closing) - 1:
            return q[i, i] - q[i, j] * gain * q[j, i]
        keep = [i] + closing[t + 1:]
        q = {(r, c): q[r, c] - q[r, j] * gain * q[j, c]
             for r in keep for c in keep}
    return p[..., i, i].copy()


def _det_stacked(planes) -> np.ndarray:
    """Determinants of F matrices by partial-pivoted elimination.

    planes[r][c] is entry (r, c) of every matrix, a complex (F,) plane;
    the planes are eliminated plane by plane: the pivot is the first row
    of largest modulus in the column, row swaps are np.where selects, and
    entries left of the pivot column are never read again, so they are
    neither swapped nor updated.  Every arithmetic step is the one a
    fancy-indexed elimination of the (F, n, n) stack does, in the same
    order.  Reduces to the plain ordered product of diagonal entries for
    diagonal matrices, so the identity residual is exactly zero in that
    case.  The planes themselves are not modified.
    """
    n = len(planes)
    a = [list(row) for row in planes]
    det = np.ones(len(a[0][0]), dtype=complex)
    for i in range(n):
        best = np.abs(a[i][i])
        pivot = np.full(best.shape, i)
        for r in range(i + 1, n):
            mag = np.abs(a[r][i])
            take = mag > best
            pivot = np.where(take, r, pivot)
            best = np.where(take, mag, best)
        for r in range(i + 1, n):
            swap = pivot == r
            if swap.any():
                for c in range(i, n):
                    a[i][c], a[r][c] = (np.where(swap, a[r][c], a[i][c]),
                                        np.where(swap, a[i][c], a[r][c]))
        det = np.where(pivot != i, -det, det)
        piv = a[i][i]
        det = det * piv
        if i + 1 == n:
            break
        piv_safe = np.where(piv == 0.0, 1.0, piv)
        for r in range(i + 1, n):
            factor = a[r][i] / piv_safe
            for c in range(i + 1, n):
                a[r][c] = a[r][c] - factor * a[i][c]
    return det


def design_chain(p_frf: np.ndarray, k_frfs, loop_order=None) -> list:
    """Design-step equivalent plants of every loop, indexed by loop.

    Entry i is the plant loop i sees with the loops before it in loop_order
    closed and the later ones still open: the chain that sequential loop
    closing designs against and that certification checks.
    """
    n = np.shape(p_frf)[1]
    order = list(range(n)) if loop_order is None else list(loop_order)
    chain: list = [None] * n
    closed: list = [0.0] * n
    for i in order:
        chain[i] = equivalent_plant(p_frf, closed, i)
        closed[i] = k_frfs[i]
    return chain


def det_identity_residual(p_frf: np.ndarray, k_frfs, chain,
                          loop_order=None) -> float:
    """Mismatch between det(I + P K) and the product of equivalent loops.

    The product telescopes exactly when each factor uses the design-step
    equivalent plant, i.e. loop i sees the loops designed before it closed
    and the later ones still open:

        det(I + P K) = prod_i (1 + g_i k_i),
        g_i = design_chain(P, K, loop_order)[i].

    chain is that design_chain result, computed by the caller for the
    same loop_order.  Returns the max over the grid of the pointwise
    relative error |lhs - rhs| / |lhs|.  Each entry of I + P K is formed
    as its own contiguous (F,) plane, the layout _det_stacked eliminates,
    with no (F, n, n) stack in between.
    """
    p_frf = np.asarray(p_frf)
    F, n, _ = p_frf.shape
    order = list(range(n)) if loop_order is None else list(loop_order)
    k = [np.ascontiguousarray(np.broadcast_to(
        np.asarray(k_frfs[c], dtype=complex), (F,))) for c in range(n)]
    # Entry (r, c) of I + P K as its own (F,) plane.  The 0.0 + turns a
    # -0.0 into +0.0, as adding the identity matrix does.
    lhs = _det_stacked([[(1.0 if r == c else 0.0) + p_frf[:, r, c] * k[c]
                         for c in range(n)] for r in range(n)])
    rhs = np.ones(F, dtype=complex)
    for i in order:
        rhs = rhs * (1.0 + chain[i] * k[i])
    return float(np.max(np.abs(lhs - rhs) / np.abs(lhs)))


@dataclass
class StabilityVerdict:
    stable: bool
    encirclements: int  # clockwise encirclements of -1


@dataclass
class LoopMargins:
    f_crossover_hz: float
    phase_margin_deg: float
    gain_margin_db: float


def _refine_phase_steps(freqs_hz, l_frf, evaluator):
    """Unwrapped arg(1 + L), evaluator midpoints inserted until its steps
    stay below 90 degrees."""
    f = np.asarray(freqs_hz, dtype=float)
    l_vals = np.asarray(l_frf, dtype=complex)
    for _ in range(15):
        phase = np.unwrap(np.angle(1.0 + l_vals))
        bad = np.abs(np.diff(phase)) > np.pi / 2
        if not np.any(bad):
            return phase
        idx = np.flatnonzero(bad)
        mid = np.sqrt(f[idx] * f[idx + 1])
        f = np.insert(f, idx + 1, mid)
        l_vals = np.insert(l_vals, idx + 1, evaluator(mid))
    raise NumericalError("phase steps of 1+L not resolvable by grid refinement")


def nyquist_stable(freqs_hz, l_frf, evaluator,
                   n_origin_poles: int) -> StabilityVerdict:
    """Nyquist criterion on sampled L(j omega) with conjugate-symmetric extension.

    L may have no open-loop poles in the closed right half plane other than
    n_origin_poles poles at the origin, so it is stable exactly when -1 is
    not encircled.  Every loop of a sequential chain is such a loop once
    the loops before it are closed-loop stable: the decoupled plant's only
    poles off the open left half plane are its rigid-body double
    integrators, and a cascade's only one is its integrator.

    evaluator maps an array of frequencies in Hz to exact L samples.  It
    extends the grid until |L| is large at the bottom (origin-pole
    closure) and small at the top, and it refines the phase steps.
    """
    f = np.asarray(freqs_hz, dtype=float)
    l_vals = np.asarray(l_frf, dtype=complex)
    if f.shape != l_vals.shape:
        raise DomainError("freqs and L must have matching shapes")
    q = int(n_origin_poles)

    # The sampled contour must start where |L| dwarfs 1 (if there are origin
    # poles) and end where L has died out, otherwise extend.
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

    phase = _refine_phase_steps(f, l_vals, evaluator)
    delta = phase[-1] - phase[0]
    # Positive-frequency sweep counted twice (conjugate symmetry), plus the
    # clockwise arc of q half-turns from the origin indentation.
    winding = (2.0 * delta - q * np.pi) / (2.0 * np.pi)
    w_round = int(round(winding))
    if abs(winding - w_round) > 0.2:
        log.warning("winding number %.3f is far from an integer", winding)
    encirclements = -w_round  # clockwise
    return StabilityVerdict(stable=(encirclements == 0),
                            encirclements=encirclements)


def margins_and_bandwidth(freqs_hz, l_frf) -> LoopMargins:
    """Crossover, phase margin and gain margin of one loop.

    The crossover is the lowest |L| = 1 crossing, interpolated linearly in
    log magnitude over log frequency.
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
    return LoopMargins(
        f_crossover_hz=float(f_c),
        phase_margin_deg=float(pm),
        gain_margin_db=float(gm_db),
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
