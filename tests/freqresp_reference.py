"""Reference frequency responses: dense solves that share no arithmetic
with the closed forms in freqresp, and two that share it.

dense_frf is the resolvent of any realization, one LAPACK solve per
frequency.  freqresp.frf evaluated it this way before it summed the modal
form in closed form; the agreement tests hold the closed form to it, and
the filter tests use it as the generic evaluator of filter realizations.

block_solve_equivalent_plant is the block solve over all closed loops at
once, the formula freqresp.equivalent_plant evaluated before it closed
loops by sequential rank-one updates.  With J the loops other than i,

    g_i = P_ii - P_iJ (I + K_J P_JJ)^-1 K_J P_Ji,

solved by LAPACK at every frequency.  It shares no arithmetic with the
rank-one closure, so the agreement tests in test_design.py hold the
closure to it.

Two references share freqresp's arithmetic and keep its earlier data
layout.  full_update_equivalent_plant is the rank-one closure as it ran
before it formed only the entries later closures read: every closure
updates the whole plant.  fancy_index_det_stacked is the determinant
elimination as it ran before it worked on contiguous per-entry planes.
The oracle tests hold freqresp to both bit for bit.
"""

import numpy as np


def dense_frf(ss, freqs_hz):
    """H(j omega) = C (j omega I - A)^-1 B + D, shape (F, n_y, n_u)."""
    w = 2.0 * np.pi * np.asarray(freqs_hz, dtype=float)
    n = ss.n_states
    lhs = np.zeros((len(w), n, n), dtype=complex)
    lhs[:] = -ss.a
    idx = np.arange(n)
    lhs[:, idx, idx] += 1j * w[:, None]
    rhs = np.broadcast_to(ss.b.astype(complex), (len(w), n, ss.b.shape[1])).copy()
    x = np.linalg.solve(lhs, rhs)
    return ss.c @ x + ss.d


def block_solve_equivalent_plant(p_frf, k_frfs, i):
    p_frf = np.asarray(p_frf)
    F, n, _ = p_frf.shape
    if n == 1:
        return p_frf[:, 0, 0].copy()
    others = [j for j in range(n) if j != i]
    k_other = np.stack(
        [np.broadcast_to(np.asarray(k_frfs[j], dtype=complex), (F,))
         for j in others], axis=1)
    p_jj = p_frf[np.ix_(np.arange(F), others, others)]
    p_ij = p_frf[:, i, others]
    p_ji = p_frf[:, others, i]
    m = np.eye(n - 1)[None, :, :] + k_other[:, :, None] * p_jj
    x = np.linalg.solve(m, (k_other * p_ji)[:, :, None])
    return p_frf[:, i, i] - np.einsum("fj,fj->f", p_ij, x[:, :, 0])


def full_update_equivalent_plant(p_frf, k_frfs, i):
    """freqresp.equivalent_plant with every closure a rank-one update of
    the whole (..., F, n, n) plant."""
    p = np.asarray(p_frf)
    closing = [j for j, k_j in enumerate(k_frfs)
               if j != i and not (np.isscalar(k_j) and k_j == 0.0)]
    for j in closing:
        k_j = k_frfs[j]
        den = 1.0 + k_j * p[..., j, j]
        if j == closing[-1]:
            return p[..., i, i] - p[..., i, j] * (k_j / den) * p[..., j, i]
        p = p - (p[..., :, j, None] * (k_j / den)[..., None, None]
                 * p[..., None, j, :])
    return p[..., i, i].copy()


def fancy_index_det_stacked(mats):
    """Determinants of a stack (F, n, n) by partial-pivoted elimination of
    the whole stack with fancy-indexed row swaps."""
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
