"""Reference frequency responses: dense solves that share no arithmetic
with the closed forms in freqresp.

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
