"""Reference equivalent plant: the block solve over all closed loops at once.

This is the formula freqresp.equivalent_plant evaluated before it closed
loops by sequential rank-one updates.  With J the loops other than i,

    g_i = P_ii - P_iJ (I + K_J P_JJ)^-1 K_J P_Ji,

solved by LAPACK at every frequency.  It shares no arithmetic with the
rank-one closure, so the agreement tests in test_design.py hold the
closure to it.
"""

import numpy as np


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
