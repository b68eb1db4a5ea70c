"""Reference assembly of one block of the simulator's closed loop.

This is sim._assemble as it was while the simulator wrote the reference
and feedforward columns of the input map itself, next to
design.close_loops writing the state matrix: the frame, close_loops and
the per-loop input-map loop are copied verbatim.  Each call builds its
blocks from zeros.  test_acceptance.py holds sim._assemble to its bytes,
negative zeros included.
"""

import numpy as np

from lpvslc.plant import FrozenStateSpace


def closed_loop_frame(rows, km, dm, loops) -> np.ndarray:
    """The open modal plant in a closed-loop stack, (rows, N, N).

    Zeros, but for the identity from velocities to displacements and -km
    and -dm on the diagonals; N is 2 km.size plus the loops' state counts.
    close_loops writes every loop's entries, and a frame can be refilled
    by it any number of times.
    """
    n_q = km.size
    n_x = 2 * n_q + sum(k.n_states for k in loops)
    a = np.zeros((rows, n_x, n_x))
    iq = np.arange(n_q)
    a[:, iq, n_q + iq] = 1.0
    a[:, n_q + iq, iq] = -km
    a[:, n_q + iq, n_q + iq] = -dm
    return a


def close_loops(a, b, c, km, loops, fb) -> None:
    """Close every loop around the modal plant in closed_loop_frame's stack.

    a       closed_loop_frame's stack for the same loops, or its first rows
    b       modal force per axis command, (Phi_a T_u) / m, (rows, n_q, n_l)
    c       axis outputs T_y Phi_s, (rows, n_l, n_q)
    km      stiffness/mass modal diagonal, (n_q,)
    loops   each loop's realization: one system, which every row shares,
            or a stack with one system per row
    fb      1.0 with the loops closed, 0.0 with them open

    With x = [q; qd; xc_1 .. xc_nl], loop i closes e_i = r_i - (c q)_i
    through xc_i' = A_i xc_i + B_i e_i, and fb (C_i xc_i + D_i e_i) drives
    the modes through column i of b.  Every entry that depends on b, c or
    a loop is written; every row is computed on its own.
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
        a[:, xc, xc] = k.a
        at = xc.stop


def assemble(tab, k0, k1):
    """(a, g_map, g) of steps k0..k1-1 from the simulator's run tables tab:
    the state matrices, the input map of w = [r | u_ff | f_scan] and the
    folded inputs, in fresh arrays."""
    n_q, n_l = tab.km.size, len(tab.loops)
    rows = slice(k0, k1)
    b = tab.b_t[rows]
    loops = [k if k.a.ndim == 2 else
             FrozenStateSpace(k.a[rows], k.b[rows], k.c[rows], k.d[rows])
             for k in tab.loops]
    a = closed_loop_frame(len(b), tab.km, tab.dm, loops)
    close_loops(a, b, tab.c_t[rows], tab.km, loops, tab.fb)
    g_map = np.zeros((len(b), a.shape[1], 2 * n_l + 2))
    qd = slice(n_q, 2 * n_q)
    at = 2 * n_q
    for i, k in enumerate(loops):
        xc = slice(at, at + k.n_states)
        g_map[:, qd, i] = tab.fb * k.d[..., 0] * b[:, :, i]
        g_map[:, xc, i] = k.b[..., 0]
        g_map[:, qd, n_l + i] = b[:, :, i]
        at = xc.stop
    g_map[:, qd, 2 * n_l:] = tab.bs_t[rows]
    w = np.stack([tab.w_h[2 * k0 + s:2 * k1 + s:2] for s in range(3)], axis=2)
    g = np.ascontiguousarray(np.matmul(g_map, w).transpose(0, 2, 1))
    return a, g_map, g
