"""RK4 step loop of the assembled closed loop.

The simulator turns the plant, the axis transforms and every loop's
controller into a closed-loop state matrix A_k per step and an input map:
design.close_loops writes A_k and the reference and feedforward columns,
and sim._assemble adds the propulsion force and folds the map into the
affine input g_k, sampled at the step's start, midpoint and end.  Within
step k the state then obeys x' = A_k x + g(t), and one classical RK4 step
costs four matrix-vector products.  The simulator hands the loop one
assembled block of steps at a time, and the loop checks the state norm
once per block, over the rows it filled in.  The loop runs in numpy and
allocates nothing per step; the simulator fetches it through get_backend.
"""

from __future__ import annotations

import numpy as np

DIVERGENCE_LIMIT = 1.0e6


def _sim_loop(n_steps, dt, a_t, g_t, x_t):
    """Fixed-step RK4 of x' = A_k x + g over n_steps steps from x_t[0].

    a_t     closed-loop state matrices, one per step, (n_steps, nx, nx)
    g_t     affine input per step at its start, midpoint and end, (n_steps, 3, nx)
    x_t     state trace, (n_steps + 1, nx); row 0 is the initial state and
            rows 1.. are filled in

    Returns -1 on success, else the index of the first step after which the
    state norm left the trusted range (caller raises with diagnosis).  The
    norm is checked once, over all the rows filled in, after the last step;
    the steps after a divergence run on without floating-point warnings,
    and their rows are not to be used.

    Each step evaluates x + h6 (k1 + 2 k2 + 2 k3 + k4) in 18 numpy calls,
    each writing into a buffer made before the loop: A_k v into its row of
    the (4, nx) stage buffer, the stage sum into s.  The inputs come from
    three column views of g_t, not a (3, nx) row unpacked per step.  The
    bits are those of the textbook expression evaluated left to right: an
    output buffer does not change rounding, k + k is 2 k exactly, the
    axis-0 reduction adds the rows in order, and a step size held as an
    nx-vector multiplies elementwise as the scalar would.
    """
    nx = x_t.shape[1]
    h2, h, h6 = (np.full(nx, c) for c in (0.5 * dt, dt, dt / 6.0))
    k = np.empty((4, nx))
    k1, k2, k3, k4 = k
    k23 = k[1:3]
    v, s = np.empty(nx), np.empty(nx)
    x = x_t[0]
    add, mul, total = np.add, np.multiply, np.add.reduce
    with np.errstate(all="ignore"):
        for a, g0, g1, g2, y in zip(a_t, g_t[:, 0], g_t[:, 1], g_t[:, 2],
                                    x_t[1:n_steps + 1]):
            dot = a.dot
            add(dot(x, k1), g0, k1)
            add(x, mul(h2, k1, v), v)
            add(dot(v, k2), g1, k2)
            add(x, mul(h2, k2, v), v)
            add(dot(v, k3), g1, k3)
            add(x, mul(h, k3, v), v)
            add(dot(v, k4), g2, k4)
            add(k23, k23, k23)
            add(x, mul(h6, total(k, 0, None, s), v), y)
            x = y
    bad = ~(np.abs(x_t[1:n_steps + 1]).max(axis=1) <= DIVERGENCE_LIMIT)
    return int(np.argmax(bad)) + 1 if bad.any() else -1


def default_backend_name() -> str:
    """Name of the integration kernel, recorded in run environments."""
    return "numpy"


def get_backend():
    """The integration kernel: _sim_loop."""
    return _sim_loop
