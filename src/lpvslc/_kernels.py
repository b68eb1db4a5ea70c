"""RK4 step loop of the assembled closed loop.

The simulator (see sim._assemble) turns the plant, the axis transforms and
every loop's controller into one closed-loop state matrix A_k per step and
folds the loop references, axis feedforward and propulsion force into the
affine input g_k, sampled at the step's start, midpoint and end.  Within
step k the state then obeys x' = A_k x + g(t), and one classical RK4 step
costs four matrix-vector products.  The simulator hands the loop one
assembled block of steps at a time, and the loop checks the state norm
once per block, over the rows it filled in, rather than after every step.
The loop runs in numpy; the simulator fetches it through get_backend.
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
    """
    x = x_t[0].copy()
    h2 = 0.5 * dt
    h6 = dt / 6.0
    with np.errstate(all="ignore"):
        for k in range(n_steps):
            a = a_t[k]
            g = g_t[k]
            k1 = a.dot(x) + g[0]
            k2 = a.dot(x + h2 * k1) + g[1]
            k3 = a.dot(x + h2 * k2) + g[1]
            k4 = a.dot(x + dt * k3) + g[2]
            x = x + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            x_t[k + 1] = x
    bad = ~(np.abs(x_t[1:n_steps + 1]).max(axis=1) <= DIVERGENCE_LIMIT)
    return int(np.argmax(bad)) + 1 if bad.any() else -1


def default_backend_name() -> str:
    """Name of the integration kernel, recorded in run environments."""
    return "numpy"


def get_backend():
    """The integration kernel: _sim_loop."""
    return _sim_loop
