"""Reference RK4 stepper for the simulator: the interpreted per-stage loop.

This is the integration loop the simulator ran before it assembled the
closed loop per step.  It walks the plant, the axis transforms and each
loop's controller stage by stage, so it shares no arithmetic with the
assembled A_k / g_k path, and it is fed the same per-sample tables
(sim._run_tables), with the loop realizations padded to one block width.
The agreement tests in test_sim.py and test_acceptance.py hold the
simulator to it.
"""

import numpy as np

from lpvslc import sim
from lpvslc._kernels import DIVERGENCE_LIMIT


def _sim_loop(n_steps, dt, n_q, n_l,
              km, dm, b_t, c_t, bs_t, sp,
              ac_t, bc_t, cc_t, dc_t, sc,
              r_h, uff_h, fsc_h, fb, t_u,
              x0, y_t, u_t, x_t):
    """Fixed-step RK4 of the plant + controller cascade, p frozen per step.

    State layout (flat): modal displacements (n_q), modal velocities (n_q),
    then one controller block of width nc_max per loop; unused padding slots
    in short controller blocks have all-zero rows and stay exactly zero.

    km, dm        stiffness/mass and damping/mass modal diagonals (n_q,)
    b_t           modal force per axis command, (phi_a @ T_u)/m, (nt, n_q, n_l)
    c_t           axis output map T_y @ phi_s, (nt, n_l, n_q)
    bs_t          modal force per in-plane propulsion force, /m, (nt, n_q, 2)
    sp, sc        time stride (0 or 1) for the plant and controller tables
    ac_t..dc_t    per-loop controller matrices, (nt, n_l, nc, nc) etc.
    r_h, uff_h    loop references and axis feedforward on the half-step grid
    fsc_h         in-plane propulsion force on the half-step grid, (2n+1, 2)
    fb            1.0 with feedback closed, 0.0 with the loop opened
    t_u           axis-to-actuation allocation, used for the u trace only
    y_t, u_t, x_t output traces, one row per sample (n_steps + 1 rows)

    Returns -1 on success, else the index of the sample at which the state
    norm left the trusted range (caller raises with diagnosis).
    """
    n2 = 2 * n_q
    nx = x0.shape[0]
    nc = ac_t.shape[2]

    x = x0.copy()
    xt = np.empty(nx)
    ks = np.zeros((4, nx))
    e = np.empty(n_l)
    v = np.empty(n_l)
    u = np.empty(n_l)

    stage_w = (0.0, 0.5, 0.5, 1.0)
    stage_off = (0, 1, 1, 2)

    for k in range(n_steps + 1):
        kp = k * sp
        kc = k * sc
        c_k = c_t[kp]
        cc_k = cc_t[kc]
        dc_k = dc_t[kc]

        # Sample the outputs with the current state before stepping.
        q = x[:n_q]
        xc = x[n2:].reshape(n_l, nc)
        yv = np.dot(c_k, q)
        for i in range(n_l):
            e[i] = r_h[2 * k, i] - yv[i]
            v[i] = np.dot(cc_k[i], xc[i]) + dc_k[i] * e[i]
            u[i] = fb * v[i] + uff_h[2 * k, i]
        y_t[k] = yv
        u_t[k] = np.dot(t_u, u)
        x_t[k] = x
        if k == n_steps:
            break

        b_k = b_t[kp]
        bs_k = bs_t[kp]
        ac_k = ac_t[kc]
        bc_k = bc_t[kc]

        for s in range(4):
            if s == 0:
                xt[:] = x
            else:
                w = dt * stage_w[s]
                for j in range(nx):
                    xt[j] = x[j] + w * ks[s - 1, j]
            ii = 2 * k + stage_off[s]

            qs = xt[:n_q]
            qd = xt[n_q:n2]
            xcs = xt[n2:].reshape(n_l, nc)
            yv = np.dot(c_k, qs)
            for i in range(n_l):
                e[i] = r_h[ii, i] - yv[i]
                v[i] = np.dot(cc_k[i], xcs[i]) + dc_k[i] * e[i]
                u[i] = fb * v[i] + uff_h[ii, i]
            fm = np.dot(b_k, u) + np.dot(bs_k, fsc_h[ii])

            d = ks[s]
            d[:n_q] = qd
            d[n_q:n2] = -km * qs - dm * qd + fm
            dxc = d[n2:].reshape(n_l, nc)
            for i in range(n_l):
                dxc[i] = np.dot(ac_k[i], xcs[i]) + bc_k[i] * e[i]

        h6 = dt / 6.0
        for j in range(nx):
            x[j] += h6 * (ks[0, j] + 2.0 * ks[1, j] + 2.0 * ks[2, j] + ks[3, j])

        xm = np.max(np.abs(x))
        if not (xm <= DIVERGENCE_LIMIT):
            return k + 1
    return -1


def reference_traces(model, controllers, motion, config, x0_plant=None):
    """States, outputs y and actuation u of one run, by the reference loop."""
    status, *traces = reference_run(model, controllers, motion, config,
                                    x0_plant)
    assert status < 0, f"reference run diverged at step {status}"
    return tuple(traces)


def reference_run(model, controllers, motion, config, x0_plant=None):
    """(status, states, y, u) of one run by the reference loop; status is
    the reference _sim_loop's, -1 or the step after which the state norm
    left the trusted range.

    The stepper works on fixed-width controller blocks, so each loop's
    realization from the run tables is zero-padded here to the widest
    loop; the padding columns are dropped from the states returned.
    """
    tab = sim._run_tables(model, controllers, motion, config, x0_plant)
    n, n_q, n_l = config.n_steps, model.n_modes, controllers.n_loops
    widths = [k.n_states for k in tab.loops]
    nc = max(max(widths), 1)
    sc = 1 if any(k.a.ndim == 3 for k in tab.loops) else 0
    nt = n + 1 if sc else 1
    ac_t = np.zeros((nt, n_l, nc, nc))
    bc_t = np.zeros((nt, n_l, nc))
    cc_t = np.zeros((nt, n_l, nc))
    dc_t = np.zeros((nt, n_l))
    for i, (k, ns) in enumerate(zip(tab.loops, widths)):
        ac_t[:, i, :ns, :ns] = k.a
        bc_t[:, i, :ns] = k.b[..., 0]
        cc_t[:, i, :ns] = k.c[..., 0, :]
        dc_t[:, i] = k.d[..., 0, 0]
    keep = np.concatenate([np.arange(2 * n_q)] + [
        2 * n_q + i * nc + np.arange(ns) for i, ns in enumerate(widths)])
    x0 = np.zeros(2 * n_q + n_l * nc)
    x0[keep] = tab.x0
    y_t = np.zeros((n + 1, n_l))
    u_t = np.zeros((n + 1, n_l))
    x_t = np.zeros((n + 1, x0.size))
    status = _sim_loop(n, config.step_s, n_q, n_l, tab.km, tab.dm,
                       tab.b_t, tab.c_t, tab.bs_t, tab.sp,
                       ac_t, bc_t, cc_t, dc_t, sc,
                       tab.r_h, tab.uff_h, tab.fsc_h, tab.fb, tab.t_u,
                       x0, y_t, u_t, x_t)
    return status, x_t[:, keep], y_t, u_t


def max_relative_gap(result, reference):
    """Largest |difference| over each trace's largest |reference| entry.

    result is a SimResult; reference the (states, y, u) of reference_traces.
    """
    gaps = {}
    for name, want in zip(("states", "y", "u"), reference):
        got = getattr(result, name)
        assert got.shape == want.shape
        scale = np.abs(want).max()
        gaps[name] = np.abs(got - want).max() / scale if scale > 0 else \
            np.abs(got).max()
    return gaps
