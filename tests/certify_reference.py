"""Reference certification: one grid position at a time.

This is design.certify as it ran before every loop was frozen once per
grid.  Per position it evaluates the plant FRF, each loop's cascade
response at that one position, the design chain once for the
determinant identity and again, loop by loop, for the Nyquist checks,
each of which gets loop_frf_at as its exact evaluator, and the
closed-loop state matrix with every loop realized at that one position,
whose eigenvalues it computes alone.  The agreement tests in
test_design.py hold the stacked certify to it bit for bit.

design_chain is freqresp.design_chain as it was when certification
walked the design chain a second time for its Nyquist evaluator, copied
verbatim; the tests hold design._loop_closures's chain to it.

_loop_closures is design._loop_closures as it ran before its walk
followed the loop order and stopped at a loop over the bound, copied
verbatim: it forms the whole design chain through design_chain
and every loop's peak, however early one is over the bound.  The tests
hold each bisection step's report, screened loop by loop, to the one this
screen gives.
"""

import numpy as np

from lpvslc.design import (
    CertificationReport,
    LoopCertification,
    PointCertification,
    _certification_freqs,
    decoupled_plant_frf,
)
from lpvslc.filters import (
    Integrator,
    LpvNotch,
    element_transfer,
    freeze_notches,
    notch_transfer,
    realize,
)
from lpvslc.freqresp import (
    det_identity_residual,
    equivalent_plant,
    margins_and_bandwidth,
    nyquist_stable,
)
from lpvslc.plant import frozen_realization


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


def cascade_frf_at(cascade, freqs, p):
    omega = 2.0 * np.pi * freqs
    out = np.ones(omega.shape, dtype=complex)
    for element in cascade.elements:
        if isinstance(element, LpvNotch):
            coeffs = freeze_notches([element], np.atleast_2d(p))[0]
            out = out * notch_transfer(*(float(c[0]) for c in coeffs), omega)
        else:
            out = out * element_transfer(element, omega)
    return out


def closed_loop_matrix_at(model, controllers, p):
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


def loop_frf_at(model, controllers, p, i, closed_loops, freqs):
    """L_i at p: the plant loop i sees with closed_loops closed, times k_i."""
    p_frf = decoupled_plant_frf(model, p, freqs, controllers.t_u,
                                controllers.t_y)
    k_frfs = [cascade_frf_at(c, freqs, p) if j in closed_loops
              else np.zeros(len(freqs), dtype=complex)
              for j, c in enumerate(controllers.loops)]
    return (equivalent_plant(p_frf, k_frfs, i)
            * cascade_frf_at(controllers.loops[i], freqs, p))


def reference_certify(model, controllers, grid):
    freqs = _certification_freqs()
    report = CertificationReport(bound_db=controllers.sensitivity_bound_db)
    for p in np.atleast_2d(np.asarray(grid, dtype=float)):
        p_frf = decoupled_plant_frf(model, p, freqs, controllers.t_u,
                                    controllers.t_y)
        k_frfs = [cascade_frf_at(c, freqs, p) for c in controllers.loops]
        det_res = det_identity_residual(
            p_frf, k_frfs,
            design_chain(p_frf, k_frfs, controllers.loop_order),
            controllers.loop_order)
        loop_certs = []
        closed = [np.zeros(len(freqs), dtype=complex)] * controllers.n_loops
        for n, i in enumerate(controllers.loop_order):
            l_frf = equivalent_plant(p_frf, closed, i) * k_frfs[i]
            verdict = nyquist_stable(
                freqs, l_frf,
                lambda f, i=i, done=controllers.loop_order[:n]: loop_frf_at(
                    model, controllers, p, i, done, f),
                2 + sum(isinstance(e, Integrator)
                        for e in controllers.loops[i].elements))
            margins = margins_and_bandwidth(freqs, l_frf)
            g_all = equivalent_plant(p_frf, k_frfs, i)
            loop_certs.append(LoopCertification(
                loop=int(i),
                nyquist_stable=verdict.stable,
                encirclements=verdict.encirclements,
                f_crossover_hz=margins.f_crossover_hz,
                phase_margin_deg=margins.phase_margin_deg,
                gain_margin_db=margins.gain_margin_db,
                sensitivity_peak_db=float(np.max(-20.0 * np.log10(
                    np.abs(1.0 + g_all * k_frfs[i])))),
            ))
            closed[i] = k_frfs[i]
        eig = np.linalg.eigvals(closed_loop_matrix_at(model, controllers, p))
        max_real = float(np.max(eig.real))
        report.points.append(PointCertification(
            p=(float(p[0]), float(p[1])), det_residual=det_res,
            eig_stable=max_real < 0.0, eig_max_real=max_real,
            loops=loop_certs))
    return report


def _loop_closures(p_frf, k_frfs, order):
    """The design chain of one position and its loops' sensitivity peaks.

    Returns (chain, peaks): chain is design_chain(p_frf, k_frfs, order),
    and peaks[i] the largest sampled |S_i| in dB, S_i = 1 / (1 + g_i k_i)
    with g_i the plant loop i sees with every other loop closed.  The last
    loop of the chain sees exactly that plant, closed by the same closings
    in the same index order, so its chain entry serves as its g_i.
    """
    chain = design_chain(p_frf, k_frfs, order)
    peaks = [0.0] * len(k_frfs)
    for i in order:
        g_all = (chain[i] if i == order[-1]
                 else equivalent_plant(p_frf, k_frfs, i))
        peaks[i] = float(np.max(-20.0 * np.log10(
            np.abs(1.0 + g_all * k_frfs[i]))))
    return chain, peaks
