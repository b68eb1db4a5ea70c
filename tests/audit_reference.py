"""Reference local designs, scheduled-loop build and scheduled-notch audit:
one position at a time, on every frequency, every surface fitted at every
step.

These are design._local_designs and design._audit_scheduled_loops as they
ran before the design read the loops only at the samples bracketing f_bw
and the cluster frequencies.  Per position they close every loop on the
whole frequency grid and evaluate the attenuation law one resonance at a
time, each interpolation a scalar np.interp call.  reference_build_lpv_loops
is design._build_lpv_loops as it ran before the f1 and beta2 surfaces were
fitted once per design: it fits all four coefficients of every notch at
every step, each on a FrozenDesignSet that checks its points again.  The
agreement tests in test_design.py hold the subset, stacked and once-fitted
evaluations to them bit for bit, at every bandwidth the bisection tries.
"""

import numpy as np

from lpvslc.design import (
    NOTCH_DEPTH_FLOOR,
    RESONANT_LOOP_GAIN_MAX,
    SURFACE_FIT_TOL,
    _fixed_section,
    _neutral_beta1,
    _skew_for,
)
from lpvslc.errors import DesignInfeasibleError
from lpvslc.filters import Cascade, Gain, LpvNotch, Notch, cascade_frf
from lpvslc.freqresp import equivalent_plant
from lpvslc.scheduling import (
    CoefficientSurface,
    FrozenDesignSet,
    eval_surface,
    fit_surface,
)


def interp_loglog_mag(freqs_hz, values, f):
    mags = np.abs(np.asarray(values))
    logf = np.log10(np.asarray(freqs_hz, dtype=float))
    with np.errstate(divide="ignore"):
        return float(10.0 ** np.interp(np.log10(f), logf, np.log10(mags)))


def tune_gain(g_frf, freqs_hz, cascade, f_bw):
    mag_g = interp_loglog_mag(freqs_hz, g_frf, f_bw)
    mag_c = float(np.abs(cascade_frf(cascade, np.array([f_bw]))[0]))
    product = mag_g * mag_c
    if not np.isfinite(product) or product == 0.0:
        raise DesignInfeasibleError(
            f"loop magnitude vanishes at the target bandwidth {f_bw} Hz")
    return Gain(1.0 / product)


def required_beta1(freqs_hz, g_frf, gain_k, gamma_frf, cluster, gamma):
    loop_at_peak = (gain_k
                    * interp_loglog_mag(freqs_hz, gamma_frf, cluster.f_hz)
                    * interp_loglog_mag(freqs_hz, g_frf, cluster.f_hz))
    target = 1.0 / (1.0 + loop_at_peak / RESONANT_LOOP_GAIN_MAX)
    target = max(target, NOTCH_DEPTH_FLOOR)
    return target * _neutral_beta1(cluster.beta2, gamma)


def local_notches(freqs_hz, g_frf, gain_k, gamma_frf, clusters, f_bw):
    return [
        Notch(f1=cl.f_hz, f2=_skew_for(cl.f_hz, f_bw) * cl.f_hz,
              beta1=required_beta1(freqs_hz, g_frf, gain_k, gamma_frf, cl,
                                   _skew_for(cl.f_hz, f_bw)),
              beta2=cl.beta2)
        for cl in clusters
    ]


def reference_local_designs(p_frfs, freqs_hz, masses, order, f_bw, spec,
                            clusters_per_loop):
    center = len(p_frfs) // 2
    skeleton = _fixed_section(f_bw, spec)
    gamma_frf = cascade_frf(Cascade(tuple(skeleton)), freqs_hz)
    gains = [None] * len(masses)
    k_frfs = [0.0] * len(masses)
    for i in order:
        g = equivalent_plant(p_frfs[center], k_frfs, i)
        k0 = tune_gain(g, freqs_hz, Cascade(tuple(skeleton)), f_bw)
        notches = local_notches(freqs_hz, g, k0.k, gamma_frf,
                                clusters_per_loop[i], f_bw)
        cascade = Cascade(tuple(skeleton + notches))
        gains[i] = tune_gain(g, freqs_hz, cascade, f_bw)
        k_frfs[i] = gains[i].k * cascade_frf(cascade, freqs_hz)
    notch_table = {}
    for l, p_frf in enumerate(p_frfs):
        k_frfs = [0.0] * len(masses)
        for i in order:
            g = equivalent_plant(p_frf, k_frfs, i)
            notches = local_notches(freqs_hz, g, gains[i].k, gamma_frf,
                                    clusters_per_loop[i], f_bw)
            for c, notch in enumerate(notches):
                notch_table[(i, c, l)] = notch
            cascade = Cascade(tuple([gains[i]] + skeleton + notches))
            k_frfs[i] = cascade_frf(cascade, freqs_hz)
    return gains, notch_table


def reference_build_lpv_loops(gains, clusters_per_loop, notch_table,
                              design_grid, f_bw, spec, workspace):
    order_xy = spec.surface_order
    loops = []
    for i in range(len(gains)):
        scheduled = []
        for c in range(len(clusters_per_loop[i])):
            local = [notch_table[(i, c, l)] for l in range(len(design_grid))]
            surfaces = {}
            for name, units in (("beta1", ""), ("beta2", ""),
                                ("f1", "Hz"), ("f2", "Hz")):
                values = np.array([getattr(n, name) for n in local])
                designs = FrozenDesignSet(design_grid, values, units=units)
                surface, report = fit_surface(designs, order_xy, order_xy,
                                              bounds=workspace)
                scale = max(float(np.max(np.abs(values))), 1e-12)
                if np.max(np.abs(report.residuals)) > SURFACE_FIT_TOL * scale:
                    raise DesignInfeasibleError(
                        f"coefficient surface fit for loop {i} notch {c} "
                        f"({name}) leaves relative residual "
                        f"{np.max(np.abs(report.residuals)) / scale:.2e}")
                surfaces[name] = surface
            scheduled.append(LpvNotch(**surfaces))
        loops.append(Cascade(tuple([gains[i]] + _fixed_section(f_bw, spec)
                                   + scheduled)))
    return loops


def reference_audit(loops, order, clusters_per_loop, gains, f_bw, spec,
                    freqs_hz, audit_grid, audit_frfs, workspace):
    """audit_frfs: one (F, n, n) plant FRF per audit position."""
    loops = list(loops)
    skeleton = _fixed_section(f_bw, spec)
    gamma_frf = cascade_frf(Cascade(tuple(skeleton)), freqs_hz)
    closed = [np.zeros(len(audit_grid))] * len(loops)
    for i in order:
        clusters = clusters_per_loop[i]
        if clusters:
            fixed = list(loops[i].fixed_part)
            scheduled = list(loops[i].scheduled_part)
            required = np.zeros((len(audit_grid), len(clusters)))
            for a in range(len(audit_grid)):
                g = equivalent_plant(audit_frfs[a], [k[a] for k in closed], i)
                for c, cl in enumerate(clusters):
                    required[a, c] = required_beta1(
                        freqs_hz, g, gains[i].k, gamma_frf, cl,
                        _skew_for(cl.f_hz, f_bw))
            for c in range(len(clusters)):
                surface = scheduled[c].beta1
                got = eval_surface(surface, audit_grid)
                if np.max(got - required[:, c]) <= 1e-12:
                    continue
                refit, _ = fit_surface(
                    FrozenDesignSet(audit_grid, required[:, c], units=""),
                    spec.surface_order, spec.surface_order, bounds=workspace)
                viol = float(np.max(eval_surface(refit, audit_grid)
                                    - required[:, c]))
                theta = refit.theta.copy()
                if viol > 0.0:
                    theta[0] -= viol
                surface = CoefficientSurface(refit.order_x, refit.order_y,
                                             theta, refit.x_map, refit.y_map,
                                             refit.units)
                scheduled[c] = LpvNotch(beta1=surface, beta2=scheduled[c].beta2,
                                        f1=scheduled[c].f1, f2=scheduled[c].f2)
            loops[i] = Cascade(tuple(fixed + scheduled))
        closed[i] = cascade_frf(loops[i], freqs_hz, audit_grid)
    return loops
