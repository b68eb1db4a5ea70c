"""Reference bisection-step build: the loop builds as they ran before each
step formed only what it reads.

These are design._interp_loglog_mag, _notch_law, _required_beta1,
_notch_rows, _center_gains, _build_lti_loops and _build_lpv_loops,
filters.cascade_frf, element_transfer, notch_transfer and
_multiply_notches, and freqresp.equivalent_plant, copied verbatim from
the version that closed the last loop of the order too, ran the notch
law, the equivalent plant and the notch products for a loop with no
resonance cluster, formed s = j omega in every element response and kept
the entries of a closure in a dict.  Each calls the others from this
module; the rest (gain tuning, fits, surface evaluation, the notch
freeze) is the package's.  The tests hold the package's build to these
bit for bit on every call that a design makes.
"""

import numpy as np

from lpvslc.design import (
    NOTCH_DEPTH_FLOOR,
    RESONANT_LOOP_GAIN_MAX,
    DesignSpec,
    _fixed_section,
    _neutral_beta1,
    _NotchLaw,
    _skew_for,
    tune_gain,
)
from lpvslc.errors import ModelError, NumericalError
from lpvslc.filters import (
    Cascade,
    Gain,
    Integrator,
    Lead,
    LpvNotch,
    Notch,
    _notch_terms,
    freeze_notches,
)
from lpvslc.scheduling import FrozenDesignSet, eval_surface, fit_surface

def notch_transfer(f1, f2, beta1, beta2, omega):
    """Closed-form notch response at angular frequency omega (rad/s).

    Algebraic elimination of the realization gives

        (w2**2 / w1**2) * (s**2 + 2*beta1*w1*s + w1**2)
                        / (s**2 + 2*beta2*w2*s + w2**2)

    with s = j*omega; DC gain is exactly 1, the high-frequency gain is
    (f2/f1)**2.
    """
    s = 1j * np.asarray(omega, dtype=float)
    b1, b0, a1, a0, gain = _notch_terms(f1, f2, beta1, beta2)
    num = s * s + b1 * s + b0
    den = s * s + a1 * s + a0
    return gain * num / den


def element_transfer(spec, omega):
    """Closed-form response of one fixed block at angular frequencies omega."""
    s = 1j * np.asarray(omega, dtype=float)
    if isinstance(spec, Gain):
        return np.full(s.shape, complex(spec.k))
    if isinstance(spec, Integrator):
        return 1.0 / s
    if isinstance(spec, Lead):
        w = 2.0 * np.pi * spec.f_bw
        return spec.alpha ** 2 * (s + w / spec.alpha) / (s + spec.alpha * w)
    if isinstance(spec, Notch):
        return notch_transfer(spec.f1, spec.f2, spec.beta1, spec.beta2, omega)
    raise ModelError(f"unknown filter block {type(spec).__name__}")


def _multiply_notches(stack, omega, notches) -> None:
    """Multiply notch responses onto the rows of a stack, in place.

    stack is an (n, F) running product sampled at angular frequencies
    omega, (F,); notches holds, per notch, the n rows' coefficients
    (f1, f2, beta1, beta2) as Python floats.  Row k ends up equal, bit for
    bit, to stack[k] * notch_transfer(f1, f2, beta1, beta2, omega) of each
    notch in turn, a one-element stack included.
    """
    s = 1j * omega
    s2 = s * s
    num, den = np.empty_like(stack), np.empty_like(stack)
    for rows in notches:
        # Terms from Python floats: a float's x ** 2 (libm pow) can differ
        # from numpy's square of an array in the last bit.
        b1, b0, a1, a0, gain = np.array(
            [_notch_terms(*row) for row in rows]).T[:, :, None]
        # stack *= gain (s^2 + b1 s + b0) / (s^2 + a1 s + a0), operands in
        # notch_transfer's order, running product first: numpy's complex
        # product is not commutative in the last bit, and its temporary
        # elision would turn stack * (num / den) into (num / den) *= stack.
        np.multiply(b1, s, out=num)
        num += s2
        num += b0
        np.multiply(a1, s, out=den)
        den += s2
        den += a0
        np.multiply(gain, num, out=num)
        np.divide(num, den, out=num)
        # Through a buffer: numpy rounds an in-place one-element complex
        # product as Python does, not as an out-of-place product.
        np.multiply(stack, num, out=den)
        stack[...] = den


def cascade_frf(cascade: Cascade, freqs_hz, p=None) -> np.ndarray:
    """Frozen cascade response: the product of element responses.

    Given an (n, 2) array of positions the result is an (n, F) stack, one
    frozen response per row (a read-only broadcast when the cascade has no
    scheduled block).  The fixed section is multiplied out once, in
    element order; a block that appears more than once (the same object,
    as a designed cascade's leads are) is evaluated once.  The scheduled
    part is frozen in one freeze_notches call and each notch is evaluated
    for all rows at once, each row with the arithmetic notch_transfer
    does, in its order, so row k equals the response at p[k] alone bit for
    bit, at one frequency as at many.
    """
    omega = 2.0 * np.pi * np.asarray(freqs_hz, dtype=float)
    out = np.ones(omega.shape, dtype=complex)
    responses = {}
    for element in cascade.fixed_part:
        if id(element) not in responses:
            responses[id(element)] = element_transfer(element, omega)
        out = out * responses[id(element)]
    single = p is None or np.ndim(p) == 1
    if not cascade.scheduled_part:
        return out if single else np.broadcast_to(out, (len(p),) + out.shape)
    if p is None:
        raise ModelError("scheduled notch needs a position to freeze at")
    pts = np.atleast_2d(np.asarray(p, dtype=float))
    stack = np.array(np.broadcast_to(out, (len(pts),) + out.shape))
    _multiply_notches(stack, omega, [
        list(zip(*(c.tolist() for c in coeffs)))
        for coeffs in freeze_notches(cascade.scheduled_part, pts)])
    return stack[0] if single else stack


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


def _interp_loglog_mag(freqs_hz, values, f):
    """|values| interpolated at f, linear in log magnitude vs log frequency.

    values is (..., F) and f a frequency or an array of them; the result is
    values.shape[:-1] + np.shape(f), a float for one row at one frequency.
    Each row takes its own np.interp call and each power of ten is taken
    on a Python float, as for one row at one frequency: numpy's array
    power differs from the scalar one in the last bit for some inputs.
    """
    mags = np.abs(np.asarray(values))
    logf = np.log10(np.asarray(freqs_hz, dtype=float))
    x = np.log10(f)
    with np.errstate(divide="ignore"):
        # A vanishing magnitude maps to -inf and comes back as 0.0, which
        # callers treat as an infeasible loop rather than an error here.
        logm = np.log10(mags).reshape(-1, mags.shape[-1])
    out = [10.0 ** v
           for v in np.ravel([np.interp(x, logf, row) for row in logm]).tolist()]
    shape = mags.shape[:-1] + np.shape(f)
    return out[0] if not shape else np.reshape(out, shape)


def _notch_law(freqs_hz, gamma_frf, clusters, f_bw: float) -> _NotchLaw:
    """One loop's _NotchLaw at f_bw; gamma_frf is the fixed section's
    response on freqs_hz."""
    skews = [_skew_for(cl.f_hz, f_bw) for cl in clusters]
    f_hz = np.array([cl.f_hz for cl in clusters])
    return _NotchLaw(
        f_hz, _interp_loglog_mag(freqs_hz, gamma_frf, f_hz),
        np.array([_neutral_beta1(cl.beta2, skew)
                  for cl, skew in zip(clusters, skews)]),
        [skew * cl.f_hz for cl, skew in zip(clusters, skews)])


def _required_beta1(freqs_hz, g_frf, gain_k, law) -> np.ndarray:
    """Zero damping each position needs for each tracked resonance.

    g_frf is the equivalent plant, (F,) at one position or (n, F) on a
    grid; the result is (n_clusters,) or (n, n_clusters).  law is the
    loop's _notch_law.  The attenuation law 1 / (1 + G / G_max) is a
    smooth function of the loop gain G the resonance would reach without
    the notch: deep where the mode is hot, asymptotically neutral where it
    has faded, and free of kinks so low-order coefficient surfaces can
    follow it.
    """
    loop_at_peak = (gain_k * law.gamma_mag
                    * _interp_loglog_mag(freqs_hz, g_frf, law.f_hz))
    target = np.maximum(1.0 / (1.0 + loop_at_peak / RESONANT_LOOP_GAIN_MAX),
                        NOTCH_DEPTH_FLOOR)
    return target * law.neutral


def _notch_rows(clusters, law, beta1) -> list:
    """_multiply_notches' rows (f1, f2, beta1, beta2) of one loop's notches,
    per cluster, for every row of beta1, (n, n_clusters)."""
    return [[(cl.f_hz, f2, b1, cl.beta2) for b1 in column]
            for cl, f2, column in zip(clusters, law.f2, beta1.T.tolist())]


def _center_gains(center_frf, freqs_hz, masses, order, f_bw,
                  spec: DesignSpec, clusters_per_loop):
    """Loop gains and notch laws of one candidate bandwidth.

    Returns (gains, laws): per loop its gain and its _notch_law.  The gains
    are tuned once, at the design grid's center position center_frf, so
    the fixed cascade section stays truly fixed.  The loops are read only
    at f_bw and at the cluster frequencies, so freqs_hz need only hold the
    samples bracketing those (see _bracketing_samples).
    """
    skeleton = Cascade(tuple(_fixed_section(f_bw, spec)))
    # One cascade evaluation on freqs_hz and then f_bw: the last column is
    # the response at exactly f_bw; interpolation reads only the increasing
    # freqs_hz part.
    f_all = np.append(freqs_hz, f_bw)
    omega = 2.0 * np.pi * f_all
    gamma = cascade_frf(skeleton, f_all)
    laws = [_notch_law(freqs_hz, gamma[:-1], clusters, f_bw)
            for clusters in clusters_per_loop]

    # Gains with provisional local notches: the notches barely move the
    # cascade magnitude down at the crossover, so one retune after placing
    # them settles the loop gain.
    gains = [None] * len(masses)
    k_frfs = [0.0] * len(masses)
    for i in order:
        g = equivalent_plant(center_frf, k_frfs, i)
        mag_g = _interp_loglog_mag(freqs_hz, g, f_bw)
        k0 = tune_gain(mag_g, gamma[-1], f_bw)
        rows = _notch_rows(clusters_per_loop[i], laws[i],
                           _required_beta1(freqs_hz, g, k0.k, laws[i])[None])
        k_center = gamma[None].copy()
        _multiply_notches(k_center, omega, rows)
        gains[i] = tune_gain(mag_g, k_center[0, -1], f_bw)
        k_frfs[i] = gains[i].k * k_center[0, :-1]
    return gains, laws


def _build_lti_loops(p_frfs, freqs_hz, order, gains, clusters_per_loop, laws,
                     f_bw, spec: DesignSpec):
    """Fixed loops: per cluster, the deepest local requirement wins.

    One pass over the design grid in loop order: loop i's local zero
    dampings come from one _required_beta1 call over the (n_design, F, n, n)
    stack p_frfs, with the earlier loops closed by their local notches.
    freqs_hz need only hold the samples bracketing f_bw and the cluster
    frequencies; every row equals a one-position design bit for bit.
    """
    omega = 2.0 * np.pi * np.asarray(freqs_hz, dtype=float)
    loops = [None] * len(gains)
    closed = [0.0] * len(gains)
    for i in order:
        beta1 = _required_beta1(freqs_hz, equivalent_plant(p_frfs, closed, i),
                                gains[i].k, laws[i])
        head = [gains[i]] + _fixed_section(f_bw, spec)
        prefix = cascade_frf(Cascade(tuple(head)), freqs_hz)
        closed[i] = np.array(np.broadcast_to(prefix,
                                             (len(p_frfs),) + prefix.shape))
        _multiply_notches(closed[i], omega,
                          _notch_rows(clusters_per_loop[i], laws[i], beta1))
        loops[i] = Cascade(tuple(head + [
            Notch(f1=cl.f_hz, f2=f2, beta1=min(column), beta2=cl.beta2)
            for cl, f2, column in zip(clusters_per_loop[i], laws[i].f2,
                                      beta1.T.tolist())]))
    return loops


def _build_lpv_loops(audit_frfs, freqs_hz, audit_set: FrozenDesignSet, order,
                     gains, clusters_per_loop, laws, constant_surface, f_bw,
                     spec: DesignSpec, workspace):
    """Scheduled loops: each zero damping fitted where the law is checked.

    One pass over the audit grid, audit_set's points (checked once per
    design), in loop order: loop i's requirement comes from one
    _required_beta1 call over the (n_audit, F, n, n) stack audit_frfs, with
    the earlier loops closed by their final scheduled cascades.  Notch c's
    beta1 surface is the least-squares fit of column c, shifted down
    (constant monomial) by its largest overshoot, so it is nowhere on the
    grid shallower than the law; the frozen-notch evaluation clamps it at
    full depth should it dip below zero somewhere.  f1, beta2 and f2 are
    the same at every position and take the design's
    constant_surface(value, units).  freqs_hz need only hold the samples
    bracketing the cluster frequencies; every row equals a one-position
    evaluation bit for bit.
    """
    points = audit_set.points
    loops = [None] * len(gains)
    closed = [0.0] * len(gains)
    for i in order:
        required = _required_beta1(
            freqs_hz, equivalent_plant(audit_frfs, closed, i), gains[i].k,
            laws[i])
        notches = []
        for c, (cl, f2) in enumerate(zip(clusters_per_loop[i], laws[i].f2)):
            beta1, _ = fit_surface(audit_set.with_values(required[:, c], ""),
                                   spec.surface_order, spec.surface_order,
                                   bounds=workspace)
            viol = float(np.max(eval_surface(beta1, points) - required[:, c]))
            if viol > 0.0:
                beta1.theta[0] -= viol
            notches.append(LpvNotch(beta1=beta1,
                                    beta2=constant_surface(cl.beta2, ""),
                                    f1=constant_surface(cl.f_hz, "Hz"),
                                    f2=constant_surface(f2, "Hz")))
        loops[i] = Cascade(tuple([gains[i]] + _fixed_section(f_bw, spec)
                                 + notches))
        closed[i] = cascade_frf(loops[i], freqs_hz, points)
    return loops
