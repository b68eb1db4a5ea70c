"""Reference cascade realization and response that freeze notch by notch.

These are filters.realize and filters.cascade_frf as they ran before a
cascade's scheduled part was frozen in one freeze_notches call: every
scheduled notch is frozen on its own, with one eval_surface call (and one
chi_matrix) per notch, and logs its clamp warnings as it goes.  The
arithmetic after the freeze is the package's, but for the notch and
fixed-block matrices, which come from tests/series_reference.py.  The
tests hold the per-cascade freeze to these bit for bit, log records
included.
"""

import numpy as np

from lpvslc.filters import (
    Cascade,
    LpvNotch,
    _multiply_notches,
    element_transfer,
    freeze_notches,
)
from lpvslc.plant import FrozenStateSpace

from series_reference import _notch_matrices, block_realize


def per_notch_realize(spec, p=None, f_max=None) -> FrozenStateSpace:
    """filters.realize with each scheduled notch frozen by its own call."""
    if isinstance(spec, Cascade):
        parts = [per_notch_realize(element, p, f_max)
                 for element in spec.elements]
        batch = np.broadcast_shapes(*(k.a.shape[:-2] for k in parts))
        n = sum(k.n_states for k in parts)
        a = np.zeros(batch + (n, n))
        b = np.zeros(batch + (n, 1))
        c = np.zeros(batch + (1, n))
        d = np.ones(batch + (1, 1))
        at = 0
        for k in parts:
            x = slice(at, at + k.n_states)
            a[..., x, :at] = k.b @ c[..., :at]
            a[..., x, x] = k.a
            b[..., x, :] = k.b @ d
            c[..., :at] = k.d @ c[..., :at]
            c[..., x] = k.c
            d = k.d @ d
            at = x.stop
        return FrozenStateSpace(a=a, b=b, c=c, d=d)
    if isinstance(spec, LpvNotch):
        pts = np.asarray(p, dtype=float)
        coeffs = freeze_notches([spec], np.atleast_2d(pts), f_max)[0]
        if pts.ndim == 1:
            coeffs = tuple(float(c[0]) for c in coeffs)
        return FrozenStateSpace(*_notch_matrices(*coeffs))
    return block_realize(spec)


def per_notch_cascade_frf(cascade, freqs_hz, p=None) -> np.ndarray:
    """filters.cascade_frf with each scheduled notch frozen by its own call."""
    omega = 2.0 * np.pi * np.asarray(freqs_hz, dtype=float)
    out = np.ones(omega.shape, dtype=complex)
    for element in cascade.fixed_part:
        out = out * element_transfer(element, omega)
    single = p is None or np.ndim(p) == 1
    if not cascade.scheduled_part:
        return out if single else np.broadcast_to(out, (len(p),) + out.shape)
    pts = np.atleast_2d(np.asarray(p, dtype=float))
    stack = np.array(np.broadcast_to(out, (len(pts),) + out.shape))
    _multiply_notches(stack, omega, [
        list(zip(*(c.tolist() for c in freeze_notches([spec], pts)[0])))
        for spec in cascade.scheduled_part])
    return stack[0] if single else stack
