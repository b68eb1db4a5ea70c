"""Loop-shaping filter blocks and their state-space realizations.

The controller of one motion axis is a series cascade of scalar blocks:
a proportional gain setting the crossover, an integrator pushing down
low-frequency disturbance response, one or more lead filters buying phase
around the crossover, and notch filters flattening flexible resonances.
Every block carries an exact continuous-time state-space form so the same
object serves frequency-domain design (via closed-form transfer values)
and time-domain simulation (via the realization).

Notch filters come in a fixed-coefficient variant and a position-scheduled
variant whose four coefficients are polynomial surfaces over the workspace
(see scheduling.py).  A cascade keeps the scheduled blocks behind the
fixed ones, so the fixed front section can be realized once while the
scheduled tail is re-frozen whenever the stage moves.

Sign conventions: notch frequencies are in Hz, converted internally with
``omega = 2 * pi * f``.  A "skewed" notch (pole frequency f2 above zero
frequency f1) trades attenuation depth for phase lead below f1, which is
what lets a scheduled notch relax the crossover phase budget at positions
where the resonance is weakly observable.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ModelError, integral, listof, real, record, tagged
from .plant import FrozenStateSpace
from .scheduling import CoefficientSurface, _read_surface, eval_surface, surface_to_dict

__all__ = [
    "Gain",
    "Integrator",
    "Lead",
    "Notch",
    "LpvNotch",
    "Cascade",
    "realize",
    "notch_transfer",
    "element_transfer",
    "cascade_frf",
    "freeze_notches",
    "n_states",
    "filter_to_dict",
    "filter_from_dict",
    "cascade_to_dict",
    "cascade_from_dict",
]

log = logging.getLogger(__name__)

MIN_NOTCH_FREQ_HZ = 1.0


@dataclass(frozen=True)
class Gain:
    """Static gain block."""

    k: float

    def __post_init__(self):
        if not np.isfinite(self.k):
            raise ModelError("gain must be finite")


@dataclass(frozen=True)
class Integrator:
    """Pure integrator: state derivative equals the input, output the state."""


@dataclass(frozen=True)
class Lead:
    """First-order lead with unity DC gain and high-frequency gain alpha**2.

    The zero sits at f_bw / alpha, the pole at alpha * f_bw, so the phase
    boost peaks exactly at f_bw with value arcsin((alpha**2 - 1) /
    (alpha**2 + 1)); alpha = 3 gives a shade over 53 degrees, enough to
    hold a sound margin on top of an integrator.
    """

    f_bw: float
    alpha: float = 3.0

    def __post_init__(self):
        if self.f_bw <= 0.0:
            raise ModelError("lead center frequency must be positive")
        if self.alpha <= 0.0:
            raise ModelError("lead ratio alpha must be positive")


@dataclass(frozen=True)
class Notch:
    """Biquad notch: zero pair at f1 (damping beta1), pole pair at f2 (beta2).

    beta1 = 0 is allowed (undamped zeros, a perfect null at f1); beta2 must
    be positive so the filter itself is stable.
    """

    f1: float
    f2: float
    beta1: float
    beta2: float

    def __post_init__(self):
        if self.f1 <= 0.0 or self.f2 <= 0.0:
            raise ModelError("notch frequencies must be positive")
        if self.beta1 < 0.0:
            raise ModelError("notch zero damping must be nonnegative")
        if self.beta2 <= 0.0:
            raise ModelError("notch pole damping must be positive")


@dataclass(frozen=True)
class LpvNotch:
    """Notch whose four coefficients are surfaces over the workspace."""

    beta1: CoefficientSurface
    beta2: CoefficientSurface
    f1: CoefficientSurface
    f2: CoefficientSurface

    def __post_init__(self):
        for name in ("beta1", "beta2", "f1", "f2"):
            if not isinstance(getattr(self, name), CoefficientSurface):
                raise ModelError(f"LpvNotch field {name} must be a CoefficientSurface")


_LTI_VARIANTS = (Gain, Integrator, Lead, Notch)


@dataclass(frozen=True)
class Cascade:
    """Ordered series interconnection of filter blocks.

    The n_fixed fixed (position-independent) blocks come first, then only
    position-scheduled ones.  The split is what a real-time implementation
    needs: the front section is realized once, the tail is re-frozen per
    scheduling update.
    """

    elements: tuple

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        for e in self.scheduled_part:
            if not isinstance(e, LpvNotch):
                raise ModelError(f"only scheduled notches may follow a "
                                 f"cascade's fixed blocks, got "
                                 f"{type(e).__name__}")

    @property
    def n_fixed(self) -> int:
        fixed = [isinstance(e, _LTI_VARIANTS) for e in self.elements]
        return (fixed + [False]).index(False)

    @property
    def fixed_part(self) -> tuple:
        return self.elements[: self.n_fixed]

    @property
    def scheduled_part(self) -> tuple:
        return self.elements[self.n_fixed:]


def freeze_notches(spec, points, f_max=None):
    """Freeze scheduled notches at every row of an (n, 2) array of points.

    spec is one LpvNotch, or a sequence of them, such as a cascade's
    scheduled part.  One notch gives its coefficient arrays (f1, f2,
    beta1, beta2), one entry per point; a sequence gives a list of such
    tuples, one per notch, in order.  Frequency surfaces are clamped into
    [MIN_NOTCH_FREQ_HZ, f_max] (upper end only when f_max is given,
    normally just below the simulation Nyquist rate).  A zero damping
    surface that dips slightly below zero between fit points is clamped to
    0 (a full-depth notch).  Clamping is logged, never silent: one warning
    per clamped coefficient of each notch, with the number of points it was
    clamped at.  A pole damping surface that comes out nonpositive has no
    safe substitute and raises.  Notches are checked in order, so a
    sequence logs and raises exactly as one call per notch would.

    The surfaces of all the notches are evaluated in one eval_surface
    call, whose values do not depend on the number of points or surfaces:
    row k of a stacked freeze is bit for bit the freeze at points[k] alone,
    and each notch of a sequence freezes as it would on its own.
    """
    one = isinstance(spec, LpvNotch)
    specs = [spec] if one else list(spec)
    pts = np.asarray(points, dtype=float)
    values = eval_surface([s for n in specs
                           for s in (n.f1, n.f2, n.beta1, n.beta2)], pts)
    hi = np.inf if f_max is None else float(f_max)
    out = []
    for at in range(0, len(values), 4):
        f1, f2, beta1, beta2 = values[at:at + 4]
        if np.any(beta2 <= 0.0):
            k = int(np.argmin(beta2))
            raise ModelError(f"scheduled notch pole damping {beta2[k]:.3g} "
                             f"<= 0 at p = {tuple(pts[k].tolist())}")
        frozen = []
        for name, value, lo, up in (("f1", f1, MIN_NOTCH_FREQ_HZ, hi),
                                    ("f2", f2, MIN_NOTCH_FREQ_HZ, hi),
                                    ("beta1", beta1, 0.0, np.inf)):
            n_bad = int(np.count_nonzero((value < lo) | (value > up)))
            if n_bad:
                log.warning("scheduled notch %s clamped into [%g, %g] at %d "
                            "of %d points", name, lo, up, n_bad, value.size)
                value = np.clip(value, lo, up)
            frozen.append(value)
        out.append((*frozen, beta2))
    return out[0] if one else out


def _notch_matrices(f1, f2, beta1, beta2):
    """Notch realization; coefficient arrays give matrices stacked on axis 0."""
    w1 = 2.0 * np.pi * f1
    w2 = 2.0 * np.pi * f2
    zero = np.zeros_like(w2)
    a = np.stack([np.stack([-2.0 * beta2 * w2, -w2 ** 2], axis=-1),
                  np.stack([np.ones_like(w2), zero], axis=-1)], axis=-2)
    b = np.stack([w2 ** 2, zero], axis=-1)[..., None]
    c = np.stack([2.0 * (beta1 * w1 - beta2 * w2) / w1 ** 2,
                  1.0 - w2 ** 2 / w1 ** 2], axis=-1)[..., None, :]
    d = np.asarray(w2 ** 2 / w1 ** 2)[..., None, None]
    return a, b, c, d


def realize(spec, p=None, f_max=None) -> FrozenStateSpace:
    """Exact continuous-time realization of a block or cascade.

    Scheduled blocks need the position p; fixed blocks ignore it.  At an
    (n, 2) array of positions, a scheduled block or cascade realizes to
    matrices stacked along a leading axis of length n, one per position;
    f_max caps the scheduled notch frequencies as in freeze_notches.

    A cascade realizes in one pass, block-lower-triangular: each block is
    driven by the output map (c, d) of the blocks before it.  A scheduled
    cascade realizes its fixed front once and freezes its notches in one
    freeze_notches call, logging and raising as one call per notch would.
    """
    if isinstance(spec, Cascade):
        parts = ([realize(Cascade(spec.fixed_part))] if spec.scheduled_part
                 else [realize(element) for element in spec.fixed_part])
        parts += _realize_scheduled(spec.scheduled_part, p, f_max)
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
    if isinstance(spec, Gain):
        return FrozenStateSpace(
            a=np.zeros((0, 0)), b=np.zeros((0, 1)),
            c=np.zeros((1, 0)), d=np.array([[spec.k]]))
    if isinstance(spec, Integrator):
        return FrozenStateSpace(
            a=np.zeros((1, 1)), b=np.ones((1, 1)),
            c=np.ones((1, 1)), d=np.zeros((1, 1)))
    if isinstance(spec, Lead):
        pole = 2.0 * np.pi * spec.alpha * spec.f_bw
        return FrozenStateSpace(
            a=np.array([[-pole]]), b=np.array([[pole]]),
            c=np.array([[1.0 - spec.alpha ** 2]]),
            d=np.array([[spec.alpha ** 2]]))
    if isinstance(spec, Notch):
        return FrozenStateSpace(*_notch_matrices(spec.f1, spec.f2, spec.beta1,
                                                 spec.beta2))
    if isinstance(spec, LpvNotch):
        return _realize_scheduled((spec,), p, f_max)[0]
    raise ModelError(f"unknown filter block {type(spec).__name__}")


def _realize_scheduled(specs, p, f_max) -> list:
    """Realizations of scheduled notches frozen at p, one freeze_notches
    call for all of them; a single position realizes from Python floats."""
    if not specs:
        return []
    if p is None:
        raise ModelError("scheduled notch needs a position to freeze at")
    pts = np.asarray(p, dtype=float)
    frozen = freeze_notches(specs, np.atleast_2d(pts), f_max)
    if pts.ndim == 1:
        frozen = [tuple(float(c[0]) for c in coeffs) for coeffs in frozen]
    return [FrozenStateSpace(*_notch_matrices(*coeffs)) for coeffs in frozen]


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


def _notch_terms(f1, f2, beta1, beta2) -> tuple:
    """notch_transfer's coefficients 2 beta1 w1, w1**2, 2 beta2 w2, w2**2
    and its gain w2**2 / w1**2, of the type of f1 and f2."""
    w1 = 2.0 * np.pi * f1
    w2 = 2.0 * np.pi * f2
    return (2.0 * beta1 * w1, w1 ** 2, 2.0 * beta2 * w2, w2 ** 2,
            w2 ** 2 / w1 ** 2)


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
        # Each row's terms from Python floats, not from arrays: a float's
        # x ** 2 is libm pow, which differs from numpy's square of an array
        # in the last bit for some inputs.
        b1, b0, a1, a0, gain = np.array(
            [_notch_terms(*row) for row in rows]).T[:, :, None]
        # In place: stack *= gain (s^2 + b1 s + b0) / (s^2 + a1 s + a0),
        # each product with its operands in notch_transfer's order and the
        # running product first, as a one-position evaluation has them:
        # numpy's complex product is not commutative in the last bit.
        # stack * (num / den) would not keep that order: for a temporary
        # of 256 KiB or more, numpy's temporary elision evaluates it as
        # (num / den) *= stack.
        np.multiply(b1, s, out=num)
        num += s2
        num += b0
        np.multiply(a1, s, out=den)
        den += s2
        den += a0
        np.multiply(gain, num, out=num)
        np.divide(num, den, out=num)
        # The running product goes through a buffer of its own: numpy
        # rounds an in-place complex product of a single element as
        # Python's complex product does, differently from the out-of-place
        # product notch_transfer's caller makes.
        np.multiply(stack, num, out=den)
        stack[...] = den


def cascade_frf(cascade: Cascade, freqs_hz, p=None) -> np.ndarray:
    """Frozen cascade response: the product of element responses.

    Given an (n, 2) array of positions the result is an (n, F) stack, one
    frozen response per row (a read-only broadcast when the cascade has no
    scheduled block).  The fixed section is multiplied out once; the
    scheduled part is frozen in one freeze_notches call and each notch is
    evaluated for all rows at once, each row with the arithmetic
    notch_transfer does, in its order, so row k equals the response at
    p[k] alone bit for bit, at one frequency as at many.
    """
    omega = 2.0 * np.pi * np.asarray(freqs_hz, dtype=float)
    out = np.ones(omega.shape, dtype=complex)
    for element in cascade.fixed_part:
        out = out * element_transfer(element, omega)
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


def n_states(spec) -> int:
    """State count of a block or cascade realization."""
    if isinstance(spec, Cascade):
        return sum(n_states(e) for e in spec.elements)
    if isinstance(spec, Gain):
        return 0
    if isinstance(spec, (Integrator, Lead)):
        return 1
    if isinstance(spec, (Notch, LpvNotch)):
        return 2
    raise ModelError(f"unknown filter block {type(spec).__name__}")


def filter_to_dict(spec) -> dict:
    if isinstance(spec, Gain):
        return {"type": "gain", "k": float(spec.k)}
    if isinstance(spec, Integrator):
        return {"type": "integrator"}
    if isinstance(spec, Lead):
        return {"type": "lead", "f_bw": float(spec.f_bw),
                "alpha": float(spec.alpha)}
    if isinstance(spec, Notch):
        return {"type": "notch", "f1": float(spec.f1), "f2": float(spec.f2),
                "beta1": float(spec.beta1), "beta2": float(spec.beta2)}
    if isinstance(spec, LpvNotch):
        return {"type": "lpv_notch",
                "beta1": surface_to_dict(spec.beta1),
                "beta2": surface_to_dict(spec.beta2),
                "f1": surface_to_dict(spec.f1),
                "f2": surface_to_dict(spec.f2)}
    raise ModelError(f"unknown filter block {type(spec).__name__}")


# Each filter type's block and the fields of its record beside "type".
_FILTER_TYPES = {
    "gain": (Gain, {"k": real}),
    "integrator": (Integrator, {}),
    "lead": (Lead, {"f_bw": real, "alpha": real}),
    "notch": (Notch, {k: real for k in ("f1", "f2", "beta1", "beta2")}),
    "lpv_notch": (LpvNotch, {k: _read_surface
                             for k in ("beta1", "beta2", "f1", "f2")}),
}


def _read_filter(key: str, data):
    fields = tagged(key, data, "type", {kind: spec for kind, (_, spec)
                                        in _FILTER_TYPES.items()})
    return _FILTER_TYPES[fields.pop("type")][0](**fields)


def filter_from_dict(data: dict):
    return _read_filter("filter", data)


def cascade_to_dict(cascade: Cascade) -> dict:
    return {"elements": [filter_to_dict(e) for e in cascade.elements],
            "n_fixed": cascade.n_fixed}


def _read_cascade(key: str, data) -> Cascade:
    fields = record(key, data, {"elements": listof(_read_filter),
                                "n_fixed": integral})
    cascade = Cascade(fields["elements"])
    if fields["n_fixed"] != cascade.n_fixed:
        raise ConfigError(f"{key}: n_fixed {fields['n_fixed']} disagrees "
                          f"with its {cascade.n_fixed} fixed blocks")
    return cascade


def cascade_from_dict(data: dict) -> Cascade:
    return _read_cascade("cascade", data)
