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
import math
from dataclasses import dataclass, field

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
        if not math.isfinite(float(self.alpha) * float(self.alpha)):
            raise ModelError(f"lead ratio alpha = {self.alpha!r}: its square is not finite")
        # The zero and the pole as element_transfer and _entries form them.
        w = 2.0 * math.pi * self.f_bw
        pole = 2.0 * math.pi * self.alpha * self.f_bw
        if not all(map(math.isfinite, (w / self.alpha, self.alpha * w, pole))):
            raise ModelError(f"lead f_bw = {self.f_bw!r} Hz, alpha = "
                             f"{self.alpha!r}: its pole or zero is not finite")


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
        for name in ("f1", "f2"):
            w = 2.0 * math.pi * float(getattr(self, name))
            if not math.isfinite(w * w):
                raise ModelError(f"notch {name} = {getattr(self, name)!r} Hz: the "
                                 "square of its angular frequency is not finite")


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


# Each filter block kind: its class, the readers of its record's fields
# beside "type" in declaration order, and its state count.
_FILTER_TYPES = {
    "gain": (Gain, {"k": real}, 0),
    "integrator": (Integrator, {}, 1),
    "lead": (Lead, {"f_bw": real, "alpha": real}, 1),
    "notch": (Notch, dict.fromkeys(("f1", "f2", "beta1", "beta2"), real), 2),
    "lpv_notch": (LpvNotch, dict.fromkeys(("beta1", "beta2", "f1", "f2"),
                                          _read_surface), 2),
}
_KINDS = {cls: kind for kind, (cls, _, _) in _FILTER_TYPES.items()}
# A block is scheduled when its fields are coefficient surfaces.
_FIXED = tuple(cls for cls, fields, _ in _FILTER_TYPES.values()
               if _read_surface not in fields.values())
_SCHEDULED = tuple(cls for cls in _KINDS if cls not in _FIXED)


def _kind(spec) -> str:
    if type(spec) not in _KINDS:
        raise ModelError(f"unknown filter block {type(spec).__name__}")
    return _KINDS[type(spec)]


@dataclass(frozen=True)
class Cascade:
    """Ordered series interconnection of filter blocks.

    The n_fixed fixed (position-independent) blocks come first, then only
    position-scheduled ones.  The split is what a real-time implementation
    needs: the front section is realized once, the tail is re-frozen per
    scheduling update.
    """

    elements: tuple
    n_fixed: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        elements = tuple(self.elements)
        fixed = [isinstance(e, _FIXED) for e in elements]
        n_fixed = (fixed + [False]).index(False)
        for e in elements[n_fixed:]:
            if not isinstance(e, _SCHEDULED):
                raise ModelError(f"only scheduled notches may follow a "
                                 f"cascade's fixed blocks, got "
                                 f"{type(e).__name__}")
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "n_fixed", n_fixed)

    @property
    def fixed_part(self) -> tuple:
        return self.elements[: self.n_fixed]

    @property
    def scheduled_part(self) -> tuple:
        return self.elements[self.n_fixed:]


def freeze_notches(notches, points, f_max=None):
    """Freeze scheduled notches at every row of an (n, 2) array of points.

    notches is a sequence of LpvNotch, such as a cascade's scheduled part.
    The result holds, per notch in order, its coefficient arrays (f1, f2,
    beta1, beta2), one entry per point.  Frequency surfaces are clamped into
    [MIN_NOTCH_FREQ_HZ, f_max] (upper end only when f_max is given,
    normally just below the simulation Nyquist rate).  A zero damping
    below zero is clamped to 0, a full-depth notch; the README LPV set's
    are, on 12-32 % of the workspace, down to -0.063.  Clamping is logged,
    never silent: one warning per clamped coefficient of each notch, with
    the number of points it was clamped at.  A nonpositive pole damping has
    no safe substitute and raises.  Notches are checked in order.

    All the surfaces are evaluated in one eval_surface call, whose values
    do not depend on the number of points or surfaces: row k is bit for bit
    the freeze at points[k] alone, and each notch freezes as on its own.
    """
    pts = np.asarray(points, dtype=float)
    values = eval_surface([s for n in notches
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
    return out


def realize(spec, p=None, f_max=None) -> FrozenStateSpace:
    """Exact continuous-time realization of a block or cascade.

    Scheduled blocks need the position p; fixed blocks ignore it.  At an
    (n, 2) array of positions, a scheduled block or cascade realizes to
    matrices stacked along a leading axis of length n, one per position;
    f_max caps the scheduled notch frequencies as in freeze_notches.

    A lone block realizes as a one-block cascade.  Every cascade is
    series-connected entry by entry from its blocks' (a rows, b, c, d)
    entries: Python floats for fixed blocks and for notches frozen at one
    position, arrays over the positions otherwise, all notches frozen in
    one freeze_notches call.  Each block is driven by the output map of
    the blocks before it, so each entry is one product, written as
    x * y + 0.0: a matrix product sums from +0.0, and so writes +0.0 where
    a zero multiplies a negative number; the + 0.0 keeps those bits.
    """
    if not isinstance(spec, Cascade):
        spec = Cascade((spec,))
    blocks = [_entries(e) for e in spec.fixed_part]
    batch = ()
    if spec.scheduled_part:
        if p is None:
            raise ModelError("scheduled notch needs a position to freeze at")
        pts = np.asarray(p, dtype=float)
        frozen = freeze_notches(spec.scheduled_part, np.atleast_2d(pts), f_max)
        if pts.ndim == 1:
            # A single position realizes from Python floats.
            frozen = [tuple(float(c[0]) for c in coeffs) for coeffs in frozen]
        else:
            batch = (len(pts),)
        blocks += [_notch_entries(*c) for c in frozen]
    n = sum(len(kb) for _, kb, _, _ in blocks)
    a = np.zeros(batch + (n, n))
    b, c, d = (np.empty(batch + shape) for shape in ((n, 1), (1, n), (1, 1)))
    cs, ds = [], 1.0     # output map (c, d) of the blocks so far
    for rows, kb, kc, kd in blocks:
        at = len(cs)
        for i, (row, kb_i) in enumerate(zip(rows, kb), at):
            for j, c_j in enumerate(cs):
                a[..., i, j] = kb_i * c_j + 0.0
            for j, a_ij in enumerate(row, at):
                a[..., i, j] = a_ij
            b[..., i, 0] = kb_i * ds + 0.0
        cs = [kd * c_j + 0.0 for c_j in cs] + list(kc)
        ds = kd * ds + 0.0
    for j, c_j in enumerate(cs):
        c[..., 0, j] = c_j
    d[..., 0, 0] = ds
    return FrozenStateSpace(a, b, c, d)


def _entries(spec) -> tuple:
    """(a rows, b, c, d) entries of one fixed block (see _FIXED)."""
    if isinstance(spec, Gain):
        return (), (), (), spec.k
    if isinstance(spec, Integrator):
        return ((0.0,),), (1.0,), (1.0,), 0.0
    if isinstance(spec, Lead):
        pole = 2.0 * np.pi * spec.alpha * spec.f_bw
        return ((-pole,),), (pole,), (1.0 - spec.alpha ** 2,), spec.alpha ** 2
    return _notch_entries(spec.f1, spec.f2, spec.beta1, spec.beta2)


def _notch_entries(f1, f2, beta1, beta2) -> tuple:
    """(a rows, b, c, d) entries of a notch, from notch_transfer's
    coefficients, of the type of f1 and f2: the companion form of
    gain (s**2 + b1 s + b0) / (s**2 + a1 s + a0)."""
    b1, b0, a1, a0, gain = _notch_terms(f1, f2, beta1, beta2)
    return (((-a1, -a0), (1.0, 0.0)), (a0, 0.0), ((b1 - a1) / b0, 1.0 - gain),
            gain)


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


def n_states(spec) -> int:
    """State count of a block or cascade realization."""
    if isinstance(spec, Cascade):
        return sum(n_states(e) for e in spec.elements)
    return _FILTER_TYPES[_kind(spec)][2]


def filter_to_dict(spec) -> dict:
    kind = _kind(spec)
    out = {"type": kind}
    for name in _FILTER_TYPES[kind][1]:
        value = getattr(spec, name)
        out[name] = (surface_to_dict(value)
                     if isinstance(value, CoefficientSurface) else float(value))
    return out


def _read_filter(key: str, data):
    fields = tagged(key, data, "type", {kind: spec for kind, (_, spec, _)
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
