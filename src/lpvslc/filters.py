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
(see scheduling.py).  A cascade keeps the scheduled blocks behind a
partition index so the fixed front section can be realized once while the
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

from .errors import ConfigError, ModelError
from .plant import FrozenStateSpace
from .scheduling import CoefficientSurface, eval_surface, surface_from_dict, surface_to_dict

__all__ = [
    "Gain",
    "Integrator",
    "Lead",
    "Notch",
    "LpvNotch",
    "Cascade",
    "realize",
    "series",
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

    elements[:n_fixed] is the fixed (position-independent) front section;
    elements[n_fixed:] holds only position-scheduled blocks.  The split is
    what a real-time implementation needs: the front section is realized
    once, the tail is re-frozen per scheduling update.
    """

    elements: tuple
    n_fixed: int = -1

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if self.n_fixed < 0:
            object.__setattr__(
                self, "n_fixed",
                sum(1 for e in self.elements if isinstance(e, _LTI_VARIANTS)))
        if not 0 <= self.n_fixed <= len(self.elements):
            raise ModelError("cascade partition index out of range")
        for e in self.elements[: self.n_fixed]:
            if not isinstance(e, _LTI_VARIANTS):
                raise ModelError(
                    "scheduled block ahead of the cascade partition")
        for e in self.elements[self.n_fixed:]:
            if not isinstance(e, LpvNotch):
                raise ModelError(
                    "fixed block behind the cascade partition")

    @property
    def fixed_part(self) -> tuple:
        return self.elements[: self.n_fixed]

    @property
    def scheduled_part(self) -> tuple:
        return self.elements[self.n_fixed:]


def freeze_notches(spec: LpvNotch, points, f_max=None):
    """Freeze a scheduled notch at every row of an (n, 2) array of points.

    Returns the coefficient arrays (f1, f2, beta1, beta2), one entry per
    point.  Frequency surfaces are clamped into [MIN_NOTCH_FREQ_HZ, f_max]
    (upper end only when f_max is given, normally just below the simulation
    Nyquist rate).  A zero damping surface that dips slightly below zero
    between fit points is clamped to 0 (a full-depth notch).  Clamping is
    logged, never silent: one warning per clamped coefficient, with the
    number of points it was clamped at.  A pole damping surface that comes
    out nonpositive has no safe substitute and raises.
    """
    pts = np.asarray(points, dtype=float)
    beta2 = eval_surface(spec.beta2, pts)
    if np.any(beta2 <= 0.0):
        k = int(np.argmin(beta2))
        raise ModelError(f"scheduled notch pole damping {beta2[k]:.3g} <= 0 "
                         f"at p = {tuple(pts[k].tolist())}")
    hi = np.inf if f_max is None else float(f_max)
    frozen = {}
    for name, lo, up in (("f1", MIN_NOTCH_FREQ_HZ, hi),
                         ("f2", MIN_NOTCH_FREQ_HZ, hi), ("beta1", 0.0, np.inf)):
        value = eval_surface(getattr(spec, name), pts)
        n_bad = int(np.count_nonzero((value < lo) | (value > up)))
        if n_bad:
            log.warning("scheduled notch %s clamped into [%g, %g] at %d of %d "
                        "points", name, lo, up, n_bad, value.size)
            value = np.clip(value, lo, up)
        frozen[name] = value
    return frozen["f1"], frozen["f2"], frozen["beta1"], beta2


def _frozen_coefficients(spec: LpvNotch, p, f_max=None):
    """Notch coefficients at one point (scalars) or an (n, 2) array."""
    if p is None:
        raise ModelError("scheduled notch needs a position to freeze at")
    pts = np.asarray(p, dtype=float)
    coeffs = freeze_notches(spec, np.atleast_2d(pts), f_max)
    return coeffs if pts.ndim == 2 else tuple(float(c[0]) for c in coeffs)


def _empty_ss() -> FrozenStateSpace:
    return FrozenStateSpace(
        a=np.zeros((0, 0)), b=np.zeros((0, 1)),
        c=np.zeros((1, 0)), d=np.ones((1, 1)))


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

    Scheduled blocks need the position p; fixed blocks ignore it.  Given
    an (n, 2) array of positions, a scheduled block (and a cascade holding
    one) realizes to matrices stacked along a leading axis of length n,
    one frozen realization per position.  f_max caps the scheduled notch
    frequencies as in freeze_notches.
    """
    if isinstance(spec, Cascade):
        ss = _empty_ss()
        for element in spec.elements:
            ss = series(ss, realize(element, p, f_max))
        return ss
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
        return FrozenStateSpace(
            *_notch_matrices(*_frozen_coefficients(spec, p, f_max)))
    raise ModelError(f"unknown filter block {type(spec).__name__}")


def _broadcast_batch(x, batch):
    return np.broadcast_to(x, batch + x.shape[-2:])


def series(first: FrozenStateSpace, second: FrozenStateSpace) -> FrozenStateSpace:
    """Series interconnection: the output of `first` drives `second`.

    Either side may carry matrices stacked along leading batch axes (one
    system per operating point); the result broadcasts over them.
    """
    if first.d.shape[-2] != second.d.shape[-1]:
        raise ModelError("series interconnection dimension mismatch")
    n1, n2 = first.n_states, second.n_states
    batch = np.broadcast_shapes(first.a.shape[:-2], second.a.shape[:-2])
    a = np.zeros(batch + (n1 + n2, n1 + n2))
    a[..., :n1, :n1] = first.a
    a[..., n1:, n1:] = second.a
    a[..., n1:, :n1] = second.b @ first.c
    b = np.concatenate([_broadcast_batch(first.b, batch),
                        _broadcast_batch(second.b @ first.d, batch)], axis=-2)
    c = np.concatenate([_broadcast_batch(second.d @ first.c, batch),
                        _broadcast_batch(second.c, batch)], axis=-1)
    d = second.d @ first.d
    return FrozenStateSpace(a=a, b=b, c=c, d=d)


def notch_transfer(f1, f2, beta1, beta2, omega):
    """Closed-form notch response at angular frequency omega (rad/s).

    Algebraic elimination of the realization gives

        (w2**2 / w1**2) * (s**2 + 2*beta1*w1*s + w1**2)
                        / (s**2 + 2*beta2*w2*s + w2**2)

    with s = j*omega; DC gain is exactly 1, the high-frequency gain is
    (f2/f1)**2.
    """
    s = 1j * np.asarray(omega, dtype=float)
    w1 = 2.0 * np.pi * f1
    w2 = 2.0 * np.pi * f2
    num = s * s + 2.0 * beta1 * w1 * s + w1 ** 2
    den = s * s + 2.0 * beta2 * w2 * s + w2 ** 2
    return (w2 ** 2 / w1 ** 2) * num / den


def element_transfer(spec, omega, p=None):
    """Closed-form response of one block at angular frequencies omega."""
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
    if isinstance(spec, LpvNotch):
        return notch_transfer(*_frozen_coefficients(spec, p), omega)
    raise ModelError(f"unknown filter block {type(spec).__name__}")


def cascade_frf(cascade: Cascade, freqs_hz, p=None) -> np.ndarray:
    """Frozen cascade response: the product of element responses."""
    omega = 2.0 * np.pi * np.asarray(freqs_hz, dtype=float)
    out = np.ones(omega.shape, dtype=complex)
    for element in cascade.elements:
        out = out * element_transfer(element, omega, p)
    return out


def n_states(spec) -> int:
    """State count of a block or cascade realization."""
    if isinstance(spec, Cascade):
        return sum(n_states(e) for e in spec.elements)
    if isinstance(spec, Gain):
        return 0
    if isinstance(spec, Integrator):
        return 1
    if isinstance(spec, Lead):
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


def filter_from_dict(data: dict):
    try:
        kind = data["type"]
        if kind == "gain":
            return Gain(k=float(data["k"]))
        if kind == "integrator":
            return Integrator()
        if kind == "lead":
            return Lead(f_bw=float(data["f_bw"]), alpha=float(data["alpha"]))
        if kind == "notch":
            return Notch(f1=float(data["f1"]), f2=float(data["f2"]),
                         beta1=float(data["beta1"]), beta2=float(data["beta2"]))
        if kind == "lpv_notch":
            return LpvNotch(beta1=surface_from_dict(data["beta1"]),
                            beta2=surface_from_dict(data["beta2"]),
                            f1=surface_from_dict(data["f1"]),
                            f2=surface_from_dict(data["f2"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad filter entry: {exc}") from exc
    raise ConfigError(f"unknown filter type {data.get('type')!r}")


def cascade_to_dict(cascade: Cascade) -> dict:
    return {"elements": [filter_to_dict(e) for e in cascade.elements],
            "n_fixed": cascade.n_fixed}


def cascade_from_dict(data: dict) -> Cascade:
    try:
        elements = tuple(filter_from_dict(e) for e in data["elements"])
        n_fixed = int(data["n_fixed"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad cascade entry: {exc}") from exc
    return Cascade(elements=elements, n_fixed=n_fixed)
