"""Snap-limited point-to-point reference trajectories and mass feedforward.

A fourth-order setpoint moves the stage with bounded velocity,
acceleration, jerk and snap.  The snap signal is piecewise constant in
{-s, 0, +s}, so every lower derivative is an exact polynomial in time and
the planner only has to pick four phase durations:

    ts  snap pulse length        (builds jerk)
    tj  constant-jerk length     (builds acceleration)
    ta  constant-acceleration length (builds velocity)
    tv  constant-velocity length (covers distance)

The symmetric profile has up to 15 segments: an S-shaped acceleration
phase (7 segments), a constant-velocity cruise, and the mirrored
deceleration phase.  With a1 = s*ts*(ts+tj) the peak acceleration and
v1 = a1*(2*ts+tj+ta) the peak velocity, the end position is

    d = s * ts*(ts+tj) * (2*ts+tj+ta) * (4*ts+2*tj+ta+tv)

which the planner inverts one duration at a time: grow ts until snap,
jerk, acceleration or velocity saturates, then tj, then ta, then tv.
Each step is a monotone scalar polynomial root, bracketed and solved
exactly enough that the final grid rounding dominates.

Durations are then rounded up to the simulator sample grid and the snap
level rescaled (d is linear in s at fixed durations), so the endpoint is
preserved exactly, every derivative peak can only shrink, and no
fixed-step integrator stage ever straddles a segment boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .io import dump_csv

__all__ = [
    "MotionBounds",
    "TrajectoryProfile",
    "plan",
    "sample",
    "write_profile_csv",
]


@dataclass(frozen=True)
class MotionBounds:
    """Symmetric magnitude limits on the setpoint derivatives."""

    v_max: float
    a_max: float
    j_max: float
    s_max: float

    def __post_init__(self):
        for name in ("v_max", "a_max", "j_max", "s_max"):
            value = getattr(self, name)
            if not np.isfinite(value) or value <= 0.0:
                raise ConfigError(f"motion bound {name} must be positive, "
                                  f"got {value}")


@dataclass
class TrajectoryProfile:
    """Piecewise-constant-snap setpoint, from rest at zero to rest.

    Segment k holds snap value snaps[k] for durations[k] seconds.  Knot
    states (position, velocity, acceleration, jerk) at segment boundaries
    are precomputed by exact polynomial propagation, so sampling inside a
    segment is a short Taylor evaluation.
    """

    durations: np.ndarray
    snaps: np.ndarray
    sample_rate_hz: float
    t_knots: np.ndarray = field(init=False, repr=False)
    state_knots: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.durations = np.asarray(self.durations, dtype=float)
        self.snaps = np.asarray(self.snaps, dtype=float)
        if self.durations.shape != self.snaps.shape or self.durations.ndim != 1:
            raise ConfigError("segment durations and snap values must be "
                              "1-d arrays of equal length")
        if np.any(self.durations < 0.0):
            raise ConfigError("segment durations must be nonnegative")
        if not np.isfinite(self.sample_rate_hz) or self.sample_rate_hz <= 0.0:
            raise ConfigError("sample rate must be positive and finite")
        n = self.durations.size
        self.t_knots = np.concatenate([[0.0], np.cumsum(self.durations)])
        states = np.zeros((n + 1, 4))
        for k in range(n):
            tau = self.durations[k]
            s = self.snaps[k]
            x, v, a, j = states[k]
            states[k + 1] = (
                x + v * tau + a * tau ** 2 / 2 + j * tau ** 3 / 6
                + s * tau ** 4 / 24,
                v + a * tau + j * tau ** 2 / 2 + s * tau ** 3 / 6,
                a + j * tau + s * tau ** 2 / 2,
                j + s * tau,
            )
        self.state_knots = states

    @property
    def duration(self) -> float:
        return float(self.t_knots[-1])

    @property
    def displacement(self) -> float:
        return float(self.state_knots[-1, 0])

    @property
    def n_segments(self) -> int:
        return self.durations.size


def _round_up_to_grid(t: float, dt: float) -> float:
    if t <= 0.0:
        return 0.0
    # The small backoff keeps exact multiples from bumping a full step.
    return float(np.ceil(t / dt - 1e-9)) * dt


def _increasing_root(f, hi: float) -> float:
    """Root in [0, inf) of f, increasing there with f(0) <= 0.

    The upper bracket starts at hi and doubles until f(hi) >= 0.  Bisection
    then stops once the bracket is within brentq's tolerance, 1e-15 +
    8.9e-16 * root, or after 200 halvings, and returns its midpoint.
    """
    lo = 0.0
    while f(hi) < 0.0:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-15 + 8.9e-16 * mid:
            break
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _phase_durations(d: float, b: MotionBounds):
    """Unquantized time-optimal (ts, tj, ta, tv) for displacement d > 0."""
    s = b.s_max

    # Snap phase: grow ts until the profile covers d with snap pulses
    # alone, or until jerk/acceleration/velocity would overflow.
    ts_unsat = (d / (8.0 * s)) ** 0.25
    ts = min(ts_unsat,
             b.j_max / s,
             np.sqrt(b.a_max / s),
             (b.v_max / (2.0 * s)) ** (1.0 / 3.0))
    if ts >= ts_unsat:
        return ts_unsat, 0.0, 0.0, 0.0

    def reach(ts, tj, ta, tv):
        return (s * ts * (ts + tj) * (2.0 * ts + tj + ta)
                * (4.0 * ts + 2.0 * tj + ta + tv))

    # Constant-jerk phase.
    tj_unsat = _increasing_root(lambda tj: reach(ts, tj, 0.0, 0.0) - d,
                                max(ts, 1.0))
    tj_cap_a = b.a_max / (s * ts) - ts
    # Velocity cap with ta = 0: s*ts*(ts+tj)*(2*ts+tj) = v_max.
    tj_cap_v = 0.5 * (-3.0 * ts
                      + np.sqrt(ts ** 2 + 4.0 * b.v_max / (s * ts)))
    tj = max(0.0, min(tj_unsat, tj_cap_a, tj_cap_v))
    if tj >= tj_unsat:
        return ts, tj_unsat, 0.0, 0.0

    # Constant-acceleration phase.
    a1 = s * ts * (ts + tj)
    ta_unsat = _increasing_root(lambda ta: reach(ts, tj, ta, 0.0) - d,
                                max(4.0 * ts + 2.0 * tj, 1.0))
    ta_cap_v = b.v_max / a1 - (2.0 * ts + tj)
    ta = max(0.0, min(ta_unsat, ta_cap_v))
    if ta >= ta_unsat:
        return ts, tj, ta_unsat, 0.0

    # Cruise covers whatever distance is left, exactly.
    v1 = a1 * (2.0 * ts + tj + ta)
    tv = d / v1 - (4.0 * ts + 2.0 * tj + ta)
    return ts, tj, ta, max(0.0, tv)


def plan(displacement: float, bounds: MotionBounds,
         sample_rate_hz: float = 10000.0) -> TrajectoryProfile:
    """Time-optimal symmetric snap-bang profile for a rest-to-rest move."""
    if not np.isfinite(displacement):
        raise ConfigError("displacement must be finite")
    if not np.isfinite(sample_rate_hz) or sample_rate_hz <= 0.0:
        raise ConfigError("sample rate must be positive and finite")
    if displacement == 0.0:
        return TrajectoryProfile(np.zeros(0), np.zeros(0), sample_rate_hz)

    d = abs(displacement)
    dt = 1.0 / sample_rate_hz
    ts, tj, ta, tv = _phase_durations(d, bounds)
    ts = _round_up_to_grid(ts, dt)
    tj = _round_up_to_grid(tj, dt)
    ta = _round_up_to_grid(ta, dt)
    tv = _round_up_to_grid(tv, dt)

    # Rescale the snap level so the rounded-up profile still ends exactly
    # at d; every derivative peak shrinks with the longer durations.
    s = d / (ts * (ts + tj) * (2.0 * ts + tj + ta)
             * (4.0 * ts + 2.0 * tj + ta + tv))
    if displacement < 0.0:
        s = -s

    pattern = [(ts, s), (tj, 0.0), (ts, -s), (ta, 0.0), (ts, -s), (tj, 0.0),
               (ts, s), (tv, 0.0), (ts, -s), (tj, 0.0), (ts, s), (ta, 0.0),
               (ts, s), (tj, 0.0), (ts, -s)]
    kept = [(tau, sv) for tau, sv in pattern if tau > 0.0]
    durations = np.array([tau for tau, _ in kept])
    snaps = np.array([sv for _, sv in kept])
    return TrajectoryProfile(durations, snaps, sample_rate_hz)


def sample(profile: TrajectoryProfile, t):
    """Setpoint state at time(s) t: (pos, vel, acc, jerk, snap).

    Times outside [0, duration] clamp to the endpoint states.  Scalar in,
    scalars out; array in, arrays out.
    """
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)

    if profile.n_segments == 0:
        out = tuple(np.zeros(t_arr.shape) for _ in range(5))
        return tuple(float(o[0]) for o in out) if scalar else out

    tc = np.clip(t_arr, 0.0, profile.duration)
    idx = np.clip(np.searchsorted(profile.t_knots, tc, side="right") - 1,
                  0, profile.n_segments - 1)
    tau = tc - profile.t_knots[idx]
    x, v, a, j = profile.state_knots[idx].T
    s = profile.snaps[idx]
    pos = x + v * tau + a * tau ** 2 / 2 + j * tau ** 3 / 6 + s * tau ** 4 / 24
    vel = v + a * tau + j * tau ** 2 / 2 + s * tau ** 3 / 6
    acc = a + j * tau + s * tau ** 2 / 2
    jerk = j + s * tau
    # Snap is right-continuous inside the profile and zero once the move
    # is over (or before it starts).
    inside = (t_arr == tc) & (t_arr < profile.duration)
    snap = np.where(inside, s, 0.0)
    if scalar:
        return (float(pos[0]), float(vel[0]), float(acc[0]), float(jerk[0]),
                float(snap[0]))
    return pos, vel, acc, jerk, snap


def write_profile_csv(path, profile: TrajectoryProfile):
    """Dump the sampled profile as CSV columns t, pos, vel, acc, jerk, snap.

    The rows are the profile's own sample times, 0 to its duration in
    steps of 1 / its rate.  Returns sample(profile, t) at those times,
    (pos, vel, acc, jerk, snap).
    """
    n = int(round(profile.duration * profile.sample_rate_hz))
    t = np.arange(n + 1) / profile.sample_rate_hz
    samples = sample(profile, t)
    dump_csv(path, ["t", "pos", "vel", "acc", "jerk", "snap"],
             [t, *samples])
    return samples
