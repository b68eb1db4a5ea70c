"""Exception hierarchy and the number checks shared by all lpvslc modules."""

import math
import numbers

import numpy as np


class LpvSlcError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(LpvSlcError):
    """Malformed or inconsistent configuration input (files, dicts, arguments)."""


class DomainError(LpvSlcError):
    """A scheduling point or frequency lies outside the validated domain."""


class ModelError(LpvSlcError):
    """A plant or controller model violates a structural requirement."""


class DecouplingError(LpvSlcError):
    """Rigid-body actuation or sensing map is rank deficient at a position."""


class DesignInfeasibleError(LpvSlcError):
    """No controller in the search family satisfies the stability/robustness bounds."""


class NumericalError(LpvSlcError):
    """A numerical procedure diverged or hit a singular/ill-conditioned case."""


def integral(key: str, value) -> int:
    """value as an int; booleans and non-integral numbers are refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not float(value).is_integer():
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def real(key: str, value) -> float:
    """value as a float; refuses booleans, non-numbers and non-finite values."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not math.isfinite(value):
        raise ConfigError(f"{key} must be finite and real, got {value!r}")
    return float(value)


def reals(key: str, value) -> np.ndarray:
    """value as a float array; every entry, at any depth, must pass real."""
    entries = np.array(value, dtype=object)
    return np.array([real(key, v) for v in entries.ravel()],
                    dtype=float).reshape(entries.shape)
