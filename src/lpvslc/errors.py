"""Exception hierarchy and the readers shared by all lpvslc modules.

A reader takes (key, value) and returns the value as the program uses it,
or raises ConfigError naming key.  Every JSON loader reads through record.
"""

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


def _beyond_float(key: str, value) -> ConfigError:
    """The refusal of a number that float() cannot hold.  Its digits are
    not printed: str() refuses an int of more than 4,300 digits."""
    return ConfigError(f"{key} must lie within the float range, got a "
                       f"{type(value).__name__} value beyond it")


def integral(key: str, value) -> int:
    """value as an int; booleans, non-integral numbers and numbers beyond
    the float range are refused."""
    try:
        # A plain int skips the ABC check.
        if type(value) is int and float(value).is_integer():
            return value
        if isinstance(value, bool) or not isinstance(value, numbers.Real) \
                or not float(value).is_integer():
            raise ConfigError(f"{key} must be an integer, got {value!r}")
    except OverflowError:
        raise _beyond_float(key, value) from None
    return int(value)


def real(key: str, value) -> float:
    """value as a float; refuses booleans, non-numbers and non-finite values,
    numbers beyond the float range included."""
    try:
        # Plain floats and ints first: the ABC check below is the slow part.
        if type(value) in (float, int) and math.isfinite(value):
            return float(value)
        if isinstance(value, bool) or not isinstance(value, numbers.Real) \
                or not math.isfinite(value):
            raise ConfigError(f"{key} must be finite and real, got {value!r}")
    except OverflowError:
        raise _beyond_float(key, value) from None
    return float(value)


def positive(key: str, value) -> float:
    if real(key, value) <= 0.0:
        raise ConfigError(f"{key} must be > 0, got {value!r}")
    return float(value)


def boolean(key: str, value) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def text(key: str, value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    return value


def reals(key: str, value) -> np.ndarray:
    """value as a float array; every entry, at any depth, must pass real.
    Python floats and ints are checked in one pass, anything else, and an
    int beyond the float range, by real."""
    entries = np.array(value, dtype=object)
    flat = entries.ravel()
    if set(map(type, flat)) <= {float, int}:
        try:
            out = flat.astype(float)
        except OverflowError:
            out = np.array([np.nan])
        if np.isfinite(out).all():
            return out.reshape(entries.shape)
    return np.array([real(key, v) for v in flat],
                    dtype=float).reshape(entries.shape)


def nullable(reader):
    """reader that also takes JSON null, as None."""
    return lambda key, value: None if value is None else reader(key, value)


def listof(reader, length=None):
    """Reader of a JSON list (of length entries, when given) as a tuple,
    entry i read by reader as f"{key}[{i}]"."""
    def read(key, value):
        if not isinstance(value, list) or length not in (None, len(value)):
            size = f" of {length} entries" if length else ""
            raise ConfigError(f"{key} must be a list{size}, got {value!r}")
        return tuple(reader(f"{key}[{i}]", v) for i, v in enumerate(value))
    return read


def record(where: str, data, fields: dict) -> dict:
    """The fields of the JSON object data, each read by its reader.

    fields maps a name to a reader, or to (reader, default) for an optional
    field.  Anything but a JSON object, unknown fields and missing required
    fields are refused; a reader's ConfigError or ModelError comes back as
    a ConfigError prefixed with where, the file or record.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(data).__name__}")
    unknown = data.keys() - fields.keys()
    if unknown:
        raise ConfigError(f"{where}: unknown fields {sorted(unknown)}")
    missing = [name for name, spec in fields.items()
               if name not in data and not isinstance(spec, tuple)]
    if missing:
        raise ConfigError(f"{where}: missing fields {missing}")
    out = {}
    for name, spec in fields.items():
        reader, default = spec if isinstance(spec, tuple) else (spec, None)
        try:
            out[name] = reader(name, data[name]) if name in data else default
        except (ConfigError, ModelError) as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    return out


def tagged(where: str, data, tag: str, variants: dict) -> dict:
    """record of data with the fields of the variant its tag field names;
    variants maps each tag value to that variant's other fields."""
    kind = data.get(tag) if isinstance(data, dict) else None
    if isinstance(data, dict) and not (isinstance(kind, str) and kind in variants):
        raise ConfigError(f"{where}: {tag} must be one of {sorted(variants)}, got {kind!r}")
    return record(where, data, {tag: text, **variants.get(kind, {})})
