"""Deterministic file output helpers.

All data files produced by this package are byte-identical for identical
inputs: no timestamps, fixed float formatting, fixed newline convention.
CSV floats use 17 significant digits; JSON floats use Python's shortest
round-trip representation. Both parse back to the exact same double.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import ConfigError, ModelError

__all__ = ["dump_json", "load_json", "load_from", "dump_csv", "load_csv"]


def dump_json(obj, path) -> None:
    text = json.dumps(obj, indent=2)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
        fh.write("\n")


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def load_from(path, from_dict):
    """from_dict of the JSON in the file at path; a ConfigError or
    ModelError that from_dict raises comes back naming the file."""
    data = load_json(path)
    try:
        return from_dict(data)
    except (ConfigError, ModelError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def dump_csv(path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write equal-length columns under the given header names."""
    cols = [np.asarray(c) for c in columns]
    if len(cols) != len(header):
        raise ValueError("header/column count mismatch")
    n = len(cols[0])
    if any(len(c) != n for c in cols):
        raise ValueError("columns must have equal length")
    # One % operation per row; "%.17g" reads back as the same double.
    row_fmt = ("%.17g," * len(cols))[:-1] + "\n"
    rows = np.column_stack(cols).astype(float).tolist()
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row_fmt % tuple(row) for row in rows)


def load_csv(path) -> tuple[list[str], np.ndarray]:
    """Read a CSV written by dump_csv: returns (header, data with shape (n, cols))."""
    if not os.path.exists(path):
        raise ConfigError(f"no such file: {path}")
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.size and data.shape[1] != len(header):
        raise ConfigError(f"{path}: column count does not match header")
    return header, data
