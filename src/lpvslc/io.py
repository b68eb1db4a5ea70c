"""Deterministic file output helpers.

All data files produced by this package are byte-identical for identical
inputs: no timestamps, fixed float formatting, fixed newline convention.
CSV floats use 17 significant digits; JSON floats use Python's shortest
round-trip representation. Both parse back to the exact same double.

A CSV column whose value repeats over runs of rows (a constant column, a
trajectory's cruise phase) has each run's text formatted once and
repeated, with the bytes of formatting every cell (see dump_csv).
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


# A column takes the run path when it has at most one run of equal values
# per _RUN_ROWS rows.  Formatting a run's value costs about as much as a
# cell inside the row format (0.58 against 0.53 us, Python 3.11 on a
# 2-vCPU x86-64 VM), so the run path then formats at most about half the
# text, and repeating it is cheap.
_RUN_ROWS = 2


def _run_cells(col: np.ndarray, change: np.ndarray) -> list:
    """Per-row text of a column on the run path: each run's "%.17g" text,
    formatted once and repeated over the run; change[i] marks a new run
    at row i + 1."""
    starts = np.concatenate(([0], np.flatnonzero(change) + 1))
    values = col[starts].tolist()
    text = (",".join(["%.17g"] * len(values)) % tuple(values)).split(",")
    return np.repeat(np.array(text, dtype=object),
                     np.diff(starts, append=col.size)).tolist()


def dump_csv(path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write equal-length 1-D columns under the given header names.

    Every cell is "%.17g" of its value as a float64, which reads back as
    the same double.  A column with at most one run of equal values per
    _RUN_ROWS rows formats each run once and repeats the text.  Runs are
    of equal bit patterns (-0.0 and 0.0, or two NaN payloads, are
    distinct), and the text is a function of the bits, so the bytes are
    those of formatting every cell.
    """
    cols = [np.asarray(c, dtype=float) for c in columns]
    if len(cols) != len(header):
        raise ValueError("header/column count mismatch")
    n = len(cols[0])
    if any(c.shape != (n,) for c in cols):
        raise ValueError("columns must be 1-D and of equal length")
    table = np.column_stack(cols)
    bits = table.view(np.int64)
    change = bits[1:] != bits[:-1]
    on_runs = _RUN_ROWS * (1 + np.count_nonzero(change, axis=0)) <= n
    # Every cell in one row-major list, so that the floats a row format
    # reads sit together in memory (made column by column, the rows of a
    # wide table format about 5 % slower); a run-path column's cells are
    # then replaced by its text.
    k = len(cols)
    cells = table.ravel().tolist()
    for j in np.flatnonzero(on_runs):
        cells[j::k] = _run_cells(cols[j], change[:, j])
    # One % operation per row.
    row_fmt = ",".join("%s" if r else "%.17g" for r in on_runs) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        # zip over k references to one iterator: the rows, k cells each.
        fh.writelines(map(row_fmt.__mod__, zip(*[iter(cells)] * k)))


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
