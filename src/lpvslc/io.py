"""Deterministic file output helpers.

All data files produced by this package are byte-identical for identical
inputs: no timestamps, fixed float formatting, fixed newline convention.
CSV floats use 17 significant digits; JSON floats use Python's shortest
round-trip representation. Both parse back to the exact same double.

CSV cells are encoded by numpy in blocks of rows, each cell correctly
rounded to the text of "%.17g" (see dump_csv).  The encoder scales |x| to
17 digits in double-double arithmetic, with an error bound small enough
to decide the rounding of every cell that is not within 2**-40 of a
rounding tie; those few cells, and the values outside the encoder's
range, are formatted by "%.17g" itself.  This is the fast path with a
bail-out of Loitsch, "Printing floating-point numbers quickly and
accurately" (PLDI 2010).
"""

from __future__ import annotations

import functools
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


# Cells encoded per block: bounds the encoder's working arrays (about
# 250 bytes a cell) whatever the table's size.
_BLOCK_CELLS = 1 << 15

# The encoder covers normal |x| in [_FAST_MIN, _FAST_MAX).  There the
# scale p = 16 - floor(log10|x|) lies in 2..61, so 10**p is an integer
# held as a double-double (see _tables), and the decimal exponent
# -45 <= E <= 15 takes at most two exponent digits.
_FAST_MIN, _FAST_MAX = 1e-44, 1e15
# Dekker's split of a double into two 26-bit halves, for exact products.
_SPLIT = 134217729.0  # 2**27 + 1
# |x| * 10**p is estimated to within 2**-47; a cell whose estimate lies
# within _MARGIN of a half-integer is left to "%.17g".  Within _MARGIN of
# 10**16 or 10**17 either decade gives the same 17 digits.
_MARGIN = 2.0 ** -40
_D16, _D17 = 10 ** 16, 10 ** 17


@functools.cache
def _tables() -> tuple:
    """The encoder's tables, built on the first CSV written: pow_hi +
    pow_lo is 10**p for p < 64, pow_hi_h + pow_hi_l its Dekker split, and
    digits4 the four ASCII digits of every n < 10**4 as one uint32: entry
    n with the zeros after n's last nonzero digit as NUL bytes, entry
    10**4 + n in full."""
    pow_hi = np.array([float(10 ** p) for p in range(64)])
    pow_lo = np.array([float(10 ** p - int(h)) for p, h in enumerate(pow_hi)])
    pow_hi_h = _SPLIT * pow_hi - (_SPLIT * pow_hi - pow_hi)
    full = 48 + np.indices((10,) * 4, np.uint8).reshape(4, -1).T
    trimmed = full.copy()
    zero = np.ones(10 ** 4, bool)
    for i in range(3, -1, -1):
        zero &= full[:, i] == 48
        trimmed[zero, i] = 0
    digits4 = np.concatenate([trimmed, full]).view(np.uint32).ravel()
    return pow_hi, pow_lo, pow_hi_h, pow_hi - pow_hi_h, digits4


# A block's cells are sorted into layout groups, and each group's 24-byte
# slots are written by column slices: the sign ("-" or NUL) in byte 0,
# then the text, NUL-padded; NUL bytes are dropped when the block is
# written.  Group 0 is d.ddde-XX (E < -4), k = 1..4 is 0.000ddd with
# E = -k, _FIXED + E is ddd.ddd with 0 <= E <= 15; then the constants and
# the cells left to "%.17g".
_FIXED = 5
_ZERO, _NAN, _INF, _SLOW = range(_FIXED + 16, _FIXED + 20)


def _scaled(a: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(D, f): D the nearest integer to a * 10**p, as int64, and f the
    estimate of a * 10**p - D, to within 2**-47 where
    2**53 <= a * 10**p <= 10**17."""
    pow_hi, pow_lo, pow_hi_h, pow_hi_l, _ = _tables()
    prod = a * pow_hi.take(p)
    a_h = _SPLIT * a
    a_h -= a_h - a
    a_l = a - a_h
    # Dekker's TwoProduct, in place: prod + err is exactly a * pow_hi[p],
    # err = ((a_h h_h - prod) + a_h h_l + a_l h_h) + a_l h_l.
    h_h, h_l = pow_hi_h.take(p), pow_hi_l.take(p)
    err = a_h * h_h
    err -= prod
    term = a_h * h_l
    err += term
    err += np.multiply(a_l, h_h, out=term)
    err += np.multiply(a_l, h_l, out=term)
    err += np.multiply(a, pow_lo.take(p), out=term)
    step = np.rint(err)
    err -= step
    D = prod.astype(np.int64)
    D += step.astype(np.int64)
    return D, err


def _decimal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, e, ok) for magnitudes a in [_FAST_MIN, _FAST_MAX): a rounded to
    17 significant digits is D * 10**(e - 16), 10**16 <= D < 10**17, where
    ok; ok is False where the estimate cannot decide the rounding."""
    p = 16 - np.floor(np.log10(a)).astype(np.intp)
    D, f = _scaled(a, p)
    # Next to a power of ten log10 can miss the decade by one: the scale is
    # corrected from the unrounded estimate D + f, once.
    low = (D < _D16) | ((D == _D16) & (f < 0))
    high = (D > _D17) | ((D == _D17) & (f >= 0))
    fix = np.flatnonzero(low | high)
    if fix.size:
        p[fix] += low[fix].astype(np.intp) - high[fix]
        D[fix], f[fix] = _scaled(a[fix], p[fix])
    ok = ((np.abs(f) < 0.5 - _MARGIN)
          & np.where(D == _D16, f > -_MARGIN, D > _D16)
          & np.where(D == _D17, f < _MARGIN, D < _D17))
    # Rounding up to 10**17 carries into the exponent.
    carry = D == _D17
    D[carry] = _D16
    return D, 16 - p + carry, ok


def _encode(x: np.ndarray, sep: np.ndarray) -> np.ndarray:
    """The text of the cells x (a block of whole rows, row-major), each
    followed by its separator (sep, tiled over the rows), as uint8."""
    m = x.size
    group = np.where(x == 0, _ZERO, np.where(np.isnan(x), _NAN,
                     np.where(np.isinf(x), _INF, _SLOW))).astype(np.uint8)
    a = np.abs(x)
    cand = np.flatnonzero((a >= _FAST_MIN) & (a < _FAST_MAX))
    D, e, ok = _decimal(a[cand])
    group[cand] = np.where(ok, np.where(e >= 0, _FIXED + e,
                                        np.where(e >= -4, -e, 0)), _SLOW)
    order = np.argsort(group, kind="stable")
    ends = np.cumsum(np.bincount(group, minlength=_SLOW + 1))
    # The encoded cells come first in order; D and e are per candidate.
    x = x.take(order)
    at = np.empty(m, np.intp)
    at[cand] = np.arange(cand.size)
    at = at.take(order[:ends[_ZERO - 1]])
    D, e = D.take(at), e.take(at)
    # The first digit, then 16 in four words, where the zeros after the
    # last nonzero digit are NUL.
    quads = np.empty((D.size, 4), np.int64)
    for i in (3, 2, 1, 0):
        rest = D // 10 ** 4
        quads[:, i] = D - rest * 10 ** 4
        D = rest
    later = quads[:, 3] != 0
    for i in (2, 1, 0):
        nonzero = quads[:, i] != 0
        quads[:, i] += later * 10 ** 4
        later |= nonzero
    first = (48 + D).astype(np.uint8)  # D is left with the first digit
    digits = _tables()[4].take(quads).view(np.uint8)
    out = np.zeros((m, 25), np.uint8)
    out[:, 0] = 45 * np.signbit(x).view(np.uint8)
    out[:, 24] = np.tile(sep, m // sep.size).take(order)
    for g in np.flatnonzero(np.diff(ends, prepend=0)):
        rows = slice(ends[g - 1] if g else 0, ends[g])
        slot, lead, tail = out[rows], first[rows], digits[rows]
        if g == 0:
            slot[:, 1] = lead
            slot[:, 2] = np.where(tail[:, 0] != 0, 46, 0)
            slot[:, 3:19] = tail
            exp = -e[rows]
            slot[:, 19:21] = np.frombuffer(b"e-", np.uint8)
            slot[:, 21] = 48 + exp // 10
            slot[:, 22] = 48 + exp % 10
        elif g < _FIXED:
            slot[:, 1:g + 2] = np.frombuffer(b"0." + b"0" * (g - 1), np.uint8)
            slot[:, g + 2] = lead
            slot[:, g + 3:g + 19] = tail
        elif g < _ZERO:
            k = g - _FIXED
            slot[:, 1] = lead
            # Digits before the decimal point are never dropped.
            slot[:, 2:k + 2] = tail[:, :k] | 48
            slot[:, k + 2] = np.where(tail[:, k] != 0, 46, 0)
            slot[:, k + 3:19] = tail[:, k:]
        elif g == _SLOW:
            text = ["%.17g" % v for v in x[rows].tolist()]
            slot[:, :24] = np.array(text, "S24").view(np.uint8).reshape(-1, 24)
        elif g == _NAN:
            slot[:, :3] = np.frombuffer(b"nan", np.uint8)
        else:
            word = b"0" if g == _ZERO else b"inf"
            slot[:, 1:1 + len(word)] = np.frombuffer(word, np.uint8)
    # Back to row-major order, moving each 25-byte slot as one item.
    text = np.empty_like(out)
    np.put(text.view("V25").ravel(), order, out.view("V25").ravel())
    text = text.ravel()
    return text[text != 0]


def dump_csv(path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write equal-length 1-D columns under the given header names.

    Every cell is the text of "%.17g" of its value as a float64, which
    reads back as the same double.  Cells are encoded by numpy, _BLOCK_CELLS
    at a time in whole rows; a cell the encoder cannot decide (within
    2**-40 of a rounding tie, or outside [1e-44, 1e15) in magnitude) is
    formatted by "%.17g".  Columns must be real: boolean, integer or float
    arrays.
    """
    arrays = [np.asarray(c) for c in columns]
    if len(arrays) != len(header):
        raise ValueError("header/column count mismatch")
    for name, c in zip(header, arrays):
        if c.dtype.kind not in "biuf":
            raise ValueError(f"column {name!r} is not real: dtype {c.dtype}")
    cols = [c.astype(float, copy=False) for c in arrays]
    n = len(cols[0])
    if any(c.shape != (n,) for c in cols):
        raise ValueError("columns must be 1-D and of equal length")
    sep = np.full(len(cols), ord(","), np.uint8)
    sep[-1] = ord("\n")
    rows = max(1, _BLOCK_CELLS // len(cols))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, n, rows):
            block = np.stack([c[start:start + rows] for c in cols], axis=1)
            fh.write(_encode(block.ravel(), sep))


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
