"""Reference moving average and moving standard deviation: the two-branch
ma_msd, one loop for even and one for odd windows.

This is sim.ma_msd as it was before the two branches became one loop,
copied verbatim.  test_sim.py holds sim.ma_msd to its bytes and its
error messages.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from lpvslc.errors import ConfigError


def ma_msd(e, window_s: float, sample_rate_hz: float):
    """Centered moving average and moving standard deviation of an error.

    The window [t - T/2, t + T/2] is integrated with the trapezoid rule on
    the sample grid; T must be a positive multiple of the sample step.  For
    an odd multiple the window edges fall halfway between samples and the
    edge contributions use linearly interpolated error values.  Samples
    whose window does not fit inside the series come back as NaN.  Accepts
    a 1-d series or one column per axis.
    """
    arr = np.asarray(e, dtype=float)
    single = arr.ndim == 1
    if single:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ConfigError("error series must be 1-d or (samples, axes)")
    n = arr.shape[0]
    h = 1.0 / sample_rate_hz
    mf = window_s * sample_rate_hz
    m = int(round(mf))
    if window_s <= 0.0 or m < 1 or abs(mf - m) > 1e-6 * max(1.0, mf):
        raise ConfigError(
            "exposure window must be a positive multiple of the sample step")
    if m > n - 1:
        raise ConfigError("exposure window is longer than the series")
    T = m * h

    ma = np.full(arr.shape, np.nan)
    msd = np.full(arr.shape, np.nan)
    # The sliding window itself is a view; the deviation products are
    # evaluated in bounded row blocks so long runs with wide windows do
    # not materialize a samples-by-window matrix all at once.
    step = max(1, int(8_000_000 // (m + 1)))
    for a in range(arr.shape[1]):
        x = arr[:, a]
        if m % 2 == 0:
            hw = m // 2
            win = sliding_window_view(x, m + 1)
            mav = np.empty(win.shape[0])
            var = np.empty(win.shape[0])
            for j in range(0, win.shape[0], step):
                w = win[j:j + step]
                mv = np.trapezoid(w, dx=h, axis=1) / T
                dev = w - mv[:, None]
                mav[j:j + step] = mv
                var[j:j + step] = np.trapezoid(dev * dev, dx=h, axis=1) / T
            ma[hw:n - hw, a] = mav
            msd[hw:n - hw, a] = np.sqrt(np.maximum(var, 0.0))
        else:
            hw = (m - 1) // 2
            count = n - m - 1
            if count < 1:
                raise ConfigError("exposure window is longer than the series")
            inner = sliding_window_view(x, 2 * hw + 1)[1:1 + count]
            mav = np.empty(count)
            var = np.empty(count)
            for j in range(0, count, step):
                sl = slice(j, min(j + step, count))
                w = inner[sl]
                lo, li = x[sl.start:sl.stop], x[sl.start + 1:sl.stop + 1]
                ri = x[m + sl.start:m + sl.stop]
                ro = x[m + 1 + sl.start:m + 1 + sl.stop]
                edge_l = 0.5 * (lo + li)
                edge_r = 0.5 * (ri + ro)
                mv = (np.trapezoid(w, dx=h, axis=1)
                      + 0.25 * h * (edge_l + li)
                      + 0.25 * h * (edge_r + ri)) / T
                dev = w - mv[:, None]
                mav[sl] = mv
                var[sl] = (np.trapezoid(dev * dev, dx=h, axis=1)
                           + 0.25 * h * ((edge_l - mv) ** 2 + (li - mv) ** 2)
                           + 0.25 * h * ((edge_r - mv) ** 2 + (ri - mv) ** 2)) / T
            ma[hw + 1:hw + 1 + count, a] = mav
            msd[hw + 1:hw + 1 + count, a] = np.sqrt(np.maximum(var, 0.0))
    if single:
        return ma[:, 0], msd[:, 0]
    return ma, msd
