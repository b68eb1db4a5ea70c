"""Reference resonance-peak detection: one sample at a time.

This is design._find_resonance_peaks as it ran before its candidate
samples were found in one vectorized pass: every sample of the curve is
tested in a Python loop, and each one that passes is refined and
measured on the spot.  The tests hold the package's detection to it.
"""

import numpy as np

from lpvslc.design import PEAK_BAND_HZ, PEAK_MIN_RATIO, _ResonancePeak


def loop_find_resonance_peaks(freqs_hz, g_frf, mass) -> list:
    """Local maxima of the mass-normalized accelerance of one loop."""
    f = np.asarray(freqs_hz, dtype=float)
    n = np.abs(np.asarray(g_frf)) * (2.0 * np.pi * f) ** 2 * mass
    lo, hi = PEAK_BAND_HZ
    peaks = []
    for i in range(1, len(f) - 1):
        if not (lo <= f[i] <= hi):
            continue
        if not (n[i] >= n[i - 1] and n[i] > n[i + 1] and n[i] >= PEAK_MIN_RATIO):
            continue
        # Parabolic refinement in log-log coordinates.
        x = np.log10(f[i - 1: i + 2])
        y = np.log10(n[i - 1: i + 2])
        denom = (y[0] - 2.0 * y[1] + y[2])
        if denom < 0.0:
            shift = 0.5 * (y[0] - y[2]) / denom
            shift = float(np.clip(shift, -0.5, 0.5))
        else:
            shift = 0.0
        f_peak = 10.0 ** (x[1] + shift * (x[2] - x[1]))
        n_peak = float(n[i] if denom >= 0.0
                       else 10.0 ** (y[1] - 0.25 * (y[0] - y[2]) * shift))
        # Half-power width around the peak for a damping estimate.
        level = n_peak / np.sqrt(2.0)
        j_lo = i
        while j_lo > 0 and n[j_lo] > level:
            j_lo -= 1
        j_hi = i
        while j_hi < len(f) - 1 and n[j_hi] > level:
            j_hi += 1
        width = max(f[j_hi] - f[j_lo], f[i + 1] - f[i - 1])
        zeta = float(np.clip(width / (2.0 * f_peak), 1e-3, 0.2))
        peaks.append(_ResonancePeak(f_hz=float(f_peak), accelerance=n_peak,
                                    zeta=zeta))
    # Merge near-coincident grid maxima, keeping the taller one.
    merged: list = []
    for pk in sorted(peaks, key=lambda q: q.f_hz):
        if merged and abs(pk.f_hz / merged[-1].f_hz - 1.0) < 0.05:
            if pk.accelerance > merged[-1].accelerance:
                merged[-1] = pk
        else:
            merged.append(pk)
    return merged
