"""Float64 values on which a "%.17g" encoder is easy to get wrong.

Each generator takes a numpy Generator and a count and returns a float64
array of about that many values.  tests/test_io.py runs them at a few
thousand values each; tools/csv_format_sweep.py runs them on millions.
"""

import numpy as np

# The encoder's fast range, 1e-44 <= |x| < 1e15, and one decade either side.
POWERS = np.arange(-45, 17)


def bit_patterns(rng, n):
    """Random uint64 bit patterns: every class of double, nan payloads,
    subnormals and huge values included."""
    return rng.integers(0, 2 ** 64, n, dtype=np.uint64, endpoint=False).view(np.float64)


def log_uniform(rng, n):
    """Both signs, log-uniform over the fast range."""
    return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-44, 15, n)


def dyadic_ties(rng, n):
    """m / 2**k with m * 5**k an 18-digit odd number: the 18th significant
    digit is an exact 5, a tie that "%.17g" rounds half to even.  Half of
    them are plain random dyadics m / 2**k, k < 150."""
    k = rng.integers(3, 26, n // 2)
    five = 5.0 ** k
    lo = np.ceil(1e17 / five)
    hi = np.minimum(1e18 / five, 2.0 ** 53)
    m = np.floor(lo + rng.random(k.size) * (hi - lo)) // 2 * 2 + 1
    ties = m / 2.0 ** k
    plain = rng.integers(1, 2 ** 53, n - k.size) / 2.0 ** rng.integers(0, 150, n - k.size)
    return np.concatenate([ties, plain]) * rng.choice([-1.0, 1.0], n)


def powers_of_ten(rng, n):
    """Every double nearest 10**k, k in POWERS, and its neighbours up to 8
    ulps away, both signs; tiled to n values."""
    tens = np.array([float(f"1e{k}") for k in POWERS])
    near = (tens.view(np.int64)[:, None] + np.arange(-8, 9)).view(np.float64).ravel()
    near = np.concatenate([near, -near])
    return np.resize(near, max(n, near.size))


def below_powers_of_ten(rng, n):
    """Values just below 10**k whose 17 digits are all nines or round up
    to 10**k: decimal strings 9.9999999999999999x e(k-1), parsed."""
    k = rng.choice(POWERS, n)
    tail = rng.integers(0, 10 ** 3, n)
    text = [f"9.99999999999999{t:03d}e{e - 1}" for t, e in zip(tail.tolist(), k.tolist())]
    return np.array(text, dtype=float) * rng.choice([-1.0, 1.0], n)


def decimals(rng, n):
    """Random 17-digit decimals over the fast range, parsed from strings,
    and random integers below 1e15."""
    half = n // 2
    mant = rng.integers(10 ** 16, 10 ** 17, half)
    exp = rng.integers(-60, 0, half)
    text = [f"{m}e{e}" for m, e in zip(mant.tolist(), exp.tolist())]
    ints = rng.integers(0, 10 ** 15, n - half).astype(float)
    return np.concatenate([np.array(text, dtype=float), ints])


def specials(rng, n):
    """Signed zeros, nan with and without the sign bit, infinities,
    subnormals, the smallest normals, and the edges of the fast range."""
    edge = np.array([1e-44, 1e15, 2.2250738585072014e-308, 5e-324,
                     2.2250738585072009e-308, 1.7976931348623157e308])
    near = (edge.view(np.int64)[:, None] + np.arange(-3, 4)).view(np.float64).ravel()
    sub = rng.integers(1, 2 ** 52, 64).view(np.float64)
    fixed = np.concatenate([[0.0, np.nan, np.inf, np.copysign(np.nan, -1.0)],
                            near, sub])
    fixed = np.concatenate([fixed, -fixed])
    return np.resize(fixed, max(n, fixed.size))


GENERATORS = (bit_patterns, log_uniform, dyadic_ties, powers_of_ten,
              below_powers_of_ten, decimals, specials)
