"""The RK4 kernel against the allocating per-step loop, byte for byte.

lpvslc._kernels._sim_loop writes every stage into preallocated buffers and
the new state straight into the trace; tests/kernel_reference.py keeps the
loop that allocates each stage as a new array.  Both must return the same
status and write the same bytes into every row of the state trace, and
the kernel must leave its inputs and the trace's initial row untouched.
"""

import numpy as np
import pytest

from lpvslc import _kernels
from lpvslc.design import DesignSpec, design_lpv_slc, design_lti_slc
from lpvslc.plant import benchmark_plant
from lpvslc.sim import SimConfig, benchmark_motion, simulate

from kernel_reference import _sim_loop as reference_loop

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

KERNEL = _kernels.get_backend()


def _check_block(n_steps, dt, a_t, g_t, x_t):
    """Run the kernel on x_t and the reference on a copy; compare them up
    to the status, and return the status and the reference trace."""
    a_in, g_in, x_ref = a_t.copy(), g_t.copy(), x_t.copy()
    want = reference_loop(n_steps, dt, a_in.copy(), g_in.copy(), x_ref)
    got = KERNEL(n_steps, dt, a_t, g_t, x_t)
    assert got == want
    assert a_t.tobytes() == a_in.tobytes()
    assert g_t.tobytes() == g_in.tobytes()
    assert x_t[0].tobytes() == x_ref[0].tobytes()
    upto = n_steps + 1 if want < 0 else want + 1
    for row in range(upto):
        assert x_t[row].tobytes() == x_ref[row].tobytes(), row
    return got, x_ref


def _random_block(rng, nx, n_steps, scale):
    a_t = rng.standard_normal((n_steps, nx, nx)) * scale
    g_t = rng.standard_normal((n_steps, 3, nx))
    x_t = np.empty((n_steps + 1, nx))
    x_t[0] = rng.standard_normal(nx)
    return a_t, g_t, x_t


@pytest.mark.parametrize("nx", [1, 2, 5, 38])
@pytest.mark.parametrize("n_steps", [1, 2, 127, 128])
def test_kernel_equals_reference_on_random_blocks(nx, n_steps):
    rng = np.random.default_rng(1000 * nx + n_steps)
    for scale in (0.1, 10.0, 300.0):
        _check_block(n_steps, 1.0e-3, *_random_block(rng, nx, n_steps, scale))


def test_kernel_equals_reference_through_overflow():
    """A block that overflows to inf and then nan part-way through."""
    rng = np.random.default_rng(7)
    nx, n_steps = 5, 128
    a_t, g_t, x_t = _random_block(rng, nx, n_steps, 1.0)
    a_t += 2000.0 * np.eye(nx)
    status, x_ref = _check_block(n_steps, 1.0e-2, a_t, g_t, x_t)
    assert 1 <= status < n_steps
    assert np.isinf(x_t).any() and np.isnan(x_t).any()
    assert not np.isfinite(x_t[-1]).any()
    assert x_t.tobytes() == x_ref.tobytes()


@pytest.fixture(scope="module")
def readme_sets():
    model = benchmark_plant()
    spec = DesignSpec()
    return model, {"lti": design_lti_slc(model, spec),
                   "lpv": design_lpv_slc(model, spec)}


@pytest.mark.parametrize("kind", ["lti", "lpv"])
def test_kernel_equals_reference_on_the_readme_scan(readme_sets, kind,
                                                    monkeypatch):
    """Every assembled block of the README scan's first 0.08 s."""
    model, sets = readme_sets
    statuses = []

    def checked(*args):
        statuses.append(_check_block(*args)[0])
        return statuses[-1]

    monkeypatch.setattr(_kernels, "get_backend", lambda: checked)
    simulate(model, sets[kind], benchmark_motion(), SimConfig(duration_s=0.08))
    assert statuses == [-1] * 7
