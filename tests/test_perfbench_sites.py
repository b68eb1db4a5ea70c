"""The call sites perfbench traces must exist in the package.

perfbench/tracing.py times calls by replacing module attributes such as
lpvslc.design.equivalent_plant for the length of a run; a site that no
longer resolves is reported absent and its layer reads zero.  This test
reads the site lists from that file, without changing it, so a refactor
that drops or renames one of those names fails here and not only in a
traced benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sites():
    tracing = _tracing_module()
    sites = {(module, attr) for module, attr, _, _ in
             tracing.LIBRARY_SITES + tracing.CLI_SITES}
    # The tracer also replaces the simulator's kernel lookup.
    return sorted(sites | {("lpvslc._kernels", "get_backend")})


@pytest.mark.parametrize("module, attr", _sites())
def test_traced_site_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), \
        f"{module}.{attr}"


def _workloads_module(monkeypatch):
    """perfbench/workloads.py, loaded by path as run.py loads it."""
    # workloads.py imports its sibling as `tracing` and looks itself up in
    # sys.modules; both are loaded by path under the names run.py gives
    # them, for this test only.
    monkeypatch.setitem(sys.modules, "tracing", _tracing_module())
    spec = importlib.util.spec_from_file_location(
        "workloads", TRACING.parent / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    spec.loader.exec_module(workloads)
    return workloads


def _traced_calls(workloads, workload, steps):
    """Run steps under the workload's tracer: per-layer call counts, the
    tracer, and each operation's per-layer totals.  No operation may
    fail."""
    tracer = workload.tracer()
    calls, per_op = {}, {}
    for step in steps:
        it = workloads.Iteration(tracer)
        with tracer:
            step(it)
        assert not any(it.failures.values()), it.failures
        per_op.update(it.layers)
        for layers in it.layers.values():
            for name, agg in layers.items():
                calls[name] = calls.get(name, 0) + agg["calls"]
    return calls, tracer, per_op


def test_traced_design_workload_reaches_every_expected_layer(monkeypatch):
    """One traced set-up and iteration of perfbench's `design` workload,
    run the way perfbench/run.py runs it: every layer the workload expects
    records a call, no traced site is absent, and no operation fails.  A
    call site that moves behind another name fails here, not only in a
    traced benchmark run."""
    workloads = _workloads_module(monkeypatch)
    workload = workloads.DesignWorkload(0, None)
    calls, tracer, _ = _traced_calls(workloads, workload,
                                     (workload.setup, workload.iteration))
    assert tracer.absent_sites == []
    assert [name for name in workload.expected_layers
            if not calls.get(name)] == []


def test_traced_scan_setup_reaches_every_expected_setup_layer(monkeypatch):
    """The traced set-up of perfbench's `scan` workload, which designs both
    benchmark sets: every set-up layer it expects, the surface fits
    included, records a call, and no traced site is absent."""
    workloads = _workloads_module(monkeypatch)
    workload = workloads.ScanWorkload(0, None)
    calls, tracer, _ = _traced_calls(workloads, workload, (workload.setup,))
    assert tracer.absent_sites == []
    assert "scheduling.fit_surface" in workload.expected_setup_layers
    assert [name for name in workload.expected_setup_layers
            if not calls.get(name)] == []


def test_traced_scan_iteration_reaches_every_expected_layer(monkeypatch):
    """One traced iteration of perfbench's `scan` workload, after its
    set-up: every layer it expects records a call, each 0.08 s simulation
    integrates its 800 steps in the traced kernel, and no traced site is
    absent."""
    workloads = _workloads_module(monkeypatch)
    workload = workloads.ScanWorkload(0, None)
    setup = workloads.Iteration()
    workload.setup(setup)
    assert not any(setup.failures.values()), setup.failures
    calls, tracer, per_op = _traced_calls(workloads, workload,
                                          (workload.iteration,))
    assert tracer.absent_sites == []
    assert [name for name in workload.expected_layers
            if not calls.get(name)] == []
    for op in ("simulate_lti", "simulate_lpv"):
        assert per_op[op]["sim.simulate"]["calls"] == 1, op
        assert per_op[op]["kernels.kernel"]["steps"] == 800, op
