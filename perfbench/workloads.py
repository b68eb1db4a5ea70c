"""The benchmark's three workloads on the built-in benchmark stage.

Each workload has a set-up, run once, and a list of timed operations, run
in order as one iteration and repeated until the run's time is up.  A
timed operation is kept short (a few tenths of a second) so that the run
holds many samples of it.

design    one bandwidth-maximizing LTI design (design_lti_slc, default
          frequency grid and bisection) at a single position, the
          workspace centre.  Time goes to plant, freqresp, filters and
          design, with the same plant FRF certified again at every
          bisection step; no simulation runs.
scan      set-up designs the LTI and LPV sets with the default DesignSpec;
          the timed operations plan the scan and simulate both sets over
          its first 0.08 s (ramp, settling and the start of the
          constant-velocity pass, 800 RK4 steps).  Time goes to
          trajectory, sim and the RK4 kernel; no design work is timed.
pipeline  the README command sequence, through lpvslc.cli.main in this
          process.  Set-up runs `design --mode lti` and `design --mode lpv`
          with the default spec; the timed operations are `certify --mode
          lpv --grid 3x3` (FRFs at 9 distinct positions, no bisection),
          `trajectory`, `simulate` per set over 0.08 s and `metrics`.  The
          only workload that runs cli and io.

Every operation is checked: it must not raise or exit nonzero, what it
certifies must pass, its outputs must be finite, and its outputs must be
byte-identical from one iteration to the next.  Set-up designs must reach
the README bandwidths at every seed.  After the timed loop, seed 0 also
runs the full 2 s README scan (scan and pipeline) and checks the README
MA/MSD reductions; scan also checks that the timed short runs are exact
prefixes of the full ones.  A failed check is counted against its
operation and the run goes on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import lpvslc.cli
from lpvslc.design import (
    DesignSpec,
    certify,
    controllers_to_dict,
    design_lpv_slc,
    design_lti_slc,
)
from lpvslc.plant import benchmark_plant, save_plant
from lpvslc.sim import SimConfig, StageMotion, compare_runs, simulate
from lpvslc.trajectory import MotionBounds, plan

import tracing

# README headline values and the number of decimals the README prints.
README_HEADLINE = {
    "bw_lti_hz": (69.6, 1),
    "bw_lpv_hz": (110.8, 1),
    "ma_reduction_pct": (93.85, 2),
    "msd_reduction_pct": (54.57, 2),
}

# The README scan: benchmark_motion's bounds, 0.1 m along x, 2 s at 10 kHz.
SCAN_BOUNDS = {"v_max": 0.1, "a_max": 5.0, "j_max": 1000.0, "s_max": 200000.0}
SCAN_STROKE_M = 0.1
SCAN_X_RANGE = (0.05, 0.15)
SCAN_Y_RANGE = (0.02, 0.18)
DURATION_S = 2.0
RATE_HZ = 10_000.0
# Timed simulations cover the scan's first 0.08 s: the ramp ends at
# 0.03 s, settling at 0.05 s, and 30 ms of constant velocity follow.
SHORT_DURATION_S = 0.08

# Single-position design of the design workload: the workspace centre, and
# the bandwidth it reaches there (140.68 Hz), to the README's precision.
DESIGN_POINT = (0.1, 0.1)
DESIGN_POINT_BW_HZ = 140.7


def scan_geometry(seed: int):
    """Start point and signed x stroke of the scan for a workload seed.

    Seed 0 is the README scan, +x from (0.05, 0.10).  Any other seed draws
    the scan line's y from SCAN_Y_RANGE and the direction from {+x, -x};
    the stroke always covers SCAN_X_RANGE, inside the 0.2 m x 0.2 m
    workspace.
    """
    if seed == 0:
        return (SCAN_X_RANGE[0], 0.10), SCAN_STROKE_M
    rng = random.Random(seed)
    y = round(rng.uniform(*SCAN_Y_RANGE), 4)
    if rng.random() < 0.5:
        return (SCAN_X_RANGE[0], y), SCAN_STROKE_M
    return (SCAN_X_RANGE[1], y), -SCAN_STROKE_M


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _reject_constant(name):
    raise ValueError(f"non-finite value {name}")


def load_finite_json(path):
    """Parse a JSON artifact, failing on NaN or Infinity anywhere in it."""
    with open(path) as fh:
        return json.load(fh, parse_constant=_reject_constant)


_REFERENCE_MATRIX = (np.random.default_rng(0).standard_normal((42, 42))
                     + 10.0 * np.eye(42))


def reference_s() -> float:
    """Time one fixed unit of interpreter and 42x42 linear-algebra work.

    It calls nothing in lpvslc, so its time tracks only how fast the host
    runs this process at that moment.  On a shared host that speed drifts
    by tens of percent within a minute, and the timed operations slow down
    with it; timed against this unit, they do not.
    """
    start = perf_counter()
    acc = 0
    for i in range(60_000):
        acc += i * i
    for _ in range(100):
        np.linalg.solve(_REFERENCE_MATRIX, _REFERENCE_MATRIX)
    return perf_counter() - start


class Iteration:
    """Timings, failures, facts and output digests of one pass.

    Each operation runs through `run`, which times it and turns an
    exception into a recorded failure of that operation.  With
    `calibrate`, the reference unit is also timed just before and just
    after each operation, and their mean is kept as the operation's
    reference time.
    """

    def __init__(self, tracer=None, calibrate=False):
        self.tracer = tracer
        self.calibrate = calibrate
        self.stage_s = {}
        self.reference_s = {}  # operation -> reference time around it
        self.failures = {}     # operation -> list of messages
        self.layers = {}       # operation -> per-layer totals (traced)
        self.facts = {}        # headline numbers
        self.digests = {}      # output -> (operation, sha256)

    def run(self, op, fn):
        self.failures[op] = []
        before = reference_s() if self.calibrate else None
        start = perf_counter()
        try:
            out = fn()
        except Exception:  # a failed operation is counted, not fatal
            self.fail(op, traceback.format_exc(limit=-3))
            out = None
        self.stage_s[op] = perf_counter() - start
        if self.calibrate:
            self.reference_s[op] = (before + reference_s()) / 2
        if self.tracer is not None:
            self.layers[op] = self.tracer.take()
        return out

    def fail(self, op, message):
        self.failures.setdefault(op, []).append(message)

    def check(self, op, ok, message):
        if not ok:
            self.fail(op, message)

    @contextlib.contextmanager
    def checking(self, op):
        """Count a missing or malformed output as a failure of `op`."""
        try:
            yield
        except (OSError, LookupError, TypeError, ValueError) as exc:
            self.fail(op, f"{type(exc).__name__}: {exc}")

    def digest(self, op, name, data: bytes):
        self.digests[name] = (op, sha256(data))

    def headline(self, op, key, value, check_readme):
        """Record a headline number; compare it with the README if asked."""
        self.facts[key] = value
        if not np.isfinite(value):
            self.fail(op, f"{key} is not finite: {value}")
            return
        if check_readme:
            expected, ndigits = README_HEADLINE[key]
            if round(value, ndigits) != expected:
                self.fail(op, f"{key} = {value!r} does not round to the "
                              f"README value {expected}")


def _check_sim_result(it, op, result):
    arrays = (result.y, result.e, result.u, result.states)
    it.check(op, all(np.all(np.isfinite(a)) for a in arrays),
             "simulation traces hold non-finite values")
    it.digest(op, f"{op}.traces", b"".join(
        np.ascontiguousarray(a).tobytes() for a in arrays))


def _check_controllers(it, op, name, controllers):
    bandwidth = float(controllers.achieved_bandwidth_hz)
    it.check(op, np.isfinite(bandwidth), f"bandwidth {bandwidth} not finite")
    with it.checking(op):   # allow_nan=False rejects non-finite entries
        it.digest(op, f"controllers_{name}", json.dumps(
            controllers_to_dict(controllers), allow_nan=False).encode())
    return bandwidth


def _check_reductions(it, op, table, full_scan):
    """LPV reductions against LTI; on the full scan, the README values."""
    with it.checking(op):
        reduction = table["controllers"][1]["reduction_pct"]
        for key in ("ma", "msd"):
            value = float(reduction[key])
            if full_scan:
                it.headline(op, f"{key}_reduction_pct", value, True)
            else:
                it.facts[f"short_{key}_reduction_pct"] = value
                it.check(op, np.isfinite(value),
                         f"{key} reduction is not finite: {value}")


def scan_motion(seed):
    start, stroke = scan_geometry(seed)
    return StageMotion(start_xy=start,
                       scan_x=plan(stroke, MotionBounds(**SCAN_BOUNDS),
                                   RATE_HZ))


def workload_sites():
    """The benchmark's own calls into lpvslc, as traced call sites."""
    module = sys.modules[__name__]
    return [
        (module, "design_lti_slc", "design.design_lti_slc", None),
        (module, "design_lpv_slc", "design.design_lpv_slc", None),
        (module, "simulate", "sim.simulate", None),
        (module, "plan", "trajectory.plan", None),
    ]


class _InProcessLibrary:
    """A workload that calls the library functions directly."""

    def tracer(self):
        return tracing.Tracer(tracing.LIBRARY_SITES + workload_sites())


class DesignWorkload(_InProcessLibrary):
    """One LTI design at the workspace centre; the same for every seed."""

    # Every layer the timed operations reach; a traced run fails if one of
    # them records no call, which is how a renamed function shows up.
    expected_layers = (
        "design.design_lti_slc", "design.decoupled_plant_frf",
        "design.certify", "design.closed_loop_matrix",
        "plant.frozen_realization", "freqresp.frf",
        "freqresp.equivalent_plant", "freqresp.nyquist_stable",
        "freqresp.det_identity_residual", "freqresp.margins_and_bandwidth",
        "filters.cascade_frf", "filters.realize",
    )
    expected_setup_layers = ()

    def __init__(self, seed, workdir):
        self.seed = seed
        self.model = None
        self.spec = None
        self.designed = None

    def setup(self, it):
        self.model = it.run("plant", benchmark_plant)
        point = [DESIGN_POINT]
        self.spec = DesignSpec(design_grid=point, verification_grid=point)

    def iteration(self, it):
        # The lambda looks design_lti_slc up when called, so a traced run
        # goes through the wrapper installed on this module.
        controllers = it.run("design_lti",
                             lambda: design_lti_slc(self.model, self.spec))
        if controllers is not None:
            bandwidth = _check_controllers(it, "design_lti", "point",
                                           controllers)
            it.facts["bw_point_hz"] = bandwidth
            it.check("design_lti", round(bandwidth, 1) == DESIGN_POINT_BW_HZ,
                     f"bandwidth {bandwidth!r} at {DESIGN_POINT} does not "
                     f"round to {DESIGN_POINT_BW_HZ}")
            self.designed = controllers

    def final_check(self, it):
        """Certify the designed set again, outside the design."""
        op = "design_lti"
        it.failures[op] = []
        if self.designed is None:
            it.fail(op, "no design completed")
            return
        report = certify(self.model, self.designed, [DESIGN_POINT])
        it.check(op, report.passed,
                 f"design at {DESIGN_POINT} does not pass certify")


class ScanWorkload(_InProcessLibrary):
    """Simulate the LTI set, then the LPV set, over the scan's first 0.08 s."""

    expected_layers = (
        "sim.simulate", "sim.ma_msd", "kernels.kernel", "trajectory.plan",
        "trajectory.sample", "plant.mode_shape_eval", "plant.scan_coupling",
        "filters.realize", "scheduling.eval_surface",
    )
    expected_setup_layers = (
        "design.design_lti_slc", "design.design_lpv_slc",
        "design.decoupled_plant_frf", "design.certify",
        "scheduling.fit_surface",
    )

    def __init__(self, seed, workdir):
        self.seed = seed
        self.model = None
        self.sets = {}
        self.short = {}     # first iteration's short runs, per set

    def setup(self, it):
        self.model = it.run("plant", benchmark_plant)
        spec = DesignSpec()
        for key, design_fn in (("lti", design_lti_slc),
                             ("lpv", design_lpv_slc)):
            op = f"setup_design_{key}"
            controllers = it.run(op, lambda: design_fn(self.model, spec))
            if controllers is not None:
                it.headline(op, f"bw_{key}_hz",
                            _check_controllers(it, op, key, controllers),
                            check_readme=True)
                self.sets[key] = controllers

    def iteration(self, it):
        motion = it.run("plan", lambda: scan_motion(self.seed))
        config = SimConfig(duration_s=SHORT_DURATION_S, sample_rate_hz=RATE_HZ)
        results = {}
        for key in ("lti", "lpv"):
            op = f"simulate_{key}"
            controllers = self.sets.get(key)
            if motion is None or controllers is None:
                it.failures[op] = [f"no motion or no {key} set"]
                continue
            result = it.run(op, lambda: simulate(self.model, controllers,
                                                 motion, config))
            if result is not None:
                _check_sim_result(it, op, result)
                results[key] = result
        if len(results) == 2:
            self.short = self.short or results
            with it.checking("simulate_lpv"):
                _check_reductions(it, "simulate_lpv",
                                  compare_runs(results["lti"], results["lpv"]),
                                  full_scan=False)

    def final_check(self, it):
        """Seed 0: the full README scan, its reductions and the prefixes."""
        if self.seed != 0:
            return
        config = SimConfig(duration_s=DURATION_S, sample_rate_hz=RATE_HZ)
        motion = scan_motion(self.seed)
        full = {}
        for key in ("lti", "lpv"):
            op = f"full_simulate_{key}"
            controllers = self.sets.get(key)
            if controllers is None:
                it.failures[op] = [f"no {key} set"]
                continue
            result = it.run(op, lambda: simulate(self.model, controllers,
                                                 motion, config))
            if result is None:
                continue
            full[key] = result
            short = self.short.get(key)
            if short is not None:
                n = len(short.t)
                it.check(op, all(np.array_equal(a, b[:n]) for a, b in (
                    (short.y, result.y), (short.e, result.e),
                    (short.u, result.u), (short.states, result.states))),
                    "the timed short run is not a prefix of the full run")
        if len(full) == 2:
            with it.checking("full_simulate_lpv"):
                _check_reductions(it, "full_simulate_lpv",
                                  compare_runs(full["lti"], full["lpv"]),
                                  full_scan=True)


class PipelineWorkload:
    """The README command sequence through lpvslc.cli.main."""

    setup_steps = (
        ("setup_design_lti", ["design", "--mode", "lti"]),
        ("setup_design_lpv", ["design", "--mode", "lpv"]),
    )
    steps = (
        ("certify", ["certify", "--mode", "lpv", "--grid", "3x3"]),
        ("trajectory", ["trajectory"]),
        ("simulate_lti", ["simulate", "--mode", "lti"]),
        ("simulate_lpv", ["simulate", "--mode", "lpv"]),
        ("metrics", ["metrics"]),
    )
    # Artifacts each timed step writes; they must not change between
    # iterations.
    step_outputs = {
        "certify": ("certification_lpv.json",),
        "trajectory": ("trajectory_scan_x.csv", "trajectory_summary.json"),
        "simulate_lti": ("run_lti.csv", "summary_lti.json"),
        "simulate_lpv": ("run_lpv.csv", "summary_lpv.json"),
        "metrics": ("comparison.json",),
    }

    expected_layers = (
        "cli.certify", "cli.trajectory", "cli.simulate", "cli.metrics",
        "design.certify", "freqresp.frf", "scheduling.eval_surface",
        "sim.simulate", "kernels.kernel", "trajectory.plan",
        "trajectory.sample", "io.dump_json", "io.dump_csv",
    )
    expected_setup_layers = (
        "cli.design", "cli.design.recertify", "design.design_lti_slc",
        "design.design_lpv_slc", "design.decoupled_plant_frf",
        "scheduling.fit_surface",
    )

    def __init__(self, seed, workdir):
        self.seed = seed
        self.project_dir = Path(workdir) / "project"
        self.out = self.project_dir / "out"

    def tracer(self):
        return tracing.Tracer(tracing.CLI_SITES)

    def _write_project(self, name, duration_s):
        start, stroke = scan_geometry(self.seed)
        files = {
            "design.json": {},
            f"sim_{name}.json": {"duration_s": duration_s},
            "trajectory.json": {"start_xy": list(start), "bounds": SCAN_BOUNDS,
                                "sample_rate_hz": RATE_HZ,
                                "scan_x_m": stroke},
            f"{name}.json": {"plant": "plant.json",
                             "design_spec": "design.json",
                             "trajectory": "trajectory.json",
                             "sim_config": f"sim_{name}.json",
                             "output_dir": "out"},
        }
        for file_name, data in files.items():
            with open(self.project_dir / file_name, "w") as fh:
                json.dump(data, fh, indent=2)
        return str(self.project_dir / f"{name}.json")

    def _cli(self, it, op, argv, project):
        """One lpvslc command; its printed output is discarded."""
        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                return lpvslc.cli.main(argv + ["--config", project])
        code = it.run(op, call)
        if code is not None:
            it.check(op, code == 0, f"lpvslc {' '.join(argv)}: exit {code}")
        return code == 0

    def setup(self, it):
        self.project_dir.mkdir()
        model = it.run("plant", benchmark_plant)
        save_plant(model, self.project_dir / "plant.json")
        self.project = self._write_project("project", SHORT_DURATION_S)
        for op, argv in self.setup_steps:
            self._cli(it, op, argv, self.project)
        for key in ("lti", "lpv"):
            op = f"setup_design_{key}"
            with it.checking(op):
                summary = load_finite_json(
                    self.out / f"design_summary_{key}.json")
                it.check(op, summary["certified"] is True,
                         f"{key} design summary is not certified")
                it.headline(op, f"bw_{key}_hz",
                            float(summary["achieved_bandwidth_hz"]),
                            check_readme=True)

    def iteration(self, it):
        for op, argv in self.steps:
            if not self._cli(it, op, argv, self.project):
                continue
            with it.checking(op):
                for name in self.step_outputs[op]:
                    data = (self.out / name).read_bytes()
                    if name.endswith(".json"):
                        load_finite_json(self.out / name)
                    it.digest(op, name, data)
        with it.checking("certify"):
            it.check("certify", load_finite_json(
                self.out / "certification_lpv.json")["passed"] is True,
                "certification_lpv.json did not pass")
        with it.checking("metrics"):
            _check_reductions(it, "metrics", load_finite_json(
                self.out / "comparison.json"), full_scan=False)

    def final_check(self, it):
        """Seed 0: `simulate` and `metrics` on the full 2 s README scan."""
        if self.seed != 0:
            return
        project = self._write_project("full", DURATION_S)
        if self._cli(it, "full_simulate", ["simulate"], project) \
                and self._cli(it, "full_metrics", ["metrics"], project):
            with it.checking("full_metrics"):
                _check_reductions(it, "full_metrics", load_finite_json(
                    self.out / "comparison.json"), full_scan=True)


WORKLOADS = {
    "design": DesignWorkload,
    "scan": ScanWorkload,
    "pipeline": PipelineWorkload,
}

# lpvslc.cli.main sets the package's log level from LPVSLC_LOG on every
# call; clamp warnings at the workspace corners are expected (see README).
os.environ["LPVSLC_LOG"] = "ERROR"
