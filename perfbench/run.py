"""Layered benchmark of the lpvslc design -> certify -> simulate pipeline.

Usage, from the repository root:

    python3 perfbench/run.py --workload {design,scan,pipeline} --seed N \
        --seconds S --trace {0,1}

The load is a closed loop: one client makes sequential calls from this
process, which starts no other process apart from the set-up probes, one
at a time.  The package is imported from ./src, never from an installed
copy.

Set-up is the median of three cold starts (imports and building the
plant, each in a fresh interpreter) plus the workload's own set-up in this
process (in `scan` and `pipeline`, designing both controller sets).  Then
whole iterations of the workload's timed operations run until S
seconds have passed, at least two.  Each operation is short, so a run
holds many samples of it.  On a shared host the speed at which this
process runs drifts by tens of percent from one minute to the next, so
each operation is also timed against a fixed reference unit run just
before and after it (workloads.reference_s), and its normalized time is
wall time / reference time x REFERENCE_S.  `total_norm_ms` is the median
over the iterations of the sum of the normalized times of their
operations.  `setup_s` is normalized the same way, each cold start and
each set-up operation against the reference unit run around it; the
report also gives its wall time.  The report holds, per operation, the wall times' fastest
value, median, sample count and high percentile, and the normalized
median.

With --trace 0 the last line of standard output holds the end-to-end
metrics; with --trace 1 untraced and traced iterations alternate, the
set-up is traced too, and the last line holds the per-layer metrics: the
median over traced iterations of each layer's totals, each set-up
design's layer totals as setup.<lti|lpv>.<layer>, and the tracing
overhead.  The line before it is
a report with the environment, the timings, the per-operation failures,
the result fingerprint and, when traced, the per-operation layer totals.

Exit status: 0 when every check passed, 1 when a check failed (the
result line is still printed), 2 when the sources are missing or the
arguments are bad, 3 when the run overran its deadline.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from tracing import merge

HERE = Path(__file__).resolve().parent

SETUP_PROBES = 3
MIN_ITERATIONS = 2
# Nominal time of workloads.reference_s: an operation's normalized time is
# its wall time divided by the reference time measured around it, times
# this.  About the reference unit's fastest time on a 2-vCPU x86-64 VM.
REFERENCE_S = 0.010
DEADLINE_S = 175   # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMBA_NUM_THREADS")

# Layers whose call count and inclusive time are reported per traced
# iteration, as <layer>.calls and <layer>.s.
COUNTED_LAYERS = (
    "design.design_lti_slc", "design.design_lpv_slc",
    "design.decoupled_plant_frf", "design.certify",
    "design.closed_loop_matrix", "plant.frozen_realization", "freqresp.frf",
    "freqresp.equivalent_plant", "freqresp.nyquist_stable",
    "freqresp.det_identity_residual", "freqresp.margins_and_bandwidth",
    "filters.cascade_frf", "filters.realize", "scheduling.fit_surface",
    "scheduling.eval_surface", "plant.mode_shape_eval", "plant.scan_coupling",
    "sim.simulate", "sim.ma_msd", "trajectory.plan", "trajectory.sample",
    "io.dump_csv", "io.dump_json",
)
TIMED_LAYERS = ("cli.certify", "cli.trajectory", "cli.simulate",
                "cli.metrics", "kernels.kernel")
BYTE_LAYERS = ("io.dump_csv", "io.dump_json")
SELF_MODULES = ("design", "sim")
# Layers of the set-up's full-size designs, reported per design as
# setup.<lti|lpv>.<layer>: the ones that FRF reuse across bisection and
# batched equivalent plants would move.
SETUP_LAYERS = (
    "design.decoupled_plant_frf", "design.certify", "freqresp.frf",
    "freqresp.equivalent_plant", "scheduling.fit_surface",
)


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM.  Not an Exception, so that the per-operation
    failure handler does not count it and carry on past the deadline."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded(f"run exceeded {DEADLINE_S} s")


def _on_term(signum, frame):
    # Unwind like an exit, so a running probe is killed and waited for
    # and the scratch directory is removed.
    raise SystemExit(128 + signum)


def summarize(values):
    """Fastest, median, sample count, and a high percentile.

    The high percentile is the highest of the 50th, 90th, 95th, 99th and
    99.9th (nearest rank) that leaves at least ten samples above it; None
    when there are too few samples for any of them.
    """
    values = sorted(values)
    n = len(values)
    out = {"min": values[0], "median": statistics.median(values), "n": n,
           "p_high": None}
    for pct in (99.9, 99.0, 95.0, 90.0, 50.0):
        rank = -(-n * pct // 100)   # nearest rank, 1-based
        if n - rank >= 10:
            out["p_high"] = {"pct": pct, "value": values[int(rank) - 1]}
            break
    return out


def probe_setup(env, cwd):
    """One cold start in a fresh process: imports plus the benchmark plant."""
    done = subprocess.run([sys.executable, str(HERE / "setup_probe.py")],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


def git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def source_digest(src: Path) -> str:
    """sha256 over the package sources, in path order."""
    h = hashlib.sha256()
    for path in sorted((src / "lpvslc").rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(root: Path, src: Path, seed: int) -> dict:
    import numpy
    import scipy
    from lpvslc import _kernels

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "numba_imports": numba_imports,
        "kernel_backend": _kernels.default_backend_name(),
        "git_commit": git_commit(root),
        "source_sha256": source_digest(src),
    }


def run_traced(tracer, fn, it):
    if tracer is None:
        fn(it)
    else:
        with tracer:
            fn(it)


def iterate(workload, seconds, tracer):
    """Run iterations until `seconds` have passed; returns the lists.

    With a tracer, each untraced iteration is followed by a traced one.
    """
    from workloads import Iteration   # imports lpvslc; see main

    plain, traced = [], []
    passes = [(plain, None)] + ([(traced, tracer)] if tracer else [])
    start = perf_counter()
    while True:
        for runs, tr in passes:
            it = Iteration(tr, calibrate=True)
            run_traced(tr, workload.iteration, it)
            runs.append(it)
        if perf_counter() - start >= seconds \
                and len(plain) >= MIN_ITERATIONS:
            return plain, traced


def check_runs(iterations, extra):
    """Failure counts per operation, plus cross-iteration consistency.

    `extra` are the set-up and final-check passes, counted but not
    compared.  Returns (attempted, failed, messages).  An output whose
    bytes differ from the first iteration's, or a missing one, fails the
    operation that made it.
    """
    reference = iterations[0].digests
    for it in iterations[1:]:
        for name, (op, digest) in reference.items():
            got = it.digests.get(name)
            if got is None or got[1] != digest:
                it.fail(op, f"output {name} differs from the first "
                            "iteration's")
    attempted = failed = 0
    messages = []
    for label, its in (("setup", extra[:1]), ("iteration", iterations),
                       ("final", extra[1:])):
        for k, it in enumerate(its):
            for op, errs in it.failures.items():
                attempted += 1
                if errs:
                    failed += 1
                    messages.append({label: k, "operation": op,
                                     "errors": errs})
    return attempted, failed, messages


def normalized_s(it, op) -> float:
    """An operation's time at the nominal speed of the reference unit."""
    return it.stage_s[op] / it.reference_s[op] * REFERENCE_S


def timings(iterations) -> dict:
    """Per operation: its wall times over the iterations, summarized, and
    the median of its normalized times."""
    out = {}
    for op in iterations[0].stage_s:
        its = [it for it in iterations if op in it.stage_s]
        out[op] = summarize([it.stage_s[op] for it in its])
        out[op]["normalized_median"] = statistics.median(
            normalized_s(it, op) for it in its)
    return out


def normalized_total_s(iterations) -> float:
    """Median over the iterations of the sum of normalized op times."""
    return statistics.median(sum(normalized_s(it, op) for op in it.stage_s)
                             for it in iterations)


def merged_layers(it) -> dict:
    layers = {}
    for per_op in it.layers.values():
        merge(layers, per_op)
    return layers


def self_s(layers, module):
    return sum(agg["self_s"] for name, agg in layers.items()
               if name.startswith(module + "."))


def layer_metrics(it) -> dict:
    """Per-layer metric values of one traced iteration."""
    layers = merged_layers(it)

    def get(name, key):
        return layers.get(name, {}).get(key, 0)

    out = {}
    for name in COUNTED_LAYERS:
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.s"] = get(name, "s")
    for name in TIMED_LAYERS:
        out[f"{name}.s"] = get(name, "s")
    for name in BYTE_LAYERS:
        out[f"{name}.bytes"] = get(name, "bytes")
    for module in SELF_MODULES:
        out[f"{module}.self_s"] = self_s(layers, module)
    steps = get("kernels.kernel", "steps")
    kernel_s = get("kernels.kernel", "s")
    out["sim.steps"] = steps
    out["kernels.steps_per_s"] = steps / kernel_s if kernel_s else 0.0
    return out


def setup_layer_metrics(setup_it) -> dict:
    """The traced set-up's designs, as setup.<lti|lpv>.<layer> metrics."""
    out = {}
    for key in ("lti", "lpv"):
        layers = setup_it.layers.get(f"setup_design_{key}", {})

        def get(name, field):
            return layers.get(name, {}).get(field, 0)

        prefix = f"setup.{key}"
        out[f"{prefix}.design.design_{key}_slc.s"] = get(
            f"design.design_{key}_slc", "s")
        for name in SETUP_LAYERS:
            out[f"{prefix}.{name}.calls"] = get(name, "calls")
            out[f"{prefix}.{name}.s"] = get(name, "s")
        out[f"{prefix}.design.self_s"] = self_s(layers, "design")
        out[f"{prefix}.cli.design.s"] = get("cli.design", "s")
        out[f"{prefix}.cli.design.recertify_s"] = get("cli.design.recertify",
                                                      "s")
    return out


def attribution(it) -> dict:
    """Per operation: its time split into self time by layer.

    The self times of all spans under an operation add up to the part of
    the operation covered by spans; the rest ("outside_spans") is time in
    the benchmark's own code or in calls that are not traced.
    """
    out = {}
    for op, layers in it.layers.items():
        split = {name: agg["self_s"] for name, agg in layers.items()
                 if name != "cli.design.recertify"}
        split["outside_spans"] = it.stage_s[op] - sum(split.values())
        out[op] = {"total_s": it.stage_s[op],
                   "self_s": dict(sorted(split.items(),
                                         key=lambda kv: -kv[1])),
                   "calls": {name: agg["calls"] for name, agg in layers.items()}}
    return out


def metric(value, unit):
    return {"value": value, "unit": unit}


def per_layer_units(name):
    if name.endswith(".calls") or name == "sim.steps":
        return "count"
    if name.endswith(".bytes"):
        return "bytes"
    if name == "kernels.steps_per_s":
        return "1/s"
    return "s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("design", "scan", "pipeline"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "lpvslc" / "__init__.py").is_file():
        print(f"perfbench: no lpvslc sources under {src}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import lpvslc
    if not Path(lpvslc.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: lpvslc was imported from {lpvslc.__file__}, not "
              f"from {src}", file=sys.stderr)
        return 2
    # Clamp warnings at the workspace corners are expected; see README.
    logging.getLogger("lpvslc").setLevel(logging.ERROR)
    # workloads imports lpvslc, so only now that ./src is on the path.
    from workloads import WORKLOADS

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    signal.alarm(DEADLINE_S)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    work_root = root / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=work_root))
    try:
        report, result = measure(args, root, src, env, workdir,
                                 WORKLOADS[args.workload])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass   # another run still uses it
        signal.alarm(0)
    print("report " + json.dumps(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def normalized_probe(env, cwd):
    """One cold start: (wall s, normalized s)."""
    from workloads import reference_s

    before = reference_s()
    probe_s = probe_setup(env, cwd)
    return probe_s, probe_s / ((before + reference_s()) / 2) * REFERENCE_S


def measure(args, root, src, env, workdir, workload_cls):
    from workloads import Iteration

    probes = [] if args.trace else [normalized_probe(env, workdir)
                                    for _ in range(SETUP_PROBES)]
    workload = workload_cls(args.seed, workdir)
    tracer = workload.tracer() if args.trace else None
    setup_it = Iteration(tracer, calibrate=True)
    t0 = perf_counter()
    run_traced(tracer, workload.setup, setup_it)
    setup_extra_s = perf_counter() - t0

    plain, traced = iterate(workload, args.seconds, tracer)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    final_it = Iteration()
    workload.final_check(final_it)
    attempted, failed, failures = check_runs(plain + traced,
                                             [setup_it, final_it])

    facts = {}
    for it in [setup_it] + plain + [final_it]:
        for key, value in it.facts.items():
            facts.setdefault(key, value)
    fingerprint = dict(facts)
    fingerprint["outputs"] = {name: digest for name, (_, digest)
                              in sorted(plain[0].digests.items())}

    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(root, src, args.seed),
        "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted,
        "failures": failures,
        "fingerprint": fingerprint,
        "iterations": len(plain),
        "timings": timings(plain),
        "setup_op_s": setup_it.stage_s,
        "final_check_op_s": final_it.stage_s,
        "peak_rss_mb": rss_kib * 1024 / 1e6,
    }
    correct = failed == 0
    if not args.trace:
        setup_s = (statistics.median(norm for _, norm in probes)
                   + sum(normalized_s(setup_it, op) for op in setup_it.stage_s))
        report["setup_probe_s"] = [wall for wall, _ in probes]
        report["setup_extra_s"] = setup_extra_s
        report["setup_wall_s"] = (statistics.median(report["setup_probe_s"])
                                  + setup_extra_s)
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "total_norm_ms": metric(normalized_total_s(plain) * 1e3, "ms"),
            "peak_rss_mb": metric(report["peak_rss_mb"], "MB"),
        }
    else:
        per_it = [layer_metrics(it) for it in traced]
        metrics = {name: metric(statistics.median(d[name] for d in per_it),
                                per_layer_units(name))
                   for name in per_it[0]}
        metrics.update({name: metric(value, per_layer_units(name))
                        for name, value in
                        setup_layer_metrics(setup_it).items()})
        traced_s = normalized_total_s(traced)
        untraced_s = normalized_total_s(plain)
        metrics["trace.traced_norm_s"] = metric(traced_s, "s")
        metrics["trace.untraced_norm_s"] = metric(untraced_s, "s")
        metrics["trace.overhead_norm_s"] = metric(traced_s - untraced_s, "s")
        counted = {}
        for it in traced:
            for name, agg in merged_layers(it).items():
                counted[name] = counted.get(name, 0) + agg["calls"]
        setup_counted = merged_layers(setup_it)
        missing = [name for name in workload.expected_layers
                   if not counted.get(name)]
        missing += [f"setup.{name}" for name in workload.expected_setup_layers
                    if not setup_counted.get(name, {}).get("calls")]
        absent = sorted(set(tracer.absent_sites))
        report["missing_layers"] = missing
        report["absent_sites"] = absent
        report["traced_timings"] = timings(traced)
        report["attribution"] = attribution(traced[0])
        report["setup_attribution"] = attribution(setup_it)
        correct = correct and not missing and not absent
    return report, {"correct": correct, "attempted": attempted,
                    "failed": failed, "metrics": metrics}


if __name__ == "__main__":
    try:
        sys.exit(main())
    except DeadlineExceeded as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(3)
