"""Span recorder that times calls into lpvslc from outside the package.

Each traced call site is a module attribute in the namespace of the module
that makes the call: ``lpvslc.design.equivalent_plant`` is replaced, not
``lpvslc.freqresp.equivalent_plant``, so only the calls made from design
are counted there.  Nothing under ``src/`` is edited; the wrappers live
for the duration of a ``with Tracer(sites):`` block and are removed on
exit.

A span records its parent span, its layer name, start, end and optional
counters (bytes written, integration steps).  ``Tracer.take`` folds the
recorded spans into per-layer totals: calls, inclusive seconds and self
seconds (the span's duration minus the time covered by its direct
children), and clears the list.
"""

from __future__ import annotations

import functools
import importlib
import os
from time import perf_counter


def _bytes_arg(index):
    """Counter: size of the file whose path is argument `index`."""
    def count(args, kwargs, result):
        path = args[index] if len(args) > index else kwargs["path"]
        return {"bytes": os.path.getsize(path)}
    return count


# (calling module, attribute, layer name, counter) for the calls that one
# lpvslc module makes into another.  The calling module may also be given
# as a module object, for the benchmark's own calls into the package.
# The layer name is the defining module and function; the counter, when
# present, is applied to (args, kwargs, result) after the call returns.
LIBRARY_SITES = [
    ("lpvslc.design", "decoupled_plant_frf", "design.decoupled_plant_frf", None),
    ("lpvslc.design", "certify", "design.certify", None),
    ("lpvslc.design", "closed_loop_matrix", "design.closed_loop_matrix", None),
    ("lpvslc.design", "frozen_realization", "plant.frozen_realization", None),
    ("lpvslc.design", "mode_shape_eval", "plant.mode_shape_eval", None),
    ("lpvslc.design", "frf", "freqresp.frf", None),
    ("lpvslc.design", "equivalent_plant", "freqresp.equivalent_plant", None),
    ("lpvslc.design", "nyquist_stable", "freqresp.nyquist_stable", None),
    ("lpvslc.design", "margins_and_bandwidth",
     "freqresp.margins_and_bandwidth", None),
    ("lpvslc.design", "det_identity_residual",
     "freqresp.det_identity_residual", None),
    ("lpvslc.design", "cascade_frf", "filters.cascade_frf", None),
    ("lpvslc.design", "realize", "filters.realize", None),
    ("lpvslc.design", "fit_surface", "scheduling.fit_surface", None),
    ("lpvslc.design", "eval_surface", "scheduling.eval_surface", None),
    ("lpvslc.filters", "eval_surface", "scheduling.eval_surface", None),
    ("lpvslc.sim", "mode_shape_eval", "plant.mode_shape_eval", None),
    ("lpvslc.sim", "scan_coupling", "plant.scan_coupling", None),
    ("lpvslc.sim", "realize", "filters.realize", None),
    ("lpvslc.sim", "eval_surface", "scheduling.eval_surface", None),
    ("lpvslc.sim", "sample", "trajectory.sample", None),
    ("lpvslc.sim", "plan", "trajectory.plan", None),
    ("lpvslc.sim", "ma_msd", "sim.ma_msd", None),
    ("lpvslc.sim", "dump_csv", "io.dump_csv", _bytes_arg(0)),
    ("lpvslc.trajectory", "dump_csv", "io.dump_csv", _bytes_arg(0)),
]

# Call sites inside lpvslc.cli, for the traced pipeline workload.
# The subcommand handlers are looked up by build_parser at call time, so
# replacing them before main() runs puts each subcommand in a span.
CLI_SITES = [
    ("lpvslc.cli", f"cmd_{name}", f"cli.{name}", None)
    for name in ("design", "certify", "trajectory", "simulate", "metrics")
] + [
    ("lpvslc.cli", "design_lti_slc", "design.design_lti_slc", None),
    ("lpvslc.cli", "design_lpv_slc", "design.design_lpv_slc", None),
    ("lpvslc.cli", "certify", "design.certify", None),
    ("lpvslc.cli", "simulate", "sim.simulate", None),
    ("lpvslc.cli", "plan", "trajectory.plan", None),
    ("lpvslc.cli", "sample", "trajectory.sample", None),
    ("lpvslc.cli", "dump_json", "io.dump_json", _bytes_arg(1)),
    ("lpvslc.cli", "dump_csv", "io.dump_csv", _bytes_arg(0)),
] + LIBRARY_SITES

KERNEL_LAYER = "kernels.kernel"


class Tracer:
    """Installs timing wrappers on entry and removes them on exit."""

    def __init__(self, sites):
        self.sites = sites
        self.spans = []   # [parent index or -1, layer, start, end, counters]
        self.absent_sites = []
        self._open = []
        self._undo = []

    def call(self, name, fn, args, kwargs, count=None):
        rec = [self._open[-1] if self._open else -1, name, 0.0, 0.0, None]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[3] = perf_counter()
            self._open.pop()
        if count is not None:
            rec[4] = count(args, kwargs, result)
        return result

    def wrap(self, fn, name, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)
        return traced

    def _patch(self, module, attr, replacement):
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def __enter__(self):
        for module, attr, name, count in self.sites:
            if isinstance(module, str):
                module = importlib.import_module(module)
            if not hasattr(module, attr):
                # Renamed or removed: reported, and its layer reads zero.
                self.absent_sites.append(f"{module.__name__}.{attr}")
                continue
            self._patch(module, attr, self.wrap(getattr(module, attr), name,
                                                count))
        # The simulator fetches its integration kernel through
        # _kernels.get_backend on every run; hand it a timed kernel whose
        # first argument is the number of RK4 steps.
        kernels = importlib.import_module("lpvslc._kernels")
        get_backend = kernels.get_backend

        def traced_get_backend(*args, **kwargs):
            return self.wrap(get_backend(*args, **kwargs), KERNEL_LAYER,
                             lambda a, kw, result: {"steps": int(a[0])})

        self._patch(kernels, "get_backend", traced_get_backend)
        return self

    def __exit__(self, *exc):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)
        return False

    def take(self) -> dict:
        """Per-layer totals of the spans recorded so far; clears them."""
        spans, self.spans = self.spans, []
        covered = [0.0] * len(spans)
        for parent, _, start, end, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {}
        for i, (parent, name, start, end, counters) in enumerate(spans):
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - covered[i]
            for key, value in (counters or {}).items():
                agg[key] = agg.get(key, 0) + value
            # The design subcommand re-certifies the set it just designed;
            # that call is kept apart so it can be told from the bisection.
            if name == "design.certify" and parent >= 0 \
                    and spans[parent][1] == "cli.design":
                agg = out.setdefault("cli.design.recertify",
                                     {"calls": 0, "s": 0.0, "self_s": 0.0})
                agg["calls"] += 1
                agg["s"] += end - start
        return out


def merge(into: dict, layers: dict) -> dict:
    """Add one per-layer total dict into another."""
    for name, agg in layers.items():
        dst = into.setdefault(name, {})
        for key, value in agg.items():
            dst[key] = dst.get(key, 0) + value
    return into
