"""In-process timings of what the README runs and no perfbench workload
times, certify on position grids and the two README designs, and of the
design perfbench's design workload times.

On the benchmark stage with the default spec it designs the LTI and LPV
sets once, then times, each REPEATS times after one untimed call:

    certify <set> on 3x3, 5x5 and 17x17 grids over the workspace
        (no plant_frfs given, so certify evaluates the plant itself)
    design_lti_slc and design_lpv_slc
    design_lti_slc at the workspace centre, with design and verification
        grid both (0.1, 0.1)

and prints the fastest and median wall time of each.  The centre design
is also split by bisection step, over the same timed runs: the time a
step spends in its SLC verdict (design._slc_verdict), and the time it
spends building its candidate, from the return of the previous step's
verdict to its own (the first step, whose interval also holds the
design's one-time set-up, is left out); and the time of the design's one
full certify of the set it returns.  The host's speed
drifts, so compare two trees by running this in each in turn, several
rounds, rather than once each.  Standard library and lpvslc only.

    PYTHONPATH=src python3 tools/grid_timings.py [REPEATS]    # default 12
"""

import logging
import statistics
import sys
from time import perf_counter

from lpvslc import design
from lpvslc.design import (
    DesignSpec,
    certify,
    design_lpv_slc,
    design_lti_slc,
    grid_points,
)
from lpvslc.plant import benchmark_plant

GRIDS = (3, 5, 17)
CENTRE = (0.1, 0.1)


def report(label: str, times: list, unit: str) -> None:
    """Print the fastest and median of times."""
    print(f"{label:<22} min {1e3 * min(times):8.2f} ms  "
          f"median {1e3 * statistics.median(times):8.2f} ms  "
          f"({len(times)} {unit})")


def timed(label: str, call, repeats: int) -> None:
    """Print the fastest and median of repeats timed calls, after one
    untimed call."""
    call()
    times = []
    for _ in range(repeats):
        start = perf_counter()
        call()
        times.append(perf_counter() - start)
    report(label, times, "runs")


def steps_timed(label: str, call, repeats: int) -> None:
    """timed, then the timed calls split into the time of each bisection
    step's verdict, the time building each candidate and the time of the
    final certify."""
    real = {name: getattr(design, name) for name in ("_slc_verdict", "certify")}
    designs = []   # per call, (start, end) of each of its verdict calls
    finals = []    # per call, the time of its certify call

    def verdict_timed(*args, **kwargs):
        start = perf_counter()
        try:
            return real["_slc_verdict"](*args, **kwargs)
        finally:
            designs[-1].append((start, perf_counter()))

    def certify_timed(*args, **kwargs):
        start = perf_counter()
        try:
            return real["certify"](*args, **kwargs)
        finally:
            finals.append(perf_counter() - start)

    def run():
        designs.append([])
        call()

    design._slc_verdict, design.certify = verdict_timed, certify_timed
    try:
        timed(label, run, repeats)
    finally:
        design._slc_verdict, design.certify = real.values()
    steps = designs[1:]   # the untimed call left out
    report("  per step: build", [start - end for marks in steps
                                 for (_, end), (start, _)
                                 in zip(marks, marks[1:])], "steps")
    report("  per step: verdict", [end - start for marks in steps
                                   for start, end in marks], "steps")
    report("  final certify", finals[1:], "runs")


if __name__ == "__main__":
    repeats = int(sys.argv[1]) if len(sys.argv) > 1 else 12
    # The per-freeze clamp warnings are not timings.
    logging.getLogger("lpvslc").setLevel(logging.ERROR)
    model = benchmark_plant()
    designs = {"lti": design_lti_slc, "lpv": design_lpv_slc}
    sets = {kind: run(model, DesignSpec()) for kind, run in designs.items()}
    for kind, controllers in sets.items():
        for n in GRIDS:
            grid = grid_points(model.workspace, n, n)
            timed(f"certify {n}x{n} {kind}",
                  lambda: certify(model, controllers, grid), repeats)
    for kind, run in designs.items():
        timed(f"design_{kind}_slc", lambda: run(model, DesignSpec()), repeats)
    centre = DesignSpec(design_grid=[CENTRE], verification_grid=[CENTRE])
    steps_timed("design_lti_slc centre",
                lambda: design_lti_slc(model, centre), repeats)
