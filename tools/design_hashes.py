"""Fingerprints of both README designs and of the benchmark's single-position
design: every bisection candidate, every step's verdict, the final set and
its report.

For each kind (LTI, LPV) on the benchmark stage with the default spec it
prints the number of controller sets the bisection passes to its SLC
verdict (design._slc_verdict), the sha256 over those sets in call order,
the sha256 over the verdicts (each step's first-failure record, or null
for a pass, in call order), the achieved bandwidth's repr, the sha256 of
the final set, the sha256 of the design's one full certification of that
set (report.to_dict()), and the sha256 and verdict of a 17x17 certify
report.  A third line holds the same fingerprints but the 17x17 report
for the LTI design at the workspace centre alone (design and verification
grid both (0.1, 0.1)), the design perfbench's design workload times.  A
fourth line holds them for the scheduled design with constant (order-1)
zero-damping surfaces on the default grids; its bandwidth is the LTI
design's today, so the line shows when the two kinds stop agreeing.  Two
trees that print the same lines built the same candidates and gave them
the same verdicts.  Standard library and lpvslc only.

    PYTHONPATH=src python3 tools/design_hashes.py
"""

import hashlib
import json
import logging

from lpvslc import design
from lpvslc.design import (
    DesignSpec,
    certify,
    controllers_to_dict,
    grid_points,
)
from lpvslc.plant import benchmark_plant

CENTRE = (0.1, 0.1)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def fingerprint(model, kind: str, spec: DesignSpec):
    """The <kind> design on spec (what design_<kind>_slc runs): the set and
    its line of fingerprints."""
    candidates, verdicts, reports = [], [], []
    real_verdict = design._slc_verdict

    def recording_verdict(m, controllers, grid, *args):
        candidates.append(json.dumps(controllers_to_dict(controllers)))
        failure = real_verdict(m, controllers, grid, *args)
        verdicts.append(json.dumps(failure and failure._asdict()))
        return failure

    def recording_certify(*args, **kwargs):
        report = certify(*args, **kwargs)
        reports.append(json.dumps(report.to_dict()))
        return report

    design._slc_verdict = recording_verdict
    design.certify = recording_certify
    try:
        controllers, _ = design._design_common(model, spec, kind)
    finally:
        design._slc_verdict = real_verdict
        design.certify = certify
    (report,) = reports   # the design certifies its set once, in full
    return controllers, (
        f"{len(candidates)} steps, "
        f"candidates {sha256(chr(10).join(candidates))}, "
        f"verdicts {sha256(chr(10).join(verdicts))}, "
        f"bandwidth {float(controllers.achieved_bandwidth_hz)!r}, "
        f"final {sha256(json.dumps(controllers_to_dict(controllers)))}, "
        f"final report {sha256(report)}")


def readme_line(model, kind: str) -> str:
    """Fingerprints of design_<kind>_slc on the default spec and its 17x17
    certify report."""
    controllers, line = fingerprint(model, kind, DesignSpec())
    report = certify(model, controllers, grid_points(model.workspace, 17, 17))
    return (f"{kind.upper()}: {line}, "
            f"certify 17x17 {sha256(json.dumps(report.to_dict()))} "
            f"{'pass' if report.passed else 'fail'}")


if __name__ == "__main__":
    # The per-freeze clamp warnings are not fingerprints.
    logging.getLogger("lpvslc").setLevel(logging.ERROR)
    model = benchmark_plant()
    for kind in ("lti", "lpv"):
        print(readme_line(model, kind))
    _, line = fingerprint(model, "lti", DesignSpec(
        design_grid=[CENTRE], verification_grid=[CENTRE]))
    print(f"LTI at {CENTRE}: {line}")
    print(f"LPV order 1: {fingerprint(model, 'lpv', DesignSpec(surface_order=1))[1]}")
