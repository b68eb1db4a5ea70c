"""Fingerprints of both README designs and of the benchmark's single-position
design: every bisection candidate, every step's report and the final set.

For each kind (LTI, LPV) on the benchmark stage with the default spec it
prints the number of controller sets the bisection passes to certify, the
sha256 over those sets in call order, the sha256 over the reports certify
returns for them (report.to_dict(), in call order), the achieved
bandwidth's repr, the sha256 of the final set, and the sha256 and verdict
of a 17x17 certify report.  A third line holds the same fingerprints for
the LTI design at the workspace centre alone (design and verification
grid both (0.1, 0.1)), the design perfbench's design workload times, with
the sha256 of the design's final report in place of the 17x17 report.
A fourth line holds the centre line's fingerprints for the scheduled
design with constant (order-1) zero-damping surfaces on the default
grids; its bandwidth is the LTI design's today, so the line shows when
the two kinds stop agreeing.  Two trees that print the same lines built
the same candidates and gave them the same verdicts.  Standard library
and lpvslc only.

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
    """The <kind> design on spec (what design_<kind>_slc runs): the set,
    its final report and its line of fingerprints."""
    candidates, reports = [], []

    def recording_certify(m, controllers, grid, **kwargs):
        candidates.append(json.dumps(controllers_to_dict(controllers)))
        report = certify(m, controllers, grid, **kwargs)
        reports.append(json.dumps(report.to_dict()))
        return report

    design.certify = recording_certify
    try:
        controllers, report = design._design_common(model, spec, kind)
    finally:
        design.certify = certify
    return controllers, report, (
        f"{len(candidates)} steps, "
        f"candidates {sha256(chr(10).join(candidates))}, "
        f"reports {sha256(chr(10).join(reports))}, "
        f"bandwidth {float(controllers.achieved_bandwidth_hz)!r}, "
        f"final {sha256(json.dumps(controllers_to_dict(controllers)))}")


def readme_line(model, kind: str) -> str:
    """Fingerprints of design_<kind>_slc on the default spec and its 17x17
    certify report."""
    controllers, _, line = fingerprint(model, kind, DesignSpec())
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
    _, report, line = fingerprint(model, "lti", DesignSpec(
        design_grid=[CENTRE], verification_grid=[CENTRE]))
    print(f"LTI at {CENTRE}: {line}, "
          f"final report {sha256(json.dumps(report.to_dict()))}")
    _, report, line = fingerprint(model, "lpv", DesignSpec(surface_order=1))
    print(f"LPV order 1: {line}, "
          f"final report {sha256(json.dumps(report.to_dict()))}")
