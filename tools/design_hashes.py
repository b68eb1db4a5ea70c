"""Fingerprints of both README designs and of the benchmark's single-position
design: every bisection candidate and the final set.

For each kind (LTI, LPV) on the benchmark stage with the default spec it
prints the number of controller sets the bisection passes to certify, the
sha256 over those sets in call order, the achieved bandwidth's repr, the
sha256 of the final set, and the sha256 and verdict of a 17x17 certify
report.  A third line holds the same fingerprints, without the 17x17
report, for the LTI design at the workspace centre alone (design and
verification grid both (0.1, 0.1)), the design perfbench's design workload
times.  Two trees that print the same lines built the same candidates.
Standard library and lpvslc only.

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
    """design_<kind>_slc on spec: the set and its line of fingerprints."""
    candidates = []

    def recording_certify(m, controllers, grid, **kwargs):
        candidates.append(json.dumps(controllers_to_dict(controllers)))
        return certify(m, controllers, grid, **kwargs)

    design.certify = recording_certify
    try:
        controllers = getattr(design, f"design_{kind}_slc")(model, spec)
    finally:
        design.certify = certify
    return controllers, (
        f"{len(candidates)} steps, "
        f"candidates {sha256(chr(10).join(candidates))}, "
        f"bandwidth {float(controllers.achieved_bandwidth_hz)!r}, "
        f"final {sha256(json.dumps(controllers_to_dict(controllers)))}")


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
