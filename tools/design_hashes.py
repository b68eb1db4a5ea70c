"""Fingerprints of both README designs: every bisection candidate, the final
set and its 17x17 certification.

For each kind (LTI, LPV) on the benchmark stage with the default spec it
prints the number of controller sets the bisection passes to certify, the
sha256 over those sets in call order, the achieved bandwidth's repr, the
sha256 of the final set, and the sha256 and verdict of a 17x17 certify
report.  Two trees that print the same lines built the same candidates.
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


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def fingerprint(kind: str) -> str:
    """One line of fingerprints for design_<kind>_slc on the default spec."""
    model = benchmark_plant()
    candidates = []

    def recording_certify(m, controllers, grid, **kwargs):
        candidates.append(json.dumps(controllers_to_dict(controllers)))
        return certify(m, controllers, grid, **kwargs)

    design.certify = recording_certify
    try:
        controllers = getattr(design, f"design_{kind}_slc")(model, DesignSpec())
    finally:
        design.certify = certify
    report = certify(model, controllers, grid_points(model.workspace, 17, 17))
    return (f"{kind.upper()}: {len(candidates)} steps, "
            f"candidates {sha256(chr(10).join(candidates))}, "
            f"bandwidth {float(controllers.achieved_bandwidth_hz)!r}, "
            f"final {sha256(json.dumps(controllers_to_dict(controllers)))}, "
            f"certify 17x17 {sha256(json.dumps(report.to_dict()))} "
            f"{'pass' if report.passed else 'fail'}")


if __name__ == "__main__":
    # The per-freeze clamp warnings are not fingerprints.
    logging.getLogger("lpvslc").setLevel(logging.ERROR)
    for kind in ("lti", "lpv"):
        print(fingerprint(kind))
