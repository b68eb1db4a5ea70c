"""Exit codes and sha256 of the README command line sequence's artifacts.

In a temporary directory it writes the benchmark stage's plant, the
README trajectory, `design.json` = `{}` and `sim.json` =
`{"duration_s": 2.0}`, and runs, through lpvslc.cli.main:

    design --mode lti
    design --mode lpv
    certify --mode lpv --grid 7x7
    frf --positions "0.05,0.1;0.15,0.1"
    trajectory
    simulate
    metrics

It prints each command's exit code, then the sha256 of each of the 15
artifacts in output_dir, sorted by name.  Two trees that print the same
lines wrote the same bytes.  Standard library and lpvslc only.

    PYTHONPATH=src python3 tools/readme_hashes.py
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

from lpvslc.cli import main
from lpvslc.plant import benchmark_plant, save_plant

TRAJECTORY = {
    "start_xy": [0.05, 0.10],
    "bounds": {"v_max": 0.1, "a_max": 5.0, "j_max": 1000.0, "s_max": 200000.0},
    "sample_rate_hz": 10000.0,
    "scan_x_m": 0.1,
}

COMMANDS = [
    ["design", "--mode", "lti"],
    ["design", "--mode", "lpv"],
    ["certify", "--mode", "lpv", "--grid", "7x7"],
    ["frf", "--positions", "0.05,0.1;0.15,0.1"],
    ["trajectory"],
    ["simulate"],
    ["metrics"],
]


def run(root: Path) -> list:
    """Output lines of the sequence run in the directory root."""
    save_plant(benchmark_plant(), root / "plant.json")
    for name, data in (("design.json", {}),
                       ("sim.json", {"duration_s": 2.0}),
                       ("trajectory.json", TRAJECTORY),
                       ("project.json", {"plant": "plant.json",
                                         "design_spec": "design.json",
                                         "trajectory": "trajectory.json",
                                         "sim_config": "sim.json",
                                         "output_dir": "out"})):
        (root / name).write_text(json.dumps(data))
    lines = []
    for command in COMMANDS:
        # The metrics table goes to stdout; only the exit code is printed.
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([command[0], "--config", str(root / "project.json"),
                         *command[1:]])
        lines.append(f"exit {code}: {' '.join(command)}")
    for path in sorted((root / "out").iterdir()):
        lines.append(f"{path.name} "
                     f"{hashlib.sha256(path.read_bytes()).hexdigest()}")
    return lines


if __name__ == "__main__":
    # Progress and clamp warnings are not fingerprints.
    os.environ.setdefault("LPVSLC_LOG", "ERROR")
    with tempfile.TemporaryDirectory() as tmp:
        print("\n".join(run(Path(tmp))))
