"""Command-line front end wiring JSON project files to the pipeline.

Subcommands cover the whole workflow: frozen-position FRF export (frf),
controller synthesis (design), coefficient-surface fitting (fit), grid
certification (certify), motion planning (trajectory), closed-loop runs
(simulate) and run comparison (metrics).

A project file names the plant file and the output directory, and
optionally the design spec, trajectory and sim config files; relative
paths resolve against the project file's own directory.  All emitted
files are deterministic: rerunning a command on identical inputs
reproduces the same bytes (fixed float formatting, no timestamps).

The LPVSLC_LOG environment variable sets the log level (default INFO).
Exit codes: 0 success, 1 infeasible design or a failed certify, 2
configuration or input error (a malformed stored artifact included), 3
numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .design import (
    DesignSpec,
    certify,
    controllers_from_dict,
    controllers_to_dict,
    design_lpv_slc,
    design_lti_slc,
    design_spec_from_dict,
    grid_points,
)
from .errors import (
    ConfigError,
    DecouplingError,
    DesignInfeasibleError,
    DomainError,
    ModelError,
    NumericalError,
    boolean,
    integral,
    listof,
    nullable,
    positive,
    real,
    reals,
    record,
    text,
)
from .freqresp import default_grid, frf
from .io import dump_csv, dump_json, load_from, load_json
from .plant import frozen_realization, load_plant
from .scheduling import FrozenDesignSet, fit_surface, surface_to_dict
from .sim import (
    MAX_TRACE_BYTES,
    StageMotion,
    compare_summaries,
    result_summary,
    sim_config_from_dict,
    simulate,
    write_result_csv,
)
# sample is not called here: perfbench/tracing.py times lpvslc.cli.sample,
# so the name stays importable.
from .trajectory import MotionBounds, plan, sample, write_profile_csv

__all__ = ["ProjectConfig", "load_project", "main"]

log = logging.getLogger(__name__)

CONTROLLER_KINDS = ("lti", "lpv")


@dataclass(frozen=True)
class ProjectConfig:
    """Resolved paths of one workspace: inputs plus the output directory."""

    plant: Path
    output_dir: Path
    design_spec: Path | None = None
    trajectory: Path | None = None
    sim_config: Path | None = None


def load_project(path, out_override=None) -> ProjectConfig:
    """Read a project file, resolve paths and prepare the output directory."""
    base = Path(path).resolve().parent

    def input_file(key, value):
        p = base / text(key, value)     # an absolute path stays as it is
        if not p.is_file():
            raise ConfigError(f"{key} file does not exist: {p}")
        return p

    paths = record(str(path), load_json(path), {
        "plant": input_file,
        "output_dir": lambda key, value: base / text(key, value),
        **dict.fromkeys(("design_spec", "trajectory", "sim_config"),
                        (nullable(input_file), None)),
    })
    out = Path(out_override) if out_override else paths["output_dir"]
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}")
    if not os.access(out, os.W_OK):
        raise ConfigError(f"output directory {out} is not writable")
    return ProjectConfig(**{**paths, "output_dir": out})


def _require(value, what: str):
    if value is None:
        raise ConfigError(f"this command needs a {what} entry in the project file")
    return value


def _load_design_spec(project: ProjectConfig) -> DesignSpec:
    if project.design_spec is None:
        return DesignSpec()
    return load_from(project.design_spec, design_spec_from_dict)


def _read_bounds(key: str, data) -> MotionBounds:
    return MotionBounds(**record(key, data, dict.fromkeys(
        ("v_max", "a_max", "j_max", "s_max"), real)))


_MOTION_FIELDS = {
    "start_xy": listof(real, 2),
    "bounds": _read_bounds,
    "sample_rate_hz": (positive, 10000.0),
    **dict.fromkeys(("scan_x_m", "scan_y_m"), (nullable(real), None)),
    "loop_moves_m": (listof(nullable(real)), ()),
}


def _load_motion(path, n_loops) -> tuple[StageMotion, float]:
    """Trajectory spec JSON -> commanded stage motion plus its planning
    rate; a scan_x_m, scan_y_m or loop_moves_m entry of null or 0 holds,
    and loop_moves_m holds at most one entry for each of n_loops loops."""
    spec = record(str(path), load_json(path), _MOTION_FIELDS)
    if len(spec["loop_moves_m"]) > n_loops:
        raise ConfigError(f"{path}: loop_moves_m: got "
                          f"{len(spec['loop_moves_m'])} loop reference "
                          f"profiles for {n_loops} loops")
    rate = spec["sample_rate_hz"]

    def _plan(d):
        return None if d is None or d == 0.0 else plan(d, spec["bounds"], rate)

    motion = StageMotion(start_xy=spec["start_xy"],
                         scan_x=_plan(spec["scan_x_m"]),
                         scan_y=_plan(spec["scan_y_m"]),
                         loop_refs=tuple(map(_plan, spec["loop_moves_m"])))
    return motion, rate


def _parse_positions(text: str) -> np.ndarray:
    pts = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            x, y = (float(v) for v in chunk.split(","))
        except ValueError:
            raise ConfigError(f"bad position {chunk!r}; expected x,y") from None
        pts.append([x, y])
    if not pts:
        raise ConfigError("position list is empty; give at least one x,y pair")
    return np.asarray(pts)


def _parse_freq_grid(text, row_bytes: int):
    """The fmin:fmax:n grid of text (default_grid for None), refused before
    it is allocated when its table, row_bytes a frequency, would exceed
    MAX_TRACE_BYTES."""
    if text is None:
        return default_grid()
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"bad frequency grid {text!r}; expected fmin:fmax:n")
    try:
        fmin, fmax, n = float(parts[0]), float(parts[1]), int(parts[2])
        if n * row_bytes > MAX_TRACE_BYTES:
            raise ConfigError(
                f"frequency grid {text!r} gives a table of about "
                f"{n * row_bytes / 2**30:.3g} GiB, over the "
                f"{MAX_TRACE_BYTES / 2**30:g} GiB limit")
        return default_grid(fmin, fmax, n)
    except ValueError as exc:
        raise ConfigError(f"bad frequency grid {text!r}: {exc}")


# What `certify --grid` holds per position: its grid_points entry (0.15
# kB), its report point (1.4 kB), that point's share of the JSON encoding
# (7.7 kB) and of the printed table (0.2 kB), 9.5 kB measured with
# tracemalloc on the README LTI set.
CERTIFY_POINT_BYTES = 10_000


def _parse_pos_grid(text: str) -> tuple[int, int]:
    """The NXxNY of text, refused before any position is made when the
    grid's points and report would exceed MAX_TRACE_BYTES."""
    parts = text.lower().split("x")
    try:
        nx, ny = (int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"bad position grid {text!r}; expected NXxNY")
    if nx < 1 or ny < 1:
        raise ConfigError("position grid needs at least one point per axis")
    if nx * ny * CERTIFY_POINT_BYTES > MAX_TRACE_BYTES:
        raise ConfigError(
            f"position grid {text!r} gives a report of about "
            f"{nx * ny * CERTIFY_POINT_BYTES / 2**30:.3g} GiB, over the "
            f"{MAX_TRACE_BYTES / 2**30:g} GiB limit")
    return nx, ny


def cmd_frf(args) -> None:
    """Write the frozen-position FRFs side by side in frf_combined.csv:
    freq_hz, then p<k>_re_ij and p<k>_im_ij per position k and
    output/input pair (1-based), and the positions in frf_manifest.json."""
    project = load_project(args.config, args.out)
    model = load_plant(project.plant)
    positions = model.check_point(_parse_positions(args.positions))
    # A row of the table: freq_hz and the real and imaginary part of every
    # entry at every position, float64.
    grid = _parse_freq_grid(
        args.grid, (1 + 2 * len(positions) * model.n_y * model.n_u) * 8)
    header, cols = ["freq_hz"], [grid.freqs_hz]
    stack = frf(frozen_realization(model, positions), grid.freqs_hz)
    for k, h in enumerate(stack, start=1):
        for i in range(h.shape[1]):
            for j in range(h.shape[2]):
                header += [f"p{k:02d}_re_{i + 1}{j + 1}",
                           f"p{k:02d}_im_{i + 1}{j + 1}"]
                cols += [h[:, i, j].real, h[:, i, j].imag]
    dump_csv(project.output_dir / "frf_combined.csv", header, cols)
    dump_json({"positions": [[float(x), float(y)] for x, y in positions],
               "combined": "frf_combined.csv"},
              project.output_dir / "frf_manifest.json")


def _summary_path(outdir: Path, kind: str) -> Path:
    return outdir / f"design_summary_{kind}.json"


def _stored(fields: dict):
    """Reader of the entries named in fields of an object that a command
    wrote; its other entries are that command's own and are not read."""
    def read(key, data):
        if isinstance(data, dict):
            data = {k: v for k, v in data.items() if k in fields}
        return record(key, data, fields)
    return read


def _read_stored(path: Path, fields: dict) -> dict:
    """The JSON object a command wrote to path, its entries named in fields
    checked; ConfigError naming the file when the file is malformed."""
    data = load_json(path)
    _stored(fields)(str(path), data)
    return data


# The entries of a run digest that compare_summaries reads.
_RUN_SUMMARY = {"ma_m": real, "msd_m": real, "kind": (text, None),
                "interval": _stored({"name": text}),
                "config": _stored({"window_s": real})}


def cmd_design(args) -> None:
    """Synthesize one controller set, certify it and write the artifacts."""
    project = load_project(args.config, args.out)
    model = load_plant(project.plant)
    spec = _load_design_spec(project)
    # The LPV summary compares against a stored LTI design; a malformed
    # one is refused before anything is designed or written.
    lti_summary_path = _summary_path(project.output_dir, "lti")
    lti_bw = None
    if args.mode == "lpv" and lti_summary_path.is_file():
        lti_bw = _read_stored(lti_summary_path, {
            "achieved_bandwidth_hz": positive})["achieved_bandwidth_hz"]
    builder = design_lti_slc if args.mode == "lti" else design_lpv_slc
    controllers = builder(model, spec)
    _, verify, _ = spec.resolve(model)
    report = certify(model, controllers, verify)
    dump_json(controllers_to_dict(controllers),
              project.output_dir / f"controllers_{args.mode}.json")
    dump_json(report.to_dict(),
              project.output_dir / f"certification_{args.mode}.json")
    summary = {
        "kind": controllers.kind,
        "achieved_bandwidth_hz": float(controllers.achieved_bandwidth_hz),
        "sensitivity_bound_db": float(spec.sensitivity_bound_db),
        "certified": report.passed,
        "worst_sensitivity_db": report.worst_sensitivity_db(),
        "n_verification_points": len(report.points),
    }
    log.info("%s design: bandwidth %.2f Hz, certification %s", args.mode,
             summary["achieved_bandwidth_hz"],
             "passed" if report.passed else "FAILED")
    if lti_bw is not None:
        summary["bandwidth_ratio_vs_lti"] = (
            summary["achieved_bandwidth_hz"] / lti_bw)
        log.info("bandwidth ratio vs lti: %.3f",
                 summary["bandwidth_ratio_vs_lti"])
    dump_json(summary, _summary_path(project.output_dir, args.mode))


_FIT_FIELDS = {
    **dict.fromkeys(("points", "values"), reals),
    **dict.fromkeys(("order_x", "order_y"), integral),
    "units": (text, ""),
    "bounds": (listof(listof(real, 2), 2), None),
}


def _fit_from_dict(data):
    """fit_surface's surface and report for a fit input (fields:
    _FIT_FIELDS)."""
    fit = record("fit input", data, _FIT_FIELDS)
    designs = FrozenDesignSet(fit["points"], fit["values"], units=fit["units"])
    return fit_surface(designs, fit["order_x"], fit["order_y"],
                       bounds=fit["bounds"])


def cmd_fit(args) -> None:
    """Fit a coefficient surface to frozen design samples from a JSON file."""
    surface, report = load_from(args.config, _fit_from_dict)
    out = Path(args.out) if args.out else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    dump_json(surface_to_dict(surface), out / "surface.json")
    dump_json({
        "rms_residual": float(report.rms_residual),
        "max_abs_residual": float(np.max(np.abs(report.residuals))),
        "rank": int(report.rank),
        "n_coefficients": int(report.n_coefficients),
        "condition": float(report.condition),
        "rank_deficient": bool(report.rank_deficient),
    }, out / "fit_report.json")
    log.info("fit rms residual %.3e (rank %d/%d)", report.rms_residual,
             report.rank, report.n_coefficients)


def _load_controllers(outdir: Path, kind: str):
    path = outdir / f"controllers_{kind}.json"
    if not path.is_file():
        raise ConfigError(
            f"no controller set at {path}; run the design command first")
    return load_from(path, controllers_from_dict)


def cmd_certify(args) -> int:
    """Re-certify a stored controller set on a fresh position grid; exit 1
    when it fails (the report is written either way)."""
    project = load_project(args.config, args.out)
    model = load_plant(project.plant)
    controllers = _load_controllers(project.output_dir, args.mode)
    nx, ny = _parse_pos_grid(args.grid)
    report = certify(model, controllers, grid_points(model.workspace, nx, ny))
    dump_json(report.to_dict(),
              project.output_dir / f"certification_{args.mode}.json")
    print(report.table())
    return 0 if report.passed else 1


def cmd_trajectory(args) -> None:
    """Plan the commanded motion and export profile CSVs plus a digest; a
    profile whose table would exceed MAX_TRACE_BYTES is refused before
    any is written."""
    project = load_project(args.config, args.out)
    model = load_plant(project.plant)
    motion, rate = _load_motion(_require(project.trajectory, "trajectory"),
                                model.n_u)
    # A scan is monotone per axis, so it stays inside the workspace when
    # both of its ends do.
    scan = [0.0 if s is None else s.displacement
            for s in (motion.scan_x, motion.scan_y)]
    model.check_point([motion.start_xy, np.add(motion.start_xy, scan)])
    profiles = motion.profiles()
    for name, prof in profiles.items():
        # write_profile_csv's table: (n + 1) rows of 6 float64 values.
        need = (prof.duration * rate + 1.0) * 6 * 8
        if need > MAX_TRACE_BYTES:
            raise ConfigError(
                f"{project.trajectory}: sample_rate_hz: {rate:g} Hz gives the "
                f"{name} profile a table of about {need / 2**30:.3g} GiB, "
                f"over the {MAX_TRACE_BYTES / 2**30:g} GiB limit")
    summary = {"start_xy": list(motion.start_xy), "sample_rate_hz": rate,
               "profiles": {}}
    for name, prof in profiles.items():
        csv_name = f"trajectory_{name}.csv"
        _, vel, acc, jerk, snap = write_profile_csv(
            project.output_dir / csv_name, prof)
        summary["profiles"][name] = {
            "file": csv_name,
            "displacement_m": prof.displacement,
            "duration_s": prof.duration,
            "peak_velocity": float(np.abs(vel).max()),
            "peak_acceleration": float(np.abs(acc).max()),
            "peak_jerk": float(np.abs(jerk).max()),
            "peak_snap": float(np.abs(snap).max()),
        }
        log.info("%s: %.4g m in %.4g s -> %s", name, prof.displacement,
                 prof.duration, csv_name)
    dump_json(summary, project.output_dir / "trajectory_summary.json")


def cmd_simulate(args) -> None:
    """Run the stored controller sets on the commanded motion."""
    project = load_project(args.config, args.out)
    model = load_plant(project.plant)
    motion, _ = _load_motion(_require(project.trajectory, "trajectory"),
                             model.n_u)
    config = load_from(_require(project.sim_config, "sim config"),
                       sim_config_from_dict)
    kinds = CONTROLLER_KINDS if args.mode == "both" else (args.mode,)
    for kind in kinds:
        controllers = _load_controllers(project.output_dir, kind)
        cert = None
        cert_path = project.output_dir / f"certification_{kind}.json"
        if cert_path.is_file():
            # The simulator's precheck reads the verdict only.
            cert = SimpleNamespace(passed=_read_stored(
                cert_path, {"passed": boolean})["passed"])
        result = simulate(model, controllers, motion, config,
                          certification=cert)
        write_result_csv(project.output_dir / f"run_{kind}.csv", result)
        summary = result_summary(result)
        dump_json(summary, project.output_dir / f"summary_{kind}.json")
        log.info("%s run: mean |MA| %.3e m, mean MSD %.3e m over the "
                 "%s interval", kind, summary["ma_m"], summary["msd_m"],
                 summary["interval"]["name"])


def cmd_metrics(args) -> None:
    """Compare the stored runs: LTI is the baseline, LPV the candidate."""
    project = load_project(args.config, args.out)
    summaries = {}
    for kind in CONTROLLER_KINDS:
        path = project.output_dir / f"summary_{kind}.json"
        if not path.is_file():
            raise ConfigError(
                f"no run summary at {path}; run the simulate command first")
        summaries[kind] = _read_stored(path, _RUN_SUMMARY)
    table = compare_summaries(summaries["lti"], summaries["lpv"])
    dump_json(table, project.output_dir / "comparison.json")
    print(f"interval: {table['interval']} "
          f"(exposure window {table['window_s']:g} s)")
    print(f"{'controller':<12} {'mean |MA| [m]':>14} {'mean MSD [m]':>14} "
          f"{'MA red. [%]':>12} {'MSD red. [%]':>13}")
    for entry in table["controllers"]:
        print(f"{entry['label']:<12} {entry['ma_m']:>14.6e} "
              f"{entry['msd_m']:>14.6e} "
              f"{entry['reduction_pct']['ma']:>12.2f} "
              f"{entry['reduction_pct']['msd']:>13.2f}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The lpvslc argument parser, built once per process; each subcommand
    runs the module's cmd_<name>."""
    parser = argparse.ArgumentParser(
        prog="lpvslc",
        description="Design and simulate gain-scheduled sequential loop "
                    "closing controllers for position-dependent motion "
                    "systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True,
                       help="project file (fit: fit input file)")
        p.add_argument("--out", default=None,
                       help="output directory override")
        return p

    p = add("frf", "export frozen-position frequency responses")
    p.add_argument("--positions", required=True,
                   help="semicolon-separated x,y pairs, e.g. '0.1,0.1;0,0.2'")
    p.add_argument("--grid", default=None,
                   help="frequency grid fmin:fmax:n (default 1:5000:1000)")

    p = add("design", "synthesize and certify a controller set")
    p.add_argument("--mode", choices=CONTROLLER_KINDS, required=True)

    add("fit", "fit a coefficient surface to frozen design samples")

    p = add("certify", "re-certify a stored controller set on a position grid")
    p.add_argument("--mode", choices=CONTROLLER_KINDS, required=True)
    p.add_argument("--grid", default="5x5", help="position grid NXxNY")

    add("trajectory", "plan and export the commanded motion")

    p = add("simulate", "run stored controller sets on the commanded motion")
    p.add_argument("--mode", choices=CONTROLLER_KINDS + ("both",),
                   default="both")

    add("metrics", "compare the stored runs (lti vs lpv)")
    return parser


def _configure_logging() -> None:
    level_name = os.environ.get("LPVSLC_LOG", "INFO").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.INFO
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("lpvslc").setLevel(level)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _configure_logging()
    # Looked up at call time, so a replaced cmd_<name> is the one that runs.
    handler = globals()[f"cmd_{args.command}"]
    try:
        code = handler(args)
    except DesignInfeasibleError as exc:
        log.error("design infeasible: %s", exc)
        return 1
    except (ConfigError, DomainError, ModelError, DecouplingError) as exc:
        log.error("%s", exc)
        return 2
    except NumericalError as exc:
        log.error("numerical failure: %s", exc)
        return 3
    return code or 0


if __name__ == "__main__":
    raise SystemExit(main())
