"""Command-line front end wiring JSON project files to the pipeline.

Subcommands cover the whole workflow: frozen-position FRF export (frf),
controller synthesis (design), coefficient-surface fitting (fit), grid
certification (certify), motion planning (trajectory), closed-loop runs
(simulate) and run comparison (metrics).

A project file points at the individual configs and the output directory:

    {
      "plant": "plant.json",
      "design_spec": "design.json",
      "trajectory": "trajectory.json",
      "sim_config": "sim.json",
      "output_dir": "out"
    }

Relative paths resolve against the project file's own directory.  All
emitted files are deterministic: rerunning a command on identical inputs
reproduces the same bytes (fixed float formatting, no timestamps).

The LPVSLC_LOG environment variable sets the log level (default INFO).
Exit codes: 0 success, 1 infeasible design or a failed certify, 2
configuration or input error (a malformed stored artifact included), 3
numerical failure.
"""

from __future__ import annotations

import argparse
import logging
import os
from dataclasses import dataclass
from pathlib import Path

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
    integral,
    real,
    reals,
)
from .freqresp import default_grid, frf, write_frf_csv
from .io import dump_csv, dump_json, load_json
from .plant import frozen_realization, load_plant
from .scheduling import FrozenDesignSet, fit_surface, surface_to_dict
from .sim import (
    SimConfig,
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
    data = load_json(path)
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: project file must hold a JSON object")
    known = {"plant", "design_spec", "trajectory", "sim_config", "output_dir"}
    extra = set(data) - known
    if extra:
        raise ConfigError(f"{path}: unknown project fields {sorted(extra)}")
    for key in ("plant", "output_dir"):
        if key not in data:
            raise ConfigError(f"{path}: project file needs {key!r}")
    base = Path(path).resolve().parent

    def resolve(key):
        if key not in data or data[key] is None:
            return None
        p = Path(data[key])
        return p if p.is_absolute() else base / p

    paths = {key: resolve(key) for key in
             ("plant", "design_spec", "trajectory", "sim_config")}
    for key, p in paths.items():
        if p is not None and not p.is_file():
            raise ConfigError(f"{path}: {key} file does not exist: {p}")
    out = Path(out_override) if out_override else resolve("output_dir")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}")
    if not os.access(out, os.W_OK):
        raise ConfigError(f"output directory {out} is not writable")
    return ProjectConfig(plant=paths["plant"], output_dir=out,
                         design_spec=paths["design_spec"],
                         trajectory=paths["trajectory"],
                         sim_config=paths["sim_config"])


def _require(value, what: str):
    if value is None:
        raise ConfigError(f"this command needs a {what} entry in the project file")
    return value


def _load_design_spec(project: ProjectConfig) -> DesignSpec:
    if project.design_spec is None:
        return DesignSpec()
    return design_spec_from_dict(load_json(project.design_spec))


def _load_motion(path) -> tuple[StageMotion, float]:
    """Trajectory spec JSON -> commanded stage motion plus its planning rate.

    Schema: start_xy [x, y] and bounds {v_max, a_max, j_max, s_max} are
    required; scan_x_m / scan_y_m give in-plane stroke lengths and
    loop_moves_m per-loop setpoint displacements (null or 0 means hold).
    """
    data = load_json(path)
    known = {"start_xy", "bounds", "sample_rate_hz", "scan_x_m", "scan_y_m",
             "loop_moves_m"}
    extra = set(data) - known
    if extra:
        raise ConfigError(f"{path}: unknown trajectory fields {sorted(extra)}")
    for key in ("start_xy", "bounds"):
        if key not in data:
            raise ConfigError(f"{path}: trajectory spec needs {key!r}")
    b = data["bounds"]
    need = {"v_max", "a_max", "j_max", "s_max"}
    if not isinstance(b, dict) or set(b) != need:
        raise ConfigError(f"{path}: bounds must hold exactly {sorted(need)}")
    try:
        bounds = MotionBounds(**{k: real(k, v) for k, v in b.items()})
        rate = real("sample_rate_hz", data.get("sample_rate_hz", 10000.0))
        start_xy = tuple(real("start_xy entry", v) for v in data["start_xy"])
        scan_x, scan_y = (None if data.get(k) is None else real(k, data[k])
                          for k in ("scan_x_m", "scan_y_m"))
        moves = [None if d is None else real("loop_moves_m entry", d)
                 for d in data.get("loop_moves_m", [])]
    except (TypeError, ConfigError) as exc:
        raise ConfigError(f"{path}: bad trajectory entry: {exc}") from exc
    if len(start_xy) != 2:
        raise ConfigError(f"{path}: start_xy must be one (x, y) point, got "
                          f"{data['start_xy']!r}")
    if rate <= 0.0:
        raise ConfigError(f"{path}: sample_rate_hz must be > 0, got {rate}")

    def _plan(d):
        return None if d is None or d == 0.0 else plan(d, bounds, rate)

    motion = StageMotion(start_xy=start_xy, scan_x=_plan(scan_x),
                         scan_y=_plan(scan_y),
                         loop_refs=tuple(_plan(d) for d in moves))
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


def _parse_freq_grid(text):
    if text is None:
        return default_grid()
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"bad frequency grid {text!r}; expected fmin:fmax:n")
    try:
        return default_grid(float(parts[0]), float(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise ConfigError(f"bad frequency grid {text!r}: {exc}")


def _parse_pos_grid(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    try:
        nx, ny = (int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"bad position grid {text!r}; expected NXxNY")
    if nx < 1 or ny < 1:
        raise ConfigError("position grid needs at least one point per axis")
    return nx, ny


def cmd_frf(args) -> None:
    """Write one FRF CSV per frozen position plus a combined overlay file."""
    project = load_project(args.config, args.out)
    model = load_plant(project.plant)
    positions = _parse_positions(args.positions)
    for p in positions:
        model.check_point(p)
    grid = _parse_freq_grid(args.grid)
    responses = [frf(frozen_realization(model, p), grid.freqs_hz)
                 for p in positions]

    files = []
    for k, (p, h) in enumerate(zip(positions, responses), start=1):
        name = f"frf_p{k:02d}.csv"
        write_frf_csv(project.output_dir / name, grid.freqs_hz, h)
        files.append(name)
        log.info("frf at (%.4f, %.4f) -> %s", p[0], p[1], name)

    header = ["freq_hz"]
    cols = [grid.freqs_hz]
    for k, h in enumerate(responses, start=1):
        for i in range(h.shape[1]):
            for j in range(h.shape[2]):
                header += [f"p{k:02d}_re_{i + 1}{j + 1}",
                           f"p{k:02d}_im_{i + 1}{j + 1}"]
                cols += [h[:, i, j].real, h[:, i, j].imag]
    dump_csv(project.output_dir / "frf_combined.csv", header, cols)
    dump_json({"positions": [[float(x), float(y)] for x, y in positions],
               "files": files, "combined": "frf_combined.csv"},
              project.output_dir / "frf_manifest.json")


def _summary_path(outdir: Path, kind: str) -> Path:
    return outdir / f"design_summary_{kind}.json"


def _stored_entry(path: Path, key: str, check, data=None):
    """check(key, value) of entry key in the JSON object a command wrote
    to path, or in data, that object as the caller already loaded it; a
    dotted key names an entry of a nested object.  ConfigError naming the
    file when the file is malformed."""
    value = load_json(path) if data is None else data
    for name in key.split("."):
        if not isinstance(value, dict) or name not in value:
            raise ConfigError(
                f"{path}: needs a JSON object with a {key!r} entry")
        value = value[name]
    try:
        return check(key, value)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _positive(key: str, value) -> float:
    value = real(key, value)
    if value <= 0.0:
        raise ConfigError(f"{key} must be > 0, got {value!r}")
    return value


def _boolean(key: str, value) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def _text(key: str, value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    return value


def _run_summary(path: Path) -> dict:
    """The run digest simulate wrote to path, with every entry that
    compare_summaries reads checked (kind only when present)."""
    summary = load_json(path)
    checks = [("ma_m", real), ("msd_m", real), ("interval.name", _text),
              ("config.window_s", real)]
    if isinstance(summary, dict) and "kind" in summary:
        checks.append(("kind", _text))
    for key, check in checks:
        _stored_entry(path, key, check, summary)
    return summary


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
        lti_bw = _stored_entry(lti_summary_path, "achieved_bandwidth_hz",
                               _positive)
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


def cmd_fit(args) -> None:
    """Fit a coefficient surface to frozen design samples from a JSON file.

    Input schema: points [[x, y], ...], values [...], order_x, order_y,
    optional units string and bounds [[x_lo, x_hi], [y_lo, y_hi]].
    """
    data = load_json(args.config)
    known = {"points", "values", "order_x", "order_y", "units", "bounds"}
    extra = set(data) - known
    if extra:
        raise ConfigError(f"{args.config}: unknown fit fields {sorted(extra)}")
    for key in ("points", "values", "order_x", "order_y"):
        if key not in data:
            raise ConfigError(f"{args.config}: fit input needs {key!r}")
    try:
        points, values = reals("points", data["points"]), reals("values", data["values"])
        bounds = None
        if "bounds" in data:
            (x_lo, x_hi), (y_lo, y_hi) = reals("bounds", data["bounds"])
            bounds = ((float(x_lo), float(x_hi)), (float(y_lo), float(y_hi)))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{args.config}: bad fit entry: {exc}") from exc
    designs = FrozenDesignSet(points, values, units=str(data.get("units", "")))
    surface, report = fit_surface(designs, integral("order_x", data["order_x"]),
                                  integral("order_y", data["order_y"]),
                                  bounds=bounds)
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
    return controllers_from_dict(load_json(path))


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
    """Plan the commanded motion and export profile CSVs plus a digest."""
    project = load_project(args.config, args.out)
    motion, rate = _load_motion(_require(project.trajectory, "trajectory"))
    model = load_plant(project.plant)
    # A scan is monotone per axis, so it stays inside the workspace when
    # both of its ends do.
    scan = [0.0 if s is None else s.displacement
            for s in (motion.scan_x, motion.scan_y)]
    for p in (motion.start_xy, np.add(motion.start_xy, scan)):
        model.check_point(p)
    if len(motion.loop_refs) > model.n_u:
        raise ConfigError(f"got {len(motion.loop_refs)} loop reference profiles "
                          f"for {model.n_u} loops")
    profiles = {}
    if motion.scan_x is not None:
        profiles["scan_x"] = motion.scan_x
    if motion.scan_y is not None:
        profiles["scan_y"] = motion.scan_y
    for i, prof in enumerate(motion.loop_refs):
        if prof is not None:
            profiles[f"loop{i}"] = prof
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


class _StoredCertification:
    """Pass/fail view of a certification JSON for the simulator's precheck."""

    def __init__(self, passed: bool):
        self.passed = passed


def cmd_simulate(args) -> None:
    """Run the stored controller sets on the commanded motion."""
    project = load_project(args.config, args.out)
    model = load_plant(project.plant)
    motion, _ = _load_motion(_require(project.trajectory, "trajectory"))
    config = sim_config_from_dict(
        load_json(_require(project.sim_config, "sim config")))
    kinds = CONTROLLER_KINDS if args.mode == "both" else (args.mode,)
    for kind in kinds:
        controllers = _load_controllers(project.output_dir, kind)
        cert = None
        cert_path = project.output_dir / f"certification_{kind}.json"
        if cert_path.is_file():
            cert = _StoredCertification(
                _stored_entry(cert_path, "passed", _boolean))
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
        summaries[kind] = _run_summary(path)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpvslc",
        description="Design and simulate gain-scheduled sequential loop "
                    "closing controllers for position-dependent motion "
                    "systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True,
                       help="project file (fit: fit input file)")
        p.add_argument("--out", default=None,
                       help="output directory override")
        p.set_defaults(func=func)
        return p

    p = add("frf", cmd_frf, "export frozen-position frequency responses")
    p.add_argument("--positions", required=True,
                   help="semicolon-separated x,y pairs, e.g. '0.1,0.1;0,0.2'")
    p.add_argument("--grid", default=None,
                   help="frequency grid fmin:fmax:n (default 1:5000:1000)")

    p = add("design", cmd_design, "synthesize and certify a controller set")
    p.add_argument("--mode", choices=CONTROLLER_KINDS, required=True)

    add("fit", cmd_fit, "fit a coefficient surface to frozen design samples")

    p = add("certify", cmd_certify,
            "re-certify a stored controller set on a position grid")
    p.add_argument("--mode", choices=CONTROLLER_KINDS, required=True)
    p.add_argument("--grid", default="5x5", help="position grid NXxNY")

    add("trajectory", cmd_trajectory, "plan and export the commanded motion")

    p = add("simulate", cmd_simulate,
            "run stored controller sets on the commanded motion")
    p.add_argument("--mode", choices=CONTROLLER_KINDS + ("both",),
                   default="both")

    add("metrics", cmd_metrics, "compare the stored runs (lti vs lpv)")
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
    try:
        code = args.func(args)
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
