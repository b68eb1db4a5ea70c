"""End-to-end command-line tests run in-process against temp projects."""

import json
import logging
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lpvslc.cli import _configure_logging, load_project, main
from lpvslc.design import controllers_from_dict
from lpvslc.io import load_csv, load_json
from lpvslc.plant import ModalPlantModel, Mode, save_plant
from lpvslc.scheduling import eval_surface, surface_from_dict

ACTUATORS = [[-0.06, -0.06], [0.06, -0.06], [0.06, 0.06], [-0.06, 0.06]]
SENSORS = [[0.0, 0.05], [-0.05, -0.04], [0.05, -0.03]]
BOX = ((0.0, 0.2), (0.0, 0.2))
SRC = str(Path(__file__).resolve().parents[1] / "src")


def _rigid_plant():
    return ModalPlantModel(
        modes=(Mode("rigid", axis="z"), Mode("rigid", axis="rx"),
               Mode("rigid", axis="ry")),
        masses=np.array([10.0, 0.1, 0.1]),
        frequencies_hz=np.zeros(3),
        damping=np.zeros(3),
        actuator_xy=np.asarray(ACTUATORS),
        sensor_xy=np.asarray(SENSORS),
        workspace=BOX,
    )


def _flex_plant():
    return ModalPlantModel(
        modes=(Mode("rigid", axis="z"), Mode("rigid", axis="rx"),
               Mode("rigid", axis="ry"), Mode("flex", kx=0.9, ky=0.9)),
        masses=np.array([10.0, 0.1, 0.1, 1.0]),
        frequencies_hz=np.array([0.0, 0.0, 0.0, 300.0]),
        damping=np.array([0.0, 0.0, 0.0, 0.02]),
        actuator_xy=np.asarray(ACTUATORS),
        sensor_xy=np.asarray(SENSORS),
        workspace=BOX,
        flex_actuation_gain=0.4,
        flex_sensing_gain=0.3,
        scan_crosstalk_gain=0.05,
    )


def _write_project(root, plant, design_spec=None, trajectory=None,
                   sim_config=None, name="project.json"):
    save_plant(plant, root / "plant.json")
    entries = {"plant": "plant.json", "output_dir": "out"}
    for key, payload in (("design_spec", design_spec),
                         ("trajectory", trajectory),
                         ("sim_config", sim_config)):
        if payload is not None:
            fname = f"{key}.json"
            (root / fname).write_text(json.dumps(payload))
            entries[key] = fname
    path = root / name
    path.write_text(json.dumps(entries))
    return path


TRAJECTORY_SPEC = {
    "start_xy": [0.1, 0.1],
    "bounds": {"v_max": 0.05, "a_max": 5.0, "j_max": 2000.0, "s_max": 8e5},
    "sample_rate_hz": 10000.0,
    "scan_x_m": 0.02,
}


@pytest.fixture(scope="module")
def rigid_project(tmp_path_factory):
    """Rigid-plant project with the LTI design already run."""
    root = tmp_path_factory.mktemp("rigid_proj")
    path = _write_project(root, _rigid_plant(),
                          design_spec={"target_bandwidth_hz": 150.0},
                          trajectory=TRAJECTORY_SPEC,
                          sim_config={"duration_s": 0.6})
    assert main(["design", "--config", str(path), "--mode", "lti"]) == 0
    return path


def test_frf_rigid_position_follows_double_integrator(rigid_project, tmp_path):
    code = main(["frf", "--config", str(rigid_project),
                 "--positions", "0.1,0.1", "--grid", "20:500:60",
                 "--out", str(tmp_path)])
    assert code == 0
    header, data = load_csv(tmp_path / "frf_p01.csv")
    assert header[0] == "freq_hz"
    f = data[:, 0]
    mag = np.hypot(data[:, header.index("re_11")],
                   data[:, header.index("im_11")])
    slope = np.polyfit(np.log10(f), np.log10(mag), 1)[0]
    assert slope == pytest.approx(-2.0, abs=1e-9)
    # Magnitude itself is 1/(m omega^2) for the decoupled vertical axis.
    assert_mag = 1.0 / (10.0 * (2 * np.pi * f) ** 2)
    np.testing.assert_allclose(mag, assert_mag, rtol=1e-12)


def test_frf_multiple_positions_with_jobs(rigid_project, tmp_path):
    code = main(["frf", "--config", str(rigid_project),
                 "--positions", "0.05,0.05;0.15,0.1;0.1,0.18",
                 "--grid", "20:200:25",
                 "--out", str(tmp_path)])
    assert code == 0
    manifest = load_json(tmp_path / "frf_manifest.json")
    assert manifest["files"] == ["frf_p01.csv", "frf_p02.csv", "frf_p03.csv"]
    header, data = load_csv(tmp_path / "frf_combined.csv")
    # freq column plus re/im for each of 3x3 entries per position.
    assert len(header) == 1 + 3 * 2 * 9
    assert data.shape == (25, len(header))
    # Rigid plant: identical dynamics at every position.
    single = load_csv(tmp_path / "frf_p01.csv")[1]
    other = load_csv(tmp_path / "frf_p03.csv")[1]
    np.testing.assert_array_equal(single, other)


def test_frf_empty_position_list_is_a_usage_error(rigid_project, tmp_path):
    for positions in (" ; ", "a,0.1"):
        code = main(["frf", "--config", str(rigid_project),
                     "--positions", positions, "--out", str(tmp_path)])
        assert code == 2


@pytest.mark.parametrize("grid", ["nan:100:10", "1:inf:10"])
def test_frf_non_finite_grid_exits_2(rigid_project, tmp_path, grid):
    code = main(["frf", "--config", str(rigid_project),
                 "--positions", "0.1,0.1", "--grid", grid,
                 "--out", str(tmp_path)])
    assert code == 2
    assert not (tmp_path / "frf_p01.csv").exists()


def test_frf_missing_positions_flag_exits_via_argparse(rigid_project):
    with pytest.raises(SystemExit) as exc:
        main(["frf", "--config", str(rigid_project)])
    assert exc.value.code == 2


def test_design_artifacts_and_bandwidth_cap(rigid_project):
    out = rigid_project.parent / "out"
    summary = load_json(out / "design_summary_lti.json")
    assert summary["achieved_bandwidth_hz"] == 150.0
    assert summary["certified"] is True
    assert summary["n_verification_points"] == 25
    controllers = controllers_from_dict(load_json(out / "controllers_lti.json"))
    assert controllers.kind == "lti"
    assert controllers.achieved_bandwidth_hz == 150.0
    report = load_json(out / "certification_lti.json")
    assert report["passed"] is True
    assert len(report["points"]) == 25


def test_design_outputs_are_byte_identical(rigid_project, tmp_path):
    out1 = rigid_project.parent / "out"
    code = main(["design", "--config", str(rigid_project), "--mode", "lti",
                 "--out", str(tmp_path)])
    assert code == 0
    for name in ("controllers_lti.json", "certification_lti.json",
                 "design_summary_lti.json"):
        assert (tmp_path / name).read_bytes() == (out1 / name).read_bytes()


def test_design_invalid_spec_json_exits_2(tmp_path):
    path = _write_project(tmp_path, _rigid_plant())
    (tmp_path / "design_spec.json").write_text("{not json")
    cfg = json.loads(path.read_text())
    cfg["design_spec"] = "design_spec.json"
    path.write_text(json.dumps(cfg))
    assert main(["design", "--config", str(path), "--mode", "lti"]) == 2


def test_simulate_rejects_non_boolean_feedback(tmp_path):
    path = _write_project(tmp_path, _rigid_plant(),
                          trajectory=TRAJECTORY_SPEC,
                          sim_config={"duration_s": 1, "feedback": "no"})
    assert main(["simulate", "--config", str(path), "--mode", "lti"]) == 2
    # The kernel is no longer selectable; the old field is unknown.
    path = _write_project(tmp_path, _rigid_plant(),
                          trajectory=TRAJECTORY_SPEC,
                          sim_config={"duration_s": 1, "backend": "numpy"})
    assert main(["simulate", "--config", str(path), "--mode", "lti"]) == 2


def test_simulate_refuses_oversized_run(rigid_project, tmp_path):
    path = _write_project(tmp_path, _rigid_plant(),
                          trajectory=TRAJECTORY_SPEC,
                          sim_config={"duration_s": 1e12})
    (tmp_path / "out").mkdir()
    shutil.copy(rigid_project.parent / "out" / "controllers_lti.json",
                tmp_path / "out")
    assert main(["simulate", "--config", str(path), "--mode", "lti"]) == 2


@pytest.mark.parametrize("summary", [
    [69.6], {}, {"achieved_bandwidth_hz": "69.6"},
    {"achieved_bandwidth_hz": 0.0}])
def test_design_lpv_with_malformed_lti_summary_exits_2(tmp_path, summary):
    """The stored LTI summary the LPV summary compares against is checked
    before the design runs: a malformed one exits 2 and nothing is written."""
    path = _write_project(tmp_path, _rigid_plant())
    out = tmp_path / "out"
    out.mkdir()
    (out / "design_summary_lti.json").write_text(json.dumps(summary))
    assert main(["design", "--config", str(path), "--mode", "lpv"]) == 2
    assert sorted(p.name for p in out.iterdir()) == ["design_summary_lti.json"]


@pytest.mark.parametrize("stored, code", [
    ([True], 2), ({}, 2), ({"passed": "no"}, 2), ({"passed": 1}, 2),
    ({"passed": False}, 0), ({"passed": True}, 0)])
def test_simulate_reads_a_boolean_certification_verdict(rigid_project,
                                                        tmp_path, stored,
                                                        code):
    """simulate's precheck needs a JSON object whose passed is a JSON
    boolean; anything else exits 2 rather than counting as passed."""
    path = _write_project(tmp_path, _rigid_plant(),
                          trajectory=TRAJECTORY_SPEC,
                          sim_config={"duration_s": 0.3})
    (tmp_path / "out").mkdir()
    shutil.copy(rigid_project.parent / "out" / "controllers_lti.json",
                tmp_path / "out")
    (tmp_path / "out" / "certification_lti.json").write_text(
        json.dumps(stored))
    assert main(["simulate", "--config", str(path), "--mode", "lti"]) == code
    assert (tmp_path / "out" / "run_lti.csv").is_file() is (code == 0)


def test_design_infeasible_exits_1(tmp_path):
    path = _write_project(tmp_path, _flex_plant(),
                          design_spec={"target_bandwidth_hz": 400.0,
                                       "min_bandwidth_hz": 400.0})
    assert main(["design", "--config", str(path), "--mode", "lti"]) == 1


def test_lpv_design_with_duplicate_design_points_exits_2(tmp_path, caplog):
    """The scheduled design fits surfaces through the design grid, so a
    grid that repeats a point is refused: exit 2, the log says why, and
    no controller set is written."""
    grid = [[0.05, 0.05], [0.1, 0.1], [0.15, 0.15], [0.1, 0.1]]
    path = _write_project(tmp_path, _flex_plant(),
                          design_spec={"design_grid": grid})
    with caplog.at_level(logging.ERROR, logger="lpvslc.cli"):
        assert main(["design", "--config", str(path), "--mode", "lpv"]) == 2
    assert any("design points must be distinct" in rec.message
               for rec in caplog.records)
    assert not (tmp_path / "out" / "controllers_lpv.json").exists()


def test_lpv_design_logs_bandwidth_ratio(tmp_path, caplog):
    path = _write_project(tmp_path, _flex_plant(), design_spec={})
    with caplog.at_level(logging.INFO, logger="lpvslc.cli"):
        assert main(["design", "--config", str(path), "--mode", "lti"]) == 0
        assert main(["design", "--config", str(path), "--mode", "lpv"]) == 0
    summary = load_json(tmp_path / "out" / "design_summary_lpv.json")
    assert "bandwidth_ratio_vs_lti" in summary
    assert any("bandwidth ratio vs lti" in rec.message for rec in caplog.records)


def test_certify_subcommand_writes_report(rigid_project, capsys):
    code = main(["certify", "--config", str(rigid_project), "--mode", "lti",
                 "--grid", "2x2"])
    assert code == 0
    report = load_json(rigid_project.parent / "out" / "certification_lti.json")
    assert len(report["points"]) == 4
    assert "overall: PASS" in capsys.readouterr().out


def test_certify_failing_report_exits_1(rigid_project, tmp_path, capsys):
    """A stored set whose sensitivity bound is lowered below its peak fails
    certification: exit 1, and the failing report is still written."""
    stored = load_json(rigid_project.parent / "out" / "controllers_lti.json")
    path = _write_project(tmp_path, _rigid_plant())
    (tmp_path / "out").mkdir()
    for bound, code in ((stored["sensitivity_bound_db"], 0), (1.0, 1)):
        (tmp_path / "out" / "controllers_lti.json").write_text(
            json.dumps({**stored, "sensitivity_bound_db": bound}))
        assert main(["certify", "--config", str(path), "--mode", "lti",
                     "--grid", "2x2"]) == code, bound
        report = load_json(tmp_path / "out" / "certification_lti.json")
        assert report["passed"] is (code == 0)
        assert len(report["points"]) == 4
    assert "overall: FAIL" in capsys.readouterr().out


def test_certify_without_stored_controllers_exits_2(tmp_path):
    path = _write_project(tmp_path, _rigid_plant())
    assert main(["certify", "--config", str(path), "--mode", "lpv"]) == 2


def test_certify_rejects_a_wrong_cascade_partition(rigid_project, tmp_path):
    """A stored cascade whose n_fixed is not the count of its fixed blocks,
    or not an integer, exits 2."""
    stored = load_json(rigid_project.parent / "out" / "controllers_lti.json")
    path = _write_project(tmp_path, _rigid_plant())
    (tmp_path / "out").mkdir()
    for n_fixed, code in ((stored["loops"][0]["n_fixed"], 0),
                          (stored["loops"][0]["n_fixed"] - 1, 2),
                          (2.7, 2), (True, 2)):
        loop = {**stored["loops"][0], "n_fixed": n_fixed}
        (tmp_path / "out" / "controllers_lpv.json").write_text(
            json.dumps({**stored, "loops": [loop] + stored["loops"][1:]}))
        assert main(["certify", "--config", str(path), "--mode", "lpv",
                     "--grid", "1x1"]) == code, n_fixed


def test_certify_rejects_a_stored_set_without_physical_meaning(rigid_project,
                                                               tmp_path):
    """A stored set whose sensitivity bound or achieved bandwidth is not
    positive exits 2 and writes no report; the same set with its own
    values certifies (exit 0)."""
    stored = load_json(rigid_project.parent / "out" / "controllers_lti.json")
    path = _write_project(tmp_path, _rigid_plant())
    out = tmp_path / "out"
    out.mkdir()
    report = out / "certification_lpv.json"
    for change, code in (({}, 0), ({"sensitivity_bound_db": 0}, 2),
                         ({"sensitivity_bound_db": -3}, 2),
                         ({"achieved_bandwidth_hz": -5}, 2)):
        report.unlink(missing_ok=True)
        (out / "controllers_lpv.json").write_text(
            json.dumps({**stored, **change}))
        assert main(["certify", "--config", str(path), "--mode", "lpv",
                     "--grid", "2x2"]) == code, change
        assert report.is_file() is (code == 0), change


def test_trajectory_subcommand_exports_profile(rigid_project):
    code = main(["trajectory", "--config", str(rigid_project)])
    assert code == 0
    out = rigid_project.parent / "out"
    summary = load_json(out / "trajectory_summary.json")
    scan = summary["profiles"]["scan_x"]
    assert scan["displacement_m"] == pytest.approx(0.02, abs=1e-12)
    assert scan["peak_velocity"] <= 0.05 + 1e-12
    assert scan["peak_acceleration"] <= 5.0 + 1e-9
    assert (out / scan["file"]).is_file()


def test_simulate_and_metrics_identical_controllers(rigid_project, capsys):
    out = rigid_project.parent / "out"
    # Stand in the same controller set for both kinds: reduction must be 0%.
    shutil.copy(out / "controllers_lti.json", out / "controllers_lpv.json")
    shutil.copy(out / "certification_lti.json", out / "certification_lpv.json")
    assert main(["simulate", "--config", str(rigid_project)]) == 0
    for kind in ("lti", "lpv"):
        header, data = load_csv(out / f"run_{kind}.csv")
        assert header[:3] == ["t", "p_x", "p_y"]
        assert data.shape[0] == 6001
        summary = load_json(out / f"summary_{kind}.json")
        assert {"ma_m", "msd_m", "interval", "per_axis"} <= set(summary)
    assert (out / "run_lti.csv").read_bytes() == (out / "run_lpv.csv").read_bytes()

    assert main(["metrics", "--config", str(rigid_project)]) == 0
    table = load_json(out / "comparison.json")
    assert table["interval"] == "constant velocity"
    labels = [c["label"] for c in table["controllers"]]
    assert len(set(labels)) == 2
    for entry in table["controllers"]:
        assert {"ma_m", "msd_m", "reduction_pct"} <= set(entry)
        assert entry["reduction_pct"]["ma"] == 0.0
        assert entry["reduction_pct"]["msd"] == 0.0
    assert "controller" in capsys.readouterr().out


def test_simulate_without_controllers_exits_2(tmp_path):
    path = _write_project(tmp_path, _rigid_plant(),
                          trajectory=TRAJECTORY_SPEC,
                          sim_config={"duration_s": 0.2})
    assert main(["simulate", "--config", str(path), "--mode", "lpv"]) == 2


def test_metrics_without_run_summaries_exits_2(tmp_path):
    path = _write_project(tmp_path, _rigid_plant())
    assert main(["metrics", "--config", str(path)]) == 2


def test_metrics_with_malformed_run_summary_exits_2(tmp_path, caplog):
    path = _write_project(tmp_path, _rigid_plant())
    out = tmp_path / "out"
    out.mkdir()
    good = {"kind": "lti", "interval": {"name": "constant velocity"},
            "ma_m": 2e-9, "msd_m": 1e-9, "config": {"window_s": 0.005}}
    (out / "summary_lpv.json").write_text(json.dumps({**good, "kind": "lpv",
                                                      "ma_m": 1e-9}))
    (out / "summary_lti.json").write_text(json.dumps(good))
    assert main(["metrics", "--config", str(path)]) == 0
    assert load_json(out / "comparison.json")["controllers"][1][
        "reduction_pct"]["ma"] == pytest.approx(50.0)
    (out / "comparison.json").unlink()
    for bad in ([1], {"ma_m": 1}, {**good, "msd_m": "small"},
                {**good, "ma_m": True}, {**good, "interval": "cv"},
                {**good, "interval": {"name": 3}}, {**good, "config": {}},
                {**good, "config": {"window_s": None}}, {**good, "kind": [1]}):
        (out / "summary_lti.json").write_text(json.dumps(bad))
        caplog.clear()
        assert main(["metrics", "--config", str(path)]) == 2, bad
        assert "summary_lti.json" in caplog.text
        assert not (out / "comparison.json").exists()


def test_fit_subcommand_recovers_bilinear_surface(tmp_path):
    data = {
        "points": [[0.0, 0.0], [0.2, 0.0], [0.0, 0.2], [0.2, 0.2]],
        "values": [2.0 + 3.0 * x + 4.0 * y + 5.0 * x * y
                   for x, y in [(0.0, 0.0), (0.2, 0.0), (0.0, 0.2),
                                (0.2, 0.2)]],
        "order_x": 2,
        "order_y": 2,
        "units": "Hz",
    }
    cfg = tmp_path / "fit.json"
    cfg.write_text(json.dumps(data))
    assert main(["fit", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    report = load_json(tmp_path / "fit_report.json")
    assert report["rms_residual"] <= 1e-12
    assert report["rank"] == 4
    surface = surface_from_dict(load_json(tmp_path / "surface.json"))
    assert eval_surface(surface, (0.1, 0.1)) == pytest.approx(
        2.0 + 0.3 + 0.4 + 0.05, abs=1e-12)


def test_fit_missing_fields_exits_2(tmp_path):
    cfg = tmp_path / "fit.json"
    cfg.write_text(json.dumps({"points": [[0, 0]], "values": [1.0]}))
    assert main(["fit", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    good = {"points": [[0, 0], [0.2, 0], [0, 0.2], [0.2, 0.2]],
            "values": [1.0, 2.0, 3.0, 4.0], "order_x": 2, "order_y": 2}
    for bad in ({"order_x": 2.7}, {"order_x": True}, {"bounds": [[0, 0.2]]},
                {"bounds": [[0, 0.2], [0, "x"]]},
                {"bounds": [[0, float("inf")], [0, 0.2]]}, {"points": "abc"},
                {"values": [1.0, float("nan"), 3.0, 4.0]},
                {"values": [1.0, float("inf"), 3.0, 4.0]},
                {"points": [[True, 0], [0.2, 0], [0, 0.2], [0.2, 0.2]]},
                {"values": [True, 2.0, 3.0, 4.0]},
                {"bounds": [[0, 0.2], [False, True]]}):
        cfg.write_text(json.dumps({**good, **bad}))
        out = tmp_path / "bad_fit"
        assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 2
        assert not (out / "surface.json").exists()


def test_cli_import_loads_no_scipy():
    code = ("import sys, lpvslc.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": SRC}).stdout
    assert out.strip() == "[]"


def test_project_file_validation(tmp_path):
    plant = _rigid_plant()
    save_plant(plant, tmp_path / "plant.json")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"plant": "plant.json", "output_dir": "out",
                               "extra_knob": 1}))
    assert main(["trajectory", "--config", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"output_dir": "out"}))
    assert main(["trajectory", "--config", str(missing)]) == 2
    gone = tmp_path / "gone.json"
    gone.write_text(json.dumps({"plant": "nowhere.json", "output_dir": "out"}))
    assert main(["trajectory", "--config", str(gone)]) == 2
    for bad in ({"bounds": {**TRAJECTORY_SPEC["bounds"], "v_max": "fast"}},
                {"scan_x_m": "0.1m"}, {"sample_rate_hz": float("nan")},
                {"sample_rate_hz": 0.0}, {"loop_moves_m": 3},
                {"start_xy": 0.1}, {"start_xy": [0.1]},
                {"start_xy": [0.1, 0.1, 7.0]}, {"start_xy": [5.0, 5.0]},
                {"start_xy": [0.19, 0.1]}, {"start_xy": [True, 0.1]},
                {"bounds": {**TRAJECTORY_SPEC["bounds"], "v_max": True}},
                {"loop_moves_m": [0.0, 0.0, 0.0, 0.001]}):
        spec = _write_project(tmp_path, plant, name="spec.json",
                              trajectory={**TRAJECTORY_SPEC, **bad})
        assert main(["trajectory", "--config", str(spec)]) == 2
        assert not (tmp_path / "out" / "trajectory_summary.json").exists()
    ok = _write_project(tmp_path, plant, name="ok.json")
    project = load_project(ok)
    assert project.plant.is_file()
    assert project.output_dir.is_dir()
    assert project.trajectory is None


def test_env_variable_sets_log_level(monkeypatch):
    monkeypatch.setenv("LPVSLC_LOG", "debug")
    _configure_logging()
    assert logging.getLogger("lpvslc").level == logging.DEBUG
    monkeypatch.setenv("LPVSLC_LOG", "not-a-level")
    _configure_logging()
    assert logging.getLogger("lpvslc").level == logging.INFO
    monkeypatch.delenv("LPVSLC_LOG")
    _configure_logging()
    assert logging.getLogger("lpvslc").level == logging.INFO
