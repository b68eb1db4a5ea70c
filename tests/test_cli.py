"""End-to-end command-line tests run in-process against temp projects."""

import json
import logging
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lpvslc import cli
from lpvslc.cli import _configure_logging, load_project, main
from lpvslc.design import controllers_from_dict
from lpvslc.filters import LpvNotch, Notch, filter_to_dict
from lpvslc.freqresp import default_grid, frf
from lpvslc.io import load_csv, load_json
from lpvslc.plant import (
    ModalPlantModel,
    Mode,
    benchmark_plant,
    frozen_realization,
    save_plant,
)
from lpvslc.scheduling import CoefficientSurface, eval_surface, surface_from_dict

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
    header, data = load_csv(tmp_path / "frf_combined.csv")
    assert header[0] == "freq_hz"
    f = data[:, 0]
    mag = np.hypot(data[:, header.index("p01_re_11")],
                   data[:, header.index("p01_im_11")])
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
    assert manifest == {"positions": [[0.05, 0.05], [0.15, 0.1], [0.1, 0.18]],
                        "combined": "frf_combined.csv"}
    header, data = load_csv(tmp_path / "frf_combined.csv")
    # freq column plus re/im for each of 3x3 entries per position.
    assert len(header) == 1 + 3 * 2 * 9
    assert data.shape == (25, len(header))
    # Rigid plant: identical dynamics at every position.
    single = [j for j, name in enumerate(header) if name.startswith("p01_")]
    other = [j for j, name in enumerate(header) if name.startswith("p03_")]
    assert [header[j][4:] for j in single] == [header[j][4:] for j in other]
    np.testing.assert_array_equal(data[:, single], data[:, other])


def test_frf_writes_one_combined_file(tmp_path):
    """Benchmark plant at two positions: every frf_combined.csv column
    reads back as the frozen plant's FRF exactly, a rerun writes the same
    bytes, and the CSV and its manifest are the only files written."""
    model = benchmark_plant()
    project = _write_project(tmp_path, model)
    argv = ["frf", "--config", str(project), "--positions",
            "0.05,0.1;0.15,0.1", "--grid", "1:5000:50"]
    assert main(argv) == 0
    out = tmp_path / "out"
    assert sorted(p.name for p in out.iterdir()) == ["frf_combined.csv",
                                                     "frf_manifest.json"]
    header, data = load_csv(out / "frf_combined.csv")
    freqs = default_grid(1.0, 5000.0, 50).freqs_hz
    np.testing.assert_array_equal(data[:, 0], freqs)
    names = ["freq_hz"]
    for k, p in enumerate([(0.05, 0.1), (0.15, 0.1)], start=1):
        h = frf(frozen_realization(model, p), freqs)
        ny, nu = h.shape[1:]
        pairs = [f"{i + 1}{j + 1}" for i in range(ny) for j in range(nu)]
        names += [f"p{k:02d}_{part}_{ij}" for ij in pairs
                  for part in ("re", "im")]
        re = data[:, [header.index(f"p{k:02d}_re_{ij}") for ij in pairs]]
        im = data[:, [header.index(f"p{k:02d}_im_{ij}") for ij in pairs]]
        np.testing.assert_allclose((re + 1j * im).reshape(-1, ny, nu), h,
                                   rtol=0, atol=0)
    assert header == names
    first = (out / "frf_combined.csv").read_bytes()
    assert main(argv) == 0
    assert (out / "frf_combined.csv").read_bytes() == first


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
    assert not (tmp_path / "frf_combined.csv").exists()


def test_frf_refuses_a_grid_whose_table_is_over_the_size_limit(
        rigid_project, tmp_path, caplog, monkeypatch):
    """A frequency grid whose table, (n rows) x (1 + 2 positions n_y n_u)
    float64, would exceed MAX_TRACE_BYTES exits 2 before the grid is
    allocated; a table at the limit is written."""
    def no_grid(*args):
        raise AssertionError("the frequency grid was allocated")

    argv = ["frf", "--config", str(rigid_project), "--positions",
            "0.1,0.1;0.05,0.1", "--out", str(tmp_path)]
    with monkeypatch.context() as mp:
        mp.setattr(cli, "default_grid", no_grid)
        with caplog.at_level(logging.ERROR, logger="lpvslc.cli"):
            assert main(argv + ["--grid", "1:5000:1000000000"]) == 2
    assert "GiB limit" in caplog.records[-1].getMessage()
    assert not any(tmp_path.iterdir())
    # The rigid stage has 3 outputs and 3 inputs: 37 float64 per row.
    monkeypatch.setattr(cli, "MAX_TRACE_BYTES", 100 * 37 * 8)
    assert main(argv + ["--grid", "1:5000:101"]) == 2
    assert not any(tmp_path.iterdir())
    assert main(argv + ["--grid", "1:5000:100"]) == 0
    _, data = load_csv(tmp_path / "frf_combined.csv")
    assert data.shape == (100, 37)


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
    # Bytes that are not UTF-8, and an integer literal of more digits than
    # Python's int() takes from a string, are not valid JSON either.
    for payload in (b'{"alpha": "\xff"}',
                    b'{"alpha": 1' + b"0" * 5000 + b"}"):
        (tmp_path / "design_spec.json").write_bytes(payload)
        assert main(["design", "--config", str(path), "--mode", "lti"]) == 2
    # An alpha whose square overflows is refused when its lead is built.
    (tmp_path / "design_spec.json").write_text('{"alpha": 1e200}')
    assert main(["design", "--config", str(path), "--mode", "lti"]) == 2
    assert not (tmp_path / "out" / "controllers_lti.json").exists()


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
    """A run over the trace limit exits 2, and so does one whose sample
    count or exposure window overflows a float."""
    (tmp_path / "out").mkdir()
    shutil.copy(rigid_project.parent / "out" / "controllers_lti.json",
                tmp_path / "out")
    for sim_config in ({"duration_s": 1e12},
                       {"duration_s": 1e300, "sample_rate_hz": 1e10},
                       dict.fromkeys(("window_s", "sample_rate_hz",
                                      "duration_s"), 1e300)):
        path = _write_project(tmp_path, _rigid_plant(),
                              trajectory=TRAJECTORY_SPEC,
                              sim_config=sim_config)
        assert main(["simulate", "--config", str(path), "--mode",
                     "lti"]) == 2, sim_config


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


def test_lpv_design_with_first_order_surfaces_exits_0(tmp_path):
    """First-order zero-damping surfaces are fitted on the audit grid and
    shifted under the law there, so the scheduled design with them exits 0
    and writes a controller set of first-order surfaces."""
    path = _write_project(tmp_path, benchmark_plant(),
                          design_spec={"surface_order": 1})
    assert main(["design", "--config", str(path), "--mode", "lpv"]) == 0
    lpv = controllers_from_dict(
        load_json(tmp_path / "out" / "controllers_lpv.json"))
    notches = [n for loop in lpv.loops for n in loop.scheduled_part]
    assert lpv.kind == "lpv" and len(notches) == 7
    assert all(n.beta1.theta.shape == (1,) for n in notches)


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


def test_certify_refuses_a_grid_whose_report_is_over_the_size_limit(
        rigid_project, tmp_path, caplog, monkeypatch):
    """A position grid whose points and report, CERTIFY_POINT_BYTES a
    position, would exceed MAX_TRACE_BYTES exits 2 before grid_points
    runs, and writes no report; a grid at the limit is certified."""
    shutil.copy(rigid_project.parent / "out" / "controllers_lti.json",
                tmp_path)
    argv = ["certify", "--config", str(rigid_project), "--mode", "lti",
            "--out", str(tmp_path), "--grid"]

    def no_grid(*args):
        raise AssertionError("grid_points ran")

    with monkeypatch.context() as mp:
        mp.setattr(cli, "grid_points", no_grid)
        with caplog.at_level(logging.ERROR, logger="lpvslc.cli"):
            assert main(argv + ["100000x100000"]) == 2
        assert "GiB limit" in caplog.records[-1].getMessage()
        mp.setattr(cli, "MAX_TRACE_BYTES", 6 * cli.CERTIFY_POINT_BYTES)
        assert main(argv + ["7x1"]) == 2
        assert main(argv + ["2x4"]) == 2
    assert not (tmp_path / "certification_lti.json").exists()
    monkeypatch.setattr(cli, "MAX_TRACE_BYTES", 6 * cli.CERTIFY_POINT_BYTES)
    assert main(argv + ["2x3"]) == 0
    assert len(load_json(tmp_path / "certification_lti.json")["points"]) == 6


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
    positive, or with a lead or notch whose square overflows, exits 2 and
    writes no report; the same set with its own values certifies (exit
    0)."""
    stored = load_json(rigid_project.parent / "out" / "controllers_lti.json")
    big_lead, big_notch = json.loads(json.dumps([stored["loops"]] * 2))
    next(e for e in big_lead[0]["elements"]
         if e["type"] == "lead")["alpha"] = 1e160
    big_notch[0]["elements"].append({"type": "notch", "f1": 1e160,
                                     "f2": 1e160, "beta1": 0.1, "beta2": 0.3})
    path = _write_project(tmp_path, _rigid_plant())
    out = tmp_path / "out"
    out.mkdir()
    report = out / "certification_lpv.json"
    for change, code in (({}, 0), ({"sensitivity_bound_db": 0}, 2),
                         ({"sensitivity_bound_db": -3}, 2),
                         ({"achieved_bandwidth_hz": -5}, 2),
                         ({"loops": big_lead}, 2), ({"loops": big_notch}, 2)):
        report.unlink(missing_ok=True)
        (out / "controllers_lpv.json").write_text(
            json.dumps({**stored, **change}))
        assert main(["certify", "--config", str(path), "--mode", "lpv",
                     "--grid", "2x2"]) == code, change
        assert report.is_file() is (code == 0), change


@pytest.mark.parametrize("case", ["two loops", "t_u 2x3", "t_y 3x2"])
def test_certify_and_simulate_refuse_a_set_that_does_not_fit_the_plant(
        rigid_project, tmp_path, caplog, case):
    """A stored set with the wrong loop count or decoupling shapes for the
    three-axis plant exits 2 from certify, which writes no report, and
    from simulate."""
    stored = load_json(rigid_project.parent / "out" / "controllers_lti.json")
    misfit = {
        "two loops": {**stored, "loops": stored["loops"][:2],
                      "loop_order": [0, 1],
                      "t_u": [row[:2] for row in stored["t_u"]],
                      "t_y": stored["t_y"][:2]},
        "t_u 2x3": {**stored, "t_u": stored["t_u"][:2]},
        "t_y 3x2": {**stored, "t_y": [row[:2] for row in stored["t_y"]]},
    }[case]
    path = _write_project(tmp_path, _rigid_plant(),
                          trajectory=TRAJECTORY_SPEC,
                          sim_config={"duration_s": 0.05})
    out = tmp_path / "out"
    out.mkdir()
    (out / "controllers_lti.json").write_text(json.dumps(misfit))
    with caplog.at_level(logging.ERROR, logger="lpvslc.cli"):
        assert main(["certify", "--config", str(path), "--mode", "lti",
                     "--grid", "1x1"]) == 2
        assert main(["simulate", "--config", str(path), "--mode", "lti"]) == 2
    assert not (out / "certification_lti.json").exists()
    assert not (out / "run_lti.csv").exists()
    messages = [rec.message for rec in caplog.records]
    if case == "two loops":
        assert messages == ["controller set has 2 loops for a plant with "
                            "3 axes"] * 2
    else:
        assert all("the plant needs (3, 3)" in m for m in messages), messages


@pytest.mark.parametrize("rate", [1e300, 1e8])
def test_trajectory_refuses_a_table_over_the_size_limit(tmp_path, caplog,
                                                        rate):
    """A sample rate at which a profile's CSV table would exceed
    MAX_TRACE_BYTES exits 2 naming sample_rate_hz, before any file is
    written."""
    path = _write_project(tmp_path, _rigid_plant(), trajectory={
        **TRAJECTORY_SPEC, "scan_x_m": 0.1, "sample_rate_hz": rate})
    with caplog.at_level(logging.ERROR, logger="lpvslc.cli"):
        assert main(["trajectory", "--config", str(path)]) == 2
    assert any("sample_rate_hz" in rec.message and "GiB limit" in rec.message
               for rec in caplog.records)
    assert not any((tmp_path / "out").iterdir())


def test_planning_rate_too_coarse_for_the_snap_phase_exits_2(
        rigid_project, tmp_path, caplog):
    """A trajectory sample rate at which the snap phase rounds to no
    sample exits 2 naming sample_rate_hz, in trajectory and in simulate."""
    out = tmp_path / "out"
    out.mkdir()
    shutil.copy(rigid_project.parent / "out" / "controllers_lti.json", out)
    path = _write_project(tmp_path, _rigid_plant(), trajectory={
        **TRAJECTORY_SPEC, "sample_rate_hz": 1e-10},
        sim_config={"duration_s": 0.1})
    for argv in (["trajectory"], ["simulate", "--mode", "lti"]):
        caplog.clear()
        with caplog.at_level(logging.ERROR, logger="lpvslc.cli"):
            assert main(argv + ["--config", str(path)]) == 2, argv
        assert "sample_rate_hz" in caplog.records[-1].getMessage()
    assert [p.name for p in out.iterdir()] == ["controllers_lti.json"]


def test_main_runs_the_handler_named_at_call_time(tmp_path, monkeypatch):
    """main parses with one parser per process and looks cmd_<command> up
    when it runs, so a handler replaced between two calls is the one that
    runs; perfbench's CLI_SITES times the subcommands this way."""
    path = _write_project(tmp_path, _rigid_plant())
    argv = ["metrics", "--config", str(path)]
    assert main(argv) == 2          # no stored run summaries
    seen = []
    monkeypatch.setattr(cli, "cmd_metrics",
                        lambda args: seen.append(args.command) or 0)
    assert main(argv) == 0
    assert seen == ["metrics"]
    assert cli.build_parser() is cli.build_parser()


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


def test_metrics_over_different_exposure_windows_exits_2(rigid_project,
                                                         tmp_path, caplog):
    """Runs simulated with different window_s are not compared."""
    root = tmp_path / "proj"
    shutil.copytree(rigid_project.parent, root)
    project, out = root / rigid_project.name, root / "out"
    shutil.copy(out / "controllers_lti.json", out / "controllers_lpv.json")
    for name in ("comparison.json", "summary_lti.json", "summary_lpv.json"):
        (out / name).unlink(missing_ok=True)
    assert main(["simulate", "--config", str(project), "--mode", "lti"]) == 0
    (root / "sim_config.json").write_text(
        json.dumps({"duration_s": 0.6, "window_s": 0.004}))
    assert main(["simulate", "--config", str(project), "--mode", "lpv"]) == 0
    with caplog.at_level(logging.ERROR, logger="lpvslc.cli"):
        assert main(["metrics", "--config", str(project)]) == 2
    assert "different exposure windows: 0.005 and 0.004" in caplog.text
    assert not (out / "comparison.json").exists()


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


# Every loader of an input or stored file reads through one record reader,
# so each gets the same bad inputs.  A loader is (command, file, path of
# its record in the file, a field and its kind, a required field, whether
# unknown fields are refused).  Stored digests (design and run summaries,
# certification reports) are read only in the entries a command uses, so
# an unknown entry there is not an error.
_LOADERS = {
    "project": (["trajectory"], "project.json", [], "plant", "text",
                "output_dir", True),
    "trajectory": (["trajectory"], "trajectory.json", [], "scan_x_m",
                   "number", "start_xy", True),
    "bounds": (["trajectory"], "trajectory.json", ["bounds"], "v_max",
               "number", "s_max", True),
    "design_spec": (["design", "--mode", "lti"], "design.json", [],
                    "target_bandwidth_hz", "number", None, True),
    "sim_config": (["simulate", "--mode", "lti"], "sim.json", [],
                   "duration_s", "number", "duration_s", True),
    "fit": (["fit"], "fit.json", [], "order_x", "number", "points", True),
    "plant": (["frf", "--positions", "0.1,0.1"], "plant.json", [],
              "flex_sensing_gain", "number", "masses", True),
    "plant_mode": (["frf", "--positions", "0.1,0.1"], "plant.json",
                   ["modes", 3], "kx", "number", "ky", True),
    "workspace": (["frf", "--positions", "0.1,0.1"], "plant.json",
                  ["workspace"], "x", "number", "y", True),
    "controllers": (["certify", "--mode", "lpv", "--grid", "1x1"],
                    "out/controllers_lpv.json", [], "achieved_bandwidth_hz",
                    "number", "loops", True),
    "cascade": (["certify", "--mode", "lpv", "--grid", "1x1"],
                "out/controllers_lpv.json", ["loops", 0], "n_fixed",
                "number", "elements", True),
    **{f"filter_{kind}": (["certify", "--mode", "lpv", "--grid", "1x1"],
                          "out/controllers_lpv.json",
                          ["loops", 0, "elements", at], field, ftype,
                          required, True)
       for kind, at, field, ftype, required in (
           ("gain", 0, "k", "number", "k"),
           ("integrator", 1, "type", "text", "type"),
           ("lead", 2, "f_bw", "number", "alpha"),
           ("notch", 5, "f1", "number", "beta2"),
           ("lpv_notch", 6, "beta1", "number", "f2"))},
    "surface": (["certify", "--mode", "lpv", "--grid", "1x1"],
                "out/controllers_lpv.json", ["loops", 0, "elements", 6, "f1"],
                "order_x", "number", "theta", True),
    "design_summary": (["design", "--mode", "lpv"],
                       "out/design_summary_lti.json", [],
                       "achieved_bandwidth_hz", "number",
                       "achieved_bandwidth_hz", False),
    "certification": (["simulate", "--mode", "lti"],
                      "out/certification_lti.json", [], "passed", "boolean",
                      "passed", False),
    "run_summary": (["metrics"], "out/summary_lti.json", [], "ma_m",
                    "number", "msd_m", False),
    "run_interval": (["metrics"], "out/summary_lti.json", ["interval"],
                     "name", "text", "name", False),
}

# A boolean, a string, NaN and inf, with the one of them that a field of
# that kind takes replaced by another wrong kind, and for a number an
# integer beyond the float range.
_BAD_VALUES = {"number": {"boolean": True, "string": "1.5", "huge": 10 ** 400},
               "text": {"boolean": True, "number": 5},
               "boolean": {"number": 1, "string": "true"}}


def _bad_rows():
    rows = []
    for name, (_, _, path, field, ftype, required, strict) \
            in _LOADERS.items():
        values = {**_BAD_VALUES[ftype], "nan": float("nan"),
                  "inf": float("inf")}
        for tag, value in values.items():
            rows.append((f"{name}-{tag}", name, ("set", field, value), field))
        if strict:
            unknown = ("target_bandwidth" if name == "design_spec"
                       else "no_such_field")
            rows.append((f"{name}-unknown", name, ("set", unknown, 100),
                         unknown))
        if required is not None:
            rows.append((f"{name}-missing", name, ("drop", required),
                         required))
        label = next((k for k in reversed(path) if isinstance(k, str)), None)
        rows.append((f"{name}-non-object", name, ("replace", [1, 2]), label))
    # Inputs that loaded or failed with a traceback before every loader
    # read through the record reader.
    rows += [
        ("sim_config-field-list", "sim_config",
         ("replace", ["duration_s"]), None),
        ("surface-string-map", "surface", ("set", "x_map", ["0", "1"]),
         "x_map"),
        ("surface-boolean-map", "surface", ("set", "y_map", [True, 1]),
         "y_map"),
        ("plant_mode-kind", "plant_mode", ("set", "kind", "flexx"), "kind"),
    ]
    # Value checks that run after the record is read.
    rows += [
        ("fit-three-column-points", "fit",
         ("set", "points", [[0, 0, 0], [0.2, 0, 0], [0, 0.2, 0], [0.2, 0.2, 0]]),
         "points"),
        ("fit-zero-order", "fit", ("set", "order_x", 0), "orders"),
        ("design_spec-surface-order-over-audit-grid", "design_spec",
         ("set", "surface_order", 100000), "surface_order"),
        ("trajectory-loop-count", "trajectory",
         ("set", "loop_moves_m", [0.001, None, None, None]), "loop_moves_m"),
        ("filter_lead-overflowing-pole", "filter_lead",
         ("set", "f_bw", 1e308), "f_bw"),
    ]
    return rows


_BAD_ROWS = _bad_rows()


@pytest.fixture(scope="module")
def loader_project(rigid_project, tmp_path_factory):
    """A project whose every input and stored file loads, with a flexible
    plant mode and a stored cascade holding every filter type."""
    root = tmp_path_factory.mktemp("loaders")
    save_plant(_flex_plant(), root / "plant.json")
    files = {
        "project.json": {"plant": "plant.json", "design_spec": "design.json",
                         "trajectory": "trajectory.json",
                         "sim_config": "sim.json", "output_dir": "out"},
        "design.json": {"target_bandwidth_hz": 150.0},
        "trajectory.json": TRAJECTORY_SPEC,
        "sim.json": {"duration_s": 0.3},
        "fit.json": {"points": [[0, 0], [0.2, 0], [0, 0.2], [0.2, 0.2]],
                     "values": [1.0, 2.0, 3.0, 4.0], "order_x": 2,
                     "order_y": 2},
    }
    for name, payload in files.items():
        (root / name).write_text(json.dumps(payload))
    out = root / "out"
    out.mkdir()
    stored = rigid_project.parent / "out"
    for name in ("controllers_lti.json", "design_summary_lti.json",
                 "certification_lti.json"):
        shutil.copy(stored / name, out)
    controllers = load_json(stored / "controllers_lti.json")
    flat = CoefficientSurface(1, 1, [500.0])
    damping = CoefficientSurface(1, 1, [0.5])
    loop = controllers["loops"][0]
    loop["elements"] += [filter_to_dict(Notch(400.0, 400.0, 0.5, 0.5)),
                         filter_to_dict(LpvNotch(damping, damping, flat, flat))]
    loop["n_fixed"] += 1
    (out / "controllers_lpv.json").write_text(json.dumps(controllers))
    summary = {"kind": "lti", "interval": {"name": "constant velocity"},
               "ma_m": 2e-9, "msd_m": 1e-9, "config": {"window_s": 0.005}}
    for kind in ("lti", "lpv"):
        (out / f"summary_{kind}.json").write_text(
            json.dumps({**summary, "kind": kind}))
    return root


def test_loader_project_loads(loader_project, tmp_path):
    """The table's project is good: each command that reads it runs on a
    fresh copy of it (the design commands are left out for time)."""
    for k, argv in enumerate(sorted({tuple(a) for a, *_ in _LOADERS.values()
                                     if a[0] != "design"})):
        root = tmp_path / f"project{k}"
        shutil.copytree(loader_project, root)
        config = root / ("fit.json" if argv[0] == "fit" else "project.json")
        code = main(list(argv) + ["--config", str(config), "--out",
                                  str(root / "out")])
        assert code in (0, 1), argv


@pytest.mark.parametrize("row, loader, edit, field", _BAD_ROWS,
                         ids=[r[0] for r in _BAD_ROWS])
def test_every_loader_refuses_a_bad_record_naming_file_and_field(
        loader_project, tmp_path, caplog, row, loader, edit, field):
    """Each bad input exits 2, and the log names the file and the field
    (or, for a record that is not a JSON object, the record)."""
    argv, file_name, path, *_ = _LOADERS[loader]
    root = tmp_path / "project"
    shutil.copytree(loader_project, root)
    target = root / file_name
    data = json.loads(target.read_text())
    parent, key = None, None
    rec = data
    for step in path:
        parent, key, rec = rec, step, rec[step]
    if edit[0] == "replace":
        if parent is None:
            data = edit[1]
        else:
            parent[key] = edit[1]
    elif edit[0] == "set":
        rec[edit[1]] = edit[2]
    else:
        del rec[edit[1]]
    target.write_text(json.dumps(data))
    config = root / ("fit.json" if loader == "fit" else "project.json")
    caplog.clear()
    with caplog.at_level(logging.ERROR, logger="lpvslc.cli"):
        code = main(argv + ["--config", str(config), "--out",
                            str(root / "out")])
    assert code == 2, row
    message = caplog.records[-1].getMessage()
    assert Path(file_name).name in message, message
    if field is not None:
        assert field in message, message


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_input_files_load_through_the_loaders(tmp_path):
    """The project file, trajectory.json and fit input the README shows
    load through the command line's own loaders, so the documented
    schemas and the readers cannot drift apart."""
    text = README.read_text()
    project, trajectory = (json.loads(block) for block in
                           re.findall(r"```json\n(.*?)```", text, re.S))
    save_plant(benchmark_plant(), tmp_path / project["plant"])
    for name, payload in ((project["design_spec"], {}),
                          (project["sim_config"], {"duration_s": 2.0}),
                          (project["trajectory"], trajectory),
                          ("project.json", project)):
        (tmp_path / name).write_text(json.dumps(payload))
    assert main(["trajectory", "--config", str(tmp_path / "project.json")]) == 0
    summary = load_json(tmp_path / project["output_dir"]
                        / "trajectory_summary.json")
    assert summary["start_xy"] == trajectory["start_xy"]

    # The inline fit schema, its placeholders filled in: each documented
    # field is one the fit reads, and a required one.
    schema = re.search(r'`(\{"points":.*?\})`', text, re.S).group(1)
    documented = json.loads(re.sub(r"\.\.\.|\b[xymn]\b", "0", schema))
    good = {"points": [[0, 0], [0.2, 0], [0, 0.2], [0.2, 0.2]],
            "values": [1.0, 2.0, 3.0, 4.0], "order_x": 2, "order_y": 2}
    fit = {key: good[key] for key in documented}
    cfg = tmp_path / "fit.json"
    for drop in (None, *fit):
        cfg.write_text(json.dumps({k: v for k, v in fit.items() if k != drop}))
        assert main(["fit", "--config", str(cfg), "--out",
                     str(tmp_path / "fit")]) == (0 if drop is None else 2), drop
