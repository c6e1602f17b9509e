"""End-to-end command line runs on small problems."""

import json
import os
import time

import numpy as np
import pytest

from embedhom import estimators, runner
from embedhom.cli import main
from embedhom.config import parse_config
from embedhom.corrector import EmbeddedProblem
from embedhom.fields import rescale

HOMOGENEOUS = """\
name: homogeneous-check
dim: 2
bounds: {alpha: 1.0, beta: 4.0}
field:
  kind: constant
  matrix: 2.0
discretization: {L: 2.0, h: 0.25}
periodic: {divisions: 8}
"""


def write(tmp_path, text, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    header, *rows = path.read_text().strip().split("\n")
    return header.split(","), [r.split(",") for r in rows]


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


# `embedhom validate` output for HOMOGENEOUS, byte for byte: key order and
# number formatting are pinned along with the values
HOMOGENEOUS_RESOLVED = """\
{
  "name": "homogeneous-check",
  "dim": 2,
  "bounds": {
    "alpha": 1,
    "beta": 4
  },
  "field": {
    "kind": "constant",
    "matrix": 2
  },
  "method": [
    "naive",
    "energy_min",
    "averaged",
    "self_consistent",
    "self_consistent_scalar",
    "periodic_ref"
  ],
  "rescale": 1,
  "naive_exterior": null,
  "discretization": {
    "L": 2,
    "h": 0.25,
    "quad_order": 2,
    "cg_tol": 1e-10,
    "cg_max_iter": null,
    "solver": "auto",
    "max_vertices": 4000000
  },
  "periodic": {
    "divisions": 8
  },
  "optimizer": {
    "max_iters": 200,
    "grad_tol": 9.9999999999999995e-07,
    "initial_step": 0.5,
    "backtrack": 0.5,
    "sufficient_increase": 0.0001,
    "fd_check": false
  },
  "fixed_point": {
    "damping": 0.5,
    "max_iters": 100,
    "tol": 1e-08
  },
  "bisect": {
    "tol": 9.9999999999999995e-07,
    "max_iters": 60,
    "bracket_tol": 0.001
  },
  "sweep": null,
  "output": {
    "dir": "out",
    "csv": "results.csv"
  }
}
"""


def test_validate_prints_resolved_tree(tmp_path, capsys):
    path = write(tmp_path, HOMOGENEOUS)
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert '"name": "homogeneous-check"' in out
    assert '"h": 0.25' in out
    assert '"grad_tol": 9.9999999999999995e-07' in out   # full 17-digit floats
    assert f"ok: {path} (hash " in out
    assert out == HOMOGENEOUS_RESOLVED + f"ok: {path} (hash 5ff08e9dbe4a71d4)\n"


def test_validate_rejects_small_box(tmp_path, capsys):
    path = write(tmp_path, HOMOGENEOUS.replace("L: 2.0", "L: 1.0"))
    assert main(["validate", path]) == 2
    err = capsys.readouterr().err
    assert "embedhom: config error" in err
    assert "unit ball must be strictly interior" in err


def test_validate_rejects_inverted_bounds(tmp_path, capsys):
    path = write(tmp_path,
                 HOMOGENEOUS.replace("alpha: 1.0", "alpha: 9.0"))
    assert main(["validate", path]) == 2
    assert "alpha" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.yaml")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "embedhom" in capsys.readouterr().out


def test_jobs_must_be_positive(tmp_path, capsys):
    path = write(tmp_path, HOMOGENEOUS)
    assert main(["run", path, "--jobs", "0"]) == 2
    assert "--jobs" in capsys.readouterr().err


def test_run_rejects_unusable_output_paths(tmp_path, capsys):
    # each ends before any solve, with exit 2 and no traceback
    path = write(tmp_path, HOMOGENEOUS)
    out_dir = str(tmp_path / "out")
    for csv in ("''", "sub/x.csv"):
        assert main(["run", path, "--out-dir", out_dir,
                     "--override", f"output.csv={csv}"]) == 2
        err = capsys.readouterr().err
        assert "embedhom: config error: output.csv" in err
        assert "must be a file name" in err
    a_file = tmp_path / "taken"
    a_file.write_text("")
    assert main(["run", path, "--out-dir", str(a_file)]) == 2
    assert "embedhom: cannot write outputs: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# run: homogeneous field, every estimator recovers the field matrix
# ---------------------------------------------------------------------------


def test_run_homogeneous_all_methods(tmp_path, capsys):
    path = write(tmp_path, HOMOGENEOUS)
    out_dir = tmp_path / "out"
    code = main(["run", path, "--out-dir", str(out_dir),
                 "--override", "bisect.tol=1e-9"])
    assert code == 0
    header, rows = read_csv(out_dir / "results.csv")
    assert header == ["sweep_value", "method", "a_00", "a_01", "a_10", "a_11",
                      "objective_or_residual", "wall_ms"]
    assert [r[1] for r in rows] == ["naive", "energy_min", "averaged",
                                    "self_consistent", "self_consistent_scalar",
                                    "periodic_ref"]
    for row in rows:
        matrix = np.array([float(v) for v in row[2:6]]).reshape(2, 2)
        assert np.allclose(matrix, 2.0 * np.eye(2), atol=1e-8), row[1]

    report = json.loads((out_dir / "energy_min.json").read_text())
    assert report["schema"] == "embedhom-report-v1"
    assert report["name"] == "homogeneous-check"
    assert report["method"] == "energy_min"
    assert report["error"] is None
    assert report["report"]["converged"] is True
    assert len(report["config_hash"]) == 16
    assert report["field"]["kind"] == "constant"


# ---------------------------------------------------------------------------
# run: sweeps
# ---------------------------------------------------------------------------

CHECKER_SWEEP = """\
name: r-sweep
dim: 2
bounds: {alpha: 1.0, beta: 4.0}
field:
  kind: checkerboard
  values: [1.0, 4.0]
  probabilities: [0.5, 0.5]
  seed: 3
method: [naive, periodic_ref]
discretization: {L: 2.0, h: 0.25}
periodic: {divisions: 8}
sweep:
  parameter: R
  values: [2, 4, 8, 16]
"""


def test_run_r_sweep_rows_and_files(tmp_path):
    path = write(tmp_path, CHECKER_SWEEP)
    out_dir = tmp_path / "sweep_out"
    assert main(["run", path, "--out-dir", str(out_dir)]) == 0
    header, rows = read_csv(out_dir / "results.csv")
    assert len(rows) == 8                       # 4 sweep values x 2 methods
    assert [r[0] for r in rows[:2]] == ["2", "2"]
    assert {f.name for f in out_dir.glob("*.json")} == {
        f"R_{v}_{m}.json" for v in (2, 4, 8, 16)
        for m in ("naive", "periodic_ref")
    }
    report = json.loads((out_dir / "R_4_periodic_ref.json").read_text())
    assert report["sweep"] == {"parameter": "R", "value": 4}
    assert report["rescale"] == 4.0


def test_run_determinism_modulo_wall_time(tmp_path):
    path = write(tmp_path, CHECKER_SWEEP)
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        assert main(["run", path, "--out-dir", str(d)]) == 0
    csvs = []
    for d in dirs:
        _, rows = read_csv(d / "results.csv")
        csvs.append([r[:-1] for r in rows])     # all but wall_ms
    assert csvs[0] == csvs[1]
    for name in ("R_2_naive.json", "R_16_periodic_ref.json"):
        payloads = []
        for d in dirs:
            payload = json.loads((d / name).read_text())
            payload["report"].pop("wall_ms")
            payloads.append(payload)
        assert payloads[0] == payloads[1]


def test_run_parallel_matches_serial(tmp_path):
    path = write(tmp_path, CHECKER_SWEEP)
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert main(["run", path, "--out-dir", str(serial)]) == 0
    assert main(["run", path, "--out-dir", str(parallel), "--jobs", "4"]) == 0
    _, rows_s = read_csv(serial / "results.csv")
    _, rows_p = read_csv(parallel / "results.csv")
    assert [r[:-1] for r in rows_s] == [r[:-1] for r in rows_p]


def test_run_1d_h_sweep_error_decreases(tmp_path):
    # values 1 and 4 occupy equal measure inside the ball, so the exact
    # answer is the harmonic mean 1.6.  The interfaces are unaligned with
    # every mesh in the sweep (and sit away from the Gauss points of the
    # cut elements), making the consistency error a genuine O(h): the
    # measured errors halve, 6.0e-2 -> 2.9e-2 -> 1.5e-2.
    text = """\
name: h-sweep
dim: 1
bounds: {alpha: 1.0, beta: 4.0}
field:
  kind: one_dim_piecewise
  breakpoints: [-0.307, 0.027, 0.334]
  values: [1.0, 4.0, 1.0, 4.0]
method: energy_min
discretization: {L: 4.0}
optimizer: {grad_tol: 1e-8}
sweep:
  parameter: h
  values: [0.1, 0.05, 0.025]
"""
    path = write(tmp_path, text)
    out_dir = tmp_path / "hsweep"
    assert main(["run", path, "--out-dir", str(out_dir)]) == 0
    _, rows = read_csv(out_dir / "results.csv")
    errors = [abs(float(r[2]) - 1.6) for r in rows]
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 0.02


def test_run_partial_failure_keeps_going(tmp_path, capsys):
    # the second sweep point's mesh is over the vertex cap, which only mesh
    # building sees: its naive row turns into NaN and the exit code flips to
    # 3, but its periodic_ref row (no mesh) and the first point still write
    # real numbers
    text = CHECKER_SWEEP.replace(
        "discretization: {L: 2.0, h: 0.25}",
        "discretization: {L: 2.0, h: 0.25, max_vertices: 500}").replace(
        "  parameter: R\n  values: [2, 4, 8, 16]",
        "  parameter: h\n  values: [0.5, 0.1]")
    path = write(tmp_path, text)
    out_dir = tmp_path / "partial"
    assert main(["validate", path]) == 0
    assert main(["run", path, "--out-dir", str(out_dir)]) == 3
    _, rows = read_csv(out_dir / "results.csv")
    assert len(rows) == 4
    good = [r for r in rows if r[0].startswith("0.5")]
    bad = [r for r in rows if r[0].startswith("0.1")]
    assert [r[1] for r in bad] == ["naive", "periodic_ref"]
    assert all(r[2] != "NaN" for r in good + bad[1:])
    assert bad[0][2] == "NaN"
    report = json.loads((out_dir / "h_0.1_naive.json").read_text())
    assert "vertices" in report["error"]
    assert report["report"] is None


_real_run_point = runner.run_point


def _run_point_or_die(cfg, sweep_value):
    """run_point stand-in whose worker is killed at R = 16."""
    if sweep_value == 16:
        time.sleep(2.0)      # let the other worker hand back its point first
        os._exit(1)
    return _real_run_point(cfg, sweep_value)


def test_run_crashed_worker_keeps_finished_points(tmp_path, monkeypatch):
    # a worker that dies breaks the pool: the lost point gets an error
    # report per method, finished points keep theirs, and the exit code is 3
    monkeypatch.setattr(runner, "run_point", _run_point_or_die)
    text = CHECKER_SWEEP.replace("values: [2, 4, 8, 16]", "values: [2, 16]")
    path = write(tmp_path, text)
    out_dir = tmp_path / "crashed"
    assert main(["run", path, "--out-dir", str(out_dir), "--jobs", "2"]) == 3
    _, rows = read_csv(out_dir / "results.csv")
    assert [r[0] for r in rows] == ["2", "2", "16", "16"]
    assert all(r[2] != "NaN" for r in rows[:2])
    assert all(r[2] == "NaN" for r in rows[2:])
    for method in ("naive", "periodic_ref"):
        good = json.loads((out_dir / f"R_2_{method}.json").read_text())
        assert good["error"] is None and good["report"] is not None
        lost = json.loads((out_dir / f"R_16_{method}.json").read_text())
        assert lost["error"].startswith("WorkerCrashed: ")
        assert lost["report"] is None


# ---------------------------------------------------------------------------
# run_point: the method table
# ---------------------------------------------------------------------------

# every option below differs from its default
OPTIONS_POINT = """\
name: options-point
dim: 2
bounds: {alpha: 1.0, beta: 4.0}
field: {kind: checkerboard, values: [1.0, 4.0], probabilities: [0.5, 0.5],
        seed: 2}
rescale: 3.0
method: METHODS
naive_exterior: [[2.0, 0.3], [0.3, 1.5]]
discretization: {L: 2.0, h: 0.2}
periodic: {divisions: 16}
optimizer: {grad_tol: 1e-3, max_iters: 4}
fixed_point: {damping: 0.7}
bisect: {tol: 1e-4}
"""


def _point_reports(methods):
    cfg = parse_config(OPTIONS_POINT.replace("METHODS", methods))
    return cfg, {r["method"]: r["report"] for r in runner.run_point(cfg, None)}


def test_run_point_passes_config_options():
    cfg, reports = _point_reports("all")
    base = cfg.build_field()
    field = rescale(base, cfg.rescale)

    def fresh():
        return EmbeddedProblem(field, cfg.disc)

    direct = {
        "naive": estimators.estimate_naive(
            problem=fresh(), exterior=np.array([[2.0, 0.3], [0.3, 1.5]])),
        "energy_min": estimators.estimate_energy_min(
            problem=fresh(), options=cfg.optimizer),
        "averaged": estimators.estimate_averaged(
            problem=fresh(), options=cfg.optimizer),
        "self_consistent": estimators.estimate_self_consistent(
            problem=fresh(), options=cfg.fixed_point),
        "self_consistent_scalar": estimators.estimate_self_consistent_scalar(
            problem=fresh(), options=cfg.bisect),
        "periodic_ref": estimators.estimate_periodic_ref(
            base, r=cfg.rescale, divisions=16),
    }
    assert list(reports) == list(direct)
    for method, report in reports.items():
        assert np.array_equal(report["matrix"], direct[method].matrix), method
    meta = {m: r["metadata"] for m, r in reports.items()}
    assert meta["naive"]["exterior"] == [[2.0, 0.3], [0.3, 1.5]]
    assert meta["energy_min"]["optimizer"] == {"grad_tol": 1e-3, "max_iters": 4}
    assert reports["energy_min"]["iterations"] == 4     # max_iters ends it
    assert meta["self_consistent"]["fixed_point"]["damping"] == 0.7
    assert meta["self_consistent_scalar"]["bisection"]["tol"] == 1e-4
    assert meta["periodic_ref"]["divisions"] == 16


def test_averaged_before_energy_min_shares_one_ascent(monkeypatch):
    calls = []
    ascent = estimators.maximize_trace

    def counted(*args, **kwargs):
        calls.append(1)
        return ascent(*args, **kwargs)

    monkeypatch.setattr(estimators, "maximize_trace", counted)
    _, swapped = _point_reports("[averaged, energy_min]")
    assert len(calls) == 1
    _, ordered = _point_reports("[energy_min, averaged]")
    for method in ("energy_min", "averaged"):
        swapped[method].pop("wall_ms")
        ordered[method].pop("wall_ms")
        assert swapped[method] == ordered[method], method
    calls.clear()
    _, alone = _point_reports("[averaged]")    # alone, it runs its own ascent
    assert len(calls) == 1
    alone["averaged"].pop("wall_ms")
    assert alone["averaged"] == ordered["averaged"]


# ---------------------------------------------------------------------------
# logging environment variable
# ---------------------------------------------------------------------------


def test_bad_log_level_warns(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("EMBEDHOM_LOG", "chatty")
    path = write(tmp_path, HOMOGENEOUS)
    assert main(["validate", path]) == 0
    assert "ignoring EMBEDHOM_LOG" in capsys.readouterr().err


def test_good_log_level_accepted(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("EMBEDHOM_LOG", "debug")
    path = write(tmp_path, HOMOGENEOUS)
    assert main(["validate", path]) == 0
    assert "ignoring" not in capsys.readouterr().err
