"""Experiment execution: sweep expansion, reports, and the aggregate CSV.

Each (sweep value, method) pair is one task. Tasks at the same sweep point
share a single assembled problem, sweep points run concurrently under
--jobs, and all files are written from the parent process in sweep order so
reruns of the same config are byte-identical (wall-clock columns aside).
"""

import json
import logging
import math
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .corrector import EmbeddedProblem
from .estimators import (estimate_averaged, estimate_energy_min,
                         estimate_naive, estimate_periodic_ref,
                         estimate_self_consistent,
                         estimate_self_consistent_scalar)
from .fields import rescale
from .matrices import as_spd

log = logging.getLogger(__name__)

REPORT_SCHEMA = "embedhom-report-v1"


def _format_float(x):
    """Decimal form with full round-trip fidelity (17 significant digits)."""
    x = float(x)
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def dump_json(obj, indent=0):
    """Serialize with _format_float applied to every float (stable output)."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}{json.dumps(str(k))}: {dump_json(v, indent + 2)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{dump_json(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(obj)
    return json.dumps(str(obj))


@dataclass
class _Point:
    """What the methods at one sweep point share: the embedded problem, built
    on first use (a periodic_ref-only config builds no mesh), and the
    energy_min report, computed at most once."""

    cfg: object
    base_field: object
    embedded_field: object
    disc: object
    r_total: float
    seed: object

    @cached_property
    def problem(self):
        return EmbeddedProblem(self.embedded_field, self.disc)

    @cached_property
    def energy_min(self):
        return estimate_energy_min(problem=self.problem,
                                   options=self.cfg.optimizer)


def _point_inputs(cfg, sweep_value):
    """The _Point of one sweep value: its fields, disc, total R and seed."""
    seed = None
    disc = cfg.disc
    r_total = cfg.rescale
    if cfg.sweep is not None and sweep_value is not None:
        parameter = cfg.sweep.parameter
        if parameter == "seed":
            seed = int(sweep_value)
        elif parameter == "R":
            r_total = cfg.rescale * float(sweep_value)
        elif parameter == "L":
            disc = replace(disc, L=float(sweep_value))
        elif parameter == "h":
            disc = replace(disc, h=float(sweep_value))
    base_field = cfg.build_field(seed=seed)
    embedded_field = rescale(base_field, r_total) if r_total != 1.0 else base_field
    return _Point(cfg, base_field, embedded_field, disc, r_total, seed)


# Method name -> its estimate at one sweep point, in the order `method: all`
# runs them. Each entry calls its estimate_* through this module's globals
# when it runs, so a wrapper later bound to that name sees the call.
_METHODS = {
    "naive": lambda cfg, pt: estimate_naive(
        problem=pt.problem, exterior=None if cfg.naive_exterior is None
        else as_spd(cfg.naive_exterior, cfg.dim)),
    "energy_min": lambda cfg, pt: pt.energy_min,
    # averaged shares energy_min's ascent when both run, else runs its own
    "averaged": lambda cfg, pt: estimate_averaged(
        problem=pt.problem, options=cfg.optimizer,
        anchor=pt.energy_min if "energy_min" in cfg.methods else None),
    "self_consistent": lambda cfg, pt: estimate_self_consistent(
        problem=pt.problem, options=cfg.fixed_point),
    "self_consistent_scalar": lambda cfg, pt: estimate_self_consistent_scalar(
        problem=pt.problem, options=cfg.bisect),
    "periodic_ref": lambda cfg, pt: estimate_periodic_ref(
        pt.base_field, r=pt.r_total, divisions=cfg.periodic_divisions),
}
METHODS = tuple(_METHODS)


def run_point(cfg, sweep_value):
    """Run every configured method at one sweep point.

    Never raises: failures are recorded per task so the remaining methods
    and sweep points still produce reports. Returns a list of dicts
    {method, report|None, error|None, field} in config method order.
    """
    try:
        point = _point_inputs(cfg, sweep_value)
    except Exception as exc:   # field construction failed for this point
        return _failed_point(cfg, f"{type(exc).__name__}: {exc}")

    results = []
    for method in cfg.methods:
        result = {"method": method, "report": None, "error": None,
                  "field": point.base_field.describe(), "seed": point.seed,
                  "rescale": point.r_total}
        try:
            result["report"] = _METHODS[method](cfg, point).to_dict()
        except Exception as exc:
            log.error("method %s failed at sweep value %r: %s",
                      method, sweep_value, exc)
            result["error"] = f"{type(exc).__name__}: {exc}"
        results.append(result)
    return results


def _point_result(cfg, sweep_value, future):
    """run_point's results from a worker, or one error per method if it died.

    A worker killed from outside (e.g. by the OS when memory runs out)
    breaks the pool, and every point not finished by then fails with it;
    the finished points keep their results.
    """
    try:
        return future.result()
    except BrokenProcessPool as exc:
        err = f"WorkerCrashed: {exc}"
        log.error("sweep value %r lost: %s", sweep_value, err)
        return _failed_point(cfg, err)


def _failed_point(cfg, err):
    """One error result per configured method, for a point that never ran."""
    return [{"method": m, "report": None, "error": err, "field": None,
             "seed": None, "rescale": None} for m in cfg.methods]


def _report_filename(cfg, sweep_value, method):
    if cfg.sweep is None:
        return f"{method}.json"
    return f"{cfg.sweep.parameter}_{sweep_value}_{method}.json"


def _csv_header(dim):
    cols = ["sweep_value", "method"]
    cols += [f"a_{i}{j}" for i in range(dim) for j in range(dim)]
    cols += ["objective_or_residual", "wall_ms"]
    return cols


def _csv_row(cfg, sweep_value, result):
    sweep_col = "" if sweep_value is None else (
        str(sweep_value) if isinstance(sweep_value, int)
        else _format_float(sweep_value))
    report = result["report"]
    d = cfg.dim
    if report is None:
        entries = ["NaN"] * (d * d)
        score = "NaN"
        wall = "0.000"
    else:
        flat = np.asarray(report["matrix"], dtype=float).reshape(-1)
        entries = [_format_float(v) for v in flat]
        if report["objective"] is not None:
            score = _format_float(report["objective"])
        elif report["residual"] is not None:
            score = _format_float(report["residual"])
        else:
            score = ""
        wall = format(report["wall_ms"], ".3f")
    return [sweep_col, result["method"], *entries, score, wall]


def run_experiment(cfg, jobs=1, out_dir=None):
    """Execute a validated config; returns a process exit code (0 or 3)."""
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    sweep_values = cfg.sweep.values if cfg.sweep is not None else [None]
    start = time.perf_counter()
    if jobs > 1 and len(sweep_values) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(sweep_values))) as pool:
            futures = [pool.submit(run_point, cfg, v) for v in sweep_values]
            point_results = [_point_result(cfg, v, f)
                             for v, f in zip(sweep_values, futures)]
    else:
        point_results = [run_point(cfg, v) for v in sweep_values]

    config_hash = cfg.config_hash()
    rows = []
    n_failed = 0
    for sweep_value, results in zip(sweep_values, point_results):
        for result in results:
            payload = {
                "schema": REPORT_SCHEMA,
                "name": cfg.name,
                "version": _package_version(),
                "config_hash": config_hash,
                "sweep": None if cfg.sweep is None else
                    {"parameter": cfg.sweep.parameter, "value": sweep_value},
                "seed": result["seed"],
                "rescale": result["rescale"],
                "field": result["field"],
                "method": result["method"],
                "error": result["error"],
                "report": result["report"],
            }
            path = out / _report_filename(cfg, sweep_value, result["method"])
            path.write_text(dump_json(payload) + "\n", encoding="utf-8")
            rows.append(_csv_row(cfg, sweep_value, result))
            if result["error"] is not None:
                n_failed += 1

    csv_path = out / cfg.csv_name
    lines = [",".join(_csv_header(cfg.dim))]
    lines += [",".join(row) for row in rows]
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    log.info("wrote %d reports and %s in %.1f s (%d failed)",
             len(rows), csv_path, time.perf_counter() - start, n_failed)
    return 3 if n_failed else 0


def _package_version():
    from . import __version__
    return __version__
