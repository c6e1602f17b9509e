"""embedhom benchmark: run one workload and print its figures as JSON.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                             [--field-seed N]

Run from the repository root; the package is imported from ./src. NAME is
rconv_point, fixed_points, far_field_oracle, or `all` for the three in turn.
Each round of the workload runs in a fresh worker process; rounds repeat
until --seconds have passed (at least one). With --trace 0 the last line of
standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with wall_s (the fastest round), peak_rss_mb (the largest) and
setup_s (the first, cold round). With --trace 1 one untraced and one traced
round run, and the metrics are the per-layer figures of the traced one, plus
trace.overhead_s; its spans are written to perfbench/out/traces/. The exit
code is 1 when a correctness check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

BUDGET_S = 170.0    # every run ends well inside 180 s
THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def run_round(name, rundir, src, spans, timeout):
    """One fresh worker process; traced when `spans` names a file for them."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.update({var: "1" for var in THREADS})
    t0 = tracing.now()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--rundir", str(rundir), "--t0", repr(t0), "--src", str(src)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    # the worker's own output goes to stderr: stdout carries only the result
    with subprocess.Popen(cmd, env=env, stdout=sys.stderr) as proc:
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"{name}: round exceeded {timeout:.0f} s")
    if code != 0:
        raise RuntimeError(f"{name}: worker exited with code {code}")
    return json.loads((rundir / "result.json").read_text())


def run_workload(name, seed, field_seed, seconds, trace, src):
    workload = workloads.WORKLOADS[name]
    if field_seed is None:
        field_seed = seed if workload.seeded and seed is not None \
            else workload.default_seed
    tag = name if field_seed is None else f"{name}-{field_seed}"
    outdir = HERE / "out" / f"{tag}-{os.getpid()}"
    start = tracing.now()
    rounds = []
    try:
        for k in range(2 if trace else 10_000):
            elapsed = tracing.now() - start
            if rounds and not trace and (
                    elapsed >= seconds
                    or elapsed + max(r["wall_s"] for r in rounds) > BUDGET_S):
                break
            rundir = outdir / f"round{k}"
            rundir.mkdir(parents=True)
            workload.prepare(field_seed, rundir)
            spans = HERE / "out" / "traces" / f"{tag}.json" \
                if trace and k == 1 else None
            rounds.append(run_round(name, rundir, src, spans,
                                    timeout=BUDGET_S - elapsed))
            print(f"{tag} round {k}: wall_s {rounds[-1]['wall_s']:.3f}",
                  file=sys.stderr)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    failures = [f for r in rounds for f in r["failures"]]
    for f in failures:
        print(f"{name}: check failed: {f}", file=sys.stderr)
    if trace:
        layers = rounds[1]["layers"]
        layers["trace.overhead_s"] = rounds[1]["wall_s"] - rounds[0]["wall_s"]
        metrics = {k: {"value": v, "unit": "s" if k.endswith("_s") else "count"}
                   for k, v in layers.items()}
    else:
        values = {
            # a busy host only ever slows a round down: the fastest is the
            # time the workload takes
            "wall_s": min(r["wall_s"] for r in rounds),
            "setup_s": rounds[0]["setup_s"],
            # the same inputs peak at different heights from round to round;
            # the largest is the memory the workload needs
            "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    return {"correct": not failures,
            "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds),
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed: the field seed of fixed_points "
                             "(default 5); rconv_point and far_field_oracle "
                             "have fixed inputs")
    parser.add_argument("--field-seed", type=int, default=None,
                        help="field seed of either CLI workload, overriding "
                             "--seed and the defaults (11 and 5)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "embedhom" / "__init__.py").is_file():
        print(f"perfbench: no package at {src / 'embedhom'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        try:
            result = run_workload(name, args.seed, args.field_seed, args.seconds,
                                  args.trace, src)
        except RuntimeError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        ok = ok and result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
