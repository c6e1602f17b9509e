"""One round of one workload, in a fresh process; run.py starts it.

    python3 perfbench/worker.py --workload NAME --rundir DIR --t0 T --src SRC
                                [--spans FILE]

T is the CLOCK_MONOTONIC reading taken by the parent just before it started
this process, so the figures include interpreter start and package import.
The round's figures and check results are written to DIR/result.json. With
--spans the round is traced and its spans are written to FILE.
"""

import argparse
import json
import resource
import sys
from pathlib import Path

import tracing


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--rundir", required=True, type=Path)
    parser.add_argument("--t0", required=True, type=float)
    parser.add_argument("--src", required=True, type=Path)
    parser.add_argument("--spans", type=Path, default=None,
                        help="trace the round and write its spans here (JSON)")
    args = parser.parse_args()

    t_import = tracing.now()
    import embedhom
    import embedhom.cli  # noqa: F401  (loads config and runner, as the CLI does)
    import_s = tracing.now() - t_import
    if Path(embedhom.__file__).resolve().parent.parent != args.src.resolve():
        sys.exit(f"worker: embedhom imported from {embedhom.__file__}, "
                 f"not from {args.src}")

    import workloads
    workload = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer()
    # untraced rounds time only the EmbeddedProblem constructor (set-up)
    tracing.install(tracer, only=None if args.spans else {"corrector.EmbeddedProblem"})

    outcome = workload.run(args.rundir)
    t_end = tracing.now()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer.enabled = False

    failures = workload.check(workload.evidence(args.rundir, outcome))
    result = {
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "failures": failures,
        "wall_s": t_end - args.t0,
        "setup_s": tracing.setup_seconds(tracer, args.t0, t_end),
        "peak_rss_mb": peak_rss_mb,
    }
    if args.spans:
        layers = tracing.layer_metrics(tracer, import_s)
        failures += tracing.cross_check(tracer, layers)
        result["layers"] = layers
        args.spans.parent.mkdir(parents=True, exist_ok=True)
        args.spans.write_text(json.dumps(tracing.dump_spans(tracer, args.t0)))
    (args.rundir / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main()
