"""Command-line front end: `embedhom run|validate <config>`.

Exit codes: 0 success, 2 config error (unreadable file, schema violation,
bad override) or an output directory that cannot be made, 3 solver failure
during a run (partial reports are kept).
Logging verbosity comes from EMBEDHOM_LOG in {error, warn, info, debug}.
"""

import argparse
import logging
import os
import sys
from pathlib import Path

from . import __version__
from .config import load_config
from .errors import ConfigError
from .runner import dump_json, run_experiment

log = logging.getLogger(__name__)

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging():
    raw = os.environ.get("EMBEDHOM_LOG", "warn").strip().lower()
    level = _LOG_LEVELS.get(raw)
    if level is None:
        level = logging.WARNING
        print(f"embedhom: ignoring EMBEDHOM_LOG={raw!r} "
              f"(expected one of {sorted(_LOG_LEVELS)})", file=sys.stderr)
    logging.basicConfig(
        level=level, format="%(levelname)s %(name)s: %(message)s")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="embedhom",
        description="Approximate homogenized matrices from embedded "
                    "corrector problems.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the experiment in a config file")
    run_p.add_argument("config", help="path to the YAML config")
    run_p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="sweep points to run concurrently (default 1)")
    run_p.add_argument("--out-dir", default=None, metavar="PATH",
                       help="override the config's output directory")
    run_p.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="patch a config key (dotted path), repeatable")

    val_p = sub.add_parser("validate",
                           help="check a config and print resolved defaults")
    val_p.add_argument("config", help="path to the YAML config")
    val_p.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="patch a config key (dotted path), repeatable")
    return parser


def main(argv=None):
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, apply_overrides=args.override)
    except OSError as exc:
        print(f"embedhom: cannot read config: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"embedhom: config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print(dump_json(cfg.resolved()))
        print(f"ok: {args.config} (hash {cfg.config_hash()})")
        return 0

    if args.jobs < 1:
        print("embedhom: --jobs must be >= 1", file=sys.stderr)
        return 2
    out_dir = Path(args.out_dir if args.out_dir is not None else cfg.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)   # before any solve
    except OSError as exc:
        print(f"embedhom: cannot write outputs: {exc}", file=sys.stderr)
        return 2
    return run_experiment(cfg, jobs=args.jobs, out_dir=out_dir)


if __name__ == "__main__":
    sys.exit(main())
