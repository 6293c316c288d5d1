"""Command-line front end: run, validate, list-experiments.

Exit codes: 0 success, 2 config error, 3 numeric/runtime error (also an output
directory that cannot be created, checked before running), 4 assertion failure.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, ErgonilError
from .harness import list_experiments, load_config, run_experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_ASSERTION = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergonil",
        description="Config-driven experiments for weighted recurrence averages",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment config")
    run.add_argument("--config", required=True, help="path to a JSON experiment config")
    run.add_argument("--out", default="ergonil-out",
                     help="output directory (default: ./ergonil-out)")
    run.add_argument("--workers", type=int, default=1,
                     help="worker threads for independent sample points (at least 1)")

    val = sub.add_parser("validate", help="parse and validate a config, run nothing")
    val.add_argument("--config", required=True)

    sub.add_parser("list-experiments", help="print the experiment names")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "workers", 1) < 1:
        parser.error(f"argument --workers: must be at least 1, got {args.workers}")  # exit 2
    try:
        if args.command == "list-experiments":
            for name in list_experiments():
                print(name)
            return EXIT_OK
        cfg = load_config(args.config)
        for key in cfg.ignored_keys:  # a misspelled key would otherwise run on its default
            print(f"warning: {key}: ignored, {cfg.experiment} does not read it", file=sys.stderr)
        if args.command == "validate":
            print(f"ok: {cfg.id} ({cfg.experiment})")
            return EXIT_OK
        report = run_experiment(cfg, out_dir=args.out, workers=args.workers)
        for v in report.verdicts:
            status = "PASS" if v["passed"] else "FAIL"
            print(f"[{status}] {v['assertion']} :: {v['detail']}")
        print(f"wrote {report.csv_path} ({len(report.rows)} rows)")
        return EXIT_OK if report.all_passed else EXIT_ASSERTION
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ErgonilError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, ArithmeticError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
