"""Command line entry point: run/validate/list experiments.

Exit codes: 0 all requested checks passed, 1 at least one check failed,
2 config or runtime error.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigValidationError, QbsdeError
from .experiments import bundled_configs, canonical_json, load_config, run_experiment


def _load(path: str):
    """The validated config, or None after printing why it cannot be loaded."""
    try:
        return load_config(path)
    except ConfigValidationError as exc:
        print("invalid config:", file=sys.stderr)
        for where, msg in exc.errors:
            print(f"  {where}: {msg}", file=sys.stderr)
    except (OSError, UnicodeDecodeError) as exc:
        # a missing, unreadable or non-UTF-8 file is an input error (exit 2)
        print(f"cannot read config {path!r}: {exc}", file=sys.stderr)
    return None


def _cmd_run(args) -> int:
    config = _load(args.config)
    if config is None:
        return 2
    try:
        report = run_experiment(config, out_dir=args.out, n_paths=args.paths, seed=args.seed)
    except QbsdeError as exc:
        print(f"experiment failed: {exc}", file=sys.stderr)
        return 2
    print(f"experiment {report.name}  (config {report.config_hash})")
    print(f"  Y0 = {report.y0:.6g} +- {report.y0_se:.2g}")
    for check in report.checks:
        flag = "pass" if check.passed else "FAIL"
        print(f"  [{flag}] {check.name:28s} margin {check.margin:+.4g}  tol {check.tol:g}  se {check.se:.3g}")
    print("all checks passed" if report.all_passed else "SOME CHECKS FAILED")
    if args.out:
        print(f"wrote report to {args.out}")
    return 0 if report.all_passed else 1


def _cmd_validate(args) -> int:
    config = _load(args.config)
    if config is None:
        return 2
    print(f"config {config.name!r} is valid (hash {config.config_hash()})")
    if args.show:
        print(canonical_json(config.canonical()))
    return 0


def _cmd_list(args) -> int:
    for config in bundled_configs():
        print(f"{config.name:26s} {config.description}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="qbsde", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config (path or bundled name)")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="directory for report/solution/check files")
    p_run.add_argument("--paths", type=int, default=None, help="override scenario n_paths")
    p_run.add_argument("--seed", type=int, default=None, help="override scenario seed")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="parse and validate a config")
    p_val.add_argument("config")
    p_val.add_argument("--show", action="store_true", help="print the normalized config")
    p_val.set_defaults(func=_cmd_validate)

    p_list = sub.add_parser("list", help="list the bundled experiment catalogue")
    p_list.set_defaults(func=_cmd_list)

    args = parser.parse_args(argv)
    if args.command == "run":
        # a bad override exits 2 here, not with a traceback from the solver
        if args.paths is not None and args.paths < 1:
            p_run.error(f"--paths must be at least 1, got {args.paths}")
        if args.seed is not None and args.seed < 0:
            p_run.error(f"--seed must be at least 0, got {args.seed}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
