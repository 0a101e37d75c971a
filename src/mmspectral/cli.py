"""Command-line entry point.

One subcommand per experiment kind plus ``report``, which aggregates
previously written run reports into a pass/fail table. Exit code 0 means
every check passed; 1 means at least one failed; 2 means the invocation
itself was invalid (unknown kind, malformed config, missing reports) or
the library refused its values (any ``LabError``).
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigParseError, LabError
from .experiments import SUITES, ExperimentConfig, _report_dict, report_summary, run


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmspectral",
        description="Numerical verification suites for spectral contrastive learning "
                    "on explicit finite distributions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for kind in SUITES:
        p = sub.add_parser(kind, help=f"run the {kind} suite")
        p.add_argument("--config", default=None, help="JSON config file with parameter overrides")
        p.add_argument("--seed", type=int, default=None, help="base seed for the seed sweep")
        p.add_argument("--out", default=None, help="output directory for artifacts and the report")
        p.add_argument("--tolerance", type=float, default=None,
                       help="override the experiment's headline tolerance")
        p.add_argument("--parallel", type=int, default=1, metavar="N",
                       help="fan independent work units over N worker processes")

    rep = sub.add_parser("report", help="summarize previously written run reports")
    rep.add_argument("paths", nargs="*", help="report JSON files (default: <out>/**/*-report.json)")
    rep.add_argument("--out", default=None, help="directory globbed when no paths are given (default: runs)")
    return parser


def _load_report(path: Path) -> dict:
    """One run report's JSON form; a file that cannot be read, or is not
    one, is a ConfigParseError."""
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigParseError(f"cannot read report {path}: {exc}") from exc
    return _report_dict(data, str(path))


def _cmd_report(args) -> int:
    paths = [Path(p) for p in args.paths]
    if not paths:
        out = Path(args.out if args.out is not None else "runs")
        paths = sorted(out.glob("**/*-report.json"))
    if not paths:
        raise ConfigParseError("no report files found; pass paths or --out")
    reports = [_load_report(path) for path in paths]
    print(report_summary(reports))
    return 0 if all(r["all_passed"] for r in reports) else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "report":
            return _cmd_report(args)
        config = ExperimentConfig.build(
            args.command, config_path=args.config, seed=args.seed,
            out=args.out, tolerance=args.tolerance,
        )
        report = run(config, workers=args.parallel)
    except LabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report_summary([report]))
    for check in report.checks:
        if not check.passed:
            print(f"FAILED {check.name}: value {check.value!r} vs tolerance "
                  f"{check.tolerance!r} ({check.detail})")
    return 0 if report.all_passed else 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
