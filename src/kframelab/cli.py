"""Command line front end: scenario verification runs and fixture export.

Exit codes: 0 when every selected property passes, 1 when any fails,
2 on configuration or usage errors.
"""

import argparse
import json
import sys
from functools import cache

from .fixtures import FIXTURE_NAMES, fixture_scenario
from .report import emit_report, render_text
from .scenario import ScenarioError, load_scenario, scenario_from_dict
from .suites import run_suite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kframelab",
        description="Run tolerance-checked frame duality property suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run property suites for a scenario file")
    verify.add_argument("--config", required=True, help="path to a scenario JSON file")
    verify.add_argument(
        "--properties",
        default=None,
        help="comma separated property ids (default: all)",
    )
    verify.add_argument("--trials", type=int, default=None, help="override the scenario's trials")
    verify.add_argument("--seed", type=int, default=None, help="override the scenario's seed")
    verify.add_argument("--report", default=None, help="write the report to this path")
    verify.add_argument("--format", choices=("json", "text"), default="json")

    fixtures = sub.add_parser("fixtures", help="print a built-in fixture as a scenario document")
    fixtures.add_argument("--name", required=True, choices=FIXTURE_NAMES)
    return parser


def _cmd_verify(args) -> int:
    try:
        scenario = load_scenario(args.config)
        overrides = {key: value for key, value in (("trials", args.trials), ("seed", args.seed)) if value is not None}
        if overrides:
            scenario = scenario_from_dict({**scenario.to_dict(), **overrides})
        properties = None
        if args.properties is not None:
            properties = [p.strip() for p in args.properties.split(",") if p.strip()]
        report = run_suite(scenario, properties)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write(render_text(report))
    if args.report is not None:
        try:
            emit_report(report, args.report, args.format)
        except OSError as exc:
            print(f"error: cannot write report {args.report}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    return EXIT_OK if report.all_passed else EXIT_FAIL


def _cmd_fixtures(args) -> int:
    print(json.dumps(fixture_scenario(args.name), indent=2))
    return EXIT_OK


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call: parsing reads it and never changes it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "verify":
        return _cmd_verify(args)
    return _cmd_fixtures(args)


if __name__ == "__main__":
    sys.exit(main())
