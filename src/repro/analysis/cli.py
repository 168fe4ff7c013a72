"""``repro check`` argument plumbing.

:func:`add_arguments` is imported at parser build time and therefore
stays stdlib-light; :func:`run_from_args` does the real work and is
imported only when the subcommand actually runs.
"""

from __future__ import annotations

import argparse
import json

from .findings import SEVERITIES

__all__ = ["add_arguments", "run_from_args"]


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--rules", default=None, metavar="R1,R2",
        help="comma-separated subset of rules to run "
             "(default: every registered rule; see --list-rules)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable findings payload instead of "
             "the text report",
    )
    parser.add_argument(
        "--fail-on", default="error", choices=SEVERITIES,
        help="minimum severity that fails the gate (default: error)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print rule id, severity, and description per registered "
             "rule, then exit",
    )
    parser.add_argument(
        "--root", default=None, metavar="DIR",
        help="package directory to analyze (default: the installed "
             "repro package itself)",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="committed findings baseline to diff against; baselined "
             "findings do not fail the gate, stale entries do",
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="also list suppressed/baselined findings in the text "
             "report",
    )


def run_from_args(args: argparse.Namespace) -> int:
    from ..api.registry import CHECKERS
    from ..obs.console import error, info
    from .checker import run_check
    from .report import format_text, load_baseline, to_json_payload

    if args.list_rules:
        for name in CHECKERS.names():
            checker = CHECKERS.get(name)()
            info(f"{checker.rule:<12} {checker.severity:<8} "
                 f"{checker.description}")
        return 0

    rules = None
    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
        unknown = [r for r in rules if r not in CHECKERS]
        if not rules or unknown:
            error(
                f"--rules {args.rules!r} names no valid rule; "
                f"available: {list(CHECKERS.names())}" if not rules
                else f"unknown rule(s) {unknown}; available: "
                     f"{list(CHECKERS.names())}"
            )
            return 2

    try:
        baseline = load_baseline(args.baseline)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        error(f"cannot read baseline {args.baseline}: {exc}")
        return 2

    try:
        result = run_check(
            root=args.root, rules=rules, baseline=baseline,
        )
    except FileNotFoundError as exc:
        error(str(exc))
        return 2

    if args.json:
        info(json.dumps(to_json_payload(result), indent=2,
                        sort_keys=True))
    else:
        info(format_text(result, verbose=args.verbose))
    return 1 if result.failed(args.fail_on) else 0
