"""CLI: ``python -m repro.analysis [paths...]`` (also ``repro analyze``).

Examples
--------
Lint the library and the tests and fail on any finding (what CI runs)::

    python -m repro.analysis src/repro tests --format json

Run a single rule over one file::

    python -m repro.analysis src/repro/core/decoder.py --select RB003

Exit codes: 0 clean, 1 violations found, 2 usage/parse error (see
:mod:`repro.analysis.engine`).
"""

from __future__ import annotations

import argparse
import sys

from .engine import AnalysisUsageError, analyze_paths
from .graph import PROJECT_RULES
from .report import render_json, render_text
from .rules import RULES, UNUSED_SUPPRESSION_RULE_ID

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro analyze",
        description=(
            "RainBar determinism & contract analyzer (rules: --list-rules): "
            "per-file AST rules plus project-wide import-layering and "
            "stale-suppression passes"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (json is the versioned CI artifact)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="RBxxx[,RBxxx...]",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _list_rules() -> int:
    print(f"{UNUSED_SUPPRESSION_RULE_ID}  stale `# repro: noqa` suppression")
    catalogue = sorted(
        list(RULES) + list(PROJECT_RULES), key=lambda rule: rule.id
    )
    for rule in catalogue:
        print(f"{rule.id}  {rule.title}")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help or a usage error, already printed
        return int(exc.code or 0)

    if args.list_rules:
        return _list_rules()

    select = None
    if args.select is not None:
        select = [part.strip() for part in args.select.split(",") if part.strip()]

    try:
        result = analyze_paths(args.paths, select=select)
    except (FileNotFoundError, AnalysisUsageError, ValueError) as exc:
        print(f"repro.analysis: error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result))
    for report in result.errors:
        print(
            f"repro.analysis: error: {report.path}: {report.error}",
            file=sys.stderr,
        )
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
