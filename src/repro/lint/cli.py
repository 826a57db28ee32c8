"""The ``suu lint`` / ``python -m repro lint`` command implementation.

Kept separate from :mod:`repro.cli` so the framework is usable (and
testable) without the argparse surface.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from ..errors import ValidationError
from .base import rule_catalogue
from .engine import lint_paths

__all__ = ["run_lint", "add_lint_arguments"]


def add_lint_arguments(parser) -> None:
    """Attach the ``lint`` subcommand's arguments to ``parser``."""
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: the repro package source)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="RULE-ID",
        help="run only this rule (repeatable; default: the full rule set)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rule ids with descriptions and exit",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="OUT.json",
        help="also write the findings report as JSON ('-' for stdout)",
    )


def run_lint(args) -> int:
    """Execute the lint run described by parsed ``args``; returns exit status."""
    if args.list_rules:
        for entry in rule_catalogue():
            print(f"{entry['id']:18s} {entry['description']}")
        return 0
    try:
        report = lint_paths(paths=args.paths or None, rules=args.rule)
    except ValidationError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    for finding in report.findings:
        print(finding.format())
    if args.json is not None:
        text = json.dumps(report.to_dict(), indent=2)
        if str(args.json) == "-":
            print(text)
        else:
            args.json.write_text(text)
            print(f"findings JSON written to {args.json}")
    n = len(report.findings)
    rules = len(report.rule_ids)
    if n:
        print(
            f"lint: {n} finding(s) across {report.files_scanned} file(s) "
            f"({rules} rule(s))"
        )
        return 1
    print(f"lint: clean — {report.files_scanned} file(s), {rules} rule(s)")
    return 0
