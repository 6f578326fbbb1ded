"""The ``repro-lint`` command line.

Usage::

    repro-lint src/repro                       # text report, exit 1 on findings
    repro-lint --format=json -o report.json src/repro
    repro-lint --format=github src/repro       # PR annotations in CI
    repro-lint --list-rules

Also reachable as ``python -m repro.lint`` and ``repro-cycles lint``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.engine import run_lint
from repro.lint.formats import FORMATTERS
from repro.lint.rules import ALL_RULE_CLASSES, build_rules
from repro.lint.violations import CODE_SUMMARIES

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Static analysis for this repo's determinism and sketch-state "
            "contracts (rule catalogue: docs/LINTING.md)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=sorted(FORMATTERS),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "-o",
        "--output",
        metavar="PATH",
        default=None,
        help="also write the rendered report to PATH",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="CODES",
        default=None,
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {_package_version()}",
        help="print the repro package version and exit",
    )
    return parser


def _package_version() -> str:
    from repro import __version__

    return __version__


def _split_codes(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    return [c.strip() for c in raw.split(",") if c.strip()]


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for cls in ALL_RULE_CLASSES:
            print(f"{cls.code}  {cls.summary}")
        for code in ("LNT001", "LNT002"):
            print(f"{code}  {CODE_SUMMARIES[code]} (engine-emitted)")
        return 0

    try:
        rules = build_rules(_split_codes(args.select), _split_codes(args.ignore))
    except ValueError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2

    try:
        report = run_lint(args.paths, rules=rules)
    except FileNotFoundError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2

    rendered = FORMATTERS[args.format](report)
    if rendered:
        print(rendered)
    if args.output:
        Path(args.output).write_text(rendered + "\n", encoding="utf-8")
    return report.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
