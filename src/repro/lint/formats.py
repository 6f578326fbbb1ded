"""Report renderers: ``--format=text|json|github``."""

from __future__ import annotations

import json
from typing import Callable, Dict

from repro.lint.engine import LintReport


def render_text(report: LintReport) -> str:
    """Human-readable one-line-per-violation output."""
    lines = []
    for error in report.parse_errors:
        lines.append(f"PARSE ERROR: {error}")
    for violation in report.violations:
        where = f" ({violation.symbol})" if violation.symbol else ""
        lines.append(
            f"{violation.path}:{violation.line}:{violation.col + 1}: "
            f"{violation.code} {violation.message}{where}"
        )
    active = len(report.active)
    lines.append(
        f"{report.files_checked} files checked: "
        f"{active} violation{'s' if active != 1 else ''}"
    )
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    """Machine-readable report (the CI artifact format)."""
    document = {
        "files_checked": report.files_checked,
        "parse_errors": report.parse_errors,
        "violations": [v.to_dict() for v in report.violations],
        "summary": {
            "active": len(report.active),
            "exit_code": report.exit_code,
        },
    }
    return json.dumps(document, indent=2, sort_keys=True)


def render_github(report: LintReport) -> str:
    """GitHub Actions workflow commands (inline PR annotations)."""
    lines = []
    for error in report.parse_errors:
        lines.append(f"::error::repro-lint parse error: {error}")
    for violation in report.violations:
        lines.append(
            f"::error file={violation.path},line={violation.line},"
            f"col={violation.col + 1},title=repro-lint {violation.code}::"
            f"{violation.message}"
        )
    return "\n".join(lines)


FORMATTERS: Dict[str, Callable[[LintReport], str]] = {
    "text": render_text,
    "json": render_json,
    "github": render_github,
}
