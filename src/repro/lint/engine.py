"""The lint engine: discover files, run rules, apply suppressions.

The engine is deliberately dependency-free (stdlib ``ast`` only) and pure:
``run_lint`` maps (paths, rules) to a :class:`LintReport`; all I/O besides
reading sources lives in the CLI layer.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

from repro.lint.rules import Rule, build_rules
from repro.lint.rules.base import FileContext
from repro.lint.suppress import parse_suppressions
from repro.lint.violations import Violation

#: Directories never scanned: caches, VCS internals, build output, and
#: tool/virtualenv state that can shadow thousands of third-party files.
_SKIP_DIRS = {
    "__pycache__",
    ".git",
    ".hypothesis",
    ".venv",
    ".tox",
    ".mypy_cache",
    ".eggs",
    "build",
    "dist",
}


def discover_files(paths: Sequence[str]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not any(part in _SKIP_DIRS for part in candidate.parts):
                    found.append(candidate)
        elif path.suffix == ".py":
            found.append(path)
        elif not path.exists():
            raise FileNotFoundError(f"no such file or directory: {raw}")
    # De-duplicate while preserving order (a file named on the command
    # line and inside a scanned directory counts once).
    seen = set()
    unique = []
    for path in found:
        key = path.resolve()
        if key not in seen:
            seen.add(key)
            unique.append(path)
    return unique


@dataclass
class LintReport:
    """Everything one lint run produced."""

    violations: List[Violation] = field(default_factory=list)
    files_checked: int = 0
    parse_errors: List[str] = field(default_factory=list)

    @property
    def active(self) -> List[Violation]:
        """Violations that fail the run: every one of them."""
        return list(self.violations)

    @property
    def exit_code(self) -> int:
        return 1 if self.active or self.parse_errors else 0


def _parse_file(path: Path) -> Optional[FileContext]:
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    return FileContext(path=path.as_posix(), source=source, tree=tree)


def run_lint(
    paths: Sequence[str],
    rules: Optional[Iterable[Rule]] = None,
) -> LintReport:
    """Lint ``paths`` with ``rules`` (all rules by default)."""
    rule_list = list(rules) if rules is not None else build_rules()
    report = LintReport()
    contexts: List[FileContext] = []
    for path in discover_files(paths):
        try:
            ctx = _parse_file(path)
        except SyntaxError as exc:
            report.parse_errors.append(f"{path.as_posix()}: {exc.msg} (line {exc.lineno})")
            continue
        contexts.append(ctx)
    report.files_checked = len(contexts)

    index_by_path = {
        ctx.path: parse_suppressions(ctx.path, ctx.source) for ctx in contexts
    }
    raw: List[Violation] = []
    for ctx in contexts:
        index = index_by_path[ctx.path]
        raw.extend(index.problems)
        for rule in rule_list:
            if not rule.project_wide:
                raw.extend(
                    v for v in rule.check(ctx) if not index.is_suppressed(v)
                )

    # Project-wide rules see every file; suppressions still apply at the
    # violation's own location.
    for rule in rule_list:
        if not rule.project_wide:
            continue
        for violation in rule.check_project(contexts):
            index = index_by_path.get(violation.path)
            if index is not None and index.is_suppressed(violation):
                continue
            raw.append(violation)

    report.violations = sorted(raw, key=Violation.sort_key)
    return report
