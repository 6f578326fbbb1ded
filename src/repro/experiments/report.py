"""Plain-text table rendering for experiment results.

``repro-cycles experiment`` prints these tables so that the regenerated
"rows" of the paper's Table 1 and the Figure-1 verifications are visible
in its output.
"""

from __future__ import annotations

from typing import List, Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence], title: str = "") -> str:
    """Render an aligned monospace table."""
    str_rows: List[List[str]] = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell != cell:  # NaN
            return "nan"
        if abs(cell) >= 1000 or (cell != 0 and abs(cell) < 0.01):
            return f"{cell:.3g}"
        return f"{cell:.3f}"
    return str(cell)


def print_table(headers: Sequence[str], rows: Sequence[Sequence], title: str = "") -> None:
    """Print an aligned monospace table, after a blank line."""
    print()
    print(format_table(headers, rows, title=title))
