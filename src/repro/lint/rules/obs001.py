"""OBS001 — telemetry metric names must come from the declared registry.

A typo'd metric name (``"stream_pair_total"`` for ``"stream_pairs_total"``)
silently creates a parallel series that no dashboard, roll-up or baseline
ever aggregates — the worst kind of observability bug, because nothing
crashes.  The vocabulary lives in :mod:`repro.obs.names`; this rule
resolves every *literal* metric name at a telemetry call site in
``src/repro`` against it.

A call site is ``<receiver>.count(...)``, ``<receiver>.set_gauge(...)``
or ``<receiver>.observe_histogram(...)`` where the receiver's terminal
identifier contains ``telemetry`` (``telemetry``, ``self._telemetry``,
``run_telemetry`` all match; ``path.count("/")`` does not).  Dynamic
names (f-strings, variables) are out of scope — the registry check is
for the static vocabulary, and every in-tree emission uses a literal.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.rules.base import FileContext, Rule, enclosing_symbols
from repro.lint.violations import Violation

from repro.obs.names import METRIC_NAMES, is_valid_metric_name

#: Telemetry facade methods whose first argument is a metric name.
_METRIC_METHODS = frozenset({"count", "set_gauge", "observe_histogram"})


def _telemetry_receiver(func: ast.expr) -> Optional[str]:
    """The method name when ``func`` is a telemetry metric call, else None."""
    if not isinstance(func, ast.Attribute) or func.attr not in _METRIC_METHODS:
        return None
    receiver = func.value
    # Terminal identifier of the receiver chain: ``telemetry`` for the
    # bare name, ``_telemetry`` for ``self._telemetry``.
    if isinstance(receiver, ast.Attribute):
        terminal = receiver.attr
    elif isinstance(receiver, ast.Name):
        terminal = receiver.id
    else:
        return None
    if "telemetry" not in terminal.lower():
        return None
    return func.attr


class Obs001MetricRegistry(Rule):
    code = "OBS001"
    summary = "telemetry metric name not in the declared registry"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        symbols = enclosing_symbols(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            method = _telemetry_receiver(node.func)
            if method is None or not node.args:
                continue
            first = node.args[0]
            if not isinstance(first, ast.Constant) or not isinstance(first.value, str):
                continue  # dynamic names are out of scope
            name = first.value
            if not is_valid_metric_name(name):
                yield self.violation(
                    ctx,
                    node,
                    f"metric name {name!r} is not a lowercase dotted identifier "
                    "(segments [a-z][a-z0-9_]* joined by dots)",
                    symbol=symbols.get(id(node), ""),
                )
            elif name not in METRIC_NAMES:
                yield self.violation(
                    ctx,
                    node,
                    f"metric name {name!r} passed to .{method}() is not declared "
                    "in repro.obs.names.METRIC_NAMES; add it to the registry "
                    "or fix the typo",
                    symbol=symbols.get(id(node), ""),
                )
