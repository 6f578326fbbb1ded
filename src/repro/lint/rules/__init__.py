"""Rule registry: every determinism/sketch-contract rule the linter runs."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Type

from repro.lint.rules.asy001 import Asy001BlockingCall
from repro.lint.rules.asy002 import Asy002SharedStateMutation
from repro.lint.rules.base import FileContext, Rule
from repro.lint.rules.det001 import Det001RawRandomness
from repro.lint.rules.det002 import Det002UnorderedIteration
from repro.lint.rules.det003 import Det003WallClock
from repro.lint.rules.det004 import Det004RngTaint
from repro.lint.rules.obs001 import Obs001MetricRegistry
from repro.lint.rules.skt001 import Skt001RestoreCoverage
from repro.lint.rules.srv001 import Srv001ErrorCodeTable

__all__ = [
    "FileContext",
    "Rule",
    "ALL_RULE_CLASSES",
    "build_rules",
]

ALL_RULE_CLASSES: List[Type[Rule]] = [
    Det001RawRandomness,
    Det002UnorderedIteration,
    Det003WallClock,
    Det004RngTaint,
    Asy001BlockingCall,
    Asy002SharedStateMutation,
    Srv001ErrorCodeTable,
    Obs001MetricRegistry,
    Skt001RestoreCoverage,
]


def build_rules(
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Rule]:
    """Instantiate the rule set, honouring ``--select`` / ``--ignore``."""
    selected = {c.upper() for c in select} if select else None
    ignored = {c.upper() for c in ignore} if ignore else set()
    known: Dict[str, Type[Rule]] = {cls.code: cls for cls in ALL_RULE_CLASSES}
    unknown = (selected or set()) | ignored
    unknown -= set(known)
    if unknown:
        raise ValueError(f"unknown rule code(s): {', '.join(sorted(unknown))}")
    rules: List[Rule] = []
    for code, cls in known.items():
        if selected is not None and code not in selected:
            continue
        if code in ignored:
            continue
        rules.append(cls())
    return rules
