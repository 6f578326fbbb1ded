"""The violation record and the rule-code vocabulary.

Every finding the linter can emit carries a stable rule code.  Codes are
grouped by family:

* ``DET***`` — determinism contract: all randomness threads through
  :mod:`repro.util.rng`, no iteration-order or wall-clock leakage into
  estimator state (`docs/LINTING.md` has the full catalogue).
* ``SKT***`` — sketch state contract: snapshot/restore completeness.
* ``LNT***`` — meta: malformed suppression comments.

Violations are plain data so the engine can sort and render them without
knowing which rule produced them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

#: Every rule code the engine knows, with its one-line summary.  Rules in
#: ``repro.lint.rules`` register DET/SKT codes; LNT codes are emitted by
#: the engine itself while parsing suppression comments.
CODE_SUMMARIES: Dict[str, str] = {
    "DET001": "randomness bypasses repro.util.rng (resolve_rng/spawn_rng)",
    "DET002": "unordered set/dict-keys iteration in a determinism-critical path",
    "DET003": "wall clock / OS entropy in estimator or sketch code",
    "DET004": "function that receives an RNG also constructs its own",
    "ASY001": "blocking call inside an async def in repro/serve",
    "ASY002": "module-level mutable state mutated from a coroutine body",
    "SRV001": "serve error code missing from the protocol's stable table",
    "SKT001": "restore() does not cover every attribute snapshot/__init__ sets",
    "LNT001": "suppression comment lacks a justification",
    "LNT002": "suppression names an unknown rule code",
}


@dataclass(frozen=True)
class Violation:
    """One finding: a rule code anchored to a file position."""

    code: str
    path: str  # repo-relative (or as-given) posix path
    line: int  # 1-based
    col: int  # 0-based, matching ast
    message: str
    #: Best-effort symbol context ("ClassName.method" / function name).
    symbol: str = ""

    def sort_key(self) -> Any:
        return (self.path, self.line, self.col, self.code)

    def to_dict(self) -> Dict[str, Any]:
        """JSON form used by ``--format=json`` reports."""
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "symbol": self.symbol,
        }
