"""repro-lint: static analysis for the determinism & sketch contracts.

The reproduction's headline guarantees — serial == pooled trials
bit-identically, bit-exact shard merges, checkpoint/resume replaying to
the identical estimate — all rest on code conventions (every RNG threaded
through :mod:`repro.util.rng`, no set-order leakage into reservoir RNG,
``restore`` covering all of ``__init__``'s state).  This package turns
those conventions into enforced rules:

======== =============================================================
DET001   randomness bypasses ``resolve_rng``/``spawn_rng``
DET002   unordered set/``dict.keys()`` iteration in hot paths
DET003   wall clock / OS entropy outside the runner's timing fields
SKT001   ``restore()`` misses attributes ``__init__``/``snapshot`` set
LNT001   suppression pragma without justification
LNT002   suppression pragma naming an unknown code
======== =============================================================

See ``docs/LINTING.md`` for the catalogue with bad/good examples.  Run as
``repro-lint``, ``python -m repro.lint``, or ``repro-cycles lint``; the
dynamic counterpart of SKT001 lives in ``tests/lint/test_snapshot_oracle.py``.
"""

from repro.lint.engine import LintReport, discover_files, run_lint
from repro.lint.rules import ALL_RULE_CLASSES, build_rules
from repro.lint.violations import CODE_SUMMARIES, Violation

__all__ = [
    "ALL_RULE_CLASSES",
    "CODE_SUMMARIES",
    "LintReport",
    "Violation",
    "build_rules",
    "discover_files",
    "run_lint",
]
