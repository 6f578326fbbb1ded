"""The serve subsystem must satisfy the repo's own determinism linter.

``repro.serve`` measures wall-clock latency (feed/poll timings) and so
carries justified ``repro-lint: disable=DET003`` suppressions; this test
pins that those suppressions are the *only* thing standing between the
subsystem and a clean bill — no unexplained violations may creep in.
"""

import os

import repro.serve
from repro.lint.cli import main

SERVE_DIR = os.path.dirname(os.path.abspath(repro.serve.__file__))


def test_serve_subsystem_is_lint_clean(capsys):
    assert main([SERVE_DIR]) == 0
    assert "0 violations" in capsys.readouterr().out


def test_serve_clock_suppressions_are_justified():
    """Every DET003 suppression in repro.serve carries a reason string."""
    found = 0
    for name in os.listdir(SERVE_DIR):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SERVE_DIR, name)) as fh:
            for line in fh:
                if "repro-lint: disable=DET003" in line:
                    found += 1
                    assert " -- " in line, f"unjustified suppression in {name}: {line!r}"
    assert found >= 2, "manager/loadgen clocks must carry suppressions"
