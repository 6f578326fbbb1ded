"""The telemetry subsystem must satisfy the repo's own determinism linter.

``repro.obs`` necessarily touches wall clocks (timers measure them), so it
carries justified ``repro-lint: disable=DET003`` suppressions; this test
pins that those suppressions are the *only* thing standing between the
subsystem and a clean bill — no unexplained violations may creep in.
"""

import os

import repro.obs
from repro.lint.cli import main

OBS_DIR = os.path.dirname(os.path.abspath(repro.obs.__file__))


def test_obs_subsystem_is_lint_clean(capsys):
    assert main([OBS_DIR]) == 0
    assert "0 violations" in capsys.readouterr().out


def test_obs_timer_suppressions_are_justified():
    """Every DET003 suppression in repro.obs carries a reason string."""
    found = 0
    for name in os.listdir(OBS_DIR):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(OBS_DIR, name)) as fh:
            for line in fh:
                if "repro-lint: disable=DET003" in line:
                    found += 1
                    assert " -- " in line, f"unjustified suppression in {name}: {line!r}"
    assert found >= 2, "the Timer context manager must carry suppressions"
