"""Make the suite's modules (``run``, ``workloads``, ``layers``) importable."""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
SUITE_DIR = REPO_ROOT / "benchmarks" / "suite"

if str(SUITE_DIR) not in sys.path:
    sys.path.insert(0, str(SUITE_DIR))
