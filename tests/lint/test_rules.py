"""Fixture-driven rule tests: every planted violation is caught exactly.

Each fixture under ``tests/lint/fixtures/`` marks its intentionally bad
lines with ``PLANT:<CODE>`` comments; the tests assert that each rule
reports those exact (code, line) pairs and nothing else.  The final test
pins the tentpole invariant: the real source tree lints clean.
"""

from pathlib import Path

from repro.lint.engine import run_lint
from repro.lint.rules import build_rules

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
REPO_ROOT = HERE.parents[1]


def planted_lines(path: Path, code: str):
    return sorted(
        lineno
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if f"PLANT:{code}" in line
    )


def lint_with(code, *paths):
    report = run_lint([str(p) for p in paths], rules=build_rules([code]))
    assert report.parse_errors == []
    return report


def test_det001_planted():
    fixture = FIXTURES / "det001_bad.py"
    report = lint_with("DET001", fixture)
    assert [v.code for v in report.violations] == ["DET001"] * 3
    assert [v.line for v in report.violations] == planted_lines(fixture, "DET001")
    assert all("resolve_rng" in v.message for v in report.violations)


def test_det001_allows_util_rng():
    report = lint_with("DET001", REPO_ROOT / "src" / "repro" / "util" / "rng.py")
    assert report.violations == []


def test_det002_planted():
    fixture = FIXTURES / "core" / "det002_bad.py"
    report = lint_with("DET002", fixture)
    assert [v.code for v in report.violations] == ["DET002"] * 4
    assert sorted(v.line for v in report.violations) == planted_lines(
        fixture, "DET002"
    )
    assert all(v.symbol == "WeightBag.unordered" for v in report.violations)


def test_det002_only_fires_in_hot_dirs(tmp_path):
    # The same source outside core//sketch//baselines/ is not flagged.
    clone = tmp_path / "plain.py"
    clone.write_text((FIXTURES / "core" / "det002_bad.py").read_text())
    report = lint_with("DET002", clone)
    assert report.violations == []


def test_det003_planted():
    fixture = FIXTURES / "det003_bad.py"
    report = lint_with("DET003", fixture)
    assert [v.code for v in report.violations] == ["DET003"] * 2
    assert [v.line for v in report.violations] == planted_lines(fixture, "DET003")


def test_det003_allows_runner():
    runner = REPO_ROOT / "src" / "repro" / "streaming" / "runner.py"
    report = lint_with("DET003", runner)
    assert report.violations == []


def test_obs001_planted():
    fixture = FIXTURES / "obs001_bad.py"
    report = lint_with("OBS001", fixture)
    assert [v.code for v in report.violations] == ["OBS001"] * 3
    assert [v.line for v in report.violations] == planted_lines(fixture, "OBS001")
    messages = " ".join(v.message for v in report.violations)
    assert "stream_pair_total" in messages  # typo'd registered name
    assert "lowercase dotted identifier" in messages  # malformed name
    assert "made.up.metric" in messages  # off-registry via self._telemetry


def test_obs001_registry_is_self_consistent():
    from repro.obs.names import METRIC_NAMES, validate_registry

    assert validate_registry() == []
    assert all(help_text for help_text in METRIC_NAMES.values())


def test_skt001_planted():
    fixture = FIXTURES / "skt001_bad.py"
    report = lint_with("SKT001", fixture)
    lines = planted_lines(fixture, "SKT001")
    # One violation per missing attribute, both anchored at def restore.
    assert [v.code for v in report.violations] == ["SKT001"] * 2
    assert [v.line for v in report.violations] == lines * 2
    assert all(v.symbol == "LeakyCounter.restore" for v in report.violations)
    messages = " ".join(v.message for v in report.violations)
    assert "self._budget" in messages and "self._sample" in messages
    assert "FaithfulCounter" not in messages


def test_det003_allows_benchmarks(tmp_path):
    bench_dir = tmp_path / "benchmarks"
    bench_dir.mkdir()
    clone = bench_dir / "bench_timer.py"
    clone.write_text("import time\n\nelapsed = time.perf_counter()\n")
    report = lint_with("DET003", clone)
    assert report.violations == []


def test_det004_planted():
    fixture = FIXTURES / "det004_bad.py"
    report = lint_with("DET004", fixture)
    assert [v.code for v in report.violations] == ["DET004"] * 3
    assert sorted(v.line for v in report.violations) == planted_lines(
        fixture, "DET004"
    )
    messages = " ".join(v.message for v in report.violations)
    assert "resolve_rng" in messages  # the second-resolve finding
    assert "Random" in messages  # the raw construction finding
    assert "_fresh_stream" in messages  # the helper-minting finding


def test_asy001_planted():
    fixture = FIXTURES / "serve" / "asy001_bad.py"
    report = lint_with("ASY001", fixture)
    assert [v.code for v in report.violations] == ["ASY001"] * 5
    assert sorted(v.line for v in report.violations) == planted_lines(
        fixture, "ASY001"
    )
    messages = " ".join(v.message for v in report.violations)
    assert "asyncio.sleep" in messages  # time.sleep gets the targeted hint
    assert "asyncio.to_thread" in messages  # the generic dispatch hint


def test_asy001_only_fires_under_serve(tmp_path):
    clone = tmp_path / "plain.py"
    clone.write_text((FIXTURES / "serve" / "asy001_bad.py").read_text())
    report = lint_with("ASY001", clone)
    assert report.violations == []


def test_asy002_planted():
    fixture = FIXTURES / "serve" / "asy002_bad.py"
    report = lint_with("ASY002", fixture)
    assert [v.code for v in report.violations] == ["ASY002"] * 4
    assert sorted(v.line for v in report.violations) == planted_lines(
        fixture, "ASY002"
    )
    messages = " ".join(v.message for v in report.violations)
    assert "_CACHE" in messages and "_LIVE" in messages and "_COUNTER" in messages
    assert "session manager" in messages


def test_srv001_planted():
    tree = FIXTURES / "srv001_tree"
    report = lint_with("SRV001", tree)
    protocol = tree / "serve" / "protocol.py"
    handlers = tree / "serve" / "handlers.py"
    assert [v.code for v in report.violations] == ["SRV001"] * 6
    assert sorted(v.line for v in report.violations) == sorted(
        planted_lines(protocol, "SRV001") + planted_lines(handlers, "SRV001")
    )
    messages = " ".join(v.message for v in report.violations)
    assert "GHOST_CODE" in messages  # table entry with no constant
    assert "UNLISTED_CODE" in messages  # raised but missing from the table
    assert "DEAD_CODE" in messages  # tabled but never referenced
    assert "NO_SUCH_SESSION" in messages  # the string-literal raise
    assert "MYSTERY_CODE" in messages  # unknown name at a raise site


def test_srv001_real_protocol_is_consistent():
    report = lint_with("SRV001", REPO_ROOT / "src")
    assert report.violations == []


def test_engine_skips_tool_dirs(tmp_path):
    # .venv/.tox/.mypy_cache/.eggs must never be scanned: a local
    # virtualenv would otherwise drown the report in third-party findings.
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "ok.py").write_text("x = 1\n")
    bad = "import random\nrandom.random()\n"
    for skipped in (".venv", ".tox", ".mypy_cache", ".eggs", "__pycache__"):
        sub = tmp_path / skipped / "lib"
        sub.mkdir(parents=True)
        (sub / "third_party.py").write_text(bad)
    from repro.lint.engine import discover_files

    found = discover_files([str(tmp_path)])
    assert [p.name for p in found] == ["ok.py"]
    report = run_lint([str(tmp_path)])
    assert report.files_checked == 1
    assert report.violations == []


def test_src_tree_is_clean():
    """The tentpole gate: the shipped source tree has zero findings."""
    report = run_lint([str(REPO_ROOT / "src")])
    assert report.parse_errors == []
    assert report.active == []
    assert report.exit_code == 0


def test_benchmarks_and_examples_are_clean():
    """CI lints benchmarks/ and examples/ too; keep them at zero findings."""
    paths = [REPO_ROOT / "benchmarks", REPO_ROOT / "examples"]
    report = run_lint([str(p) for p in paths if p.exists()])
    assert report.parse_errors == []
    assert report.active == []
