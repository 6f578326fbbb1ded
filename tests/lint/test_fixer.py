"""The --fix engine: safe rewrites, and fixing is idempotent.

The contract under test: ``fix(fix(tree)) == fix(tree)`` and the fixed
tree re-lints clean for every auto-fixable finding class (DET002 sorted
wraps, pragma normalization, registry ordering).  Unfixable findings
must survive a fix pass untouched.
"""

from pathlib import Path

from repro.lint.cli import main
from repro.lint.engine import run_lint
from repro.lint.fixer import (
    apply_fixes,
    fix_source,
    normalize_pragmas,
    order_record_types,
)
from repro.lint.rules import build_rules
from repro.lint.violations import Fix

DET002_SOURCE = (
    "class Bag:\n"
    "    def __init__(self):\n"
    "        self.members = set()\n"
    "\n"
    "    def total(self):\n"
    "        out = 0\n"
    "        for item in self.members:\n"
    "            out += item\n"
    "        return out\n"
    "\n"
    "    def spread(self, table):\n"
    "        return [table[k] for k in table.keys()]\n"
)


def _lint_core_file(tmp_path, source, code="DET002"):
    core = tmp_path / "core"
    core.mkdir(exist_ok=True)
    target = core / "bag.py"
    target.write_text(source)
    report = run_lint([str(target)], rules=build_rules([code]))
    return target, report


def _fix_once(target, report):
    result = fix_source(target.as_posix(), target.read_text(), report.violations)
    target.write_text(result.new_source)
    return result


class TestApplyFixes:
    def test_single_span(self):
        out, applied = apply_fixes(
            "abc def\n", [Fix(1, 4, 1, 7, "sorted(def)")]
        )
        assert out == "abc sorted(def)\n"
        assert len(applied) == 1

    def test_reverse_order_application(self):
        source = "aa bb cc\n"
        fixes = [Fix(1, 0, 1, 2, "XX"), Fix(1, 6, 1, 8, "YY")]
        out, applied = apply_fixes(source, fixes)
        assert out == "XX bb YY\n"
        assert len(applied) == 2

    def test_overlapping_fixes_keep_first(self):
        source = "abcdef\n"
        fixes = [Fix(1, 0, 1, 4, "1111"), Fix(1, 2, 1, 6, "2222")]
        out, applied = apply_fixes(source, fixes)
        assert out == "1111ef\n"
        assert len(applied) == 1

    def test_multiline_span(self):
        source = "x = (a\n     | b)\ny = 1\n"
        out, _ = apply_fixes(source, [Fix(1, 4, 2, 9, "frozenset()")])
        assert out == "x = frozenset()\ny = 1\n"

    def test_out_of_range_span_is_skipped(self):
        source = "short\n"
        out, applied = apply_fixes(source, [Fix(9, 0, 9, 4, "nope")])
        assert out == source and applied == []


class TestDet002SortedWrap:
    def test_fix_resolves_all_findings(self, tmp_path):
        target, report = _lint_core_file(tmp_path, DET002_SOURCE)
        assert len(report.violations) == 2
        assert all(v.fix is not None for v in report.violations)
        _fix_once(target, report)
        fixed = target.read_text()
        assert "for item in sorted(self.members):" in fixed
        assert "for k in sorted(table.keys())" in fixed
        _, report_after = _lint_core_file(tmp_path, fixed)
        assert report_after.violations == []

    def test_fix_is_idempotent(self, tmp_path):
        target, report = _lint_core_file(tmp_path, DET002_SOURCE)
        _fix_once(target, report)
        once = target.read_text()
        _, report2 = _lint_core_file(tmp_path, once)
        result = fix_source(target.as_posix(), once, report2.violations)
        assert result.new_source == once
        assert not result.changed


class TestPragmaNormalization:
    def test_canonicalizes_spacing_and_code_order(self):
        source = (
            "import random\n"
            "x = random.random()  #  repro-lint:   disable=DET003 , DET001  --  noise calibration\n"
        )
        out, changed = normalize_pragmas(source)
        assert changed == 1
        assert (
            "# repro-lint: disable=DET001,DET003 -- noise calibration" in out
        )

    def test_canonical_input_is_untouched(self):
        source = "x = 1  # repro-lint: disable=DET001 -- why\n"
        out, changed = normalize_pragmas(source)
        assert out == source and changed == 0

    def test_idempotent(self):
        source = "x = 1  #repro-lint: disable=DET002,DET001--because\n"
        once, _ = normalize_pragmas(source)
        twice, changed = normalize_pragmas(once)
        assert twice == once and changed == 0

    def test_never_invents_a_justification(self):
        source = "x = 1  # repro-lint:  disable=DET001\n"
        out, changed = normalize_pragmas(source)
        assert changed == 1
        assert out == "x = 1  # repro-lint: disable=DET001\n"
        assert "--" not in out


class TestRecordTypesOrdering:
    UNSORTED = (
        "RECORD_TYPES = {\n"
        "    cls.__name__: cls\n"
        "    for cls in (\n"
        "        Zeta,\n"
        "        Alpha,\n"
        "        Mid,\n"
        "    )\n"
        "}\n"
    )

    def test_alphabetizes_preserving_layout(self):
        out, moved = order_record_types(self.UNSORTED)
        assert moved == 3
        assert "        Alpha,\n        Mid,\n        Zeta,\n" in out

    def test_sorted_registry_is_untouched(self):
        once, _ = order_record_types(self.UNSORTED)
        twice, moved = order_record_types(once)
        assert twice == once and moved == 0

    def test_non_tuple_registry_is_left_alone(self):
        source = 'RECORD_TYPES = {"A": A, "B": B}\n'
        out, moved = order_record_types(source)
        assert out == source and moved == 0

    def test_real_registry_is_canonical(self):
        persistence = (
            Path(__file__).resolve().parents[2]
            / "src"
            / "repro"
            / "experiments"
            / "persistence.py"
        )
        out, moved = order_record_types(persistence.read_text())
        assert moved == 0


class TestCliFix:
    def test_fix_flag_rewrites_and_relints(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        core = tmp_path / "core"
        core.mkdir()
        (core / "bag.py").write_text(DET002_SOURCE)
        assert main(["core", "--fix"]) == 0
        out = capsys.readouterr().out
        assert "fixed core/bag.py" in out
        assert "0 violations" in out
        assert "sorted(self.members)" in (core / "bag.py").read_text()

    def test_fix_leaves_unfixable_findings(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import random\n\n\ndef draw():\n    return random.random()\n"
        )
        before = bad.read_text()
        assert main(["bad.py", "--fix"]) == 1
        assert bad.read_text() == before  # DET001 has no mechanical rewrite
        assert "DET001" in capsys.readouterr().out

    def test_fix_twice_is_stable(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        core = tmp_path / "core"
        core.mkdir()
        (core / "bag.py").write_text(DET002_SOURCE)
        assert main(["core", "--fix"]) == 0
        once = (core / "bag.py").read_text()
        capsys.readouterr()
        assert main(["core", "--fix"]) == 0
        out = capsys.readouterr().out
        assert (core / "bag.py").read_text() == once
        assert "fixed" not in out
