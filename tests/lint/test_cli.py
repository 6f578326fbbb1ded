"""CLI behaviour: formats, suppressions, exit codes."""

import json
from pathlib import Path

import pytest

from repro.lint.cli import main
from repro.lint.violations import CODE_SUMMARIES

BAD_SOURCE = "import random\n\n\ndef draw():\n    return random.random()\n"


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """A scratch cwd holding one file with a DET001 finding."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.py").write_text(BAD_SOURCE)
    return tmp_path


def test_text_format(workdir, capsys):
    assert main(["bad.py", "--format=text"]) == 1
    out = capsys.readouterr().out
    assert "bad.py:5:" in out and "DET001" in out
    assert "1 violation" in out


def test_json_format_and_output_file(workdir, capsys):
    assert main(["bad.py", "--format=json", "-o", "report.json"]) == 1
    out = capsys.readouterr().out
    document = json.loads(out)
    assert document["summary"] == {"active": 1, "exit_code": 1}
    (violation,) = document["violations"]
    assert violation["code"] == "DET001" and violation["line"] == 5
    assert json.loads(Path("report.json").read_text()) == document


def test_github_format(workdir, capsys):
    assert main(["bad.py", "--format=github"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("::error file=bad.py,line=5,")
    assert "title=repro-lint DET001" in out


def test_clean_file_exits_zero(workdir, capsys):
    Path("clean.py").write_text("def f():\n    return 1\n")
    assert main(["clean.py"]) == 0
    assert "0 violations" in capsys.readouterr().out


def test_justified_suppression_is_honored(workdir):
    Path("bad.py").write_text(
        "import random\n"
        "\n"
        "\n"
        "def draw():\n"
        "    return random.random()  "
        "# repro-lint: disable=DET001 -- fixture exercising suppression\n"
    )
    assert main(["bad.py"]) == 0


def test_unjustified_suppression_emits_lnt001(workdir, capsys):
    Path("bad.py").write_text(
        "import random\n"
        "\n"
        "\n"
        "def draw():\n"
        "    return random.random()  # repro-lint: disable=DET001\n"
    )
    assert main(["bad.py", "--format=json"]) == 1
    document = json.loads(capsys.readouterr().out)
    codes = sorted(v["code"] for v in document["violations"])
    # The bare pragma suppresses nothing AND is itself a finding.
    assert codes == ["DET001", "LNT001"]


def test_unknown_code_suppression_emits_lnt002(workdir, capsys):
    Path("clean.py").write_text(
        "# repro-lint: disable=XYZ999 -- not a real rule\n"
        "def f():\n"
        "    return 1\n"
    )
    assert main(["clean.py", "--format=json"]) == 1
    document = json.loads(capsys.readouterr().out)
    codes = [v["code"] for v in document["violations"]]
    assert codes == ["LNT002"]


def test_list_rules(workdir, capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in CODE_SUMMARIES:
        assert code in out


def test_unknown_select_code_is_usage_error(workdir):
    assert main(["bad.py", "--select=NOPE01"]) == 2


def test_missing_path_is_usage_error(workdir):
    assert main(["does-not-exist/"]) == 2
