"""Tests for the paper-artifact registry behind ``repro-cycles experiment``."""

import dataclasses
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import artifacts, table1

DESIGN = Path(__file__).resolve().parents[2] / "DESIGN.md"


def _design_ids():
    section = DESIGN.read_text().split("## 4. Per-experiment index")[1].split("\n## ")[0]
    return re.findall(r"^\| `([^`]+)` \|", section, flags=re.MULTILINE)


def test_registry_ids_match_design_index():
    ids = [a.id for a in artifacts.ARTIFACTS]
    assert len(ids) == 16
    assert ids == _design_ids()


def test_selection_by_id_prefix_and_all():
    assert [a.id for a in artifacts.select("table1/crossover")] == ["table1/crossover"]
    assert len(artifacts.select("table1")) == 6
    assert len(artifacts.select("figure1")) == 5
    assert artifacts.select("all") == list(artifacts.ARTIFACTS)
    with pytest.raises(SystemExit, match="table1/crossover"):
        artifacts.select("table")  # a prefix selects whole path segments only


@pytest.mark.parametrize(
    "artifact_id",
    [a.id for a in artifacts.ARTIFACTS if a.id.startswith("figure1/")]
    + ["lemmas/structure"],
)
def test_claims_pass_at_full_size(artifact_id, capsys):
    assert main(["experiment", artifact_id]) == 0
    out = capsys.readouterr().out
    assert f"PASS  {artifact_id}:" in out
    assert "FAIL" not in out


def test_failed_claim_makes_main_fail(monkeypatch, capsys):
    failing = [("a claim that does not hold", False)]
    registry = tuple(
        dataclasses.replace(a, claims=lambda rows: failing)
        if a.id == "figure1/a_one_pass_triangle" else a
        for a in artifacts.ARTIFACTS
    )
    monkeypatch.setattr(artifacts, "ARTIFACTS", registry)
    assert main(["experiment", "figure1/a_one_pass_triangle"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  figure1/a_one_pass_triangle: a claim that does not hold" in out
    assert "0/1 claims pass" in out


def test_crossover_claim_fails_when_a_search_fails(monkeypatch, capsys):
    """A T whose budget search fails must fail the claim, not vanish from it."""

    def search(factory, graph, true_count, **kwargs):
        return None if true_count == 125 else 100

    monkeypatch.setattr(table1, "min_budget_for_accuracy", search)
    (crossover,) = artifacts.select("table1/crossover")
    claims = dict(artifacts.run_artifact(crossover))
    capsys.readouterr()
    assert claims["the budget search converged at every requested T"] is False
