"""Tests for the repro-cycles command-line interface."""

import pytest

from repro.cli import main
from repro.graph.counting import count_triangles
from repro.graph.io import read_adjacency_list, read_edge_list


@pytest.fixture()
def graph_file(tmp_path):
    path = tmp_path / "g.adj"
    assert (
        main(
            [
                "generate",
                "--family",
                "planted-triangles",
                "--m",
                "400",
                "--count",
                "40",
                "--seed",
                "1",
                "--out",
                str(path),
            ]
        )
        == 0
    )
    return path


class TestGenerate:
    def test_adjacency_output(self, graph_file):
        graph = read_adjacency_list(graph_file)
        assert count_triangles(graph) == 40

    def test_edge_list_output(self, tmp_path):
        out = tmp_path / "g.edges"
        main(["generate", "--family", "gnm", "--n", "50", "--m", "120",
              "--out", str(out)])
        graph = read_edge_list(out)
        assert graph.m == 120

    @pytest.mark.parametrize(
        "family,extra",
        [
            ("gnp", ["--n", "30", "--p", "0.2"]),
            ("ba", ["--n", "40", "--attach", "2"]),
            ("powerlaw", ["--n", "40", "--attach", "2", "--p", "0.5"]),
            ("planted-4cycles", ["--m", "100", "--count", "10"]),
        ],
    )
    def test_all_families(self, tmp_path, family, extra):
        out = tmp_path / "fam.edges"
        assert main(["generate", "--family", family, "--out", str(out)] + extra) == 0
        assert read_edge_list(out).m > 0

    def test_unknown_family(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "--family", "nope", "--out", str(tmp_path / "x.adj")])


class TestCount:
    def test_exact(self, graph_file, capsys):
        assert main(["count", str(graph_file), "--algorithm", "exact"]) == 0
        out = capsys.readouterr().out
        assert "estimated 3-cycles: 40.0" in out

    @pytest.mark.parametrize(
        "algorithm", ["two-pass", "three-pass", "one-pass", "wedge", "naive"]
    )
    def test_triangle_algorithms_run(self, graph_file, algorithm, capsys):
        assert (
            main(
                [
                    "count",
                    str(graph_file),
                    "--algorithm",
                    algorithm,
                    "--sample-size",
                    "2000",
                    "--seed",
                    "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        value = float(out.split("estimated 3-cycles: ")[1].split()[0])
        assert 20 <= value <= 80  # generous band around 40

    def test_fourcycle_two_pass(self, graph_file, capsys):
        assert main(["count", str(graph_file), "--length", "4"]) == 0
        assert "estimated 4-cycles" in capsys.readouterr().out

    def test_boosted_copies(self, graph_file, capsys):
        assert main(["count", str(graph_file), "--copies", "3",
                     "--sample-size", "500"]) == 0
        assert "estimated 3-cycles" in capsys.readouterr().out

    def test_long_cycles_need_exact(self, graph_file):
        with pytest.raises(SystemExit, match="Theorem 5.5"):
            main(["count", str(graph_file), "--length", "5"])

    def test_long_cycles_exact_works(self, graph_file, capsys):
        assert main(["count", str(graph_file), "--length", "5",
                     "--algorithm", "exact"]) == 0
        assert "estimated 5-cycles: 0.0" in capsys.readouterr().out

    def test_unknown_algorithm(self, graph_file):
        with pytest.raises(SystemExit):
            main(["count", str(graph_file), "--algorithm", "bogus"])


class TestSharded:
    def test_shards_match_single_shard(self, graph_file, capsys):
        base = ["count", str(graph_file), "--sample-size", "4000", "--seed", "3"]
        assert main(base) == 0
        single = capsys.readouterr().out
        single_estimate = single.split("estimated 3-cycles: ")[1].split()[0]
        assert main(base + ["--shards", "4"]) == 0
        sharded = capsys.readouterr().out
        # Full-sample regime: the hash-designated sharded estimator is
        # exact, so it agrees with the conventional run's exact value.
        assert f"estimated 3-cycles: {single_estimate}" in sharded
        assert "shards=4" in sharded

    def test_sharded_fourcycle(self, graph_file, capsys):
        assert main(["count", str(graph_file), "--length", "4",
                     "--shards", "2", "--sample-size", "200"]) == 0
        out = capsys.readouterr().out
        assert "estimated 4-cycles" in out
        assert "shards=2" in out

    def test_shards_reject_copies(self, graph_file):
        with pytest.raises(SystemExit, match="copies"):
            main(["count", str(graph_file), "--shards", "2", "--copies", "3"])

    def test_shards_reject_unsupported_algorithm(self, graph_file):
        with pytest.raises(SystemExit, match="two-pass"):
            main(["count", str(graph_file), "--shards", "2",
                  "--algorithm", "exact"])


class TestCheckpoint:
    def test_resume_requires_checkpoint(self, graph_file):
        with pytest.raises(SystemExit, match="--checkpoint"):
            main(["count", str(graph_file), "--resume"])

    def test_checkpoint_then_resume(self, graph_file, tmp_path, capsys):
        ckpt = str(tmp_path / "run.ckpt")
        base = ["count", str(graph_file), "--sample-size", "500", "--seed", "3"]
        assert main(base + ["--checkpoint", ckpt, "--checkpoint-every", "50"]) == 0
        first = capsys.readouterr().out
        estimate = first.split("estimated 3-cycles: ")[1].split()[0]
        # Resuming from the completed run's final checkpoint replays
        # nothing and reports the identical estimate.
        assert main(base + ["--checkpoint", ckpt, "--resume"]) == 0
        resumed = capsys.readouterr().out
        assert "resuming from" in resumed
        assert f"estimated 3-cycles: {estimate}" in resumed

    def test_sharded_checkpoint(self, graph_file, tmp_path, capsys):
        ckpt = str(tmp_path / "sharded.ckpt")
        assert main(["count", str(graph_file), "--shards", "2",
                     "--sample-size", "500", "--checkpoint", ckpt]) == 0
        capsys.readouterr()
        from repro.sketch.checkpoint import load_checkpoint

        record = load_checkpoint(ckpt)
        assert (record.pass_index, record.lists_done) == (2, 0)


class TestValidate:
    def test_valid_file(self, graph_file, capsys):
        assert main(["validate", str(graph_file)]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "pairs:" in out
        assert "lists:" in out
        assert "edges:" in out
        assert "max list length:" in out

    def test_summary_counts_consistent(self, graph_file, capsys):
        from repro.graph.io import read_adjacency_list

        graph = read_adjacency_list(graph_file)
        assert main(["validate", str(graph_file)]) == 0
        out = capsys.readouterr().out
        assert f"edges:           {graph.m}" in out
        assert f"pairs:           {2 * graph.m}" in out

    def test_invalid_file_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.edges"
        bad.write_text("1 1\n")  # self loop violates the model
        assert main(["validate", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "INVALID" in err

    def test_missing_file_exits_nonzero(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.edges")]) == 1
        assert "INVALID" in capsys.readouterr().err


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_experiment_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(["experiment", "bogus"])


class TestAdaptiveAndExperiments:
    def test_adaptive_algorithm(self, graph_file, capsys):
        assert (
            main(["count", str(graph_file), "--algorithm", "adaptive",
                  "--sample-size", "400", "--seed", "5"])
            == 0
        )
        out = capsys.readouterr().out
        value = float(out.split("estimated 3-cycles: ")[1].split()[0])
        assert 15 <= value <= 90

    def test_experiment_table1(self, capsys):
        assert main(["experiment", "table1/triangle_2pass_upper", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Thm 3.7" in out
        assert "FAIL" not in out

    def test_experiment_table1_with_workers(self, capsys):
        """--workers N fans trials out over processes; --workers 2 here
        must print the same tables as the serial run (bit-identical)."""
        argv = ["experiment", "table1/triangle_2pass_upper", "--quick"]
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == serial_out

    def test_workers_documented_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiment", "--help"])
        assert "--workers" in capsys.readouterr().out

    def test_experiment_figure1(self, capsys):
        assert main(["experiment", "figure1"]) == 0
        assert "Figure 1e" in capsys.readouterr().out


class TestObservability:
    """count --telemetry/--trace artifacts and the report subcommands."""

    def test_count_trace_writes_loadable_chrome_trace(self, graph_file, tmp_path, capsys):
        from repro.obs.trace import read_chrome_trace

        trace = tmp_path / "run.trace"
        assert main(
            ["count", str(graph_file), "--sample-size", "64", "--trace", str(trace)]
        ) == 0
        capsys.readouterr()
        spans = read_chrome_trace(str(trace))
        paths = {span.path for span in spans}
        assert {"run", "run/pass:0", "run/pass:1"} <= paths

    def test_failing_run_leaves_parseable_jsonl(self, graph_file, tmp_path):
        from repro.obs.events import RunStarted
        from repro.obs.sinks import read_jsonl_events

        log = tmp_path / "fail.jsonl"
        # naive sampling has no snapshot support, so --checkpoint aborts the
        # run after the telemetry sink is already open.
        with pytest.raises(SystemExit, match="snapshot"):
            main(
                [
                    "count", str(graph_file), "--algorithm", "naive",
                    "--telemetry", str(log),
                    "--checkpoint", str(tmp_path / "x.ckpt"),
                ]
            )
        events = read_jsonl_events(str(log))  # parseable despite the abort
        assert not any(isinstance(e, RunStarted) for e in events)

    def test_bench_report_consumes_count_telemetry_log(self, graph_file, tmp_path, capsys):
        logs = []
        for name in ("a.jsonl", "b.jsonl"):
            log = tmp_path / name
            assert main(
                [
                    "count", str(graph_file), "--sample-size", "64",
                    "--telemetry", str(log),
                ]
            ) == 0
            logs.append(str(log))
        capsys.readouterr()
        assert main(
            ["bench-report", logs[1], "--against", logs[0], "--threshold", "0.35"]
        ) == 0
        out = capsys.readouterr().out
        assert "a.jsonl" in out and "b.jsonl" in out

    def test_obs_report_subcommand(self, graph_file, tmp_path, capsys):
        log = tmp_path / "run.jsonl"
        trace = tmp_path / "run.trace"
        assert main(
            [
                "count", str(graph_file), "--sample-size", "64",
                "--telemetry", str(log), "--trace", str(trace),
            ]
        ) == 0
        capsys.readouterr()
        assert main(
            [
                "obs-report", "--log", str(log), "--trace", str(trace),
                "--truth", "40", "--format", "text",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "pass:0" in out and "onvergence" in out

    def test_telemetry_unknown_extension_is_an_error(self, graph_file, tmp_path):
        with pytest.raises(SystemExit, match="extension"):
            main(
                [
                    "count", str(graph_file),
                    "--telemetry", str(tmp_path / "log.csv"),
                ]
            )
        assert not (tmp_path / "log.csv").exists()


class TestAlgorithms:
    def test_table_lists_all_specs(self, capsys):
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        assert "triangle-two-pass" in out
        assert "fourcycle-two-pass" in out
        assert "serve" in out  # the serve-compatibility column

    def test_json_listing(self, capsys):
        import json

        assert main(["algorithms", "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert len(listing) == 13
        by_name = {entry["name"]: entry for entry in listing}
        assert by_name["triangle-two-pass"]["serve_compatible"] is True
        assert by_name["triangle-two-pass"]["passes"] == 2
        assert by_name["triangle-exact"]["serve_compatible"] is False
        for entry in listing:
            assert {"name", "cycle_length", "passes", "budget_kind",
                    "snapshot", "anytime", "serve_compatible"} <= set(entry)
