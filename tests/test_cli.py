"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def stream_file(tmp_path):
    path = tmp_path / "stream.jsonl"
    code = main([
        "generate", "--dataset", "YC", "--scale", "0.002",
        "--seed", "1", "-o", str(path),
    ])
    assert code == 0
    return path


class TestGenerate:
    def test_custom_model(self, tmp_path, capsys):
        path = tmp_path / "custom.jsonl"
        code = main([
            "generate", "--items", "50", "--sessions", "500",
            "--behavior", "normalized", "--seed", "2", "-o", str(path),
        ])
        assert code == 0
        assert path.exists()
        assert "500 sessions" in capsys.readouterr().out

    def test_yoochoose_output(self, tmp_path):
        path = tmp_path / "s.jsonl"
        prefix = str(tmp_path / "yc")
        code = main([
            "generate", "--items", "30", "--sessions", "200",
            "--seed", "3", "-o", str(path),
            "--yoochoose-prefix", prefix,
        ])
        assert code == 0
        assert (tmp_path / "yc-clicks.dat").exists()
        assert (tmp_path / "yc-buys.dat").exists()


class TestBuildGraphAndSolve:
    def test_build_then_solve_k(self, stream_file, tmp_path, capsys):
        graph_path = tmp_path / "graph.json"
        assert main([
            "build-graph", str(stream_file), "--variant", "independent",
            "-o", str(graph_path),
        ]) == 0
        out_path = tmp_path / "result.json"
        assert main([
            "solve", str(graph_path), "--variant", "independent",
            "-k", "10", "-o", str(out_path),
        ]) == 0
        captured = capsys.readouterr().out
        assert "cover C(S)" in captured
        payload = json.loads(out_path.read_text())
        assert payload["k"] == 10
        assert len(payload["retained"]) == 10

    def test_solve_threshold(self, stream_file, tmp_path, capsys):
        graph_path = tmp_path / "graph.json"
        main(["build-graph", str(stream_file), "--variant", "independent",
              "-o", str(graph_path)])
        assert main([
            "solve", str(graph_path), "--variant", "independent",
            "--threshold", "0.5",
        ]) == 0
        assert "cover C(S)" in capsys.readouterr().out

    def test_solve_requires_objective(self, stream_file, tmp_path, capsys):
        graph_path = tmp_path / "graph.json"
        main(["build-graph", str(stream_file), "--variant", "independent",
              "-o", str(graph_path)])
        code = main(["solve", str(graph_path), "--variant", "independent"])
        assert code == 2

    def test_auto_variant_message(self, stream_file, tmp_path, capsys):
        graph_path = tmp_path / "graph.json"
        main(["build-graph", str(stream_file), "-o", str(graph_path)])
        assert "variant selected from data" in capsys.readouterr().out

    def test_solve_rejects_k_and_threshold(
        self, stream_file, tmp_path, capsys
    ):
        graph_path = tmp_path / "graph.json"
        main(["build-graph", str(stream_file), "--variant", "independent",
              "-o", str(graph_path)])
        code = main([
            "solve", str(graph_path), "--variant", "independent",
            "-k", "5", "--threshold", "0.5",
        ])
        assert code == 1
        assert "mutually exclusive" in capsys.readouterr().err

    def test_solve_trace_one_event_per_iteration(
        self, stream_file, tmp_path, capsys
    ):
        graph_path = tmp_path / "graph.json"
        main(["build-graph", str(stream_file), "--variant", "independent",
              "-o", str(graph_path)])
        trace_path = tmp_path / "trace.jsonl"
        code = main([
            "solve", str(graph_path), "--variant", "independent",
            "-k", "8", "--trace", str(trace_path), "--metrics",
        ])
        assert code == 0
        events = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        iterations = [e for e in events if e["kind"] == "iteration"]
        assert len(iterations) == 8
        assert [e["iteration"] for e in iterations] == list(range(8))
        assert all("item" in e and "gain" in e for e in iterations)
        out = capsys.readouterr().out
        assert "written to" in out
        assert "solver.iterations" in out  # --metrics summary printed


class TestVersion:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestEncodeOnce:
    def test_build_graph_auto(self, stream_file, tmp_path, encodings):
        assert main([
            "build-graph", str(stream_file), "--variant", "auto",
            "-o", str(tmp_path / "graph.json"),
        ]) == 0
        assert len(encodings) == 1

    def test_stats(self, stream_file, encodings, capsys):
        assert main(["stats", "--clickstream", str(stream_file)]) == 0
        assert len(encodings) == 1


class TestPipelineCommand:
    def test_end_to_end(self, stream_file, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = main([
            "pipeline", str(stream_file), "-k", "10",
            "-o", str(out_path), "--show", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "achieved cover" in out
        assert "top retained items" in out
        assert json.loads(out_path.read_text())["k"] == 10

    def test_threshold_mode(self, stream_file, capsys):
        code = main([
            "pipeline", str(stream_file), "--threshold", "0.6",
            "--variant", "independent",
        ])
        assert code == 0


class TestStats:
    def test_dataset_registry(self, capsys):
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        for name in ("PE", "PF", "PM", "YC"):
            assert name in out

    def test_clickstream_stats(self, stream_file, capsys):
        assert main(["stats", "--clickstream", str(stream_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sessions"] > 0
        assert "recommended_variant" in payload


class TestErrors:
    def test_repro_errors_become_exit_code_one(self, tmp_path, capsys):
        # A clickstream with no purchases cannot be adapted.
        empty = tmp_path / "empty.jsonl"
        empty.write_text('{"session_id": "s", "clicks": ["x"]}\n')
        code = main(["pipeline", str(empty), "-k", "5"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestCheck:
    def test_differential_smoke_passes(self, capsys):
        code = main([
            "check", "--differential", "--smoke",
            "--rounds", "2", "--max-items", "32",
        ])
        captured = capsys.readouterr().out
        assert code == 0
        assert "differential:" in captured
        assert "OK" in captured

    def test_verbose_prints_progress(self, capsys):
        code = main([
            "check", "--differential", "--rounds", "1",
            "--max-items", "24", "--verbose",
        ])
        captured = capsys.readouterr().out
        assert code == 0
        assert "failure(s) so far" in captured

    def test_requires_differential_flag(self, capsys):
        code = main(["check"])
        assert code == 2
        assert "--differential" in capsys.readouterr().err

    def test_instances_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["check", "--differential", "--instances", "2"])
        assert exit_info.value.code == 2

    def test_every_preset_runs_on_one_engine(self, capsys, tmp_path):
        from repro.evaluation.fuzz import PRESETS

        code = main([
            "check", "--differential", "--resilience", "--serving",
            "--serving-chaos", "--fuzz", "--rounds", "2",
            "--max-items", "12", "--artifact-dir", str(tmp_path),
        ])
        captured = capsys.readouterr().out
        assert code == 0
        for name in PRESETS:
            assert f"{name}: 2 round(s) @ seed 0" in captured
        assert not list(tmp_path.iterdir())
