"""Tests of the benchmark itself, on its tiny inputs.

Run from the repository root::

    python -m pytest perfbench -q

They check that every declared metric is printed with its unit, that
every oracle passes on the program as it is and fires on a deliberately
corrupted answer, that the exact counts repeat for one seed, and that
the benchmark refuses to run without the program's source.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import host  # noqa: E402
import run as bench_run  # noqa: E402
import workloads as W  # noqa: E402
from tracing import Tracer, unit_breakdown  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

EXACT_COUNTS = (
    "clickstream.io.records",
    "core.csr.from_preference_graph_calls",
    "core.greedy.gain_evaluations",
    "clickstream.drift.delta_changes",
)


def run_cli(workload: str, trace: int, *, seed: int = 3, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(completed) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_declared_metrics_and_workloads_match_the_code():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(
        W.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(
        W.PER_LAYER
    )
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(W.WORKLOADS)
    assert list(bench_run.WORKLOAD_NAMES) == list(W.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(W.WORKLOADS))
def test_tiny_run_prints_every_metric_and_passes_every_oracle(workload, trace):
    result = result_of(run_cli(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", list(W.WORKLOADS))
def test_exact_counts_repeat_for_one_seed(workload):
    first, second = (result_of(run_cli(workload, 1, seed=5)) for _ in range(2))
    assert [first["metrics"][c]["value"] for c in EXACT_COUNTS] == [
        second["metrics"][c]["value"] for c in EXACT_COUNTS
    ]


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    completed = run_cli("pipeline_pe", 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


# ----------------------------------------------------------------------
# Each oracle fires on a deliberately corrupted answer
# ----------------------------------------------------------------------
def tiny(workload_cls, workdir: Path):
    workload = workload_cls(W.SIZES["tiny"])
    workload.generate(3, workdir)
    return workload, W.Run(3, tracing=False)


def test_pipeline_pass_oracles_fire(tmp_path):
    workload, run = tiny(W.PipelinePE, tmp_path)
    workload.setup(run, tmp_path)
    report = workload.one_pass(run)
    assert run.failed == 0
    result = report.result
    reordered = dataclasses.replace(result, retained=result.retained[::-1])
    workload.check_pass(run, dataclasses.replace(report, result=reordered))
    assert run.failed == 1  # same set, so only the retained-list oracle
    inflated = dataclasses.replace(result, cover=result.cover + 1e-6)
    workload.check_pass(run, dataclasses.replace(report, result=inflated))
    assert run.failed == 2


def test_solve_pass_oracles_fire(tmp_path):
    workload, run = tiny(W.Solve1M, tmp_path)
    workload.setup(run, tmp_path)
    result, snapshot = workload.one_pass(run)
    assert run.failed == 0
    reordered = dataclasses.replace(result, retained=result.retained[::-1])
    workload.check_pass(run, (reordered, snapshot))
    assert run.failed == 1
    inflated = dataclasses.replace(result, cover=result.cover + 1e-6)
    workload.check_pass(run, (inflated, snapshot))
    assert run.failed == 2


def one_ulp_high(method):
    def corrupted(self, *args):
        return np.nextafter(method(self, *args), 2.0)
    return corrupted


def measure(workload, run, workdir: Path, seconds: float = 0.5) -> None:
    asyncio.run(W._run(workload, run, workdir, "measure", seconds,
                       time.perf_counter()))


@pytest.mark.parametrize("workload_cls", list(W.WORKLOADS.values()))
def test_read_oracle_fires(tmp_path, monkeypatch, workload_cls):
    workload, run = tiny(workload_cls, tmp_path)
    monkeypatch.setattr(
        W.SolutionSnapshot, "covered_probability_many",
        one_ulp_high(W.SolutionSnapshot.covered_probability_many),
    )
    measure(workload, run, tmp_path)
    assert run.failed > 0
    assert any("offline item_coverage" in m for m in run.messages)
    if workload_cls is W.ServePE:
        assert any("confirming read" in m for m in run.messages)


def test_stream_oracles_fire(tmp_path, monkeypatch):
    workload, run = tiny(W.ServePE, tmp_path)
    measure(workload, run, tmp_path)
    assert run.failed == 0
    graph = workload.runtime.service.graph
    source, target, weight = next(iter(graph.edges()))
    graph.add_edge(source, target, weight / 2)
    workload.finish(run)
    assert run.failed == 1
    assert "streamed graph differs" in run.messages[-1]

    solve = W.repro.solve

    def inflated_solve(*args, **kwargs):
        result = solve(*args, **kwargs)
        return dataclasses.replace(result, cover=result.cover + 1e-6)

    monkeypatch.setattr(W.repro, "solve", inflated_solve)
    graph.add_edge(source, target, weight)
    workload.finish(run)
    assert run.failed == 2
    assert "cold repro.solve" in run.messages[-1]


def test_count_and_fingerprint_oracles_fire():
    run = W.Run(1, tracing=False)
    run.count("core.greedy.gain_evaluations", 10)
    run.count("core.greedy.gain_evaluations", 10)
    assert run.failed == 0
    run.count("core.greedy.gain_evaluations", 11)
    assert run.failed == 1
    same = {"selection": "ab", "counts": {"clickstream.io.records": 5}}
    other = {"selection": "ab", "counts": {"clickstream.io.records": 6}}
    assert bench_run.mismatches(same, dict(same)) == []
    assert bench_run.mismatches(same, other) == ["clickstream.io.records"]


# ----------------------------------------------------------------------
# Tracing and host record
# ----------------------------------------------------------------------
def test_self_time_excludes_child_spans():
    spans = [
        {"trace": 1, "id": 1, "parent": None, "name": "pass",
         "start": 0.0, "end": 10.0},
        {"trace": 1, "id": 2, "parent": 1, "name": "a",
         "start": 1.0, "end": 5.0},
        {"trace": 1, "id": 3, "parent": 2, "name": "b",
         "start": 2.0, "end": 3.0},
        {"trace": 1, "id": 4, "parent": 1, "name": "b",
         "start": 6.0, "end": 8.0},
    ]
    (unit,) = unit_breakdown(spans)["pass"]
    assert unit["pass"] == {"self_s": 4.0, "calls": 1}
    assert unit["a"] == {"self_s": 3.0, "calls": 1}
    assert unit["b"] == {"self_s": 3.0, "calls": 2}


def test_traced_unit_wraps_program_calls_and_restores_them():
    from repro.core.csr import CSRGraph
    from repro.examples_data import figure1_graph

    original = CSRGraph.__dict__["from_preference_graph"]
    tracer = Tracer()
    with tracer.unit("pass", traced=True):
        assert CSRGraph.__dict__["from_preference_graph"] is not original
        CSRGraph.from_preference_graph(figure1_graph())
    assert CSRGraph.__dict__["from_preference_graph"] is original
    with tracer.unit("pass", traced=False):
        CSRGraph.from_preference_graph(figure1_graph())
    names = [record["name"] for record in tracer.spans]
    assert names == ["core.csr.from_preference_graph", "pass"]
    assert len({record["trace"] for record in tracer.spans}) == 1


def test_host_probe_is_independent_of_the_program():
    source = Path(host.__file__).read_text()
    assert "import repro" not in source and "from repro" not in source
    assert host.probe_ms() > 0
    assert {"cpus", "python", "numpy"} <= set(host.describe())
