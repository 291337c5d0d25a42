"""Ablation: naive vs accelerated greedy strategies.

Both implement Algorithm 1's selection rule; this bench quantifies the
design choice DESIGN.md calls out — how much the incremental
formulation saves over the paper's literal recomputation, at identical
output.
"""

import time

import pytest

from _reporting import register_report
from repro.core.greedy import greedy_solve
from repro.evaluation.metrics import format_table
from repro.workloads.graphs import random_preference_graph

N_ITEMS = 30_000
K = 300
STRATEGIES = ("naive", "accelerated")


@pytest.fixture(scope="module")
def graph():
    return random_preference_graph(N_ITEMS, seed=80)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_ablation_strategy_timing(benchmark, graph, strategy):
    result = benchmark.pedantic(
        lambda: greedy_solve(graph, k=K, variant="independent", strategy=strategy),
        rounds=3, iterations=1,
    )
    assert len(result.retained) == K


def test_ablation_strategy_table(benchmark, graph):
    rows = []
    covers = {}

    def measure_all():
        rows.clear()
        for strategy in STRATEGIES:
            start = time.perf_counter()
            result = greedy_solve(
                graph, k=K, variant="independent", strategy=strategy
            )
            elapsed = time.perf_counter() - start
            covers[strategy] = result.cover
            rows.append(
                {
                    "strategy": strategy,
                    "runtime_s": elapsed,
                    "gain_evaluations": result.gain_evaluations,
                    "cover": result.cover,
                }
            )
        return rows

    benchmark.pedantic(measure_all, rounds=1, iterations=1)

    text = format_table(
        rows,
        title=(
            f"Ablation: solver strategies (n={N_ITEMS}, k={K}, "
            f"Independent) — identical covers, very different work"
        ),
    )
    register_report(
        "Ablation: strategies", text, filename="ablation_strategies.txt"
    )

    assert covers["accelerated"] == pytest.approx(covers["naive"], abs=1e-9)
    by_strategy = {row["strategy"]: row for row in rows}
    # Accelerated evaluates n gains once; naive evaluates about n*k.
    assert (
        by_strategy["accelerated"]["gain_evaluations"]
        < by_strategy["naive"]["gain_evaluations"] / 10
    )
