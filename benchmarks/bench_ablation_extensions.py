"""Ablation: the future-work extensions against their plain counterparts.

* revenue-aware greedy vs count-based greedy, scored in expected revenue;
* capacity (knapsack) greedy vs cardinality greedy at equal average cost.
"""

import numpy as np
import pytest

from _reporting import register_report
from repro.core.greedy import greedy_solve
from repro.evaluation.metrics import format_table
from repro.extensions.capacity import budget_spent, capacity_greedy_solve
from repro.extensions.revenue import expected_revenue, revenue_greedy_solve
from repro.workloads.graphs import random_preference_graph

N_ITEMS = 5_000
K = 200


@pytest.fixture(scope="module")
def graph():
    return random_preference_graph(N_ITEMS, seed=110)


def test_ablation_revenue(benchmark, graph):
    rng = np.random.default_rng(111)
    revenues = rng.lognormal(mean=2.0, sigma=1.0, size=N_ITEMS)
    plain = greedy_solve(graph, k=K, variant="independent")
    aware = benchmark.pedantic(
        lambda: revenue_greedy_solve(graph, k=K, variant="independent", revenues=revenues),
        rounds=3, iterations=1,
    )
    plain_revenue = expected_revenue(
        graph, plain.retained, "independent", revenues
    )
    rows = [
        {
            "selector": "count-based greedy",
            "expected_revenue": plain_revenue,
            "cover": plain.cover,
        },
        {
            "selector": "revenue-aware greedy",
            "expected_revenue": aware.cover,
            "cover": float("nan"),
        },
    ]
    text = format_table(
        rows,
        title=f"Ablation: revenue extension (n={N_ITEMS}, k={K}, "
              f"lognormal revenues)",
        float_format="{:.2f}",
    )
    register_report(
        "Ablation: revenue", text, filename="ablation_revenue.txt"
    )
    # Optimizing the revenue objective cannot lose to ignoring it.
    assert aware.cover >= plain_revenue - 1e-9


def test_ablation_capacity(benchmark, graph):
    rng = np.random.default_rng(113)
    costs = rng.uniform(0.5, 2.0, N_ITEMS)
    budget = float(K)  # equals the cardinality budget at unit avg cost
    capped = benchmark.pedantic(
        lambda: capacity_greedy_solve(graph, budget=budget, variant="independent", costs=costs),
        rounds=1, iterations=1,
    )
    plain = greedy_solve(graph, k=K, variant="independent")
    plain_cost = budget_spent(graph, plain.retained, costs)
    rows = [
        {
            "selector": "cardinality greedy (cost-blind)",
            "items": plain.k,
            "storage_spent": plain_cost,
            "cover": plain.cover,
        },
        {
            "selector": "capacity greedy (cost-aware)",
            "items": capped.k,
            "storage_spent": budget_spent(graph, capped.retained, costs),
            "cover": capped.cover,
        },
    ]
    text = format_table(
        rows,
        title=f"Ablation: storage-budget extension "
              f"(budget={budget:.0f} units, heterogeneous costs)",
    )
    register_report(
        "Ablation: capacity", text, filename="ablation_capacity.txt"
    )
    # The cost-aware selection must respect the budget...
    assert budget_spent(graph, capped.retained, costs) <= budget + 1e-9
    # ...and with heterogeneous costs typically packs more items in.
    assert capped.k >= plain.k - 5
