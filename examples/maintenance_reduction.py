"""Scenario 3 (paper intro): periodic disposal of low-value items.

Companies periodically dispose of a small percentage of items to reduce
data-maintenance cost.  "Drop the worst sellers" is tempting but wrong:
an unpopular item may be the only acceptable alternative for popular
requests.  This example retains 95% of a Fashion catalog (PF stand-in),
compares what greedy drops vs what the sales-rank policy drops, and then
*maintains* the selection as item popularity drifts week over week —
the paper's stated future-work direction: an ``AssortmentService`` takes
each week's ``GraphDelta`` and serves a cold re-solve of the updated
graph.

Run:  python examples/maintenance_reduction.py
"""

import numpy as np

from repro import greedy_solve, top_k_weight_solve
from repro.adaptation import build_preference_graph
from repro.clickstream.drift import GraphDelta
from repro.serving import AssortmentService
from repro.workloads.datasets import build_dataset

KEEP_FRACTION = 0.95


def main() -> None:
    print("simulating Fashion clickstream (PF stand-in)...")
    clickstream, _population = build_dataset("PF", scale=0.0008, seed=3)
    graph = build_preference_graph(clickstream, "independent")
    n = graph.n_items
    keep = int(n * KEEP_FRACTION)
    print(f"  catalog {n:,} items; disposing of {n - keep} ({n - keep} = 5%)")

    greedy = greedy_solve(graph, k=keep, variant="independent")
    naive = top_k_weight_solve(graph, k=keep, variant="independent")
    print(f"\ngreedy keeps  : cover = {greedy.cover:.4f}")
    print(f"sales-rank    : cover = {naive.cover:.4f}")

    dropped_by_greedy = set(graph.items()) - set(greedy.retained)
    dropped_by_naive = set(graph.items()) - set(naive.retained)
    saved = dropped_by_naive - dropped_by_greedy
    print(
        f"\n{len(saved)} low-selling items the sales-rank policy would "
        f"discard are kept by greedy because they cover other demand:"
    )
    for item in sorted(saved, key=str)[:5]:
        in_weight = sum(
            graph.node_weight(src) * w
            for src, w in graph.in_neighbors(item).items()
        )
        print(
            f"  {item}: own share {graph.node_weight(item):.5f}, "
            f"covers {in_weight:.5f} of other items' demand"
        )

    # --- Maintenance across popularity drift -----------------------
    print("\nsimulating 4 weeks of popularity drift "
          "(served after each week's delta vs from-scratch):")
    service = AssortmentService(graph, variant="independent", k=keep)
    served = service.ensure()
    rng = np.random.default_rng(0)
    items = list(graph.items())
    for week in range(1, 5):
        # Shift a little popularity mass between random item pairs.
        weights = {}
        for _ in range(5):
            a, b = rng.choice(len(items), size=2, replace=False)
            item_a, item_b = items[a], items[b]
            weight_a = weights.get(item_a, graph.node_weight(item_a))
            weight_b = weights.get(item_b, graph.node_weight(item_b))
            weights[item_a] = weight_a * 0.9
            weights[item_b] = weight_b + weight_a * 0.1
        previous = set(served.retained)
        served = service.apply_delta(
            GraphDelta(node_weights=weights, sequence=week)
        )
        fresh = greedy_solve(service.graph, k=keep, variant="independent")
        assert served.retained == fresh.retained
        swapped = len(set(served.retained) - previous)
        print(
            f"  week {week}: served cover = {served.cover:.4f}, "
            f"{swapped} item(s) swapped into the kept set"
        )

if __name__ == "__main__":
    main()
