"""The paper's experiments as library calls.

Each function reproduces the data series behind one table or figure of
the paper's evaluation section and returns plain list-of-dict rows.
The pytest benchmarks in ``benchmarks/`` wrap these with timing and
assertions; ``examples/reproduce_figures.py`` prints them interactively;
they are equally usable from a notebook or downstream analysis.

All functions are deterministic given their seed arguments.
"""

from __future__ import annotations

import math
import time
from typing import List, Sequence

from ._rng import SeedLike
from .adaptation.engine import build_preference_graph
from .clickstream.generator import ConsumerModel, ShopperConfig
from .core.baselines import (
    random_solve,
    top_k_coverage_solve,
    top_k_coverage_threshold,
    top_k_weight_solve,
    top_k_weight_threshold,
)
from .core.bruteforce import brute_force_solve
from .core.greedy import greedy_solve
from .core.parallel import calibrate_cost_model, speedup_curve
from .core.threshold import greedy_threshold_solve
from .reductions.bounds import best_known_ratio, greedy_ratio_bound
from .workloads.datasets import dataset_table
from .workloads.graphs import random_preference_graph, small_dense_graph


# ----------------------------------------------------------------------
# Table 1
# ----------------------------------------------------------------------
def table1_measured_rows(
    *, n: int = 12, seeds: Sequence[int] = (0, 1, 2)
) -> List[dict]:
    """Greedy bound / best-known / measured greedy-vs-OPT ratio per k."""
    rows = []
    for k in range(1, n + 1):
        worst = 1.0
        for seed in seeds:
            graph = small_dense_graph(n, variant="normalized", seed=seed)
            optimal = brute_force_solve(graph, k=k, variant="normalized").cover
            achieved = greedy_solve(graph, k=k, variant="normalized").cover
            if optimal > 0:
                worst = min(worst, achieved / optimal)
        best, method = best_known_ratio(k, n)
        rows.append(
            {
                "k/n": k / n,
                "greedy_bound": greedy_ratio_bound(k, n),
                "best_known": best,
                "best_known_method": method,
                "greedy_measured": worst,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Table 2
# ----------------------------------------------------------------------
def table2_rows(*, scale: float = 0.001, seed: SeedLike = 0) -> List[dict]:
    """Paper vs generated dataset statistics (delegates to workloads)."""
    return dataset_table(scale=scale, seed=seed)


# ----------------------------------------------------------------------
# Figure 4a
# ----------------------------------------------------------------------
def fig4a_rows(
    *,
    n_items: int = 16,
    k_values: Sequence[int] = (2, 4, 6, 8, 10),
    seed: SeedLike = 20,
    max_subsets: int = 50_000_000,
) -> List[dict]:
    """Greedy vs brute-force cover on a YC-style Normalized subset."""
    model = ConsumerModel(
        ShopperConfig(
            n_items=n_items, behavior="normalized", cluster_size=4,
            zipf_exponent=0.9,
        ),
        seed=seed,
    )
    stream = model.generate(30_000, seed=int(seed) + 1)
    graph = build_preference_graph(stream, "normalized")
    rows = []
    for k in k_values:
        greedy = greedy_solve(graph, k=k, variant="normalized")
        optimal = brute_force_solve(
            graph, k=k, variant="normalized", max_subsets=max_subsets
        )
        rows.append(
            {
                "k": k,
                "greedy_cover": greedy.cover,
                "optimal_cover": optimal.cover,
                "ratio": (
                    greedy.cover / optimal.cover if optimal.cover else 1.0
                ),
            }
        )
    return rows


def fig4a_milp_rows(
    *,
    n_items: int = 200,
    k_values: Sequence[int] = (10, 40, 80, 120),
    seed: SeedLike = 22,
) -> List[dict]:
    """Greedy vs the exact MILP optimum beyond brute-force sizes."""
    from .reductions.exact_milp import milp_solve_npc

    graph = random_preference_graph(
        n_items, variant="normalized", seed=seed
    )
    rows = []
    for k in k_values:
        exact = milp_solve_npc(graph, k=k)
        greedy = greedy_solve(graph, k=k, variant="normalized")
        rows.append(
            {
                "k": k,
                "greedy_cover": greedy.cover,
                "exact_cover": exact.cover,
                "ratio": greedy.cover / exact.cover,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Figure 4b
# ----------------------------------------------------------------------
def fig4b_rows(
    *, sizes: Sequence[int] = (10, 12, 14, 16, 18), seed_base: int = 30
) -> List[dict]:
    """Greedy vs BF runtimes (Normalized, k = n/2)."""
    rows = []
    for n in sizes:
        graph = small_dense_graph(
            n, variant="normalized", seed=seed_base + n
        )
        k = n // 2
        start = time.perf_counter()
        greedy = greedy_solve(graph, k=k, variant="normalized")
        greedy_time = time.perf_counter() - start
        start = time.perf_counter()
        exact = brute_force_solve(
            graph, k=k, variant="normalized", max_subsets=100_000_000
        )
        bf_time = time.perf_counter() - start
        rows.append(
            {
                "n": n,
                "k": k,
                "subsets": math.comb(n, k),
                "greedy_s": greedy_time,
                "bf_s": bf_time,
                "bf/greedy": bf_time / greedy_time if greedy_time else 0.0,
                "cover_ratio": greedy.cover / exact.cover,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Figure 4c
# ----------------------------------------------------------------------
def fig4c_rows(
    graph=None,
    *,
    scale: float = 0.05,
    fractions: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
    seed: SeedLike = 40,
    random_seed: SeedLike = 41,
) -> List[dict]:
    """Coverage of all competitors on the YC stand-in (Independent)."""
    if graph is None:
        from .workloads.datasets import build_dataset

        stream, _model = build_dataset("YC", scale=scale, seed=seed)
        graph = build_preference_graph(stream, "independent").to_csr()
    n = graph.n_items
    rows = []
    for fraction in fractions:
        k = max(1, int(n * fraction))
        rows.append(
            {
                "k/n": fraction,
                "Greedy": greedy_solve(graph, k=k, variant="independent").cover,
                "TopK-W": top_k_weight_solve(
                    graph, k=k, variant="independent"
                ).cover,
                "TopK-C": top_k_coverage_solve(
                    graph, k=k, variant="independent"
                ).cover,
                "Random": random_solve(
                    graph, k=k, variant="independent", seed=random_seed,
                    draws=10,
                ).cover,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Figure 4d
# ----------------------------------------------------------------------
def fig4d_rows(
    *,
    sizes: Sequence[int] = (10_000, 50_000, 100_000, 250_000),
    k_divisor: int = 200,
    seed: SeedLike = 50,
) -> List[dict]:
    """Scalability: accelerated greedy runtime per n."""
    rows = []
    for n in sizes:
        graph = random_preference_graph(n, seed=seed)
        k = n // k_divisor
        start = time.perf_counter()
        accelerated = greedy_solve(
            graph, k=k, variant="independent", strategy="accelerated"
        )
        accel_time = time.perf_counter() - start
        rows.append(
            {
                "n": n,
                "k": k,
                "edges": graph.n_edges,
                "accelerated_s": accel_time,
                "cover": accelerated.cover,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Figure 4e
# ----------------------------------------------------------------------
def fig4e_rows(
    *,
    n_items: int = 200_000,
    k: int = 100,
    workers: Sequence[int] = (1, 4, 8, 16, 32),
    seed: SeedLike = 60,
) -> List[dict]:
    """Modeled parallel runtimes/speedups (work-span cost model)."""
    graph = random_preference_graph(n_items, seed=seed)
    model = calibrate_cost_model(graph, k, "independent")
    return speedup_curve(model, workers=workers)


# ----------------------------------------------------------------------
# Figure 4f
# ----------------------------------------------------------------------
def fig4f_rows(
    graph=None,
    *,
    scale: float = 0.05,
    thresholds: Sequence[float] = (0.5, 0.6, 0.7, 0.8, 0.9),
    seed: SeedLike = 70,
) -> List[dict]:
    """Complementary-problem set sizes: greedy vs adapted baselines."""
    if graph is None:
        from .workloads.datasets import build_dataset

        stream, _model = build_dataset("YC", scale=scale, seed=seed)
        graph = build_preference_graph(stream, "independent").to_csr()
    rows = []
    for threshold in thresholds:
        greedy = greedy_threshold_solve(
            graph, threshold=threshold, variant="independent"
        )
        rows.append(
            {
                "threshold": threshold,
                "Greedy_items": greedy.k,
                "TopK-W_items": top_k_weight_threshold(
                    graph, threshold=threshold, variant="independent"
                ).k,
                "TopK-C_items": top_k_coverage_threshold(
                    graph, threshold=threshold, variant="independent"
                ).k,
                "greedy_cover": greedy.cover,
            }
        )
    return rows
