"""Extensions implementing the paper's stated future-work directions."""

from .capacity import budget_spent, capacity_greedy_solve
from .quotas import category_counts, quota_greedy_solve
from .revenue import (
    expected_revenue,
    revenue_greedy_solve,
    revenue_scaled_graph,
)

__all__ = [
    "budget_spent",
    "capacity_greedy_solve",
    "category_counts",
    "expected_revenue",
    "quota_greedy_solve",
    "revenue_greedy_solve",
    "revenue_scaled_graph",
]
