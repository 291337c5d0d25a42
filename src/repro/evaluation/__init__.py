"""Evaluation tooling: replay validation, metrics and ``repro check``."""

from .ascii_plot import bar_chart, figure_4c_plot, line_plot
from .audit import (
    InventoryAudit,
    LoadBearingRow,
    LostDemandRow,
    audit_retained_set,
)
from .curves import (
    DEFAULT_ALGORITHMS,
    coverage_curve,
    marginal_gain_profile,
    threshold_curve,
)
from .fuzz import (
    PRESETS,
    FuzzCase,
    FuzzFailure,
    FuzzReport,
    generate_case,
    replay_artifact,
    run_fuzz,
    shrink_case,
)
from .holdout import HoldoutReport, evaluate_holdout, split_clickstream
from .invariants import (
    INVARIANTS,
    Invariant,
    InvariantViolation,
    SolveRecord,
    check_record,
    compare_results,
    register_invariant,
)
from .metrics import (
    approximation_ratio,
    coverage_comparison,
    format_table,
    lift,
)
from .replay import ReplayReport, replay_match_rate, simulate_fulfillment

__all__ = [
    "DEFAULT_ALGORITHMS",
    "bar_chart",
    "figure_4c_plot",
    "line_plot",
    "HoldoutReport",
    "evaluate_holdout",
    "split_clickstream",
    "compare_results",
    "PRESETS",
    "FuzzCase",
    "FuzzFailure",
    "FuzzReport",
    "generate_case",
    "replay_artifact",
    "run_fuzz",
    "shrink_case",
    "INVARIANTS",
    "Invariant",
    "InvariantViolation",
    "SolveRecord",
    "check_record",
    "register_invariant",
    "InventoryAudit",
    "LoadBearingRow",
    "LostDemandRow",
    "ReplayReport",
    "audit_retained_set",
    "coverage_curve",
    "marginal_gain_profile",
    "threshold_curve",
    "approximation_ratio",
    "coverage_comparison",
    "format_table",
    "lift",
    "replay_match_rate",
    "simulate_fulfillment",
]
