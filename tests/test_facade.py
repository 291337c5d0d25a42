"""Tests for the unified ``repro.solve`` facade."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import repro
from repro import SolverError, SolverTrace, solve
from repro.core.csr import as_csr
from repro.core.greedy import greedy_solve
from repro.extensions.capacity import capacity_greedy_solve
from repro.extensions.quotas import quota_greedy_solve


class TestDispatch:
    def test_exported_from_package_root(self):
        assert repro.solve is solve
        assert "solve" in repro.__all__

    def test_k_dispatches_to_greedy(self, small_graph, variant):
        result = solve(small_graph, variant=variant, k=4)
        direct = greedy_solve(small_graph, k=4, variant=variant)
        assert result.retained == direct.retained
        assert result.cover == pytest.approx(direct.cover)
        assert result.telemetry is not None

    def test_threshold_dispatch(self, small_graph, variant):
        result = solve(small_graph, variant=variant, threshold=0.5)
        assert result.strategy == "greedy-threshold"
        assert result.cover >= 0.5
        assert result.telemetry is not None

    def test_strategy_forwarded(self, small_graph, variant):
        result = solve(small_graph, variant=variant, k=3, strategy="naive")
        assert result.strategy == "greedy-naive"

    def test_must_retain_and_exclude(self, small_graph, variant):
        csr = as_csr(small_graph)
        keep, drop = csr.items[0], csr.items[1]
        result = solve(
            small_graph, variant=variant, k=4,
            constraints={"must_retain": [keep], "exclude": [drop]},
        )
        assert keep in result.retained
        assert drop not in result.retained

    def test_capacity_dispatch(self, small_graph, variant):
        csr = as_csr(small_graph)
        costs = {item: 1.0 + (i % 3) for i, item in enumerate(csr.items)}
        result = solve(
            small_graph, variant=variant,
            constraints={"budget": 5.0, "costs": costs},
        )
        direct = capacity_greedy_solve(
            small_graph, budget=5.0, variant=variant, costs=costs
        )
        assert result.retained == direct.retained
        assert sum(costs[item] for item in result.retained) <= 5.0
        assert result.prefix_covers is not None
        assert result.telemetry is not None

    def test_quota_dispatch(self, small_graph, variant):
        csr = as_csr(small_graph)
        categories = {
            item: ("even" if i % 2 == 0 else "odd")
            for i, item in enumerate(csr.items)
        }
        quotas = {"even": 2, "odd": 2}
        result = solve(
            small_graph, variant=variant, k=4,
            constraints={"categories": categories, "quotas": quotas},
        )
        direct = quota_greedy_solve(
            small_graph, variant=variant, categories=categories,
            quotas=quotas, k=4,
        )
        assert result.retained == direct.retained
        evens = sum(1 for item in result.retained
                    if categories[item] == "even")
        assert evens <= 2

    def test_revenue_dispatch(self, small_graph, variant):
        csr = as_csr(small_graph)
        revenues = {item: 1.0 + i for i, item in enumerate(csr.items)}
        result = solve(
            small_graph, variant=variant, k=3,
            objective={"revenue": revenues},
        )
        assert result.strategy.startswith("revenue-")
        assert len(result.retained) == 3

    def test_keyword_only(self, small_graph):
        with pytest.raises(TypeError):
            solve(small_graph, "independent", 3)  # noqa: deliberate misuse


class TestTelemetry:
    def test_metrics_only_by_default(self, small_graph, variant):
        result = solve(small_graph, variant=variant, k=3)
        telemetry = result.telemetry
        assert telemetry.trace is None
        assert telemetry.events == []
        counters = telemetry.metrics.to_dict()["counters"]
        assert counters["facade.calls"] == 1
        assert telemetry.metrics.timer("facade.solve").count == 1

    def test_trace_attached_when_given(self, small_graph, variant):
        tracer = SolverTrace()
        result = solve(small_graph, variant=variant, k=5, tracer=tracer)
        assert result.telemetry.trace is tracer
        assert result.telemetry.metrics is tracer.metrics
        assert len(tracer.events_of("iteration")) == 5

    def test_trace_iteration_count_matches_k_all_paths(
        self, small_graph, variant
    ):
        csr = as_csr(small_graph)
        costs = {item: 1.0 for item in csr.items}
        categories = {item: "all" for item in csr.items}
        # (kwargs, expected iteration events); seeded must_retain items
        # are committed before the greedy loop, so they emit none.
        cases = [
            (dict(k=4), 4),
            (dict(k=4, constraints={"must_retain": [csr.items[0]]}), 3),
            (dict(constraints={"budget": 4.0, "costs": costs}), 4),
            (dict(k=4, constraints={"categories": categories,
                                    "quotas": {"all": 4}}), 4),
            (dict(k=4, objective={"revenue": {i: 1.0 for i in csr.items}}),
             4),
        ]
        for kwargs, expected in cases:
            tracer = SolverTrace()
            result = solve(
                small_graph, variant=variant, tracer=tracer, **kwargs
            )
            iterations = tracer.events_of("iteration")
            assert len(result.retained) == 4, kwargs
            assert len(iterations) == expected, kwargs


class TestValidation:
    def test_k_and_threshold_rejected(self, small_graph):
        with pytest.raises(SolverError, match="mutually exclusive"):
            solve(small_graph, variant="independent", k=3, threshold=0.5)

    def test_no_stopping_rule_rejected(self, small_graph):
        with pytest.raises(SolverError, match="stopping rule"):
            solve(small_graph, variant="independent")

    def test_unknown_constraint_key(self, small_graph):
        with pytest.raises(SolverError, match="bogus"):
            solve(small_graph, variant="independent", k=3,
                  constraints={"bogus": 1})

    def test_unknown_objective_key(self, small_graph):
        with pytest.raises(SolverError, match="objective"):
            solve(small_graph, variant="independent", k=3,
                  objective={"profit": {}})

    def test_budget_requires_costs(self, small_graph):
        with pytest.raises(SolverError, match="budget"):
            solve(small_graph, variant="independent",
                  constraints={"budget": 2.0})

    def test_budget_excludes_k(self, small_graph):
        csr = as_csr(small_graph)
        costs = {item: 1.0 for item in csr.items}
        with pytest.raises(SolverError, match="budget"):
            solve(small_graph, variant="independent", k=3,
                  constraints={"budget": 2.0, "costs": costs})

    def test_threshold_rejects_constraints(self, small_graph):
        csr = as_csr(small_graph)
        with pytest.raises(SolverError, match="threshold"):
            solve(small_graph, variant="independent", threshold=0.5,
                  constraints={"exclude": [csr.items[0]]})

    def test_quotas_require_categories(self, small_graph):
        with pytest.raises(SolverError, match="quota"):
            solve(small_graph, variant="independent", k=3,
                  constraints={"quotas": {"a": 1}})

    @pytest.mark.parametrize("stop", [{"k": True}, {"threshold": True}])
    def test_bool_stopping_rule_rejected(self, small_graph, variant, stop):
        # True == 1, yet it would fingerprint and serialize as a
        # different request than k=1 (or silently solve to cover 1.0).
        with pytest.raises(SolverError, match="bool"):
            solve(small_graph, variant=variant, **stop)

    def test_numpy_integer_k_accepted(self, small_graph, variant):
        result = solve(small_graph, variant=variant, k=np.int64(3))
        assert len(result.retained) == 3
        assert result.to_dict()["k"] == 3


class TestKeywordOnlyMigration:
    def test_legacy_positional_calls_warn_but_work(self, figure1):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            legacy = greedy_solve(figure1, 2, "normalized")
        assert any(
            issubclass(w.category, DeprecationWarning) for w in caught
        )
        modern = greedy_solve(figure1, k=2, variant="normalized")
        assert legacy.retained == modern.retained
        assert legacy.cover == pytest.approx(modern.cover)

    def test_keyword_calls_do_not_warn(self, figure1):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            greedy_solve(figure1, k=2, variant="normalized")
        assert not any(
            issubclass(w.category, DeprecationWarning) for w in caught
        )

    def test_positional_and_keyword_conflict_is_error(self, figure1):
        with pytest.raises(TypeError, match="multiple values"):
            greedy_solve(figure1, 2, k=3, variant="normalized")

    def test_too_many_positionals_is_error(self, figure1):
        with pytest.raises(TypeError):
            greedy_solve(figure1, 2, "normalized", "naive", None)


class TestExtensionResultNormalization:
    def test_extension_results_match_greedy_shape(self, small_graph, variant):
        """Capacity/quota/revenue results carry the same metadata as
        ``greedy_solve``: populated ``prefix_covers`` (monotone, ending at
        the achieved cover) and real timings."""
        csr = as_csr(small_graph)
        costs = {item: 1.0 for item in csr.items}
        categories = {item: "all" for item in csr.items}
        results = [
            solve(small_graph, variant=variant,
                  constraints={"budget": 4.0, "costs": costs}),
            solve(small_graph, variant=variant, k=4,
                  constraints={"categories": categories,
                               "quotas": {"all": 4}}),
            solve(small_graph, variant=variant, k=4,
                  objective={"revenue": {i: 1.0 for i in csr.items}}),
        ]
        for result in results:
            assert result.prefix_covers is not None
            prefix = list(result.prefix_covers)
            assert len(prefix) == len(result.retained) + 1
            assert prefix[0] == 0.0
            assert prefix == sorted(prefix)
            assert prefix[-1] == pytest.approx(result.cover)
            assert result.wall_time_s > 0
            assert result.gain_evaluations > 0
