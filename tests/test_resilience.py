"""Tests for the resilience subsystem: checkpoints, guards, faults."""

import json

import pytest

from repro.core.csr import as_csr
from repro.core.gain import GreedyState
from repro.core.greedy import greedy_solve
from repro.core.threshold import greedy_threshold_solve
from repro.errors import ReproError, SolverError, SolverInterrupted
from repro.resilience import (
    CHECKPOINT_VERSION,
    Checkpointer,
    FaultInjector,
    RunGuard,
    coerce_checkpointer,
    current_rss_mb,
    inject_faults,
    solve_context,
)
from repro.resilience.checkpoint import order_crc
from repro.resilience.faults import InjectedCrash, active_faults
from repro.workloads.graphs import random_preference_graph


@pytest.fixture
def graph():
    return random_preference_graph(40, variant="independent", seed=42)


def _state_with(graph, nodes):
    state = GreedyState(as_csr(graph), "independent")
    for node in nodes:
        state.add_node(node)
    return state


class TestSolveContext:
    def test_deterministic(self, graph):
        csr = as_csr(graph)
        assert solve_context(csr, "independent") == solve_context(
            csr, "independent"
        )

    def test_varies_with_variant(self, graph):
        csr = as_csr(graph)
        assert solve_context(csr, "independent") != solve_context(
            csr, "normalized"
        )

    def test_varies_with_graph(self, graph):
        other = random_preference_graph(
            40, variant="independent", seed=43
        )
        assert solve_context(as_csr(graph), "independent") != (
            solve_context(as_csr(other), "independent")
        )

    def test_varies_with_constraints(self, graph):
        import numpy as np

        csr = as_csr(graph)
        plain = solve_context(csr, "independent")
        seeded = solve_context(
            csr, "independent", seed_indices=np.array([1, 2])
        )
        excluded = solve_context(
            csr, "independent",
            exclude_indices=np.array([3]),
        )
        assert len({plain, seeded, excluded}) == 3


class TestCheckpointer:
    def test_validation(self, tmp_path):
        with pytest.raises(ReproError, match="every_rounds"):
            Checkpointer(tmp_path, every_rounds=0)
        with pytest.raises(ReproError, match="every_s"):
            Checkpointer(tmp_path, every_s=0)
        with pytest.raises(ReproError, match="keep"):
            Checkpointer(tmp_path, keep=0)

    def test_save_load_roundtrip(self, graph, tmp_path):
        csr = as_csr(graph)
        context = solve_context(csr, "independent")
        state = _state_with(graph, [3, 1, 7])
        ckpt = Checkpointer(tmp_path)
        assert ckpt.save(state, context)
        snapshot = ckpt.load(context, n_items=csr.n_items)
        assert snapshot is not None
        assert snapshot.order == [3, 1, 7]
        assert snapshot.epoch == 3
        assert snapshot.cover == pytest.approx(float(state.cover))
        assert snapshot.digest == order_crc([3, 1, 7])

    def test_maybe_save_respects_cadence(self, graph, tmp_path):
        csr = as_csr(graph)
        context = solve_context(csr, "independent")
        ckpt = Checkpointer(tmp_path, every_rounds=3)
        ckpt.begin()
        state = GreedyState(csr, "independent")
        saved = []
        for node in range(6):
            state.add_node(node)
            saved.append(ckpt.maybe_save(state, context))
        assert saved == [False, False, True, False, False, True]
        assert ckpt.written == 2

    def test_load_prefers_newest(self, graph, tmp_path):
        csr = as_csr(graph)
        context = solve_context(csr, "independent")
        ckpt = Checkpointer(tmp_path)
        ckpt.save(_state_with(graph, [3]), context)
        ckpt.save(_state_with(graph, [3, 1]), context)
        assert ckpt.load(context).epoch == 2

    def test_corrupt_newest_falls_back(self, graph, tmp_path):
        csr = as_csr(graph)
        context = solve_context(csr, "independent")
        ckpt = Checkpointer(tmp_path)
        ckpt.save(_state_with(graph, [3]), context)
        ckpt.save(_state_with(graph, [3, 1]), context)
        newest = sorted(tmp_path.glob("ckpt-*"))[-1]
        newest.write_text("{truncated")
        snapshot = ckpt.load(context)
        assert snapshot.epoch == 1
        assert snapshot.order == [3]

    def test_foreign_context_ignored(self, graph, tmp_path):
        csr = as_csr(graph)
        context = solve_context(csr, "independent")
        ckpt = Checkpointer(tmp_path)
        ckpt.save(_state_with(graph, [3]), context)
        assert ckpt.load("00000000") is None

    @pytest.mark.parametrize(
        "mutation",
        [
            {"version": CHECKPOINT_VERSION + 1},
            {"epoch": 5},                   # len(order) != epoch
            {"order": [2, 2]},              # duplicate selections
            {"order": [99999], "epoch": 1},  # out of bounds
            {"digest": 1},                  # CRC mismatch
            {"order": "31"},                # wrong type
        ],
    )
    def test_invalid_payload_rejected(self, graph, tmp_path, mutation):
        csr = as_csr(graph)
        context = solve_context(csr, "independent")
        ckpt = Checkpointer(tmp_path)
        ckpt.save(_state_with(graph, [3, 1]), context)
        path = next(tmp_path.glob("ckpt-*"))
        payload = json.loads(path.read_text())
        payload.update(mutation)
        path.write_text(json.dumps(payload))
        assert ckpt.load(context, n_items=csr.n_items) is None

    def test_prune_keeps_newest(self, graph, tmp_path):
        csr = as_csr(graph)
        context = solve_context(csr, "independent")
        ckpt = Checkpointer(tmp_path, keep=2)
        order = []
        for node in (3, 1, 7, 9):
            order.append(node)
            ckpt.save(_state_with(graph, order), context)
        snapshots = sorted(tmp_path.glob("ckpt-*"))
        assert len(snapshots) == 2
        assert snapshots[-1].name.endswith("0000000004.json")

    def test_injected_write_failure_swallowed(self, graph, tmp_path):
        csr = as_csr(graph)
        context = solve_context(csr, "independent")
        ckpt = Checkpointer(tmp_path)
        with inject_faults(FaultInjector(checkpoint_write=1.0)):
            assert not ckpt.save(_state_with(graph, [3]), context)
        assert ckpt.write_failures == 1
        assert list(tmp_path.glob("ckpt-*")) == []
        # The aborted temp file must not leak either.
        assert list(tmp_path.glob(".tmp-*")) == []

    def test_coerce(self, tmp_path):
        ckpt = coerce_checkpointer(tmp_path)
        assert isinstance(ckpt, Checkpointer)
        assert coerce_checkpointer(ckpt) is ckpt
        assert coerce_checkpointer(None) is None
        with pytest.raises(ReproError, match="Checkpointer"):
            coerce_checkpointer(42)


class TestRunGuard:
    def test_validation(self):
        with pytest.raises(ReproError, match="at least one"):
            RunGuard()
        with pytest.raises(ReproError, match="deadline_s"):
            RunGuard(deadline_s=-1)
        with pytest.raises(ReproError, match="max_rss_mb"):
            RunGuard(max_rss_mb=0)
        with pytest.raises(ReproError, match="on_trigger"):
            RunGuard(deadline_s=1, on_trigger="abort")

    def test_current_rss_positive(self):
        rss = current_rss_mb()
        assert rss is not None and rss > 1.0

    def test_deadline_partial_result(self, graph):
        guard = RunGuard(deadline_s=0, on_trigger="partial")
        result = greedy_solve(
            graph, k=10, variant="independent", guard=guard
        )
        assert result.interrupted
        assert "deadline" in result.interrupted_reason
        assert len(result.retained) == 1  # one committed round
        assert guard.deadline_hits == 1
        assert result.to_dict()["interrupted"] is True

    def test_deadline_raise_carries_partial(self, graph):
        guard = RunGuard(deadline_s=0, on_trigger="raise")
        with pytest.raises(SolverInterrupted) as excinfo:
            greedy_solve(graph, k=10, variant="independent", guard=guard)
        partial = excinfo.value.partial
        assert partial.interrupted
        assert len(partial.retained) == 1
        clean = greedy_solve(graph, k=10, variant="independent")
        assert partial.retained == clean.retained[:1]

    def test_rss_ceiling_trips(self, graph):
        # Any real process dwarfs a 1-MiB ceiling: trips on round 1.
        guard = RunGuard(max_rss_mb=1, on_trigger="partial")
        result = greedy_solve(
            graph, k=10, variant="independent", guard=guard
        )
        assert result.interrupted
        assert "RSS" in result.interrupted_reason
        assert guard.rss_hits == 1

    def test_guard_rearms_between_solves(self, graph):
        guard = RunGuard(deadline_s=30, on_trigger="partial")
        first = greedy_solve(
            graph, k=5, variant="independent", guard=guard
        )
        second = greedy_solve(
            graph, k=5, variant="independent", guard=guard
        )
        assert not first.interrupted and not second.interrupted

    def test_threshold_guard_partial(self, graph):
        guard = RunGuard(deadline_s=0, on_trigger="partial")
        result = greedy_threshold_solve(
            graph, threshold=0.99, variant="independent", guard=guard
        )
        assert result.interrupted
        assert len(result.retained) == 1


class TestFaultInjector:
    def test_spec_roundtrip(self):
        faults = FaultInjector.from_spec(
            "checkpoint_write=0.25:refresh_delay=0.5:seed=9:kill_round=3"
        )
        assert faults.checkpoint_write == 0.25
        assert faults.refresh_delay == 0.5
        assert faults.seed == 9
        assert faults.kill_round == 3

    def test_spec_rejects_unknown_key(self):
        with pytest.raises(ReproError, match="REPRO_FAULTS"):
            FaultInjector.from_spec("explode=1")
        with pytest.raises(ReproError, match="REPRO_FAULTS"):
            FaultInjector.from_spec("checkpoint_write=lots")
        # The worker-pool fault kinds went with the pool.
        for spec in ("worker_crash=0.1", "recv_delay=0.001"):
            with pytest.raises(ReproError, match="invalid REPRO_FAULTS"):
                FaultInjector.from_spec(spec)

    def test_validation(self):
        with pytest.raises(ReproError, match="probability"):
            FaultInjector(checkpoint_write=1.5)
        with pytest.raises(ReproError, match="kill_round"):
            FaultInjector(kill_round=0)
        with pytest.raises(ReproError, match="refresh_delay"):
            FaultInjector(refresh_delay=-1)

    def test_solver_round_kill(self):
        faults = FaultInjector(kill_round=3)
        faults.solver_round(1)
        faults.solver_round(2)
        with pytest.raises(InjectedCrash) as excinfo:
            faults.solver_round(3)
        assert excinfo.value.round_no == 3
        assert faults.fired == {"kill_round": 1}

    def test_corrupt_record_deterministic(self):
        line = '{"session_id": "s", "clicks": ["a"]}'
        first = [
            FaultInjector(seed=5, malformed_record=0.5).corrupt_record(
                line
            )
            for _ in range(4)
        ]
        second = [
            FaultInjector(seed=5, malformed_record=0.5).corrupt_record(
                line
            )
            for _ in range(4)
        ]
        assert first == second

    def test_env_activation(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert active_faults() is None
        monkeypatch.setenv("REPRO_FAULTS", "kill_round=7:seed=2")
        faults = active_faults()
        assert faults is not None and faults.kill_round == 7
        # Same spec: same cached injector (one deterministic stream).
        assert active_faults() is faults
        monkeypatch.setenv("REPRO_FAULTS", "kill_round=8")
        assert active_faults().kill_round == 8

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "kill_round=7")
        explicit = FaultInjector(kill_round=1)
        with inject_faults(explicit):
            assert active_faults() is explicit
        assert active_faults().kill_round == 7

    def test_inject_none_suppresses_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "kill_round=7")
        with inject_faults(None):
            assert active_faults() is None
        assert active_faults().kill_round == 7


class TestResume:
    @pytest.mark.parametrize(
        "strategy", ["naive", "accelerated"]
    )
    def test_kill_resume_matches_clean(self, graph, tmp_path, strategy):
        clean = greedy_solve(
            graph, k=12, variant="independent", strategy=strategy
        )
        with pytest.raises(InjectedCrash):
            with inject_faults(FaultInjector(kill_round=7)):
                greedy_solve(
                    graph, k=12, variant="independent",
                    strategy=strategy,
                    checkpoint=Checkpointer(tmp_path, every_rounds=2),
                )
        resumed = greedy_solve(
            graph, k=12, variant="independent", strategy=strategy,
            checkpoint=Checkpointer(tmp_path),
        )
        assert resumed.retained == clean.retained
        assert resumed.cover == clean.cover

    def test_resume_crosses_stopping_rules(self, graph, tmp_path):
        # The context hash excludes k/threshold: greedy checkpoints
        # resume a threshold solve of the same instance (Section 3.2's
        # prefix property).
        greedy_solve(
            graph, k=10, variant="independent",
            checkpoint=Checkpointer(tmp_path, every_rounds=1),
        )
        clean = greedy_threshold_solve(
            graph, threshold=0.6, variant="independent"
        )
        resumed = greedy_threshold_solve(
            graph, threshold=0.6, variant="independent",
            checkpoint=Checkpointer(tmp_path),
        )
        assert resumed.retained == clean.retained
        assert resumed.cover == pytest.approx(clean.cover)

    def test_resume_disabled(self, graph, tmp_path):
        ckpt = Checkpointer(tmp_path, every_rounds=1)
        greedy_solve(
            graph, k=5, variant="independent", checkpoint=ckpt
        )
        writer = Checkpointer(tmp_path, resume=False)
        writer.load_calls = writer.loads
        greedy_solve(
            graph, k=5, variant="independent", checkpoint=writer
        )
        assert writer.loads == writer.load_calls  # never consulted

    def test_final_snapshot_written(self, graph, tmp_path):
        # every_rounds larger than k: only the final best-effort
        # snapshot lands, and it carries the full selection.
        from repro.core.variants import Variant

        ckpt = Checkpointer(tmp_path, every_rounds=100)
        result = greedy_solve(
            graph, k=5, variant="independent", checkpoint=ckpt
        )
        snapshot = ckpt.load(
            solve_context(as_csr(graph), Variant.INDEPENDENT)
        )
        assert snapshot is not None
        assert len(snapshot.order) == len(result.retained)

    def test_checkpoint_path_coercion_in_solver(self, graph, tmp_path):
        result = greedy_solve(
            graph, k=5, variant="independent",
            checkpoint=str(tmp_path / "ckpts"),
        )
        assert len(result.retained) == 5
        assert list((tmp_path / "ckpts").glob("ckpt-*"))


class TestFacade:
    def test_solve_forwards_guard(self, graph):
        from repro import solve

        result = solve(
            graph, k=10, variant="independent",
            guard=RunGuard(deadline_s=0, on_trigger="partial"),
        )
        assert result.interrupted
        assert result.telemetry is not None
        metrics = result.telemetry.metrics
        assert metrics.counter("facade.interrupted").value == 1

    def test_solve_raise_mode_attaches_telemetry(self, graph):
        from repro import solve

        with pytest.raises(SolverInterrupted) as excinfo:
            solve(
                graph, k=10, variant="independent",
                guard=RunGuard(deadline_s=0, on_trigger="raise"),
            )
        assert excinfo.value.partial.telemetry is not None

    def test_solve_rejects_guard_with_budget(self, graph):
        from repro import solve

        costs = {item: 1.0 for item in as_csr(graph).items}
        with pytest.raises(SolverError, match="resilience"):
            solve(
                graph, variant="independent",
                constraints={"budget": 3.0, "costs": costs},
                guard=RunGuard(deadline_s=1),
            )

    def test_solve_checkpoint_resume_counts(self, graph, tmp_path):
        from repro import solve
        from repro.observability import SolverTrace

        with pytest.raises(InjectedCrash):
            with inject_faults(FaultInjector(kill_round=5)):
                solve(
                    graph, k=10, variant="independent",
                    tracer=SolverTrace(),
                    checkpoint=Checkpointer(tmp_path, every_rounds=1),
                )
        resumed = solve(
            graph, k=10, variant="independent", tracer=SolverTrace(),
            checkpoint=Checkpointer(tmp_path),
        )
        metrics = resumed.telemetry.metrics
        assert metrics.counter("resilience.resumes").value == 1
        assert metrics.counter("resilience.resumed_rounds").value == 5


class TestHarness:
    def test_resilience_differential_smoke(self):
        from repro.evaluation.fuzz import run_fuzz

        report = run_fuzz(
            preset="resilience", rounds=4, max_items=24, seed=5
        )
        assert report.ok, report.summary()
        assert report.checks > 20
        assert "OK" in report.summary()


class TestCooperativeStop:
    """The stop_round fault: a stop reason with NO run guard configured."""

    def test_spec_parses_stop_round(self):
        faults = FaultInjector.from_spec("stop_round=2:seed=3")
        assert faults.stop_round == 2
        assert faults.seed == 3

    def test_validation(self):
        with pytest.raises(ReproError, match="stop_round"):
            FaultInjector(stop_round=0)

    def test_solver_stop_hook(self):
        faults = FaultInjector(stop_round=2)
        assert faults.solver_stop(1) is None
        reason = faults.solver_stop(2)
        assert reason is not None and "round 2" in reason
        assert faults.fired == {"stop_round": 1}

    def test_greedy_interrupts_without_guard(self, graph):
        # Regression for the guard-deref bug: a non-None stop reason
        # with guard=None must return the flagged partial result, not
        # crash on ``guard.on_trigger``.
        clean = greedy_solve(graph, k=10, variant="independent")
        with inject_faults(FaultInjector(stop_round=4)):
            partial = greedy_solve(graph, k=10, variant="independent")
        assert partial.interrupted
        assert "injected cooperative stop" in partial.interrupted_reason
        assert len(partial.retained) == 4
        assert list(partial.retained) == list(clean.retained[:4])

    def test_threshold_interrupts_without_guard(self, graph):
        clean = greedy_threshold_solve(
            graph, threshold=0.9, variant="independent"
        )
        assert clean.k > 3
        with inject_faults(FaultInjector(stop_round=2)):
            partial = greedy_threshold_solve(
                graph, threshold=0.9, variant="independent"
            )
        assert partial.interrupted
        assert partial.k == 2
        assert list(partial.retained) == list(clean.retained[:2])

    def test_guard_raise_still_raises_on_stop(self, graph):
        # A configured guard keeps its contract when the stop reason
        # comes from the cooperative-stop hook.
        with pytest.raises(SolverInterrupted) as excinfo:
            with inject_faults(FaultInjector(stop_round=3)):
                greedy_solve(
                    graph, k=10, variant="independent",
                    guard=RunGuard(deadline_s=3600, on_trigger="raise"),
                )
        assert len(excinfo.value.partial.retained) == 3


class TestThresholdResume:
    """Unit coverage for the threshold solver's mid-run resume path."""

    def test_killed_threshold_solve_resumes_bitwise_equal(
        self, graph, tmp_path
    ):
        threshold = 0.85
        clean = greedy_threshold_solve(
            graph, threshold=threshold, variant="independent"
        )
        assert clean.k > 2
        with pytest.raises(InjectedCrash):
            with inject_faults(FaultInjector(kill_round=clean.k - 1)):
                greedy_threshold_solve(
                    graph, threshold=threshold, variant="independent",
                    checkpoint=Checkpointer(tmp_path, every_rounds=1),
                )
        resumed = greedy_threshold_solve(
            graph, threshold=threshold, variant="independent",
            checkpoint=Checkpointer(tmp_path),
        )
        assert list(resumed.retained) == list(clean.retained)
        assert resumed.cover == clean.cover  # bit-equal, not approx
        assert resumed.prefix_covers.tolist() == (
            clean.prefix_covers.tolist()
        )

    def test_resume_stops_at_threshold_boundary(self, graph, tmp_path):
        # The resumed run must stop exactly where the threshold is
        # first crossed: the next-shorter prefix does not qualify.
        threshold = 0.85
        with pytest.raises(InjectedCrash):
            with inject_faults(FaultInjector(kill_round=2)):
                greedy_threshold_solve(
                    graph, threshold=threshold, variant="independent",
                    checkpoint=Checkpointer(tmp_path, every_rounds=1),
                )
        resumed = greedy_threshold_solve(
            graph, threshold=threshold, variant="independent",
            checkpoint=Checkpointer(tmp_path),
        )
        assert not resumed.interrupted
        assert resumed.cover >= threshold - 1e-12
        assert resumed.prefix_covers[-2] < threshold - 1e-12

    def test_completed_checkpoint_replays_only_qualifying_prefix(
        self, graph, tmp_path
    ):
        # A checkpoint from a *completed* k-solve over the same
        # instance is reusable: the threshold solve replays just the
        # shortest qualifying prefix of the snapshot's order.
        full = greedy_solve(
            graph, k=graph.n_items, variant="independent",
            checkpoint=Checkpointer(tmp_path, every_rounds=1),
        )
        threshold = float(full.prefix_covers[3])
        resumed = greedy_threshold_solve(
            graph, threshold=threshold, variant="independent",
            checkpoint=Checkpointer(tmp_path),
        )
        assert resumed.k == 3
        assert list(resumed.retained) == list(full.retained[:3])
