"""Tests for the metamorphic fuzzer and its invariant-oracle registry."""

import dataclasses
import importlib
import json
import random

import numpy as np
import pytest

from repro import solve
from repro.errors import SolverInterrupted
from repro.evaluation.fuzz import (
    PRESETS,
    FuzzCase,
    family_case,
    generate_case,
    load_artifact,
    replay_artifact,
    run_case,
    run_fuzz,
    shrink_case,
    write_artifact,
)
from repro.evaluation.invariants import (
    INVARIANTS,
    InvariantViolation,
    SolveRecord,
    check_record,
    register_invariant,
)
from repro.serving import AssortmentService
from repro.workloads.graphs import random_preference_graph


class TestGeneration:
    def test_deterministic(self):
        a = [generate_case(random.Random(7)).to_dict() for _ in range(10)]
        b = [generate_case(random.Random(7)).to_dict() for _ in range(10)]
        assert a == b

    def test_cases_build_valid_graphs(self):
        rng = random.Random(0)
        for _ in range(50):
            case = generate_case(rng, max_items=16)
            graph = case.build_graph()
            graph.validate(case.variant)

    def test_adversarial_features_appear(self):
        rng = random.Random(0)
        seen = set()
        for _ in range(300):
            case = generate_case(rng, max_items=16)
            ints = [i for i in case.items if isinstance(i, int)]
            if ints and ints != list(range(len(case.items))):
                seen.add("shuffled-ids")
            if any(w == 0.0 for w in case.node_weights):
                seen.add("zero-weight")
            pairs = [(e[0], e[1]) for e in case.edges]
            if len(pairs) != len(set(pairs)):
                seen.add("dup-edges")
            if any(e[2] == 1.0 for e in case.edges):
                seen.add("p1-edge")
            if case.faults:
                seen.add("faults")
        assert seen >= {
            "shuffled-ids", "zero-weight", "dup-edges", "p1-edge",
            "faults",
        }

    def test_case_json_roundtrip(self):
        case = generate_case(random.Random(11))
        payload = json.loads(json.dumps(case.to_dict()))
        assert FuzzCase.from_dict(payload).to_dict() == case.to_dict()


class TestCleanSweep:
    def test_fuzz_passes_on_fixed_code(self):
        report = run_fuzz(rounds=30, seed=0, max_items=24)
        assert report.ok, report.summary()
        assert report.checks > 0

    def test_summary_mentions_verdict(self):
        report = run_fuzz(rounds=5, seed=1, max_items=12)
        assert "OK" in report.summary() or "FAILURE" in report.summary()


class TestOracles:
    """Direct registry checks on deliberately tampered results."""

    @pytest.fixture
    def record(self):
        graph = random_preference_graph(12, variant="independent", seed=5)
        result = solve(graph, variant="independent", k=5)
        return SolveRecord(
            graph=graph, variant=result.variant, mode="k",
            result=result, params={"k": 5},
        )

    def test_clean_record_passes(self, record):
        assert check_record(record) == []

    def test_tampered_cover_caught(self, record):
        record.result = dataclasses.replace(
            record.result, cover=record.result.cover + 0.25
        )
        names = {v.invariant for v in check_record(record)}
        assert "coverage-accounting" in names

    def test_tampered_serving_order_caught(self):
        graph = random_preference_graph(12, variant="independent", seed=5)
        snapshot = AssortmentService(
            graph, variant="independent", k=5
        ).ensure()
        record = SolveRecord(
            graph=snapshot.graph, variant=snapshot.variant, mode="serving",
            result=snapshot.result, params={"k": 5}, snapshot=snapshot,
        )
        assert check_record(record) == []
        swapped = list(snapshot.result.retained)
        swapped[0], swapped[1] = swapped[1], swapped[0]
        indices = snapshot.result.retained_indices.copy()
        indices[[0, 1]] = indices[[1, 0]]
        result = dataclasses.replace(
            snapshot.result, retained=swapped, retained_indices=indices
        )
        record.result = result
        record.snapshot = dataclasses.replace(snapshot, result=result)
        names = {v.invariant for v in check_record(record)}
        assert "serving-cold-solve" in names

    def test_tampered_coverage_array_caught(self, record):
        coverage = record.result.coverage.copy()
        coverage[0], coverage[-1] = coverage[-1], coverage[0]
        record.result = dataclasses.replace(record.result, coverage=coverage)
        names = {v.invariant for v in check_record(record)}
        assert "coverage-accounting" in names

    def test_inconsistent_interrupt_flag_caught(self, record):
        record.result = dataclasses.replace(record.result, interrupted=True)
        names = {v.invariant for v in check_record(record)}
        assert "result-consistency" in names

    def test_broken_prefix_caught(self, record):
        prefix = record.result.prefix_covers.copy()
        prefix[1] += 0.1  # no longer the recomputed C(S_1)
        record.result = dataclasses.replace(
            record.result, prefix_covers=prefix
        )
        names = {v.invariant for v in check_record(record)}
        assert "greedy-marginals" in names

    def test_crashing_oracle_reports_not_raises(self, record):
        @register_invariant("always-broken")
        def _broken(rec):
            raise RuntimeError("oracle bug")

        try:
            violations = check_record(record, names=["always-broken"])
            assert len(violations) == 1
            assert "oracle crashed" in violations[0].detail
        finally:
            del INVARIANTS["always-broken"]

    def test_registry_descriptions_present(self):
        for invariant in INVARIANTS.values():
            assert invariant.description


class TestCatchesKnownBugs:
    """Re-introduce each fixed bug and prove the fuzzer finds it with a
    shrunken minimal reproduction, as the subsystem's reason to exist."""

    def test_index_ambiguity_bug_caught(self, monkeypatch, tmp_path):
        def buggy_resolve(csr, retained):
            # The pre-fix behavior: any in-range int is a dense index.
            seen, out = set(), []
            for item in retained:
                if isinstance(item, (int, np.integer)) \
                        and 0 <= int(item) < csr.n_items:
                    idx = int(item)
                else:
                    idx = csr.index_of(item)
                if idx not in seen:
                    seen.add(idx)
                    out.append(idx)
            return np.asarray(out, dtype=np.int64)

        # importlib, not a dotted string: ``repro.core.cover`` the
        # attribute is the cover *function*, shadowing the module.
        cover_mod = importlib.import_module("repro.core.cover")
        monkeypatch.setattr(cover_mod, "resolve_indices", buggy_resolve)
        report = run_fuzz(
            rounds=40, seed=0, artifact_dir=tmp_path, max_items=24
        )
        assert not report.ok
        sizes = [len(f.case.items) for f in report.failures]
        assert min(sizes) <= 8  # shrunk to a minimal repro
        assert any(f.artifact for f in report.failures)

    def test_guard_deref_bug_caught(self, monkeypatch, tmp_path):
        def buggy_finish(stop_reason, guard, result):
            # The pre-fix behavior: deref the guard whenever a stop
            # reason exists, even when no guard was configured.
            if stop_reason is not None and guard.on_trigger == "raise":
                raise SolverInterrupted(stop_reason, partial=result)
            return result

        for mod_name in ("repro.core.greedy", "repro.core.threshold"):
            monkeypatch.setattr(
                importlib.import_module(mod_name),
                "finish_interrupted", buggy_finish,
            )
        report = run_fuzz(
            rounds=60, seed=0, artifact_dir=tmp_path, max_items=24
        )
        crashes = [
            f for f in report.failures if f.invariant == "no-crash"
        ]
        assert crashes
        assert min(len(f.case.items) for f in crashes) <= 8
        assert any("on_trigger" in f.detail for f in crashes)


class TestShrinking:
    def test_shrinks_while_preserving_failure(self, monkeypatch):
        # An "oracle" that fails whenever a specific item id survives,
        # so the minimal case is exactly one item.
        @register_invariant("has-marker-item")
        def _marker(record):
            items = list(record.result.item_ids)
            return "marker survived" if "it003" in items else None

        try:
            n = 10
            case = FuzzCase(
                items=[f"it{i:03d}" for i in range(n)],
                node_weights=[1.0 / n] * n,
                edges=[],
                variant="independent",
                mode="k",
                k=1,
            )
            violations, _ = run_case(case)
            assert any(
                v.invariant == "has-marker-item" for v in violations
            )
            shrunk = shrink_case(case, "has-marker-item")
            assert len(shrunk.items) == 1
            assert shrunk.items == ["it003"]
        finally:
            del INVARIANTS["has-marker-item"]


class TestArtifacts:
    def test_write_load_replay_roundtrip(self, tmp_path):
        case = generate_case(random.Random(3), max_items=12)
        violation = InvariantViolation("result-consistency", "synthetic")
        path = write_artifact(
            tmp_path, seed=3, round_no=7, failure=violation, case=case
        )
        loaded, payload = load_artifact(path)
        assert loaded.to_dict() == case.to_dict()
        assert payload["invariant"] == "result-consistency"
        assert payload["round"] == 7
        # The fixed codebase satisfies every oracle on this case.
        assert replay_artifact(path) == []

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 999, "case": {}}))
        with pytest.raises(ValueError, match="version"):
            load_artifact(path)
        # A version-1 case still names the removed pool fields; it gets
        # the version message, not a TypeError from FuzzCase.
        case = generate_case(random.Random(3), max_items=8).to_dict()
        case.update(workers=2, backend="shm")
        path.write_text(json.dumps({"version": 1, "case": case}))
        with pytest.raises(ValueError, match="version"):
            load_artifact(path)
        # A version-2 case of the removed incremental mode is refused by
        # name rather than replayed as a plain k solve.
        case = generate_case(random.Random(3), max_items=8).to_dict()
        case.update(mode="incremental", k=2)
        path.write_text(json.dumps({"version": 2, "case": case}))
        with pytest.raises(ValueError, match="'incremental'"):
            load_artifact(path)


class TestFamilyCases:
    def test_rounds_alternate_variants_deterministically(self):
        def draw():
            rng = random.Random(0)
            return [family_case(rng, "differential", i, 30) for i in range(6)]

        cases = draw()
        assert [c.variant for c in cases] == ["independent", "normalized"] * 3
        assert all(24 <= len(c.items) <= 30 for c in cases)
        for case in cases:  # stored whole: the graph rebuilds and validates
            case.build_graph().validate(case.variant)
        assert [c.to_dict() for c in draw()] == [c.to_dict() for c in cases]

    def test_chaos_case_records_its_fault_spec(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        case = family_case(random.Random(1), "chaos", 0, 24)
        assert case.faults.startswith(
            "refresh_crash=0.7:refresh_delay=0.0005:seed="
        )
        monkeypatch.setenv(
            "REPRO_FAULTS", "refresh_crash=0.9:refresh_delay=0.002:seed=31"
        )
        case = family_case(random.Random(1), "chaos", 0, 24)
        assert case.faults == (
            f"refresh_crash=0.9:refresh_delay=0.002:seed={case.delta_seed}"
        )
        # The replay runs under the recorded spec, not the environment.
        path = write_artifact(
            tmp_path, seed=1, round_no=0, case=case, preset="serving-chaos",
            failure=InvariantViolation("tier-ladder", "synthetic"),
        )
        monkeypatch.setenv("REPRO_FAULTS", "refresh_crash=1.0:seed=2")
        assert replay_artifact(path) == []

    def test_preset_streams_are_green(self):
        for preset in PRESETS:
            report = run_fuzz(preset=preset, rounds=4, max_items=16, seed=3)
            assert report.ok, report.summary()


class TestRunCase:
    def test_shuffled_int_ids_run_clean(self):
        # Integer ids that are a non-identity permutation of the index
        # range: the id/index-collision regime the bugfix untangled.
        items = [4, 0, 2, 5, 1, 3]
        case = FuzzCase(
            items=items,
            node_weights=[0.1, 0.2, 0.15, 0.25, 0.05, 0.25],
            edges=[[4, 0, 0.6], [2, 5, 0.5], [1, 3, 0.4]],
            variant="independent",
            mode="k",
            k=3,
        )
        violations, checks = run_case(case)
        assert violations == []
        assert checks >= 4

    def test_crash_reported_as_violation(self):
        case = FuzzCase(
            items=[0, 1],
            node_weights=[0.5, 0.5],
            edges=[],
            variant="independent",
            mode="k",
            k=5,
            strategy="definitely-not-a-strategy",
        )
        violations, _ = run_case(case)
        assert len(violations) == 1
        assert violations[0].invariant == "no-crash"


class TestPresetsCatchSeededBugs:
    """One seeded bug per preset: caught, shrunk, and replayed by
    ``repro check --replay`` (still failing with the bug, clean
    without it)."""

    @staticmethod
    def caught(monkeypatch, tmp_path, preset, invariant, rounds):
        from repro.cli import main

        report = run_fuzz(
            preset=preset, rounds=rounds, max_items=24, seed=0,
            artifact_dir=tmp_path,
        )
        failures = [f for f in report.failures if f.invariant == invariant]
        assert failures, report.summary()
        smallest = min(failures, key=lambda f: len(f.case.items))
        assert len(smallest.case.items) <= 8  # from 24
        assert main(["check", "--replay", smallest.artifact]) == 1
        monkeypatch.undo()
        assert main(["check", "--replay", smallest.artifact]) == 0
        return smallest

    def test_differential_catches_accelerated_drift(
        self, monkeypatch, tmp_path
    ):
        greedy = importlib.import_module("repro.core.greedy")
        real = greedy._run_accelerated

        def drifting(state, *args, **kwargs):
            # One ulp on the cover: within every tolerance but parity's.
            out = real(state, *args, **kwargs)
            state.cover = float(np.nextafter(state.cover, 2.0))
            return out

        monkeypatch.setattr(greedy, "_run_accelerated", drifting)
        self.caught(
            monkeypatch, tmp_path, "differential", "reference-parity", 2
        )

    def test_resilience_catches_a_loader_without_fallback(
        self, monkeypatch, tmp_path
    ):
        from repro.resilience import Checkpointer

        real = Checkpointer._read_valid

        def no_fallback(path, context, n_items):
            json.loads(path.read_text())  # a truncated snapshot raises
            return real(path, context, n_items)

        monkeypatch.setattr(
            Checkpointer, "_read_valid", staticmethod(no_fallback)
        )
        failure = self.caught(
            monkeypatch, tmp_path, "resilience", "no-crash", 2
        )
        assert "JSONDecodeError" in failure.detail

    def test_serving_catches_an_ulp_off_point_read(
        self, monkeypatch, tmp_path
    ):
        from repro.serving import SolutionSnapshot

        real = SolutionSnapshot.covered_probability

        def one_ulp_high(self, request):
            return float(np.nextafter(real(self, request), 2.0))

        monkeypatch.setattr(
            SolutionSnapshot, "covered_probability", one_ulp_high
        )
        self.caught(monkeypatch, tmp_path, "serving", "serving-reads", 2)

    def test_chaos_catches_a_tier_improving_without_refresh(
        self, monkeypatch, tmp_path
    ):
        from repro.serving import ServingRuntime, Tier

        monkeypatch.setattr(
            ServingRuntime, "_degrade_after_failure",
            lambda self: self._set_tier(Tier.FRESH),
        )
        self.caught(
            monkeypatch, tmp_path, "serving-chaos", "tier-ladder", 2
        )

    def test_serving_catches_a_delta_staged_unvalidated(
        self, monkeypatch, tmp_path
    ):
        from repro.serving import AssortmentService

        def unvalidated(self, delta):
            # Staging before stage-time validation: the delta is applied
            # in place and only the refresh finds the graph invalid.
            if delta.sequence <= self._sequence and self._active is not None:
                return False
            try:
                delta.apply_to(self._graph)
            except Exception:
                self.metrics.incr("serving.deltas_rejected")
                raise
            self._sequence = delta.sequence
            return True

        monkeypatch.setattr(AssortmentService, "_stage_locked", unvalidated)
        failure = self.caught(
            monkeypatch, tmp_path, "serving", "bad-delta-rejected", 16
        )
        assert failure.case.bad_delta == "weight"
