"""Tests for the ``--differential`` preset and its oracles.

``compare_results`` (the ``reference-parity`` oracle), the
``threshold-prefix`` oracle, the one report type and the preset sweep.
"""

import dataclasses

import numpy as np

from repro.core.greedy import greedy_solve
from repro.core.result import SolveResult
from repro.evaluation.fuzz import FuzzCase, FuzzFailure, FuzzReport, run_fuzz
from repro.evaluation.invariants import (
    SolveRecord,
    check_record,
    compare_results,
)


def _result(retained, cover, prefix_covers=None, k=None):
    """Build a minimal SolveResult for comparator unit tests."""
    return SolveResult(
        variant="independent",
        k=len(retained) if k is None else k,
        retained=list(retained),
        retained_indices=np.asarray(retained, dtype=np.int64),
        cover=cover,
        coverage=np.zeros(4),
        item_ids=list(range(8)),
        prefix_covers=(
            None if prefix_covers is None
            else np.asarray(prefix_covers, dtype=float)
        ),
    )


class TestCompareResults:
    def test_identical_results_match(self):
        a = _result([0, 1, 2], 0.9)
        b = _result([0, 1, 2], 0.9)
        assert compare_results(a, b) is None

    def test_cover_mismatch_reported(self):
        a = _result([0, 1, 2], 0.9)
        b = _result([0, 1, 2], 0.9 + 1e-6)
        assert "cover differs" in compare_results(a, b)

    def test_selection_divergence_reported_with_position(self):
        ref = _result([0, 1, 2], 0.9, prefix_covers=[0.0, 0.4, 0.7, 0.9])
        cand = _result([0, 2, 1], 0.9, prefix_covers=[0.0, 0.4, 0.7, 0.9])
        detail = compare_results(ref, cand)
        assert "selection diverges at position 1" in detail

    def test_length_mismatch_reported(self):
        ref = _result([0, 1, 2], 0.9)
        cand = _result([0, 1], 0.7)
        assert "lengths differ" in compare_results(ref, cand)

    def test_tie_tail_divergence_accepted(self):
        # The marginal gain at the divergence point is noise-level, so
        # the argmax is ill-defined; equal covers must be accepted.
        ref = _result(
            [0, 1, 2], 0.9, prefix_covers=[0.0, 0.5, 0.9, 0.9 + 5e-14]
        )
        cand = _result(
            [0, 1, 3], 0.9, prefix_covers=[0.0, 0.5, 0.9, 0.9 + 4e-14]
        )
        assert compare_results(ref, cand) is None

    def test_tie_tail_cover_mismatch_still_fails(self):
        ref = _result(
            [0, 1, 2], 0.9, prefix_covers=[0.0, 0.5, 0.9, 0.9 + 5e-14]
        )
        cand = _result(
            [0, 1, 3], 0.8, prefix_covers=[0.0, 0.5, 0.8, 0.8]
        )
        assert "beyond the tie tail" in compare_results(ref, cand)

    def test_real_solve_manipulation_is_caught(self, small_graph, variant):
        reference = greedy_solve(
            small_graph, k=5, variant=variant, strategy="naive"
        )
        tampered = dataclasses.replace(
            reference, retained=list(reversed(reference.retained))
        )
        assert compare_results(reference, tampered) is not None


def _prefix_detail(order, threshold_result, threshold):
    """The ``threshold-prefix`` oracle's verdict on one threshold solve."""
    violations = check_record(
        SolveRecord(
            graph=None, variant="independent", mode="threshold",
            result=threshold_result, params={"threshold": threshold},
            order=order,
        ),
        names=["threshold-prefix"],
    )
    return violations[0].detail if violations else None


class TestPrefixDetail:
    def test_qualifying_prefix_passes(self):
        order = _result([3, 1, 2, 0], 0.95)
        threshold_result = _result([3, 1], 0.8, k=2)
        assert _prefix_detail(order, threshold_result, 0.75) is None

    def test_non_prefix_selection_reported(self):
        order = _result([3, 1, 2, 0], 0.95)
        threshold_result = _result([3, 2], 0.8, k=2)
        detail = _prefix_detail(order, threshold_result, 0.75)
        assert "not the greedy order's prefix" in detail

    def test_unreached_threshold_reported(self):
        order = _result([3, 1, 2, 0], 0.95)
        threshold_result = _result([3, 1], 0.7, k=2)
        detail = _prefix_detail(order, threshold_result, 0.75)
        assert "not reached" in detail


class TestReport:
    def test_ok_summary(self):
        report = FuzzReport(
            rounds=3, seed=0, preset="differential", checks=12,
            wall_time_s=0.5,
        )
        assert report.ok
        assert report.summary().startswith("differential: 3 round(s)")
        assert "OK" in report.summary()

    def test_failure_summary_lists_details(self):
        report = FuzzReport(
            rounds=1, seed=0, preset="differential", checks=1,
        )
        case = FuzzCase(
            items=[0], node_weights=[1.0], edges=[],
            variant="independent", mode="differential", k=1,
        )
        report.failures.append(
            FuzzFailure(
                round_no=0, invariant="reference-parity",
                detail="selection diverges", case=case,
                artifact="differential-0-0000-reference-parity.json",
            )
        )
        assert not report.ok
        summary = report.summary()
        assert "1 FAILURE(S)" in summary
        assert "reference-parity" in summary
        assert "differential-0-0000-reference-parity.json" in summary


class TestRunDifferential:
    def test_smoke_sweep_passes(self):
        lines = []
        report = run_fuzz(
            preset="differential", rounds=6, max_items=36, seed=7,
            log=lines.append,
        )
        assert report.ok, report.summary()
        # Per round a k record (with its naive reference and the full
        # order) and a threshold record, each past several oracles.
        assert report.checks > 6 * 2 * 4
        assert report.wall_time_s > 0
        assert len(lines) == 6

    def test_degenerate_size_range_is_clamped(self):
        # Below the families' 24-item floor the size range collapses
        # onto max_items.
        report = run_fuzz(
            preset="differential", rounds=2, max_items=10, seed=3,
        )
        assert report.ok, report.summary()

    def test_single_failure_fails_report(self, monkeypatch):
        import repro.evaluation.invariants as invariants

        real = invariants.compare_results

        def sabotage(reference, candidate, **kwargs):
            detail = real(reference, candidate, **kwargs)
            if detail is None and candidate.strategy == "greedy-accelerated":
                return "injected divergence"
            return detail

        monkeypatch.setattr(invariants, "compare_results", sabotage)
        report = run_fuzz(
            preset="differential", rounds=1, max_items=8, seed=1,
        )
        assert not report.ok
        assert any(
            "injected divergence" in failure.detail
            for failure in report.failures
        )
