"""Smoke tests: every example script runs to completion.

Each example is executed in a subprocess (fresh interpreter, the way a
user would run it) and its key output lines are checked.  These are the
slowest tests in the suite; they guard the documented entry points.
"""

import subprocess
import sys
from pathlib import Path


EXAMPLES_DIR = Path(__file__).parent.parent / "examples"


def run_example(name: str, timeout: int = 300) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, (
        f"{name} failed:\n{result.stdout}\n{result.stderr}"
    )
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "['B', 'D']" in out or "B" in out
        assert "0.873" in out
        assert "confirms optimality" in out

    def test_clickstream_to_graph(self):
        out = run_example("clickstream_to_graph.py")
        assert "selected variant    : normalized" in out
        assert "rebuilt the identical graph" in out

    def test_express_delivery(self):
        out = run_example("express_delivery.py")
        assert "Express-delivery stocking policies" in out
        assert "greedy (paper)" in out

    def test_regional_launch(self):
        out = run_example("regional_launch.py")
        assert "variant selected from data: normalized" in out
        assert "InventoryReducer: ship" in out

    def test_maintenance_reduction(self):
        out = run_example("maintenance_reduction.py")
        assert "greedy keeps" in out
        assert "week 4" in out

    def test_end_to_end_pipeline(self):
        out = run_example("end_to_end_pipeline.py")
        assert "Figure 2: end-to-end flow" in out
        assert "revenue-aware retained set" in out
        assert "storage-budget selection" in out

    def test_assortment_over_time(self):
        out = run_example("assortment_over_time.py")
        assert "week" in out
        assert "solved cold" in out

    def test_category_quotas(self):
        out = run_example("category_quotas.py")
        assert "Department representation" in out
        assert "price of department coverage" in out

    def test_reproduce_figures_fast(self):
        out = run_example("reproduce_figures.py", timeout=400)
        # run_example passes positional script name only; --fast variant
        # exercised separately below.
        assert "Figure 4a" in out

    def test_reproduce_figures_fast_flag(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, str(EXAMPLES_DIR / "reproduce_figures.py"),
             "--fast"],
            capture_output=True, text=True, timeout=400,
        )
        assert result.returncode == 0, result.stderr
        for marker in ("Table 2", "Figure 4a", "Figure 4c", "Figure 4d",
                       "Figure 4e", "Figure 4f"):
            assert marker in result.stdout
