"""Timing primitives and the append-only trajectory file format.

The serving perf harness (``bench_serving.py``) measures each series as
the *median* of several repeats — medians are robust to the one-off
scheduler hiccups that plague shared CI runners — and records them in a
machine-readable trajectory file at the repository root.  Every run
*appends* an entry, so the file accumulates a perf history across PRs
that future changes can be diffed against.

Schema (``BENCH_serve.json``, ``repro-bench-serve/1``)::

    {
      "schema": "repro-bench-serve/1",
      "runs": [
        {
          "created_at": "2026-08-06T12:00:00Z",
          "label": "...", "smoke": false,
          "host": {"python": "3.11.7", "cpus": 2, "machine": "x86_64"},
          "sizes": {"small": {"n_items": ..., "n_edges": ..., "k": ...},
                    "large": {...}},
          "series": {"cold_solve.small":
                         {"median_s": ..., "repeats": 5}, ...}
        }
      ]
    }

The newest run is last.  Consumers should key on ``series`` names, which
follow ``<metric>.<size>``.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from statistics import median
from typing import Callable, Dict, List


def time_median(
    fn: Callable[[], object],
    *,
    repeats: int = 5,
    warmup: int = 1,
) -> Dict[str, float]:
    """Median wall-clock seconds of ``fn()`` over ``repeats`` runs.

    ``warmup`` uncounted calls absorb one-time costs (page faults,
    first-touch allocations) so the medians measure steady state.
    """
    for _ in range(warmup):
        fn()
    times: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return {
        "median_s": median(times),
        "min_s": min(times),
        "max_s": max(times),
        "repeats": repeats,
    }


def host_fingerprint() -> Dict:
    """Environment details recorded next to every run."""
    return {
        "python": platform.python_version(),
        "cpus": os.cpu_count() or 1,
        "machine": platform.machine(),
    }


def load_trajectory(path: Path, *, schema: str) -> Dict:
    """Read a trajectory file, or an empty skeleton when absent.

    ``schema`` names the trajectory family the file must belong to; a
    mismatch is an error, not a silent reset.
    """
    if not path.exists():
        return {"schema": schema, "runs": []}
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if data.get("schema") != schema or not isinstance(data.get("runs"), list):
        raise ValueError(
            f"{path} is not a {schema} trajectory file"
        )
    return data


def append_run(
    series: Dict[str, Dict],
    *,
    sizes: Dict[str, Dict],
    path: Path,
    schema: str,
    label: str = "",
    smoke: bool = False,
) -> Dict:
    """Append one run to the trajectory file and return the run row."""
    data = load_trajectory(path, schema=schema)
    run = {
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "label": label,
        "smoke": bool(smoke),
        "host": host_fingerprint(),
        "sizes": sizes,
        "series": series,
    }
    data["runs"].append(run)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return run
