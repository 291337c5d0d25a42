"""Perf harness for the assortment serving layer.

Measures the serving layer's reason for existing — a warm cached query
must be orders of magnitude cheaper than a cold solve — and appends the
medians to the machine-readable trajectory file ``BENCH_serve.json`` at
the repository root (schema ``repro-bench-serve/1``; see
``benchmarks/_perf.py``):

* ``cold_solve.<size>`` — ``repro.solve`` from scratch on the instance;
* ``warm_query.<size>`` — one ``covered_probability`` point read from
  the active snapshot;
* ``warm_query_batch.<size>`` — a 256-item vectorized batch read;
* ``ensure_hit.<size>`` — a cache-hit ``ensure()`` round trip;
* ``refresh_delta.<size>`` — applying a drift delta including the
  incremental re-solve and hot swap;
* ``frontend_workload.<size>`` — 512 async queries through the
  micro-batching front end.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_serving.py            # full
    PYTHONPATH=src python benchmarks/bench_serving.py --smoke    # tiny
    PYTHONPATH=src python benchmarks/bench_serving.py --check    # verify

``--check`` validates the trajectory file, that its newest run carries
every expected series, and that the warm/cold speedup clears the floor
(100x at full size — the fig4d-scale serving claim — 20x at smoke
size, where the cold solve itself is only milliseconds).
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
# Allow running straight from a checkout without installing the package.
_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.append(str(_SRC))

from _perf import (  # noqa: E402
    append_run,
    load_trajectory,
    time_median,
)

VARIANT = "independent"

BENCH_SERVE_PATH = Path(__file__).resolve().parent.parent / "BENCH_serve.json"
SCHEMA = "repro-bench-serve/1"

#: (n_items, k) per measured scale; "large" matches the fig4d scalability
#: regime (tens of thousands of items).
FULL_SIZES = {"small": (2_000, 30), "large": (20_000, 100)}
SMOKE_SIZES = {"small": (300, 8), "large": (800, 10)}

#: Required warm-query speedup over the cold solve (--check).
SPEEDUP_FLOOR_FULL = 100.0
SPEEDUP_FLOOR_SMOKE = 20.0

EXPECTED_METRICS = (
    "cold_solve",
    "warm_query",
    "warm_query_batch",
    "ensure_hit",
    "refresh_delta",
    "frontend_workload",
)

FRONTEND_REQUESTS = 512


def run_benchmarks(args) -> dict:
    import numpy as np

    from repro import solve
    from repro.clickstream.drift import random_delta
    from repro.serving import AssortmentService, ServingFrontend
    from repro.workloads.graphs import random_preference_graph

    sizes = SMOKE_SIZES if args.smoke else FULL_SIZES
    repeats = 1 if args.smoke else args.repeats
    series: dict = {}
    size_meta: dict = {}

    def record(name, fn, *, warmup=None):
        series[name] = time_median(
            fn, repeats=repeats,
            warmup=(0 if args.smoke else 1) if warmup is None else warmup,
        )
        print(f"  {name:40s} {series[name]['median_s'] * 1e3:10.3f} ms")

    for label, (n, k) in sizes.items():
        graph = random_preference_graph(n, variant=VARIANT, seed=1234)
        size_meta[label] = {
            "n_items": graph.n_items, "n_edges": graph.n_edges, "k": k,
        }
        print(f"[{label}] n_items={graph.n_items} "
              f"n_edges={graph.n_edges} k={k}")

        record(
            f"cold_solve.{label}",
            lambda graph=graph, k=k: solve(graph, variant=VARIANT, k=k),
        )

        service = AssortmentService(graph, variant=VARIANT, k=k)
        snapshot = service.ensure()
        item_ids = snapshot.graph.items
        rng = np.random.default_rng(99)
        points = [item_ids[i] for i in
                  rng.integers(0, len(item_ids), size=64).tolist()]
        batch = [item_ids[i] for i in
                 rng.integers(0, len(item_ids), size=256).tolist()]

        def warm(service=service, points=points):
            for item in points:
                service.covered_probability(item)

        probe = time_median(warm, repeats=repeats,
                            warmup=0 if args.smoke else 1)
        # Report the per-query cost: the loop above amortizes timer
        # granularity over 64 point reads.
        series[f"warm_query.{label}"] = {
            **{key: value / len(points)
               for key, value in probe.items() if key.endswith("_s")},
            "repeats": probe["repeats"],
            "queries_per_repeat": len(points),
        }
        print(f"  {f'warm_query.{label}':40s} "
              f"{series[f'warm_query.{label}']['median_s'] * 1e6:10.3f} us")

        record(
            f"warm_query_batch.{label}",
            lambda service=service, batch=batch:
                service.covered_probability_many(batch),
        )
        record(f"ensure_hit.{label}", service.ensure)

        sequence = [service.stats()["sequence"]]

        def refresh(service=service, sequence=sequence):
            sequence[0] += 1
            delta = random_delta(
                service.graph, sigma=0.05, seed=sequence[0],
                sequence=sequence[0],
            )
            service.apply_delta(delta)

        record(f"refresh_delta.{label}", refresh, warmup=0)

        async def drive(service=service, batch=batch):
            async with ServingFrontend(
                service, batch_window_s=0.001
            ) as frontend:
                for start in range(0, FRONTEND_REQUESTS, 64):
                    wave = [
                        frontend.covered_probability(
                            batch[(start + j) % len(batch)]
                        )
                        for j in range(64)
                    ]
                    await asyncio.gather(*wave)

        record(
            f"frontend_workload.{label}",
            lambda drive=drive: asyncio.run(drive()),
            warmup=0,
        )

        speedup = (
            series[f"cold_solve.{label}"]["median_s"]
            / max(series[f"warm_query.{label}"]["median_s"], 1e-12)
        )
        series[f"speedup.{label}"] = {
            "median_s": speedup, "repeats": repeats,
            "note": "cold_solve median over warm_query median (ratio, "
                    "not seconds)",
        }
        print(f"  {f'speedup.{label}':40s} {speedup:10.1f} x")

    append_run(
        series,
        sizes=size_meta,
        label=args.label,
        smoke=args.smoke,
        path=args.out,
        schema=SCHEMA,
    )
    print(f"appended {len(series)} series to {args.out}")
    return series


def check_trajectory(path: Path) -> int:
    """Validate the trajectory file; return a process exit code."""
    try:
        data = load_trajectory(path, schema=SCHEMA)
    except (ValueError, OSError) as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    if not data["runs"]:
        print(f"FAIL: {path} contains no runs", file=sys.stderr)
        return 1
    run = data["runs"][-1]
    sizes = list(run.get("sizes", {}))
    missing = []
    for label in sizes:
        for metric in EXPECTED_METRICS:
            key = f"{metric}.{label}"
            entry = run.get("series", {}).get(key)
            if not isinstance(entry, dict) or not (
                isinstance(entry.get("median_s"), (int, float))
                and entry["median_s"] > 0
            ):
                missing.append(key)
    if missing:
        print(
            f"FAIL: newest run in {path} is missing/invalid series: "
            f"{missing}",
            file=sys.stderr,
        )
        return 1
    floor = SPEEDUP_FLOOR_SMOKE if run.get("smoke") else SPEEDUP_FLOOR_FULL
    verdicts = []
    for label in sizes:
        cold = run["series"][f"cold_solve.{label}"]["median_s"]
        warm = run["series"][f"warm_query.{label}"]["median_s"]
        speedup = cold / max(warm, 1e-12)
        verdicts.append(f"{label}: {speedup:.0f}x")
        if speedup < floor:
            print(
                f"FAIL: warm query speedup on '{label}' is "
                f"{speedup:.1f}x, below the {floor:.0f}x floor "
                f"(cold={cold:.6f}s warm={warm * 1e6:.3f}us)",
                file=sys.stderr,
            )
            return 1
    print(
        f"OK: {path} — {len(data['runs'])} run(s), newest has "
        f"{len(run['series'])} series; warm/cold speedup "
        f"{', '.join(verdicts)} (floor {floor:.0f}x)"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one repeat (CI harness check)")
    parser.add_argument("--check", action="store_true",
                        help="validate the trajectory file and exit")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--label", default="",
                        help="free-form tag recorded with the run")
    parser.add_argument("--out", type=Path, default=BENCH_SERVE_PATH,
                        help="trajectory file (default: repo "
                             "BENCH_serve.json)")
    args = parser.parse_args(argv)

    if args.check:
        return check_trajectory(args.out)
    run_benchmarks(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
