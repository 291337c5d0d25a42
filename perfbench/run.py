"""Benchmark entry point: one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pipeline_pe --seed 1 --seconds 15 --trace 0

Workloads are ``pipeline_pe``, ``solve_1m`` and ``serve_pe`` (see
``workloads.py`` and ``README.md``).  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
with ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones.  The lines before it describe the host
and the run.

This process generates the inputs from ``--seed`` into a scratch
directory under ``.perfbench/`` and then runs the workload in fresh
processes, so neither the generation nor its memory reaches a metric:

* with ``--trace 0``, two set-up-only processes run first and the
  measuring process's own set-up is the third sample; ``setup_s`` is
  their median, each measured from that process's start to where its
  first timed unit begins;
* one measuring process sets up, measures for ``--seconds`` and checks
  every oracle.

The program is imported from ``src/`` of the checkout this file sits
in; without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"

#: Set-up samples per ``--trace 0`` invocation (median reported).
SETUP_SAMPLES = 3

#: Every process of one invocation must be done within this many seconds.
TIME_LIMIT_S = 175.0

WORKLOAD_NAMES = ("pipeline_pe", "solve_1m", "serve_pe")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs for the benchmark's own tests")
    parser.add_argument("--role", choices=("setup", "measure"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import ``repro``."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {source}/repro")
    sys.path.insert(0, str(source))
    import repro

    if Path(repro.__file__).resolve().parent != source / "repro":
        sys.exit(f"error: imported repro from {repro.__file__}, not {source}")


def child_main(args: argparse.Namespace) -> int:
    """A workload process: set up, and measure when ``--role measure``."""
    import_program()
    from workloads import run_workload

    spans = SCRATCH / f"spans-{args.workload}.jsonl" if args.trace else None
    out = run_workload(
        args.workload, seed=args.seed, seconds=args.seconds, size=args.size,
        tracing=bool(args.trace) and args.role == "measure",
        role=args.role, workdir=Path(args.workdir), started=_STARTED,
        spans_path=spans,
    )
    print(json.dumps(out))
    return 0


def spawn(args: argparse.Namespace, role: str, workdir: Path) -> dict:
    """Run one workload process to completion; its last line is its result."""
    remaining = TIME_LIMIT_S - (time.perf_counter() - _STARTED)
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", args.size, "--role", role, "--workdir", str(workdir),
    ]
    completed = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, remaining), check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{role} process for {args.workload} exited with status "
            f"{completed.returncode}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def mismatches(reference: dict, other: dict) -> list:
    """Fingerprint entries (selection, exact counts) that differ."""
    found = []
    if reference.get("selection") != other.get("selection"):
        found.append("selection")
    counts, other_counts = reference["counts"], other["counts"]
    found += [
        name for name in counts.keys() & other_counts.keys()
        if counts[name] != other_counts[name]
    ]
    return found


def parent_main(args: argparse.Namespace) -> int:
    import_program()
    import host
    from workloads import END_TO_END, PER_LAYER, SIZES, WORKLOADS

    SCRATCH.mkdir(exist_ok=True)
    workdir = SCRATCH / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        WORKLOADS[args.workload](SIZES[args.size]).generate(args.seed, workdir)
        setups = []
        if not args.trace:
            setups = [
                spawn(args, "setup", workdir)
                for _ in range(SETUP_SAMPLES - 1)
            ]
        result = spawn(args, "measure", workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = result["failed"]
    messages = list(result["messages"])
    for sample in setups:
        differing = mismatches(result["fingerprint"], sample["fingerprint"])
        if differing:
            failed += 1
            messages.append(
                f"set-up process disagreed with the measuring one on "
                f"{', '.join(differing)}"
            )
    attempted = result["attempted"] + len(setups)
    metrics = dict(result["metrics"])
    if not args.trace:
        samples = [sample["setup_s"] for sample in setups] + [result["setup_s"]]
        metrics["setup_s"] = median(samples)
    names = END_TO_END if not args.trace else PER_LAYER
    units = dict(names)

    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} size={args.size}"
    )
    print("host " + json.dumps(dict(host.describe(),
                                    probe_ms=result["probe_ms"])))
    if not args.trace:
        print(f"setup samples (s): {[round(s, 4) for s in samples]}")
    else:
        print(f"spans: {SCRATCH / f'spans-{args.workload}.jsonl'}")
    for name, unit in names:
        print(f"  {name:<52} {metrics[name]:>14.6g} {unit}")
    print(f"timed units: {result['units']}  operations: {attempted} "
          f"attempted, {failed} failed")
    for message in messages:
        print(f"FAILED: {message}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name, _unit in names
        },
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated benchmark still kills its child and removes its
    # scratch inputs: SystemExit unwinds through the cleanup paths.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.role:
        return child_main(args)
    try:
        return parent_main(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
