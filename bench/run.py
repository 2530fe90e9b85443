"""Run one workload of the geodesic benchmark and print its result.

From the root of a checkout::

    python3 bench/run.py --workload paper --seed 1 --seconds 36 --trace 0

``--trace 0`` reports the end-to-end metrics.  It sets the workload up in
fresh processes (``probe.py``) ``SETUP_PROBES`` times; ``setup_s`` is the
median time from process start to the first timed call, rescaled like
``wall_s``.  It then runs the workload's batch,
each from a cold decision cache, for ``--seconds`` (at least
``MIN_BATCHES`` times).  ``wall_s`` is the median batch wall time, each
operation rescaled to the reference machine speed of ``calibrate.py``;
the raw batch times are in the run record.  ``peak_rss_mb`` is the
largest resident size of this process or any child.

``--trace 1`` reports the per-layer metrics of ``tracer.py``.  It runs the
batch untraced and traced, twice each in turn; every count must repeat
exactly between the two traced passes.  A workload with a parallel twin
(``paper``) then runs the twin traced once: the same operations with
``threads=2``, for the ``parallel.*`` metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the run record (machine, seed, sample sizes, per-batch times).  Every
operation's result is checked against its pinned answer; details of a
failure go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checkout import use_checkout_sources

use_checkout_sources()

import workloads  # noqa: E402
from calibrate import REFERENCE_S, Speedometer  # noqa: E402

SETUP_PROBES = 5
MIN_BATCHES = 2

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "orientation.conflict_ratio": "ratio",
    "feasibility.prune_yield": "ratio",
    "parallel.nodes_ratio": "ratio",
    "parallel.wall_ratio": "ratio",
    "parallel.cpu_per_wall": "ratio",
    "parallel.worker_peak_rss_mb": "MB",
    "feasibility.lp_rows": "rows",
}


def _unit_of(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def probe_setup(args: argparse.Namespace) -> tuple[float, float]:
    """Seconds from starting a fresh process to its workload being ready to
    run, raw and rescaled to the reference speed."""
    cmd = [sys.executable, str(Path(__file__).with_name("probe.py")), args.workload, str(args.seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or not line:
        raise SystemExit(f"bench: setup probe failed with exit code {proc.returncode}")
    reading = json.loads(line)
    setup = ready - reading["sampling_s"]
    return setup, setup * REFERENCE_S / reading["kernel_s"]


def mb(kilobytes: int) -> float:
    return kilobytes / 1024.0


def timed_run(args: argparse.Namespace, wl: workloads.Workload) -> tuple[dict, dict, list, int, bool]:
    setups = [probe_setup(args) for _ in range(SETUP_PROBES)]
    speed = Speedometer()
    batches: list[workloads.BatchResult] = []
    start = time.perf_counter()
    while True:
        batches.append(workloads.run_batch(wl, speed))
        elapsed = time.perf_counter() - start
        if len(batches) >= MIN_BATCHES and elapsed * (1 + 1 / len(batches)) > args.seconds:
            break
    failures = [f for batch in batches for f in batch.failures]
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {
        "wall_s": statistics.median(batch.scaled_s for batch in batches),
        "setup_s": statistics.median(scaled for _, scaled in setups),
        "peak_rss_mb": mb(peak),
    }
    record = {
        "batches": len(batches),
        "batch_scaled_s": [batch.scaled_s for batch in batches],
        "batch_wall_s": [batch.wall_s for batch in batches],
        "setup_probe_s": [raw for raw, _ in setups],
        "setup_probe_scaled_s": [scaled for _, scaled in setups],
    }
    out = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    return out, record, failures, len(batches) * len(wl.ops), True


def traced_pass(wl: workloads.Workload, speed: Speedometer):
    from tracer import Tracer

    tracer = Tracer(speed.clock)
    tracer.install()
    try:
        batch = workloads.run_batch(wl, speed)
    finally:
        tracer.restore()
    return batch, tracer


def trace_run(args: argparse.Namespace, wl: workloads.Workload) -> tuple[dict, dict, list, int, bool]:
    from tracer import COUNT_METRICS

    speed = Speedometer()
    bases, passes = [], []
    for _ in range(2):
        bases.append(workloads.run_batch(wl, speed))
        passes.append(traced_pass(wl, speed))
    failures = [f for batch in bases + [batch for batch, _ in passes] for f in batch.failures]
    first, second = (tracer.metrics() for _, tracer in passes)
    counts = [{k: m[k] for k in COUNT_METRICS if k in m} for m in (first, second)]
    deterministic = counts[0] == counts[1]
    if not deterministic:
        diff = {k: (counts[0].get(k), counts[1].get(k)) for k in COUNT_METRICS if counts[0].get(k) != counts[1].get(k)}
        print(f"bench: counts differ between two traced passes: {diff}", file=sys.stderr)

    metrics = {k: v if k in COUNT_METRICS else (v + second[k]) / 2 for k, v in first.items()}
    untraced_s = statistics.mean(batch.scaled_s for batch in bases)
    metrics["trace.overhead_s"] = statistics.mean(batch.scaled_s for batch, _ in passes) - untraced_s

    attempted = 4 * len(wl.ops)
    metrics["parallel.cpu_per_wall"] = sum(batch.cpu_s for batch in bases) / sum(batch.wall_s for batch in bases)
    if wl.parallel_twin is None:
        metrics["parallel.nodes_ratio"] = metrics["parallel.wall_ratio"] = 1.0
    else:
        twin_wl = workloads.build(wl.parallel_twin, wl.seed)
        twin_batch, twin = traced_pass(twin_wl, speed)
        failures += twin_batch.failures
        attempted += len(twin_wl.ops)
        twin_nodes = twin.metrics().get("decider.nodes")
        if twin_nodes is not None and metrics.get("decider.nodes"):
            metrics["parallel.nodes_ratio"] = twin_nodes / metrics["decider.nodes"]
        metrics["parallel.wall_ratio"] = twin_batch.wall_s / statistics.mean(batch.wall_s for batch, _ in passes)
        metrics["parallel.cpu_per_wall"] = twin_batch.cpu_s / twin_batch.wall_s
    metrics["parallel.worker_peak_rss_mb"] = mb(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    out = {k: {"value": v, "unit": PER_LAYER_UNITS.get(k, _unit_of(k))} for k, v in sorted(metrics.items())}
    record = {
        "untraced_wall_s": [batch.wall_s for batch in bases],
        "untraced_scaled_s": [batch.scaled_s for batch in bases],
        "traced_wall_s": [batch.wall_s for batch, _ in passes],
        "traced_scaled_s": [batch.scaled_s for batch, _ in passes],
        "deterministic_counts": deterministic,
        "missing_hooks": sorted(passes[0][1].missing),
    }
    return out, record, failures, attempted, deterministic


def main() -> None:
    args = parse_args()
    wl = workloads.build(args.workload, args.seed)

    run = trace_run if args.trace else timed_run
    metrics, record, failures, attempted, deterministic = run(args, wl)
    for name, detail in failures:
        print(f"bench: FAILED {name}: {detail}", file=sys.stderr)

    record.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "sample": wl.sample,
            "error_rate": len(failures) / attempted,
        }
    )
    print(json.dumps({"record": record}))
    result = {
        "correct": not failures and deterministic,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
