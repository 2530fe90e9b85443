"""Run every workload over several seeds and summarise the spread and the medians.

From the root of a checkout::

    python3 bench/baseline.py --seeds 1-10 --out bench/baseline.json

Each workload gets one timed run per seed, each in a fresh process, and
two traced runs on the first seed.  For every end-to-end metric the
summary gives the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread, the distance between the quartiles as a share of the
median.  The two traced runs must agree on every count metric.

Two derived figures are named so that later changes can cite them:

- ``paper_j2_slowdown``: ``parallel.wall_ratio`` of ``paper``, the wall time
  of its operations with ``threads=2`` over that with ``threads=1``;
- ``random_n7_relax_share``: ``feasibility.relax_solve_s`` of ``random-n7``
  as a share of its traced batch time (likewise ``paper_assert_fact_share``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from checkout import ROOT, use_checkout_sources

use_checkout_sources()

from tracer import COUNT_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUN = Path(__file__).resolve().parent / "run.py"


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    *_, record_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: incorrect\n{proc.stderr}")
    return json.loads(record_line)["record"], result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--workloads", type=lambda s: s.split(","), default=list(WORKLOADS))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    out: dict = {
        "machine": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version()},
        "run_seconds": seconds,
        "seeds": args.seeds,
        "workloads": {},
    }
    for workload in args.workloads:
        timed = [run(workload, seed, seconds, 0) for seed in args.seeds]
        entry: dict = {
            "end_to_end": {
                name: summary([result["metrics"][name]["value"] for _, result in timed])
                for name in timed[0][1]["metrics"]
            },
            "raw_wall_s": summary([statistics.median(record["batch_wall_s"]) for record, _ in timed]),
            "samples": [record["sample"] for record, _ in timed],
            "batches": [record["batches"] for record, _ in timed],
        }
        line = {name: round(s["spread"], 4) for name, s in entry["end_to_end"].items()}
        line["raw wall"] = round(entry["raw_wall_s"]["spread"], 4)
        print(f"{workload}: spread {line}", file=sys.stderr)
        (record, first), (_, second) = [run(workload, args.seeds[0], seconds, 1) for _ in range(2)]
        counts = [{k: r["metrics"][k]["value"] for k in COUNT_METRICS if k in r["metrics"]} for r in (first, second)]
        entry["counts_repeat"] = counts[0] == counts[1]
        entry["per_layer"] = {name: m["value"] for name, m in first["metrics"].items()}
        entry["traced_wall_s"] = statistics.mean(record["traced_wall_s"])
        entry["untraced_wall_s"] = statistics.mean(record["untraced_wall_s"])
        print(f"{workload}: counts repeat across traced runs: {entry['counts_repeat']}", file=sys.stderr)
        out["workloads"][workload] = entry

    found = out["workloads"]
    derived = {}
    if "paper" in found:
        derived["paper_j2_slowdown"] = found["paper"]["per_layer"]["parallel.wall_ratio"]
    for workload, metric, name in (
        ("random-n7", "feasibility.relax_solve_s", "random_n7_relax_share"),
        ("paper", "orientation.assert_fact_s", "paper_assert_fact_share"),
    ):
        if workload in found:
            derived[name] = found[workload]["per_layer"][metric] / found[workload]["traced_wall_s"]
    out["derived"] = derived
    print(json.dumps(derived), file=sys.stderr)
    text = json.dumps(out, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    else:
        print(text)


if __name__ == "__main__":
    main()
