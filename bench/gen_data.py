"""Generate the pinned inputs and answers under ``data/``.

Run once per change of the pinned answers, from the checkout root::

    python3 bench/gen_data.py random   # data/random_n7.json
    python3 bench/gen_data.py enum     # data/enum_n6.json

Every answer comes from the default search and is cross-checked against
a second search path (``core_order=False``, and without relaxation
pruning where the options still offer it); a disagreement aborts the
generation.  ``cost_s`` is the cold-cache time of the default path on the
generating machine (for ``random``, the median of ``COST_REPEATS``); the
benchmark only uses it to stratify its samples.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
import statistics
import sys
import time

from checkout import use_checkout_sources

use_checkout_sources()

from geodesic.decider import (  # noqa: E402
    DecideOptions,
    clear_decision_cache,
    decide_metric,
    find_complete_core,
    is_minimal_nonmetric,
)
from geodesic.enumeration import canonical_form, enumerate_minimal_nonmetric  # noqa: E402
from geodesic.hypergraphs import Hypergraph3  # noqa: E402
from geodesic.metric import hypergraph_of  # noqa: E402

from workloads import DATA, encode, extensions  # noqa: E402

RANDOM_SEED = 2207
RANDOM_N = 7
RANDOM_POOL_PER_VERDICT = 32
# Only instances whose default decision costs about the same as the others
# of their verdict enter the pool, so that every seeded sample of a few of
# them costs about the same: a seed changes the inputs, not the work.
RANDOM_COST_BAND_S = {True: (0.3, 0.7), False: (0.5, 1.1)}
COST_REPEATS = 3

# Anchors from the complete n=6 enumeration: 3-uniform hypergraphs on six
# vertices up to isomorphism (OEIS A000665), and the minimal non-metric ones.
CLASSES_N6 = 2136
MINIMAL_N6 = 748


def second_path() -> DecideOptions:
    names = {f.name for f in dataclasses.fields(DecideOptions)}
    return DecideOptions(core_order=False, **({"prune": False} if "prune" in names else {}))


def timed(fn, *args):
    clear_decision_cache()
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def median_cost(fn, *args) -> float:
    return statistics.median(timed(fn, *args)[1] for _ in range(COST_REPEATS))


def generate_random() -> dict:
    rng = random.Random(RANDOM_SEED)
    all_triples = list(itertools.combinations(range(RANDOM_N), 3))
    other = second_path()
    pools: dict[bool, list[dict]] = {True: [], False: []}
    drawn = 0
    while min(len(p) for p in pools.values()) < RANDOM_POOL_PER_VERDICT:
        density = 0.15 + 0.5 * rng.random()
        h = Hypergraph3.from_triples(RANDOM_N, [t for t in all_triples if rng.random() < density])
        drawn += 1
        verdict, cost = timed(decide_metric, h)
        if verdict.metric and hypergraph_of(verdict.witness) != h:
            raise SystemExit(f"witness of {sorted(h.triples)} does not re-induce it")
        if decide_metric(h, other).metric != verdict.metric:
            raise SystemExit(f"search paths disagree on {sorted(h.triples)}")
        pool = pools[verdict.metric]
        lo, hi = RANDOM_COST_BAND_S[verdict.metric]
        if len(pool) >= RANDOM_POOL_PER_VERDICT or not 0.8 * lo <= cost <= 1.2 * hi:
            continue
        cost = median_cost(decide_metric, h)
        if not lo <= cost <= hi:
            continue
        pool.append(
            {
                "mask": encode(h),
                "metric": verdict.metric,
                "density": round(density, 3),
                "has_core": find_complete_core(h) is not None,
                "nodes": verdict.stats.nodes,
                "cost_s": round(cost, 4),
            }
        )
        print(f"random: drawn {drawn}, metric {len(pools[True])}, non-metric {len(pools[False])}", file=sys.stderr)
    return {
        "n": RANDOM_N,
        "generator": {
            "seed": RANDOM_SEED,
            "density": "uniform in [0.15, 0.65], then each triple independently",
            "drawn": drawn,
            "cost_band_s": {"metric": RANDOM_COST_BAND_S[True], "non-metric": RANDOM_COST_BAND_S[False]},
            "cost": f"median of {COST_REPEATS} cold-cache runs of the default search",
            "cross_check": repr(other),
        },
        "instances": pools[True] + pools[False],
    }


def _next_level(level: list[Hypergraph3]) -> list[Hypergraph3]:
    reps: dict[bytes, Hypergraph3] = {}
    for parent in level:
        for c in extensions(parent):
            reps.setdefault(canonical_form(c), c)
    return list(reps.values())


def generate_enum() -> dict:
    level = [Hypergraph3.from_triples(3, []), Hypergraph3.from_triples(3, [(0, 1, 2)])]
    for _ in range(2):
        level = _next_level(level)
    parents = level
    if not all(decide_metric(p).metric for p in parents):
        raise SystemExit("a 5-vertex class is non-metric; the parent pool assumes all are metric")
    parent_index = {canonical_form(p): i for i, p in enumerate(parents)}

    classes: dict[bytes, Hypergraph3] = {}
    per_parent = []
    for p in parents:
        keys = set()
        for c in extensions(p):
            key = canonical_form(c)
            keys.add(key)
            classes.setdefault(key, c)
        per_parent.append(len(keys))
    if len(classes) != CLASSES_N6:
        raise SystemExit(f"{len(classes)} classes on six vertices, expected {CLASSES_N6}")

    other = second_path()
    entries = []
    for done, c in enumerate(classes.values(), 1):
        minimal, cost = timed(is_minimal_nonmetric, c)
        if is_minimal_nonmetric(c, other) != minimal:
            raise SystemExit(f"search paths disagree on minimality of {sorted(c.triples)}")
        entries.append(
            {
                "mask": encode(c),
                "minimal": minimal,
                "parents": [parent_index[canonical_form(c.delete_vertex(v))] for v in range(c.n)],
                "cost_s": round(cost, 4),
            }
        )
        if done % 100 == 0:
            print(f"enum: {done}/{len(classes)} classes", file=sys.stderr)
    found = sum(e["minimal"] for e in entries)
    if found != MINIMAL_N6:
        raise SystemExit(f"{found} minimal non-metric classes on six vertices, expected {MINIMAL_N6}")
    for i, count in enumerate(per_parent):
        if count != sum(i in e["parents"] for e in entries):
            raise SystemExit(f"parent {i}: extension classes disagree with the deletion map")

    result = enumerate_minimal_nonmetric(5)
    return {
        "n": 6,
        "parent_n": 5,
        "parents": [encode(p) for p in parents],
        "extension_classes": per_parent,
        "enumerate": {"n": 5, "found": len(result.found), "examined": result.classes_examined},
        "generator": {"cross_check": repr(other), "minimal": found, "classes": len(entries)},
        "classes": entries,
    }


def main() -> None:
    targets = {"random": ("random_n7.json", generate_random), "enum": ("enum_n6.json", generate_enum)}
    if len(sys.argv) != 2 or sys.argv[1] not in targets:
        raise SystemExit(f"usage: python3 bench/gen_data.py {{{'|'.join(targets)}}}")
    filename, generate = targets[sys.argv[1]]
    data = generate()
    with open(DATA / filename, "w", encoding="utf-8") as f:
        json.dump(data, f, separators=(",", ":"))
        f.write("\n")
    print(f"wrote {DATA / filename}", file=sys.stderr)


if __name__ == "__main__":
    main()
