"""Benchmark workloads: seeded inputs, operations on the public API, pinned answers.

A workload turns a seed into a fixed list of operations.  Each operation
calls one public function of the package and is checked afterwards
against an answer pinned in advance: the paper's verdicts for ``paper``
and ``paper-j2``, and for ``random-n7`` and ``enum-n6-sample`` the
answers stored in ``data/`` by ``gen_data.py``.  Every metric witness is
re-verified with ``hypergraph_of(w) == h``.

Operations look the package functions up on their modules at call time,
so the tracer's wrappers (``tracer.py``) see every call.

Seeded samples are stratified by the cost recorded at generation time:
the pool is sorted by cost, cut into as many equal strata as there are
picks, and one item is drawn from each.  Different seeds then give
different inputs of nearly the same total cost, which keeps the timed
batch comparable across seeds.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
import resource
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import geodesic.decider as decider
import geodesic.enumeration as enumeration
import geodesic.metric as metric
import geodesic.obstacles as obstacles
from geodesic.hypergraphs import (
    Hypergraph3,
    based_hypergraph,
    complement,
    cycle_graph,
    path_graph,
)

from calibrate import Speedometer

DATA = Path(__file__).resolve().parent / "data"

WORKLOADS = ("paper", "random-n7", "enum-n6-sample")

# random-n7: picks per verdict, one from each cost stratum of that verdict's pool
RANDOM_PICKS_PER_VERDICT = 4
# enum-n6-sample: seeded 5-vertex parents, and 6-vertex classes sampled from their extensions
ENUM_PARENTS = 6
ENUM_CLASSES = 30
# The few classes that cost more than this at generation (36 of 2136)
# are not sampled: one of them in a stratum would swing the batch time
# with the seed.
ENUM_CLASS_COST_CAP_S = 0.6

# Non-metric by full naive enumeration (all 3^8 orientations infeasible);
# the frozen instance of the decider tests.
FROZEN_6V_8T = ((0, 2, 3), (0, 2, 4), (0, 2, 5), (0, 3, 4), (0, 3, 5), (1, 2, 4), (1, 2, 5), (1, 3, 5))

# Originals, captured before any tracer wrapper is installed: checks must
# neither be counted nor timed as work of the package.
_canonical_form = enumeration.canonical_form
_hypergraph_of = metric.hypergraph_of


def encode(h: Hypergraph3) -> int:
    """Bitmask of the hyperedges over ``itertools.combinations(range(n), 3)``."""
    index = {t: i for i, t in enumerate(itertools.combinations(range(h.n), 3))}
    return sum(1 << index[t] for t in h.triples)


def decode(n: int, mask: int) -> Hypergraph3:
    triples = [t for i, t in enumerate(itertools.combinations(range(n), 3)) if mask >> i & 1]
    return Hypergraph3.from_triples(n, triples)


def extensions(parent: Hypergraph3) -> list[Hypergraph3]:
    """Every one-vertex extension, new vertex last, as the enumeration builds them."""
    k = parent.n + 1
    new_pairs = list(itertools.combinations(range(k - 1), 2))
    return [
        Hypergraph3(
            k,
            parent.triples
            | frozenset((u, v, k - 1) for i, (u, v) in enumerate(new_pairs) if picks >> i & 1),
        )
        for picks in range(1 << len(new_pairs))
    ]


def strata(entries: list[dict], count: int) -> list[list[dict]]:
    """``count`` equal slices of pinned entries sorted by their ``cost_s``."""
    ordered = sorted(entries, key=lambda e: (e["cost_s"], e["mask"]))
    cuts = [round(i * len(ordered) / count) for i in range(count + 1)]
    return [ordered[cuts[i] : cuts[i + 1]] for i in range(count)]


def load(name: str) -> dict:
    with open(DATA / name, encoding="utf-8") as f:
        return json.load(f)


Check = Callable[[Any], Optional[str]]  # error message, or None when the result is right


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Check


@dataclass
class Workload:
    name: str
    seed: int
    ops: list[Op]
    sample: dict[str, int]
    # the same operations on process workers, run by the traced run only
    parallel_twin: Optional[str] = None


@dataclass
class BatchResult:
    wall_s: float  # wall time of the operations, less calibration samples
    scaled_s: float  # the same, each operation rescaled to the reference speed
    cpu_s: float  # user plus system time of this process and its reaped children
    failures: list[tuple[str, str]]


def _cpu_s() -> float:
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in (resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN))
    )


@dataclass
class _Raised:
    trace: str


def run_batch(workload: Workload, speed: Speedometer) -> BatchResult:
    """Run every operation from a cold decision cache, then check each result.

    Only the operations are timed, less the calibration samples taken
    while they run.  An operation that raises counts as failed; the rest
    still run.
    """
    decider.clear_decision_cache()
    results: list[Any] = []
    wall = scaled = cpu = 0.0
    with speed:
        speed.sample()
        for op in workload.ops:
            first = len(speed.samples) - 1
            cpu0, spent0 = _cpu_s(), speed.spent
            t0 = speed.clock()
            try:
                results.append(op.call())
            except Exception:
                results.append(_Raised(traceback.format_exc()))
            took = speed.clock() - t0
            cpu += _cpu_s() - cpu0 - (speed.spent - spent0)
            speed.sample()
            wall += took
            scaled += speed.scale(took, first)
    failures = []
    for op, result in zip(workload.ops, results):
        if isinstance(result, _Raised):
            failures.append((op.name, result.trace))
            continue
        error = op.check(result)
        if error is not None:
            failures.append((op.name, error))
    return BatchResult(wall, scaled, cpu, failures)


# -- checks --------------------------------------------------------------------


def expect_verdict(h: Hypergraph3, expected: bool) -> Check:
    def check(verdict: Any) -> Optional[str]:
        if verdict.metric != expected:
            return f"verdict metric={verdict.metric}, pinned {expected}"
        if verdict.metric and _hypergraph_of(verdict.witness) != h:
            return "metric witness does not re-induce the input"
        return None

    return check


def expect_certificate(cert: Any) -> Optional[str]:
    if cert is None:
        return "no certificate, pinned: certified obstacle"
    if cert.verdict_graph.metric or cert.verdict_complement.metric:
        return "certificate carries a metric verdict"
    return None


def expect_equal(expected: Any, what: str) -> Check:
    def check(got: Any) -> Optional[str]:
        return None if got == expected else f"{what} {got!r}, pinned {expected!r}"

    return check


# -- workloads -----------------------------------------------------------------


def build(name: str, seed: int) -> Workload:
    """The seeded inputs and operations of one workload.

    ``paper-j2`` is not a timed workload: its wall time swings too much
    (see README.md), so only the traced run of ``paper`` runs it.
    """
    rng = random.Random(seed)
    if name == "paper":
        return _paper(name, seed, rng, None)
    if name == "paper-j2":
        return _paper(name, seed, rng, decider.DecideOptions(threads=2))
    if name == "random-n7":
        return _random_n7(name, seed, rng)
    if name == "enum-n6-sample":
        return _enum_n6_sample(name, seed, rng)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def _decide_op(label: str, h: Hypergraph3, expected: bool, options) -> Op:
    return Op(label, lambda: decider.decide_metric(h, options), expect_verdict(h, expected))


def _paper(name: str, seed: int, rng: random.Random, options) -> Workload:
    """The paper's instances; the seed only sets the order they run in."""
    ops = [
        Op(f"certify C{n}", lambda g=cycle_graph(n): obstacles.certify_obstacle(g, options), expect_certificate)
        for n in (6, 8)
    ]
    ops += [_decide_op(f"decide based C{n}", based_hypergraph(cycle_graph(n)), True, options) for n in (7, 9)]
    ops.append(_decide_op("decide based P5-bar", based_hypergraph(complement(path_graph(5))), False, options))
    ops.append(_decide_op("decide frozen 6v8t", Hypergraph3.from_triples(6, FROZEN_6V_8T), False, options))
    rng.shuffle(ops)
    threads = options.threads if options else 1
    return Workload(name, seed, ops, {"ops": len(ops), "threads": threads}, None if threads > 1 else "paper-j2")


def _random_n7(name: str, seed: int, rng: random.Random) -> Workload:
    data = load("random_n7.json")
    picks = []
    for verdict in (True, False):
        pool = [inst for inst in data["instances"] if inst["metric"] is verdict]
        picks += [rng.choice(stratum) for stratum in strata(pool, RANDOM_PICKS_PER_VERDICT)]
    rng.shuffle(picks)
    ops = [
        _decide_op(f"decide random n7 #{inst['mask']:x}", decode(data["n"], inst["mask"]), inst["metric"], None)
        for inst in picks
    ]
    metric_count = sum(inst["metric"] for inst in picks)
    return Workload(name, seed, ops, {"ops": len(ops), "metric": metric_count, "nonmetric": len(ops) - metric_count})


def _enum_n6_sample(name: str, seed: int, rng: random.Random) -> Workload:
    data = load("enum_n6.json")
    parents = [decode(data["parent_n"], mask) for mask in data["parents"]]
    chosen = sorted(rng.sample(range(len(parents)), ENUM_PARENTS))
    # Strata of the whole catalog, so that their costs do not depend on
    # the parents drawn; each pick prefers an extension of a drawn parent.
    chosen_set = set(chosen)
    affordable = [c for c in data["classes"] if c["cost_s"] <= ENUM_CLASS_COST_CAP_S]
    sampled = [
        rng.choice([c for c in stratum if chosen_set.intersection(c["parents"])] or stratum)
        for stratum in strata(affordable, ENUM_CLASSES)
    ]

    @functools.cache
    def parent_key(i: int) -> bytes:
        return _canonical_form(parents[i])

    def expect_class(entry: dict) -> Check:
        def check(result: Any) -> Optional[str]:
            keys, minimal = result
            if minimal != entry["minimal"]:
                return f"is_minimal_nonmetric {minimal}, pinned {entry['minimal']}"
            for v, (key, p) in enumerate(zip(keys, entry["parents"])):
                if key != parent_key(p):
                    return f"deleting vertex {v} gave another canonical form than its pinned parent class"
            return None

        return check

    def enumerate_counts(n: int) -> tuple[int, int]:
        result = enumeration.enumerate_minimal_nonmetric(n)
        return len(result.found), result.classes_examined

    def distinct_classes(cands: list[Hypergraph3]) -> int:
        return len({enumeration.canonical_form(c) for c in cands})

    def deletions_and_minimality(h: Hypergraph3) -> tuple[tuple[bytes, ...], bool]:
        keys = tuple(enumeration.canonical_form(h.delete_vertex(v)) for v in range(h.n))
        return keys, decider.is_minimal_nonmetric(h)

    pinned = data["enumerate"]
    ops = [
        Op(
            f"enumerate n={pinned['n']}",
            lambda: enumerate_counts(pinned["n"]),
            expect_equal((pinned["found"], pinned["examined"]), "(found, examined)"),
        )
    ]
    candidates = {i: extensions(parents[i]) for i in chosen}
    ops += [
        Op(
            f"extensions of parent {i}",
            lambda cands=cands: distinct_classes(cands),
            expect_equal(data["extension_classes"][i], "distinct classes"),
        )
        for i, cands in candidates.items()
    ]
    ops += [
        Op(
            f"deletions and minimality of class #{entry['mask']:x}",
            lambda h=decode(data["n"], entry["mask"]): deletions_and_minimality(h),
            expect_class(entry),
        )
        for entry in sampled
    ]
    sample = {
        "ops": len(ops),
        "parents": len(chosen),
        "extensions": sum(len(cands) for cands in candidates.values()),
        "classes": len(sampled),
        "minimal": sum(entry["minimal"] for entry in sampled),
    }
    return Workload(name, seed, ops, sample)
