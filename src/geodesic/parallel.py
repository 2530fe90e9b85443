"""Process-parallel exploration of disjoint search subtrees.

Top-level branches (core orders, or first-triple middles) are strided
round-robin across workers.  Every worker is deterministic, and the
combined verdict takes the metric hit with the smallest global branch
index, so verdict and witness match the sequential run exactly; only the
work tallies differ, because workers past the winning branch are not
interrupted mid-task.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from typing import Optional

from .decider import (
    DecideOptions,
    SearchStats,
    Verdict,
    _core_orders,
    _decide_sequential,
    _Engine,
    _linear_core_facts,
    find_complete_core,
)
from .hypergraphs import Hypergraph3
from .metric import MetricSpace


def _worker(payload: tuple[Hypergraph3, DecideOptions, int, int]):
    h, opts, stride, offset = payload
    engine = _Engine(h)
    core = find_complete_core(h) if opts.core_order else None
    hit_index: Optional[int] = None
    witness: Optional[MetricSpace] = None

    if core is not None:
        for idx, order in enumerate(_core_orders(h, core)):
            if idx % stride != offset:
                continue
            mark = engine.state.checkpoint()
            engine.counters.nodes += 1
            engine.state.seed_unchecked(_linear_core_facts(order))
            found = engine.search()
            if found is not None:
                hit_index, witness = idx, found
                break
            engine.state.rollback(mark)
    else:
        first = min(h.triples)
        for idx, middle in enumerate(first):
            if idx % stride != offset:
                continue
            mark = engine.state.checkpoint()
            engine.counters.nodes += 1
            conflict = engine.state.assert_fact(first, middle)
            if conflict is None:
                found = engine.search()
                if found is not None:
                    hit_index, witness = idx, found
                    break
            else:
                engine.counters.conflict(conflict.cause)
            engine.state.rollback(mark)
    return hit_index, witness, engine.counters.freeze()


def decide_parallel(h: Hypergraph3, opts: DecideOptions) -> Verdict:
    if not h.triples:
        return _decide_sequential(h, replace(opts, threads=1))
    workers = opts.threads
    payloads = [(h, opts, workers, off) for off in range(workers)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(_worker, payloads))

    stats = SearchStats()
    for _, _, s in results:
        stats = stats.merged(s)
    hits = [(idx, w) for idx, w, _ in results if idx is not None]
    if not hits:
        return Verdict(False, None, stats)
    _, witness = min(hits, key=lambda p: p[0])
    return Verdict(True, witness, stats)
