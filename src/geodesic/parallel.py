"""Process-parallel exploration of disjoint search subtrees.

Top-level branches (core orders, or first-triple middles) are strided
round-robin across workers, each running the sequential branch walker
``decider._explore`` on its share.  Every worker is deterministic, and the
combined verdict takes the metric hit with the smallest global branch
index, so verdict and witness match the sequential run exactly; only the
work tallies differ, because workers past the winning branch are not
interrupted mid-task.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

from .decider import DecideOptions, SearchStats, Verdict, _decide_sequential, _explore
from .hypergraphs import Hypergraph3


def _worker(payload: tuple[Hypergraph3, DecideOptions, int, int]):
    h, opts, stride, offset = payload
    return _explore(h, opts.core_order, stride, offset)


def decide_parallel(h: Hypergraph3, opts: DecideOptions) -> Verdict:
    if not h.triples:  # no branch to share out
        return _decide_sequential(h, opts)
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
