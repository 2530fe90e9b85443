"""Process-parallel exploration of disjoint search subtrees.

Top-level branches (core orders, first-triple middles, or the lone leaf
of an edgeless input) are strided round-robin across workers, each
running the sequential branch walker ``decider._explore`` on its share.
Every worker is deterministic, and the combined verdict takes the metric
hit with the smallest global branch index, so verdict and witness match
the sequential run exactly; only the work tallies differ, because
workers past the winning branch are not interrupted mid-task.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

from .decider import DecideOptions, SearchStats, Verdict, _explore
from .hypergraphs import Hypergraph3


def decide_parallel(h: Hypergraph3, opts: DecideOptions) -> Verdict:
    workers = opts.threads
    with ProcessPoolExecutor(max_workers=workers) as pool:
        results = list(
            pool.map(_explore, [h] * workers, [opts.core_order] * workers, [workers] * workers, range(workers))
        )

    stats = SearchStats()
    for _, _, s in results:
        stats = stats.merged(s)
    hits = [(idx, w) for idx, w, _ in results if idx is not None]
    if not hits:
        return Verdict(False, None, stats)
    _, witness = min(hits, key=lambda p: p[0])
    return Verdict(True, witness, stats)
