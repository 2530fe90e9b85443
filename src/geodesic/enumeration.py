"""Isomorphism-classed enumeration of small minimal non-metric hypergraphs.

Canonical forms are bitmask encodings minimized over vertex relabelings
(restricted to degree-compatible ones, which is enough for canonicity).
Enumeration grows one vertex at a time, keeping only metric classes at
intermediate levels: every induced subhypergraph of a minimal non-metric
hypergraph is metric, so nothing is lost.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .decider import decide_metric
from .hypergraphs import Hypergraph3

CANONICAL_MAX_VERTICES = 8


@lru_cache(maxsize=None)
def _triple_index(n: int) -> dict[tuple[int, int, int], int]:
    return {t: i for i, t in enumerate(itertools.combinations(range(n), 3))}


def canonical_form(h: Hypergraph3) -> bytes:
    """Canonical byte string: equal for two hypergraphs iff isomorphic.

    Minimum over vertex relabelings of the triple-set bitmask, with
    relabelings restricted to those sending equal-degree vertices to the
    same position block.  The sorted degree sequence is part of the
    encoding, so different degree profiles never collide.
    """
    if h.n > CANONICAL_MAX_VERTICES:
        raise ValueError(f"canonical form limited to {CANONICAL_MAX_VERTICES} vertices")
    triple_index = _triple_index(h.n)
    degs = h.degrees()

    classes: dict[int, list[int]] = {}
    for v in range(h.n):
        classes.setdefault(degs[v], []).append(v)
    ordered_classes = [classes[d] for d in sorted(classes)]

    starts = []
    at = 0
    for cls in ordered_classes:
        starts.append(at)
        at += len(cls)

    best: Optional[int] = None
    triples = sorted(h.triples)
    for combo in itertools.product(*[itertools.permutations(cls) for cls in ordered_classes]):
        relabel = [0] * h.n
        for cls_perm, start in zip(combo, starts):
            for i, v in enumerate(cls_perm):
                relabel[v] = start + i
        mask = 0
        for a, b, c in triples:
            x, y, z = sorted((relabel[a], relabel[b], relabel[c]))
            mask |= 1 << triple_index[(x, y, z)]
        if best is None or mask < best:
            best = mask
    degseq = ",".join(str(d) for d in sorted(degs))
    return f"{h.n}|{degseq}|{best:x}".encode()


@dataclass(frozen=True)
class EnumerationResult:
    found: tuple[Hypergraph3, ...]
    truncated: bool
    classes_examined: int
    elapsed: float


def _level3_classes() -> list[Hypergraph3]:
    return [Hypergraph3.from_triples(3, []), Hypergraph3.from_triples(3, [(0, 1, 2)])]


def enumerate_minimal_nonmetric(n: int, budget: Optional[float] = None) -> EnumerationResult:
    """All isomorphism classes on ``n`` vertices that are minimal non-metric.

    ``budget`` is a wall-clock limit in seconds; when it runs out the
    result carries what was found so far with ``truncated`` set.
    """
    if not 3 <= n <= 6:
        raise ValueError("enumeration supported for 3 <= n <= 6")
    start = time.monotonic()

    def out_of_time() -> bool:
        return budget is not None and time.monotonic() - start > budget

    def truncated(found: list[Hypergraph3], examined: int) -> EnumerationResult:
        return EnumerationResult(tuple(found), True, examined, time.monotonic() - start)

    level = _level3_classes()
    k = 3
    examined = 0
    while k < n:
        # parents must be metric: induced subhypergraphs of minimal
        # non-metric hypergraphs always are
        parents = [h for h in level if decide_metric(h).metric]
        k += 1
        new_pairs = list(itertools.combinations(range(k - 1), 2))
        reps: dict[bytes, Hypergraph3] = {}
        for parent in parents:
            for picks in range(1 << len(new_pairs)):
                extra = frozenset(
                    (u, v, k - 1) for i, (u, v) in enumerate(new_pairs) if picks >> i & 1
                )
                candidate = Hypergraph3(k, parent.triples | extra)
                key = canonical_form(candidate)
                if key not in reps:
                    reps[key] = candidate
            if out_of_time():
                return truncated([], examined)
        level = list(reps.values())

    found: list[Hypergraph3] = []
    metric_subs: dict[bytes, bool] = {}
    for candidate in level:
        if out_of_time():
            return truncated(found, examined)
        examined += 1
        all_deletions_metric = True
        for v in range(candidate.n):
            sub = candidate.delete_vertex(v)
            key = canonical_form(sub)
            if key not in metric_subs:
                metric_subs[key] = decide_metric(sub).metric
            if not metric_subs[key]:
                all_deletions_metric = False
                break
        if not all_deletions_metric:
            continue
        if not decide_metric(candidate).metric:
            found.append(candidate)
    return EnumerationResult(tuple(found), False, examined, time.monotonic() - start)
