"""Isomorphism-classed enumeration of small minimal non-metric hypergraphs.

A canonical form is a triple-set bitmask under a canonical relabeling.
Colour refinement, followed by individualize-and-refine where refinement
leaves a cell of two or more vertices, gives a tree of discrete
colourings; the form is the least bitmask over its leaves.
Enumeration grows one vertex at a time, keeping only metric classes at
intermediate levels: every induced subhypergraph of a minimal non-metric
hypergraph is metric, so nothing is lost.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from .decider import decide_metric
from .hypergraphs import Hypergraph3, Triple, _check_size

CANONICAL_MAX_VERTICES = 8


@lru_cache(maxsize=None)
def _triple_bits(n: int) -> tuple[int, ...]:
    """Bit of each triple in the form's bitmask, indexed by
    ``(a * n + b) * n + c`` for every ordered triple of distinct vertices."""
    bits = [0] * n**3
    for i, t in enumerate(itertools.combinations(range(n), 3)):
        for a, b, c in itertools.permutations(t):
            bits[(a * n + b) * n + c] = 1 << i
    return tuple(bits)


@lru_cache(maxsize=None)
def _pair_weights(n: int) -> tuple[int, tuple[int, ...]]:
    """Packing of a vertex's refinement key into one integer.

    ``weights[x * n + y]`` is ``base ** i`` for the i-th unordered colour
    pair {x, y}; ``base`` exceeds the number of triples on a vertex, so
    the sum over a vertex's triples encodes its multiset of colour pairs.
    ``top`` is the first power past every such sum: the vertex's own
    colour is packed above it.
    """
    base = (n - 1) * (n - 2) // 2 + 1
    weights = [0] * (n * n)
    for i, (x, y) in enumerate(itertools.combinations_with_replacement(range(n), 2)):
        weights[x * n + y] = weights[y * n + x] = base**i
    return base ** (n * (n + 1) // 2), tuple(weights)


def _refine(colour: list[int], cells: int, triples: list[Triple]) -> tuple[list[int], int]:
    """Equitable refinement of ``colour``, whose values are 0..cells-1.

    Each round keys a vertex by its colour and the multiset of colour
    pairs over its triples, and recolours it by the rank of its key among
    the distinct keys, so colours stay isomorphism-invariant. It stops
    once the colouring is discrete or a round splits no cell.
    """
    n = len(colour)
    top, weights = _pair_weights(n)
    while cells < n:
        keys = [c * top for c in colour]
        for a, b, c in triples:
            x, y, z = colour[a], colour[b], colour[c]
            keys[a] += weights[y * n + z]
            keys[b] += weights[x * n + z]
            keys[c] += weights[x * n + y]
        distinct = sorted(set(keys))
        if len(distinct) == cells:
            break
        rank = {key: i for i, key in enumerate(distinct)}
        colour = [rank[key] for key in keys]
        cells = len(distinct)
    return colour, cells


@lru_cache(maxsize=None)
def _pairs_holding(n: int) -> tuple[int, ...]:
    """For each vertex v, the bitmask over ``a * n + b`` (a < b) of the
    pairs that hold v."""
    return tuple(sum(1 << (min(u, v) * n + max(u, v)) for u in range(n) if u != v) for v in range(n))


def _links(n: int, triples: list[Triple]) -> list[int]:
    """Each vertex's link, the pairs {a, b} (a < b) that make a triple
    with it, as a bitmask over ``a * n + b``."""
    link = [0] * n
    for a, b, c in triples:
        link[a] |= 1 << (b * n + c)
        link[b] |= 1 << (a * n + c)
        link[c] |= 1 << (a * n + b)
    return link


def canonical_form(h: Hypergraph3) -> bytes:
    """Canonical byte string: equal for two hypergraphs iff isomorphic.

    Refine the degree colouring; while a cell has two or more vertices,
    individualize each vertex of the first such cell in turn and refine
    again. Every discrete leaf relabels the vertices by colour, and the
    form is the least triple bitmask over the leaves. Of two twins in a
    cell only one is tried: twins are vertices whose transposition is an
    automorphism of ``h``, and that transposition fixes every vertex
    individualized so far, so it maps one subtree onto the other and the
    two give the same leaves.
    """
    n = h.n
    if n > CANONICAL_MAX_VERTICES:
        raise ValueError(f"canonical form limited to {CANONICAL_MAX_VERTICES} vertices")
    triples = list(h.triples)
    degrees = h.degrees()
    degree_rank = {d: i for i, d in enumerate(sorted(set(degrees)))}
    bits = _triple_bits(n)
    link: list[int] = []
    best: Optional[int] = None
    stack = [_refine([degree_rank[d] for d in degrees], len(degree_rank), triples)]
    while stack:
        colour, cells = stack.pop()
        if cells == n:
            mask = 0
            for a, b, c in triples:
                mask |= bits[(colour[a] * n + colour[b]) * n + colour[c]]
            if best is None or mask < best:
                best = mask
            continue
        # u and v are twins iff their links agree once the pairs holding
        # the other vertex are dropped
        if not link:
            link = _links(n, triples)
        holding = _pairs_holding(n)
        target = min(c for c in colour if colour.count(c) > 1)
        tried: list[int] = []
        for v in range(n):
            if colour[v] != target or any(link[u] & ~holding[v] == link[v] & ~holding[u] for u in tried):
                continue
            tried.append(v)
            individualized = [c + (c > target or (c == target and x != v)) for x, c in enumerate(colour)]
            stack.append(_refine(individualized, cells + 1, triples))
    return f"{n}|{best:x}".encode()


@dataclass(frozen=True)
class EnumerationResult:
    found: tuple[Hypergraph3, ...]
    classes_examined: int
    elapsed: float = field(compare=False)


def enumerate_minimal_nonmetric(n: int) -> EnumerationResult:
    """All isomorphism classes on ``n`` vertices that are minimal non-metric."""
    _check_size(n)
    if not 3 <= n <= 6:
        raise ValueError("enumeration supported for 3 <= n <= 6")
    start = time.monotonic()
    edgeless = Hypergraph3(2, frozenset())
    level = {canonical_form(edgeless): edgeless}
    k = 2
    while k < n:
        # parents must be metric: induced subhypergraphs of minimal
        # non-metric hypergraphs always are
        parents = {key: h for key, h in level.items() if decide_metric(h).metric}
        k += 1
        new_pairs = list(itertools.combinations(range(k - 1), 2))
        level = {}
        for parent in parents.values():
            for picks in range(1 << len(new_pairs)):
                extra = frozenset(
                    (u, v, k - 1) for i, (u, v) in enumerate(new_pairs) if picks >> i & 1
                )
                candidate = Hypergraph3(k, parent.triples | extra)
                level.setdefault(canonical_form(candidate), candidate)

    # Every metric class on n - 1 vertices extends a metric class on
    # n - 2, so it is among the parents: a deletion is metric iff its
    # class is a parent, a lookup and not a decision.
    found: list[Hypergraph3] = []
    for candidate in level.values():
        if all(canonical_form(candidate.delete_vertex(v)) in parents for v in range(n)):
            if not decide_metric(candidate).metric:
                found.append(candidate)
    return EnumerationResult(tuple(found), len(level), time.monotonic() - start)
