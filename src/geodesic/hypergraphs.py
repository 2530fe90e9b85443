"""Graphs, 3-uniform hypergraphs, and pair equivalences on {0..n-1}.

All three are immutable value types normalized on construction: edges are
sorted pairs, hyperedges sorted triples, so structural equality and
hashing just work.  The size ``n`` must be a nonnegative integer.  A
``Hypergraph3`` given a frozenset that is already normalized (int
tuples, strictly increasing, inside 0..n-1) keeps it as given after one
check; any other input is validated and re-sorted member by member.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

Pair = tuple[int, int]
Triple = tuple[int, int, int]


def sorted_pair(u: int, v: int) -> Pair:
    return (u, v) if u < v else (v, u)


def sorted_triple(u: int, v: int, w: int) -> Triple:
    a, b, c = sorted((u, v, w))
    return (a, b, c)


def _check_vertex(v: int, n: int) -> None:
    if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < n:
        raise ValueError(f"vertex {v!r} out of range 0..{n - 1}")


def _relabel_map(vertices: Iterable[int], n: int) -> dict[int, int]:
    """Each of ``vertices``, checked to lie in 0..n-1, to its rank among them."""
    vertices = list(vertices)
    for v in vertices:
        _check_vertex(v, n)
    return {v: i for i, v in enumerate(sorted(set(vertices)))}


def _check_size(n: int) -> None:
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise ValueError(f"size n must be a nonnegative integer, got {n!r}")


def _normalized_triples(triples: object, n: int) -> bool:
    """Whether ``triples`` is a frozenset of int triples (a, b, c), 0 <= a < b < c < n."""
    if type(triples) is not frozenset:
        return False
    for t in triples:
        if type(t) is not tuple or len(t) != 3:
            return False
        a, b, c = t
        if type(a) is not int or type(b) is not int or type(c) is not int or not 0 <= a < b < c < n:
            return False
    return True


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    n: int
    edges: frozenset[Pair]

    def __post_init__(self) -> None:
        _check_size(self.n)
        norm = set()
        for e in self.edges:
            u, v = e
            _check_vertex(u, self.n)
            _check_vertex(v, self.n)
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            norm.add(sorted_pair(u, v))
        object.__setattr__(self, "edges", frozenset(norm))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Iterable[int]]) -> "Graph":
        return cls(n, frozenset(sorted_pair(*e) for e in edges))

    def has_edge(self, u: int, v: int) -> bool:
        return sorted_pair(u, v) in self.edges

    def induced(self, vertices: Iterable[int]) -> "Graph":
        """Induced subgraph, vertices relabeled 0..k-1 in sorted order."""
        relabel = _relabel_map(vertices, self.n)
        edges = frozenset(
            (relabel[u], relabel[v]) for u, v in self.edges if u in relabel and v in relabel
        )
        return Graph(len(relabel), edges)


def path_graph(n: int) -> Graph:
    _check_size(n)
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    _check_size(n)
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    _check_size(n)
    return Graph.from_edges(n, itertools.combinations(range(n), 2))


def complement(g: Graph) -> Graph:
    """Complement within the same vertex set."""
    all_pairs = set(itertools.combinations(range(g.n), 2))
    return Graph(g.n, frozenset(all_pairs - g.edges))


@dataclass(frozen=True)
class Hypergraph3:
    """3-uniform hypergraph on vertices 0..n-1."""

    n: int
    triples: frozenset[Triple]

    def __post_init__(self) -> None:
        _check_size(self.n)
        if _normalized_triples(self.triples, self.n):
            return
        norm = set()
        for t in self.triples:
            u, v, w = t
            for x in (u, v, w):
                _check_vertex(x, self.n)
            if len({u, v, w}) != 3:
                raise ValueError(f"degenerate triple {t!r}")
            norm.add(sorted_triple(u, v, w))
        object.__setattr__(self, "triples", frozenset(norm))

    @classmethod
    def from_triples(cls, n: int, triples: Iterable[Iterable[int]]) -> "Hypergraph3":
        return cls(n, frozenset(sorted_triple(*t) for t in triples))

    def delete_vertex(self, v: int) -> "Hypergraph3":
        """Induced subhypergraph with vertex v removed, relabeled 0..n-2."""
        _check_vertex(v, self.n)
        keep = [u for u in range(self.n) if u != v]
        return induced_subhypergraph(self, keep)

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for t in self.triples:
            for v in t:
                deg[v] += 1
        return deg


def induced_subhypergraph(h: Hypergraph3, vertices: Iterable[int]) -> Hypergraph3:
    """Triples inside ``vertices``, relabeled 0..k-1 in sorted vertex order."""
    relabel = _relabel_map(vertices, h.n)
    triples = frozenset(
        (relabel[a], relabel[b], relabel[c])
        for a, b, c in h.triples
        if a in relabel and b in relabel and c in relabel
    )
    return Hypergraph3(len(relabel), triples)


def based_hypergraph(g: Graph) -> Hypergraph3:
    """The hypergraph based on g: a fresh apex vertex n is collinear with
    exactly the edges of g, and every triple inside the original vertex
    set is a hyperedge.
    """
    apex = g.n
    triples = set(itertools.combinations(range(g.n), 3))
    for u, v in g.edges:
        triples.add((u, v, apex))
    return Hypergraph3(g.n + 1, frozenset(triples))


@dataclass(frozen=True)
class PairEquivalence:
    """Partition of the 2-subsets of {0..n-1} into disjoint nonempty blocks."""

    n: int
    blocks: frozenset[frozenset[Pair]]

    def __post_init__(self) -> None:
        _check_size(self.n)
        norm = set()
        seen: set[Pair] = set()
        for block in self.blocks:
            fixed = set()
            for u, v in block:
                _check_vertex(u, self.n)
                _check_vertex(v, self.n)
                if u == v:
                    raise ValueError(f"degenerate pair ({u},{v})")
                fixed.add(sorted_pair(u, v))
            if not fixed:
                raise ValueError("empty block")
            if fixed & seen:
                raise ValueError("blocks overlap")
            seen |= fixed
            norm.add(frozenset(fixed))
        expected = {p for p in itertools.combinations(range(self.n), 2)}
        if seen != expected:
            raise ValueError("blocks do not cover all pairs")
        object.__setattr__(self, "blocks", frozenset(norm))

    def together(self, e: Pair, f: Pair) -> bool:
        e, f = sorted_pair(*e), sorted_pair(*f)
        return any(e in b and f in b for b in self.blocks)

    def restrict(self, vertices: Iterable[int]) -> "PairEquivalence":
        """Restriction to pairs inside ``vertices``, relabeled 0..k-1."""
        relabel = _relabel_map(vertices, self.n)
        blocks = set()
        for block in self.blocks:
            small = frozenset(
                (relabel[u], relabel[v]) for u, v in block if u in relabel and v in relabel
            )
            if small:
                blocks.add(small)
        return PairEquivalence(len(relabel), frozenset(blocks))


def graph_equivalence(g: Graph) -> PairEquivalence:
    """Two pairs are equivalent iff both are edges or both are non-edges."""
    all_pairs = set(itertools.combinations(range(g.n), 2))
    edges = frozenset(g.edges)
    non_edges = frozenset(all_pairs - g.edges)
    blocks = {b for b in (edges, non_edges) if b}
    return PairEquivalence(g.n, frozenset(blocks))
