"""Decide whether a 3-uniform hypergraph is metric.

Complete depth-first search over middle assignments, one of three per
hyperedge, with closure propagation after every decision and exact
rational feasibility at total leaves.  A feasible leaf yields a metric
witness (re-verified against the input); exhausting the tree proves no
metric space induces the hypergraph.

When the hypergraph contains a complete core of at least five vertices,
every realization orders that core linearly, so the search branches over
linear orders of the core (reverses and automorphic relabelings skipped)
instead of orienting core triples one at a time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Optional

from .feasibility import build_feasibility_system, solve_exact_feasibility

# Unused here: the benchmark's tracer (bench/tracer.py) hooks this name to
# report its relaxation metrics, which read 0 since relaxation pruning was
# removed.  The import goes once the benchmark retires those metrics.
from .feasibility import partial_feasibility_system  # noqa: F401
from .hypergraphs import Hypergraph3, Pair, Triple, sorted_triple
from .metric import MetricSpace, hypergraph_of, validate_metric
from .orientation import OrientationState

CORE_ORDER_MIN = 5  # linear ordering of a complete core is guaranteed from this size
AUTOMORPHISM_CAP = 2000


@dataclass(frozen=True)
class DecideOptions:
    """Search controls; defaults favour the measured-fastest pipeline.

    ``core_order``: branch over linear orders of a complete core of at
    least ``CORE_ORDER_MIN`` vertices when there is one.  ``threads``:
    worker processes for the top-level branches.  Neither changes the
    verdict or the witness.
    """

    core_order: bool = True
    threads: int = 1


@dataclass(frozen=True)
class SearchStats:
    """Work tallies of one decision.

    ``pruned`` is always 0: it counted branches cut by relaxation pruning,
    which the search no longer does, and stays so that verdict JSON keeps
    its ``"pruned"`` key.
    """

    nodes: int = 0
    conflicts: dict[str, int] = field(default_factory=dict)
    leaves_solved: int = 0
    leaves_infeasible: int = 0
    pruned: int = 0

    def merged(self, other: "SearchStats") -> "SearchStats":
        causes = dict(self.conflicts)
        for k, v in other.conflicts.items():
            causes[k] = causes.get(k, 0) + v
        return SearchStats(
            self.nodes + other.nodes,
            causes,
            self.leaves_solved + other.leaves_solved,
            self.leaves_infeasible + other.leaves_infeasible,
        )


@dataclass(frozen=True)
class Verdict:
    """Outcome of a decision run; a metric verdict carries its witness."""

    metric: bool
    witness: Optional[MetricSpace]
    stats: SearchStats

    def __post_init__(self) -> None:
        if self.metric and self.witness is None:
            raise ValueError("metric verdict requires a witness")


class _Counters:
    __slots__ = ("nodes", "conflicts", "leaves_solved", "leaves_infeasible")

    def __init__(self) -> None:
        self.nodes = 0
        self.conflicts: dict[str, int] = {}
        self.leaves_solved = 0
        self.leaves_infeasible = 0

    def conflict(self, cause: str) -> None:
        self.conflicts[cause] = self.conflicts.get(cause, 0) + 1

    def freeze(self) -> SearchStats:
        return SearchStats(self.nodes, dict(self.conflicts), self.leaves_solved, self.leaves_infeasible)


def _witness_space(n: int, solution: dict[Pair, Fraction]) -> MetricSpace:
    labels = [str(i) for i in range(n)]
    rows = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), d in solution.items():
        rows[i][j] = d
        rows[j][i] = d
    return validate_metric(labels, rows)


def find_complete_core(h: Hypergraph3) -> Optional[tuple[int, ...]]:
    """Greedy maximal vertex set with every inner triple a hyperedge.

    One pass in increasing index: the core only grows, so a vertex it
    rejects stays rejected.  Returned only when large enough for order
    branching to be complete.
    """
    core: list[int] = []
    for v in range(h.n):
        if all((a, b, v) in h.triples for a, b in itertools.combinations(core, 2)):
            core.append(v)
    return tuple(core) if len(core) >= CORE_ORDER_MIN else None


def _core_automorphisms(h: Hypergraph3, core: tuple[int, ...], cap: int) -> Optional[list[dict[int, int]]]:
    """Permutations of the core, fixing everything else, that preserve h.

    Backtracking with degree filtering; None when more than ``cap`` maps
    exist (callers then reduce by reversal only, which is always sound).
    """
    core_set = set(core)
    deg = h.degrees()
    outside_deg = [0] * h.n
    for t in h.triples:
        outs = sum(1 for v in t if v not in core_set)
        if outs:
            for v in t:
                if v in core_set:
                    outside_deg[v] += 1

    # triples with core members, bucketed by their latest core position
    pos = {v: i for i, v in enumerate(core)}
    buckets: dict[int, list[Triple]] = {i: [] for i in range(len(core))}
    for t in h.triples:
        members = [v for v in t if v in core_set]
        if members:
            buckets[max(pos[v] for v in members)].append(t)

    found: list[dict[int, int]] = []
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def extend(k: int) -> bool:
        if k == len(core):
            found.append(dict(mapping))
            return len(found) <= cap
        v = core[k]
        for w in core:
            if w in used or deg[w] != deg[v] or outside_deg[w] != outside_deg[v]:
                continue
            mapping[v] = w
            used.add(w)
            ok = True
            for t in buckets[k]:
                image = sorted_triple(*(mapping.get(x, x) for x in t))
                if image not in h.triples:
                    ok = False
                    break
            if ok and not extend(k + 1):
                return False
            del mapping[v]
            used.discard(w)
        return True

    if not extend(0):
        return None
    return found


def _core_orders(h: Hypergraph3, core: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Linear orders of the core, one per symmetry class, lazily.

    Two orders explore isomorphic subtrees when one is the other
    reversed or relabeled by an automorphism of the hypergraph, so only
    lex-leaders are produced: orders that no automorphic image, reversed
    or not, precedes lexicographically.  Without the automorphisms
    (more than ``AUTOMORPHISM_CAP``) only reversal is used.
    """
    autos = _core_automorphisms(h, core, AUTOMORPHISM_CAP) or [{v: v for v in core}]
    for order in itertools.permutations(core):
        for g in autos:
            mate = tuple(map(g.__getitem__, order))
            if mate < order or mate[::-1] < order:
                break
        else:
            yield order


def _linear_core_facts(core_order: tuple[int, ...]) -> list[tuple[Triple, int]]:
    """Middle-of-every-inner-triple facts of a linearly ordered core.

    This fact set is closed under the four-point rule: premises between
    order-median facts only ever conclude order-median facts.
    """
    facts = []
    for i, j, k in itertools.combinations(range(len(core_order)), 3):
        a, b, c = core_order[i], core_order[j], core_order[k]
        facts.append((sorted_triple(a, b, c), b))
    return facts


class _Engine:
    def __init__(self, h: Hypergraph3):
        self.h = h
        self.state = OrientationState(h)
        self.counters = _Counters()
        self.hyperedges = sorted(h.triples)

    # -- branching ---------------------------------------------------------

    def _next_triple(self) -> Optional[Triple]:
        """Unassigned hyperedge touching the most already-oriented
        vertices; ties broken lexicographically."""
        middles, touches = self.state.middles, self.state.touches
        best: Optional[Triple] = None
        best_score = -1
        for t in self.hyperedges:
            if t in middles:
                continue
            score = (touches[t[0]] > 0) + (touches[t[1]] > 0) + (touches[t[2]] > 0)
            if score > best_score:
                best, best_score = t, score
                if score == 3:
                    break
        return best

    def _leaf(self) -> Optional[MetricSpace]:
        system = build_feasibility_system(self.h, self.state.middles)
        solution = solve_exact_feasibility(system)
        if solution is None:
            self.counters.leaves_infeasible += 1
            return None
        self.counters.leaves_solved += 1
        witness = _witness_space(self.h.n, solution)
        induced = hypergraph_of(witness)
        if induced != self.h:
            raise AssertionError("feasible leaf induced the wrong hypergraph; engine bug")
        return witness

    def search(self) -> Optional[MetricSpace]:
        if len(self.state.middles) == len(self.hyperedges):
            return self._leaf()
        triple = self._next_triple()
        assert triple is not None
        for middle in triple:
            mark = self.state.checkpoint()
            self.counters.nodes += 1
            conflict = self.state.assert_fact(triple, middle)
            if conflict is not None:
                self.counters.conflict(conflict.cause)
                self.state.rollback(mark)
                continue
            witness = self.search()
            if witness is not None:
                return witness
            self.state.rollback(mark)
        return None


def _explore(
    h: Hypergraph3, core_order: bool, stride: int = 1, offset: int = 0
) -> tuple[Optional[int], Optional[MetricSpace], SearchStats]:
    """Search the top-level branches of ``h`` in their global order.

    The branches are the core orders of :func:`_core_orders` when
    ``core_order`` is set and ``h`` has a complete core, else the three
    middles of the first hyperedge.  Every branch is counted, conflicted
    ones too, so a hit index names the same branch for every stride;
    only branches with ``index % stride == offset`` are searched.
    Returns the index and witness of the first hit (``None, None`` when
    there is none) and the work tallies.
    """
    engine = _Engine(h)
    state, counters = engine.state, engine.counters
    if not h.triples:  # no branch: the root is the one leaf, counted as branch 0
        witness = engine.search() if offset == 0 else None
        return (None if witness is None else 0), witness, counters.freeze()

    core = find_complete_core(h) if core_order else None
    root = min(h.triples)
    branches = _core_orders(h, core) if core is not None else root
    for index, branch in enumerate(branches):
        if index % stride != offset:
            continue
        mark = state.checkpoint()
        counters.nodes += 1
        if core is not None:
            state.seed_unchecked(_linear_core_facts(branch))
        else:
            conflict = state.assert_fact(root, branch)
            if conflict is not None:
                counters.conflict(conflict.cause)
                state.rollback(mark)
                continue
        witness = engine.search()
        if witness is not None:
            return index, witness, counters.freeze()
        state.rollback(mark)
    return None, None, counters.freeze()


def _decide_sequential(h: Hypergraph3, opts: DecideOptions) -> Verdict:
    _, witness, stats = _explore(h, opts.core_order)
    return Verdict(witness is not None, witness, stats)


@lru_cache(maxsize=256)
def _decide_cached(h: Hypergraph3, opts: DecideOptions) -> Verdict:
    if opts.threads > 1:
        from .parallel import decide_parallel

        return decide_parallel(h, opts)
    return _decide_sequential(h, opts)


def decide_metric(h: Hypergraph3, options: Optional[DecideOptions] = None) -> Verdict:
    """Is ``h`` induced by some finite metric space?

    A metric verdict carries a realization whose collinearity hypergraph
    is re-verified to equal ``h`` exactly.  Deterministic: identical
    inputs and options give identical verdicts, witnesses and statistics.
    Results are memoized (everything is immutable); see
    :func:`clear_decision_cache` for timing measurements.
    """
    if h.n < 2:
        raise ValueError("need at least 2 vertices")
    return _decide_cached(h, options or DecideOptions())


def clear_decision_cache() -> None:
    _decide_cached.cache_clear()


def decide_metric_naive(h: Hypergraph3) -> Verdict:
    """Reference decider: try all 3^k total orientations, no closure, no
    pruning, a full feasibility solve at every leaf.

    Exponentially slower than :func:`decide_metric`; exists as the
    independent oracle the main search is tested against.
    """
    if h.n < 2:
        raise ValueError("need at least 2 vertices")
    triples = sorted(h.triples)
    counters = _Counters()
    for middles in itertools.product(*triples):
        counters.nodes += 1
        assignment = dict(zip(triples, middles))
        solution = solve_exact_feasibility(build_feasibility_system(h, assignment))
        if solution is None:
            counters.leaves_infeasible += 1
            continue
        counters.leaves_solved += 1
        witness = _witness_space(h.n, solution)
        if hypergraph_of(witness) != h:
            raise AssertionError("feasible leaf induced the wrong hypergraph; engine bug")
        return Verdict(True, witness, counters.freeze())
    return Verdict(False, None, counters.freeze())


def is_minimal_nonmetric(h: Hypergraph3, options: Optional[DecideOptions] = None) -> bool:
    """Non-metric, but metric after deleting any single vertex."""
    if h.n < 3:
        raise ValueError("need at least 3 vertices")
    if decide_metric(h, options).metric:
        return False
    return all(decide_metric(h.delete_vertex(v), options).metric for v in range(h.n))
