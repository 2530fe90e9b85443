"""Certify that a graph's edge/non-edge pair equivalence is an obstacle.

A two-class pair equivalence on a vertex set V (edges of G vs non-edges)
cannot be realized through line equality by any metric space on any
superset of V once neither the hypergraph based on G nor the one based
on its complement is metric.  Running the decider on both therefore
produces a certificate; when one of them is metric, nothing follows (the
condition is sufficient, not known to be necessary), so the answer is
"undetermined" rather than "not an obstacle".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Optional

from .constructions import path_based_metric
from .decider import DecideOptions, Verdict, decide_metric
from .hypergraphs import (
    Graph,
    _check_size,
    based_hypergraph,
    complement,
    graph_equivalence,
    path_graph,
)
from .metric import check_meq, line, recover_linear_order


class ObstacleRouteInapplicable(ValueError):
    """The two-class route needs at least one edge on each side."""


@dataclass(frozen=True)
class ObstacleCertificate:
    """Proof that the edge/non-edge equivalence of ``graph`` is an obstacle."""

    graph: Graph
    verdict_graph: Verdict
    verdict_complement: Verdict

    def __post_init__(self) -> None:
        if self.verdict_graph.metric or self.verdict_complement.metric:
            raise ValueError("certificate requires both based hypergraphs non-metric")


def certify_obstacle(g: Graph, options: Optional[DecideOptions] = None) -> Optional[ObstacleCertificate]:
    """Certificate that the edge/non-edge equivalence of g is an obstacle,
    or None when the route is inconclusive.

    Raises :class:`ObstacleRouteInapplicable` when g or its complement
    has no edges (the equivalence then has a single class and the route
    does not apply).
    """
    if not g.edges:
        raise ObstacleRouteInapplicable("graph has no edges")
    co = complement(g)
    if not co.edges:
        raise ObstacleRouteInapplicable("complement has no edges")
    verdict_g = decide_metric(based_hypergraph(g), options)
    if verdict_g.metric:
        return None
    verdict_co = decide_metric(based_hypergraph(co), options)
    if verdict_co.metric:
        return None
    return ObstacleCertificate(g, verdict_g, verdict_co)


@dataclass(frozen=True)
class CycleRestrictionCheck:
    """One vertex-deleted restriction of an even cycle, realized and checked."""

    deleted_vertex: int
    equivalence_realized: bool
    lines_seen: frozenset[frozenset[str]]
    edge_line_is_everything: bool
    nonedge_line_is_core: bool
    core_triples_collinear: bool

    @property
    def ok(self) -> bool:
        return (
            self.equivalence_realized
            and self.edge_line_is_everything
            and self.nonedge_line_is_core
            and self.core_triples_collinear
            and len(self.lines_seen) == 2
        )


def cycle_obstacle_restrictions(n: int) -> list[CycleRestrictionCheck]:
    """Realize every one-vertex-deleted restriction of the n-cycle's
    equivalence and check it pair by pair.

    Deleting a vertex from the cycle leaves a path; the path realization
    gives a metric space on those vertices plus an apex x in which every
    pair's line is the whole space for path edges and the core for
    non-edges.  One-vertex deletions suffice: a space realizing the
    equivalence on U realizes its restriction to every subset of U.

    One check covers all n deletions.  Label the vertices left after
    deleting d along the path that starts right after it, d+1, d+2, ...,
    d-1 (mod n).  Every remaining cycle edge then joins consecutive
    positions, so each restriction is the path 0-1-...-(n-2), and the n
    records differ only in ``deleted_vertex``.
    """
    _check_size(n)
    if n <= 4 or n % 2 != 0:
        raise ValueError("even n greater than 4 required")
    f = path_graph(n - 1)
    m = path_based_metric(n - 1)
    core_labels = [str(i) for i in range(n - 1)]
    everything = frozenset(m.points)
    core = frozenset(core_labels)
    try:
        collinear = recover_linear_order(m, core_labels) is not None
    except ValueError:
        collinear = False
    lines_seen = set()
    edge_ok = True
    nonedge_ok = True
    for i, j in itertools.combinations(range(n - 1), 2):
        l = line(m, core_labels[i], core_labels[j])
        lines_seen.add(l)
        if f.has_edge(i, j):
            edge_ok = edge_ok and l == everything
        else:
            nonedge_ok = nonedge_ok and l == core
    check = CycleRestrictionCheck(
        0,
        check_meq(m, core_labels, graph_equivalence(f)),
        frozenset(lines_seen),
        edge_ok,
        nonedge_ok,
        collinear,
    )
    return [replace(check, deleted_vertex=d) for d in range(n)]
