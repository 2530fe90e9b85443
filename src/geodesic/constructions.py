"""Closed-form metric realizations of specific based hypergraphs.

Each construction self-verifies: after building the chart it recomputes
the collinearity hypergraph and compares it, triple by triple, against
the intended based hypergraph, failing loudly on any mismatch.  That
guards against transcription errors in the charts.
"""

from __future__ import annotations

from fractions import Fraction

from .hypergraphs import Graph, _check_size, based_hypergraph, cycle_graph, path_graph
from .metric import MetricSpace, hypergraph_of, validate_metric


class ConstructionError(RuntimeError):
    """A construction failed its own hypergraph check."""


def _verified(m: MetricSpace, g: Graph, what: str) -> MetricSpace:
    # Chart points are listed core-first with the apex last, so positions
    # match the based hypergraph's numbering (apex = g.n) directly.
    want = based_hypergraph(g)
    got = hypergraph_of(m)
    if got != want:
        extra = sorted(got.triples - want.triples)
        missing = sorted(want.triples - got.triples)
        raise ConstructionError(
            f"{what}: hypergraph mismatch (extra={extra}, missing={missing})"
        )
    return m


def _line_apex_chart(points: int, s: int) -> MetricSpace:
    """Core points 0..points-1 on a line (d(i,j) = |i - j|) plus an apex x
    at distance s from even points and s+1 from odd ones."""
    labels = [str(i) for i in range(points)] + ["x"]
    rows = [[Fraction(abs(j - i)) for j in range(points)] + [Fraction(s + i % 2)] for i in range(points)]
    rows.append([Fraction(s + k % 2) for k in range(points)] + [Fraction(0)])
    return validate_metric(labels, rows)


def odd_cycle_metric(s: int) -> MetricSpace:
    """Realize the hypergraph based on the odd cycle with 2s+1 vertices.

    Core points 0..2s sit on a line (d(i,j) = j - i); the apex x is at
    distance s from even points and s+1 from odd ones.  The collinear
    apex pairs are then exactly the consecutive pairs plus {0, 2s},
    i.e. the odd cycle 0-1-...-2s-0.
    """
    _check_size(s)
    if s < 1:
        raise ValueError("s must be at least 1")
    n = 2 * s + 1
    return _verified(_line_apex_chart(n, s), cycle_graph(n), f"odd_cycle_metric({s})")


def path_based_metric(k: int) -> MetricSpace:
    """Realize the hypergraph based on the path 0-1-...-(k-1).

    The first k core points of ``odd_cycle_metric(k)`` plus its apex,
    built directly: the apex is at distance k from even points and k+1
    from odd ones.  With that choice of cycle length the pair {0, k-1}
    stays a non-edge.
    """
    _check_size(k)
    if k < 2:
        raise ValueError("path needs at least 2 vertices")
    return _verified(_line_apex_chart(k, k), path_graph(k), f"path_based_metric({k})")


def c4_based_metric() -> MetricSpace:
    """The 5-point chart realizing the hypergraph based on the 4-cycle a-b-c-d."""
    labels = ["a", "b", "c", "d", "x"]
    chart = [
        [0, 1, 2, 1, 2],
        [1, 0, 1, 2, 3],
        [2, 1, 0, 1, 2],
        [1, 2, 1, 0, 3],
        [2, 3, 2, 3, 0],
    ]
    m = validate_metric(labels, [[Fraction(x) for x in row] for row in chart])
    return _verified(m, cycle_graph(4), "c4_based_metric")


def p5bar_minus_a_metric() -> MetricSpace:
    """The 5-point chart on {e,b,c,d,x} whose apex-collinear pairs are
    exactly {e,b}, {e,c}, {b,c}, {c,d} (and every core triple is tight).
    """
    labels = ["e", "b", "c", "d", "x"]
    chart = [
        [0, 1, 2, 3, 2],
        [1, 0, 1, 2, 3],
        [2, 1, 0, 1, 4],
        [3, 2, 1, 0, 3],
        [2, 3, 4, 3, 0],
    ]
    m = validate_metric(labels, [[Fraction(x) for x in row] for row in chart])
    g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])  # e,b,c,d numbered 0..3
    return _verified(m, g, "p5bar_minus_a_metric")
