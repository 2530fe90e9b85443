"""JSON formats for metric spaces, graphs, hypergraphs and verdicts.

Distances travel as exact rational strings, "p" or "p/q" (integer
literals are also accepted on input; floats are rejected, they cannot
represent the equalities this library lives on).  Parsers validate
structure and metric axioms, so a loaded object is always usable.

  metric     {"points": ["a", ...], "dist": [["0", "1", ...], ...]}
  graph      {"n": 6, "edges": [[0, 1], ...]}
  hypergraph {"n": 7, "triples": [[0, 1, 2], ...]}
  verdict    {"verdict": "metric"|"nonmetric", "witness"?: <metric>,
              "stats": {"nodes": n, "conflicts": {...},
                        "leaves": {"solved": n, "infeasible": n},
                        "pruned": n}}
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any

from .decider import SearchStats, Verdict
from .hypergraphs import Graph, Hypergraph3
from .metric import MetricSpace, validate_metric

_RATIONAL = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def parse_rational(value: Any) -> Fraction:
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL.match(value):
            raise ValueError(f"malformed rational string: {value!r}")
        return Fraction(value)
    raise ValueError(f"distances must be rational strings or integers, got {type(value).__name__}")


def metric_to_dict(m: MetricSpace) -> dict:
    return {
        "points": list(m.points),
        "dist": [[str(d) for d in row] for row in m.dist],
    }


def metric_from_dict(data: dict) -> MetricSpace:
    if not isinstance(data, dict) or "points" not in data or "dist" not in data:
        raise ValueError("metric JSON needs 'points' and 'dist'")
    points = data["points"]
    dist = data["dist"]
    if not isinstance(points, list) or not all(isinstance(p, str) for p in points):
        raise ValueError("'points' must be a list of strings")
    if not isinstance(dist, list) or any(not isinstance(row, list) for row in dist):
        raise ValueError("'dist' must be a list of rows")
    rows = [[parse_rational(x) for x in row] for row in dist]
    return validate_metric(points, rows)


def _is_int(value: Any) -> bool:
    """JSON integers only: ``true`` and ``false`` load as bools, which are ints to Python."""
    return isinstance(value, int) and not isinstance(value, bool)


def graph_to_dict(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in sorted(g.edges)]}


def graph_from_dict(data: dict) -> Graph:
    if not isinstance(data, dict) or "n" not in data or "edges" not in data:
        raise ValueError("graph JSON needs 'n' and 'edges'")
    edges = data["edges"]
    if not isinstance(edges, list) or any(
        not isinstance(e, list) or len(e) != 2 or not all(_is_int(v) for v in e)
        for e in edges
    ):
        raise ValueError("'edges' must be a list of [u, v] integer pairs")
    return Graph.from_edges(data["n"], edges)


def hypergraph_to_dict(h: Hypergraph3) -> dict:
    return {"n": h.n, "triples": [list(t) for t in sorted(h.triples)]}


def hypergraph_from_dict(data: dict) -> Hypergraph3:
    if not isinstance(data, dict) or "n" not in data or "triples" not in data:
        raise ValueError("hypergraph JSON needs 'n' and 'triples'")
    triples = data["triples"]
    if not isinstance(triples, list) or any(
        not isinstance(t, list) or len(t) != 3 or not all(_is_int(v) for v in t)
        for t in triples
    ):
        raise ValueError("'triples' must be a list of [a, b, c] integer triples")
    return Hypergraph3.from_triples(data["n"], triples)


def verdict_to_dict(v: Verdict) -> dict:
    out: dict = {"verdict": "metric" if v.metric else "nonmetric"}
    if v.witness is not None:
        out["witness"] = metric_to_dict(v.witness)
    out["stats"] = {
        "nodes": v.stats.nodes,
        "conflicts": dict(sorted(v.stats.conflicts.items())),
        "leaves": {"solved": v.stats.leaves_solved, "infeasible": v.stats.leaves_infeasible},
        "pruned": v.stats.pruned,
    }
    return out


def _object(data: dict, key: str) -> dict:
    value = data.get(key, {})
    if not isinstance(value, dict):
        raise ValueError(f"'{key}' must be an object")
    return value


def _count(data: dict, key: str) -> int:
    value = data.get(key, 0)
    if not _is_int(value) or value < 0:
        raise ValueError(f"count {key!r} must be a non-negative integer, got {value!r}")
    return value


def verdict_from_dict(data: dict) -> Verdict:
    if not isinstance(data, dict) or data.get("verdict") not in ("metric", "nonmetric"):
        raise ValueError("verdict JSON needs 'verdict': 'metric' or 'nonmetric'")
    stats_data = _object(data, "stats")
    leaves = _object(stats_data, "leaves")
    conflicts = _object(stats_data, "conflicts")
    stats = SearchStats(
        nodes=_count(stats_data, "nodes"),
        conflicts={cause: _count(conflicts, cause) for cause in conflicts},
        leaves_solved=_count(leaves, "solved"),
        leaves_infeasible=_count(leaves, "infeasible"),
        pruned=_count(stats_data, "pruned"),
    )
    witness = metric_from_dict(data["witness"]) if "witness" in data else None
    return Verdict(data["verdict"] == "metric", witness, stats)


def dumps(obj: dict, compact: bool = False) -> str:
    if compact:
        return json.dumps(obj, separators=(",", ":"))
    return json.dumps(obj, indent=2)


def loads(text: str) -> dict:
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object")
    return data
