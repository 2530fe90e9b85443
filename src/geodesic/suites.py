"""Seeded random instance generators.

Each draws one instance from the caller's ``random.Random``, so a fixed
seed gives a fixed sequence.  The property-suite claims of
``replay.CLAIMS`` and the property tests draw their instances here.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Optional

from .hypergraphs import Hypergraph3
from .metric import MetricSpace, validate_metric


def random_shortest_path_metric(rng: random.Random, n: int) -> MetricSpace:
    """Shortest-path metric of a random connected graph with rational
    weights; rich in tight triangles, exactly representable."""
    labels = [f"p{i}" for i in range(n)]
    d: list[list[Optional[Fraction]]] = [[None] * n for _ in range(n)]
    for i in range(n):
        d[i][i] = Fraction(0)

    def set_edge(i: int, j: int, w: Fraction) -> None:
        if d[i][j] is None or w < d[i][j]:
            d[i][j] = w
            d[j][i] = w

    # random spanning tree keeps it connected
    order = list(range(1, n))
    rng.shuffle(order)
    connected = [0]
    for v in order:
        u = rng.choice(connected)
        set_edge(u, v, Fraction(rng.randint(1, 12), rng.randint(1, 4)))
        connected.append(v)
    for i, j in itertools.combinations(range(n), 2):
        if d[i][j] is None and rng.random() < 0.4:
            set_edge(i, j, Fraction(rng.randint(1, 12), rng.randint(1, 4)))

    big = Fraction(10 ** 6)
    dist = [[d[i][j] if d[i][j] is not None else big for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = dist[i][k] + dist[k][j]
                if via < dist[i][j]:
                    dist[i][j] = via
    return validate_metric(labels, dist)


def random_linear_apex_metric(rng: random.Random, n: int) -> MetricSpace:
    """n collinear points plus an apex, exercising all three apex classes.

    The core sits at increasing rational positions; the apex either sits
    on the same line (every apex pair collinear) or hangs off it with
    parity-patterned distances (the odd-cycle shape), or far away in
    general position (no apex pair collinear).
    """
    while True:
        positions = [Fraction(0)]
        for _ in range(n - 1):
            positions.append(positions[-1] + Fraction(rng.randint(1, 6), rng.randint(1, 3)))
        span = positions[-1] - positions[0]
        style = rng.choice(("on-line", "parity", "far"))
        if style == "on-line":
            at = Fraction(rng.randint(-8, 8), rng.randint(1, 3))
            apex_dist = [abs(at - p) for p in positions]
            if any(w == 0 for w in apex_dist):
                continue
        elif style == "parity":
            base = span / 2 if span % 2 == 0 else (span + 1) / 2
            bump = Fraction(rng.randint(1, 2))
            apex_dist = [base if i % 2 == 0 else base + bump for i in range(n)]
        else:
            base = span + Fraction(rng.randint(1, 5))
            apex_dist = [base + Fraction(rng.randint(0, 60), 61) for i in range(n)]
        labels = [str(i) for i in range(n)] + ["x"]
        size = n + 1
        rows = [[Fraction(0)] * size for _ in range(size)]
        for i in range(n):
            for j in range(n):
                rows[i][j] = abs(positions[i] - positions[j])
        for i in range(n):
            rows[i][n] = apex_dist[i]
            rows[n][i] = apex_dist[i]
        try:
            return validate_metric(labels, rows)
        except ValueError:
            continue


def random_hypergraph(rng: random.Random, n: int, density: float) -> Hypergraph3:
    triples = [t for t in itertools.combinations(range(n), 3) if rng.random() < density]
    return Hypergraph3.from_triples(n, triples)
