"""Seeded randomized property suites.

Each suite generates its own instances from a fixed seed, runs a
documented property over them, and returns the list of failures (empty
means the property held everywhere).  The replay harness and the test
suite both call these, so the checks run identically from the CLI and
from pytest.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Optional

from .apex import apex_classification, check_wh_implications
from .decider import decide_metric
from .hypergraphs import Hypergraph3
from .metric import (
    MetricSpace,
    check_menger,
    hypergraph_of,
    recover_linear_order,
    validate_metric,
)

SUITE_CASES = 1000  # cases per suite; verify-paper runs and reports this many


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


def run_menger_suite() -> list[str]:
    """The four-point rule never fails on validated random metric spaces."""
    rng = random.Random(74001)
    failures = []
    for i in range(SUITE_CASES):
        m = random_shortest_path_metric(rng, rng.randint(3, 7))
        bad = check_menger(m)
        if bad:
            failures.append(f"case {i}: violations {bad[:3]} on {m.points}")
    return failures


def run_apex_implication_suite() -> list[str]:
    """Apex-class closure rules (sharpened forms included) hold on random
    linearly ordered cores with an apex."""
    rng = random.Random(74002)
    failures = []
    for i in range(SUITE_CASES):
        n = rng.randint(3, 7)
        m = random_linear_apex_metric(rng, n)
        order = [str(k) for k in range(n)]
        cls = apex_classification(m, order, "x")
        bad = check_wh_implications(cls)
        if bad:
            failures.append(f"case {i}: {bad[0]}")
    return failures


def run_order_recovery_suite() -> list[str]:
    """Order recovery succeeds on every random collinear set of >= 5 points."""
    rng = random.Random(74003)
    failures = []
    for i in range(SUITE_CASES):
        n = rng.randint(5, 9)
        positions = [Fraction(0)]
        for _ in range(n - 1):
            positions.append(positions[-1] + Fraction(rng.randint(1, 9), rng.randint(1, 4)))
        pos_of = {f"v{k}": positions[k] for k in range(n)}
        pts = sorted(pos_of)
        rng.shuffle(pts)
        rows = [[abs(pos_of[p] - pos_of[q]) for q in pts] for p in pts]
        m = validate_metric(pts, rows)
        order = recover_linear_order(m, pts)
        if order is None:
            failures.append(f"case {i}: no order recovered")
            continue
        values = [pos_of[lab] for lab in order]
        if values != sorted(values) and values != sorted(values, reverse=True):
            failures.append(f"case {i}: recovered order not monotone")
    return failures


def run_witness_reverify_suite() -> list[str]:
    """Every metric verdict's witness induces exactly the input hypergraph."""
    rng = random.Random(74004)
    failures = []
    for i in range(SUITE_CASES):
        n = rng.randint(3, 5)
        h = random_hypergraph(rng, n, rng.choice((0.2, 0.4, 0.6, 0.8)))
        verdict = decide_metric(h)
        if verdict.metric and hypergraph_of(verdict.witness) != h:
            failures.append(f"case {i}: witness mismatch for {sorted(h.triples)}")
    return failures
