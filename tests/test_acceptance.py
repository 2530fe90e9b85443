"""Acceptance suite: every headline requirement, one test per criterion,
each printing a PASS/FAIL line (run with -s to watch them).

Runtime budgets are asserted after correctness; a budget miss is a
performance failure and says so in its message.
"""

import itertools
import random
import time
from contextlib import contextmanager

from geodesic.apex import apex_classification
from geodesic.constructions import c4_based_metric, odd_cycle_metric, p5bar_minus_a_metric
from geodesic.decider import (
    clear_decision_cache,
    decide_metric,
    decide_metric_naive,
    is_minimal_nonmetric,
)
from geodesic.enumeration import canonical_form, enumerate_minimal_nonmetric
from geodesic.hypergraphs import (
    Hypergraph3,
    based_hypergraph,
    complement,
    cycle_graph,
    graph_equivalence,
    path_graph,
)
from geodesic.metric import (
    Betweenness,
    betweenness_triples,
    check_meq,
    hypergraph_of,
    recover_linear_order,
)
from geodesic.obstacles import certify_obstacle, cycle_obstacle_restrictions
from geodesic.suites import (
    run_apex_implication_suite,
    run_menger_suite,
    run_order_recovery_suite,
    run_witness_reverify_suite,
)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"FAIL  {name}")
        raise
    print(f"PASS  {name}")


def test_criterion_1_odd_cycles():
    with criterion("criterion 1: odd-cycle charts and odd-cycle decisions (< 60 s)"):
        clear_decision_cache()
        t0 = time.monotonic()
        for s in range(1, 6):
            assert hypergraph_of(odd_cycle_metric(s)) == based_hypergraph(cycle_graph(2 * s + 1))
        for n in (3, 5, 7):
            v = decide_metric(based_hypergraph(cycle_graph(n)))
            assert v.metric and hypergraph_of(v.witness) == based_hypergraph(cycle_graph(n))
        elapsed = time.monotonic() - t0
        assert elapsed < 60, f"performance failure: {elapsed:.1f}s (correctness held)"


def test_criterion_2_c4_chart():
    with criterion("criterion 2: the 4-cycle chart, exact betweenness list, metric decision"):
        m = c4_based_metric()
        assert hypergraph_of(m) == based_hypergraph(cycle_graph(4))
        expected = {
            Betweenness(*f)
            for f in [
                ("a", "b", "c"), ("b", "c", "d"), ("c", "d", "a"), ("d", "a", "b"),
                ("x", "a", "b"), ("x", "a", "d"), ("x", "c", "b"), ("x", "c", "d"),
            ]
        }
        facts = betweenness_triples(m)
        assert facts == expected
        for bad in [("x", "a", "c"), ("a", "x", "c"), ("a", "c", "x"),
                    ("x", "b", "d"), ("b", "x", "d"), ("b", "d", "x")]:
            assert Betweenness(*bad) not in facts
        assert decide_metric(based_hypergraph(cycle_graph(4))).metric


def test_criterion_3_even_cycles():
    with criterion("criterion 3: even cycles non-metric (C6 < 2 min, C8 < 15 min), C6 minimal"):
        clear_decision_cache()
        t0 = time.monotonic()
        assert not decide_metric(based_hypergraph(cycle_graph(6))).metric
        c6_elapsed = time.monotonic() - t0
        t0 = time.monotonic()
        assert not decide_metric(based_hypergraph(cycle_graph(8))).metric
        c8_elapsed = time.monotonic() - t0
        assert is_minimal_nonmetric(based_hypergraph(cycle_graph(6)))
        assert c6_elapsed < 120, f"performance failure: C6 took {c6_elapsed:.1f}s (correctness held)"
        assert c8_elapsed < 900, f"performance failure: C8 took {c8_elapsed:.1f}s (correctness held)"


def test_criterion_4_p5bar():
    with criterion("criterion 4: based complement-of-5-path non-metric, deletions metric, chart verbatim"):
        p5bar = complement(path_graph(5))
        h = based_hypergraph(p5bar)
        assert not decide_metric(h).metric
        for v in range(h.n):
            assert decide_metric(h.delete_vertex(v)).metric, f"deletion {v}"
        chart = p5bar_minus_a_metric()
        expected = {
            Betweenness(*f)
            for f in [
                ("e", "b", "c"), ("e", "b", "d"), ("e", "c", "d"), ("b", "c", "d"),
                ("x", "e", "b"), ("x", "e", "c"), ("x", "d", "c"), ("x", "b", "c"),
            ]
        }
        assert betweenness_triples(chart) == expected
        # the chart realizes one of the vertex-deleted subhypergraphs
        chart_form = canonical_form(hypergraph_of(chart))
        deletion_forms = {canonical_form(h.delete_vertex(v)) for v in range(5)}
        assert chart_form in deletion_forms


def test_criterion_5_obstacles():
    with criterion("criterion 5: cycle obstacles certified, minimality with two lines, C4 control"):
        assert certify_obstacle(cycle_graph(6)) is not None
        assert certify_obstacle(cycle_graph(8)) is not None
        for n in (6, 8):
            checks = cycle_obstacle_restrictions(n)
            assert all(c.ok for c in checks)
            assert all(len(c.lines_seen) == 2 for c in checks)
        assert certify_obstacle(cycle_graph(4)) is None
        assert check_meq(
            c4_based_metric(), ["a", "b", "c", "d"], graph_equivalence(cycle_graph(4))
        )


def test_criterion_6_oracle_agreement():
    with criterion("criterion 6: propagation/pruning decider agrees with naive enumeration"):
        all4 = list(itertools.combinations(range(4), 3))
        for mask in range(1 << 4):
            h = Hypergraph3.from_triples(4, [t for i, t in enumerate(all4) if mask >> i & 1])
            assert decide_metric(h).metric == decide_metric_naive(h).metric
        rng = random.Random(580205)
        all5 = list(itertools.combinations(range(5), 3))
        for i in range(200):
            h = Hypergraph3.from_triples(5, [t for t in all5 if rng.random() < 0.5])
            assert decide_metric(h).metric == decide_metric_naive(h).metric, i


def test_criterion_7_property_suites():
    with criterion("criterion 7: randomized property suites, 1000 cases each"):
        assert run_menger_suite(1000) == []
        assert run_apex_implication_suite(1000) == []
        assert run_order_recovery_suite(1000) == []
        assert run_witness_reverify_suite(1000) == []


def test_criterion_8_triangle_free_structure():
    with criterion("criterion 8: triangle-free realizations have consecutive/extreme apex pairs"):
        for g in (path_graph(4), path_graph(5), cycle_graph(5), cycle_graph(7)):
            v = decide_metric(based_hypergraph(g))
            assert v.metric
            core = [str(i) for i in range(g.n)]
            order = recover_linear_order(v.witness, core)
            assert order is not None, f"no linear core order recovered (n={g.n})"
            cls = apex_classification(v.witness, order, str(g.n))
            consecutive = {(j, j + 1) for j in range(g.n - 1)}
            assert cls.d1 | cls.d3 <= consecutive
            assert cls.d2 <= {(0, g.n - 1)}


def test_criterion_9_enumeration(enumeration_n6):
    with criterion("criterion 9: enumeration empty at 3 vertices, rediscovery at 6"):
        res3 = enumerate_minimal_nonmetric(3)
        assert res3.found == () and not res3.truncated
        res6 = enumeration_n6
        target = canonical_form(based_hypergraph(complement(path_graph(5))))
        assert any(canonical_form(h) == target for h in res6.found), "based complement-of-5-path not rediscovered"
