import itertools
import random

import pytest

from geodesic import decider
from geodesic.decider import (
    DecideOptions,
    SearchStats,
    _explore,
    clear_decision_cache,
    decide_metric,
    decide_metric_naive,
    find_complete_core,
    is_minimal_nonmetric,
)
from geodesic.hypergraphs import (
    Hypergraph3,
    based_hypergraph,
    complement,
    complete_graph,
    cycle_graph,
    path_graph,
)
from geodesic.metric import hypergraph_of
from geodesic.suites import random_shortest_path_metric
from test_core_orders import _graph_classes, _planted

# Verified non-metric by full naive enumeration (all 3^8 = 6561 total
# orientations infeasible); frozen here as a regression anchor.
NONMETRIC_6V_8T = Hypergraph3.from_triples(
    6,
    [(0, 2, 3), (0, 2, 4), (0, 2, 5), (0, 3, 4), (0, 3, 5), (1, 2, 4), (1, 2, 5), (1, 3, 5)],
)


class TestDecideBasics:
    def test_single_triple_metric(self):
        v = decide_metric(Hypergraph3.from_triples(3, [(0, 1, 2)]))
        assert v.metric
        assert hypergraph_of(v.witness) == Hypergraph3.from_triples(3, [(0, 1, 2)])

    def test_empty_hypergraphs_metric(self):
        for n in (2, 3, 4, 5):
            v = decide_metric(Hypergraph3.from_triples(n, []))
            assert v.metric, n

    def test_complete_hypergraph_metric(self):
        h = Hypergraph3.from_triples(4, itertools.combinations(range(4), 3))
        assert decide_metric(h).metric

    def test_tiny_vertex_count_rejected(self):
        with pytest.raises(ValueError):
            decide_metric(Hypergraph3.from_triples(1, []))

    def test_witness_reverifies(self):
        rng = random.Random(5)
        triples = list(itertools.combinations(range(5), 3))
        for _ in range(25):
            h = Hypergraph3.from_triples(5, [t for t in triples if rng.random() < 0.4])
            v = decide_metric(h)
            if v.metric:
                assert hypergraph_of(v.witness) == h


class TestPaperInstances:
    def test_based_odd_cycles_metric(self):
        for n in (3, 5, 7):
            v = decide_metric(based_hypergraph(cycle_graph(n)))
            assert v.metric, n
            assert hypergraph_of(v.witness) == based_hypergraph(cycle_graph(n))

    def test_based_c4_metric(self):
        assert decide_metric(based_hypergraph(cycle_graph(4))).metric

    def test_based_c6_nonmetric(self):
        v = decide_metric(based_hypergraph(cycle_graph(6)))
        assert not v.metric
        assert v.witness is None

    def test_based_p5bar_nonmetric(self):
        assert not decide_metric(based_hypergraph(complement(path_graph(5)))).metric

    def test_frozen_nonmetric_instance(self):
        assert not decide_metric(NONMETRIC_6V_8T).metric


# Search statistics, pinned so that any change to the order in which
# closure derives facts, or to the branching, shows.  With core orders
# (the default), the apex-word filter leaves based C6, C8 and P5-bar no
# order to search, and based C7 is charted on its first order (one node,
# one solved leaf); without them, the closure order is pinned on C6 and
# P5-bar.  The two planted non-metric inputs keep 3 and 5 core orders,
# the only ones here that seed more than one.
CLOSURE_ONLY = DecideOptions(core_order=False)
PAPER_STATS = {
    "C6": (based_hypergraph(cycle_graph(6)), None, SearchStats()),
    "C7": (based_hypergraph(cycle_graph(7)), None, SearchStats(1, leaves_solved=1)),
    "C8": (based_hypergraph(cycle_graph(8)), None, SearchStats()),
    "P5-bar": (based_hypergraph(complement(path_graph(5))), None, SearchStats()),
    "6v8t": (NONMETRIC_6V_8T, None, SearchStats(129, {"non-hyperedge": 75, "middle-clash": 5}, leaves_infeasible=7)),
    "C6-closure": (
        based_hypergraph(cycle_graph(6)),
        CLOSURE_ONLY,
        SearchStats(4617, {"middle-clash": 1438, "non-hyperedge": 1641}),
    ),
    "P5-bar-closure": (
        based_hypergraph(complement(path_graph(5))),
        CLOSURE_ONLY,
        SearchStats(951, {"middle-clash": 271, "non-hyperedge": 364}),
    ),
    "planted-24": (_planted(24, 5, 2, 0.5), None, SearchStats(210, {"non-hyperedge": 128, "middle-clash": 13})),
    "planted-31": (_planted(31, 5, 2, 0.5), None, SearchStats(452, {"middle-clash": 81, "non-hyperedge": 222})),
}


@pytest.mark.parametrize("h, options, stats", PAPER_STATS.values(), ids=PAPER_STATS.keys())
def test_paper_instance_stats_pinned(h, options, stats):
    assert decide_metric(h, options).stats == stats


# Witness distance matrices of the default decision on based C7 and C9:
# the cycle's vertices on a line spaced 10 apart (``feasibility.START``),
# the apex last.  The chart of the first core order gives them; the leaf
# LP of that order gives the same vertex.  Pinned so that a change to
# either shows.
WITNESS_C7 = [
    [0, 10, 20, 30, 40, 50, 60, 30],
    [10, 0, 10, 20, 30, 40, 50, 40],
    [20, 10, 0, 10, 20, 30, 40, 30],
    [30, 20, 10, 0, 10, 20, 30, 40],
    [40, 30, 20, 10, 0, 10, 20, 30],
    [50, 40, 30, 20, 10, 0, 10, 40],
    [60, 50, 40, 30, 20, 10, 0, 30],
    [30, 40, 30, 40, 30, 40, 30, 0],
]
WITNESS_C9 = [
    [0, 10, 20, 30, 40, 50, 60, 70, 80, 40],
    [10, 0, 10, 20, 30, 40, 50, 60, 70, 50],
    [20, 10, 0, 10, 20, 30, 40, 50, 60, 40],
    [30, 20, 10, 0, 10, 20, 30, 40, 50, 50],
    [40, 30, 20, 10, 0, 10, 20, 30, 40, 40],
    [50, 40, 30, 20, 10, 0, 10, 20, 30, 50],
    [60, 50, 40, 30, 20, 10, 0, 10, 20, 40],
    [70, 60, 50, 40, 30, 20, 10, 0, 10, 50],
    [80, 70, 60, 50, 40, 30, 20, 10, 0, 40],
    [40, 50, 40, 50, 40, 50, 40, 50, 40, 0],
]


@pytest.mark.parametrize("n, dist", [(7, WITNESS_C7), (9, WITNESS_C9)], ids=["C7", "C9"])
def test_paper_witness_pinned(n, dist):
    witness = decide_metric(based_hypergraph(cycle_graph(n))).witness
    assert witness.points == tuple(str(i) for i in range(n + 1))
    assert [list(row) for row in witness.dist] == dist


def test_failed_chart_is_an_engine_bug(monkeypatch):
    # With the line collapsed the chart is no metric.  That is an engine
    # bug, not an invalid input, so it is not a ValueError (which the CLI
    # would report as an input error), and no other branch hides it.
    monkeypatch.setattr(decider, "START", 0)
    clear_decision_cache()
    try:
        with pytest.raises(AssertionError, match="engine bug"):
            decide_metric(based_hypergraph(cycle_graph(7)))
    finally:
        clear_decision_cache()


class TestBasedCensus:
    """Based hypergraphs of every graph class on 5 and 6 vertices: a
    complete core with one apex outside, decided by the word of the apex
    link alone (ROADMAP, "Based-graph census")."""

    @pytest.mark.parametrize("n, classes, metric", [(5, 34, 19), (6, 156, 37)])
    def test_counts_and_charts(self, monkeypatch, n, classes, metric):
        def no_lp(system):
            raise AssertionError("a based hypergraph reached the leaf LP")

        monkeypatch.setattr(decider, "solve_exact_feasibility", no_lp)
        graphs = _graph_classes(n)
        assert len(graphs) == classes
        clear_decision_cache()
        try:
            verdicts = [(h, decide_metric(h)) for h in map(based_hypergraph, graphs)]
        finally:
            clear_decision_cache()
        assert sum(v.metric for _, v in verdicts) == metric
        for h, v in verdicts:
            # a metric verdict is the chart of the first order; a non-metric
            # one leaves no order to seed
            assert v.stats == (SearchStats(1, leaves_solved=1) if v.metric else SearchStats())
            assert not v.metric or hypergraph_of(v.witness) == h

    def test_agrees_with_closure_search_on_5_vertices(self):
        for g in _graph_classes(5):
            h = based_hypergraph(g)
            assert decide_metric(h).metric == decide_metric(h, DecideOptions(core_order=False)).metric, g


# Shortest-path metrics are metric by construction, so the verdict is
# known without an oracle; on 11 vertices each leaf LP has 55 variables.
@pytest.mark.parametrize("seed", range(8))
def test_shortest_path_metric_on_11_vertices(seed):
    h = hypergraph_of(random_shortest_path_metric(random.Random(seed), 11))
    verdict = decide_metric(h)
    assert verdict.metric
    assert hypergraph_of(verdict.witness) == h


class TestMinimality:
    def test_based_c6_minimal(self):
        assert is_minimal_nonmetric(based_hypergraph(cycle_graph(6)))

    def test_based_p5bar_minimal(self):
        assert is_minimal_nonmetric(based_hypergraph(complement(path_graph(5))))

    def test_based_c5_not_minimal_nonmetric(self):
        assert not is_minimal_nonmetric(based_hypergraph(cycle_graph(5)))


class TestCore:
    def test_based_graph_core_is_vertex_set(self):
        core = find_complete_core(based_hypergraph(cycle_graph(6)))
        assert core == (0, 1, 2, 3, 4, 5)

    def test_small_core_disabled(self):
        assert find_complete_core(based_hypergraph(cycle_graph(4))) is None

    def test_complete_graph_core_includes_apex(self):
        core = find_complete_core(based_hypergraph(complete_graph(5)))
        assert core == (0, 1, 2, 3, 4, 5)


class TestOracleAgreement:
    def test_exhaustive_4_vertices(self):
        all4 = list(itertools.combinations(range(4), 3))
        for mask in range(1 << 4):
            triples = [t for i, t in enumerate(all4) if mask >> i & 1]
            h = Hypergraph3.from_triples(4, triples)
            assert decide_metric(h).metric == decide_metric_naive(h).metric, mask

    def test_sample_5_vertices(self):
        rng = random.Random(11)
        all5 = list(itertools.combinations(range(5), 3))
        for _ in range(30):
            h = Hypergraph3.from_triples(5, [t for t in all5 if rng.random() < 0.5])
            assert decide_metric(h).metric == decide_metric_naive(h).metric

    def test_option_variants_agree(self):
        h = based_hypergraph(cycle_graph(5))
        baseline = decide_metric(h)
        assert decide_metric(h, DecideOptions(core_order=False)).metric == baseline.metric
        nm = NONMETRIC_6V_8T
        assert not decide_metric(nm, DecideOptions(core_order=False)).metric
        assert not decide_metric(nm).metric


class TestDeterminism:
    def test_identical_runs(self):
        h = based_hypergraph(cycle_graph(5))
        a = decide_metric(h, DecideOptions(core_order=False))
        b = decide_metric(h, DecideOptions(core_order=False))
        assert a is b  # memoized
        from geodesic.decider import clear_decision_cache

        clear_decision_cache()
        c = decide_metric(h, DecideOptions(core_order=False))
        assert c.metric == a.metric and c.witness == a.witness and c.stats == a.stats


# Metric, with no complete core; drawn like the benchmark's random-n7 pool
# (a random density, then each triple independently).  Of the three middles
# of its first hyperedge, the first leads to no witness and the other two to
# different witnesses, so two workers both hit and the merge must take
# branch 1.
METRIC_7V_NO_CORE = Hypergraph3.from_triples(
    7,
    [(0, 1, 2), (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 3, 4), (0, 4, 6), (1, 2, 3), (1, 2, 4), (4, 5, 6)],
)


STRIDED = {
    "C6": based_hypergraph(cycle_graph(6)),
    "C7": based_hypergraph(cycle_graph(7)),
    "C8": based_hypergraph(cycle_graph(8)),
    "C8-bar": based_hypergraph(complement(cycle_graph(8))),
    "P5-bar": based_hypergraph(complement(path_graph(5))),
    "6v8t": NONMETRIC_6V_8T,
    "7v-no-core": METRIC_7V_NO_CORE,
    "edgeless": Hypergraph3.from_triples(5, []),
    # non-metric with 3 and 5 core orders left by the apex-word filter
    "planted-24": _planted(24, 5, 2, 0.5),
    "planted-31": _planted(31, 5, 2, 0.5),
}


@pytest.mark.parametrize("stride", [2, 3])
@pytest.mark.parametrize("h", STRIDED.values(), ids=STRIDED.keys())
def test_strided_branches_match_sequential(h, stride):
    # The branches a fan-out worker searches, in one process: their tallies
    # add up to the sequential ones, and the least hit is the sequential
    # hit.  Fails if a core order's subtree depends on which orders were
    # seeded before it.
    index, witness, stats = _explore(h, True)
    parts = [_explore(h, True, stride, offset) for offset in range(stride)]
    if witness is None:
        assert [hit for hit, _, _ in parts] == [None] * stride
        total = SearchStats()
        for _, _, part in parts:
            total = total.merged(part)
        assert total == stats
    else:
        hits = [(hit, found) for hit, found, _ in parts if hit is not None]
        assert min(hits, key=lambda p: p[0]) == (index, witness)


class TestParallel:
    def test_threads_match_sequential(self):
        edgeless = Hypergraph3.from_triples(5, [])
        for h in (
            based_hypergraph(cycle_graph(5)),
            based_hypergraph(cycle_graph(6)),
            NONMETRIC_6V_8T,
            edgeless,
            METRIC_7V_NO_CORE,
        ):
            seq = decide_metric(h)
            par = decide_metric(h, DecideOptions(threads=2))
            assert seq.metric == par.metric
            assert seq.witness == par.witness
            assert par.stats.nodes >= seq.stats.nodes
