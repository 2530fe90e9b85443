import itertools
import random

import pytest

from geodesic.decider import (
    DecideOptions,
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


class TestParallel:
    def test_threads_match_sequential(self):
        for h in (based_hypergraph(cycle_graph(5)), based_hypergraph(cycle_graph(6)), NONMETRIC_6V_8T):
            seq = decide_metric(h)
            par = decide_metric(h, DecideOptions(threads=2))
            assert seq.metric == par.metric
            assert seq.witness == par.witness
