import pytest

from geodesic.constructions import (
    c4_based_metric,
    odd_cycle_metric,
    p5bar_minus_a_metric,
    path_based_metric,
)
from geodesic.hypergraphs import based_hypergraph, cycle_graph, path_graph
from geodesic.metric import (
    Betweenness,
    betweenness_triples,
    check_menger,
    hypergraph_of,
    induced_subspace,
    line,
    validate_metric,
)


class TestOddCycleMetric:
    def test_s2_apex_row(self):
        m = odd_cycle_metric(2)
        assert [m.d("x", str(k)) for k in range(5)] == [2, 3, 2, 3, 2]

    def test_s1_realizes_complete_on_four(self):
        h = hypergraph_of(odd_cycle_metric(1))
        assert len(h.triples) == 4  # every 3-subset of a 4-point set

    def test_s2_non_edge_pair_not_collinear(self):
        # {x, 0, 2}: all three tightness checks fail arithmetically
        m = odd_cycle_metric(2)
        fs = betweenness_triples(m)
        for fact in (("x", "0", "2"), ("0", "x", "2"), ("0", "2", "x")):
            assert Betweenness(*fact) not in fs

    def test_matches_based_cycles(self):
        for s in range(1, 6):
            assert hypergraph_of(odd_cycle_metric(s)) == based_hypergraph(cycle_graph(2 * s + 1))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            odd_cycle_metric(0)


class TestPathBasedMetric:
    def test_k4(self):
        assert hypergraph_of(path_based_metric(4)) == based_hypergraph(path_graph(4))

    def test_k2_apex_collinear_only_with_edge(self):
        m = path_based_metric(2)
        assert hypergraph_of(m).triples == frozenset({(0, 1, 2)})

    def test_endpoints_pair_stays_non_edge(self):
        for k in (3, 4, 5, 6):
            h = hypergraph_of(path_based_metric(k))
            assert (0, k - 1, k) not in h.triples

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            path_based_metric(1)

    def test_equals_restricted_odd_cycle_chart(self):
        for k in range(2, 13):
            restricted = induced_subspace(odd_cycle_metric(k), [str(i) for i in range(k)] + ["x"])
            assert path_based_metric(k) == restricted, k


class TestC4Chart:
    def test_exact_entries(self):
        m = c4_based_metric()
        assert m.d("b", "x") == 3
        assert m.d("a", "c") == 2

    def test_betweenness_inclusion_exclusion(self):
        fs = betweenness_triples(c4_based_metric())
        assert Betweenness("x", "a", "b") in fs
        assert Betweenness("b", "x", "d") not in fs

    def test_line_ab_everything(self):
        m = c4_based_metric()
        assert line(m, "a", "b") == frozenset("abcdx")

    def test_realizes_based_c4(self):
        assert hypergraph_of(c4_based_metric()) == based_hypergraph(cycle_graph(4))


class TestP5BarMinusAChart:
    def test_exact_entries(self):
        m = p5bar_minus_a_metric()
        assert m.d("c", "x") == 4
        assert m.d("e", "d") == 3

    def test_betweenness_inclusion_exclusion(self):
        fs = betweenness_triples(p5bar_minus_a_metric())
        for fact in (("x", "e", "b"), ("x", "e", "c"), ("x", "d", "c"), ("x", "b", "c")):
            assert Betweenness(*fact) in fs
        for fact in (("x", "e", "d"), ("e", "x", "d"), ("e", "d", "x"),
                     ("x", "b", "d"), ("b", "x", "d"), ("b", "d", "x")):
            assert Betweenness(*fact) not in fs

    def test_core_fully_collinear(self):
        fs = betweenness_triples(p5bar_minus_a_metric())
        for fact in (("e", "b", "c"), ("e", "b", "d"), ("e", "c", "d"), ("b", "c", "d")):
            assert Betweenness(*fact) in fs


class TestCommonProperties:
    def test_all_pass_validation_and_menger(self):
        for m in (
            odd_cycle_metric(1),
            odd_cycle_metric(4),
            path_based_metric(5),
            c4_based_metric(),
            p5bar_minus_a_metric(),
        ):
            revalidated = validate_metric(m.points, m.dist)
            assert revalidated == m
            assert check_menger(m) == []

    def test_odd_cycle_window_restrictions(self):
        # any contiguous window of core points plus the apex realizes the
        # based path on that window
        from geodesic.metric import induced_subspace

        m = odd_cycle_metric(3)
        for start, size in ((0, 3), (1, 4), (2, 5)):
            window = [str(start + i) for i in range(size)]
            sub = induced_subspace(m, window + ["x"])
            h = hypergraph_of(sub)
            assert h == based_hypergraph(path_graph(size)), (start, size)
