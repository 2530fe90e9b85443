from fractions import Fraction

import pytest

from geodesic.constructions import c4_based_metric, odd_cycle_metric
from geodesic.decider import decide_metric
from geodesic.hypergraphs import based_hypergraph, cycle_graph
from geodesic.serialization import (
    dumps,
    graph_from_dict,
    graph_to_dict,
    hypergraph_from_dict,
    hypergraph_to_dict,
    loads,
    metric_from_dict,
    metric_to_dict,
    parse_rational,
    verdict_from_dict,
    verdict_to_dict,
)


class TestRationals:
    def test_round_trip(self):
        for text, value in [("3", Fraction(3)), ("-2", Fraction(-2)), ("7/2", Fraction(7, 2))]:
            assert parse_rational(text) == value
        assert parse_rational(5) == Fraction(5)

    def test_rejects_floats_and_junk(self):
        for bad in (1.5, "1.5", "1/0", "a/b", None, True, "2/-3"):
            with pytest.raises(ValueError):
                parse_rational(bad)


class TestMetricRoundTrip:
    def test_c4_chart(self):
        m = c4_based_metric()
        again = metric_from_dict(loads(dumps(metric_to_dict(m))))
        assert again == m

    def test_fractional_distances(self):
        m = odd_cycle_metric(2)
        data = metric_to_dict(m)
        assert data["dist"][0][1] == "1"
        assert metric_from_dict(data) == m

    def test_rejects_asymmetric(self):
        data = {"points": ["a", "b"], "dist": [["0", "1"], ["2", "0"]]}
        with pytest.raises(ValueError):
            metric_from_dict(data)

    def test_rejects_incomplete(self):
        data = {"points": ["a", "b"], "dist": [["0", "1"]]}
        with pytest.raises(ValueError):
            metric_from_dict(data)

    def test_rejects_missing_keys(self):
        with pytest.raises(ValueError):
            metric_from_dict({"points": ["a", "b"]})


class TestGraphHypergraphRoundTrip:
    def test_graph(self):
        g = cycle_graph(6)
        assert graph_from_dict(loads(dumps(graph_to_dict(g)))) == g

    def test_hypergraph(self):
        h = based_hypergraph(cycle_graph(5))
        assert hypergraph_from_dict(loads(dumps(hypergraph_to_dict(h)))) == h

    def test_graph_validation(self):
        with pytest.raises(ValueError):
            graph_from_dict({"n": 2, "edges": [[0, 5]]})
        with pytest.raises(ValueError):
            graph_from_dict({"n": 2, "edges": [[0]]})

    def test_hypergraph_validation(self):
        with pytest.raises(ValueError):
            hypergraph_from_dict({"n": 3, "triples": [[0, 1]]})


class TestVerdictRoundTrip:
    def test_metric_verdict(self):
        v = decide_metric(based_hypergraph(cycle_graph(5)))
        data = verdict_to_dict(v)
        assert data["verdict"] == "metric"
        again = verdict_from_dict(loads(dumps(data)))
        assert again.metric and again.witness == v.witness
        assert again.stats == v.stats

    def test_nonmetric_verdict(self):
        v = decide_metric(based_hypergraph(cycle_graph(6)))
        data = verdict_to_dict(v)
        assert data["verdict"] == "nonmetric"
        assert "witness" not in data
        again = verdict_from_dict(loads(dumps(data)))
        assert not again.metric and again.witness is None
        # "pruned" is always 0 now; older files with a nonzero count
        # still load and round-trip
        assert data["stats"]["pruned"] == 0
        data["stats"]["pruned"] = 14
        old = verdict_from_dict(loads(dumps(data)))
        assert old.stats.pruned == 14 and verdict_to_dict(old) == data
