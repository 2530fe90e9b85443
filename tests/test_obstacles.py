import pytest

from geodesic.constructions import path_based_metric
from geodesic.hypergraphs import Graph, complete_graph, cycle_graph, graph_equivalence, path_graph
from geodesic.metric import check_meq, line, recover_linear_order
from geodesic.obstacles import (
    CycleRestrictionCheck,
    ObstacleRouteInapplicable,
    certify_obstacle,
    cycle_obstacle_restrictions,
)


def _deleted_cycle_graph(n: int, deleted: int) -> Graph:
    """The n-cycle minus ``deleted``, relabeled along the path that starts
    right after it."""
    path_order = [(deleted + 1 + i) % n for i in range(n - 1)]
    position = {v: i for i, v in enumerate(path_order)}
    edges = [
        (position[u], position[v]) for u, v in cycle_graph(n).edges if u in position and v in position
    ]
    return Graph.from_edges(n - 1, edges)


def _per_deletion_restrictions(n: int) -> list[CycleRestrictionCheck]:
    """Reference: realize and check each deleted restriction on its own."""
    m = path_based_metric(n - 1)
    core_labels = [str(i) for i in range(n - 1)]
    everything = frozenset(m.points)
    core = frozenset(core_labels)
    collinear = recover_linear_order(m, core_labels) is not None
    checks = []
    for deleted in range(n):
        f = _deleted_cycle_graph(n, deleted)
        lines_seen = set()
        edge_ok = True
        nonedge_ok = True
        for i in range(n - 1):
            for j in range(i + 1, n - 1):
                l = line(m, core_labels[i], core_labels[j])
                lines_seen.add(l)
                if f.has_edge(i, j):
                    edge_ok = edge_ok and l == everything
                else:
                    nonedge_ok = nonedge_ok and l == core
        realized = check_meq(m, core_labels, graph_equivalence(f))
        checks.append(CycleRestrictionCheck(deleted, realized, frozenset(lines_seen), edge_ok, nonedge_ok, collinear))
    return checks


class TestCertifyObstacle:
    def test_c6_certified(self):
        cert = certify_obstacle(cycle_graph(6))
        assert cert is not None
        assert not cert.verdict_graph.metric
        assert not cert.verdict_complement.metric

    def test_c8_certified(self):
        assert certify_obstacle(cycle_graph(8)) is not None

    def test_c4_undetermined(self):
        assert certify_obstacle(cycle_graph(4)) is None

    def test_c5_undetermined(self):
        # based 5-cycle is metric, so the route gives nothing
        assert certify_obstacle(cycle_graph(5)) is None

    def test_complete_graph_inapplicable(self):
        with pytest.raises(ObstacleRouteInapplicable, match="complement"):
            certify_obstacle(complete_graph(3))

    def test_edgeless_graph_inapplicable(self):
        with pytest.raises(ObstacleRouteInapplicable, match="graph has no edges"):
            certify_obstacle(Graph.from_edges(3, []))


class TestCycleObstacleMinimality:
    def test_n6(self):
        assert all(check.ok for check in cycle_obstacle_restrictions(6))

    def test_n8(self):
        assert all(check.ok for check in cycle_obstacle_restrictions(8))

    def test_n4_rejected(self):
        with pytest.raises(ValueError):
            cycle_obstacle_restrictions(4)
        with pytest.raises(ValueError):
            cycle_obstacle_restrictions(7)

    def test_restrictions_have_exactly_two_lines(self):
        for check in cycle_obstacle_restrictions(6):
            assert check.ok
            assert len(check.lines_seen) == 2
            lines = sorted(check.lines_seen, key=len)
            assert len(lines[1]) == len(lines[0]) + 1  # core and core+apex

    @pytest.mark.parametrize("n", [6, 8, 10])
    def test_every_deletion_leaves_the_same_path(self, n):
        for deleted in range(n):
            assert _deleted_cycle_graph(n, deleted) == path_graph(n - 1)

    @pytest.mark.parametrize("n", [6, 8])
    def test_one_check_equals_per_deletion_checks(self, n):
        assert cycle_obstacle_restrictions(n) == _per_deletion_restrictions(n)

    def test_restriction_cores_fully_collinear(self):
        # in every realization every 3-subset of the core is collinear
        for check in cycle_obstacle_restrictions(8):
            assert check.core_triples_collinear
