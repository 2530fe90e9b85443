import itertools
import random

import pytest

from geodesic.constructions import odd_cycle_metric, path_based_metric
from geodesic.enumeration import enumerate_minimal_nonmetric
from geodesic.hypergraphs import (
    Graph,
    Hypergraph3,
    PairEquivalence,
    based_hypergraph,
    complement,
    complete_graph,
    cycle_graph,
    graph_equivalence,
    induced_subhypergraph,
    path_graph,
)
from geodesic.obstacles import cycle_obstacle_restrictions


def graphs_isomorphic(g1: Graph, g2: Graph) -> bool:
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return False
    for perm in itertools.permutations(range(g1.n)):
        if all((perm[u], perm[v]) in g2.edges or (perm[v], perm[u]) in g2.edges for u, v in g1.edges):
            return True
    return False


class TestGraph:
    def test_normalization_and_validation(self):
        g = Graph.from_edges(3, [(2, 0)])
        assert g.edges == frozenset({(0, 2)})
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 2)])
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(1, 1)])

    def test_induced_relabels(self):
        g = cycle_graph(5).induced([1, 2, 4])
        assert g.n == 3
        assert g.edges == frozenset({(0, 1)})  # only the 1-2 edge survives


class TestComplement:
    def test_c5_self_complementary(self):
        assert graphs_isomorphic(complement(cycle_graph(5)), cycle_graph(5))

    def test_c6_complement_has_triangle(self):
        co = complement(cycle_graph(6))
        assert co.has_edge(0, 2) and co.has_edge(2, 4) and co.has_edge(0, 4)

    def test_p5_complement_edge_count(self):
        assert len(complement(path_graph(5)).edges) == 6


class TestBasedHypergraph:
    def test_c4_counts(self):
        h = based_hypergraph(cycle_graph(4))
        assert h.n == 5 and len(h.triples) == 8

    def test_c6_counts(self):
        h = based_hypergraph(cycle_graph(6))
        assert h.n == 7 and len(h.triples) == 26

    def test_edgeless_graph(self):
        h = based_hypergraph(Graph.from_edges(3, []))
        assert h.triples == frozenset({(0, 1, 2)})


class TestHypergraph3:
    def test_normalization(self):
        h = Hypergraph3.from_triples(4, [(2, 0, 1)])
        assert h.triples == frozenset({(0, 1, 2)})
        with pytest.raises(ValueError):
            Hypergraph3.from_triples(3, [(0, 1, 3)])
        with pytest.raises(ValueError):
            Hypergraph3.from_triples(3, [(0, 1, 1)])

    def test_delete_vertex_relabels(self):
        h = based_hypergraph(cycle_graph(4))
        sub = h.delete_vertex(0)
        assert sub.n == 4
        # core triples of remaining {1,2,3} plus apex triples for edges 1-2, 2-3
        assert sub.triples == frozenset({(0, 1, 2), (0, 1, 3), (1, 2, 3)})

    def test_delete_vertex_shifts_labels_exhaustively(self):
        # every labelled hypergraph on 5 vertices: the triples without v,
        # each label above v moved down by one
        pool = list(itertools.combinations(range(5), 3))
        for mask in range(1 << len(pool)):
            h = Hypergraph3(5, frozenset(t for i, t in enumerate(pool) if mask >> i & 1))
            for v in range(5):
                shifted = {tuple(x - (x > v) for x in t) for t in h.triples if v not in t}
                assert h.delete_vertex(v) == Hypergraph3(4, frozenset(shifted))

    @pytest.mark.parametrize("v", [5, -1, True])
    def test_delete_vertex_rejects_non_vertex(self, v):
        with pytest.raises(ValueError, match="out of range"):
            based_hypergraph(cycle_graph(4)).delete_vertex(v)

    def test_induced_subhypergraph(self):
        h = based_hypergraph(cycle_graph(5))
        sub = induced_subhypergraph(h, [0, 1, 2, 5])
        # 5 is the apex; edges 0-1 and 1-2 survive
        assert sub.triples == frozenset({(0, 1, 2), (0, 1, 3), (1, 2, 3)})


class TestPairEquivalence:
    def test_partition_validated(self):
        with pytest.raises(ValueError, match="cover"):
            PairEquivalence(3, frozenset({frozenset({(0, 1)})}))
        with pytest.raises(ValueError, match="overlap"):
            PairEquivalence(
                3,
                frozenset(
                    {
                        frozenset({(0, 1), (0, 2), (1, 2)}),
                        frozenset({(0, 1)}),
                    }
                ),
            )

    def test_together(self):
        eq = graph_equivalence(cycle_graph(4))
        assert eq.together((0, 1), (2, 3))
        assert not eq.together((0, 1), (0, 2))

    def test_restrict(self):
        eq = graph_equivalence(cycle_graph(4)).restrict([0, 1, 3])
        # pairs of {0,1,3} relabeled to {0,1,2}: edges 0-1, 0-3 stay together
        assert eq.together((0, 1), (0, 2))
        assert not eq.together((0, 1), (1, 2))


@pytest.mark.parametrize(
    "vertices, bad",
    [([0, 1, 9], 9), ([-1, 0, 1], -1), ([True, 0, 2], True), ([1, True], True)],
    ids=["high", "negative", "bool", "bool-twin"],
)
@pytest.mark.parametrize(
    "select",
    [
        lambda vs: cycle_graph(4).induced(vs),
        lambda vs: induced_subhypergraph(based_hypergraph(cycle_graph(3)), vs),
        lambda vs: graph_equivalence(cycle_graph(4)).restrict(vs),
    ],
    ids=["induced", "induced_subhypergraph", "restrict"],
)
def test_vertex_selection_rejects_non_vertex(select, vertices, bad):
    # each of the 4 vertices 0..3 is selectable; the message names the bad one
    with pytest.raises(ValueError, match=rf"^vertex {bad!r} out of range 0\.\.3$"):
        select(vertices)


class TestGraphEquivalence:
    def test_c4_blocks(self):
        eq = graph_equivalence(cycle_graph(4))
        sizes = sorted(len(b) for b in eq.blocks)
        assert sizes == [2, 4]

    def test_complete_single_block(self):
        eq = graph_equivalence(complete_graph(4))
        assert len(eq.blocks) == 1 and len(next(iter(eq.blocks))) == 6

    def test_c6_block_sizes(self):
        eq = graph_equivalence(cycle_graph(6))
        assert sorted(len(b) for b in eq.blocks) == [6, 9]


def reference_normalization(n, members, size):
    """The member-by-member check and sort of any input: a frozenset of
    sorted int tuples, or the ValueError that construction raises."""
    norm = set()
    for m in members:
        if size == 2:
            u, v = m
            vertices = (u, v)
        else:
            u, v, w = m
            vertices = (u, v, w)
        for x in vertices:
            if isinstance(x, bool) or not isinstance(x, int) or not 0 <= x < n:
                raise ValueError(f"vertex {x!r} out of range 0..{n - 1}")
        if len(set(vertices)) != size:
            raise ValueError(f"loop at vertex {u}" if size == 2 else f"degenerate triple {m!r}")
        norm.add(tuple(sorted(vertices)))
    return frozenset(norm)


def random_members(rng, n, size):
    """Seeded member lists mixing normalized members with unsorted,
    degenerate, out-of-range and non-int ones."""
    strange = [-1, n, n + 1, 1.0, "1", True, False]
    members = []
    for _ in range(rng.randrange(5)):
        m = rng.sample(range(n), size) if n >= size else [rng.randrange(max(n, 1))] * size
        if rng.random() < 0.5:
            m.sort()
        if rng.random() < 0.15:
            m[rng.randrange(size)] = rng.choice(strange)
        if rng.random() < 0.05:
            m[-1] = m[0]
        if rng.random() < 0.03:
            m = m[:-1] if rng.random() < 0.5 else m + [0]
        members.append(m)
    return members


def containers(members):
    """The same members as a frozenset, set or list of tuples, or a list of lists."""
    tuples = [tuple(m) for m in members]
    return [frozenset(tuples), set(tuples), tuples, [list(m) for m in members]]


@pytest.mark.parametrize("cls, size", [(Graph, 2), (Hypergraph3, 3)], ids=["graph", "hypergraph"])
def test_construction_matches_member_by_member_normalization(cls, size):
    rng = random.Random(2024)
    kept = 0
    for _ in range(3000):
        n = rng.randrange(7)
        for given in containers(random_members(rng, n, size)):
            try:
                expected = reference_normalization(n, given, size)
            except ValueError as exc:
                with pytest.raises(ValueError) as raised:
                    cls(n, given)
                assert str(raised.value) == str(exc)
                continue
            value = cls(n, given)
            members = value.edges if size == 2 else value.triples
            assert type(members) is frozenset and members == expected
            assert all(type(x) is int for m in members for x in m)
            if cls is Hypergraph3:
                # kept as given exactly when the input was already normalized
                assert (members is given) == (type(given) is frozenset and given == expected)
                kept += members is given
    assert kept > 500 or cls is Graph


def test_normalized_input_is_kept_as_given():
    fs = frozenset({(0, 1, 2), (1, 2, 3)})
    assert Hypergraph3(4, fs).triples is fs


# 6.0 is in range for every builder below, so only a type check stops it
# before range() or arithmetic on it.
NOT_SIZES = [-1, 2.5, 6.0, True, "3", None]


@pytest.mark.parametrize("n", NOT_SIZES, ids=repr)
@pytest.mark.parametrize(
    "build",
    [
        lambda n: Graph(n, frozenset()),
        lambda n: Graph.from_edges(n, []),
        lambda n: Hypergraph3(n, frozenset()),
        lambda n: Hypergraph3.from_triples(n, []),
        lambda n: PairEquivalence(n, frozenset()),
        path_graph,
        cycle_graph,
        complete_graph,
        odd_cycle_metric,
        path_based_metric,
        cycle_obstacle_restrictions,
        enumerate_minimal_nonmetric,
    ],
    ids=[
        "graph",
        "from_edges",
        "hypergraph",
        "from_triples",
        "pair-equivalence",
        "path_graph",
        "cycle_graph",
        "complete_graph",
        "odd_cycle_metric",
        "path_based_metric",
        "cycle_obstacle_restrictions",
        "enumerate_minimal_nonmetric",
    ],
)
def test_size_must_be_a_nonnegative_integer(build, n):
    with pytest.raises(ValueError, match="nonnegative integer"):
        build(n)
