"""Hypothesis property tests for the structural invariants."""

import itertools

from hypothesis import given, settings, strategies as st

from geodesic.hypergraphs import Hypergraph3, induced_subhypergraph
from geodesic.metric import (
    Betweenness,
    betweenness_triples,
    check_menger,
    hypergraph_of,
    induced_subspace,
    line,
    line_partition,
    middle,
    recover_linear_order,
    validate_metric,
)
from geodesic.serialization import (
    dumps,
    hypergraph_from_dict,
    hypergraph_to_dict,
    loads,
    metric_from_dict,
    metric_to_dict,
)
from geodesic.suites import random_linear_apex_metric, random_shortest_path_metric

import random


@st.composite
def shortest_path_metrics(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(3, 7))
    return random_shortest_path_metric(random.Random(seed), n)


@st.composite
def linear_apex_metrics(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(3, 7))
    return random_linear_apex_metric(random.Random(seed), n)


@st.composite
def hypergraphs(draw):
    n = draw(st.integers(3, 6))
    pool = list(itertools.combinations(range(n), 3))
    triples = draw(st.sets(st.sampled_from(pool)))
    return Hypergraph3.from_triples(n, triples)


@settings(max_examples=150, deadline=None)
@given(st.one_of(shortest_path_metrics(), linear_apex_metrics()))
def test_betweenness_matches_definition(m):
    # v is between u and w when d(u,v) + d(v,w) = d(u,w), over all ordered triples
    d, p = m.dist, m.points
    between = {
        (u, v, w) for u, v, w in itertools.permutations(range(len(p)), 3) if d[u][v] + d[v][w] == d[u][w]
    }
    assert betweenness_triples(m) == {Betweenness(p[u], p[v], p[w]) for u, v, w in between}
    assert hypergraph_of(m).triples == {tuple(sorted(t)) for t in between}
    for t in itertools.combinations(range(len(p)), 3):
        assert {middle(d, *t)} - {None} == {v for u, v, w in between if {u, v, w} == set(t)}
    for i, j in itertools.combinations(range(len(p)), 2):
        collinear = {p[k] for t in between if {i, j} <= set(t) for k in t}
        assert line(m, p[i], p[j]) == collinear | {p[i], p[j]}


@settings(max_examples=150, deadline=None)
@given(shortest_path_metrics())
def test_middle_uniqueness(m):
    supports = [f.support for f in betweenness_triples(m)]
    assert len(supports) == len(set(supports))


@settings(max_examples=150, deadline=None)
@given(shortest_path_metrics())
def test_menger_closure_on_random_metrics(m):
    assert check_menger(m) == []


@settings(max_examples=100, deadline=None)
@given(shortest_path_metrics(), st.randoms(use_true_random=False))
def test_restriction_commutes(m, rnd):
    k = rnd.randint(2, len(m.points))
    subset = sorted(rnd.sample(list(m.points), k))
    sub = induced_subspace(m, subset)
    positions = [i for i, p in enumerate(m.points) if p in set(subset)]
    h = hypergraph_of(m)
    relabel = {v: i for i, v in enumerate(positions)}
    want = frozenset(
        tuple(sorted(relabel[v] for v in t))
        for t in h.triples
        if all(v in relabel for v in t)
    )
    assert hypergraph_of(sub).triples == want


@settings(max_examples=100, deadline=None)
@given(shortest_path_metrics(), st.randoms(use_true_random=False))
def test_line_contains_endpoints(m, rnd):
    p, q = rnd.sample(list(m.points), 2)
    assert {p, q} <= line(m, p, q)


@settings(max_examples=75, deadline=None)
@given(shortest_path_metrics(), st.randoms(use_true_random=False))
def test_line_partition_invariant_under_relabeling(m, rnd):
    perm = list(m.points)
    rnd.shuffle(perm)
    relabel = {p: f"r{i}" for i, p in enumerate(perm)}
    renamed = validate_metric(
        [relabel[p] for p in m.points],
        [[m.dist[i][j] for j in range(len(m.points))] for i in range(len(m.points))],
    )
    eq1 = line_partition(m, list(m.points))
    eq2 = line_partition(renamed, [relabel[p] for p in m.points])
    assert eq1 == eq2  # blocks are index-based, labels renamed in place


@settings(max_examples=100, deadline=None)
@given(linear_apex_metrics())
def test_recover_linear_order_on_cores(m):
    n = len(m.points) - 1
    if n >= 5:
        order = recover_linear_order(m, [str(i) for i in range(n)])
        assert order is not None


@settings(max_examples=60, deadline=None)
@given(hypergraphs(), st.randoms(use_true_random=False))
def test_induced_subhypergraph_via_vertex_deletion(h, rnd):
    if h.n <= 3:
        return
    v = rnd.randrange(h.n)
    keep = [u for u in range(h.n) if u != v]
    assert h.delete_vertex(v) == induced_subhypergraph(h, keep)


@settings(max_examples=80, deadline=None)
@given(shortest_path_metrics())
def test_metric_json_round_trip(m):
    assert metric_from_dict(loads(dumps(metric_to_dict(m)))) == m


@settings(max_examples=80, deadline=None)
@given(hypergraphs())
def test_hypergraph_json_round_trip(h):
    assert hypergraph_from_dict(loads(dumps(hypergraph_to_dict(h)))) == h
