import itertools
import random

import pytest

from geodesic.decider import decide_metric
from geodesic.enumeration import (
    canonical_form,
    enumerate_minimal_nonmetric,
)
from geodesic.hypergraphs import (
    Hypergraph3,
    based_hypergraph,
    cycle_graph,
    path_graph,
)


def relabeled(h: Hypergraph3, perm: list[int]) -> Hypergraph3:
    return Hypergraph3.from_triples(h.n, [tuple(perm[v] for v in t) for t in h.triples])


class TestCanonicalForm:
    def test_relabelings_collide(self):
        h = based_hypergraph(cycle_graph(4))
        rng = random.Random(3)
        for _ in range(10):
            perm = list(range(h.n))
            rng.shuffle(perm)
            assert canonical_form(relabeled(h, perm)) == canonical_form(h)

    def test_different_hypergraphs_differ(self):
        c5 = based_hypergraph(cycle_graph(5))
        p5 = based_hypergraph(path_graph(5))
        assert canonical_form(c5) != canonical_form(p5)

    def test_empty_vs_complete(self):
        empty = Hypergraph3.from_triples(4, [])
        full = Hypergraph3.from_triples(4, itertools.combinations(range(4), 3))
        assert canonical_form(empty) != canonical_form(full)

    def test_classifies_all_4_vertex_hypergraphs(self):
        # 5 isomorphism classes of 3-uniform hypergraphs on 4 vertices
        all4 = list(itertools.combinations(range(4), 3))
        forms = set()
        for mask in range(1 << 4):
            h = Hypergraph3.from_triples(4, [t for i, t in enumerate(all4) if mask >> i & 1])
            forms.add(canonical_form(h))
        assert len(forms) == 5

    def test_size_cap(self):
        with pytest.raises(ValueError):
            canonical_form(Hypergraph3.from_triples(9, []))


class TestEnumeration:
    def test_n3_empty(self):
        res = enumerate_minimal_nonmetric(3)
        assert res.found == ()
        assert not res.truncated
        assert res.classes_examined == 2

    def test_n4_empty(self):
        res = enumerate_minimal_nonmetric(4)
        assert res.found == ()
        assert res.classes_examined == 5

    def test_n5_empty_and_class_count(self):
        # every 3-uniform hypergraph on five vertices is metric
        res = enumerate_minimal_nonmetric(5)
        assert res.found == ()
        assert res.classes_examined == 34

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            enumerate_minimal_nonmetric(7)
        with pytest.raises(ValueError):
            enumerate_minimal_nonmetric(2)

    def test_budget_truncation(self):
        res = enumerate_minimal_nonmetric(6, budget=0.0)
        assert res.truncated

    def test_found_entries_are_minimal(self, enumeration_n6):
        # spot-check the first few findings of the complete n=6 run
        res = enumeration_n6
        assert not res.truncated
        assert len(res.found) == 748
        assert res.classes_examined == 2136
        for h in res.found[:3]:
            assert not decide_metric(h).metric
            for v in range(h.n):
                assert decide_metric(h.delete_vertex(v)).metric
