import itertools

import pytest
from hypothesis import given, settings, strategies as st

from geodesic.hypergraphs import Hypergraph3, based_hypergraph, cycle_graph
from geodesic.orientation import (
    ClosureConflict,
    OrientationState,
    _menger_consequences,
    orientation_closure,
)


class TestClosure:
    def test_empty_assignment(self):
        h = based_hypergraph(cycle_graph(5))
        assert orientation_closure(h, {}) == {}

    def test_rule_application(self):
        # [013] and [123] are the premises of one rule instance on
        # (a,b,c,d) = (0,1,2,3); the conclusions are [012] and [023]
        h = based_hypergraph(cycle_graph(5))
        closed = orientation_closure(h, {(0, 1, 3): 1, (1, 2, 3): 2})
        assert isinstance(closed, dict)
        assert closed[(0, 1, 2)] == 1
        assert closed[(0, 2, 3)] == 2

    def test_independent_facts_stay_fixed(self):
        # [012] and [123] share no rule instance: no premise pair of the
        # four-point rule matches them, so the closure adds nothing.
        # (A witness metric: d01=d12=d23=1, d02=d13=2, d03=2 satisfies both
        # facts and no others among these triples.)
        h = based_hypergraph(cycle_graph(5))
        closed = orientation_closure(h, {(0, 1, 2): 1, (1, 2, 3): 2})
        assert closed == {(0, 1, 2): 1, (1, 2, 3): 2}

    def test_conflict_on_missing_hyperedge(self):
        h = Hypergraph3.from_triples(4, [(0, 1, 3), (1, 2, 3)])
        conflict = orientation_closure(h, {(0, 1, 3): 1, (1, 2, 3): 2})
        assert isinstance(conflict, ClosureConflict)
        assert conflict.cause == "non-hyperedge"
        assert set(conflict.quad) == {0, 1, 2, 3}

    def test_conflict_on_middle_clash(self):
        # force [012] via the rule while [021] is already assigned
        h = Hypergraph3.from_triples(4, [(0, 1, 3), (1, 2, 3), (0, 1, 2), (0, 2, 3)])
        conflict = orientation_closure(h, {(0, 1, 2): 2, (0, 1, 3): 1, (1, 2, 3): 2})
        assert isinstance(conflict, ClosureConflict)
        assert conflict.cause == "middle-clash"

    def test_precondition_validation(self):
        h = Hypergraph3.from_triples(3, [(0, 1, 2)])
        with pytest.raises(ValueError, match="not a hyperedge"):
            orientation_closure(Hypergraph3.from_triples(4, [(0, 1, 2)]), {(0, 1, 3): 1})
        with pytest.raises(ValueError, match="outside"):
            orientation_closure(h, {(0, 1, 2): 5})


class TestOrientationState:
    def test_rollback_restores(self):
        h = based_hypergraph(cycle_graph(5))
        state = OrientationState(h)
        mark0 = state.checkpoint()
        assert state.assert_fact((0, 1, 3), 1) is None
        mark1 = state.checkpoint()
        assert state.assert_fact((1, 2, 3), 2) is None
        assert (0, 1, 2) in state.middles  # forced
        state.rollback(mark1)
        assert state.middles == {(0, 1, 3): 1}
        state.rollback(mark0)
        assert state.middles == {}

    def test_duplicate_assert_is_noop(self):
        h = based_hypergraph(cycle_graph(5))
        state = OrientationState(h)
        assert state.assert_fact((0, 1, 2), 1) is None
        before = dict(state.middles)
        assert state.assert_fact((0, 1, 2), 1) is None
        assert state.middles == before

    def test_seeded_linear_core_is_closed(self):
        # seeding all order-median facts of a core and then closing any one
        # of them again derives nothing new
        from geodesic.decider import _linear_core_facts

        h = based_hypergraph(cycle_graph(5))
        state = OrientationState(h)
        state.seed_unchecked(_linear_core_facts((0, 1, 2, 3, 4)))
        closed = orientation_closure(h, dict(state.middles))
        assert closed == state.middles


class _ScanState:
    """Reference closure: pairs each new fact with every fact on the trail."""

    def __init__(self, h):
        self.h = h
        self.middles = {}
        self._facts = []

    def checkpoint(self):
        return len(self._facts)

    def rollback(self, mark):
        while len(self._facts) > mark:
            triple, _ = self._facts.pop()
            del self.middles[triple]

    def seed_unchecked(self, facts):
        for triple, middle in facts:
            self.middles[triple] = middle
            self._facts.append((triple, middle))

    def assert_fact(self, triple, middle):
        queue = [(triple, middle, (-1, -1, -1, -1))]
        qi = 0
        while qi < len(queue):
            t, m, quad = queue[qi]
            qi += 1
            existing = self.middles.get(t)
            if existing is not None:
                if existing == m:
                    continue
                return ClosureConflict("middle-clash", quad, t, m)
            if t not in self.h.triples:
                return ClosureConflict("non-hyperedge", quad, t, m)
            self.middles[t] = m
            self._facts.append((t, m))
            new = (t, m)
            for other in self._facts[:-1]:
                for ft, fm, fquad in _menger_consequences(new, other):
                    if self.middles.get(ft) != fm:
                        queue.append((ft, fm, fquad))
        return None


def _rebuilt_indexes(state):
    """The partner indexes and touch counts recomputed from the trail."""
    n = state.h.n
    by_ends = [[] for _ in range(n * n)]
    by_middle_end = [[] for _ in range(n * n)]
    touches = [0] * n
    for pos, (t, m) in enumerate(state._facts):
        x, y = [v for v in t if v != m]
        by_ends[x * n + y].append(pos)
        by_middle_end[m * n + x].append(pos)
        by_middle_end[m * n + y].append(pos)
        for v in t:
            touches[v] += 1
    return by_ends, by_middle_end, touches


class TestIndexedClosureMatchesScan:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_operation_sequences(self, data):
        n = data.draw(st.integers(3, 7))
        pool = list(itertools.combinations(range(n), 3))
        h = Hypergraph3.from_triples(n, data.draw(st.sets(st.sampled_from(pool))))
        state, ref = OrientationState(h), _ScanState(h)
        marks = []
        for _ in range(data.draw(st.integers(1, 25))):
            op = data.draw(st.sampled_from(["assert", "seed", "checkpoint", "rollback"]))
            if op == "assert":
                t = data.draw(st.sampled_from(pool))
                m = data.draw(st.sampled_from(t))
                assert state.assert_fact(t, m) == ref.assert_fact(t, m)
            elif op == "seed":
                free = [t for t in pool if t not in ref.middles]
                triples = data.draw(st.lists(st.sampled_from(free), unique=True, max_size=4)) if free else []
                facts = [(t, data.draw(st.sampled_from(t))) for t in triples]
                state.seed_unchecked(facts)
                ref.seed_unchecked(facts)
            elif op == "checkpoint":
                assert state.checkpoint() == ref.checkpoint()
                marks.append(ref.checkpoint())
            elif marks:
                i = data.draw(st.integers(0, len(marks) - 1))
                mark = marks[i]
                del marks[i:]
                state.rollback(mark)
                ref.rollback(mark)
            assert list(state.middles.items()) == list(ref.middles.items())
            assert state._facts == ref._facts
            assert (state._by_ends, state._by_middle_end, state.touches) == _rebuilt_indexes(state)
        state.rollback(0)
        assert state.middles == {} and state._facts == []
        assert not any(state._by_ends) and not any(state._by_middle_end)
        assert state.touches == [0] * n
