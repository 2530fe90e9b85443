"""Middle assignments on hyperedges and their closure under the
four-point rule.

In every metric space, [abd] and [bcd] force [abc] and [acd].  Closing a
partial middle assignment under this rule either reaches a fixpoint or
hits one of two contradictions: a forced fact on a triple that is not a
hyperedge, or a second middle for an already oriented hyperedge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .hypergraphs import Hypergraph3, Triple, sorted_triple

OrientationAssignment = dict[Triple, int]


@dataclass(frozen=True)
class ClosureConflict:
    """A forced fact that cannot stand, with the four points forcing it."""

    cause: str  # "non-hyperedge" | "middle-clash"
    quad: tuple[int, int, int, int]
    triple: Triple
    middle: int

    def __str__(self) -> str:
        return f"{self.cause}: middle {self.middle} of {self.triple} forced via {self.quad}"


def _menger_consequences(
    fact: tuple[Triple, int], other: tuple[Triple, int]
) -> list[tuple[Triple, int, tuple[int, int, int, int]]]:
    """Facts forced by one application of the rule to this pair.

    With premises [a b d] and [b c d] the conclusions are [a b c] and
    [a c d]; each returned entry carries its (a, b, c, d) witness.
    """
    t1, m1 = fact
    t2, m2 = other
    if t1 == t2:
        return []
    out = []
    e1 = [v for v in t1 if v != m1]
    e2 = [v for v in t2 if v != m2]
    # fact as [a b d], other as [b c d]: other's endpoints are {m1, d}
    for d in e1:
        if (m1 == e2[0] and d == e2[1]) or (m1 == e2[1] and d == e2[0]):
            a = e1[0] if e1[1] == d else e1[1]
            if a != m2:
                quad = (a, m1, m2, d)
                out.append((sorted_triple(a, m1, m2), m1, quad))
                out.append((sorted_triple(a, m2, d), m2, quad))
    # other as [a b d], fact as [b c d]: fact's endpoints are {m2, d}
    for d in e2:
        if (m2 == e1[0] and d == e1[1]) or (m2 == e1[1] and d == e1[0]):
            a = e2[0] if e2[1] == d else e2[1]
            if a != m1:
                quad = (a, m2, m1, d)
                out.append((sorted_triple(a, m2, m1), m2, quad))
                out.append((sorted_triple(a, m1, d), m1, quad))
    return out


class OrientationState:
    """Incremental middle assignment with closure and undo.

    The search engine pushes decisions through :meth:`assert_fact`, which
    propagates to the closure's fixpoint, and rolls back to checkpoints
    on backtracking.

    The trail of facts is indexed so that closure visits only the facts
    a new one can pair with.  A new fact [x m y] is a premise of the rule
    together with a fact whose endpoints are {m, x} or {m, y}, or whose
    middle is x with y as an endpoint, or whose middle is y with x as an
    endpoint.  ``_by_ends`` holds the trail positions of the facts with
    each endpoint pair, ``_by_middle_end`` those with each (middle,
    endpoint) pair; both key a pair (u, v) as ``u * n + v``, with u < v
    for an endpoint pair.  Facts are
    pushed and popped only at the end of the trail, so every bucket stays
    in trail order.  ``touches[v]`` counts the facts on the trail whose
    triple contains v.  The split of a fact into its endpoints is written
    out in each hot method: as a helper call it cost about a fifth of the
    search time of based C8.
    """

    def __init__(self, h: Hypergraph3):
        self.h = h
        self.middles: OrientationAssignment = {}
        self.touches = [0] * h.n
        self._facts: list[tuple[Triple, int]] = []
        self._by_ends: list[list[int]] = [[] for _ in range(h.n * h.n)]
        self._by_middle_end: list[list[int]] = [[] for _ in range(h.n * h.n)]

    def checkpoint(self) -> int:
        return len(self._facts)

    def rollback(self, mark: int) -> None:
        facts, n, touches = self._facts, self.h.n, self.touches
        ends, middle_end = self._by_ends, self._by_middle_end
        while len(facts) > mark:
            triple, m = facts.pop()
            del self.middles[triple]
            a, b, c = triple
            x, y = (b, c) if m == a else (a, c) if m == b else (a, b)
            ends[x * n + y].pop()
            middle_end[m * n + x].pop()
            middle_end[m * n + y].pop()
            touches[a] -= 1
            touches[b] -= 1
            touches[c] -= 1

    def _push(self, triple: Triple, m: int) -> None:
        n, touches = self.h.n, self.touches
        pos = len(self._facts)
        self.middles[triple] = m
        self._facts.append((triple, m))
        a, b, c = triple
        x, y = (b, c) if m == a else (a, c) if m == b else (a, b)
        self._by_ends[x * n + y].append(pos)
        self._by_middle_end[m * n + x].append(pos)
        self._by_middle_end[m * n + y].append(pos)
        touches[a] += 1
        touches[b] += 1
        touches[c] += 1

    def _partners(self, triple: Triple, m: int) -> list[int]:
        """Trail positions of the facts that can pair with [x m y], in
        trail order.  The four buckets are disjoint for distinct triples,
        so no position repeats."""
        n = self.h.n
        a, b, c = triple
        x, y = (b, c) if m == a else (a, c) if m == b else (a, b)
        ends, middle_end = self._by_ends, self._by_middle_end
        return sorted(
            ends[min(m, x) * n + max(m, x)]
            + ends[min(m, y) * n + max(m, y)]
            + middle_end[x * n + y]
            + middle_end[y * n + x]
        )

    def seed_unchecked(self, facts: list[tuple[Triple, int]]) -> None:
        """Record facts without propagation.

        Only for fact sets already closed under the rule and free of
        clashes, e.g. the linear orientation of a complete core, whose
        pairwise consequences are again order-median facts.
        """
        for triple, middle in facts:
            self._push(triple, middle)

    def assert_fact(self, triple: Triple, middle: int) -> Optional[ClosureConflict]:
        """Assert one fact and close; on conflict the state is unchanged
        relative to the caller's last checkpoint (caller rolls back)."""
        queue = [(triple, middle, (-1, -1, -1, -1))]
        qi = 0
        facts = self._facts
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
            partners = self._partners(t, m)
            self._push(t, m)
            new = (t, m)
            for i in partners:
                for ft, fm, fquad in _menger_consequences(new, facts[i]):
                    if self.middles.get(ft) != fm:
                        queue.append((ft, fm, fquad))
        return None


def orientation_closure(
    h: Hypergraph3, assignment: OrientationAssignment
) -> OrientationAssignment | ClosureConflict:
    """Least fixpoint of an assignment under the four-point rule.

    The input must assign middles only to hyperedges of ``h`` (ValueError
    otherwise); conflicts discovered while closing are returned, not
    raised, with the witnessing four points.
    """
    for t, m in assignment.items():
        t = sorted_triple(*t)
        if t not in h.triples:
            raise ValueError(f"assigned triple {t} is not a hyperedge")
        if m not in t:
            raise ValueError(f"middle {m} outside its triple {t}")
    state = OrientationState(h)
    for t in sorted(assignment):
        conflict = state.assert_fact(sorted_triple(*t), assignment[t])
        if conflict is not None:
            return conflict
    return dict(state.middles)
