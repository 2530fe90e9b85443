"""Classification of apex-collinear pairs over a linearly ordered core.

Given points v0 < v1 < ... < v_{n-1} with every [v_j v_k v_l] tight and an
extra apex point x, each pair (j, l) with {x, v_j, v_l} collinear falls in
exactly one of three classes, by which point is the middle:

  d1: the smaller endpoint   ([x v_j v_l])
  d2: the apex               ([v_j x v_l])
  d3: the larger endpoint    ([v_j v_l x])

``check_wh_implications`` verifies the closure rules these classes obey in
every metric space, including the two sharpened conclusions about d2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .metric import MetricSpace, middle

Pair = tuple[int, int]


@dataclass(frozen=True)
class ApexClassification:
    """Apex-collinear pairs of an ordered core, split by middle point.

    ``n`` is the core size; pairs are (j, l) with 0 <= j < l < n.
    """

    n: int
    d1: frozenset[Pair]
    d2: frozenset[Pair]
    d3: frozenset[Pair]

    def __post_init__(self) -> None:
        for name, pairs in (("d1", self.d1), ("d2", self.d2), ("d3", self.d3)):
            for j, l in pairs:
                if not 0 <= j < l < self.n:
                    raise ValueError(f"{name} pair ({j},{l}) not ordered within 0..{self.n - 1}")
        if self.d1 & self.d2 or self.d1 & self.d3 or self.d2 & self.d3:
            raise ValueError("classes must be disjoint (a triple has at most one middle)")


@dataclass(frozen=True)
class ImplicationViolation:
    rule: str
    premise: tuple[Pair, ...]
    missing: str

    def __str__(self) -> str:
        return f"{self.rule}: given {self.premise}, expected {self.missing}"


def apex_classification(m: MetricSpace, order: Sequence[str], apex: str) -> ApexClassification:
    """Classify the apex-collinear pairs of ``order`` in ``m``.

    ``order`` must satisfy the linear condition (every increasing triple
    tight, middle in the middle); raises ``ValueError`` otherwise, if the
    apex appears in the order, or if a label is not a point of ``m``.
    """
    if apex in order:
        raise ValueError("apex must not be part of the ordered core")
    labels = list(order)
    if len(set(labels)) != len(labels):
        raise ValueError("ordered core labels must be distinct")
    at = [m.index(p) for p in labels]
    x = m.index(apex)
    for i, j, k in itertools.combinations(range(len(labels)), 3):
        if middle(m.dist, at[i], at[j], at[k]) != at[j]:
            raise ValueError(
                f"order is not linear: [{labels[i]} {labels[j]} {labels[k]}] does not hold"
            )

    d1, d2, d3 = set(), set(), set()
    for j, l in itertools.combinations(range(len(labels)), 2):
        mid = middle(m.dist, x, at[j], at[l])
        if mid == at[j]:
            d1.add((j, l))
        elif mid == x:
            d2.add((j, l))
        elif mid == at[l]:
            d3.add((j, l))
    return ApexClassification(len(labels), frozenset(d1), frozenset(d2), frozenset(d3))


def check_wh_implications(c: ApexClassification) -> list[ImplicationViolation]:
    """Violations of the closure rules a genuine apex classification obeys.

    Rules (all universally quantified over indices in 0..n-1):

      d1-interval:        (j,l) in d1, j<k<l  =>  (j,k) in d1 and (k,l) in d1
      d3-interval:        (j,l) in d3, j<k<l  =>  (j,k) in d3 and (k,l) in d3
      d2-left-extension:  (j,l) in d2, i<j    =>  (i,j) in d3 and (i,l) in d2
      d2-right-extension: (j,l) in d2, l<m    =>  (j,m) in d2 and (l,m) in d1
      d1-chain:           (i,j),(j,k) in d1   =>  (i,k) in d1
      d3-chain:           (i,j),(j,k) in d3   =>  (i,k) in d3
      d2-from-d1:         (i,k) in d2, (j,k) in d1, i!=j  =>  {i,j} in d2
      d2-from-d3:         (i,k) in d2, (i,j) in d3, j!=k  =>  {j,k} in d2

    The last two also come in sharpened forms fixing the order of the
    concluded pair: d2-from-d1 forces i < j, d2-from-d3 forces j < k.
    Returns an empty list iff every rule (sharpened forms included) holds.
    """
    out: list[ImplicationViolation] = []

    def want(rule: str, premise: tuple[Pair, ...], pair: Pair, cls: frozenset[Pair], name: str) -> None:
        if pair not in cls:
            out.append(ImplicationViolation(rule, premise, f"({pair[0]},{pair[1]}) in {name}"))

    for j, l in sorted(c.d1):
        for k in range(j + 1, l):
            want("d1-interval", ((j, l),), (j, k), c.d1, "d1")
            want("d1-interval", ((j, l),), (k, l), c.d1, "d1")
    for j, l in sorted(c.d3):
        for k in range(j + 1, l):
            want("d3-interval", ((j, l),), (j, k), c.d3, "d3")
            want("d3-interval", ((j, l),), (k, l), c.d3, "d3")

    for j, l in sorted(c.d2):
        for i in range(j):
            want("d2-left-extension", ((j, l),), (i, j), c.d3, "d3")
            want("d2-left-extension", ((j, l),), (i, l), c.d2, "d2")
        for m in range(l + 1, c.n):
            want("d2-right-extension", ((j, l),), (j, m), c.d2, "d2")
            want("d2-right-extension", ((j, l),), (l, m), c.d1, "d1")

    for (i, j) in sorted(c.d1):
        for (j2, k) in sorted(c.d1):
            if j2 == j:
                want("d1-chain", ((i, j), (j, k)), (i, k), c.d1, "d1")
    for (i, j) in sorted(c.d3):
        for (j2, k) in sorted(c.d3):
            if j2 == j:
                want("d3-chain", ((i, j), (j, k)), (i, k), c.d3, "d3")

    for (i, k) in sorted(c.d2):
        for (j, k2) in sorted(c.d1):
            if k2 == k and j != i:
                pair = (i, j) if i < j else (j, i)
                want("d2-from-d1", ((i, k), (j, k)), pair, c.d2, "d2")
                if j < i:
                    out.append(
                        ImplicationViolation(
                            "d2-from-d1-sharpened", ((i, k), (j, k)), f"i<j, got j={j} < i={i}"
                        )
                    )
        for (i2, j) in sorted(c.d3):
            if i2 == i and j != k:
                pair = (j, k) if j < k else (k, j)
                want("d2-from-d3", ((i, k), (i, j)), pair, c.d2, "d2")
                if k < j:
                    out.append(
                        ImplicationViolation(
                            "d2-from-d3-sharpened", ((i, k), (i, j)), f"j<k, got k={k} < j={j}"
                        )
                    )
    return out
