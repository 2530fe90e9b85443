"""Finite metric spaces over exact rationals, and the structures they induce.

A metric space here is a labeled point set with a symmetric positive
rational distance matrix.  Everything downstream (betweenness, the
collinearity hypergraph, lines, line partitions) is an equality test on
distances, so all arithmetic is exact: no floats anywhere.

Every such test, and every axiom check, compares sums of entries, and
scaling all entries by one positive common denominator changes none of
those comparisons.  So they run on integer numerators: the chart times
the LCM of its denominators (``MetricSpace._scaled``).  Distances, and
the details of a violation, stay ``Fraction``s.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .hypergraphs import Hypergraph3, PairEquivalence


@dataclass(frozen=True)
class AxiomViolation:
    """One failed metric axiom, with the witnessing points."""

    kind: str  # "asymmetry" | "nonzero-diagonal" | "nonpositive" | "triangle"
    points: tuple[str, ...]
    detail: str = ""

    def __str__(self) -> str:
        where = ",".join(self.points)
        return f"{self.kind}({where}){': ' + self.detail if self.detail else ''}"


class MetricValidationError(ValueError):
    """Raised when a distance chart fails the metric axioms."""

    def __init__(self, violations: list[AxiomViolation]):
        self.violations = violations
        super().__init__("; ".join(str(v) for v in violations))


@dataclass(frozen=True)
class MetricSpace:
    """Labeled points with an exact symmetric distance matrix.

    Instances are immutable; build them through :func:`validate_metric`,
    which checks every axiom.  ``dist`` is indexed by point position.
    """

    points: tuple[str, ...]
    dist: tuple[tuple[Fraction, ...], ...]

    @cached_property
    def _scaled(self) -> tuple[tuple[int, ...], ...]:
        """``dist`` on integer numerators (:func:`_integer_image`), computed
        once; not a field, so it stays out of ``==``, ``repr`` and hashing."""
        return _integer_image(self.dist)

    def index(self, label: str) -> int:
        if label not in self.points:
            raise ValueError(f"unknown point {label!r}")
        return self.points.index(label)

    def d(self, p: str, q: str) -> Fraction:
        return self.dist[self.index(p)][self.index(q)]

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, label: str) -> bool:
        return label in self.points


@dataclass(frozen=True)
class Betweenness:
    """The fact that ``v`` lies between ``u`` and ``w``: d(u,v)+d(v,w)=d(u,w).

    ``(u, v, w)`` and ``(w, v, u)`` state the same fact; instances are
    canonicalized so that ``u < w`` by label order.
    """

    u: str
    v: str
    w: str

    def __post_init__(self) -> None:
        if len({self.u, self.v, self.w}) != 3:
            raise ValueError(f"betweenness needs three distinct points, got {(self.u, self.v, self.w)}")
        if self.w < self.u:
            u, w = self.u, self.w
            object.__setattr__(self, "u", w)
            object.__setattr__(self, "w", u)

    @property
    def support(self) -> frozenset[str]:
        return frozenset((self.u, self.v, self.w))

    def __str__(self) -> str:
        return f"[{self.u} {self.v} {self.w}]"


def _integer_image(dist: Sequence[Sequence[Fraction]]) -> tuple[tuple[int, ...], ...]:
    """The entries (ints or Fractions) times the LCM of their denominators:
    integers that compare, sum for sum, as the entries do."""
    scale = math.lcm(*(x.denominator for row in dist for x in row))
    return tuple(tuple(x.numerator * (scale // x.denominator) for x in row) for row in dist)


def find_axiom_violations(points: Sequence[str], dist: Sequence[Sequence[Fraction]]) -> list[AxiomViolation]:
    """All metric-axiom failures of a structurally well-formed chart of
    ints and Fractions."""
    return _violations(points, dist, _integer_image(dist))


def _violations(
    points: Sequence[str], dist: Sequence[Sequence[Fraction]], scaled: Sequence[Sequence[int]]
) -> list[AxiomViolation]:
    """:func:`find_axiom_violations`, comparing ``scaled``, the chart's
    integer image; the details print the entries of ``dist``."""
    n = len(points)
    out: list[AxiomViolation] = []
    for i in range(n):
        if scaled[i][i] != 0:
            out.append(AxiomViolation("nonzero-diagonal", (points[i],), f"d={dist[i][i]}"))
    for i in range(n):
        for j in range(i + 1, n):
            if scaled[i][j] != scaled[j][i]:
                out.append(AxiomViolation("asymmetry", (points[i], points[j])))
            if scaled[i][j] <= 0:
                out.append(AxiomViolation("nonpositive", (points[i], points[j]), f"d={dist[i][j]}"))
    # d(i,j) + d(j,k) >= d(i,k), symmetric in i, k: every i < k and j
    # apart from both, in the order of itertools.permutations
    for i in range(n):
        row_i = scaled[i]
        for j in range(n):
            if j == i:
                continue
            d_ij, row_j = row_i[j], scaled[j]
            for k in range(i + 1, n):
                if k != j and d_ij + row_j[k] < row_i[k]:
                    out.append(AxiomViolation("triangle", (points[i], points[j], points[k])))
    return out


def _exact(x: int | str | Fraction) -> Fraction:
    """An int, Fraction or rational-string distance entry as a Fraction;
    a Fraction is returned as it is."""
    if isinstance(x, Fraction):
        return x
    if not isinstance(x, (bool, float)):
        try:
            return Fraction(x)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            pass
    raise ValueError(f"distance {x!r} is not an exact rational")


def validate_metric(points: Sequence[str], dist: Sequence[Sequence[int | str | Fraction]]) -> MetricSpace:
    """Check a distance chart and return the validated MetricSpace.

    Structural problems (non-square matrix, duplicate labels, an inexact
    entry) raise ``ValueError``; axiom failures raise
    :class:`MetricValidationError` carrying every violation found.
    """
    labels = tuple(str(p) for p in points)
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate point labels")
    if not labels:
        raise ValueError("empty point set")
    if len(dist) != len(labels) or any(len(row) != len(labels) for row in dist):
        raise ValueError("distance matrix shape does not match point count")
    rows = tuple(tuple(_exact(x) for x in row) for row in dist)
    scaled = _integer_image(rows)
    violations = _violations(labels, rows, scaled)
    if violations:
        raise MetricValidationError(violations)
    space = MetricSpace(labels, rows)
    vars(space)["_scaled"] = scaled  # seed the cached property with the image just built
    return space


def middle(dist: Sequence[Sequence[Fraction]], i: int, j: int, k: int) -> Optional[int]:
    """The one of the distinct positions i, j, k that lies between the other two.

    v is between u and w when d(u,v) + d(v,w) = d(u,w).  At most one of
    the three can be the middle: two simultaneous tight triangles on one
    triple would force a zero distance.  None when no middle exists.
    Works on any exactly comparable entries, a chart or its integer image.
    """
    dij, dik, djk = dist[i][j], dist[i][k], dist[j][k]
    if dij + djk == dik:
        return j
    if dij + dik == djk:
        return i
    if dik + djk == dij:
        return k
    return None


def betweenness_triples(m: MetricSpace) -> frozenset[Betweenness]:
    """All betweenness facts of the space, canonicalized."""
    facts: list[Betweenness] = []
    scaled = m._scaled
    for t in itertools.combinations(range(len(m.points)), 3):
        v = middle(scaled, *t)
        if v is not None:
            u, w = (x for x in t if x != v)
            facts.append(Betweenness(m.points[u], m.points[v], m.points[w]))
    return frozenset(facts)


def hypergraph_of(m: MetricSpace) -> Hypergraph3:
    """Collinearity hypergraph: the position triples that have a middle.

    Vertices are point positions in ``m.points``.
    """
    n, scaled = len(m.points), m._scaled
    triples = frozenset(t for t in itertools.combinations(range(n), 3) if middle(scaled, *t) is not None)
    return Hypergraph3(n, triples)


def line(m: MetricSpace, p: str, q: str) -> frozenset[str]:
    """The line through p and q: both, plus every z collinear with them."""
    if p == q:
        raise ValueError("a line needs two distinct points")
    i, j = m.index(p), m.index(q)
    members = {p, q}
    scaled = m._scaled
    for k, z in enumerate(m.points):
        if k not in (i, j) and middle(scaled, i, j, k) is not None:
            members.add(z)
    return frozenset(members)


def line_partition(m: MetricSpace, subset: Sequence[str]) -> PairEquivalence:
    """Partition the pairs of ``subset`` by equality of their lines.

    Pair ``(i, j)`` in the result refers to ``(subset[i], subset[j])``;
    the caller's ordering of ``subset`` fixes the vertex numbering.
    """
    labels = list(subset)
    if len(set(labels)) != len(labels):
        raise ValueError("subset labels must be distinct")
    if len(labels) < 2:
        raise ValueError("need at least two points")
    by_line: dict[frozenset[str], list[tuple[int, int]]] = {}
    for a, b in itertools.combinations(range(len(labels)), 2):
        by_line.setdefault(line(m, labels[a], labels[b]), []).append((a, b))
    blocks = frozenset(frozenset(pairs) for pairs in by_line.values())
    return PairEquivalence(len(labels), blocks)


def induced_subspace(m: MetricSpace, subset: Iterable[str]) -> MetricSpace:
    """Restriction of the space to ``subset``, preserving point order."""
    wanted = set(subset)
    missing = wanted - set(m.points)
    if missing:
        raise ValueError(f"unknown points: {sorted(missing)}")
    keep = [i for i, p in enumerate(m.points) if p in wanted]
    if len(keep) < 2:
        raise ValueError("induced subspace needs at least two points")
    pts = tuple(m.points[i] for i in keep)
    rows = tuple(tuple(m.dist[i][j] for j in keep) for i in keep)
    return MetricSpace(pts, rows)


def recover_linear_order(m: MetricSpace, subset: Iterable[str]) -> Optional[list[str]]:
    """Find an ordering v0..vk of ``subset`` with every [v_a v_b v_c] tight.

    Requires every label to be a point of ``m`` and every 3-subset of
    ``subset`` to be collinear in ``m`` (raises ``ValueError``
    otherwise).  Picks a diametral pair as the endpoints, sorts by
    distance from one of them, and verifies all triples.  Guaranteed to
    succeed for ``|subset| >= 5``; for smaller sets the collinear triples
    may be cyclic, in which case returns None.
    """
    labels = sorted(set(subset))
    at = {p: m.index(p) for p in labels}
    scaled = m._scaled
    for a, b, c in itertools.combinations(labels, 3):
        if middle(scaled, at[a], at[b], at[c]) is None:
            raise ValueError(f"triple {{{a},{b},{c}}} of the subset is not collinear")

    if len(labels) <= 2:
        return labels

    # diametral pair
    best = max(
        itertools.combinations(labels, 2), key=lambda pq: (scaled[at[pq[0]]][at[pq[1]]], pq)
    )
    start = at[best[0]]
    order = sorted(labels, key=lambda p: (scaled[start][at[p]], p))
    ok = all(
        middle(scaled, at[a], at[b], at[c]) == at[b]
        for a, b, c in itertools.combinations(order, 3)
    )
    return order if ok else None


def menger_violations(facts: Iterable[Betweenness]) -> list[tuple[str, str, str, str]]:
    """Quadruples (a,b,c,d) with [abd] and [bcd] present but [abc] or [acd] absent.

    Pure set logic on a given fact set, so corrupted inputs can be
    checked directly; genuine metric spaces never produce violations.
    """
    present = {(f.u, f.v, f.w) for f in facts}

    def has(a: str, b: str, c: str) -> bool:
        return (min(a, c), b, max(a, c)) in present

    points = sorted({p for fact in present for p in fact})
    bad: list[tuple[str, str, str, str]] = []
    for a, b, c, d in itertools.permutations(points, 4):
        if has(a, b, d) and has(b, c, d):
            if not has(a, b, c) or not has(a, c, d):
                bad.append((a, b, c, d))
    return bad


def check_menger(m: MetricSpace) -> list[tuple[str, str, str, str]]:
    """Menger-rule violations of the space's own betweenness facts.

    Always empty for a validated metric space; kept as a property oracle
    on the betweenness extractor.
    """
    return menger_violations(betweenness_triples(m))


def check_meq(m: MetricSpace, subset: Sequence[str], eq: PairEquivalence) -> bool:
    """Does the line partition of ``subset`` in ``m`` equal ``eq``?

    ``eq`` must be defined on ``len(subset)`` vertices, pair ``(i, j)``
    meaning ``(subset[i], subset[j])``.
    """
    if eq.n != len(subset):
        raise ValueError(f"equivalence is on {eq.n} vertices, subset has {len(subset)}")
    return line_partition(m, subset) == eq
