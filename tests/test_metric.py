import dataclasses
import itertools
import random
import re
from fractions import Fraction

import pytest

from geodesic.constructions import c4_based_metric, odd_cycle_metric
from geodesic.hypergraphs import (
    PairEquivalence,
    based_hypergraph,
    cycle_graph,
    graph_equivalence,
    path_graph,
)
from geodesic.metric import (
    AxiomViolation,
    Betweenness,
    MetricSpace,
    MetricValidationError,
    betweenness_triples,
    check_menger,
    check_meq,
    find_axiom_violations,
    hypergraph_of,
    induced_subspace,
    line,
    line_partition,
    menger_violations,
    recover_linear_order,
    validate_metric,
)
from geodesic.serialization import metric_to_dict

F = Fraction


def collinear_metric(n):
    """Points 0..n-1 on a line, d(i,j) = |i-j|."""
    labels = [str(i) for i in range(n)]
    rows = [[F(abs(i - j)) for j in range(n)] for i in range(n)]
    return validate_metric(labels, rows)


def equilateral3():
    return validate_metric(["p", "q", "r"], [[0, 1, 1], [1, 0, 1], [1, 1, 0]])


class TestValidateMetric:
    def test_two_point_space(self):
        m = validate_metric(["p", "q"], [[0, 1], [1, 0]])
        assert m.d("p", "q") == 1

    def test_c4_chart_is_valid(self):
        m = c4_based_metric()
        assert m.dist[4] == (F(2), F(3), F(2), F(3), F(0))

    def test_triangle_violation_reported_with_witness(self):
        with pytest.raises(MetricValidationError) as err:
            validate_metric(["a", "b", "c"], [[0, 1, 3], [1, 0, 1], [3, 1, 0]])
        kinds = {v.kind for v in err.value.violations}
        assert "triangle" in kinds
        witness = next(v for v in err.value.violations if v.kind == "triangle")
        assert set(witness.points) == {"a", "b", "c"}

    def test_asymmetry_nonzero_diagonal_nonpositive(self):
        with pytest.raises(MetricValidationError) as err:
            validate_metric(["a", "b"], [[0, 2], [1, 0]])
        assert any(v.kind == "asymmetry" for v in err.value.violations)
        with pytest.raises(MetricValidationError) as err:
            validate_metric(["a", "b"], [[1, 1], [1, 0]])
        assert any(v.kind == "nonzero-diagonal" for v in err.value.violations)
        with pytest.raises(MetricValidationError) as err:
            validate_metric(["a", "b"], [[0, 0], [0, 0]])
        assert any(v.kind == "nonpositive" for v in err.value.violations)

    def test_structural_errors(self):
        with pytest.raises(ValueError, match="duplicate"):
            validate_metric(["a", "a"], [[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="shape"):
            validate_metric(["a", "b"], [[0, 1]])

    def test_rational_entries_stay_exact(self):
        m = validate_metric(["a", "b"], [[0, "1/3"], ["1/3", 0]])
        assert m.d("a", "b") == F(1, 3)

    @pytest.mark.parametrize(
        "entry",
        [0.1, 1.0, float("inf"), float("nan"), True, "1/0", "one", None, [1]],
        ids=["float", "integral-float", "inf", "nan", "bool", "zero-denominator", "word", "none", "list"],
    )
    def test_inexact_entry_rejected_by_name(self, entry):
        with pytest.raises(ValueError, match=rf"^distance {re.escape(repr(entry))} is not an exact rational$"):
            validate_metric(["a", "b"], [[0, entry], [entry, 0]])


class TestBetweenness:
    def test_canonical_reversal(self):
        assert Betweenness("c", "b", "a") == Betweenness("a", "b", "c")

    def test_distinct_points_required(self):
        with pytest.raises(ValueError):
            Betweenness("a", "a", "b")

    def test_c4_chart_matches_printed_facts(self):
        facts = betweenness_triples(c4_based_metric())
        expected = {
            Betweenness("a", "b", "c"),
            Betweenness("b", "c", "d"),
            Betweenness("c", "d", "a"),
            Betweenness("d", "a", "b"),
            Betweenness("x", "a", "b"),
            Betweenness("x", "a", "d"),
            Betweenness("x", "c", "b"),
            Betweenness("x", "c", "d"),
        }
        assert facts == expected
        for bad in [("x", "a", "c"), ("a", "x", "c"), ("a", "c", "x"),
                    ("x", "b", "d"), ("b", "x", "d"), ("b", "d", "x")]:
            assert Betweenness(*bad) not in facts

    def test_collinear_points(self):
        facts = betweenness_triples(collinear_metric(3))
        assert facts == {Betweenness("0", "1", "2")}

    def test_equilateral_empty(self):
        assert betweenness_triples(equilateral3()) == frozenset()

    def test_middle_uniqueness(self):
        # at most one middle per unordered triple in any space here
        for m in (c4_based_metric(), odd_cycle_metric(2), collinear_metric(5)):
            supports = [f.support for f in betweenness_triples(m)]
            assert len(supports) == len(set(supports))


class TestHypergraphOf:
    def test_c4_chart_induces_based_c4(self):
        assert hypergraph_of(c4_based_metric()) == based_hypergraph(cycle_graph(4))

    def test_odd_cycle_s2_induces_based_c5(self):
        # independent oracle: recompute every tightness from the chart itself
        m = odd_cycle_metric(2)
        triples = set()
        n = len(m.points)
        for i, j, k in itertools.permutations(range(n), 3):
            if i < k and m.dist[i][j] + m.dist[j][k] == m.dist[i][k]:
                triples.add(tuple(sorted((i, j, k))))
        assert triples == set(based_hypergraph(cycle_graph(5)).triples)
        assert hypergraph_of(m) == based_hypergraph(cycle_graph(5))

    def test_equilateral_empty_hypergraph(self):
        h = hypergraph_of(equilateral3())
        assert h.n == 3 and not h.triples


class TestLine:
    def test_c4_line_ab_is_everything(self):
        m = c4_based_metric()
        assert line(m, "a", "b") == frozenset("abcdx")

    def test_c4_line_ac_is_core(self):
        m = c4_based_metric()
        assert line(m, "a", "c") == frozenset("abcd")

    def test_two_point_line(self):
        m = validate_metric(["p", "q"], [[0, 1], [1, 0]])
        assert line(m, "p", "q") == frozenset({"p", "q"})

    def test_same_point_rejected(self):
        with pytest.raises(ValueError):
            line(c4_based_metric(), "a", "a")


class TestLinePartition:
    def test_c4_partition_two_blocks(self):
        m = c4_based_metric()
        eq = line_partition(m, ["a", "b", "c", "d"])
        # edges of the 4-cycle in one block, the two diagonals in the other
        edges = frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})
        diagonals = frozenset({(0, 2), (1, 3)})
        assert eq.blocks == frozenset({edges, diagonals})

    def test_collinear_single_block(self):
        m = collinear_metric(3)
        eq = line_partition(m, ["0", "1", "2"])
        assert len(eq.blocks) == 1

    def test_equilateral_three_singletons(self):
        eq = line_partition(equilateral3(), ["p", "q", "r"])
        assert len(eq.blocks) == 3
        assert all(len(b) == 1 for b in eq.blocks)


class TestInducedSubspace:
    def test_c4_core_restriction(self):
        m = induced_subspace(c4_based_metric(), ["a", "b", "c", "d"])
        facts = betweenness_triples(m)
        assert facts == {
            Betweenness("a", "b", "c"),
            Betweenness("b", "c", "d"),
            Betweenness("c", "d", "a"),
            Betweenness("d", "a", "b"),
        }

    def test_two_point_restriction(self):
        m = induced_subspace(c4_based_metric(), ["a", "x"])
        assert len(m) == 2 and m.d("a", "x") == 2

    def test_restriction_realizes_based_path(self):
        sub = induced_subspace(odd_cycle_metric(3), ["0", "1", "2", "3", "x"])
        assert hypergraph_of(sub) == based_hypergraph(path_graph(4))

    def test_too_small(self):
        with pytest.raises(ValueError):
            induced_subspace(c4_based_metric(), ["a"])

    def test_restriction_commutes_with_hypergraph(self):
        m = odd_cycle_metric(2)
        keep = ["0", "2", "3", "x"]
        sub = hypergraph_of(induced_subspace(m, keep))
        h = hypergraph_of(m)
        positions = sorted(m.points.index(p) for p in keep)
        relabel = {v: i for i, v in enumerate(positions)}
        want = {
            tuple(sorted(relabel[v] for v in t))
            for t in h.triples
            if all(v in relabel for v in t)
        }
        assert set(sub.triples) == want


class TestRecoverLinearOrder:
    def test_collinear_points_sorted(self):
        m = collinear_metric(6)
        order = recover_linear_order(m, [str(i) for i in range(6)])
        assert order in ([str(i) for i in range(6)], [str(i) for i in reversed(range(6))])

    def test_c4_core_cyclic_has_no_order(self):
        # oracle: brute-force all orders of the 4 points
        m = induced_subspace(c4_based_metric(), ["a", "b", "c", "d"])
        facts = {(f.u, f.v, f.w) for f in betweenness_triples(m)}

        def tight(a, b, c):
            x, z = (a, c) if a < c else (c, a)
            return (x, b, z) in facts

        orders_ok = [
            perm
            for perm in itertools.permutations("abcd")
            if all(
                tight(perm[i], perm[j], perm[k])
                for i, j, k in itertools.combinations(range(4), 3)
            )
        ]
        assert orders_ok == []
        assert recover_linear_order(m, ["a", "b", "c", "d"]) is None

    def test_odd_cycle_core(self):
        m = odd_cycle_metric(2)
        order = recover_linear_order(m, [str(i) for i in range(5)])
        assert order in ([str(i) for i in range(5)], [str(i) for i in reversed(range(5))])

    def test_noncollinear_subset_rejected(self):
        with pytest.raises(ValueError, match="not collinear"):
            recover_linear_order(equilateral3(), ["p", "q", "r"])

    @pytest.mark.parametrize("subset", [["zz"], ["0", "1", "zz"]])
    def test_unknown_label_rejected(self, subset):
        with pytest.raises(ValueError, match="unknown point 'zz'"):
            recover_linear_order(collinear_metric(3), subset)


class TestMenger:
    def test_constructions_clean(self):
        for m in (c4_based_metric(), odd_cycle_metric(2), odd_cycle_metric(3), collinear_metric(7)):
            assert check_menger(m) == []

    def test_corrupted_fact_set_flagged(self):
        # [abd] and [bcd] present, [abc] deliberately absent
        facts = [Betweenness("a", "b", "d"), Betweenness("b", "c", "d"), Betweenness("a", "c", "d")]
        bad = menger_violations(facts)
        assert ("a", "b", "c", "d") in bad

    def test_complete_corrupted_set_has_no_violation(self):
        facts = [
            Betweenness("a", "b", "d"),
            Betweenness("b", "c", "d"),
            Betweenness("a", "b", "c"),
            Betweenness("a", "c", "d"),
        ]
        assert menger_violations(facts) == []


class TestCheckMeq:
    def test_c4_equivalence_realized(self):
        m = c4_based_metric()
        assert check_meq(m, ["a", "b", "c", "d"], graph_equivalence(cycle_graph(4)))

    def test_collinear_not_three_singletons(self):
        m = collinear_metric(3)
        singletons = PairEquivalence(
            3, frozenset({frozenset({(0, 1)}), frozenset({(0, 2)}), frozenset({(1, 2)})})
        )
        assert not check_meq(m, ["0", "1", "2"], singletons)

    def test_round_trip(self):
        m = odd_cycle_metric(2)
        subset = ["0", "1", "2", "3", "4"]
        eq = line_partition(m, subset)
        assert check_meq(m, subset, eq)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            check_meq(c4_based_metric(), ["a", "b"], graph_equivalence(cycle_graph(4)))


def _rational_chart(rng):
    """A seeded chart on 3-9 points, entries with denominators 1-12: the L1
    distances of points in the plane (many tight triangles, coincident
    points give zeros), points on a line, or symmetric random entries
    (triangle violations), then maybe a nonzero diagonal entry, an
    asymmetric pair, a nonpositive pair and a stretched pair."""
    n = rng.randint(3, 9)

    def q(top):
        den = rng.randint(1, 12)
        return F(rng.randint(0, top * den), den)

    kind = rng.randrange(3)
    if kind == 0:
        at = [(q(3), q(3)) for _ in range(n)]
        dist = [[abs(a[0] - b[0]) + abs(a[1] - b[1]) for b in at] for a in at]
    elif kind == 1:
        at = [q(6) for _ in range(n)]
        dist = [[abs(a - b) for b in at] for a in at]
    else:
        dist = [[F(0)] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            dist[i][j] = dist[j][i] = q(4) + F(1, 12)
    pairs = list(itertools.permutations(range(n), 2))
    if rng.random() < 0.25:
        i = rng.randrange(n)
        dist[i][i] = q(2)
    if rng.random() < 0.25:
        i, j = rng.choice(pairs)
        dist[i][j] += F(rng.choice((-1, 1)), rng.randint(1, 12))
    if rng.random() < 0.25:
        i, j = rng.choice(pairs)
        dist[i][j] = dist[j][i] = -q(2)
    if rng.random() < 0.25:
        i, j = rng.choice(pairs)
        dist[i][j] = dist[j][i] = 3 * dist[i][j] + F(1, rng.randint(1, 12))
    return [f"p{i}" for i in range(n)], dist


# The Fraction-arithmetic reference for the integer-image comparisons.


def _reference_violations(points, dist):
    n = len(points)
    out = []
    for i in range(n):
        if dist[i][i] != 0:
            out.append(AxiomViolation("nonzero-diagonal", (points[i],), f"d={dist[i][i]}"))
    for i in range(n):
        for j in range(i + 1, n):
            if dist[i][j] != dist[j][i]:
                out.append(AxiomViolation("asymmetry", (points[i], points[j])))
            if dist[i][j] <= 0:
                out.append(AxiomViolation("nonpositive", (points[i], points[j]), f"d={dist[i][j]}"))
    for i, j, k in itertools.permutations(range(n), 3):
        if i < k and dist[i][j] + dist[j][k] < dist[i][k]:
            out.append(AxiomViolation("triangle", (points[i], points[j], points[k])))
    return out


def _reference_middle(dist, i, j, k):
    if dist[i][j] + dist[j][k] == dist[i][k]:
        return j
    if dist[i][j] + dist[i][k] == dist[j][k]:
        return i
    if dist[i][k] + dist[j][k] == dist[i][j]:
        return k
    return None


def _reference_line(points, dist, a, b):
    return frozenset(
        {points[a], points[b]}
        | {z for k, z in enumerate(points) if k not in (a, b) and _reference_middle(dist, a, b, k) is not None}
    )


CHART_BATCHES = 20
CHARTS_PER_BATCH = 15


class TestIntegerImageMatchesFractions:
    """Every comparison on the integer image gives what the same
    comparison gives on the Fractions, on valid and invalid charts."""

    @pytest.mark.parametrize("batch", range(CHART_BATCHES))
    def test_seeded_rational_charts(self, batch):
        rng = random.Random(batch)
        for _ in range(CHARTS_PER_BATCH):
            points, dist = _rational_chart(rng)
            expected = _reference_violations(points, dist)
            assert find_axiom_violations(points, dist) == expected
            # unvalidated, so the image is computed lazily
            spaces = [MetricSpace(tuple(points), tuple(map(tuple, dist)))]
            if not expected:
                spaces.append(validate_metric(points, dist))
            n = len(points)
            subset = rng.sample(range(n), rng.randint(2, n))
            lines = {}
            for a, b in itertools.combinations(range(len(subset)), 2):
                lines.setdefault(_reference_line(points, dist, subset[a], subset[b]), set()).add((a, b))
            for m in spaces:
                middles = {t: _reference_middle(dist, *t) for t in itertools.combinations(range(n), 3)}
                assert hypergraph_of(m).triples == {t for t, v in middles.items() if v is not None}
                assert betweenness_triples(m) == {
                    Betweenness(*(points[x] for x in (min(set(t) - {v}), v, max(set(t) - {v}))))
                    for t, v in middles.items()
                    if v is not None
                }
                partition = line_partition(m, [points[i] for i in subset])
                assert partition.blocks == {frozenset(pairs) for pairs in lines.values()}

    def test_charts_cover_every_violation_kind(self):
        kinds = set()
        tight = 0
        for batch in range(CHART_BATCHES):
            rng = random.Random(batch)
            for _ in range(CHARTS_PER_BATCH):
                points, dist = _rational_chart(rng)
                violations = _reference_violations(points, dist)
                kinds |= {v.kind for v in violations}
                tight += not violations and bool(hypergraph_of(validate_metric(points, dist)).triples)
        assert kinds == {"asymmetry", "nonzero-diagonal", "nonpositive", "triangle"}
        assert tight >= 50

    def test_image_is_no_field(self):
        m = validate_metric(["a", "b", "c"], [[0, "1/3", "5/6"], ["1/3", 0, "1/2"], ["5/6", "1/2", 0]])
        fresh = MetricSpace(m.points, m.dist)
        assert "_scaled" in vars(m) and "_scaled" not in vars(fresh)
        assert m == fresh and hash(m) == hash(fresh) and repr(m) == repr(fresh)
        assert metric_to_dict(m) == metric_to_dict(fresh)
        assert [f.name for f in dataclasses.fields(m)] == ["points", "dist"]
        assert fresh._scaled == m._scaled == ((0, 2, 5), (2, 0, 3), (5, 3, 0))
        assert hypergraph_of(fresh).triples == {(0, 1, 2)}
