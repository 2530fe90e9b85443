import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import geodesic.feasibility as feasibility
from fm_oracle import fm_feasible
from test_decider import NONMETRIC_6V_8T
from geodesic.constructions import c4_based_metric
from geodesic.decider import _Search, clear_decision_cache, decide_metric
from geodesic.feasibility import (
    LOWER_BOUND,
    START,
    FeasibilitySystem,
    build_feasibility_system,
    partial_feasibility_system,
    solve_exact_feasibility,
    solve_nonneg_feasibility,
    strictness_constraints,
)
from geodesic.hypergraphs import Hypergraph3, based_hypergraph, cycle_graph
from geodesic.metric import betweenness_triples, hypergraph_of, middle


class TestSystemConstruction:
    def test_single_triple_system(self):
        h = Hypergraph3.from_triples(3, [(0, 1, 2)])
        system = build_feasibility_system(h, {(0, 1, 2): 1})
        assert system.equalities == (((0, 1), (1, 2), (0, 2)),)
        assert system.inequalities == ()
        assert feasibility.LOWER_BOUND == 1

    def test_empty_hypergraph_system(self):
        h = Hypergraph3.from_triples(3, [])
        system = build_feasibility_system(h, {})
        assert len(system.inequalities) == 3
        assert all(len({a, b, c}) == 3 for a, b, c in system.inequalities)

    def test_totality_enforced(self):
        h = Hypergraph3.from_triples(4, [(0, 1, 2), (0, 1, 3)])
        with pytest.raises(ValueError, match="not total"):
            build_feasibility_system(h, {(0, 1, 2): 1})
        with pytest.raises(ValueError, match="middle"):
            build_feasibility_system(h, {(0, 1, 2): 3, (0, 1, 3): 0})

    def test_strictness_rows_cover_all_three_middles(self):
        rows = strictness_constraints((0, 1, 2))
        longs = {c for _, _, c in rows}
        assert longs == {(1, 2), (0, 2), (0, 1)}


class TestSolver:
    def test_single_equality_witness(self):
        h = Hypergraph3.from_triples(3, [(0, 1, 2)])
        w = solve_exact_feasibility(build_feasibility_system(h, {(0, 1, 2): 1}))
        assert w is not None
        assert w[(0, 1)] + w[(1, 2)] == w[(0, 2)]
        assert all(v >= 1 for v in w.values())

    def test_contradictory_system_infeasible(self):
        h = Hypergraph3.from_triples(3, [(0, 1, 2)])
        base = build_feasibility_system(h, {(0, 1, 2): 1})
        bad = FeasibilitySystem(
            3, base.variables, base.equalities, (((0, 1), (1, 2), (0, 2)),)
        )
        assert solve_exact_feasibility(bad) is None

    def test_c4_chart_orientations_feasible(self):
        m = c4_based_metric()
        h = hypergraph_of(m)
        pos = {p: i for i, p in enumerate(m.points)}
        assignment = {}
        for f in betweenness_triples(m):
            t = tuple(sorted((pos[f.u], pos[f.v], pos[f.w])))
            assignment[t] = pos[f.v]
        system = build_feasibility_system(h, assignment)
        w = solve_exact_feasibility(system)
        assert w is not None
        # the chart's own distances satisfy the same system
        for a, b, c in system.equalities:
            assert m.dist[a[0]][a[1]] + m.dist[b[0]][b[1]] == m.dist[c[0]][c[1]]
        for a, b, c in system.inequalities:
            assert m.dist[a[0]][a[1]] + m.dist[b[0]][b[1]] >= m.dist[c[0]][c[1]] + 1

    @pytest.mark.parametrize(
        "num_vars, eqs, ineqs, feasible",
        [
            (0, [], [], True),
            (0, [([], 3)], [], False),
            (0, [], [([], 0)], True),
            (2, [([0, 0], 3)], [], False),
            (2, [], [([0, 0], 0)], True),
            (2, [([1, -1], 0)], [], True),
            (2, [([0, 0], 0)], [], True),
        ],
        ids=["no-vars", "no-vars-0=3", "no-vars-0>=0", "0=3", "0>=0", "only-eq-rhs-0", "only-0=0"],
    )
    def test_edge_cases_match_oracle(self, num_vars, eqs, ineqs, feasible):
        assert fm_feasible(num_vars, eqs, ineqs) is feasible
        y = solve_nonneg_feasibility(num_vars, eqs, ineqs)
        assert (y is not None) is feasible
        if y is not None:
            assert len(y) == num_vars and all(v >= 0 for v in y)
            for c, r in eqs:
                assert sum(ci * yi for ci, yi in zip(c, y)) == r

    def test_partial_system_relaxation(self):
        h = Hypergraph3.from_triples(4, [(0, 1, 2), (0, 1, 3)])
        system = partial_feasibility_system(h, {(0, 1, 2): 1})
        assert len(system.equalities) == 1
        assert len(system.inequalities) == 6  # two non-hyperedge triples
        assert solve_exact_feasibility(system) is not None


class TestSolverAgainstEliminationOracle:
    def test_random_systems_agree(self):
        rng = random.Random(31415)
        for _ in range(400):
            nv = rng.randint(1, 4)
            eqs = [
                ([rng.randint(-2, 2) for _ in range(nv)], rng.randint(-3, 3))
                for _ in range(rng.randint(0, 2))
            ]
            ineqs = [
                ([rng.randint(-2, 2) for _ in range(nv)], rng.randint(-3, 3))
                for _ in range(rng.randint(0, 5))
            ]
            y = solve_nonneg_feasibility(nv, eqs, ineqs)
            oracle = fm_feasible(nv, eqs, ineqs)
            assert (y is not None) == oracle, (eqs, ineqs, y)
            if y is not None:
                assert all(v >= 0 for v in y)
                for c, r in eqs:
                    assert sum(ci * yi for ci, yi in zip(c, y)) == r
                for c, r in ineqs:
                    assert sum(ci * yi for ci, yi in zip(c, y)) >= r

    def test_determinism(self):
        h = Hypergraph3.from_triples(4, [(0, 1, 2), (0, 1, 3), (1, 2, 3)])
        assignment = {(0, 1, 2): 1, (0, 1, 3): 1, (1, 2, 3): 2}
        system = build_feasibility_system(h, assignment)
        first = solve_exact_feasibility(system)
        for _ in range(5):
            assert solve_exact_feasibility(system) == first

    def test_scaled_witness_exactness(self):
        # fractions must be exact, not near: witness values re-verify as equalities
        h = Hypergraph3.from_triples(3, [(0, 1, 2)])
        w = solve_exact_feasibility(build_feasibility_system(h, {(0, 1, 2): 0}))
        assert w is not None
        assert isinstance(w[(0, 1)], Fraction)
        assert w[(0, 1)] + w[(0, 2)] == w[(1, 2)]


F = Fraction
TIGHT = Hypergraph3.from_triples(3, [(0, 1, 2)])  # x01 + x12 - x02 = 0 with middle 1
EMPTY = Hypergraph3(3, frozenset())  # three strict rows, x01 + x02 - x12 >= 1 first


# Each case: a system, a vertex y of the solver (x = START + y over the
# variables (0,1), (0,2), (1,2)) that meets one row or bound of it exactly,
# over the common denominator L = 5, 7 or 3, and the same vertex one unit
# of 1/L off on that row or bound.
WITNESS_CONTROLS = {
    "equality": (
        build_feasibility_system(TIGHT, {(0, 1, 2): 1}),
        [F(1, 5), START + F(1, 5), 0],
        [F(1, 5), START, 0],
        "violating an equality",
    ),
    "strict-row": (
        build_feasibility_system(EMPTY, {}),
        [0, F(1, 7), START - 1 + F(1, 7)],  # x01 + x02 - x12 = 1, scaled L
        [0, F(1, 7), START - 1 + F(2, 7)],  # scaled L - 1
        "violating an inequality",
    ),
    "bound": (
        build_feasibility_system(TIGHT, {(0, 1, 2): 1}),
        [LOWER_BOUND - START, LOWER_BOUND + F(4, 3) - START, F(4, 3) - START],  # x01 = LOWER_BOUND
        [LOWER_BOUND - F(1, 3) - START, LOWER_BOUND + 1 - START, F(4, 3) - START],
        "below the lower bound",
    ),
}


class TestWitnessCheck:
    """The integer check of a witness rejects a vertex one unit of 1/L off
    the row or bound it meets exactly, and accepts the exact one."""

    @pytest.mark.parametrize("case", WITNESS_CONTROLS)
    def test_vertex_one_unit_off_is_rejected(self, monkeypatch, case):
        system, exact, off, message = WITNESS_CONTROLS[case]
        monkeypatch.setattr(feasibility, "solve_nonneg_feasibility", lambda *args: list(map(F, exact)))
        assert solve_exact_feasibility(system) == {p: START + y for p, y in zip(system.variables, exact)}
        monkeypatch.setattr(feasibility, "solve_nonneg_feasibility", lambda *args: list(map(F, off)))
        with pytest.raises(AssertionError, match=message):
            solve_exact_feasibility(system)

    def test_returned_values_are_the_solver_vertex_shifted(self, monkeypatch):
        h = based_hypergraph(cycle_graph(5))
        system = build_feasibility_system(h, {t: middle(decide_metric(h).witness.dist, *t) for t in h.triples})
        vertices = []
        solve = feasibility.solve_nonneg_feasibility
        monkeypatch.setattr(feasibility, "solve_nonneg_feasibility", lambda *args: vertices.append(solve(*args)) or vertices[-1])
        witness = solve_exact_feasibility(system)
        assert witness == {p: START + y for p, y in zip(system.variables, vertices[0])}
        assert all(type(v) is Fraction for v in witness.values())

    @pytest.mark.parametrize(
        "h, solution, message",
        [
            # d(0,2) exceeds d(0,1) + d(1,2) by 1/7: no metric
            (EMPTY, {(0, 1): F(1), (1, 2): F(1), (0, 2): F(15, 7)}, "no metric"),
            # a metric, but 1 lies between 0 and 2 where h has no hyperedge
            (EMPTY, {(0, 1): F(1), (1, 2): F(1, 3), (0, 2): F(4, 3)}, "wrong hypergraph"),
        ],
        ids=["non-metric", "wrong-hypergraph"],
    )
    def test_search_witness_check_is_an_engine_bug(self, h, solution, message):
        with pytest.raises(AssertionError, match=f"{message}.*engine bug"):
            _Search(h)._witness(solution)


def _dense_solve_nonneg_feasibility(num_vars, equalities, inequalities):
    """Reference solver: the same phase-1 simplex on a dense integer
    tableau with one global fraction-free denominator, every row rewritten
    at every pivot and the objective re-summed over the artificial rows.
    Same pivot rules: the largest re-summed objective entry enters, ties by
    smallest index, or the smallest index after ``feasibility.BLAND_AFTER``
    degenerate pivots in a row; the minimum ratio leaves, ties by smallest
    basic variable."""
    num_slack = len(inequalities)
    slack_at = num_vars
    artif_start = num_vars + num_slack
    specs = []
    for si, (coeffs, rhs) in enumerate(inequalities):
        if rhs <= 0:
            specs.append(([-x for x in coeffs], -rhs, si + 1))
        else:
            specs.append((list(coeffs), rhs, -(si + 1)))
    for coeffs, rhs in equalities:
        row = list(coeffs)
        if rhs < 0:
            row = [-x for x in row]
            rhs = -rhs
        specs.append((row, rhs, 0))
    width = artif_start + 1
    rhs_col = width - 1
    rows, basis = [], []
    for ri, (coeffs, rhs, tag) in enumerate(specs):
        full = [0] * width
        full[:num_vars] = coeffs
        if tag != 0:
            full[slack_at + abs(tag) - 1] = 1 if tag > 0 else -1
        basis.append(slack_at + tag - 1 if tag > 0 else artif_start + ri)
        full[rhs_col] = rhs
        rows.append(full)
    den = 1
    degenerate_run = 0
    while True:
        art_rows = [i for i, b in enumerate(basis) if b >= artif_start]
        if all(rows[i][rhs_col] == 0 for i in art_rows):
            break
        costs = [sum(rows[i][j] for i in art_rows) for j in range(artif_start)]
        candidates = [j for j in range(artif_start) if costs[j] > 0]
        if not candidates:
            return None
        if degenerate_run < feasibility.BLAND_AFTER:
            entering = max(candidates, key=lambda j: (costs[j], -j))
        else:
            entering = candidates[0]
        leave = -1
        for i in range(len(rows)):
            a = rows[i][entering]
            if a <= 0:
                continue
            if leave < 0:
                leave = i
                continue
            diff = rows[i][rhs_col] * rows[leave][entering] - rows[leave][rhs_col] * a
            if diff < 0 or (diff == 0 and basis[i] < basis[leave]):
                leave = i
        assert leave >= 0, "phase-1 objective unbounded"
        piv = rows[leave][entering]
        prow = rows[leave]
        degenerate_run = 0 if prow[rhs_col] else degenerate_run + 1
        for i, row in enumerate(rows):
            if i == leave:
                continue
            f = row[entering]
            for j in range(width):
                q, r = divmod(row[j] * piv - f * prow[j], den)
                assert r == 0, "fraction-free pivot lost exactness"
                row[j] = q
        den = piv
        basis[leave] = entering
    result = [Fraction(0)] * num_vars
    for i, b in enumerate(basis):
        if b < num_vars:
            result[b] = Fraction(rows[i][rhs_col], den)
    return result


def _rows(nv, max_rows):
    coeffs = st.one_of(st.just([0] * nv), st.lists(st.integers(-2, 2), min_size=nv, max_size=nv))
    return st.lists(st.tuples(coeffs, st.integers(-3, 3)), max_size=max_rows)


def _assert_drawn_system_matches(data):
    nv = data.draw(st.integers(0, 10))
    eqs = data.draw(_rows(nv, 10))
    ineqs = data.draw(_rows(nv, 20))
    assert solve_nonneg_feasibility(nv, eqs, ineqs) == _dense_solve_nonneg_feasibility(nv, eqs, ineqs)


def _assert_seeded_systems_match():
    # 10 of these 1000 systems reach another vertex when the fallback
    # fires after one degenerate pivot than without it; Hypothesis's
    # draws, biased small, seldom do.
    rng = random.Random(2718)
    for _ in range(1000):
        nv = rng.randint(1, 10)
        eqs = [
            ([rng.randint(-2, 2) for _ in range(nv)], rng.randint(-3, 3))
            for _ in range(rng.randint(0, 10))
        ]
        ineqs = [
            ([rng.randint(-2, 2) for _ in range(nv)], rng.randint(-3, 3))
            for _ in range(rng.randint(0, 20))
        ]
        assert solve_nonneg_feasibility(nv, eqs, ineqs) == _dense_solve_nonneg_feasibility(nv, eqs, ineqs)


def _assert_paper_leaf_systems_match(monkeypatch):
    systems = []
    solve = feasibility.solve_nonneg_feasibility

    def record(nv, eqs, ineqs):
        systems.append((nv, eqs, ineqs))
        return solve(nv, eqs, ineqs)

    # Based C7 and C9 are decided by a chart, with no LP: their leaf
    # systems are built from the middles of their witnesses.  The seven
    # infeasible leaves of the 6-vertex instance are recorded as it is
    # decided.
    monkeypatch.setattr(feasibility, "solve_nonneg_feasibility", record)
    clear_decision_cache()
    try:
        for n in (7, 9):
            h = based_hypergraph(cycle_graph(n))
            dist = decide_metric(h).witness.dist
            solve_exact_feasibility(build_feasibility_system(h, {t: middle(dist, *t) for t in h.triples}))
        decide_metric(NONMETRIC_6V_8T)
    finally:
        clear_decision_cache()
    results = [solve(*system) for system in systems]
    assert [y is None for y in results] == [False, False] + [True] * 7
    for system, y in zip(systems, results):
        assert y == _dense_solve_nonneg_feasibility(*system)


# The Bland fallback never fires on the paper's leaves (their degenerate
# runs are far shorter than BLAND_AFTER), so each comparison also runs
# with it forced: always Bland (0) and Bland after every degenerate
# pivot (1).
FORCED_FALLBACK = pytest.mark.parametrize("bland_after", [0, 1], ids=["bland-always", "bland-after-1"])


class TestSparseSolverMatchesDense:
    """The sparse solver makes the dense tableau's pivots, so it returns
    the same vertex, not just the same verdict."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_systems(self, data):
        _assert_drawn_system_matches(data)

    @FORCED_FALLBACK
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_systems_fallback_forced(self, bland_after, data):
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(feasibility, "BLAND_AFTER", bland_after)
            _assert_drawn_system_matches(data)

    def test_seeded_random_systems(self):
        _assert_seeded_systems_match()

    @FORCED_FALLBACK
    def test_seeded_random_systems_fallback_forced(self, monkeypatch, bland_after):
        monkeypatch.setattr(feasibility, "BLAND_AFTER", bland_after)
        _assert_seeded_systems_match()

    def test_paper_leaf_systems(self, monkeypatch):
        _assert_paper_leaf_systems_match(monkeypatch)

    @FORCED_FALLBACK
    def test_paper_leaf_systems_fallback_forced(self, monkeypatch, bland_after):
        monkeypatch.setattr(feasibility, "BLAND_AFTER", bland_after)
        _assert_paper_leaf_systems_match(monkeypatch)
