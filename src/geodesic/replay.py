"""The claim manifest: every headline fact this library reproduces,
runnable end to end, each claim a pass/fail check.

The manifest is data; adding a claim means appending an entry, never
touching engine code.  ``run_manifest`` executes claims in order and
reports one line each, deterministic apart from timing.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .apex import apex_classification, check_wh_implications
from .constructions import c4_based_metric, odd_cycle_metric, p5bar_minus_a_metric
from .decider import decide_metric, decide_metric_naive, is_minimal_nonmetric
from .enumeration import EnumerationResult, canonical_form, enumerate_minimal_nonmetric
from .hypergraphs import (
    Hypergraph3,
    based_hypergraph,
    complement,
    cycle_graph,
    graph_equivalence,
    path_graph,
)
from .metric import (
    Betweenness,
    betweenness_triples,
    check_menger,
    check_meq,
    hypergraph_of,
    recover_linear_order,
    validate_metric,
)
from .obstacles import certify_obstacle, cycle_obstacle_restrictions
from .suites import random_hypergraph, random_linear_apex_metric, random_shortest_path_metric

SUITE_CASES = 1000  # cases per property suite; verify-paper runs and reports this many


@dataclass(frozen=True)
class ClaimResult:
    claim_id: str
    description: str
    passed: bool
    elapsed: float
    detail: str = ""


@dataclass(frozen=True)
class ReplayReport:
    results: tuple[ClaimResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> list[str]:
        out = []
        for r in self.results:
            status = "PASS" if r.passed else "FAIL"
            line = f"{status}  {r.claim_id}  ({r.elapsed:.2f}s)"
            if r.detail and not r.passed:
                line += f"  -- {r.detail}"
            out.append(line)
        return out


class ClaimFailure(AssertionError):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ClaimFailure(message)


# --- claim bodies ----------------------------------------------------------


def claim_odd_cycle_charts() -> str:
    for s in range(1, 6):
        m = odd_cycle_metric(s)
        _require(
            hypergraph_of(m) == based_hypergraph(cycle_graph(2 * s + 1)),
            f"odd cycle chart s={s} induces the wrong hypergraph",
        )
    return "s=1..5 charts induce their based cycle hypergraphs"


def claim_odd_cycles_metric() -> str:
    for n in range(3, 18, 2):
        v = decide_metric(based_hypergraph(cycle_graph(n)))
        _require(v.metric, f"based cycle on {n} vertices should be metric")
        _require(
            hypergraph_of(v.witness) == based_hypergraph(cycle_graph(n)),
            f"witness for cycle {n} fails re-verification",
        )
    return "decider realizes based odd cycles n=3,5,...,17"


_C4_FACTS = [
    ("a", "b", "c"), ("b", "c", "d"), ("c", "d", "a"), ("d", "a", "b"),
    ("x", "a", "b"), ("x", "a", "d"), ("x", "c", "b"), ("x", "c", "d"),
]
_C4_EXCLUDED = [
    ("x", "a", "c"), ("a", "x", "c"), ("a", "c", "x"),
    ("x", "b", "d"), ("b", "x", "d"), ("b", "d", "x"),
]


def claim_c4_chart() -> str:
    m = c4_based_metric()
    facts = betweenness_triples(m)
    expected = {Betweenness(*f) for f in _C4_FACTS}
    _require(facts == expected, "4-cycle chart betweenness list differs from the printed one")
    for u, v, w in _C4_EXCLUDED:
        _require(Betweenness(u, v, w) not in facts, f"excluded orientation [{u}{v}{w}] present")
    _require(hypergraph_of(m) == based_hypergraph(cycle_graph(4)), "chart does not induce based 4-cycle")
    v4 = decide_metric(based_hypergraph(cycle_graph(4)))
    _require(v4.metric, "based 4-cycle should be metric")
    return "chart matches the printed 8 facts; based 4-cycle metric"


def claim_even_cycles_nonmetric() -> str:
    for n in range(6, 17, 2):
        v = decide_metric(based_hypergraph(cycle_graph(n)))
        _require(not v.metric, f"based cycle on {n} vertices should be non-metric")
    return "based even cycles n=6,8,...,16 non-metric"


def claim_c6_minimal() -> str:
    h = based_hypergraph(cycle_graph(6))
    _require(is_minimal_nonmetric(h), "based 6-cycle should be minimal non-metric")
    return "all 7 vertex deletions of the based 6-cycle are metric"


def claim_p5bar_nonmetric_minimal() -> str:
    h = based_hypergraph(complement(path_graph(5)))
    v = decide_metric(h)
    _require(not v.metric, "based complement-of-path-5 should be non-metric")
    _require(is_minimal_nonmetric(h), "it should also be minimal")
    return "based complement of the 5-path is minimal non-metric"


_P5BAR_MINUS_A_FACTS = [
    ("e", "b", "c"), ("e", "b", "d"), ("e", "c", "d"), ("b", "c", "d"),
    ("x", "e", "b"), ("x", "e", "c"), ("x", "d", "c"), ("x", "b", "c"),
]


def claim_p5bar_minus_a_chart() -> str:
    m = p5bar_minus_a_metric()
    facts = betweenness_triples(m)
    expected = {Betweenness(*f) for f in _P5BAR_MINUS_A_FACTS}
    _require(facts == expected, "deleted-vertex chart betweenness list differs from the printed one")
    h = based_hypergraph(complement(path_graph(5)))
    deletions = {canonical_form(h.delete_vertex(v)) for v in range(h.n)}
    _require(
        canonical_form(hypergraph_of(m)) in deletions,
        "the chart's hypergraph is no vertex deletion of the based complement of the 5-path",
    )
    return "the 5-point chart realizes a vertex deletion of the based complement of the 5-path exactly"


def claim_cycle_obstacles() -> str:
    for n in range(6, 17, 2):
        cert = certify_obstacle(cycle_graph(n))
        _require(cert is not None, f"cycle {n} should certify as an obstacle")
    return "even-cycle equivalences n=6,8,...,16 certified as obstacles"


def claim_cycle_obstacle_minimality() -> str:
    for n in (6, 8):
        checks = cycle_obstacle_restrictions(n)
        _require(all(c.ok for c in checks), f"a restriction of the {n}-cycle failed")
        for c in checks:
            _require(len(c.lines_seen) == 2, f"expected exactly two lines, saw {len(c.lines_seen)}")
    return "every one-vertex restriction realizes with exactly two lines"


def claim_c4_not_obstacle() -> str:
    cert = certify_obstacle(cycle_graph(4))
    _require(cert is None, "4-cycle must not certify (its based hypergraph is metric)")
    m = c4_based_metric()
    _require(
        check_meq(m, ["a", "b", "c", "d"], graph_equivalence(cycle_graph(4))),
        "the chart should realize the 4-cycle edge/non-edge equivalence",
    )
    return "negative control: 4-cycle equivalence is realized, not an obstacle"


def claim_oracle_agreement_n4() -> str:
    import itertools as it

    all4 = list(it.combinations(range(4), 3))
    for mask in range(1 << len(all4)):
        triples = [t for i, t in enumerate(all4) if mask >> i & 1]
        h = Hypergraph3.from_triples(4, triples)
        _require(
            decide_metric(h).metric == decide_metric_naive(h).metric,
            f"disagreement on 4-vertex mask {mask}",
        )
    return "all 16 hypergraphs on 4 vertices agree with the naive decider"


def claim_oracle_agreement_n5() -> str:
    import itertools as it
    import random

    rng = random.Random(580205)
    all5 = list(it.combinations(range(5), 3))
    for i in range(200):
        triples = [t for t in all5 if rng.random() < 0.5]
        h = Hypergraph3.from_triples(5, triples)
        _require(
            decide_metric(h).metric == decide_metric_naive(h).metric,
            f"disagreement on 5-vertex sample {i}",
        )
    return "200 random 5-vertex instances agree with the naive decider"


def claim_menger_suite() -> str:
    rng = random.Random(74001)
    for i in range(SUITE_CASES):
        m = random_shortest_path_metric(rng, rng.randint(3, 7))
        bad = check_menger(m)
        _require(not bad, f"case {i}: violations {bad[:3]} on {m.points}")
    return f"no four-point rule violations in {SUITE_CASES} random metric spaces"


def claim_apex_suite() -> str:
    rng = random.Random(74002)
    for i in range(SUITE_CASES):
        n = rng.randint(3, 7)
        m = random_linear_apex_metric(rng, n)
        bad = check_wh_implications(apex_classification(m, [str(k) for k in range(n)], "x"))
        _require(not bad, f"case {i}: {bad[0] if bad else ''}")
    return f"apex-class closure rules hold in {SUITE_CASES} random cases"


def claim_recovery_suite() -> str:
    rng = random.Random(74003)
    for i in range(SUITE_CASES):
        n = rng.randint(5, 9)
        positions = [Fraction(0)]
        for _ in range(n - 1):
            positions.append(positions[-1] + Fraction(rng.randint(1, 9), rng.randint(1, 4)))
        pos_of = {f"v{k}": positions[k] for k in range(n)}
        pts = sorted(pos_of)
        rng.shuffle(pts)
        rows = [[abs(pos_of[p] - pos_of[q]) for q in pts] for p in pts]
        order = recover_linear_order(validate_metric(pts, rows), pts)
        _require(order is not None, f"case {i}: no order recovered")
        values = [pos_of[lab] for lab in order]
        _require(
            values == sorted(values) or values == sorted(values, reverse=True),
            f"case {i}: recovered order not monotone",
        )
    return f"order recovery succeeded in {SUITE_CASES} random collinear cases"


def claim_witness_suite() -> str:
    rng = random.Random(74004)
    for i in range(SUITE_CASES):
        n = rng.randint(3, 5)
        h = random_hypergraph(rng, n, rng.choice((0.2, 0.4, 0.6, 0.8)))
        verdict = decide_metric(h)
        _require(
            not verdict.metric or hypergraph_of(verdict.witness) == h,
            f"case {i}: witness mismatch for {sorted(h.triples)}",
        )
    return f"all metric witnesses re-verified in {SUITE_CASES} random decisions"


_TRIANGLE_FREE = {
    "path-4": path_graph(4),
    "path-5": path_graph(5),
    "cycle-5": cycle_graph(5),
    "cycle-7": cycle_graph(7),
}


def claim_triangle_free_apex_structure() -> str:
    for name, g in _TRIANGLE_FREE.items():
        v = decide_metric(based_hypergraph(g))
        _require(v.metric, f"based {name} should be metric")
        m = v.witness
        core = [str(i) for i in range(g.n)]
        order = recover_linear_order(m, core)
        _require(order is not None, f"no linear order on the witness core for {name}")
        cls = apex_classification(m, order, str(g.n))
        consecutive = {(j, j + 1) for j in range(g.n - 1)}
        _require(
            cls.d1 | cls.d3 <= consecutive,
            f"{name}: apex pairs with endpoint middles must be consecutive",
        )
        _require(
            cls.d2 <= {(0, g.n - 1)},
            f"{name}: apex-middle pairs must be the extreme pair",
        )
    return "triangle-free realizations put apex pairs on consecutive/extreme slots"


def claim_odd_cycle_alternation() -> str:
    for n in (5, 7):
        v = decide_metric(based_hypergraph(cycle_graph(n)))
        _require(v.metric, f"based cycle {n} should be metric")
        core = [str(i) for i in range(n)]
        order = recover_linear_order(v.witness, core)
        _require(order is not None, f"no core order for cycle {n} witness")
        cls = apex_classification(v.witness, order, str(n))
        for j in range(n - 2):
            a = (j, j + 1) in cls.d1
            b = (j + 1, j + 2) in cls.d3
            _require(
                ((j, j + 1) in cls.d1 or (j, j + 1) in cls.d3)
                and ((j + 1, j + 2) in cls.d1 or (j + 1, j + 2) in cls.d3)
                and a == b,
                f"cycle {n}: consecutive pairs must alternate between the two endpoint classes",
            )
    return "odd-cycle witnesses alternate consecutive apex pairs between the endpoint classes"


def claim_enumeration_small_empty() -> str:
    res = enumerate_minimal_nonmetric(3)
    _require(not res.found, "no minimal non-metric hypergraph exists on 3 vertices")
    return "enumeration on 3 vertices is empty"


@functools.cache
def enumeration_n6() -> EnumerationResult:
    """The n=6 enumeration, run once per process and shared by the claim
    below and the tests that inspect its findings."""
    return enumerate_minimal_nonmetric(6)


def claim_enumeration_rediscovery() -> str:
    res = enumeration_n6()
    # 2136 classes of 3-uniform hypergraphs on 6 vertices (OEIS A000665)
    _require(
        (len(res.found), res.classes_examined) == (748, 2136),
        f"found {len(res.found)} minimal non-metric classes among {res.classes_examined},"
        " expected 748 among 2136",
    )
    for i, h in enumerate(res.found[:3]):
        _require(is_minimal_nonmetric(h), f"found entry {i} is not minimal non-metric")
    target = canonical_form(based_hypergraph(complement(path_graph(5))))
    _require(
        any(canonical_form(h) == target for h in res.found),
        "enumeration did not rediscover the based complement of the 5-path",
    )
    return (
        f"rediscovered it among {len(res.found)} minimal non-metric classes"
        f" ({res.classes_examined} classes examined; the first 3 re-checked minimal)"
    )


@dataclass(frozen=True)
class Claim:
    claim_id: str
    description: str
    run: Callable[[], str]


CLAIMS: tuple[Claim, ...] = (
    Claim("odd-cycle-charts", "odd-cycle charts induce their based hypergraphs", claim_odd_cycle_charts),
    Claim("odd-cycles-metric", "based odd cycles C3-C17 are metric (decider)", claim_odd_cycles_metric),
    Claim("c4-chart", "the printed 4-cycle chart and its betweenness list", claim_c4_chart),
    Claim("even-cycles-nonmetric", "based even cycles C6-C16 are non-metric", claim_even_cycles_nonmetric),
    Claim("c6-minimal", "based 6-cycle is minimal non-metric", claim_c6_minimal),
    Claim("p5bar-nonmetric-minimal", "based complement of the 5-path is minimal non-metric", claim_p5bar_nonmetric_minimal),
    Claim("p5bar-minus-a-chart", "the printed deleted-vertex chart", claim_p5bar_minus_a_chart),
    Claim("cycle-obstacles", "even-cycle equivalences C6-C16 certify as obstacles", claim_cycle_obstacles),
    Claim("cycle-obstacle-minimality", "one-vertex restrictions realize with two lines", claim_cycle_obstacle_minimality),
    Claim("c4-not-obstacle", "negative control: 4-cycle equivalence realized", claim_c4_not_obstacle),
    Claim("oracle-agreement-n4", "decider agrees with naive enumeration (4 vertices)", claim_oracle_agreement_n4),
    Claim("oracle-agreement-n5", "decider agrees with naive enumeration (5-vertex sample)", claim_oracle_agreement_n5),
    Claim("menger-suite", "four-point rule property suite", claim_menger_suite),
    Claim("apex-implication-suite", "apex-class closure property suite", claim_apex_suite),
    Claim("order-recovery-suite", "linear order recovery property suite", claim_recovery_suite),
    Claim("witness-reverify-suite", "metric witnesses re-verify property suite", claim_witness_suite),
    Claim("triangle-free-apex-structure", "triangle-free apex pairs are consecutive/extreme", claim_triangle_free_apex_structure),
    Claim("odd-cycle-alternation", "odd-cycle apex pairs alternate endpoint classes", claim_odd_cycle_alternation),
    Claim("enumeration-n3-empty", "no minimal non-metric hypergraphs on 3 vertices", claim_enumeration_small_empty),
    Claim("enumeration-n6-rediscovery", "6-vertex enumeration rediscovers the known example", claim_enumeration_rediscovery),
)


def run_manifest(only: Optional[str] = None) -> ReplayReport:
    """Run the full manifest (or a single claim by id) and report."""
    claims = [c for c in CLAIMS if only is None or c.claim_id == only]
    if only is not None and not claims:
        known = ", ".join(c.claim_id for c in CLAIMS)
        raise ValueError(f"unknown claim {only!r}; known claims: {known}")
    results = []
    for claim in claims:
        t0 = time.monotonic()
        try:
            detail = claim.run()
            passed = True
        except ClaimFailure as exc:
            detail = str(exc)
            passed = False
        except Exception as exc:  # claim crashed: counts as failure, keep going
            detail = f"{type(exc).__name__}: {exc}"
            passed = False
        results.append(ClaimResult(claim.claim_id, claim.description, passed, time.monotonic() - t0, detail))
    return ReplayReport(tuple(results))
