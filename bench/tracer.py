"""Per-layer tracing from outside the package.

The tracer wraps public functions and methods of the package for the
length of a traced pass, counts their calls and sums their self time: a
call's duration minus the part covered by the wrapped calls nested in it.
Functions the decider imports into its own namespace are wrapped under
that name, so only the decider's calls are seen.  A hook whose name no
longer exists is skipped, and the metrics that need it are reported
absent.

Search-node and conflict counts come from the ``Verdict.stats`` of the
decisions computed in the pass, collected by wrapping ``decide_metric``
and keeping each returned verdict once: a cache hit returns the same
object, so it is not counted twice.  Process workers tally inside
themselves; their work shows only in the merged ``Verdict.stats``.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import Counter
from typing import Any, Callable, Optional

import geodesic.decider as decider
import geodesic.enumeration as enumeration
import geodesic.obstacles as obstacles
from geodesic.orientation import OrientationState

# The decider imports its fan-out module lazily, and that module copies
# names out of the decider when first imported.  Import it now, so that
# it never binds a wrapper that outlives a traced pass.
with contextlib.suppress(ImportError):
    importlib.import_module("geodesic.parallel")

# (owner, attribute, tally name).  Leaf and relaxation systems are told
# apart by which builder made the system that reaches the solver.
HOOKS: tuple[tuple[Any, str, str], ...] = (
    (OrientationState, "assert_fact", "assert_fact"),
    (OrientationState, "seed_unchecked", "seed_unchecked"),
    (decider, "find_complete_core", "find_core"),
    (decider, "build_feasibility_system", "leaf_system"),
    (decider, "partial_feasibility_system", "relax_system"),
    (decider, "solve_exact_feasibility", "solve"),
    (decider, "hypergraph_of", "hypergraph_of"),
    (decider, "decide_metric", "decide"),
    (enumeration, "decide_metric", "decide"),
    (obstacles, "decide_metric", "decide"),
    (enumeration, "canonical_form", "canonical_form"),
    (enumeration, "enumerate_minimal_nonmetric", "enumerate"),
    (obstacles, "certify_obstacle", "certify"),
)

# Metrics that are counts, and must repeat exactly between two passes.
COUNT_METRICS = (
    "decider.nodes",
    "decider.conflicts",
    "decider.leaves_solved",
    "decider.leaves_infeasible",
    "decider.pruned",
    "decider.core_orders",
    "orientation.assert_fact_calls",
    "orientation.conflict_ratio",
    "feasibility.relax_solves",
    "feasibility.leaf_solves",
    "feasibility.lp_rows",
    "feasibility.prune_yield",
    "metric.hypergraph_of_calls",
    "enumeration.canonical_form_calls",
    "parallel.nodes_ratio",
)


class Tracer:
    """Tallies of one traced pass; :meth:`install` and :meth:`restore` bracket it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.lp_rows: Optional[int] = 0
        self.verdicts: dict[int, Any] = {}
        self.missing: set[str] = set()
        self._stack: list[float] = []
        self._last_system: tuple[Any, str] = (None, "")
        self._originals: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        for owner, attr, name in HOOKS:
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.add(name)
                continue
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stack, calls, self_s, clock = self._stack, self.calls, self.self_s, self.clock

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            tally = self._solve_kind(args[0]) if name == "solve" else name
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = clock() - t0
                self_s[tally] += spent - stack.pop()
                calls[tally] += 1
                if stack:
                    stack[-1] += spent
            if name.endswith("_system"):
                self._last_system = (result, name)
            elif name == "decide":
                self.verdicts.setdefault(id(result), result)
            return result

        return wrapper

    def _solve_kind(self, system: Any) -> str:
        made, by = self._last_system
        kinds = {"leaf_system": "leaf_solve", "relax_system": "relax_solve"}
        kind = kinds.get(by, "other_solve") if made is system else "other_solve"
        try:
            rows = len(system.equalities) + len(system.inequalities)
        except AttributeError:
            self.lp_rows = None
        else:
            if self.lp_rows is not None and kind != "other_solve":
                self.lp_rows += rows
        return kind

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the pass; a metric whose hook is missing is left out."""
        stats = [v.stats for v in self.verdicts.values()]
        nodes = sum(s.nodes for s in stats)
        conflicts = sum(sum(s.conflicts.values()) for s in stats)
        has_pruned = all(hasattr(s, "pruned") for s in stats)
        pruned = sum(s.pruned for s in stats) if has_pruned else 0
        calls, self_s = self.calls, self.self_s
        out: dict[str, float] = {}

        def put(name: str, value: float, *needs: str) -> None:
            if not self.missing.intersection(needs):
                out[name] = value

        put("decider.nodes", nodes, "decide")
        put("decider.conflicts", conflicts, "decide")
        put("decider.leaves_solved", sum(s.leaves_solved for s in stats), "decide")
        put("decider.leaves_infeasible", sum(s.leaves_infeasible for s in stats), "decide")
        if has_pruned:
            put("decider.pruned", pruned, "decide")
        put("decider.core_orders", calls["seed_unchecked"], "seed_unchecked")
        put("decider.find_core_s", self_s["find_core"], "find_core")
        put("decider.search_s", self_s["decide"], "decide")
        put("orientation.assert_fact_calls", calls["assert_fact"], "assert_fact")
        put("orientation.assert_fact_s", self_s["assert_fact"], "assert_fact")
        put("orientation.conflict_ratio", _ratio(conflicts, calls["assert_fact"]), "assert_fact", "decide")
        put("feasibility.relax_solves", calls["relax_solve"], "solve", "relax_system")
        put("feasibility.relax_solve_s", self_s["relax_solve"], "solve", "relax_system")
        put("feasibility.leaf_solves", calls["leaf_solve"], "solve", "leaf_system")
        put("feasibility.leaf_solve_s", self_s["leaf_solve"], "solve", "leaf_system")
        if self.lp_rows is not None:
            put("feasibility.lp_rows", self.lp_rows, "solve", "leaf_system")
        if has_pruned:
            put("feasibility.prune_yield", _ratio(pruned, calls["relax_solve"]), "solve", "relax_system", "decide")
        put("metric.hypergraph_of_calls", calls["hypergraph_of"], "hypergraph_of")
        put("metric.hypergraph_of_s", self_s["hypergraph_of"], "hypergraph_of")
        put("enumeration.canonical_form_calls", calls["canonical_form"], "canonical_form")
        put("enumeration.canonical_form_s", self_s["canonical_form"], "canonical_form")
        put("enumeration.enumerate_s", self_s["enumerate"], "enumerate")
        put("obstacles.certify_s", self_s["certify"], "certify")
        return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
