"""Exact tooling for metric betweenness.

Finite metric spaces over rationals, the 3-uniform hypergraphs their
collinear triples form, lines and line-equality partitions; a complete
decision procedure for whether a hypergraph arises from any metric
space; and obstacle certificates for pair equivalences that no metric
space on any superset can realize through line equality.
"""

from .apex import ApexClassification, apex_classification, check_wh_implications
from .constructions import (
    ConstructionError,
    c4_based_metric,
    odd_cycle_metric,
    p5bar_minus_a_metric,
    path_based_metric,
)
from .decider import (
    DecideOptions,
    SearchStats,
    Verdict,
    clear_decision_cache,
    decide_metric,
    decide_metric_naive,
    find_complete_core,
    is_minimal_nonmetric,
)
from .enumeration import EnumerationResult, canonical_form, enumerate_minimal_nonmetric
from .feasibility import (
    FeasibilitySystem,
    build_feasibility_system,
    solve_exact_feasibility,
)
from .hypergraphs import (
    Graph,
    Hypergraph3,
    PairEquivalence,
    based_hypergraph,
    complement,
    complete_graph,
    cycle_graph,
    graph_equivalence,
    induced_subhypergraph,
    path_graph,
)
from .metric import (
    AxiomViolation,
    Betweenness,
    MetricSpace,
    MetricValidationError,
    betweenness_triples,
    check_menger,
    check_meq,
    hypergraph_of,
    induced_subspace,
    line,
    line_partition,
    menger_violations,
    recover_linear_order,
    validate_metric,
)
from .obstacles import (
    ObstacleCertificate,
    ObstacleRouteInapplicable,
    certify_obstacle,
    cycle_obstacle_restrictions,
)
from .orientation import ClosureConflict, OrientationAssignment, orientation_closure
from .replay import ReplayReport, run_manifest

__version__ = "0.1.0"

__all__ = [
    "ApexClassification",
    "AxiomViolation",
    "Betweenness",
    "ClosureConflict",
    "ConstructionError",
    "DecideOptions",
    "EnumerationResult",
    "FeasibilitySystem",
    "Graph",
    "Hypergraph3",
    "MetricSpace",
    "MetricValidationError",
    "ObstacleCertificate",
    "ObstacleRouteInapplicable",
    "OrientationAssignment",
    "PairEquivalence",
    "ReplayReport",
    "SearchStats",
    "Verdict",
    "apex_classification",
    "based_hypergraph",
    "betweenness_triples",
    "build_feasibility_system",
    "c4_based_metric",
    "canonical_form",
    "certify_obstacle",
    "check_menger",
    "check_meq",
    "check_wh_implications",
    "clear_decision_cache",
    "complement",
    "complete_graph",
    "cycle_graph",
    "cycle_obstacle_restrictions",
    "decide_metric",
    "decide_metric_naive",
    "enumerate_minimal_nonmetric",
    "find_complete_core",
    "graph_equivalence",
    "hypergraph_of",
    "induced_subhypergraph",
    "induced_subspace",
    "is_minimal_nonmetric",
    "line",
    "line_partition",
    "menger_violations",
    "odd_cycle_metric",
    "orientation_closure",
    "p5bar_minus_a_metric",
    "path_based_metric",
    "path_graph",
    "recover_linear_order",
    "run_manifest",
    "solve_exact_feasibility",
    "validate_metric",
]
