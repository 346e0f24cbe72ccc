"""Graph-based noncontextuality bounds, two-point compilation, and simulation."""

from .graphs import (
    EventGraph,
    Graph,
    build_graph,
    build_two_point_graph,
    complete_graph,
    cycle_graph,
    expand_weighted,
)
from .independence import (
    IndependenceResult,
    SizeLimitError,
    independence_number,
    is_independent,
)
from .theta import (
    SdpSolution,
    SdpStatus,
    SdpTermination,
    feasible,
    lift_dual,
    lift_primal,
    multiplier_matrix,
    theta,
    verify_dual,
    verify_feasibility,
)
from .orthorep import (
    ExtractionError,
    OrthoRep,
    extract_ortho_rep,
    realised,
    verify_ortho_rep,
)
from .simulate import (
    ExperimentRecord,
    NoiseModel,
    QState,
    exact_witnesses,
    joint_probs_demolition,
    joint_probs_projective,
    ordered_contexts,
    pure_state,
    run_experiment,
)
from .catalog import catalog, catalog_names
from .certify import CertifyOptions, CertifyReport, StageError, certify, emit_report
from .serialize import (
    ParseError, dumps_canonical, emit_graph, epsilon_prime, epsilon_signaling, parse_graph
)

__version__ = "0.1.0"

__all__ = [
    "EventGraph",
    "Graph",
    "build_graph",
    "build_two_point_graph",
    "complete_graph",
    "cycle_graph",
    "expand_weighted",
    "IndependenceResult",
    "SizeLimitError",
    "independence_number",
    "is_independent",
    "SdpSolution",
    "SdpStatus",
    "SdpTermination",
    "feasible",
    "lift_dual",
    "multiplier_matrix",
    "theta",
    "verify_dual",
    "verify_feasibility",
    "ExtractionError",
    "OrthoRep",
    "extract_ortho_rep",
    "lift_primal",
    "realised",
    "verify_ortho_rep",
    "ExperimentRecord",
    "NoiseModel",
    "QState",
    "exact_witnesses",
    "joint_probs_demolition",
    "joint_probs_projective",
    "ordered_contexts",
    "pure_state",
    "run_experiment",
    "catalog",
    "catalog_names",
    "CertifyOptions",
    "CertifyReport",
    "StageError",
    "certify",
    "emit_report",
    "ParseError",
    "dumps_canonical",
    "emit_graph",
    "epsilon_prime",
    "epsilon_signaling",
    "parse_graph",
]
