"""Perturbation analysis of constrained reachability in parametric Markov chains.

Compute reachability probabilities of Markov chains whose transition rows
carry named distribution parameters, the condition numbers bounding the
effect of perturbing those parameters in total-variation distance, and
empirical validations of the bounds by exact re-solving of perturbed
chains.
"""

from .errors import (
    ArityMismatchError,
    BadIndicesError,
    DirectionMismatchError,
    DomainError,
    EmptyDestinationError,
    EmptyVectorError,
    IndexOutOfRangeError,
    InfeasibleDistanceError,
    MissingParameterError,
    ModelSchemaError,
    ModelSyntaxError,
    ModelValidationError,
    NonpositiveDeltaError,
    PmcError,
    SimplexViolationError,
    SingularSystemError,
    UnknownParameterError,
    WeightsNotNormalizedError,
)
from .example_models import build_frog, build_zeroconf
from .model import (
    Assignment,
    ConcreteRows,
    DistributionParameter,
    Pmc,
    STOCHASTIC_TOL,
    ValidationResult,
    Violation,
    ViolationKind,
    absolute_distance,
    instantiate,
    model_digest,
    reference_assignment,
    validate_pmc,
)
from .modelfile import ParsedModel, parse_model, render_model
from .perturbation import (
    Direction,
    ReferenceSolve,
    SensitivityReport,
    analyze,
    condition_number_basic,
    condition_number_directional,
    gradient_coefficients,
    linear_estimate,
)
from .reachability import (
    CanonicalProblem,
    LinearSystem,
    ReachabilityProblem,
    canonicalize,
    constrained_initial,
    extract_system,
    reach_positive_mask,
    solve_reachability,
    total_probability,
)
from .sampler import (
    SampleBatch,
    VIOLATION_SLACK,
    ValidationReport,
    evaluate_assignments,
    extremal_perturbation,
    sample_on_simplex,
    validate_bounds,
)

__version__ = "0.1.0"

__all__ = [
    "ArityMismatchError", "BadIndicesError", "DirectionMismatchError",
    "DomainError", "EmptyDestinationError", "EmptyVectorError",
    "IndexOutOfRangeError", "InfeasibleDistanceError", "MissingParameterError",
    "ModelSchemaError", "ModelSyntaxError", "ModelValidationError",
    "NonpositiveDeltaError", "PmcError",
    "SimplexViolationError", "SingularSystemError", "UnknownParameterError",
    "WeightsNotNormalizedError",
    "build_frog", "build_zeroconf",
    "Assignment", "ConcreteRows", "DistributionParameter", "Pmc", "STOCHASTIC_TOL",
    "ValidationResult", "Violation", "ViolationKind", "absolute_distance",
    "instantiate", "model_digest", "reference_assignment", "validate_pmc",
    "ParsedModel", "parse_model", "render_model",
    "Direction", "ReferenceSolve", "SensitivityReport",
    "analyze", "condition_number_basic", "condition_number_directional",
    "gradient_coefficients", "linear_estimate",
    "CanonicalProblem", "LinearSystem", "ReachabilityProblem", "canonicalize",
    "constrained_initial", "extract_system", "reach_positive_mask",
    "solve_reachability", "total_probability",
    "SampleBatch", "VIOLATION_SLACK", "ValidationReport", "evaluate_assignments",
    "extremal_perturbation", "sample_on_simplex", "validate_bounds",
]
