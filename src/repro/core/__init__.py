"""The paper's primary contribution (Sections 3, 5 and 7).

The ``time(A, U)`` construction with predictive timing state, strong
possibilities mappings and their machine checkers, dummification, and
the canonical completeness mapping.
"""

from repro.core.boundmap_time import ExplicitBoundmapTime
from repro.core.checker import (
    CheckOutcome,
    check_chain_on_run,
    check_mapping_exhaustive,
    check_mapping_on_run,
)
from repro.core.completeness import (
    CanonicalMapping,
    ExhaustiveFirstEstimator,
    SamplingFirstEstimator,
)
from repro.core.discretize import discrete_options, grid_aligned, grid_times
from repro.core.inclusion import InclusionOutcome, check_semantic_inclusion
from repro.core.dummification import (
    DUMMY_STATE,
    NULL,
    dummify,
    dummify_condition,
    dummify_conditions,
    dummy_automaton,
    undum,
)
from repro.core.mappings import (
    NOW,
    Ineq,
    InequalityMapping,
    Linear,
    MappingChain,
    ProjectionMapping,
    StrongPossibilitiesMapping,
    source_ft,
    source_lt,
    target_ft,
    target_lt,
)
from repro.core.projection import lift, project, validate_run
from repro.core.time_automaton import (
    PredictiveTimeAutomaton,
    time_of_boundmap,
    time_of_conditions,
)
from repro.core.time_state import DEFAULT_PREDICTION, Prediction, TimeState

__all__ = [
    "TimeState",
    "Prediction",
    "DEFAULT_PREDICTION",
    "PredictiveTimeAutomaton",
    "time_of_conditions",
    "time_of_boundmap",
    "ExplicitBoundmapTime",
    "project",
    "lift",
    "validate_run",
    "StrongPossibilitiesMapping",
    "InequalityMapping",
    "Ineq",
    "Linear",
    "NOW",
    "target_ft",
    "target_lt",
    "source_ft",
    "source_lt",
    "ProjectionMapping",
    "MappingChain",
    "CheckOutcome",
    "check_mapping_on_run",
    "check_chain_on_run",
    "check_mapping_exhaustive",
    "grid_times",
    "grid_aligned",
    "discrete_options",
    "InclusionOutcome",
    "check_semantic_inclusion",
    "NULL",
    "DUMMY_STATE",
    "dummy_automaton",
    "dummify",
    "undum",
    "dummify_condition",
    "dummify_conditions",
    "ExhaustiveFirstEstimator",
    "SamplingFirstEstimator",
    "CanonicalMapping",
]
